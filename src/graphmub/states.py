"""Dense complex state vectors for graph bases, plus measurement circuits.

States are numpy complex128 vectors of length p^n in computational order
with qupit 1 as the most significant base-p digit.  All phases are exact
roots of unity looked up from a precomputed table indexed by integer
exponent arithmetic, never accumulated by repeated multiplication, so
the only numerical error is double-precision rounding.

The numeric unbiasedness sweep uses that the label phases form the
character table of Z_p^n: the overlap of |G_r(m)> and |G_t(m')> depends
only on the label difference m' - m, and the n-qupit Fourier transform
of conj(g_r) g_t yields all p^n of them at once.  That product is the
graph state of D = A_t - A_r mod p over sqrt(p^n), up to a label shift
for p = 2, so the full sweep transforms one state per distinct D, at the
least pair that meets it (`mubs.difference_classes`): row 0 for a family
that `MubSet.affine` proves a field or a shifted field in index order, a
walk over all pairs for any other (a field in another order included).
The transform takes the qupits in ceil(n / b) blocks of at most b, with
p^b <= FOURIER_BLOCK: one complex matmul per block against a cached
dense table of F on the block's qupits.  A qupit with p > FOURIER_BLOCK
takes a length-p FFT instead, so no table grows past FOURIER_BLOCK^2.
Every amplitude is a root of unity over sqrt(p^n), so every overlap with
the computational basis is exactly 1/d: both checks give each such pair
or draw one closed-form bound on its rounding (_computational_dev) and
evaluate no exponent for it.

The sampled check builds no state vectors.  Every amplitude of a basis
element is w_M^e(x) / sqrt(p^n) with e(x) linear in the upper triangle of
the adjacency matrix and in the label (M = 4 for p = 2, else M = p), so a
cross-basis overlap is a character sum over the exponents of a difference
row.  Splitting the qupits into a head of ceil(n/2) and a tail of
floor(n/2), the exponent is a head part, a tail part and one bilinear
term u.C v between them, so the sum is the head's phases times the
tail's Fourier transform (the full sweep's kernel) read at the
frequencies C^T u: O(p^ceil(n/2) n^2) per draw, not O(p^n n^2).  The
label's phases are a head part, in the head's exponents, and a tail part
w_p^(k.v), which shifts the tail's transform by k, the digits of the
tail label difference: it enters as an offset of the frequency index,
C^T u + k, and adds no exponent column.  Exponents come from float64
matmuls against monomial tables, exact in integers while the (p, n)
bound that verify_mu_numeric checks first holds, signed coefficients
included; graph_state uses the same tables.

Gate conventions: the local phase gate is diag(i^k) for p = 2 and
diag(w_p^{k(k-1)/2}) for p >= 3; the controlled phase multiplies
|k>_i |l>_j by w_p^{kl}; Z is diag(w_p^k); the Fourier transform has
entries w_p^{jk} / sqrt(p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import MatZp, mod
from .mubs import MubSet, _upper, difference_classes

FULL_SWEEP_LIMIT = 10**4
SAMPLE_CHUNK = 1 << 16  # array entries per chunk of the numeric checks
FOURIER_BLOCK = 128  # side of the largest dense Fourier table in the full sweep


@lru_cache(maxsize=None)
def _roots(m: int) -> np.ndarray:
    table = np.exp(2j * np.pi * np.arange(m) / m)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _digits(p: int, n: int) -> np.ndarray:
    """Base-p digit table, shape (p^n, n), most significant digit first."""
    table = np.arange(p**n)[:, None] // p ** np.arange(n - 1, -1, -1) % p
    table.setflags(write=False)
    return table


def state_index(m, p: int) -> int:
    """Computational index of |m_1 ... m_n>."""
    k = 0
    for v in m:
        k = k * p + v % p
    return k


def plus_state(p: int, n: int) -> np.ndarray:
    return np.full(p**n, p ** (-n / 2), dtype=np.complex128)


def _check_qupit(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise IndexError(f"qupit index {i} outside [1, {n}]")


def apply_local_phase(amps: np.ndarray, p: int, n: int, i: int,
                      power: int = 1) -> np.ndarray:
    """U_{i,i}^power; the p = 2 gate has period 4."""
    _check_qupit(i, n)
    k = _digits(p, n)[:, i - 1]
    if p == 2:
        return amps * _roots(4)[(power * k) % 4]
    half = (p + 1) // 2  # inverse of 2 mod p
    exps = (power * k * (k - 1) * half) % p
    return amps * _roots(p)[exps]


def apply_controlled_phase(amps: np.ndarray, p: int, n: int, i: int, j: int,
                           power: int = 1) -> np.ndarray:
    _check_qupit(i, n)
    _check_qupit(j, n)
    if i == j:
        raise IndexError("controlled phase needs two distinct qupits")
    dig = _digits(p, n)
    exps = (power * dig[:, i - 1] * dig[:, j - 1]) % p
    return amps * _roots(p)[exps]


def apply_pauli_z(amps: np.ndarray, p: int, n: int, i: int,
                  power: int = 1) -> np.ndarray:
    _check_qupit(i, n)
    exps = (power * _digits(p, n)[:, i - 1]) % p
    return amps * _roots(p)[exps]


def apply_fourier(amps: np.ndarray, p: int, n: int, i: int,
                  dagger: bool = False) -> np.ndarray:
    """F (or F^dagger) on qupit i by one length-p FFT per slice: numpy's
    orthonormal inverse FFT has F's entries w_p^{jk} / sqrt(p)."""
    _check_qupit(i, n)
    cube = amps.reshape(-1, p, p ** (n - i))
    return (np.fft.fft if dagger else np.fft.ifft)(cube, axis=1, norm="ortho").reshape(-1)


def apply_shift_x(amps: np.ndarray, p: int, n: int, i: int) -> np.ndarray:
    """Generalized Pauli X on qupit i: |k> -> |k+1 mod p>."""
    _check_qupit(i, n)
    cube = amps.reshape(p ** (i - 1), p, p ** (n - i))
    return np.roll(cube, 1, axis=1).reshape(-1)


# ---------------------------------------------------------------------------
# Graph states and bases
# ---------------------------------------------------------------------------


def _require_adjacency(a: MatZp) -> None:
    if not a.is_symmetric:
        raise ValueError("adjacency matrix must be symmetric")


def _phase_modulus(p: int) -> int:
    """M: graph phases are powers of w_M, and the label phase w_p^{m.x} is
    w_M^{(M/p) m.x}.  M = 4 for p = 2 (the local phase gate has period 4),
    M = p for odd p."""
    return 4 if p == 2 else p


def _check_exact(p: int, n: int) -> None:
    """A ValueError unless k (M - 1)^2 < 2^53 with k = n(n+1)/2 + n: a row
    of k coefficients below M against _phase_table(p, n) sums k terms below
    M^2, so its float64 matmul is exact in integers only then."""
    if (n * (n + 1) // 2 + n) * (_phase_modulus(p) - 1) ** 2 >= 2**53:
        raise ValueError(f"phase exponents for p={p}, n={n} exceed float64 precision")


@lru_cache(maxsize=None)
def _phase_table(p: int, n: int) -> np.ndarray:
    """Float64 monomials of the phase exponent at all p^n inputs x in
    computational order, shape (n(n+1)/2 + n, p^n), entries reduced mod M,
    read-only; refused first unless _check_exact passes.

    Row (i, j), i <= j in row-major order, is the monomial that A_ij
    multiplies in the phase exponent of |G(m)>(x): x_i (p = 2) or
    x_i(x_i - 1)/2 (odd p) on the diagonal, 2 x_i x_j (p = 2) or x_i x_j
    (odd p) off it.  The last n rows are (M/p) x_i, multiplied by m_i."""
    _check_exact(p, n)
    dig = _digits(p, n).T
    m = _phase_modulus(p)
    lab = m // p
    rows = []
    for i in range(n):
        rows.append(dig[i] if p == 2 else dig[i] * (dig[i] - 1) // 2)
        rows.extend(lab * dig[i] * dig[j] for j in range(i + 1, n))
    rows.extend(lab * dig)
    table = (np.array(rows, dtype=np.int64).reshape(-1, p**n) % m).astype(np.float64)
    table.setflags(write=False)
    return table


def _exponents(coefs: np.ndarray, p: int, n: int) -> np.ndarray:
    """Phase exponents mod M at all p^n inputs x, int64 of shape (..., p^n),
    for coefficient rows (..., k), integers in (-M, M) on any dtype (a
    signed difference row, or float64 rows a caller filled), against the
    first k rows of _phase_table: one float64 matmul, exact (see
    _check_exact: every term is below (M - 1)^2 in magnitude), cast to
    int64 and reduced mod M in place."""
    table = _phase_table(p, n)[: coefs.shape[-1]]
    return mod((coefs.astype(np.float64, copy=False) @ table).astype(np.int64),
               _phase_modulus(p))


def graph_state(a: MatZp) -> np.ndarray:
    """Apply U_{i,j}^{A_ij} for all i <= j to the uniform superposition.

    All gates are diagonal and commute, so the amplitudes are computed in
    a single vectorized pass.
    """
    _require_adjacency(a)
    p, n = a.p, a.n
    m = _phase_modulus(p)
    coefs = _upper(np.array(a.rows, dtype=np.int64))
    return plus_state(p, n) * _roots(m)[_exponents(coefs, p, n)]


def basis_element(a: MatZp, m) -> np.ndarray:
    """|G(m_1, ..., m_n)>: local Z powers applied to the graph state."""
    p, n = a.p, a.n
    mvec = np.array([v % p for v in m], dtype=np.int64)
    if len(mvec) != n:
        raise ValueError("label length must equal n")
    exps = (_digits(p, n) @ mvec) % p
    return graph_state(a) * _roots(p)[exps]


def basis_matrix(a: MatZp) -> np.ndarray:
    """All p^n basis elements as columns, labels in computational order."""
    p, n = a.p, a.n
    dig = _digits(p, n)
    w = _roots(p)[(dig @ dig.T) % p]
    return graph_state(a)[:, None] * w


def overlap(u: np.ndarray, v: np.ndarray) -> float:
    """Squared modulus of the inner product."""
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    return abs(np.vdot(u, v)) ** 2


# ---------------------------------------------------------------------------
# Stabilizer generators
# ---------------------------------------------------------------------------


def stabilizer_check(a: MatZp, m, tol: float = 1e-10) -> bool:
    """Verify S_i |G(m)> = lambda_i |G(m)> for every generator.

    S_i = X_i Z_i^{A_ii} prod_{j != i} Z_j^{A_ij}, with the extra i^{A_ii}
    prefactor for p = 2; the eigenvalue is w_2^{m_i} for p = 2 and
    w_p^{-m_i} for p >= 3.
    """
    _require_adjacency(a)
    p, n = a.p, a.n
    psi = basis_element(a, m)
    dig = _digits(p, n)
    for i in range(1, n + 1):
        row = np.array(a.rows[i - 1], dtype=np.int64)
        phi = psi * _roots(p)[(dig @ row) % p]
        phi = apply_shift_x(phi, p, n, i)
        if p == 2:
            phi = phi * _roots(4)[a[i - 1, i - 1] % 4]
            lam = _roots(2)[m[i - 1] % 2]
        else:
            lam = _roots(p)[(-m[i - 1]) % p]
        if np.max(np.abs(phi - lam * psi)) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# Measurement circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    kind: str  # F | FDAG | P | CP | Z
    i: int
    j: int | None = None
    power: int | None = None


@dataclass(frozen=True)
class Circuit:
    p: int
    n: int
    gates: tuple[Gate, ...]


def emit_measurement_circuit(a: MatZp) -> Circuit:
    """Circuit measuring in the graph basis of `a`.

    Undoes every phase gate (controlled phases first, then local phases)
    and finishes with an inverse Fourier transform on every qupit; joint
    outcomes then equal the basis labels.  The local phase inverse is the
    cube of the gate for p = 2 (period 4), stored as power in [0, 4).
    """
    _require_adjacency(a)
    p, n = a.p, a.n
    gates = []
    for i in range(n):
        for j in range(i + 1, n):
            power = (p - a[i, j]) % p
            if power:
                gates.append(Gate("CP", i + 1, j=j + 1, power=power))
    period = 4 if p == 2 else p
    for i in range(n):
        power = (period - a[i, i]) % period
        if power:
            gates.append(Gate("P", i + 1, power=power))
    for i in range(n):
        gates.append(Gate("FDAG", i + 1))
    return Circuit(p=p, n=n, gates=tuple(gates))


def apply_gate(amps: np.ndarray, p: int, n: int, g: Gate) -> np.ndarray:
    if g.kind == "F":
        return apply_fourier(amps, p, n, g.i)
    if g.kind == "FDAG":
        return apply_fourier(amps, p, n, g.i, dagger=True)
    if g.kind == "P":
        return apply_local_phase(amps, p, n, g.i, g.power)
    if g.kind == "CP":
        return apply_controlled_phase(amps, p, n, g.i, g.j, g.power)
    if g.kind == "Z":
        return apply_pauli_z(amps, p, n, g.i, g.power)
    raise ValueError(f"unknown gate kind {g.kind!r}")


def apply_circuit(c: Circuit, amps: np.ndarray) -> np.ndarray:
    out = amps.copy()
    for g in c.gates:
        out = apply_gate(out, c.p, c.n, g)
    return out


def simulate_measurement(c: Circuit, amps: np.ndarray) -> np.ndarray:
    """Joint outcome probabilities in computational order after the circuit."""
    if len(amps) != c.p**c.n:
        raise ValueError("state dimension does not match the circuit")
    return np.abs(apply_circuit(c, amps)) ** 2


def circuit_to_text(c: Circuit) -> str:
    lines = [f"#qupits {c.n} prime {c.p}"]
    for g in c.gates:
        if g.kind in ("F", "FDAG"):
            lines.append(f"{g.kind} {g.i}")
        elif g.kind == "CP":
            lines.append(f"CP {g.i} {g.j} {g.power}")
        else:
            lines.append(f"{g.kind} {g.i} {g.power}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#qupits"):
        raise ValueError("missing '#qupits n prime p' header")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "#qupits" or head[2] != "prime":
        raise ValueError(f"malformed header: {lines[0]!r}")
    n, p = int(head[1]), int(head[3])
    gates = []
    for ln in lines[1:]:
        parts = ln.split()
        kind = parts[0]
        if kind in ("F", "FDAG") and len(parts) == 2:
            gates.append(Gate(kind, int(parts[1])))
        elif kind in ("P", "Z") and len(parts) == 3:
            gates.append(Gate(kind, int(parts[1]), power=int(parts[2])))
        elif kind == "CP" and len(parts) == 4:
            gates.append(Gate(kind, int(parts[1]), j=int(parts[2]),
                              power=int(parts[3])))
        else:
            raise ValueError(f"malformed gate line: {ln!r}")
    return Circuit(p=p, n=n, gates=tuple(gates))


# ---------------------------------------------------------------------------
# Numeric unbiasedness verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericReport:
    ok: bool
    mode: str
    pairs_checked: int
    worst_deviation: float
    first_violation: tuple | None  # (basis_r, basis_s, label_r, label_s, value)


def verify_mu_numeric(s: MubSet, tol: float = 1e-10, sample: int | None = None,
                      seed: int = 0) -> NumericReport:
    """Check every cross-basis squared overlap against 1/p^n.

    The implicit computational basis participates as basis index p^n.
    Full mode sweeps all pairs of bases (dimension capped), one Fourier
    transform per distinct difference A_t - A_r, and reports labels
    (0, k) with k the first label at the pair's exact worst overlap;
    sampled mode draws `sample` random cross-basis pairs.
    A tol that is negative or not finite is a ValueError (no deviation
    exceeds NaN, so a NaN tol would pass any family), and so is a sample
    that is not an int >= 1 (zero draws would pass any family), and so is
    a (p, n) whose phase exponents float64 cannot hold exactly
    (_check_exact), before anything is allocated.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if sample is not None and not (isinstance(sample, (int, np.integer))
                                   and not isinstance(sample, bool) and sample >= 1):
        raise ValueError(f"sample must be an int >= 1, got {sample!r}")
    _check_exact(s.p, s.n)
    d = s.dim
    if sample is None:
        if d > FULL_SWEEP_LIMIT:
            raise ValueError(f"dimension {d} exceeds the full-sweep cap "
                             f"{FULL_SWEEP_LIMIT}; use sampled mode")
        return _verify_full(s, tol)
    return _verify_sampled(s, tol, _sample_draws(s, sample, seed))


def _verify_full(s: MubSet, tol: float) -> NumericReport:
    """Row r holds the pairs (r, t), t > r, then (r, computational).  The
    overlaps of graph bases r and t, as a multiset over labels, are the
    Fourier spectrum of the graph state g_D of D = A_t - A_r mod p (the
    phase exponent is linear in A for odd p; for p = 2 a diagonal -1 in Z_4
    is +1 plus a label shift), so each distinct D is transformed once, at
    its least pair (`difference_classes`: row 0 of an affine stack, else
    the walk).  Every computational pair takes _computational_dev, so if
    that fails, row 0 holds the first violation: its failing class if any
    (a class comes first in its row, as a row-by-row scan meets them),
    else (0, computational)."""
    p, n, coefs = s.p, s.n, _upper(s.stack)
    comp = len(coefs)  # index of the computational basis
    comp_dev = _computational_dev(p, n) if comp else 0.0
    worst = comp_dev
    pair = None
    for r, ts in difference_classes(s):
        devs = _class_devs(mod(coefs[ts] - coefs[r], p), p, n)
        worst = max(worst, float(devs.max(initial=0.0)))
        if pair is None:
            bad = np.flatnonzero(devs > tol)
            if bad.size:
                pair = (r, int(ts[bad[0]]))
    first = None
    if pair is not None and (pair[0] == 0 or comp_dev <= tol):
        first = _pair_violation(s, *pair)
    elif comp_dev > tol:
        first = (0, comp, 0, 0, comp_dev)
    return NumericReport(
        ok=first is None,
        mode="full",
        pairs_checked=comp * (comp + 1) // 2,
        worst_deviation=worst,
        first_violation=first,
    )


def _computational_dev(p: int, n: int) -> float:
    """max_k ||p^(-n/2) w_M^k|^2 - 1/d| over the M roots of _roots(M).
    Every amplitude of a graph basis element is p^(-n/2) times one of them,
    so every overlap with the computational basis, exactly 1/d, rounds to
    within this bound of 1/d."""
    return float(np.abs(np.abs(p ** (-n / 2) * _roots(_phase_modulus(p))) ** 2
                        - 1.0 / p**n).max())


@lru_cache(maxsize=None)
def _fourier_block(p: int, b: int) -> np.ndarray:
    """F on b qupits as a dense read-only (p^b, p^b) table: entry (j, k) is
    w_p^{j.k} / sqrt(p^b), j.k the dot product of the base-p digits, a
    lookup in _roots(p) like every phase."""
    dig = _digits(p, b)
    table = p ** (-b / 2) * _roots(p)[(dig @ dig.T) % p]
    table.setflags(write=False)
    return table


def _fourier(amps: np.ndarray, p: int, n: int) -> np.ndarray:
    """F a for each row a of amps (N, p^n), or for one row (p^n,), as
    shape (N, p^n).  F is the n-qupit Fourier transform, applied in
    ceil(n / b) blocks of c <= b qupits, as even as they come, with b the
    largest such that p^b <= FOURIER_BLOCK: the last c qupits take one
    matmul against the symmetric _fourier_block(p, c), O(d p^c), then a
    rotation brings them to the front.  A qupit with p > FOURIER_BLOCK
    takes a length-p inverse FFT (numpy's sign is F's) instead, O(d log p)
    and no p x p table."""
    d = p**n
    b = 1
    while p ** (b + 1) <= FOURIER_BLOCK:
        b += 1
    blocks = -(-n // b)
    for i in range(blocks):
        c = (n + i) // blocks
        q = p**c
        amps = amps.reshape(-1, q)
        if q > FOURIER_BLOCK:
            amps = np.fft.ifft(amps, norm="ortho")
        else:
            amps = amps @ _fourier_block(p, c)
        amps = amps.reshape(-1, d // q, q).transpose(0, 2, 1)
    return amps.reshape(-1, d)


def _fourier_devs(amps: np.ndarray, p: int, n: int) -> np.ndarray:
    """||F a(k)|^2 - 1/d| for each row a of amps (N, p^n), or for one row
    (p^n,), as shape (N, p^n), F as in _fourier."""
    dev = np.abs(_fourier(amps, p, n))
    dev **= 2
    dev -= 1.0 / p**n
    return np.abs(dev, out=dev)


def _class_devs(coefs: np.ndarray, p: int, n: int) -> np.ndarray:
    """max_k ||F g_D(k)|^2 - 1/d| for each coefficient row of D, in chunks
    of about SAMPLE_CHUNK amplitudes."""
    amp_of = p ** (-n / 2) * _roots(_phase_modulus(p))
    rows = max(1, SAMPLE_CHUNK // p**n)
    out = np.empty(len(coefs))
    for lo in range(0, len(coefs), rows):
        amps = amp_of[_exponents(coefs[lo:lo + rows], p, n)]
        out[lo:lo + rows] = _fourier_devs(amps, p, n).max(axis=1)
    return out


def _pair_violation(s: MubSet, r: int, t: int) -> tuple:
    """(r, t, 0, k, dev) for the pair's largest deviation dev, from |F h|^2
    with h = sqrt(d) conj(g_r) g_t, read from the stack rows.  Exact
    overlaps are 0 or p^j / d, so d * dev rounds to an integer: k is the
    first label where it is largest, whatever the rounding of the ties."""
    p, n = s.p, s.n
    g = _roots(_phase_modulus(p))[_exponents(_upper(s.stack[[r, t]]), p, n)]
    devs = _fourier_devs(p ** (-n / 2) * g[0].conj() * g[1], p, n)[0]
    return (r, t, 0, int(np.rint(p**n * devs).argmax()), float(devs.max()))


def _frequencies(cross: np.ndarray, lr: np.ndarray, ls: np.ndarray, p: int,
                 buffers) -> np.ndarray:
    """Flat indices into an (N, p^l) array of the frequencies C^T u + k mod
    p at every head input u, shape (N, p^h), for a chunk's blocks C
    (N, h, l) with entries in (-p, p), a view of its difference rows, and
    k the digits of tail label ls minus those of tail label lr, labels in
    [0, p^l): the tail's label phases shift its Fourier transform by k, so
    they enter as this index offset, not as exponent columns.  For p = 2
    the indices are built in the (2^h, N) layout of `buffers` and returned
    transposed: row 0 is p^l r XOR ls XOR lr, and they double over the head
    digits, least significant first: the rows with head digit i = 1 are
    those with i = 0 XOR row i of C packed in l bits, one in-place
    bitwise_xor per digit over N contiguous entries a row.  For odd p, a
    Horner combine over the l tail digits in two float64 buffers of the
    output's size: C_j^T u from one matmul against the head's digits, plus
    k_j, and its remainder as x - p floor(x / p), all exact (|sums| below
    (h + 1) p^2, indices below N p^l).  `buffers` are the caller's, held
    across chunks: the int64 indices (2^h, N) for p = 2; for odd p the
    floats (2, N, p^h) and the int64 indices (N, p^h) it returns."""
    rows, h, l = cross.shape
    if p == 2:
        out = buffers
        packed = ((cross & 1) @ (1 << np.arange(l - 1, -1, -1))).T
        np.bitwise_xor(np.arange(rows) << l, ls ^ lr, out=out[0])
        for i in range(h):
            np.bitwise_xor(out[:1 << i], packed[h - 1 - i], out=out[1 << i:2 << i])
        return out.T
    tail = _digits(p, l)
    shift = (tail[ls] - tail[lr]).T.astype(np.float64)
    cross = cross.astype(np.float64)
    head = _digits(p, h).T.astype(np.float64)
    (out, sums), index = buffers
    out[:] = np.arange(rows)[:, None]
    for j in range(l):  # out p + (sums mod p)
        np.matmul(cross[:, :, j], head, out=sums)
        sums += shift[j, :, None]
        out *= p
        out += sums
        sums /= p
        np.floor(sums, out=sums)
        sums *= p
        out -= sums
    np.copyto(index, out, casting="unsafe")
    return index


def _sample_draws(s: MubSet, sample: int, seed: int) -> tuple[np.ndarray, ...]:
    """The sampled check's draws (r, t, m_r, m_s) as int64 arrays: ordered
    basis pairs r != t over the graph bases and the computational one
    (index len(s.stack)), and labels in [0, p^n).  A sample whose arrays
    cannot be allocated is a ValueError."""
    nb = len(s.stack) + 1
    rng = np.random.default_rng(seed)
    try:
        r = rng.integers(nb, size=sample)
        t = rng.integers(nb - 1, size=sample)
        t += t >= r
        return r, t, rng.integers(s.dim, size=sample), rng.integers(s.dim, size=sample)
    except MemoryError:
        raise ValueError(f"sample of {sample} draws does not fit in memory") from None


def _verify_sampled(s: MubSet, tol: float, draws) -> NumericReport:
    """|<B_r(m_r)|B_t(m_s)>|^2 for every draw.  Between graph bases it is
    |sum_x w_M^e(x)|^2 / d^2 with e the exponents of the coefficient row
    [A_t - A_r, m_s - m_r].  Split x = (u, v) into its first h = ceil(n/2)
    and last l = floor(n/2) digits: e(u, v) = e_H(u) + e_L(v) + (M/p) u.C v
    with C the head-by-tail block of A_t - A_r, so the sum is
    sum_u w_M^e_H(u) h_L(C^T u + k) with h_L the Fourier transform
    (_fourier) of the tail's graph phases and k the tail label
    difference, O(p^h n^2) per draw instead of O(d n^2), in chunks of
    about SAMPLE_CHUNK entries of the largest per-draw array, p^h max(l, 1).
    Each chunk gathers its draws' member rows straight from the stack, as
    (N, n n) rows on its dtype, and writes the head's upper-triangle
    columns and label difference, and the tail's upper-triangle columns,
    as signed float64 coefficient rows, and takes C as a view, so no copy
    of the family is made; those rows, the coefficient rows, the head's
    phases, the gathered h_L and _frequencies' indices fill buffers
    allocated once per call; the gathered h_L's buffer first holds the
    tail's phases, then _frequencies' floats (odd p), each dead before the
    next is written.  So a chunk's largest arrays are not page-faulted
    again each time the allocator returns them;
    _frequencies finds C^T u + k for every u by doubling over the head
    digits (p = 2).  A draw against the computational basis takes
    _computational_dev."""
    p, n, d = s.p, s.n, s.dim
    h, l = n - n // 2, n // 2
    m = _phase_modulus(p)
    roots = _roots(m)
    scale = p**l / d**2  # _fourier divides h_L by sqrt(p^l)
    row, col = np.triu_indices(n)
    flat = row * n + col  # upper-triangle columns of the (N, n n) member rows
    head_cols, tail_cols = flat[col < h], flat[row >= h]
    members = s.stack.reshape(len(s.stack), n * n)
    comp = len(members)  # index of the computational basis
    r, t, mr, ms = draws
    dev = np.empty(len(r))
    graph = (r != comp) & (t != comp)
    dev[~graph] = _computational_dev(p, n)
    head = _digits(p, h)
    kh = len(head_cols)
    rows = max(1, SAMPLE_CHUNK // (p**h * max(l, 1)))
    # the buffers hold the graph draws of the busiest chunk
    most = int(np.add.reduceat(graph, np.arange(0, len(r), rows), dtype=np.intp).max())
    gather = np.empty((2, most, n * n), dtype=members.dtype)
    head_coefs = np.empty((most, kh + h))
    tail_coefs = np.empty((most, len(tail_cols)))
    phases = np.empty((2, most, p**h), dtype=np.complex128)
    if l:  # _frequencies' indices; its odd-p floats take hat's bytes, as w_l does
        index = np.empty((p**h, most) if p == 2 else (most, p**h), dtype=np.int64)
    for lo in range(0, len(r), rows):
        j = lo + np.flatnonzero(graph[lo:lo + rows])
        if j.size:
            diff, sub = gather[:, :j.size]
            amp, hat = phases[:, :j.size]
            # every index is in range: "clip" only spares the buffered
            # copy that take's default mode makes for out=
            np.take(members, t[j], axis=0, out=diff, mode="clip")
            diff -= np.take(members, r[j], axis=0, out=sub, mode="clip")
            hr, lr = np.divmod(mr[j], p**l)
            hs, ls = np.divmod(ms[j], p**l)
            coefs = head_coefs[:j.size]
            coefs[:, :kh] = diff[:, head_cols]
            np.subtract(head[hs], head[hr], out=coefs[:, kh:])
            np.take(roots, _exponents(coefs, p, h), out=amp, mode="clip")
            if l:  # times h_L(C^T u + k) / sqrt(p^l); no tail at n = 1
                coefs = tail_coefs[:j.size]
                coefs[:] = diff[:, tail_cols]
                w_l = hat.reshape(-1)[:j.size * p**l].reshape(j.size, p**l)  # tail phases
                h_l = _fourier(np.take(roots, _exponents(coefs, p, l), out=w_l, mode="clip"), p, l)
                bufs = index[:, :j.size] if p == 2 else (
                    hat.view(np.float64).reshape(2, j.size, p**h), index[:j.size])
                cross = diff.reshape(-1, n, n)[:, :h, h:]
                amp *= np.take(h_l.ravel(), _frequencies(cross, lr, ls, p, bufs),
                               out=hat, mode="clip")
            dev[j] = np.abs(np.abs(np.einsum("ij->i", amp)) ** 2 * scale - 1.0 / d)
    bad = np.flatnonzero(dev > tol)
    first = None
    if bad.size:
        j = int(bad[0])
        first = (int(r[j]), int(t[j]), int(mr[j]), int(ms[j]), float(dev[j]))
    return NumericReport(
        ok=first is None,
        mode=f"sampled({len(draws[0])})",
        pairs_checked=len(draws[0]),
        worst_deviation=float(dev.max(initial=0.0)),
        first_violation=first,
    )
