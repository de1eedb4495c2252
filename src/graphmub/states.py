"""Dense complex state vectors for graph bases, plus measurement circuits.

States are numpy complex128 vectors of length p^n in computational order
with qupit 1 as the most significant base-p digit.  All phases are exact
roots of unity looked up from a precomputed table indexed by integer
exponent arithmetic, never accumulated by repeated multiplication, so
the only numerical error is double-precision rounding.

The numeric unbiasedness sweep uses that the label phases form the
character table of Z_p^n: the overlap of |G_r(m)> and |G_t(m')> depends
only on the label difference m' - m, and the n-qupit Fourier transform
of conj(g_r) g_t yields all p^n of them at once.

Gate conventions: the local phase gate is diag(i^k) for p = 2 and
diag(w_p^{k(k-1)/2}) for p >= 3; the controlled phase multiplies
|k>_i |l>_j by w_p^{kl}; Z is diag(w_p^k); the Fourier transform has
entries w_p^{jk} / sqrt(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import MatZp
from .mubs import MubSet

FULL_SWEEP_LIMIT = 10**4


@lru_cache(maxsize=None)
def _roots(m: int) -> np.ndarray:
    table = np.exp(2j * np.pi * np.arange(m) / m)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _digits(p: int, n: int) -> np.ndarray:
    """Base-p digit table, shape (p^n, n), most significant digit first."""
    d = p**n
    idx = np.arange(d)
    cols = [(idx // p ** (n - 1 - i)) % p for i in range(n)]
    table = np.stack(cols, axis=1)
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
    _check_qupit(i, n)
    f = _roots(p)[np.outer(np.arange(p), np.arange(p)) % p] / np.sqrt(p)
    if dagger:
        f = f.conj().T
    cube = amps.reshape(-1, p, p ** (n - i))
    return np.einsum("ab,xbz->xaz", f, cube).reshape(-1)


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


def graph_state(a: MatZp) -> np.ndarray:
    """Apply U_{i,j}^{A_ij} for all i <= j to the uniform superposition.

    All gates are diagonal and commute, so the amplitudes are computed in
    a single vectorized pass.
    """
    _require_adjacency(a)
    p, n = a.p, a.n
    dig = _digits(p, n)
    off = np.zeros(p**n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i, j]:
                off += a[i, j] * dig[:, i] * dig[:, j]
    diag = np.array([a[i, i] for i in range(n)], dtype=np.int64)
    if p == 2:
        phase = _roots(4)[(dig @ diag + 2 * off) % 4]
    else:
        half = (p + 1) // 2
        local = (dig * (dig - 1) * half) @ diag
        phase = _roots(p)[(local + off) % p]
    return plus_state(p, n) * phase


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
    transform per pair, and reports labels (0, k) with k the worst label
    difference; sampled mode draws `sample` random cross-basis pairs.
    """
    d = s.dim
    if sample is None:
        if d > FULL_SWEEP_LIMIT:
            raise ValueError(f"dimension {d} exceeds the full-sweep cap "
                             f"{FULL_SWEEP_LIMIT}; use sampled mode")
        return _verify_full(s, tol)
    return _verify_sampled(s, tol, sample, seed)


def _verify_full(s: MubSet, tol: float) -> NumericReport:
    p, n, d = s.p, s.n, s.dim
    comp = len(s.matrices)  # index of the computational basis
    states = np.array([graph_state(a) for a in s.matrices]).reshape(comp, d)
    worst = 0.0
    first = None
    for r in range(comp):
        # row t - r - 1: d |F h|^2 over label differences k, h = conj(g_r) g_t;
        # last row: the computational basis, |g_r(x)|^2
        h = (states[r].conj() * states[r + 1:]).reshape(-1)
        for i in range(1, n + 1):
            h = apply_fourier(h, p, n, i)
        probs = np.vstack([d * np.abs(h.reshape(-1, d)) ** 2,
                           np.abs(states[r]) ** 2])
        devs = np.abs(probs - 1.0 / d)
        row = devs.max(axis=1)
        worst = max(worst, float(row.max()))
        bad = np.flatnonzero(row > tol)
        if first is None and bad.size:
            j = int(bad[0])
            first = (r, r + 1 + j, 0, int(devs[j].argmax()), float(row[j]))
    return NumericReport(
        ok=first is None,
        mode="full",
        pairs_checked=comp * (comp + 1) // 2,
        worst_deviation=worst,
        first_violation=first,
    )


def _verify_sampled(s: MubSet, tol: float, sample: int, seed: int) -> NumericReport:
    d = s.dim
    nb = len(s.matrices) + 1
    comp = len(s.matrices)  # index of the computational basis
    rng = np.random.default_rng(seed)
    cache: dict[int, np.ndarray] = {}
    dig = _digits(s.p, s.n)
    roots = _roots(s.p)

    def element(basis: int, label: int) -> np.ndarray:
        if basis == comp:
            e = np.zeros(d, dtype=np.complex128)
            e[label] = 1.0
            return e
        if basis not in cache:
            cache[basis] = graph_state(s.matrices[basis])
        return cache[basis] * roots[(dig @ dig[label]) % s.p]

    worst = 0.0
    first = None
    for _ in range(sample):
        r = int(rng.integers(nb))
        t = int(rng.integers(nb - 1))
        if t >= r:
            t += 1
        mr = int(rng.integers(d))
        ms = int(rng.integers(d))
        dev = abs(overlap(element(r, mr), element(t, ms)) - 1.0 / d)
        if dev > worst:
            worst = dev
        if dev > tol and first is None:
            first = (r, t, mr, ms, dev)
    return NumericReport(
        ok=first is None,
        mode=f"sampled({sample})",
        pairs_checked=sample,
        worst_deviation=worst,
        first_violation=first,
    )
