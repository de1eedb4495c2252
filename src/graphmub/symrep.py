"""Symmetric n x n matrices over Z_p with irreducible characteristic polynomial.

Two routes produce the seed matrix Q:

1. Companion symmetrization.  Build the companion matrix C of a monic
   irreducible f, find a symmetric invertible B with C B = B C^T, reduce
   B to the identity by congruence transformations (P B P^T = 1), and
   take Q = P C P^{-1}.  Works for every prime p and degree n.

2. Tridiagonal search.  Scan diagonals d of the symmetric tridiagonal
   matrix with unit off-diagonals until the characteristic polynomial is
   irreducible.  Guaranteed to succeed for p = 2; for p >= 3 a miss is a
   normal outcome and the caller falls back to route 1.  A target f
   fixes the trace, d_1 + ... + d_n = -c_{n-1}, so its scan runs over the
   p^(n-1) prefixes d_1 .. d_{n-1} alone, each completed by its one d_n.

`symmetric_representation` picks the route: one tridiagonal search,
then, on a miss or by request, one companion symmetrization.

The congruence reductions of both characteristics share one
diagonalization (`_diagonalize`), a fixed deterministic scan, so that a
given input always yields the same witness; only its deadlock mix
depends on p.  They hold B and P as small int64 arrays, and each step is
one block T applied as three `matmul_mod` products (B <- T B T^T,
P <- T P); clearing a column below its pivot is one such step.  Both
routes end in a
`SymmetricRep`, which proves the seed.  Each hands it the polynomial it
tested, except the untargeted tridiagonal search, which returns only a
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    PolyZp,
    check_prime,
    is_quadratic_residue,
    smallest_nonresidue,
    sqrt_mod,
)
from .linalg import MatZp, matmul_mod


class ConstructionError(Exception):
    """A requested construction cannot be carried out."""


class PrimitivePolynomialRequired(ConstructionError):
    """The multiplier g = C is only valid for primitive polynomials."""


@dataclass(frozen=True)
class SymmetricRep:
    """Witness for a symmetric representation seed, and the one place a
    seed is proven: construction raises ConstructionError unless q is
    symmetric, char_poly(q) = f, and f is irreducible, so every witness
    generates the field Z_p[Q].  For the companion route also q =
    transform @ companion @ transform^{-1}, by construction.
    """

    f: PolyZp
    q: MatZp
    method: str  # "companion" or "tridiagonal"
    companion: MatZp | None = None
    transform: MatZp | None = None
    multiplier: object = None  # int, MatZp, or None
    d: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        f, q = self.f, self.q
        if not q.is_symmetric:
            raise ConstructionError(f"the {self.method} seed is not symmetric")
        if q.char_poly() != f:
            raise ConstructionError(
                f"the {self.method} seed's characteristic polynomial is not {f}"
            )
        if not f.is_irreducible():
            of = f" of d={self.d}" if self.d is not None else ""
            raise ConstructionError(f"characteristic polynomial {f}{of} is reducible")

    @property
    def p(self) -> int:
        return self.f.p

    @property
    def n(self) -> int:
        return self.f.degree


# ---------------------------------------------------------------------------
# Commuting bilinear forms: symmetric invertible B with C B = B C^T
# ---------------------------------------------------------------------------


def symmetrizing_form_char2(f: PolyZp) -> MatZp:
    """The mod-2 form with a unit corner and an anti-triangular tail block.

    Coefficients: b_1 = c_0 and b_i = sum_{k=1}^{i-1} c_{n-i+k} b_k.
    """
    if f.p != 2:
        raise ValueError("this form is specific to p = 2")
    _require_monic(f)
    n = f.degree
    b = [0] * n  # b[1..n-1] used
    if n > 1:
        b[1] = f.coeff(0)
        for i in range(2, n):
            b[i] = sum(f.coeff(n - i + k) * b[k] for k in range(1, i)) % 2
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = 1
    for i in range(1, n):
        for j in range(1, n):
            if i + j >= n:
                rows[i][j] = b[i + j - n + 1]
    return MatZp(2, rows)


def symmetrizing_form_odd(f: PolyZp) -> MatZp:
    """The anti-triangular symmetric base form for odd p.

    Coefficients: b_0 = 1 and b_i = -sum_{k=0}^{i-1} c_{n-i+k} b_k; the
    form has b_0 on the anti-diagonal and b_1, ..., b_{n-1} below it.
    Its determinant is +1 for n mod 4 in {0, 1} and -1 otherwise.
    """
    if f.p == 2:
        raise ValueError("use symmetrizing_form_char2 for p = 2")
    _require_monic(f)
    p, n = f.p, f.degree
    b = [0] * n
    b[0] = 1
    for i in range(1, n):
        b[i] = -sum(f.coeff(n - i + k) * b[k] for k in range(i)) % p
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i + j >= n - 1:
                rows[i][j] = b[i + j - n + 1]
    return MatZp(p, rows)


def choose_form_multiplier(f: PolyZp, c: MatZp):
    """Pick g so that det(g B_0) is a quadratic residue (p >= 3).

    Returns an int for the scalar cases, or the companion matrix itself
    when n mod 4 = 2 and -1 is a non-residue; the matrix case demands a
    primitive polynomial.
    """
    p, n = f.p, f.degree
    if p == 2:
        raise ValueError("multiplier selection applies to odd p only")
    if n % 4 in (0, 1) or is_quadratic_residue(p - 1, p):
        return 1
    if n % 4 == 3:
        return smallest_nonresidue(p)
    # n mod 4 = 2 with -1 a non-residue: need det(g) a non-residue, which
    # holds for g = C exactly when f is primitive.
    if not f.is_primitive():
        raise PrimitivePolynomialRequired(
            f"n mod 4 = 2 and -1 is a non-residue mod {p}: "
            f"a primitive polynomial is required, got {f}"
        )
    return c


# ---------------------------------------------------------------------------
# Congruence reduction P B P^T = 1
# ---------------------------------------------------------------------------


class _Reduction:
    """Mutable state for a congruence reduction: B and the accumulated P,
    as int64 arrays of residues."""

    def __init__(self, b: MatZp):
        self.p = b.p
        self.n = b.n
        self.B = np.array(b.rows, dtype=np.int64)
        self.P = np.eye(b.n, dtype=np.int64)

    def _mix(self, idx, coeff) -> None:
        """Apply T, the identity but the block `coeff` on `idx`: B <- T B
        T^T, P <- T P, as three block products."""
        p, B, P = self.p, self.B, self.P
        t = np.array(coeff, dtype=np.int64)
        idx = list(idx)
        B[idx] = matmul_mod(t, B[idx], p)
        B[:, idx] = matmul_mod(B[:, idx], t.T, p)
        P[idx] = matmul_mod(t, P[idx], p)

    def swap(self, i: int, j: int) -> None:
        self._mix((i, j), [[0, 1], [1, 0]])

    def sweep(self, src: int, rows, a) -> None:
        """Add a[k] times row (and column) src to each row (and column)
        rows[k] at once: these steps commute, and none changes another's
        multiplier, so one block is the sequence of them."""
        t = np.eye(len(rows) + 1, dtype=np.int64)
        t[1:, 0] = a
        self._mix((src, *rows), t)

    def scale_row(self, i: int, s: int) -> None:
        self._mix((i,), [[s % self.p]])

    def omega_pair(self, i: int, j: int) -> None:
        self._mix((i, j), [[1, 1], [1, -1 % self.p]])

    def omega_triple(self, i: int, j: int, k: int) -> None:
        self._mix((i, j, k), [[1, 1, 0], [1, 0, 1], [1, 1, 1]])

    def phi(self, i: int, j: int, b: int) -> None:
        self._mix((i, j), [[1, b], [-b % self.p, 1]])

    def clear(self, c: int, a) -> None:
        """Sweep a B[r, c] times row and column c into each r > c with
        B[r, c] != 0; a = -1 / B[c, c] clears column c below its pivot."""
        rows = c + 1 + np.flatnonzero(self.B[c + 1:, c])
        if rows.size:
            self.sweep(c, rows.tolist(), self.B[rows, c] * a % self.p)

    def result(self, original: MatZp) -> MatZp:
        p, P = self.p, self.P
        reached = matmul_mod(matmul_mod(P, np.array(original.rows, dtype=np.int64), p), P.T, p)
        if not np.array_equal(reached, np.eye(self.n, dtype=np.int64)):
            raise ConstructionError("congruence reduction did not reach the identity")
        return MatZp(p, P.tolist())


def _diagonalize(st: _Reduction) -> None:
    """Bring B to diagonal form by a fixed column scan.  A nonzero pivot
    B[c, c] clears its column below (`clear` with a = -1 / B[c, c]); a
    zero one swaps in the first later nonzero diagonal entry, preferring
    a quadratic residue (every unit is one for p = 2).  When every
    remaining diagonal entry is zero, a row j > c with B[j, c] != 0 moves
    to c + 1 and a mix restores a nonzero pivot: [[1,1],[1,-1]] on rows
    c, c + 1 for odd p; for p = 2, where that mix leaves the diagonal
    zero, a three-row mix with the last completed pivot row (c >= 1: a
    reducible form has a unit diagonal entry), whose three rows are then
    swept out below c + 1."""
    p, B, n = st.p, st.B, st.n
    c = 0
    while c < n:
        if B[c, c]:
            st.clear(c, p - pow(int(B[c, c]), p - 2, p))
            c += 1
            continue
        cands = [j for j in range(c + 1, n) if B[j, j]]
        if cands:
            preferred = [j for j in cands if is_quadratic_residue(int(B[j, j]), p)]
            st.swap(c, (preferred or cands)[0])
            continue
        j = next(j for j in range(c + 1, n) if B[j, c])
        if j != c + 1:
            st.swap(c + 1, j)
        if p != 2:
            st.omega_pair(c, c + 1)
            continue
        st.omega_triple(c - 1, c, c + 1)
        for i in (c - 1, c, c + 1):
            rows = c + 2 + np.flatnonzero(B[c + 2:, i])
            if rows.size:
                st.sweep(i, rows.tolist(), 1)


def reduce_to_identity_char2(b: MatZp) -> MatZp:
    """P with P B P^T = 1 over Z_2, by `_diagonalize`: every nonzero
    diagonal entry of Z_2 is 1.

    Requires B symmetric, nonsingular, with at least one unit diagonal
    entry.
    """
    if b.p != 2:
        raise ValueError("char-2 reduction requires p = 2")
    _check_reducible_char2(b)
    st = _Reduction(b)
    _diagonalize(st)
    return st.result(b)


def reduce_to_identity_odd(b: MatZp) -> MatZp:
    """P with P B P^T = 1 over odd Z_p; det(B) must be a quadratic residue.

    Three phases: (1) diagonalize (`_diagonalize`); (2) rescale residue
    entries to 1; (3) equalize the remaining non-residues, clear them
    pairwise with the rotation-like mix [[1,b],[-b,1]] where 1 + b^2 is a
    non-residue, and rescale.
    """
    p, n = b.p, b.n
    if p == 2:
        raise ValueError("odd-p reduction requires p >= 3")
    if not b.is_symmetric:
        raise ValueError("input must be symmetric")
    det = b.det()
    if det == 0 or not is_quadratic_residue(det, p):
        raise ValueError("matrix is not congruent to the identity: "
                         "determinant must be a nonzero quadratic residue")
    st = _Reduction(b)
    _diagonalize(st)
    diag = st.B.diagonal()  # a view: it follows B through every step
    for i in range(n):
        if is_quadratic_residue(int(diag[i]), p):
            s = sqrt_mod(int(diag[i]), p)
            if s != 1:
                st.scale_row(i, pow(s, p - 2, p))
    nonres = [i for i in range(n) if diag[i] != 1]
    if nonres:
        if len(nonres) % 2:
            raise ConstructionError("odd number of non-residue diagonal entries")
        qhat = smallest_nonresidue(p)
        for i in nonres:
            if diag[i] != qhat:
                s = sqrt_mod(int(diag[i]) * pow(qhat, p - 2, p) % p, p)
                st.scale_row(i, pow(s, p - 2, p))
        bpar = next(
            v for v in range(1, p)
            if (1 + v * v) % p != 0 and not is_quadratic_residue((1 + v * v) % p, p)
        )
        for i, j in zip(nonres[0::2], nonres[1::2]):
            st.phi(i, j, bpar)
            s = sqrt_mod(int(diag[i]), p)
            if s != 1:
                sinv = pow(s, p - 2, p)
                st.scale_row(i, sinv)
                st.scale_row(j, sinv)
    return st.result(b)


def _check_reducible_char2(b: MatZp) -> None:
    if not b.is_symmetric:
        raise ValueError("input must be symmetric")
    if b.rank() < b.n:
        raise ValueError("singular matrix is not congruent to the identity")
    if all(b[i, i] == 0 for i in range(b.n)):
        raise ValueError("no unit diagonal entry: matrix is not congruent "
                         "to the identity over Z_2")


def _require_monic(f: PolyZp) -> None:
    if f.degree is None or f.degree < 1 or not f.is_monic:
        raise ValueError("need a monic polynomial of degree >= 1")


# ---------------------------------------------------------------------------
# Companion symmetrization
# ---------------------------------------------------------------------------


def symmetrize_companion(f: PolyZp) -> SymmetricRep:
    """Symmetric Q similar to the companion matrix of a monic f, with a
    witness, which proves f irreducible.  A reducible f is refused there
    (ConstructionError) or earlier, by the multiplier rule or a reduction
    (ValueError)."""
    p = f.p
    c = MatZp.companion(f)
    if p == 2:
        bform = symmetrizing_form_char2(f)
        multiplier = None
        pmat = reduce_to_identity_char2(bform)
    else:
        b0 = symmetrizing_form_odd(f)
        multiplier = choose_form_multiplier(f, c)
        bform = multiplier @ b0 if isinstance(multiplier, MatZp) else b0.scale(multiplier)
        pmat = reduce_to_identity_odd(bform)
    # both reductions refuse a B that is not symmetric, so C B = B C^T
    # exactly when C B is symmetric
    cb = matmul_mod(np.array(c.rows, dtype=np.int64), np.array(bform.rows, dtype=np.int64), p)
    if not np.array_equal(cb, cb.T):
        raise ConstructionError("form does not symmetrize the companion matrix")
    pm = np.array(pmat.rows, dtype=np.int64)
    q = matmul_mod(matmul_mod(pm, cb, p), pm.T, p)  # P^-1 = B P^T, as P B P^T = 1
    return SymmetricRep(
        f=f, q=MatZp(p, q.tolist()), method="companion", companion=c,
        transform=pmat, multiplier=multiplier,
    )


# ---------------------------------------------------------------------------
# Tridiagonal route
# ---------------------------------------------------------------------------

SEARCH_LIMIT = 10**7


def check_family_size(p: int, n: int) -> None:
    """ValueError when p^n exceeds SEARCH_LIMIT.  As p^n >= 2^n, n is
    compared with the limit's bit length before p^n is computed."""
    if n > SEARCH_LIMIT.bit_length() or p**n > SEARCH_LIMIT:
        raise ValueError(f"family size p^n = {p}^{n} exceeds {SEARCH_LIMIT}")


def tridiagonal_matrix(p: int, d) -> MatZp:
    """Symmetric tridiagonal matrix with diagonal d and unit off-diagonals."""
    check_prime(p)
    d = [v % p for v in d]
    n = len(d)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = d[i]
        if i + 1 < n:
            rows[i][i + 1] = rows[i + 1][i] = 1
    return MatZp(p, rows)


def tridiag_char_poly(p: int, d) -> PolyZp:
    """Characteristic polynomial by the three-term recursion.

    With D_0 = 1 and D_{-1} = 0, D_k = (x - d_{n+1-k}) D_{k-1} - D_{k-2};
    D_n is the characteristic polynomial of the full matrix.
    """
    check_prime(p)
    row = np.array([[v % p for v in d]], dtype=np.int64)
    return PolyZp(p, _tridiag_recursion(row, p)[0].tolist())


def _tridiag_recursion(d: np.ndarray, p: int) -> np.ndarray:
    """The recursion of tridiag_char_poly on every row of the reduced int64
    diagonals d (rows, n) at once: ascending coefficients (rows, n + 1)."""
    rows, n = d.shape
    prev = np.zeros((rows, n + 1), dtype=np.int64)
    cur = prev.copy()
    cur[:, 0] = 1
    for k in range(1, n + 1):
        shifted = np.zeros_like(cur)
        shifted[:, 1:] = cur[:, :-1]
        prev, cur = cur, (shifted - d[:, n - k, None] * cur % p - prev) % p
    return cur


SEARCH_CHUNK = 1 << 16


def _diagonal_char_polys(p: int, n: int, trace: int | None = None):
    """Yield (diagonals, char polys) in lexicographic order as int64 tables
    of shape (rows, n) and (rows, n + 1), the latter from
    _tridiag_recursion: all p^n diagonals, or with a trace t only the
    p^(n-1) whose entries sum to t mod p, each prefix d_1 .. d_{n-1} in
    lexicographic order completed by d_n = t - (d_1 + ... + d_{n-1}).
    Chunks start at 64 rows and double up to SEARCH_CHUNK, so an early hit
    costs little and no scan holds more than SEARCH_CHUNK rows."""
    free = n if trace is None else n - 1
    total = p**free
    place = p ** np.arange(free - 1, -1, -1)
    start, size = 0, 64
    while start < total:
        stop = min(start + size, total)
        d = np.empty((stop - start, n), dtype=np.int64)
        d[:, :free] = np.arange(start, stop)[:, None] // place % p
        if trace is not None:
            d[:, -1] = (trace - d[:, :-1].sum(axis=1)) % p
        yield d, _tridiag_recursion(d, p)
        start, size = stop, min(2 * size, SEARCH_CHUNK)


def tridiag_search(p: int, n: int, target: PolyZp | None = None,
                   primitive: bool = False):
    """Scan diagonals in lexicographic order.

    Without a target: the first d whose characteristic polynomial is
    irreducible (primitive when requested).  With a target polynomial:
    the first d realizing it exactly.  The trace of the matrix is
    -c_{n-1}, so a target pins d_n to one value per prefix d_1 ..
    d_{n-1}, and only those p^(n-1) diagonals are scanned; in
    lexicographic order the first of them to realize it is the first of
    all p^n.  Returns (d, f): the diagonal tuple and its characteristic
    polynomial, the instance tested here (the target itself when given),
    for `tridiagonal_rep(p, d, f)`.  None after exhausting the candidates
    (a normal outcome for p >= 3, where not every polynomial has a
    tridiagonal realization).
    """
    check_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    check_family_size(p, n)
    if target is not None:
        if target.degree != n or not target.is_monic:
            raise ValueError("target must be monic of degree n")
        if primitive and not (target.is_irreducible() and target.is_primitive()):
            return None
    trace = None if target is None else -target.coeffs[n - 1] % p
    for d, polys in _diagonal_char_polys(p, n, trace):
        if target is not None:
            hits = np.flatnonzero((polys == target.coeffs).all(axis=1))
            if hits.size:
                return tuple(d[hits[0]].tolist()), target
            continue
        for diag, coeffs in zip(d.tolist(), polys.tolist()):
            f = PolyZp(p, coeffs)
            if f.is_irreducible() and (not primitive or f.is_primitive()):
                return tuple(diag), f
    return None


def tridiagonal_rep(p: int, d, f: PolyZp | None = None) -> SymmetricRep:
    """Witness for an explicit tridiagonal diagonal.  f defaults to its
    characteristic polynomial; a caller that holds that polynomial already
    (a `tridiag_search` hit) passes it, and the witness checks that d
    realizes it."""
    if f is None:
        f = tridiag_char_poly(p, d)
    return SymmetricRep(f=f, q=tridiagonal_matrix(p, d), method="tridiagonal",
                        d=tuple(v % p for v in d))


# ---------------------------------------------------------------------------
# Top-level seed selection
# ---------------------------------------------------------------------------


def find_irreducible(p: int, n: int, primitive: bool = False) -> PolyZp:
    """Lexicographically first monic irreducible (or primitive) polynomial."""
    check_prime(p)
    # candidate `index` has the base-p digits c_0 (fastest), ..., c_{n-1},
    # built one at a time: no list of all p^n tails
    for index in range(p**n):
        f = PolyZp(p, [index // p**k % p for k in range(n)] + [1])
        if f.is_irreducible() and (not primitive or f.is_primitive()):
            return f
    raise AssertionError("irreducible polynomials exist for every p, n")


def symmetric_representation(p: int, n: int, method: str = "auto",
                             poly: PolyZp | None = None, d=None,
                             primitive: bool = False) -> SymmetricRep:
    """Obtain a seed witness by the requested route.

    An explicit diagonal is its own witness.  Otherwise `auto` and
    `tridiag` make one tridiagonal search (compact witness), for `poly`
    when given; a miss ends `tridiag`, and `auto` and `companion` take
    companion symmetrization of `poly`, or of the first irreducible
    polynomial: a primitive one for `auto`, and wherever `primitive` or
    the multiplier rule (p = 3 mod 4, n = 2 mod 4) demands it.  Each seed
    is tested for primitivity once.  A malformed request (n < 1,
    an unknown method, a diagonal of length other than n or with the
    companion method, a polynomial not monic of degree n over Z_p) is a
    ValueError; a well-formed one that the route cannot realize is a
    ConstructionError.
    """
    check_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if method not in ("auto", "tridiag", "companion"):
        raise ValueError(f"unknown method {method!r}")
    if d is not None:
        if method == "companion":
            raise ValueError("an explicit diagonal implies the tridiagonal method")
        if len(d) != n:
            raise ValueError(f"diagonal length {len(d)} != n = {n}")
        rep = tridiagonal_rep(p, d)
        if primitive and not rep.f.is_primitive():
            raise ConstructionError(f"char poly {rep.f} of d={tuple(d)} is not primitive")
        if poly is not None and rep.f != poly:
            raise ConstructionError(
                f"diagonal {tuple(d)} realizes {rep.f}, not the requested {poly}"
            )
        return rep
    if poly is not None:
        if poly.p != p or poly.degree != n or not poly.is_monic:
            raise ValueError("polynomial must be monic of degree n over Z_p")
        if not poly.is_irreducible():
            raise ConstructionError(f"{poly} is reducible over Z_{p}")
        if primitive and not poly.is_primitive():
            raise ConstructionError(f"{poly} is not primitive")
    if method != "companion":
        # a given poly is proven primitive above, so the scan only matches it
        found = tridiag_search(p, n, target=poly, primitive=primitive and poly is None)
        if found is not None:
            return tridiagonal_rep(p, *found)
        if method == "tridiag":
            raise ConstructionError(
                f"no tridiagonal matrix over Z_{p} realizes {poly}" if poly is not None
                else f"no tridiagonal diagonal over Z_{p} of size {n} is "
                     f"{'primitive' if primitive else 'irreducible'}"
            )
    # the auto fallback seeds with a primitive polynomial, which always
    # satisfies the multiplier rule
    needs_primitive = primitive or method == "auto" or (p % 4 == 3 and n % 4 == 2)
    return symmetrize_companion(poly or find_irreducible(p, n, primitive=needs_primitive))
