"""Exact dense linear algebra over Z_p, from two kernels with one job each.

The division-free Berkowitz recursion gives one matrix's characteristic
polynomial, and from it the determinant (its constant term) and the
inverse (by Cayley-Hamilton), for every prime p including p <= n
(Faddeev-LeVerrier would divide by k!).  `eliminate_stack`, the one
Gaussian elimination, ranks a whole int64 stack at once (one matrix is a
stack of one); over Z_p a square matrix is invertible exactly when it
has full rank.  For p = 2 rows of c bits (c the smaller side) are
packed 64 // c to a uint64 word, or over ceil(c/64) words when c > 64,
and each row operation is one XOR.
"""

from __future__ import annotations

import numpy as np

from .fields import PolyZp, check_prime


class MatZp:
    """Immutable n x n matrix over Z_p, row-major tuples."""

    __slots__ = ("p", "n", "rows")

    def __init__(self, p: int, rows) -> None:
        check_prime(p)
        rs = tuple([tuple([v % p for v in row]) for row in rows])
        n = len(rs)
        if n < 1 or any(len(r) != n for r in rs):
            raise ValueError("matrix must be square with n >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, name, value):
        raise AttributeError("MatZp is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, p: int, n: int) -> "MatZp":
        return cls(p, [[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, p: int, n: int) -> "MatZp":
        return cls(p, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, p: int, entries) -> "MatZp":
        es = list(entries)
        n = len(es)
        return cls(p, [[es[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def companion(cls, f: PolyZp) -> "MatZp":
        """Companion matrix: superdiagonal ones, last row (-c_0, ..., -c_{n-1})."""
        if not f.is_monic:
            raise ValueError("companion matrix requires a monic polynomial")
        n = f.degree
        if n < 1:
            raise ValueError("companion matrix requires degree >= 1")
        rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
        rows.append([-f.coeff(k) % f.p for k in range(n)])
        return cls(f.p, rows)

    # -- structure ---------------------------------------------------

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatZp)
            and self.p == other.p
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.p, self.rows))

    def __repr__(self) -> str:
        body = ", ".join(str(list(r)) for r in self.rows)
        return f"MatZp({self.p}, [{body}])"

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    @property
    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def _check_same(self, other: "MatZp") -> None:
        if not isinstance(other, MatZp):
            raise TypeError(f"expected MatZp, got {type(other).__name__}")
        if self.p != other.p or self.n != other.n:
            raise ValueError("shape or modulus mismatch")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "MatZp") -> "MatZp":
        self._check_same(other)
        return MatZp(
            self.p,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: "MatZp") -> "MatZp":
        self._check_same(other)
        return MatZp(
            self.p,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self) -> "MatZp":
        return MatZp(self.p, [[-v for v in r] for r in self.rows])

    def scale(self, s: int) -> "MatZp":
        return MatZp(self.p, [[s * v for v in r] for r in self.rows])

    def __matmul__(self, other: "MatZp") -> "MatZp":
        self._check_same(other)
        p, n = self.p, self.n
        cols = list(zip(*other.rows))
        return MatZp(
            p,
            [
                [sum(a * b for a, b in zip(row, col)) % p for col in cols]
                for row in self.rows
            ],
        )

    def __pow__(self, k: int) -> "MatZp":
        if k < 0:
            return self.inverse() ** (-k)
        acc = MatZp.identity(self.p, self.n)
        base = self
        while k:
            if k & 1:
                acc = acc @ base
            base = base @ base
            k >>= 1
        return acc

    def transpose(self) -> "MatZp":
        return MatZp(self.p, list(zip(*self.rows)))

    def submatrix(self, row_idx, col_idx) -> list[list[int]]:
        """Rectangular block (plain lists; not necessarily square)."""
        return [[self.rows[i][j] for j in col_idx] for i in row_idx]

    # -- quantities of one matrix: Berkowitz, and the rank by elimination --

    def det(self) -> int:
        """(-1)^n c_0 for the constant term c_0 = det(-M) of `char_poly`."""
        return (-1) ** self.n * self.char_poly().coeff(0) % self.p

    def rank(self) -> int:
        return rank_mod_p(self.to_lists(), self.p)

    def inverse(self) -> "MatZp":
        """By Cayley-Hamilton from the characteristic polynomial
        x^n + c_{n-1} x^{n-1} + ... + c_0:
        M^-1 = -c_0^-1 (M^{n-1} + c_{n-1} M^{n-2} + ... + c_1)."""
        p, n = self.p, self.n
        f = self.char_poly()
        if f.coeff(0) == 0:
            raise ZeroDivisionError("singular matrix")
        eye = MatZp.identity(p, n)
        acc = eye
        for k in range(n - 1, 0, -1):
            acc = acc @ self + eye.scale(f.coeff(k))
        return acc.scale(-pow(f.coeff(0), p - 2, p))

    def char_poly(self) -> PolyZp:
        """Monic characteristic polynomial det(x*1 - M) via Berkowitz."""
        p, n = self.p, self.n
        # vec holds descending coefficients [1, c_{k-1}, ..., c_0] for the
        # trailing principal k x k submatrix, grown from the bottom-right.
        a0 = self.rows[n - 1][n - 1]
        vec = [1, -a0 % p]
        for k in range(2, n + 1):
            s = n - k  # submatrix starts at (s, s)
            a = self.rows[s][s]
            row = self.rows[s][s + 1 :]
            col = [self.rows[i][s] for i in range(s + 1, n)]
            sub = [list(r[s + 1 :]) for r in self.rows[s + 1 :]]
            # Toeplitz column: [1, -a, -R C, -R A C, ..., -R A^{k-2} C]
            tcol = [1, -a % p]
            v = col
            for _ in range(k - 1):
                tcol.append(-sum(r * x for r, x in zip(row, v)) % p)
                v = [sum(q * x for q, x in zip(rw, v)) % p for rw in sub]
            new = [0] * (k + 1)
            for i in range(k + 1):
                total = 0
                for j in range(len(vec)):
                    d = i - j
                    if 0 <= d < len(tcol):
                        total += tcol[d] * vec[j]
                new[i] = total % p
            vec = new
        return PolyZp(p, list(reversed(vec)))


def eliminate_stack(stack, p: int) -> np.ndarray:
    """Ranks over Z_p of a stack of shape (N, r, c), by one forward
    elimination run on all members at once; an int64 array of length N.

    For each column, the first row holding it is subtracted, scaled, from
    every row holding it, itself included: the pivot row empties itself,
    no row is swapped, and the rank is the number of pivots found.
    Entries may be any int64 values (they are reduced first).  p < 2^31
    (`check_prime`) keeps every product of two residues below 2^62, and
    each product is reduced before it is added.

    For p = 2 members are transposed so that c = min(r, c), and
    k = max(1, 64 // c) rows share a uint64 word: row i is the c bits at
    (i mod k) c of word i // k, and a row of c > 64 bits keeps
    ceil(c/64) words (k = 1).  A column step masks the column in each of
    the k fields at once, takes the pivot as the lowest set bit of the
    first word holding it (its offset by `np.frexp`, exact on powers of
    two), and XORs the pivot row, multiplied into every field holding the
    column, into each word.
    """
    check_prime(p)
    m = np.asarray(stack, dtype=np.int64)
    count, nrows, ncols = m.shape
    members = np.arange(count)
    rank = np.zeros(count, dtype=np.int64)
    if m.size == 0:
        return rank
    if p == 2:
        if nrows < ncols:
            m = m.transpose(0, 2, 1)
            nrows, ncols = ncols, nrows
        k = max(1, 64 // ncols)
        groups, words = -(-nrows // k), -(-k * ncols // 64)
        rows = np.zeros((count, groups * k, ncols), dtype=np.uint8)
        rows[:, :nrows] = m.astype(np.uint8) & 1  # the low byte keeps the parity
        grid = np.zeros((count, groups, 64 * words), dtype=np.uint8)
        grid[:, :, : k * ncols] = rows.reshape(count, groups, k * ncols)
        bits = np.packbits(grid, bitorder="little").view("<u8").reshape(count, groups, words)
        rows_of = bits.reshape(count * groups, words)
        starts = members * groups
        spread = sum(1 << (f * ncols) for f in range(k))  # bit 0 of each field
        field = np.uint64((1 << min(ncols, 64)) - 1)
        for c in range(ncols):
            shift = c % 64
            col = bits[:, :, c // 64] & np.uint64(spread << shift)
            has = col != 0
            first = starts + has.argmax(axis=1)
            low = col.reshape(-1)[first] | np.uint64(1 << 63)  # bit 63: no pivot
            low &= -low
            offset = (np.frexp(low)[1] - (1 + shift)).astype(np.uint64)
            pivot = rows_of[first] >> offset[:, None] & field
            bits ^= (col >> np.uint64(shift))[:, :, None] * pivot[:, None, :]
            rank += has.any(axis=1)
        return rank
    m = m % p
    for c in range(ncols):
        has = m[:, :, c] != 0
        pivot_row = m[members, has.argmax(axis=1)]  # row 0, 0 at c, where none holds c
        # inverses of the distinct pivot values only; 0 marks "no pivot"
        values, where = np.unique(pivot_row[:, c], return_inverse=True)
        inv = np.array([pow(int(v), p - 2, p) if v else 0 for v in values],
                       dtype=np.int64)[where.reshape(-1)]
        factor = m[:, :, c] * inv[:, None] % p
        m = (m - factor[:, :, None] * pivot_row[:, None, :] % p) % p
        rank += has.any(axis=1)
    return rank


def rank_mod_p(block: list[list[int]], p: int) -> int:
    """Rank over Z_p of a rectangular block of integer row lists (reduced
    here, so entries of any size are accepted); no rows reads as one
    empty row, of rank 0."""
    reduced = np.array([[v % p for v in r] for r in block], dtype=np.int64)
    return int(eliminate_stack(np.atleast_2d(reduced)[None], p)[0])


def congruence(pmat: MatZp, b: MatZp) -> MatZp:
    """P B P^T; symmetric whenever B is."""
    pmat._check_same(b)
    return pmat @ b @ pmat.transpose()
