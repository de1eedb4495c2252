"""Exact arithmetic in Z_p and the seed proofs over Z_p[x].

Polynomials are coefficient vectors in ascending order: [c_0, c_1, ...]
with all residues reduced into [0, p).  The zero polynomial has an empty
coefficient tuple and degree ``None`` (a sentinel, deliberately not -1).

Covers exactly what the matrix constructions downstream need: the
irreducibility and primitivity of a seed polynomial, and quadratic-residue
machinery.  No ring API on `PolyZp` and no general GF(p^n) element API.

One private kernel on plain residue lists does the Z_p[x] work: product
and reduction mod a monic f, power by squaring, and the monic gcd, each
of whose remainders is that one reduction against the divisor made
monic.  The distinct-degree irreducibility test and the factored-order
primitivity test of `PolyZp` run on it, with no `PolyZp` built per step.
One trial division, `prime_factors`, both factors the group order of the
primitivity test and decides primality (`is_prime`).
"""

from __future__ import annotations

from functools import lru_cache


# Moduli stay below 2^31: a product of two residues is then below 2^62, so
# the int64 stacked kernels (linalg.eliminate_stack, the tridiagonal
# table) cannot overflow, and trial division stops within ~23 000 steps.
MODULUS_BOUND = 2**31


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Deterministic primality by trial division (callers bound p first,
    see check_prime)."""
    return prime_factors(p) == [p]


def check_prime(p: int) -> int:
    """p, if it is a prime below MODULUS_BOUND; else ValueError."""
    if p >= MODULUS_BOUND:
        raise ValueError(f"modulus {p} is not below the supported bound 2^31")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m by trial division: 2, then the odd
    numbers; [] for m < 2."""
    factors = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 2 if f > 2 else 1
    if m > 1:
        factors.append(m)
    return factors


# -- the Z_p[x] kernel ------------------------------------------------
# Ascending coefficient lists (tuples are read too).  Arguments hold
# residues in [0, p) with no trailing zero, so [] is the zero polynomial;
# results are such lists again.  Sums of products stay unreduced Python
# ints inside a call and are reduced once at its end.


def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _mul(a, b) -> list:
    """The product of a and b, coefficients not yet reduced mod p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _reduce(c: list, f, p: int) -> list:
    """c mod the monic f, with c any list of integers (overwritten)."""
    n = len(f) - 1
    for k in range(len(c) - 1, n - 1, -1):
        t = c[k] % p
        if t:
            s = k - n
            for j in range(n):
                c[s + j] -= t * f[j]
    return _trim([v % p for v in c[:n]])


def _mulmod(a, b, f, p: int) -> list:
    return _reduce(_mul(a, b), f, p)


def _powmod(a, e: int, f, p: int) -> list:
    """a^e mod the monic f, for a reduced mod f, by left-to-right square
    and multiply; [1] for e = 0."""
    if not e:
        return [1]
    r = a
    for bit in bin(e)[3:]:
        r = _mulmod(r, r, f, p)
        if bit == "1":
            r = _mulmod(r, a, f, p)
    return r


def _gcd(a, b, p: int) -> list:
    """The monic gcd of a and b, not both zero, by Euclid on the remainder
    alone: each divisor made monic, and the remainder taken against it by
    `_reduce`."""
    divisor = b or a
    inv = pow(divisor[-1], p - 2, p)
    monic = [c * inv % p for c in divisor]
    return _gcd(monic, _reduce(list(a), monic, p), p) if b else monic


class PolyZp:
    """Immutable polynomial over Z_p, stored as ascending coefficients.
    `is_irreducible` keeps its verdict on the instance."""

    __slots__ = ("p", "coeffs", "_irreducible")

    def __init__(self, p: int, coeffs) -> None:
        check_prime(p)
        cs = _trim([c % p for c in coeffs])
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_irreducible", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyZp is immutable")

    # -- basic structure ---------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyZp)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"PolyZp({self.p}, {list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return " + ".join(terms)

    # -- irreducibility and primitivity --------------------------------

    def is_irreducible(self) -> bool:
        """Distinct-degree criterion, computed once per instance: the
        polynomial is immutable, so its verdict is kept with it."""
        if not self.is_monic or self.degree is None or self.degree < 1:
            raise ValueError("irreducibility is defined for monic polynomials of degree >= 1")
        if self._irreducible is None:
            object.__setattr__(self, "_irreducible", self._distinct_degree())
        return self._irreducible

    def _distinct_degree(self) -> bool:
        """f of degree n is irreducible over Z_p iff x^(p^n) = x mod f and
        gcd(x^(p^k) - x, f) = 1 for every k <= n/2; a common factor ends
        the test at the first such k."""
        p, f = self.p, self.coeffs
        n = len(f) - 1
        if n == 1:
            return True
        x = [0, 1]  # reduced mod f, as n >= 2
        xp = x  # x^(p^k) mod f, by repeated p-th powering
        for _ in range(n // 2):
            xp = _powmod(xp, p, f, p)
            diff = xp + [0] * (2 - len(xp))
            diff[1] = (diff[1] - 1) % p
            if len(_gcd(f, _trim(diff), p)) > 1:
                return False
        for _ in range(n // 2, n):
            xp = _powmod(xp, p, f, p)
        return xp == x

    def is_primitive(self) -> bool:
        """True iff the multiplicative order of x in Z_p[x]/(f) is p^n - 1.

        Requires an irreducible input; reducible polynomials are rejected.
        """
        if not self.is_irreducible():
            raise ValueError(f"{self} is reducible; primitivity undefined")
        p, f = self.p, self.coeffs
        if f[0] == 0:
            # f = x: the residue of x is 0, never a group generator
            return False
        order = p ** (len(f) - 1) - 1
        x = _reduce([0, 1], f, p)
        return all(_powmod(x, order // q, f, p) != [1] for q in prime_factors(order))


def is_quadratic_residue(a: int, p: int) -> bool:
    """Euler criterion a^((p-1)/2) = 1 for odd p; every nonzero a for p = 2."""
    check_prime(p)
    a %= p
    if a == 0:
        raise ValueError("0 is neither residue nor non-residue")
    if p == 2:
        return True
    return pow(a, (p - 1) // 2, p) == 1


def smallest_nonresidue(p: int) -> int:
    """The smallest quadratic non-residue in [2, p); p must be odd."""
    check_prime(p)
    if p == 2:
        raise ValueError("non-residues require an odd prime")
    for q in range(2, p):
        if not is_quadratic_residue(q, p):
            return q
    raise AssertionError("odd prime without non-residue")


def sqrt_mod(a: int, p: int) -> int:
    """Smallest s in [1, p) with s^2 = a mod p, by direct scan (p is small)."""
    a %= p
    for s in range(1, p):
        if s * s % p == a:
            return s
    raise ValueError(f"{a} is not a square mod {p}")
