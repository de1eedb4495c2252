"""Exact arithmetic in Z_p and the polynomial ring Z_p[x].

Polynomials are coefficient vectors in ascending order: [c_0, c_1, ...]
with all residues reduced into [0, p).  The zero polynomial has an empty
coefficient tuple and degree ``None`` (a sentinel, deliberately not -1).

Covers exactly what the matrix constructions downstream need:
ring arithmetic, irreducibility, primitivity, and quadratic-residue
machinery.  No general GF(p^n) element API.
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
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> int:
    """p, if it is a prime below MODULUS_BOUND; else ValueError."""
    if p >= MODULUS_BOUND:
        raise ValueError(f"modulus {p} is not below the supported bound 2^31")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m by trial division."""
    factors = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        factors.append(m)
    return factors


class PolyZp:
    """Immutable polynomial over Z_p, stored as ascending coefficients.
    `is_irreducible` keeps its verdict on the instance."""

    __slots__ = ("p", "coeffs", "_irreducible")

    def __init__(self, p: int, coeffs) -> None:
        check_prime(p)
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_irreducible", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyZp is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PolyZp":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "PolyZp":
        return cls(p, (1,))

    @classmethod
    def x(cls, p: int) -> "PolyZp":
        return cls(p, (0, 1))

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

    def _check_same(self, other: "PolyZp") -> None:
        if not isinstance(other, PolyZp):
            raise TypeError(f"expected PolyZp, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    # -- ring arithmetic ---------------------------------------------

    def __add__(self, other: "PolyZp") -> "PolyZp":
        self._check_same(other)
        m = max(len(self.coeffs), len(other.coeffs))
        return PolyZp(self.p, [self.coeff(k) + other.coeff(k) for k in range(m)])

    def __sub__(self, other: "PolyZp") -> "PolyZp":
        self._check_same(other)
        m = max(len(self.coeffs), len(other.coeffs))
        return PolyZp(self.p, [self.coeff(k) - other.coeff(k) for k in range(m)])

    def __neg__(self) -> "PolyZp":
        return PolyZp(self.p, [-c for c in self.coeffs])

    def __mul__(self, other: "PolyZp") -> "PolyZp":
        self._check_same(other)
        if self.is_zero or other.is_zero:
            return PolyZp.zero(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.p
        return PolyZp(self.p, out)

    def scale(self, s: int) -> "PolyZp":
        return PolyZp(self.p, [s * c for c in self.coeffs])

    def __divmod__(self, other: "PolyZp") -> tuple["PolyZp", "PolyZp"]:
        self._check_same(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        p = self.p
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return PolyZp.zero(p), self
        quo = [0] * (dq + 1)
        lead_inv = pow(other.coeffs[-1], p - 2, p)
        for k in range(dq, -1, -1):
            c = (rem[k + len(other.coeffs) - 1] * lead_inv) % p
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = (rem[k + j] - c * b) % p
        return PolyZp(p, quo), PolyZp(p, rem[: len(other.coeffs) - 1])

    def __floordiv__(self, other: "PolyZp") -> "PolyZp":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyZp") -> "PolyZp":
        return divmod(self, other)[1]

    def gcd(self, other: "PolyZp") -> "PolyZp":
        """Monic greatest common divisor via the Euclidean algorithm."""
        self._check_same(other)
        a, b = self, other
        if a.is_zero and b.is_zero:
            raise ZeroDivisionError("gcd of two zero polynomials")
        while not b.is_zero:
            a, b = b, a % b
        return a.scale(pow(a.coeffs[-1], self.p - 2, self.p))

    def evaluate(self, v: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * v + c) % self.p
        return acc

    # -- residue-class helpers ----------------------------------------

    def mulmod(self, other: "PolyZp", modulus: "PolyZp") -> "PolyZp":
        return (self * other) % modulus

    def powmod(self, e: int, modulus: "PolyZp") -> "PolyZp":
        """self^e reduced mod `modulus`, by square and multiply."""
        result = PolyZp.one(self.p)
        base = self % modulus
        while e:
            if e & 1:
                result = result.mulmod(base, modulus)
            base = base.mulmod(base, modulus)
            e >>= 1
        return result

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
        gcd(x^(p^k) - x, f) = 1 for every k <= n/2."""
        p, n = self.p, self.degree
        if n == 1:
            return True
        x = PolyZp.x(p)
        # x^(p^k) mod f by repeated p-th powering
        xp = x % self
        for k in range(1, n // 2 + 1):
            xp = xp.powmod(p, self)
            if not (xp - x).gcd(self).coeffs == (1,):
                return False
        rest = xp
        for _ in range(n // 2, n):
            rest = rest.powmod(p, self)
        return rest == x % self

    def is_primitive(self) -> bool:
        """True iff the multiplicative order of x in Z_p[x]/(f) is p^n - 1.

        Requires an irreducible input; reducible polynomials are rejected.
        """
        if not self.is_irreducible():
            raise ValueError(f"{self} is reducible; primitivity undefined")
        p, n = self.p, self.degree
        if self.coeff(0) == 0:
            # f = x: the residue of x is 0, never a group generator
            return False
        order = p**n - 1
        x = PolyZp.x(p)
        one = PolyZp.one(p)
        for q in prime_factors(order):
            if x.powmod(order // q, self) == one:
                return False
        return True


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
