import random
from math import gcd

import pytest

from graphmub.fields import (
    PolyZp,
    _gcd,
    _mul,
    _mulmod,
    _powmod,
    _reduce,
    check_prime,
    is_prime,
    is_quadratic_residue,
    prime_factors,
    smallest_nonresidue,
    sqrt_mod,
)
from oracles import (
    all_monic,
    irreducible_brute,
    order_of_x_brute,
    poly_divmod_brute,
    poly_gcd_brute,
    poly_mul_brute,
)


def P(p, *coeffs):
    return PolyZp(p, coeffs)


def random_poly(rng, p, n, monic=False):
    cs = [rng.randrange(p) for _ in range(n + 1)]
    if monic:
        cs[-1] = 1
    return PolyZp(p, cs)


def test_check_prime_bounds_the_modulus():
    # 2^31 - 1 is prime and the largest admitted modulus; the bound is
    # tested before trial division, so 2^61 - 1 is refused at once
    assert check_prime(2**31 - 1) == 2**31 - 1
    for p in (2**31, 2**61 - 1):
        with pytest.raises(ValueError, match="2\\^31"):
            check_prime(p)
    with pytest.raises(ValueError, match="not prime"):
        check_prime(2**31 - 3)


def test_is_prime_small():
    sieve = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
             47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97}
    for k in range(100):
        assert is_prime(k) == (k in sieve)


def test_prime_factors():
    assert prime_factors(2**3 - 1) == [7]
    assert prime_factors(3**3 - 1) == [2, 13]
    assert prime_factors(1) == []


def test_zero_poly_degree_is_sentinel():
    z = PolyZp(5, ())
    assert z.degree is None
    assert z.is_zero
    assert P(5, 0, 0, 0).degree is None


def test_trailing_coefficients_stripped():
    assert P(3, 1, 2, 0, 0).coeffs == (1, 2)
    assert P(3, 1, 2, 3).coeffs == (1, 2)  # 3 = 0 mod 3


def test_gcd_example_char2():
    assert _gcd([1, 1, 0, 1], [0, 1, 1], 2) == [1]


def test_irreducible_examples():
    assert not P(2, 1, 0, 1).is_irreducible()  # x^2 + 1 has the root 1
    assert P(3, 2, 1, 1).is_irreducible()  # x^2 + x + 2
    assert P(3, 1, 2, 1, 1).is_irreducible()  # x^3 + x^2 + 2x + 1


def test_irreducible_rejects_nonmonic_and_constant():
    with pytest.raises(ValueError):
        P(3, 1, 2).is_irreducible()
    with pytest.raises(ValueError):
        P(3, 1).is_irreducible()


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                                 (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2),
                                 (7, 3), (11, 2), (13, 2)])
def test_irreducible_matches_brute_force(p, n):
    for f in all_monic(p, n):
        assert f.is_irreducible() == irreducible_brute(f), str(f)


def _mobius(m):
    sign, f = 1, 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            sign = -sign
        f += 1
    return -sign if m > 1 else sign


def _totient(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


GAUSS_GRID = [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 7)] \
    + [(5, n) for n in range(1, 5)] + [(7, n) for n in range(1, 4)] + [(13, 2)]


@pytest.mark.parametrize("p,n", GAUSS_GRID)
def test_irreducible_and_primitive_counts(p, n):
    # Gauss: (1/n) sum_{d | n} mu(d) p^(n/d) monic irreducibles of degree n,
    # of which phi(p^n - 1)/n are primitive (one per n conjugate generators)
    irreducible = [f for f in all_monic(p, n) if f.is_irreducible()]
    gauss = sum(_mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert len(irreducible) * n == gauss
    primitive = [f for f in irreducible if f.is_primitive()]
    assert len(primitive) * n == _totient(p**n - 1)


@pytest.mark.parametrize("p", [65521, 2**31 - 1])
def test_quadratics_follow_the_discriminant(p):
    # x^2 + bx + c is irreducible over Z_p, p odd, exactly when b^2 - 4c is
    # a non-residue; a zero discriminant is a double root
    rng = random.Random(p)
    cases = [(rng.randrange(p), rng.randrange(p)) for _ in range(60)]
    for _ in range(10):
        r, s = rng.randrange(p), rng.randrange(p)
        cases += [(-(r + s) % p, r * s % p), (-2 * r % p, r * r % p)]
    for b, c in cases:
        disc = (b * b - 4 * c) % p
        expected = disc != 0 and pow(disc, (p - 1) // 2, p) == p - 1
        assert PolyZp(p, [c, b, 1]).is_irreducible() == expected, (b, c)
    assert {PolyZp(p, [c, b, 1]).is_irreducible() for b, c in cases} == {True, False}


@pytest.mark.parametrize("p", [2, 3, 13, 65521, 2**31 - 1])
def test_ring_arithmetic_matches_schoolbook(p):
    # the residue-list kernel against the schoolbook oracles
    rng = random.Random(p + 1)
    for _ in range(150):
        la = list(random_poly(rng, p, rng.randrange(-1, 9)).coeffs)
        lb = list(random_poly(rng, p, rng.randrange(-1, 6)).coeffs)
        lm = list(random_poly(rng, p, rng.randrange(1, 6), monic=True).coeffs)
        assert [v % p for v in _mul(la, lb)] == poly_mul_brute(la, lb, p)
        wide = [rng.randrange(-p * p, p * p) for _ in range(rng.randrange(12))]
        assert _reduce(list(wide), lm, p) == poly_divmod_brute(wide, lm, p)[1]
        assert _mulmod(la, lb, lm, p) == poly_divmod_brute(poly_mul_brute(la, lb, p), lm, p)[1]
        if la or lb:
            g = _gcd(la, lb, p)
            assert g == poly_gcd_brute(la, lb, p) and g[-1] == 1
        if la:
            assert _gcd(la, [], p) == _gcd([], la, p) == poly_gcd_brute(la, [], p)
        ra = _reduce(list(la), lm, p)
        assert _powmod(ra, 0, lm, p) == [1]
        e = rng.randrange(1, 25)
        acc = [1]
        for _ in range(e):
            acc = poly_divmod_brute(poly_mul_brute(acc, la, p), lm, p)[1]
        assert _powmod(ra, e, lm, p) == acc, (la, e, lm)


def test_primitive_examples():
    assert P(2, 1, 1, 0, 1).is_primitive()  # x^3 + x + 1
    assert not P(3, 1, 0, 1).is_primitive()  # x^2 + 1: order of x is 4, not 8
    assert P(2, 1, 1).is_primitive()  # x + 1 over Z_2


def test_primitive_rejects_reducible():
    with pytest.raises(ValueError):
        P(2, 1, 0, 1).is_primitive()


def test_x_itself_is_not_primitive():
    assert not PolyZp(2, [0, 1]).is_primitive()
    assert not PolyZp(5, [0, 1]).is_primitive()


@pytest.mark.parametrize("p,n", [(2, 3), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_primitive_matches_order_stepping(p, n):
    for f in all_monic(p, n):
        if not f.is_irreducible() or f.coeff(0) == 0:
            continue
        assert f.is_primitive() == (order_of_x_brute(f) == p**n - 1), str(f)


def test_irreducible_coprime_to_all_lower_degrees():
    # gcd(f, g) = 1 for every monic g of degree in [1, n-1]
    for f in (P(2, 1, 1, 0, 1), P(3, 2, 1, 1), P(5, 2, 1, 1)):
        n = f.degree
        for d in range(1, n):
            for g in all_monic(f.p, d):
                assert _gcd(list(f.coeffs), list(g.coeffs), f.p) == [1]


def test_qr_examples():
    assert is_quadratic_residue(1, 3)
    assert not is_quadratic_residue(2, 3)
    assert is_quadratic_residue(4, 5)
    with pytest.raises(ValueError):
        is_quadratic_residue(0, 7)


ODD_PRIMES_TO_97 = [p for p in range(3, 98) if is_prime(p)]


def test_qr_counts_exhaustive():
    for p in ODD_PRIMES_TO_97:
        residues = [a for a in range(1, p) if is_quadratic_residue(a, p)]
        assert len(residues) == (p - 1) // 2


def test_product_of_two_nonresidues_is_residue():
    for p in ODD_PRIMES_TO_97:
        nonres = [a for a in range(1, p) if not is_quadratic_residue(a, p)]
        for a in nonres:
            for b in nonres:
                assert is_quadratic_residue(a * b % p, p)


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3


def test_sqrt_mod():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            if is_quadratic_residue(a, p):
                s = sqrt_mod(a, p)
                assert s * s % p == a
    with pytest.raises(ValueError):
        sqrt_mod(2, 3)


def test_serialization_convention_ascending():
    # x^3 + x^2 + 1 over Z_2 is [1, 0, 1, 1]
    f = P(2, 1, 0, 1, 1)
    assert list(f.coeffs) == [1, 0, 1, 1]
    assert str(f) == "x^3 + x^2 + 1"
