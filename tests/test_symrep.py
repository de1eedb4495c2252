import random
import subprocess
import sys
import tracemalloc
from itertools import product

import pytest

from graphmub import symrep
from graphmub.fields import PolyZp, is_quadratic_residue, smallest_nonresidue
from graphmub.linalg import MatZp, congruence
from graphmub.symrep import (
    ConstructionError,
    PrimitivePolynomialRequired,
    choose_form_multiplier,
    find_irreducible,
    reduce_to_identity_char2,
    reduce_to_identity_odd,
    symmetric_representation,
    symmetrize_companion,
    symmetrizing_form_char2,
    symmetrizing_form_odd,
    tridiag_char_poly,
    tridiag_search,
    tridiagonal_matrix,
    tridiagonal_rep,
)
from graphmub.tables import REFERENCE_DIAGONALS, reference_poly
from oracles import all_monic, irreducible_brute, order_of_x_brute, tridiag_char_poly_brute

F27 = PolyZp(3, [1, 2, 1, 1])  # x^3 + x^2 + 2x + 1


def random_symmetric(rng, p, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(p)
    return MatZp(p, rows)


def random_irreducible(rng, p, n):
    while True:
        f = PolyZp(p, [rng.randrange(p) for _ in range(n)] + [1])
        if f.is_irreducible():
            return f


# -- commuting forms -------------------------------------------------------


def test_form_char2_fixture():
    f = PolyZp(2, [1, 1, 0, 1])  # x^3 + x + 1
    assert symmetrizing_form_char2(f) == MatZp(2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_form_char2_degenerate_corner():
    assert symmetrizing_form_char2(PolyZp(2, [1, 1])) == MatZp(2, [[1]])


def test_form_char2_commutes_and_unimodular():
    rng = random.Random(101)
    for n in range(1, 9):
        for _ in range(5):
            f = random_irreducible(rng, 2, n)
            b = symmetrizing_form_char2(f)
            c = MatZp.companion(f)
            assert c @ b == b @ c.transpose()
            assert b.det() == 1
            assert b.is_symmetric


def test_form_odd_fixture_three_qutrits():
    assert symmetrizing_form_odd(F27) == MatZp(3, [[0, 0, 1], [0, 1, 2], [1, 2, 2]])


def test_form_odd_degenerate_corner():
    assert symmetrizing_form_odd(PolyZp(5, [3, 1])) == MatZp(5, [[1]])


def test_form_odd_determinant_sign_rule():
    rng = random.Random(103)
    for p in (3, 5, 7):
        for n in range(1, 8):
            f = random_irreducible(rng, p, n)
            b0 = symmetrizing_form_odd(f)
            expected = 1 if n % 4 in (0, 1) else p - 1
            assert b0.det() == expected
            c = MatZp.companion(f)
            assert c @ b0 == b0 @ c.transpose()


def test_form_char2_rejects_odd_modulus():
    with pytest.raises(ValueError):
        symmetrizing_form_char2(PolyZp(3, [1, 2, 1]))
    with pytest.raises(ValueError):
        symmetrizing_form_odd(PolyZp(2, [1, 1, 1]))


# -- multiplier selection --------------------------------------------------


def test_multiplier_three_qutrits_is_two():
    assert choose_form_multiplier(F27, MatZp.companion(F27)) == 2


def test_multiplier_unit_when_n_mod4_in_01():
    f = find_irreducible(5, 4)
    assert choose_form_multiplier(f, MatZp.companion(f)) == 1
    f = find_irreducible(7, 5)
    assert choose_form_multiplier(f, MatZp.companion(f)) == 1


def test_multiplier_unit_when_minus_one_is_residue():
    # p = 5: -1 = 4 = 2^2
    f = find_irreducible(5, 2)
    assert choose_form_multiplier(f, MatZp.companion(f)) == 1


def test_multiplier_companion_for_n_mod4_two():
    f = find_irreducible(3, 2, primitive=True)
    c = MatZp.companion(f)
    g = choose_form_multiplier(f, c)
    assert g == c
    assert not is_quadratic_residue(g.det(), 3)


def test_multiplier_requires_primitive():
    f = PolyZp(3, [1, 0, 1])  # x^2 + 1: irreducible but not primitive
    with pytest.raises(PrimitivePolynomialRequired):
        choose_form_multiplier(f, MatZp.companion(f))


# -- congruence reductions -------------------------------------------------


def test_reduce_char2_identity_is_identity():
    eye = MatZp.identity(2, 4)
    assert reduce_to_identity_char2(eye) == eye


def test_reduce_char2_fixture():
    b = MatZp(2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    pm = reduce_to_identity_char2(b)
    assert congruence(pm, b) == MatZp.identity(2, 3)


def test_reduce_char2_random_suite():
    rng = random.Random(107)
    done = 0
    while done < 100:
        n = rng.randrange(1, 7)
        b = random_symmetric(rng, 2, n)
        if b.det() == 0 or all(b[i, i] == 0 for i in range(n)):
            continue
        pm = reduce_to_identity_char2(b)
        assert congruence(pm, b) == MatZp.identity(2, n)
        done += 1


def test_reduce_char2_rejects_bad_inputs():
    with pytest.raises(ValueError):
        reduce_to_identity_char2(MatZp(2, [[1, 1], [1, 1]]))  # singular
    with pytest.raises(ValueError):
        reduce_to_identity_char2(MatZp(2, [[0, 1], [1, 0]]))  # empty diagonal


def test_reduce_odd_fixture_three_qutrits():
    b = symmetrizing_form_odd(F27).scale(2)
    pm = reduce_to_identity_odd(b)
    assert congruence(pm, b) == MatZp.identity(3, 3)
    # the worked example's transform is the witness our scan produces
    assert pm == MatZp(3, [[0, 0, 1], [0, 1, 2], [1, 2, 2]])


def test_reduce_odd_rescale_fixture():
    # diag(4, 1) over Z_5: rescale 4 = 2^2 by 3 = 2^{-1}
    b = MatZp(5, [[4, 0], [0, 1]])
    pm = reduce_to_identity_odd(b)
    assert pm == MatZp(5, [[3, 0], [0, 1]])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_reduce_odd_random_suite(p):
    rng = random.Random(109 + p)
    done = 0
    while done < 100:
        n = rng.randrange(1, 7)
        b = random_symmetric(rng, p, n)
        det = b.det()
        if det == 0 or not is_quadratic_residue(det, p):
            continue
        pm = reduce_to_identity_odd(b)
        assert congruence(pm, b) == MatZp.identity(p, n)
        done += 1


def test_reduce_odd_rejects_nonresidue_determinant():
    p = 3
    b = MatZp(p, [[1, 0], [0, smallest_nonresidue(p)]])
    assert not is_quadratic_residue(b.det(), p)
    with pytest.raises(ValueError):
        reduce_to_identity_odd(b)


# -- companion symmetrization ----------------------------------------------


def test_symmetrize_three_qutrits_full_fixture():
    rep = symmetrize_companion(F27)
    assert rep.companion == MatZp(3, [[0, 1, 0], [0, 0, 1], [2, 1, 2]])
    assert rep.multiplier == 2
    assert rep.q == MatZp(3, [[1, 0, 2], [0, 0, 1], [2, 1, 1]])
    assert rep.q @ rep.q == MatZp(3, [[2, 2, 1], [2, 1, 1], [1, 1, 0]])
    assert congruence(rep.transform, symmetrizing_form_odd(F27).scale(2)) \
        == MatZp.identity(3, 3)


def test_symmetrize_degree_one():
    rep = symmetrize_companion(PolyZp(5, [3, 1]))
    assert rep.q == MatZp(5, [[2]])


def test_symmetrize_char2():
    f = PolyZp(2, [1, 1, 0, 1])
    rep = symmetrize_companion(f)
    assert rep.q.is_symmetric
    assert rep.q.char_poly() == f
    assert rep.transform @ rep.companion @ rep.transform.inverse() == rep.q


def test_symmetrize_random_many():
    rng = random.Random(113)
    for p in (2, 3, 5, 7):
        for n in range(1, 7):
            f = random_irreducible(rng, p, n)
            try:
                rep = symmetrize_companion(f)
            except PrimitivePolynomialRequired:
                assert p % 4 == 3 and n % 4 == 2
                continue
            assert rep.q.is_symmetric
            assert rep.q.char_poly() == f
            assert rep.transform @ rep.companion @ rep.transform.inverse() == rep.q


# -- tridiagonal route -------------------------------------------------------


def test_tridiag_char_poly_fixtures():
    assert tridiag_char_poly(2, (1, 0, 0)) == PolyZp(2, [1, 0, 1, 1])
    assert tridiag_char_poly(3, (1, 0)) == PolyZp(3, [2, 2, 1])
    assert tridiag_char_poly(2, (0, 0)) == PolyZp(2, [1, 0, 1])  # reducible


def test_tridiag_char_poly_matches_matrix():
    rng = random.Random(127)
    for _ in range(100):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 7)
        d = tuple(rng.randrange(p) for _ in range(n))
        assert tridiag_char_poly(p, d) == tridiagonal_matrix(p, d).char_poly()


def test_tridiag_char_poly_matches_polynomial_recursion():
    # the int64 recursion against PolyZp arithmetic on unreduced entries,
    # one of them above 2^63 (reduced before it enters int64), at moduli up
    # to the largest admitted prime, and on the empty diagonal
    rng = random.Random(137)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 13, 2**31 - 1))
        n = rng.randrange(0, 9)
        d = [rng.randrange(-2 * p, 3 * p) for _ in range(n)]
        if n:
            d[rng.randrange(n)] += p * 2**64 + rng.randrange(p)
        assert tridiag_char_poly(p, d) == tridiag_char_poly_brute(p, d)


def test_tridiag_reversal_symmetry():
    rng = random.Random(131)
    for _ in range(100):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 7)
        d = tuple(rng.randrange(p) for _ in range(n))
        assert tridiag_char_poly(p, d) == tridiag_char_poly(p, d[::-1])


def searched(p, n, **kw):
    """The diagonal of a `tridiag_search` hit (None on a miss), after
    checking the polynomial it hands on: the diagonal's own, and the
    target instance itself when one is given."""
    found = tridiag_search(p, n, **kw)
    if found is None:
        return None
    d, f = found
    assert f == tridiag_char_poly_brute(p, d)
    assert kw.get("target", f) is f
    return d


def test_tridiag_search_target():
    assert searched(2, 3, target=PolyZp(2, [1, 1, 0, 1])) == (0, 1, 1)


def test_tridiag_search_no_target():
    d = searched(2, 2)
    assert tridiag_char_poly(2, d) == PolyZp(2, [1, 1, 1])


def test_tridiag_search_unrealizable_target_is_none():
    # collect every characteristic polynomial a (3,3) tridiagonal can realize,
    # then ask for a reducible one outside that set
    realizable = set()
    for d in product(range(3), repeat=3):
        realizable.add(tridiag_char_poly(3, d))
    missing = None
    for c0 in range(3):
        for c1 in range(3):
            for c2 in range(3):
                f = PolyZp(3, [c0, c1, c2, 1])
                if not f.is_irreducible() and f not in realizable:
                    missing = f
                    break
    assert missing is not None
    assert searched(3, 3, target=missing) is None


def test_tridiag_search_primitive_flag():
    d = searched(3, 3, primitive=True)
    f = tridiag_char_poly(3, d)
    assert f.is_irreducible() and f.is_primitive()


def test_tridiag_search_guard():
    with pytest.raises(ValueError):
        tridiag_search(7, 10)


def test_search_guard_refuses_huge_n_without_computing_p_to_the_n():
    # 3^(10^8) has 1.6e8 bits; the guard must answer from n alone
    code = ("from graphmub.symrep import tridiag_search\n"
            "try:\n    tridiag_search(3, 10**8)\n"
            "except ValueError as exc:\n    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "family size p^n = 3^100000000 exceeds 10000000\n"


def realizing(p, f):
    """Every diagonal realizing f in lexicographic order, by the oracle."""
    return [d for d in product(range(p), repeat=f.degree)
            if tridiag_char_poly_brute(p, d) == f]


def test_newton_diagonals_three_qubits():
    f = PolyZp(2, [1, 1, 0, 1])
    assert realizing(2, f) == [(0, 1, 1), (1, 1, 0)]
    assert searched(2, 3, target=f) == (0, 1, 1)


def test_newton_diagonals_degree_one():
    f = PolyZp(5, [2, 1])  # x + 2 -> d = (-2)
    assert realizing(5, f) == [(3,)]
    assert searched(5, 1, target=f) == (3,)


def test_newton_diagonals_two_qutrits():
    f = PolyZp(3, [2, 2, 1])
    out = realizing(3, f)
    assert (1, 0) in out and (0, 1) in out
    assert searched(3, 2, target=f) == out[0] == (0, 1)
    for d in out:
        assert tridiag_char_poly(3, d) == f


def test_tridiag_search_has_no_degree_cap():
    # degrees 5 and 6 over Z_2: every monic polynomial gets the first
    # diagonal that realizes it, or None (x^5 + x + 1 has none)
    for n in (5, 6):
        polys = {d: tridiag_char_poly_brute(2, d) for d in product(range(2), repeat=n)}
        for f in all_monic(2, n):
            expected = [d for d, g in polys.items() if g == f]
            assert searched(2, n, target=f) == (expected[0] if expected else None)
    assert searched(2, 5, target=PolyZp(2, [1, 1, 0, 0, 0, 1])) is None


@pytest.mark.parametrize("chunk", [5, symrep.SEARCH_CHUNK])
def test_stacked_search_matches_scalar_filter(monkeypatch, chunk):
    # the first chunk holds 64 rows, so the scans over 81 to 169 diagonals
    # cross a chunk boundary; a cap of 5 rows adds one every 5 rows after it
    monkeypatch.setattr(symrep, "SEARCH_CHUNK", chunk)
    for p, n in ((2, 1), (2, 3), (2, 4), (2, 7), (3, 2), (3, 3), (3, 4),
                 (5, 2), (5, 3), (7, 2), (13, 2)):
        diagonals = list(product(range(p), repeat=n))
        polys = [tridiag_char_poly_brute(p, d) for d in diagonals]
        first = {}
        for d, f in zip(diagonals, polys):
            first.setdefault(f, d)
        for f, d in first.items():
            assert searched(p, n, target=f) == d
        irreducible = [d for d, f in zip(diagonals, polys) if f.is_irreducible()]
        assert searched(p, n) == (irreducible[0] if irreducible else None)
        primitive = [d for d in irreducible if tridiag_char_poly_brute(p, d).is_primitive()]
        assert searched(p, n, primitive=True) == (primitive[0] if primitive else None)
        missing = next((g for g in all_monic(p, n) if g not in first), None)
        if missing is not None:
            assert searched(p, n, target=missing) is None


def test_newton_agrees_with_exhaustive_search():
    # one irreducible polynomial per (p, n): the search returns the first of
    # all diagonals that realize it, or None when there are none
    for p, n in ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        f = next(g for g in all_monic(p, n) if g.is_irreducible())
        expected = realizing(p, f)
        assert searched(p, n, target=f) == (expected[0] if expected else None)


# -- curated table ------------------------------------------------------------


def test_reference_rows_reproduce_and_are_primitive():
    for p, by_n in REFERENCE_DIAGONALS.items():
        for n, rows in by_n.items():
            for d, cdesc in rows:
                f = tridiag_char_poly(p, d)
                assert f == reference_poly(p, cdesc), (p, n, d)
                assert f.is_irreducible(), (p, n, d)
                assert f.is_primitive(), (p, n, d)


# -- top-level selection -------------------------------------------------------


def test_representation_explicit_diagonal():
    rep = symmetric_representation(2, 3, d=(1, 0, 0))
    assert rep.method == "tridiagonal"
    assert rep.q == tridiagonal_matrix(2, (1, 0, 0))


def test_representation_rejects_reducible_diagonal():
    with pytest.raises(ConstructionError):
        symmetric_representation(2, 2, d=(0, 0))


def test_representation_rejects_reducible_polynomial():
    with pytest.raises(ConstructionError):
        symmetric_representation(3, 3, poly=PolyZp(3, [1, 1, 0, 1]))


def test_representation_rejects_mismatched_diagonal_and_polynomial():
    with pytest.raises(ConstructionError):
        symmetric_representation(2, 3, d=(1, 0, 0), poly=PolyZp(2, [1, 1, 0, 1]))


def test_representation_primitive_flag_on_explicit_diagonal():
    # d = (1, 2) over Z_3 realizes x^2 + 1, irreducible but not primitive
    with pytest.raises(ConstructionError):
        symmetric_representation(3, 2, d=(1, 2), primitive=True)


def test_tridiag_search_primitive_target():
    f = PolyZp(2, [1, 0, 1, 1])
    assert searched(2, 3, target=f, primitive=True) == (0, 0, 1)
    nonprim = PolyZp(3, [1, 0, 1])  # irreducible, order 4 != 8
    assert searched(3, 2, target=nonprim, primitive=True) is None
    assert searched(3, 2, target=nonprim) == (1, 2)


def test_representation_auto_falls_back_to_companion():
    # (3,3) has irreducible polynomials without any tridiagonal realization;
    # request one explicitly with the companion method
    rep = symmetric_representation(3, 3, method="companion", poly=F27)
    assert rep.method == "companion"
    assert rep.q.char_poly() == F27


def test_representation_auto_with_unrealizable_target():
    # x^3 + 2x + 1 over Z_3 is irreducible but no symmetric tridiagonal
    # matrix has it as characteristic polynomial: auto must fall through
    # to companion symmetrization
    f = PolyZp(3, [1, 2, 0, 1])
    assert searched(3, 3, target=f) is None
    rep = symmetric_representation(3, 3, method="auto", poly=f)
    assert rep.method == "companion"
    assert rep.q.is_symmetric and rep.q.char_poly() == f
    with pytest.raises(ConstructionError):
        symmetric_representation(3, 3, method="tridiag", poly=f)


def test_representation_deterministic():
    a = symmetric_representation(3, 4)
    b = symmetric_representation(3, 4)
    assert a == b


def test_representation_every_small_case():
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            rep = symmetric_representation(p, n)
            assert rep.q.is_symmetric
            assert rep.q.char_poly().is_irreducible()


def test_find_irreducible_is_lex_first():
    assert find_irreducible(2, 2) == PolyZp(2, [1, 1, 1])
    f = find_irreducible(3, 2)
    assert f.is_irreducible()
    # nothing lexicographically earlier is irreducible
    for tail in product(range(3), repeat=2):
        g = PolyZp(3, list(reversed(tail)) + [1])
        if g == f:
            break
        assert not g.is_irreducible()


def test_find_irreducible_walks_the_candidates_lazily():
    # x is irreducible, so the search ends at the first of p^n candidates
    # without a list of all of them (~400 MB at p near 10^7)
    tracemalloc.start()
    try:
        f = find_irreducible(999983, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f == PolyZp(999983, [0, 1])
    assert peak < 64 * 1024


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2),
                                 (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)])
def test_find_irreducible_first_in_index_order(p, n):
    # candidates run with c_0 fastest, so the first has the smallest
    # (c_{n-1}, ..., c_0); irreducibility and order by the oracles
    irreducible = [f for f in all_monic(p, n) if irreducible_brute(f)]
    primitive = [f for f in irreducible
                 if f.coeffs[0] and order_of_x_brute(f) == p**n - 1]
    first = min(irreducible, key=lambda f: f.coeffs[::-1])
    assert find_irreducible(p, n) == first
    assert find_irreducible(p, n, primitive=True) == min(primitive, key=lambda f: f.coeffs[::-1])

