"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product

from graphmub.entanglement import (
    BISEPARABLE,
    FULLY_SEPARABLE,
    GENUINELY_MULTIPARTITE,
    GHZ_TYPE,
    Bipartition,
    all_bipartitions,
    census,
    classify_basis,
    design_purity_check,
)
from graphmub.fields import PolyZp, is_quadratic_residue
from graphmub.linalg import MatZp, congruence
from graphmub.mubs import mub_set, shift_set, verify_mu_condition
from graphmub.states import (
    basis_element,
    emit_measurement_circuit,
    simulate_measurement,
    stabilizer_check,
    state_index,
    verify_mu_numeric,
)
from graphmub.symrep import (
    reduce_to_identity_char2,
    reduce_to_identity_odd,
    symmetrize_companion,
    symmetrizing_form_odd,
    tridiag_char_poly,
    tridiagonal_rep,
)
from graphmub.tables import REFERENCE_DIAGONALS, reference_poly

OVERLAP_TOL = 1e-10


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {num:2d} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def family(p: int, n: int, d=None):
    return mub_set(p, n, d=d)


def test_criterion_01_reference_table_reproduction():
    t0 = time.time()
    ok = True
    rows = 0
    for p, by_n in REFERENCE_DIAGONALS.items():
        for n, entries in by_n.items():
            for d, cdesc in entries:
                f = tridiag_char_poly(p, d)
                ok &= f == reference_poly(p, cdesc)
                ok &= f.is_irreducible()
                ok &= f.is_primitive()
                rows += 1
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(1, "curated diagonal table reproduction", ok,
           f"{rows} rows in {elapsed:.2f}s")


def test_criterion_02_three_qutrit_worked_example():
    f = PolyZp(3, [1, 2, 1, 1])
    rep = symmetrize_companion(f)
    b0 = symmetrizing_form_odd(f)
    ok = rep.companion == MatZp(3, [[0, 1, 0], [0, 0, 1], [2, 1, 2]])
    ok &= b0 == MatZp(3, [[0, 0, 1], [0, 1, 2], [1, 2, 2]])
    ok &= rep.multiplier == 2
    ok &= rep.q == MatZp(3, [[1, 0, 2], [0, 0, 1], [2, 1, 1]])
    ok &= rep.q @ rep.q == MatZp(3, [[2, 2, 1], [2, 1, 1], [1, 1, 0]])
    ok &= congruence(rep.transform, b0.scale(2)) == MatZp.identity(3, 3)
    report(2, "three-qutrit companion symmetrization", ok)


def test_criterion_03_three_qubit_worked_example():
    rep = tridiagonal_rep(2, (1, 0, 0))
    ok = rep.q == MatZp(2, [[1, 1, 0], [1, 0, 1], [0, 1, 0]])
    ok &= rep.f == PolyZp(2, [1, 0, 1, 1])  # x^3 + x^2 + 1
    fam = family(2, 3, (1, 0, 0))
    eye = MatZp.identity(2, 3)
    q = rep.q
    q2 = q @ q
    expected = {
        MatZp.zeros(2, 3), eye, q, q2,
        eye + q, eye + q2, q + q2, eye + q + q2,
    }
    ok &= set(fam.matrices) == expected
    report(3, "three-qubit tridiagonal family", ok)


FULL_CASES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
              (5, 1), (5, 2), (7, 1), (7, 2), (2, 8), (3, 5), (7, 3)]
SAMPLED_CASES = [(2, 5), (2, 6), (2, 7), (2, 8), (3, 4)]


def test_criterion_04_numeric_unbiasedness():
    t0 = time.time()
    ok = True
    worst = 0.0
    for p, n in FULL_CASES:
        rep = verify_mu_numeric(family(p, n), tol=OVERLAP_TOL)
        ok &= rep.ok
        worst = max(worst, rep.worst_deviation)
    for p, n in SAMPLED_CASES:
        fam = family(p, n)
        alg = verify_mu_condition(fam, pairwise=True)
        ok &= alg.ok
        rep = verify_mu_numeric(fam, tol=OVERLAP_TOL, sample=10**4, seed=2024)
        ok &= rep.ok
        worst = max(worst, rep.worst_deviation)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(4, "numeric unbiasedness sweeps", ok,
           f"worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_design_identity_exact():
    ok = True
    cases = 0
    for p in (2, 3, 5, 7):
        n = 2
        while p**n <= 625:
            fam = family(p, n)
            for b in all_bipartitions(n):
                check = design_purity_check(fam, b)
                ok &= check.passed
                cases += 1
            n += 1
    three_qubit = design_purity_check(family(2, 3, (1, 0, 0)),
                                      Bipartition.of((1,), 3))
    ok &= three_qubit.passed and three_qubit.lhs == Fraction(6, 9)
    report(5, "averaged-purity identity, exact rationals", ok,
           f"{cases} bipartition checks, 3-qubit value {three_qubit.lhs}")


def test_criterion_06_tripartite_census():
    ok = True
    for p in (2, 3, 5):
        fam = family(p, 3) if p != 2 else family(2, 3, (1, 0, 0))
        labels = [classify_basis(a) for a in fam.matrices]
        ok &= labels.count(FULLY_SEPARABLE) == p
        entangled = [v for v in labels if v in (GHZ_TYPE, GENUINELY_MULTIPARTITE)]
        ok &= len(entangled) == p**3 - p
        ok &= BISEPARABLE not in labels
        if p == 2:
            ok &= labels.count(GHZ_TYPE) == 6
    report(6, "tripartite separability census", ok)


def test_criterion_07_stabilizer_suite():
    ok = True
    checks = 0
    for p, n, d in ((2, 3, (1, 0, 0)), (3, 3, None)):
        fam = family(p, n, d)
        for a in fam.matrices:
            for label in product(range(p), repeat=n):
                ok &= stabilizer_check(a, label, tol=1e-10)
                checks += 1
    report(7, "stabilizer eigenvalue equations", ok, f"{checks} checks")


def test_criterion_08_measurement_roundtrip():
    ok = True
    checks = 0
    for p, n, d in ((2, 3, (1, 0, 0)), (3, 2, None)):
        fam = family(p, n, d)
        for a in fam.matrices:
            circuit = emit_measurement_circuit(a)
            for label in product(range(p), repeat=n):
                probs = simulate_measurement(circuit, basis_element(a, label))
                ok &= abs(probs[state_index(label, p)] - 1) < OVERLAP_TOL
                checks += 1
    report(8, "measurement circuit roundtrip", ok, f"{checks} outcomes")


def test_criterion_09_congruence_reduction_suites():
    rng = random.Random(20240)
    ok = True

    def random_symmetric(p, n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(p)
        return MatZp(p, rows)

    done = 0
    while done < 100:
        n = rng.randrange(1, 7)
        b = random_symmetric(2, n)
        if b.det() == 0 or all(b[i, i] == 0 for i in range(n)):
            continue
        ok &= congruence(reduce_to_identity_char2(b), b) == MatZp.identity(2, n)
        done += 1
    for p in (3, 5, 7):
        done = 0
        while done < 100:
            n = rng.randrange(1, 7)
            b = random_symmetric(p, n)
            det = b.det()
            if det == 0 or not is_quadratic_residue(det, p):
                continue
            ok &= congruence(reduce_to_identity_odd(b), b) == MatZp.identity(p, n)
            done += 1
    report(9, "congruence reductions to the identity", ok, "400 matrices")


def test_criterion_10_shift_invariance():
    rng = random.Random(20241)
    ok = True

    def random_symmetric(p, n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(p)
        return MatZp(p, rows)

    for p, n, d in ((2, 3, (1, 0, 0)), (3, 2, None), (3, 3, None), (5, 2, None)):
        fam = family(p, n, d)
        for _ in range(20):
            shifted = shift_set(fam, random_symmetric(p, n))
            ok &= verify_mu_condition(shifted).ok
            ok &= verify_mu_numeric(shifted, tol=OVERLAP_TOL, sample=200,
                                    seed=7).ok
    shifted = shift_set(family(2, 3, (1, 0, 0)),
                     MatZp(2, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    ok &= census(shifted) == {BISEPARABLE: 6, GHZ_TYPE: 2}
    report(10, "collective shift invariance", ok,
           "80 random shifts + fixed two-qubit phase shift")
