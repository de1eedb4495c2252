import functools
import random
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest

from graphmub.fields import PolyZp
from graphmub.linalg import MatZp, rank_mod_p
from graphmub.mubs import MubSet, _keys, mub_set, shift_set, stack_dtype, verify_mu_condition
from graphmub import states
from graphmub.states import (
    Circuit,
    Gate,
    apply_circuit,
    apply_controlled_phase,
    apply_fourier,
    apply_local_phase,
    apply_pauli_z,
    basis_element,
    basis_matrix,
    circuit_from_text,
    circuit_to_text,
    emit_measurement_circuit,
    graph_state,
    overlap,
    plus_state,
    simulate_measurement,
    stabilizer_check,
    state_index,
    verify_mu_numeric,
    _computational_dev,
    _digits,
    _frequencies,
    _sample_draws,
    _verify_sampled,
)

from oracles import (
    difference_spectrum,
    frequencies_brute,
    numeric_sampled_brute,
    numeric_sweep_brute,
    numeric_worst_exact,
    rank_brute,
)

F27 = PolyZp(3, [1, 2, 1, 1])


def qubit_triple_family():
    return mub_set(2, 3, method="tridiag", d=(1, 0, 0))


def random_adjacency(rng, p, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(p)
    return MatZp(p, rows)


def test_plus_state():
    assert np.allclose(plus_state(2, 1), np.array([1, 1]) / np.sqrt(2))
    s = plus_state(3, 2)
    assert abs(np.linalg.norm(s) - 1) < 1e-12
    assert np.allclose(s, 1 / 3)


def test_local_phase_qubit_fixture():
    out = apply_local_phase(plus_state(2, 1), 2, 1, 1)
    assert np.allclose(out, np.array([1, 1j]) / np.sqrt(2))


def test_local_phase_qubit_period_four():
    s = plus_state(2, 1)
    out = s
    for _ in range(4):
        out = apply_local_phase(out, 2, 1, 1)
    assert np.allclose(out, s)
    assert np.allclose(apply_local_phase(s, 2, 1, 1, power=2),
                       apply_pauli_z(s, 2, 1, 1))


def test_local_phase_odd_exponents():
    # diag(w^{k(k-1)/2}) on a single qutrit: exponents 0, 0, 1
    s = np.array([1.0, 1.0, 1.0], dtype=complex)
    out = apply_local_phase(s, 3, 1, 1)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(out, [1, 1, w])
    # squared gate picks up w^{k(k-1)}: exponents 0, 0, 2
    out2 = apply_local_phase(s, 3, 1, 1, power=2)
    assert np.allclose(out2, [1, 1, w**2])


def test_controlled_phase_fixture():
    out = apply_controlled_phase(plus_state(2, 2), 2, 2, 1, 2)
    assert np.allclose(out, np.array([1, 1, 1, -1]) / 2)


def test_gate_index_validation():
    with pytest.raises(IndexError):
        apply_local_phase(plus_state(2, 2), 2, 2, 3)
    with pytest.raises(IndexError):
        apply_controlled_phase(plus_state(2, 2), 2, 2, 1, 1)


def test_graph_state_zero_matrix_is_plus():
    for p, n in ((2, 3), (3, 2), (5, 1)):
        assert np.allclose(graph_state(MatZp.zeros(p, n)), plus_state(p, n))


def test_graph_state_flat_amplitudes():
    rng = random.Random(307)
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        a = random_adjacency(rng, p, n)
        g = graph_state(a)
        assert abs(np.linalg.norm(g) - 1) < 1e-12
        assert np.allclose(np.abs(g), p ** (-n / 2), atol=1e-12)


def test_graph_state_matches_gate_sequence():
    rng = random.Random(311)
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        a = random_adjacency(rng, p, n)
        s = plus_state(p, n)
        for i in range(1, n + 1):
            if a[i - 1, i - 1]:
                s = apply_local_phase(s, p, n, i, a[i - 1, i - 1])
            for j in range(i + 1, n + 1):
                if a[i - 1, j - 1]:
                    s = apply_controlled_phase(s, p, n, i, j, a[i - 1, j - 1])
        assert np.allclose(s, graph_state(a), atol=1e-13)


def test_gate_order_is_irrelevant():
    a = MatZp(3, [[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    ops = [("P", 1), ("P", 3), ("CP", 1, 2), ("CP", 2, 3)]
    results = []
    for perm in permutations(ops):
        s = plus_state(3, 3)
        for op in perm:
            if op[0] == "P":
                s = apply_local_phase(s, 3, 3, op[1], a[op[1] - 1, op[1] - 1])
            else:
                s = apply_controlled_phase(s, 3, 3, op[1], op[2],
                                           a[op[1] - 1, op[2] - 1])
        results.append(s)
    for s in results[1:]:
        assert np.max(np.abs(s - results[0])) < 1e-14


def test_basis_element_label_zero_is_graph_state():
    a = MatZp(3, [[1, 1], [1, 0]])
    assert np.allclose(basis_element(a, (0, 0)), graph_state(a))


def test_y_eigenbasis_fixture():
    a = MatZp(2, [[1]])
    assert np.allclose(basis_element(a, (0,)), np.array([1, 1j]) / np.sqrt(2))
    assert np.allclose(basis_element(a, (1,)), np.array([1, -1j]) / np.sqrt(2))


def test_x_eigenbasis_fixture():
    a = MatZp(2, [[0]])
    assert np.allclose(basis_element(a, (0,)), np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(basis_element(a, (1,)), np.array([1, -1]) / np.sqrt(2))


def test_basis_matrix_columns_match_elements():
    rng = random.Random(409)
    for _ in range(10):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        a = random_adjacency(rng, p, n)
        v = basis_matrix(a)
        for label in product(range(p), repeat=n):
            col = v[:, state_index(label, p)]
            assert np.allclose(col, basis_element(a, label), atol=1e-14)


def test_basis_orthonormality():
    rng = random.Random(313)
    for _ in range(10):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        a = random_adjacency(rng, p, n)
        v = basis_matrix(a)
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(p**n))) < 1e-10


def test_diagonal_periodicity_char2():
    # raising a diagonal entry by 2 permutes the basis labels m_i -> m_i + 1
    rng = random.Random(317)
    for _ in range(10):
        a = random_adjacency(rng, 2, 3)
        i = rng.randrange(1, 4)
        for m in product(range(2), repeat=3):
            lifted = apply_local_phase(basis_element(a, m), 2, 3, i, 2)
            m2 = list(m)
            m2[i - 1] = (m2[i - 1] + 1) % 2
            assert np.allclose(lifted, basis_element(a, m2), atol=1e-14)


def test_overlap_trivial_and_fixtures():
    a = MatZp(2, [[0]])
    u = basis_element(a, (0,))
    assert abs(overlap(u, u) - 1) < 1e-14
    y = basis_element(MatZp(2, [[1]]), (1,))
    assert abs(overlap(u, y) - 0.5) < 1e-14
    with pytest.raises(ValueError):
        overlap(u, plus_state(2, 2))


def test_cross_basis_overlap_eighth():
    fam = qubit_triple_family()
    u = basis_element(fam.matrices[3], (0, 1, 0))
    v = basis_element(fam.matrices[6], (1, 1, 1))
    assert abs(overlap(u, v) - 1 / 8) < 1e-12


def test_single_qupit_gauss_law():
    for p in (3, 5, 7):
        for r in range(p):
            for rp in range(r + 1, p):
                u = basis_element(MatZp(p, [[r]]), (2 % p,))
                v = basis_element(MatZp(p, [[rp]]), (1,))
                assert abs(overlap(u, v) - 1 / p) < 1e-12


def test_two_qupit_entangling_law():
    # bases differing by a pure entangling power: every cross overlap is
    # 1/p^2 for arbitrary labels on both sides
    for p in (2, 3):
        zero = MatZp.zeros(p, 2)
        for r in range(1, p):
            a = MatZp(p, [[0, r], [r, 0]])
            for label_a in product(range(p), repeat=2):
                for label_b in product(range(p), repeat=2):
                    u = basis_element(a, label_a)
                    v = basis_element(zero, label_b)
                    assert abs(overlap(u, v) - 1 / p**2) < 1e-12
    rng = random.Random(359)
    for r in range(1, 5):
        a = MatZp(5, [[0, r], [r, 0]])
        zero = MatZp.zeros(5, 2)
        for _ in range(20):
            u = basis_element(a, (rng.randrange(5), rng.randrange(5)))
            v = basis_element(zero, (rng.randrange(5), rng.randrange(5)))
            assert abs(overlap(u, v) - 1 / 25) < 1e-12


# -- numeric unbiasedness sweeps ---------------------------------------------


def corrupted_qubit_triple():
    fam = qubit_triple_family()
    rows = fam.matrices[2].to_lists()
    rows[0][1] = rows[1][0] = (rows[0][1] + 1) % 2  # break one matrix
    return MubSet(
        p=2, n=3,
        stack=[m.rows for m in fam.matrices[:2] + (MatZp(2, rows),) + fam.matrices[3:]],
    )


def test_numeric_sweep_three_qubits():
    report = verify_mu_numeric(qubit_triple_family(), tol=1e-10)
    assert report.ok
    assert report.worst_deviation < 1e-12
    assert report.pairs_checked == 9 * 8 // 2


def test_numeric_sweep_three_qutrits():
    fam = mub_set(3, 3, method="companion", poly=F27)
    report = verify_mu_numeric(fam, tol=1e-10)
    assert report.ok


def test_numeric_sweep_detects_corruption():
    report = verify_mu_numeric(corrupted_qubit_triple(), tol=1e-10)
    assert not report.ok
    assert report.first_violation is not None


def explicit_element(s, basis, label):
    """Basis vector by explicit construction; index len(s.matrices) is
    the computational basis."""
    if basis == len(s.matrices):
        e = np.zeros(s.dim, dtype=np.complex128)
        e[label] = 1.0
        return e
    m = np.unravel_index(label, (s.p,) * s.n)
    return basis_element(s.matrices[basis], [int(v) for v in m])


def computational_only():
    """One (7,2) graph basis: its only pair is against the computational
    basis, whose squared overlaps 1/49 round off 0 at some phases."""
    return MubSet(p=7, n=2, stack=[m.rows for m in (MatZp(7, [[1, 1], [1, 2]]),)])


SWEEP_CASES = {
    "2,3": (lambda: mub_set(2, 3), 1e-10, True),
    "3,2": (lambda: mub_set(3, 2), 1e-10, True),
    "2,4": (lambda: mub_set(2, 4), 1e-10, True),
    "5,2": (lambda: mub_set(5, 2), 1e-10, True),
    "corrupted": (corrupted_qubit_triple, 1e-10, False),
    "shifted": (lambda: shift_set(mub_set(3, 2), MatZp(3, [[1, 2], [2, 0]])), 1e-10, True),
    # p = 2 shifts turn some diagonal differences into -1 in Z_4, which
    # permutes the labels of the pair against those of its class
    "shifted-2,3": (lambda: shift_set(mub_set(2, 3), MatZp(2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])),
                    1e-10, True),
    "shifted-2,4": (lambda: shift_set(mub_set(2, 4), random_adjacency(random.Random(4), 2, 4)),
                    1e-10, True),
    "shifted-corrupted-2,3": (lambda: with_identical_members(shift_set(
        mub_set(2, 3), MatZp(2, [[1, 0, 1], [0, 1, 0], [1, 0, 0]]))), 1e-10, False),
    "shifted-corrupted-2,4": (lambda: with_corrupted_member(shift_set(
        mub_set(2, 4), random_adjacency(random.Random(5), 2, 4)), 0), 1e-10, False),
    "computational": (computational_only, 0.0, False),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_numeric_sweep_matches_dense_oracle(case):
    build, tol, ok = SWEEP_CASES[case]
    fam = build()
    fast = verify_mu_numeric(fam, tol=tol)
    slow = numeric_sweep_brute(fam, tol=tol)
    assert fast.ok == slow.ok == ok
    assert fast.pairs_checked == slow.pairs_checked
    assert abs(fast.worst_deviation - slow.worst_deviation) < 1e-12
    if fast.ok:
        assert fast.first_violation is slow.first_violation is None
        return
    r, t, mr, ms, dev = fast.first_violation
    assert (r, t) == slow.first_violation[:2]
    assert abs(dev - slow.first_violation[4]) < 1e-12
    u, v = explicit_element(fam, r, mr), explicit_element(fam, t, ms)
    assert abs(abs(overlap(u, v) - 1 / fam.dim) - dev) < 1e-12
    if case == "computational":
        # every |g(x)|^2 is exactly 1/d: the tie goes to the first label,
        # not to the one rounding lifted most
        assert (r, t, mr, ms) == (0, 1, 0, 0)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                                 (5, 2), (7, 2), (131, 1)])
def test_computational_bound_covers_every_amplitude(p, n):
    # both numeric checks give every computational pair or draw this one
    # bound, taken over the M roots p^(-n/2) w_M^k, where they used to look
    # each amplitude up as one of them: every amplitude of every member of
    # a field and of a shifted field is one of those roots ((131,1) takes
    # the FFT), and the bound covers the rounding of each.  basis_matrix
    # multiplies two roots, whose rounding can exceed the bound at odd p,
    # so it serves only to identify the root.
    m = 4 if p == 2 else p
    roots = p ** (-n / 2) * np.exp(2j * np.pi * np.arange(m) / m)
    bound = _computational_dev(p, n)
    fam = mub_set(p, n)
    for s in (fam, shift_set(fam, random_adjacency(random.Random(p + n), p, n))):
        for a in s.matrices:
            amps = basis_matrix(a)
            k = np.rint(np.angle(amps) * m / (2 * np.pi)).astype(np.int64) % m
            assert np.abs(amps - roots[k]).max() < 1e-12
            assert bound >= np.abs(np.abs(roots[k]) ** 2 - 1 / s.dim).max()


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                                 (5, 2), (7, 2)])
def test_difference_spectrum_rule_matches_dense_gram(p, n):
    # every row of the gram of two graph bases that differ by B is the
    # exact spectrum of B, for every B in the sample
    rng = random.Random(p * 10 + n)
    for _ in range(12):
        a, b = random_adjacency(rng, p, n), random_adjacency(rng, p, n)
        gram = np.abs(basis_matrix(a).conj().T @ basis_matrix(a + b)) ** 2
        assert np.allclose(-np.sort(-gram, axis=1), difference_spectrum(b), atol=1e-12)


def with_corrupted_member(fam, k):
    """The family with member 2 replaced by member 1 plus the diagonal B
    of nullity k."""
    p, n = fam.p, fam.n
    b = MatZp(p, [[int(i == j < n - k) for j in range(n)] for i in range(n)])
    mats = list(fam.matrices)
    mats[2] = mats[1] + b
    return MubSet(p=p, n=n, stack=[m.rows for m in mats])


def random_family(p, n, size=None):
    rng = random.Random(p * n)
    return MubSet(p=p, n=n, stack=[random_adjacency(rng, p, n).rows
                                   for _ in range(size or p**n)])


EXACT_CASES = {
    # the pair (1, 2) differs by a B of nullity k; other pairs through
    # member 2 get whatever nullity they get
    **{f"nullity-{p},{n},{k}": (lambda p=p, n=n, k=k: with_corrupted_member(mub_set(p, n), k))
       for p, n, k in [(2, 3, 1), (2, 3, 3), (2, 4, 2), (3, 2, 1), (3, 3, 2), (5, 2, 1),
                       (5, 2, 2)]},
    # p^n random members: differences take every sign of every digit
    **{f"random-{p},{n}": (lambda p=p, n=n: random_family(p, n))
       for p, n in [(2, 2), (2, 3), (3, 2), (5, 2)]},
    # the digit differences of the pairs (0, 2) and (1, 3) are (-1, -2, 0)
    # and (-1, 1, -1), both -7 in base 3 until reduced mod 3; only the
    # second pair is biased (det [[2, 1], [1, 2]] = 0 mod 3)
    "negative-digits": lambda: MubSet(p=3, n=2, stack=[
        MatZp(3, rows).rows for rows in ([[2, 2], [2, 2]], [[1, 1], [1, 2]], [[1, 0], [0, 2]],
                                    [[0, 2], [2, 1]])]),
    # p^n above FOURIER_BLOCK, so every class takes two dense blocks; a
    # few members keep the brute-force oracle fast, and neither stack is
    # affine, so the walk runs
    "multi-block-corrupted-2,8": lambda: MubSet(
        p=2, n=8, stack=with_corrupted_member(mub_set(2, 8), 3).stack[:12]),
    "multi-block-random-3,5": lambda: random_family(3, 5, size=10),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_full_sweep_worst_deviation_is_exact(monkeypatch, case):
    fam = EXACT_CASES[case]()
    p, n, mats = fam.p, fam.n, fam.matrices
    # three states per chunk, so classes and members span many chunks
    monkeypatch.setattr(states, "SAMPLE_CHUNK", 3 * fam.dim)
    report = verify_mu_numeric(fam, tol=1e-10)
    assert abs(report.worst_deviation - numeric_worst_exact(fam)) < 1e-12
    singular = [(r, t) for r in range(len(mats)) for t in range(r + 1, len(mats))
                if rank_brute((mats[t] - mats[r]).to_lists(), p) < n]
    assert report.first_violation[:2] == singular[0]


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4), (5, 2)])
def test_violation_label_is_the_first_at_the_exact_worst_overlap(p, n):
    # a pair of nullity k has p^(n-k) labels at its worst deviation, all
    # equal in exact arithmetic; the first of them is reported (label 0 is
    # not among them for the random (3,2) and (5,2) families)
    fam = mub_set(p, n)
    shifted = shift_set(fam, random_adjacency(random.Random(p + n), p, n))
    cases = [with_corrupted_member(fam, k) for k in range(1, n + 1)]
    cases += [with_identical_members(fam), with_identical_members(shifted),
              with_corrupted_member(shifted, 1), random_family(p, n)]
    d = fam.dim
    for case in cases:
        r, t, mr, ms, dev = verify_mu_numeric(case).first_violation
        gram = basis_matrix(case.matrices[r]).conj().T @ basis_matrix(case.matrices[t])
        exact = np.abs(np.rint(d * np.abs(gram[mr]) ** 2) - 1)  # d |overlap - 1/d|
        assert mr == 0 and ms == int(exact.argmax())
        assert abs(dev - exact.max() / d) < 1e-12


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4), (5, 2), (7, 2), (13, 1)])
def test_sound_family_at_zero_tolerance_reports_label_zero(p, n):
    # at tol 0 rounding noise fails the first pair; no label is worse
    report = verify_mu_numeric(mub_set(p, n), tol=0)
    assert not report.ok
    assert report.first_violation[2:4] == (0, 0) and report.first_violation[4] < 1e-12


@pytest.mark.parametrize("p,k", [(2, 78), (2, 91), (3, 36), (5, 15), (9973, 1),
                                 (2**31 - 1, 3)])
def test_difference_keys_are_exact(p, k):
    # a row, a copy of it, each of its k one-digit neighbours, the
    # all-(p - 1) row and random rows, on the stack dtype of p (int8,
    # int16, int64): keys are equal exactly when rows are, also for a
    # strided input
    rng = np.random.default_rng(k)
    base = rng.integers(p, size=k)
    rows = np.vstack([base, base, np.full(k, p - 1), rng.integers(p, size=(20, k))]
                     + [base] * k)
    rows[-k:][np.arange(k), np.arange(k)] = (base + 1) % p
    rows = rows.astype(stack_dtype(p))
    keys = _keys(rows)
    assert keys.shape == (len(rows),)
    same_rows = (rows[:, None] == rows[None]).all(axis=2)
    assert ((keys[:, None] == keys[None]) == same_rows).all()
    assert len(set(keys.tolist())) == len({tuple(r) for r in rows.tolist()})
    wide = np.zeros((len(rows), 2 * k), dtype=rows.dtype)
    wide[:, ::2] = rows
    assert not wide[:, ::2].flags.c_contiguous
    assert (_keys(wide[:, ::2]) == keys).all()


def test_full_sweep_two_word_keys():
    # n = 11 has 66 upper-triangle digits, so keys take two words; the
    # pair (0, 1) differs only at (10, 10), digit 65, and the pair (2, 3)
    # not at all: keys that dropped the second word would merge them
    rng = random.Random(11)
    a, b = random_adjacency(rng, 2, 11), random_adjacency(rng, 2, 11)
    corner = MatZp(2, [[int(i == j == 10) for j in range(11)] for i in range(11)])
    mats = (a, a + corner, b, b) + tuple(random_adjacency(rng, 2, 11) for _ in range(6))
    fam = MubSet(p=2, n=11, stack=[m.rows for m in mats])
    report = verify_mu_numeric(fam, tol=1e-10)
    nullity = {(r, t): 11 - rank_mod_p((mats[t] - mats[r]).rows, 2)
               for r in range(len(mats)) for t in range(r + 1, len(mats))}
    assert nullity[0, 1] == 10 and nullity[2, 3] == 11
    assert abs(report.worst_deviation - (2**11 - 1) / 2**11) < 1e-12
    assert report.first_violation[:2] == (0, 1)
    assert abs(report.first_violation[4] - (2**10 - 1) / 2**11) < 1e-12
    assert verify_mu_condition(fam, pairwise=True).failing_pair == (0, 1)


def test_numeric_full_mode_dimension_guard():
    huge = MubSet(p=101, n=2, stack=[m.rows for m in (MatZp.zeros(101, 2),)])
    with pytest.raises(ValueError):
        verify_mu_numeric(huge)


def test_numeric_sampled_mode():
    fam = qubit_triple_family()
    a = verify_mu_numeric(fam, sample=400, seed=5)
    b = verify_mu_numeric(fam, sample=400, seed=5)
    assert a.ok
    assert a.worst_deviation == b.worst_deviation
    shifted = shift_set(fam, MatZp(2, [[1, 1, 0], [1, 0, 0], [0, 0, 1]]))
    assert verify_mu_numeric(shifted, sample=400).ok


def with_identical_members(fam):
    """The family with member 3 overwritten by member 2."""
    mats = list(fam.matrices)
    mats[3] = mats[2]
    return MubSet(p=fam.p, n=fam.n, stack=[m.rows for m in mats])


@pytest.mark.parametrize("kind", ["sound", "shifted", "identical"])
@pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (3, 3), (5, 2), (7, 2), (13, 1), (13, 2),
                                 (131, 2)])
def test_sampled_check_matches_brute(monkeypatch, p, n, kind):
    # (13,1) has no tail qupits, (2,5) splits into 3 + 2, and the tail
    # qupit of (131,2) takes the FFT; its few members keep the oracle fast
    fam = mub_set(p, n)
    if p == 131:
        fam = MubSet(p=p, n=n, stack=fam.stack[:6])
    if kind == "shifted":
        fam = shift_set(fam, random_adjacency(random.Random(p * n), p, n))
    elif kind == "identical":
        fam = with_identical_members(fam)
    comp = len(fam.matrices)
    draws = _sample_draws(fam, 300, seed=p + n)
    r, t, mr, ms = draws
    r[5], t[5] = comp, 1  # a computational-basis sample, both orders
    r[9], t[9] = 4, comp
    if kind == "identical":
        # overlap 0, then overlap 1 (the worst) ending the first chunk, then
        # overlap 0 in the second chunk
        for j, label in ((4, mr[4] + 1), (6, mr[6]), (11, mr[11] + 1)):
            r[j], t[j], ms[j] = 2 + j % 2, 3 - j % 2, label % fam.dim
    # seven draws per chunk (a draw counts p^h max(l, 1) entries for a head
    # of h = ceil(n/2) and a tail of l = floor(n/2) qupits), so the draws
    # span many chunks
    monkeypatch.setattr(states, "SAMPLE_CHUNK", 7 * p ** (n - n // 2) * max(n // 2, 1))
    fast = _verify_sampled(fam, 1e-10, draws)
    slow = numeric_sampled_brute(fam, draws, 1e-10)
    assert fast.ok == slow.ok == (kind != "identical")
    assert (fast.mode, fast.pairs_checked) == (slow.mode, slow.pairs_checked) == ("sampled(300)", 300)
    assert abs(fast.worst_deviation - slow.worst_deviation) < 1e-12
    if fast.ok:
        assert fast.first_violation is slow.first_violation is None
        return
    assert fast.first_violation[:4] == slow.first_violation[:4]
    assert abs(fast.first_violation[4] - slow.first_violation[4]) < 1e-12


@pytest.mark.parametrize("p,h,l", [(p, h, l) for p in (2, 3, 5, 13, 131)
                                   for h, l in ((1, 1), (2, 1), (3, 2), (5, 5), (6, 5))
                                   if p**h <= 20000])  # the oracle walks all p^h inputs
def test_frequencies_match_brute(p, h, l):
    # a chunk passes C as a view of its raw differences, in (-p, p), and
    # the tail labels whose digit differences k shift every frequency
    rng = np.random.default_rng(p * 100 + h * 10 + l)
    diff = rng.integers(-p + 1, p, size=(3, h + l, h + l))
    cross = diff[:, :h, h:]
    tail = _digits(p, l)
    lr = rng.integers(p**l, size=3)
    ls = (lr + rng.integers(1, p**l, size=3)) % p**l  # every offset nonzero
    for lr, ls in ((lr, lr), (lr, ls)):
        if p == 2:  # the (2^h, N) layout, returned transposed
            buffers = np.full((2**h, 3), -1, dtype=np.int64)
        else:  # odd p fills a caller's buffers, stale entries and all
            buffers = np.full((2, 3, p**h), 7.5), np.full((3, p**h), -1, dtype=np.int64)
        got = _frequencies(cross, lr, ls, p, buffers)
        assert np.shares_memory(got, buffers if p == 2 else buffers[1])
        assert np.array_equal(got, frequencies_brute(cross, p, tail[ls] - tail[lr]))


@pytest.mark.parametrize("n", [2, 4])
def test_sampled_check_on_one_member(n):
    # every draw pairs the one graph basis with the computational basis, so
    # no chunk holds a graph-graph draw
    fam = MubSet(p=2, n=n, stack=[np.zeros((n, n), dtype=np.int64)])
    draws = _sample_draws(fam, 50, seed=n)
    fast = _verify_sampled(fam, 1e-10, draws)
    slow = numeric_sampled_brute(fam, draws, 1e-10)
    assert fast.ok and slow.ok
    assert abs(fast.worst_deviation - slow.worst_deviation) < 1e-12
    assert verify_mu_numeric(fam, sample=50).ok


@pytest.mark.parametrize("kind", ["sound", "identical"])
@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
def test_sampled_check_one_draw_per_chunk(monkeypatch, p, n, kind):
    # many chunks hold only computational-basis draws, or only graph ones
    fam = mub_set(p, n)
    if kind == "identical":
        fam = with_identical_members(fam)
    draws = _sample_draws(fam, 200, seed=p * n)
    r, t, mr, ms = draws
    r[7], t[7], ms[7] = 2, 3, mr[7]  # overlap 1 when the members are identical
    monkeypatch.setattr(states, "SAMPLE_CHUNK", 1)
    fast = _verify_sampled(fam, 1e-10, draws)
    slow = numeric_sampled_brute(fam, draws, 1e-10)
    assert fast.ok == slow.ok == (kind == "sound")
    assert abs(fast.worst_deviation - slow.worst_deviation) < 1e-12
    if not fast.ok:
        assert fast.first_violation[:4] == slow.first_violation[:4]


def test_sampled_check_on_many_qubits_stays_small():
    # the X, Y and Z bases of 20 qubits: about 1000 graph draws of 2^10
    # head inputs each, over 16 MB an array if taken all at once, and about
    # 2000 computational draws
    n = 20
    fam = MubSet(p=2, n=n, stack=[np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)])
    verify_mu_numeric(fam, sample=50, seed=1)
    tracemalloc.start()
    try:
        report = verify_mu_numeric(fam, sample=3000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20
    assert report.ok and report.pairs_checked == 3000
    assert report.worst_deviation < 1e-12


def test_sampled_check_reads_draw_rows_from_the_stack():
    # each chunk gathers its draws' member rows: no copy of the family's
    # upper triangles (1.7 MB at n = 14 on the int8 stack) is made
    fam = mub_set(2, 14)
    verify_mu_numeric(fam, sample=50, seed=1)
    tracemalloc.start()
    try:
        report = verify_mu_numeric(fam, sample=2000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.worst_deviation < 1e-12
    assert fam.stack.dtype == np.int8
    assert peak < 1 << 20


def test_inexact_sizes_are_refused_before_allocating():
    # at p = 2^31 - 1 the phase exponents are past float64's exact
    # integers: both modes refuse the size before any table of p roots
    # (16 GiB) is built
    fam = MubSet(p=2**31 - 1, n=1, stack=[[[0]], [[1]]])
    tracemalloc.start()
    try:
        for sample in (None, 10):
            with pytest.raises(ValueError, match="float64"):
                verify_mu_numeric(fam, sample=sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sampled_draws_are_cross_basis_pairs():
    fam = mub_set(3, 2)
    r, t, mr, ms = _sample_draws(fam, 5000, seed=1)
    nb = len(fam.matrices) + 1
    assert (r != t).all()
    assert set(r.tolist()) == set(t.tolist()) == set(range(nb))
    assert mr.min() == ms.min() == 0 and mr.max() == ms.max() == fam.dim - 1
    assert all((a == b).all() for a, b in zip((r, t, mr, ms), _sample_draws(fam, 5000, seed=1)))


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 3)])
def test_sampled_deviations_match_state_overlaps(p, n):
    # beyond the sizes of the brute-force tests: every graph-basis draw's
    # deviation against the overlap of the two explicit basis elements; the
    # random members make biased pairs, whose overlaps depend on the labels
    fam = mub_set(p, n)
    shifted = shift_set(fam, random_adjacency(random.Random(7 * p + n), p, n))
    d = fam.dim
    for case in (fam, shifted, random_family(p, n, size=12)):
        comp = len(case.stack)
        draws = _sample_draws(case, 400, seed=p * n)
        graph = np.flatnonzero((draws[0] != comp) & (draws[1] != comp))[:200]
        assert len(graph) == 200
        for j in graph.tolist():
            r, t, mr, ms = (int(v[j]) for v in draws)
            one = tuple(v[j:j + 1] for v in draws)
            dev = _verify_sampled(case, 1e-10, one).worst_deviation
            labels = [np.unravel_index(v, (p,) * n) for v in (mr, ms)]
            exact = abs(np.vdot(basis_element(case.matrices[r], labels[0]),
                                basis_element(case.matrices[t], labels[1]))) ** 2 - 1 / d
            assert abs(dev - abs(exact)) < 1e-12


def test_sampled_check_on_large_qupits_stays_small():
    # one draw's exponents at all p^n = 4012009 inputs, or a dense p x p
    # table for the tail qupit, would take 64 MB
    p = 2003
    sound = MubSet(p=p, n=2, stack=[[[0, 0], [0, 0]], [[1, 1], [1, 0]]])
    same = MubSet(p=p, n=2, stack=[[[1, 1], [1, 0]], [[1, 1], [1, 0]]])
    # the first call builds the small digit and phase tables and imports
    # numpy.fft, whose module objects alone take about 0.8 MB
    verify_mu_numeric(sound, sample=200, seed=1)
    tracemalloc.start()
    try:
        good = verify_mu_numeric(sound, sample=200, seed=1)
        bad = verify_mu_numeric(same, sample=200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert good.ok and good.worst_deviation < 1e-12
    # two identical bases: overlap 0 or 1 instead of 1/d
    r, t, mr, ms, dev = bad.first_violation
    assert {r, t} == {0, 1}
    assert abs(dev - (1 - 1 / p**2 if mr == ms else 1 / p**2)) < 1e-12


@pytest.mark.parametrize("sample", [0, -3, True, 2.5])
def test_numeric_rejects_bad_sample(sample):
    # zero draws would pass two identical bases; the rest leaked numpy errors
    bad = with_identical_members(qubit_triple_family())
    with pytest.raises(ValueError, match="sample"):
        verify_mu_numeric(bad, sample=sample)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("sample", [None, 200])
def test_numeric_rejects_bad_tolerance(tol, sample):
    # every dev > nan is False, so a NaN tol would pass two identical bases
    bad = with_identical_members(qubit_triple_family())
    with pytest.raises(ValueError, match="tol"):
        verify_mu_numeric(bad, tol=tol, sample=sample)
    assert not verify_mu_numeric(bad, tol=1e-10, sample=sample).ok


# -- stabilizers ----------------------------------------------------------------


def test_stabilizer_plus_state_fixed_by_shift():
    a = MatZp.zeros(2, 3)
    assert stabilizer_check(a, (0, 0, 0))


def test_stabilizer_all_three_qubit_graphs():
    fam = qubit_triple_family()
    for m in fam.matrices:
        for label in product(range(2), repeat=3):
            assert stabilizer_check(m, label)


def test_stabilizer_three_qutrit_sample():
    fam = mub_set(3, 3, method="companion", poly=F27)
    rng = random.Random(331)
    for m in fam.matrices[::5]:
        for _ in range(5):
            label = tuple(rng.randrange(3) for _ in range(3))
            assert stabilizer_check(m, label)


def test_stabilizer_rejects_wrong_label():
    a = MatZp(2, [[1, 1], [1, 0]])
    psi_label = (0, 1)
    assert stabilizer_check(a, psi_label)
    # an eigenvalue claim with the wrong label must fail
    from graphmub.states import apply_shift_x, _digits, _roots

    assert not _mislabeled_ok(a, psi_label, (1, 1))


def _mislabeled_ok(a, true_label, claimed_label):
    """stabilizer_check against a vector carrying a different label."""
    import graphmub.states as st

    psi = st.basis_element(a, true_label)
    dig = st._digits(a.p, a.n)
    for i in range(1, a.n + 1):
        row = np.array(a.rows[i - 1], dtype=np.int64)
        phi = psi * st._roots(a.p)[(dig @ row) % a.p]
        phi = st.apply_shift_x(phi, a.p, a.n, i)
        if a.p == 2:
            phi = phi * st._roots(4)[a[i - 1, i - 1] % 4]
            lam = st._roots(2)[claimed_label[i - 1] % 2]
        else:
            lam = st._roots(a.p)[(-claimed_label[i - 1]) % a.p]
        if np.max(np.abs(phi - lam * psi)) > 1e-10:
            return False
    return True


# -- measurement circuits ----------------------------------------------------


def test_emit_circuit_fixture_three_qubits():
    fam = qubit_triple_family()
    c = emit_measurement_circuit(fam.matrices[2])  # Q itself
    assert c.gates == (
        Gate("CP", 1, j=2, power=1),
        Gate("CP", 2, j=3, power=1),
        Gate("P", 1, power=3),
        Gate("FDAG", 1),
        Gate("FDAG", 2),
        Gate("FDAG", 3),
    )


def test_emit_circuit_zero_matrix():
    c = emit_measurement_circuit(MatZp.zeros(3, 2))
    assert c.gates == (Gate("FDAG", 1), Gate("FDAG", 2))


def test_emit_circuit_single_qutrit():
    for r in range(1, 3):
        c = emit_measurement_circuit(MatZp(3, [[r]]))
        assert c.gates == (Gate("P", 1, power=3 - r), Gate("FDAG", 1))


def test_measurement_roundtrip():
    for p, n, kwargs in ((2, 3, {"d": (1, 0, 0)}), (3, 2, {})):
        fam = mub_set(p, n, **kwargs)
        for a in fam.matrices:
            circuit = emit_measurement_circuit(a)
            for label in product(range(p), repeat=n):
                probs = simulate_measurement(circuit, basis_element(a, label))
                assert abs(probs[state_index(label, p)] - 1) < 1e-10


def test_measurement_plus_state_on_trivial_circuit():
    c = emit_measurement_circuit(MatZp.zeros(2, 3))
    probs = simulate_measurement(c, plus_state(2, 3))
    assert abs(probs[0] - 1) < 1e-12


def test_measurement_computational_input_is_uniform():
    fam = qubit_triple_family()
    e0 = np.zeros(8, dtype=complex)
    e0[3] = 1.0
    for a in fam.matrices:
        probs = simulate_measurement(emit_measurement_circuit(a), e0)
        assert np.allclose(probs, 1 / 8, atol=1e-12)


def test_norm_preserved_by_gates():
    rng = random.Random(337)
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        amps = rng_state(rng, p**n)
        for step in range(5):
            kind = rng.choice(("P", "CP", "Z", "F", "FDAG"))
            i = rng.randrange(1, n + 1)
            if kind == "P":
                amps = apply_local_phase(amps, p, n, i, rng.randrange(1, p + 1))
            elif kind == "Z":
                amps = apply_pauli_z(amps, p, n, i, rng.randrange(1, p))
            elif kind == "F":
                amps = apply_fourier(amps, p, n, i)
            elif kind == "FDAG":
                amps = apply_fourier(amps, p, n, i, dagger=True)
            elif n > 1:
                j = rng.randrange(1, n + 1)
                while j == i:
                    j = rng.randrange(1, n + 1)
                amps = apply_controlled_phase(amps, p, n, i, j, rng.randrange(1, p))
            assert abs(np.linalg.norm(amps) - 1) < 1e-12


def rng_state(rng, d):
    v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)])
    return v / np.linalg.norm(v)


def test_fourier_inverse():
    rng = random.Random(347)
    for p in (2, 3, 5):
        amps = rng_state(rng, p**2)
        out = apply_fourier(apply_fourier(amps, p, 2, 1), p, 2, 1, dagger=True)
        assert np.allclose(out, amps, atol=1e-13)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fourier_matches_explicit_dft(p):
    # F = w_p^{jk} / sqrt(p) on qupit i, the identity on the others
    # (qupit 1 most significant); FDAG is its conjugate transpose
    n = 3 if p < 5 else 2
    amps = rng_state(random.Random(349 + p), p**n)
    j = np.arange(p)
    f = np.exp(2j * np.pi * np.outer(j, j) / p) / np.sqrt(p)
    for i in range(1, n + 1):
        full = np.kron(np.kron(np.eye(p ** (i - 1)), f), np.eye(p ** (n - i)))
        assert np.allclose(apply_fourier(amps, p, n, i), full @ amps, atol=1e-13)
        assert np.allclose(apply_fourier(amps, p, n, i, dagger=True),
                           full.conj().T @ amps, atol=1e-13)


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 4), (7, 3), (11, 3), (127, 1), (131, 1)])
def test_fourier_devs_match_kron_across_block_boundaries(p, n):
    # two blocks compose for the first five (4 + 4, 3 + 2, 2 + 2, 2 + 1
    # and 2 + 1 qupits); 127 is the largest dense block and 131 takes the
    # FFT
    d = p**n
    rng = np.random.default_rng(p * n)
    amps = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    j = np.arange(p)
    f = np.exp(2j * np.pi * np.outer(j, j) / p) / np.sqrt(p)
    full = functools.reduce(np.kron, [f] * n)
    exact = np.abs(np.abs(amps @ full.T) ** 2 - 1 / d)
    assert np.allclose(states._fourier_devs(amps, p, n), exact, rtol=0, atol=1e-14)
    # one 1-D row, as _pair_violation passes it
    row = states._fourier_devs(amps[1], p, n)
    assert row.shape == (1, d)
    assert np.allclose(row[0], exact[1], rtol=0, atol=1e-14)


def test_fourier_devs_on_a_large_qupit_stays_small():
    # a dense Fourier block would take 64 MB at p = 2003
    p = 2003
    amps = plus_state(p, 1)
    tracemalloc.start()
    try:
        devs = states._fourier_devs(amps, p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert abs(devs[0, 0] - (1 - 1 / p)) < 1e-12 and abs(devs[0, 1:] - 1 / p).max() < 1e-12


def test_fourier_on_a_large_qupit_stays_small():
    # a dense p x p matrix would take 64 MB at p = 2003
    p = 2003
    amps = plus_state(p, 1)
    tracemalloc.start()
    try:
        out = apply_fourier(amps, p, 1, 1, dagger=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert abs(out[0] - 1) < 1e-12 and np.abs(out[1:]).max() < 1e-12


# -- circuit text format -------------------------------------------------------


def test_circuit_text_exact_format():
    fam = qubit_triple_family()
    text = circuit_to_text(emit_measurement_circuit(fam.matrices[2]))
    assert text == (
        "#qupits 3 prime 2\n"
        "CP 1 2 1\n"
        "CP 2 3 1\n"
        "P 1 3\n"
        "FDAG 1\n"
        "FDAG 2\n"
        "FDAG 3\n"
    )


def test_circuit_text_roundtrip():
    rng = random.Random(353)
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        a = random_adjacency(rng, p, n)
        c = emit_measurement_circuit(a)
        assert circuit_from_text(circuit_to_text(c)) == c


def test_circuit_text_preserves_order_and_z_gates():
    c = Circuit(p=3, n=2, gates=(
        Gate("Z", 2, power=2),
        Gate("F", 1),
        Gate("CP", 1, j=2, power=1),
    ))
    assert circuit_from_text(circuit_to_text(c)) == c


def test_circuit_text_rejects_garbage():
    with pytest.raises(ValueError):
        circuit_from_text("CP 1 2 1\n")
    with pytest.raises(ValueError):
        circuit_from_text("#qupits 2 prime 2\nWAT 1\n")


def test_simulating_forward_fourier_and_z_gates():
    # F then FDAG cancels; a sandwiched Z shows up as a shifted outcome
    c = Circuit(p=3, n=1, gates=(Gate("F", 1), Gate("Z", 1, power=1),
                                 Gate("FDAG", 1)))
    e0 = np.zeros(3, dtype=complex)
    e0[0] = 1.0
    probs = simulate_measurement(c, e0)
    # FDAG Z F |0> = FDAG Z |+> = FDAG (omega-weighted plus) = |1>
    assert abs(probs[1] - 1) < 1e-12
    from graphmub.states import apply_gate

    with pytest.raises(ValueError):
        apply_gate(e0, 3, 1, Gate("NOPE", 1))


def test_numeric_sampled_detects_corruption():
    report = verify_mu_numeric(corrupted_qubit_triple(), tol=1e-10,
                               sample=2000, seed=11)
    assert not report.ok
