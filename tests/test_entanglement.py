import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from graphmub import entanglement
from graphmub.entanglement import (
    ALL_CUTS_LIMIT,
    BISEPARABLE,
    FULLY_SEPARABLE,
    GENUINELY_MULTIPARTITE,
    GHZ_TYPE,
    Bipartition,
    all_bipartitions,
    analysis_report,
    census,
    classify_basis,
    connectivity_rank,
    design_purity_check,
    numeric_purity,
    reduced_purity,
)
from graphmub.fields import PolyZp
from graphmub.linalg import MatZp, eliminate_stack
from graphmub.mubs import MubSet, canonical_json, mub_set, shift_set
from oracles import analysis_report_brute, classify_by_bipartitions, rank_gf2_basis

F27 = PolyZp(3, [1, 2, 1, 1])


def qubit_triple_family():
    return mub_set(2, 3, method="tridiag", d=(1, 0, 0))


def shifted_qubit_triple_family():
    return shift_set(qubit_triple_family(), MatZp(2, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]))


def test_bipartition_validation():
    b = Bipartition.of((1, 3), 4)
    assert b.x == (1, 3) and b.y == (2, 4)
    assert b.key() == "1,3|2,4"
    with pytest.raises(ValueError):
        Bipartition.of((), 3)
    with pytest.raises(ValueError):
        Bipartition.of((1, 2, 3), 3)
    with pytest.raises(ValueError):
        Bipartition.of((0,), 3)


def test_all_bipartitions_count():
    for n in range(2, 7):
        bips = all_bipartitions(n)
        assert len(bips) == 2 ** (n - 1) - 1
        assert all(1 in b.x for b in bips)


def test_connectivity_rank_fixtures():
    b = Bipartition.of((1,), 3)
    assert connectivity_rank(MatZp.zeros(5, 3), b) == 0
    q = MatZp(2, [[1, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert connectivity_rank(q, b) == 1


def test_six_of_eight_connected_at_first_vertex():
    fam = qubit_triple_family()
    b = Bipartition.of((1,), 3)
    ranks = [connectivity_rank(a, b) for a in fam.matrices]
    assert sorted(ranks) == [0, 0, 1, 1, 1, 1, 1, 1]


def test_purity_fixtures():
    b = Bipartition.of((1,), 3)
    assert reduced_purity(MatZp.zeros(2, 3), b) == Fraction(1)
    q = MatZp(2, [[1, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert reduced_purity(q, b) == Fraction(1, 2)
    edge = MatZp(3, [[0, 1], [1, 0]])
    assert reduced_purity(edge, Bipartition.of((1,), 2)) == Fraction(1, 3)


def test_purity_matches_dense_partial_trace():
    fam2 = qubit_triple_family()
    fam3 = mub_set(3, 3, method="companion", poly=F27)
    for fam in (fam2, fam3):
        for a in fam.matrices:
            for b in all_bipartitions(fam.n):
                exact = float(reduced_purity(a, b))
                assert abs(exact - numeric_purity(a, b)) < 1e-10


def test_design_identity_three_qubits_six_ninths():
    check = design_purity_check(qubit_triple_family(), Bipartition.of((1,), 3))
    assert check.passed
    assert check.lhs == Fraction(6, 9)
    assert check.rhs == Fraction(2 + 4, 2 * 4 + 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_design_identity_tripartite_general(p):
    fam = mub_set(p, 3)
    for b in all_bipartitions(3):
        check = design_purity_check(fam, b)
        assert check.passed
        assert check.lhs == Fraction(p + p**2, p**3 + 1)


def test_design_identity_shifted_family():
    for b in all_bipartitions(3):
        assert design_purity_check(shifted_qubit_triple_family(), b).passed


def test_design_identity_rejects_incomplete():
    fam = qubit_triple_family()
    partial = type(fam)(p=2, n=3, stack=fam.stack[:4])
    with pytest.raises(ValueError):
        design_purity_check(partial, Bipartition.of((1,), 3))


def test_classify_fixtures():
    assert classify_basis(MatZp.zeros(2, 3)) == FULLY_SEPARABLE
    assert classify_basis(MatZp.identity(5, 4)) == FULLY_SEPARABLE
    assert classify_basis(MatZp.identity(3, 3).scale(2)) == FULLY_SEPARABLE
    star = MatZp(2, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    assert classify_basis(star) == GHZ_TYPE
    complete = MatZp(2, [[0, 1, 1], [1, 1, 1], [1, 1, 0]])
    assert classify_basis(complete) == GHZ_TYPE
    dangling = MatZp(2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert classify_basis(dangling) == BISEPARABLE
    qutrit_connected = MatZp(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert classify_basis(qutrit_connected) == GENUINELY_MULTIPARTITE


def test_classify_four_qubit_path_is_not_ghz():
    path = MatZp(2, [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    assert classify_basis(path) == GENUINELY_MULTIPARTITE


def test_classify_ignores_self_loops():
    rng = random.Random(401)
    for _ in range(30):
        p = rng.choice((2, 3))
        n = rng.randrange(2, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randrange(p)
        base = MatZp(p, rows)
        for i in range(n):
            rows[i][i] = rng.randrange(p)
        dressed = MatZp(p, rows)
        assert classify_basis(base) == classify_basis(dressed)


def random_symmetric(rng, p, n, density):
    """Symmetric matrix whose off-diagonal entries are nonzero with the
    given probability; the diagonal is uniform."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randrange(p)
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = rng.randrange(1, p)
    return MatZp(p, rows)


@pytest.mark.parametrize("p, n", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 3)])
def test_classify_matches_bipartition_scan_on_families(p, n):
    fam = mub_set(p, n)
    shifted = shift_set(fam, random_symmetric(random.Random(10 * p + n), p, n, 0.5))
    for a in fam.matrices + shifted.matrices:
        assert classify_basis(a) == classify_by_bipartitions(a), a


def test_classify_matches_bipartition_scan_on_random_graphs():
    rng = random.Random(2024)
    seen = Counter()
    groups = {}
    for _ in range(1500):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 7)
        a = random_symmetric(rng, p, n, rng.choice((0.1, 0.25, 0.5, 0.9)))
        label = classify_basis(a)
        assert label == classify_by_bipartitions(a), a
        seen[label] += 1
        groups.setdefault((p, n), []).append(a)
    # the sample reaches every label, disconnected graphs included
    assert min(seen[lab] for lab in (FULLY_SEPARABLE, BISEPARABLE, GHZ_TYPE,
                                     GENUINELY_MULTIPARTITE)) >= 50
    # one stacked call per (p, n), labels in member order: a one-graph call
    # cannot catch labels mixed across members
    assert all((p, 1) in groups for p in (2, 3, 5))
    stacks = [(p, n, group) for (p, n), group in groups.items()]
    stacks += [(2, 4, []), (3, 1, [MatZp(3, [[v]]) for v in (0, 1, 2, 2, 0)])]
    for p, n, group in stacks:
        rows = np.array([a.rows for a in group], dtype=np.int64).reshape(-1, n, n)
        s = MubSet(p=p, n=n, stack=rows)
        expected = [classify_by_bipartitions(a) for a in group]
        assert analysis_report(s, [])["labels"] == expected, (p, n)
        assert census(s) == dict(Counter(expected)), (p, n)


def test_census_three_qubits():
    fam = qubit_triple_family()
    assert census(fam) == {FULLY_SEPARABLE: 2, GHZ_TYPE: 6}
    assert census(fam, include_computational=True) == {
        FULLY_SEPARABLE: 3, GHZ_TYPE: 6,
    }


def test_census_three_qutrits():
    fam = mub_set(3, 3, method="companion", poly=F27)
    assert census(fam) == {FULLY_SEPARABLE: 3, GENUINELY_MULTIPARTITE: 24}


def test_census_shifted_three_qubits():
    assert census(shifted_qubit_triple_family()) == {BISEPARABLE: 6, GHZ_TYPE: 2}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tripartite_structure_theorem(p):
    fam = mub_set(p, 3)
    labels = [classify_basis(a) for a in fam.matrices]
    assert labels.count(FULLY_SEPARABLE) == p
    entangled = [
        lab for lab in labels if lab in (GHZ_TYPE, GENUINELY_MULTIPARTITE)
    ]
    assert len(entangled) == p**3 - p
    assert BISEPARABLE not in labels


def test_analysis_report_structure():
    fam = qubit_triple_family()
    report = analysis_report(fam)
    assert report["p"] == 2 and report["n"] == 3
    assert len(report["labels"]) == 8
    assert report["computational_basis"] == FULLY_SEPARABLE
    entry = report["bipartitions"]["1|2,3"]
    assert entry["ranks"] == [connectivity_rank(a, Bipartition.of((1,), 3))
                              for a in fam.matrices]
    assert entry["design_pass"] is True
    assert entry["design_lhs"] == entry["design_rhs"] == "2/3"
    assert set(report["bipartitions"]) == {"1|2,3", "1,2|3", "1,3|2"}


def test_analysis_report_single_bipartition():
    fam = qubit_triple_family()
    report = analysis_report(fam, [Bipartition.of((2,), 3)])
    assert list(report["bipartitions"]) == ["2|1,3"]


def random_shift(p, n, seed):
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(p)
    return MatZp(p, rows)


@pytest.mark.parametrize("p, n", [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
                                  (3, 3), (3, 4), (5, 3), (7, 2)])
def test_analysis_report_matches_member_by_member_oracle(p, n):
    # the rank histogram, the per-rank purity strings and the p = 2 kernel
    # against rank_brute, one Fraction and one string per member
    fam = mub_set(p, n)
    shifted = shift_set(fam, random_shift(p, n, 10 * p + n))
    truncated = type(fam)(p=p, n=n, stack=shifted.stack[1:])
    for s in (fam, shifted, truncated):
        report = analysis_report(s)
        assert canonical_json(report) == canonical_json(analysis_report_brute(s))
    assert all(set(entry) == {"ranks", "purities"}
               for entry in report["bipartitions"].values())
    x = (1, 3) if n > 2 else (2,)
    single = analysis_report(shifted, [Bipartition.of(x, n)])
    assert canonical_json(single) == canonical_json(analysis_report_brute(shifted, [x]))
    assert len(single["bipartitions"]) == 1


def test_all_cuts_over_the_limit_are_refused_before_any_is_built(monkeypatch):
    def no_cuts(n):
        raise AssertionError("all_bipartitions ran")

    monkeypatch.setattr(entanglement, "all_bipartitions", no_cuts)
    one = MubSet(p=2, n=30, stack=np.zeros((1, 30, 30), dtype=np.int64))
    with pytest.raises(ValueError, match="ALL_CUTS_LIMIT"):
        analysis_report(one)
    single = analysis_report(one, [Bipartition.of((1,), 30)])
    assert single["labels"] == [FULLY_SEPARABLE]
    assert single["bipartitions"]["1|" + ",".join(map(str, range(2, 31)))]["ranks"] == [0]


@pytest.mark.parametrize("members, n, admitted", [(1, 17, True), (1, 18, False),
                                                  (4096, 12, True), (8192, 13, False)])
def test_all_cuts_limit_admits_2_12_and_one_member_n_17(monkeypatch, members, n, admitted):
    # (2^(n-1) - 1) x max(members, 2^7) against 2^23; no cut is built here
    monkeypatch.setattr(entanglement, "all_bipartitions", lambda n: [])
    s = MubSet(p=2, n=n, stack=np.zeros((members, n, n), dtype=np.int64))
    assert ALL_CUTS_LIMIT == 2**23
    if admitted:
        assert analysis_report(s)["census"] == {FULLY_SEPARABLE: members}
    else:
        with pytest.raises(ValueError, match="ALL_CUTS_LIMIT"):
            analysis_report(s)


def per_cut_ranks(stack, p, bips):
    """The rank table cut by cut: one stacked elimination of each cut's
    crossing blocks."""
    return np.array([eliminate_stack(entanglement._crossing(stack, b), p).tolist()
                     for b in bips], dtype=np.int64).reshape(len(bips), len(stack))


@pytest.mark.parametrize("p, n", [(2, 8), (2, 9), (3, 5), (5, 4)])
def test_rank_table_equals_a_per_cut_elimination(p, n):
    fam = mub_set(p, n)
    shifted = shift_set(fam, random_shift(p, n, 7 * p + n))
    bips = all_bipartitions(n)
    for s in (fam, shifted):
        table = entanglement._rank_table(s.stack, p, bips)
        assert table.dtype == np.int64 and table.shape == (len(bips), p**n)
        assert np.array_equal(table, per_cut_ranks(s.stack, p, bips))
    # cuts of mixed |X| in any order land in their own rows
    picked = random.Random(p + n).sample(bips, min(9, len(bips)))
    assert np.array_equal(entanglement._rank_table(shifted.stack, p, picked),
                          per_cut_ranks(shifted.stack, p, picked))


def test_rank_table_one_member_n17_at_two_word_cuts():
    # at |X| = 8 or 9 the crossing is 9 x 8, so 8 rows share a word and
    # the ninth takes a second one; |X| = 1 is one 16-bit column.  Each
    # rank against the XOR-basis oracle, on a sparse unreduced member
    rng = random.Random(1717)
    a = random_symmetric(rng, 2, 17, 0.15)
    stack = np.array([a.rows], dtype=np.int64)
    stack += 2 * np.random.default_rng(1717).integers(-3, 4, stack.shape)
    bips = [Bipartition.of(rng.sample(range(1, 18), size), 17)
            for size in (1, 8, 9) for _ in range(40)]
    table = entanglement._rank_table(stack, 2, bips)
    assert table.shape == (120, 1)
    expected = [rank_gf2_basis(entanglement._crossing(stack[0], b)) for b in bips]
    assert table[:, 0].tolist() == expected
    assert np.array_equal(table, per_cut_ranks(stack, 2, bips))
    assert len(set(expected[40:])) >= 3  # the two-word cuts reach several ranks


def test_rank_table_makes_one_elimination_per_gather_block(monkeypatch):
    # (3,5): 243 members; a block of 100 entries holds 100 // (|X| |Y|)
    # (cut, member) pairs, so blocks end inside cuts and inside members
    fam = shift_set(mub_set(3, 5), random_shift(3, 5, 35))
    bips = all_bipartitions(5)
    expected = per_cut_ranks(fam.stack, 3, bips)
    calls = []

    def counting(block, p):
        calls.append(block.shape)
        return eliminate_stack(block, p)

    monkeypatch.setattr(entanglement, "eliminate_stack", counting)
    for gather in (100, entanglement.GATHER_BLOCK):
        monkeypatch.setattr(entanglement, "GATHER_BLOCK", gather)
        calls.clear()
        report = analysis_report(fam)
        table = np.array([entry["ranks"] for entry in report["bipartitions"].values()])
        assert np.array_equal(table, expected)
        sizes = Counter(len(b.x) for b in bips)
        blocks = sum(-(-cuts * 243 // max(1, gather // (x * (5 - x))))
                     for x, cuts in sizes.items())
        assert len(calls) == blocks
        assert all(r * c * (count - 1) < gather for count, r, c in calls)
    assert blocks == len(sizes)  # every |X| of (3,5) fits one default block


def test_rank_table_memory_at_2_11():
    # the table (1023 cuts x 2048 members, 16 MiB) plus a few gather blocks
    s = mub_set(2, 11)
    bips = all_bipartitions(11)
    tracemalloc.start()
    try:
        table = entanglement._rank_table(s.stack, 2, bips)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 1023 * 2048 * 8
    assert peak <= table.nbytes + 2 * 2**20, peak - table.nbytes


def test_a_bipartition_of_the_wrong_n_is_refused():
    fam = qubit_triple_family()
    wrong = Bipartition.of((1,), 4)
    with pytest.raises(ValueError, match="bipartition size does not match"):
        entanglement._rank_table(fam.stack, 2, [Bipartition.of((1,), 3), wrong])
    for call in (lambda: connectivity_rank(fam.matrices[0], wrong),
                 lambda: design_purity_check(fam, wrong),
                 lambda: analysis_report(fam, [wrong])):
        with pytest.raises(ValueError, match="bipartition size does not match"):
            call()
