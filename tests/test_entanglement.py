import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

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
from oracles import (
    analysis_report_brute,
    classify_by_bipartitions,
    rank_brute,
    rank_gf2_basis,
)

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


@pytest.mark.parametrize("n", range(1, 18))
def test_cut_arrays_are_all_bipartitions_in_order(n):
    # X sides from combinations with vertex 1 fixed, Y their complements,
    # the keys as Bipartition.key writes them, and the bytes order of the
    # keys is their str order ("1,10|..." before "1,2|...")
    expected = [Bipartition(x=(1,) + rest, y=tuple(v for v in range(2, n + 1) if v not in rest))
                for size in range(n - 1) for rest in combinations(range(2, n + 1), size)]
    cuts = entanglement._all_cuts(n)
    assert [xs.shape[1] for xs, _ in cuts] == list(range(1, n))
    assert [(tuple(x), tuple(y)) for xs, ys in cuts
            for x, y in zip(xs.tolist(), ys.tolist())] == [(b.x, b.y) for b in expected]
    assert all_bipartitions(n) == expected
    keys = entanglement._keys(n, cuts)
    assert [key.decode() for key in keys.tolist()] == [b.key() for b in expected]
    ordered = [key.decode() for key in np.unique(keys).tolist()]
    assert ordered == sorted(b.key() for b in expected)
    if n >= 10:
        assert ordered.index(Bipartition.of((1, 10), n).key()) < ordered.index(
            Bipartition.of((1, 2), n).key())
    if n == 1:
        s = mub_set(2, 1)
        assert analysis_report(s)["bipartitions"] == {}
        text = "".join(entanglement.analysis_parts(s))
        assert text.startswith('{"bipartitions":{},') and text == canonical_json(analysis_report(s))


def test_connectivity_rank_fixtures():
    b = Bipartition.of((1,), 3)
    assert connectivity_rank(MatZp.zeros(5, 3), b) == 0
    q = MatZp(2, [[1, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert connectivity_rank(q, b) == 1


def test_connectivity_rank_of_non_symmetric_matrices():
    # the rank of A[X, Y] itself, not of A[Y, X]: a route that packs
    # columns where it should pack rows (or the reverse) is caught here
    rng = random.Random(3003)
    for _ in range(300):
        p, n = rng.choice((2, 3, 5)), rng.randrange(2, 9)
        a = MatZp(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        b = Bipartition.of(rng.sample(range(1, n + 1), rng.randrange(1, n)), n)
        rank = rank_brute([[a[i - 1, j - 1] for j in b.y] for i in b.x], p)
        assert connectivity_rank(a, b) == rank, (a, b)
        assert reduced_purity(a, b) == Fraction(1, p**rank)
        # X and Y swapped: the same c, the other orientation, in one table
        swapped = Bipartition.of(b.y, n)
        table = entanglement._rank_table(np.array([a.rows]), p, entanglement._sides([b, swapped]))
        assert table[:, 0].tolist() == [rank, rank_brute(
            [[a[i - 1, j - 1] for j in b.x] for i in b.y], p)], (a, b)
    # stacks of non-symmetric members at cuts of both orientations of
    # each c, one table for all, against an elimination of each A[X, Y]
    for p, n in ((2, 7), (2, 8), (3, 6), (5, 5)):
        stack = np.array([[[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                          for _ in range(40)])
        bips = [Bipartition.of(x, n) for size in range(1, n)
                for x in rng.sample(list(combinations(range(1, n + 1), size)), 2)]
        rng.shuffle(bips)
        table = entanglement._rank_table(stack, p, entanglement._sides(bips))
        assert np.array_equal(table, per_cut_ranks(stack, p, bips)), (p, n)
        assert not np.array_equal(table, per_cut_ranks(stack.transpose(0, 2, 1), p, bips))


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


def graphs_of_every_kind(rng, p, n, randoms):
    """Reduced symmetric members on n vertices: empty, a star, complete, a
    path, two components (vertex 1 in the first), an isolated last
    vertex, and random graphs; edges of any nonzero weight, diagonals
    uniform."""
    def graph(edges):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randrange(p)
        for i, j in edges:
            rows[i][j] = rows[j][i] = rng.randrange(1, p)
        return MatZp(p, rows)
    hub = rng.randrange(n)
    half = rng.randrange(2, n - 1)
    graphs = [graph([]),
              graph([(hub, v) for v in range(n) if v != hub]),
              graph(list(combinations(range(n), 2))),
              graph([(v, v + 1) for v in range(n - 1)]),
              graph([(v, v + 1) for v in range(n - 1) if v != half - 1]),
              graph([(rng.randrange(v), v) for v in range(1, n - 1)])]
    return graphs + [random_symmetric(rng, p, n, rng.choice((0.05, 0.2, 0.5)))
                     for _ in range(randoms)]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [8, 9, 16, 17])
def test_labels_at_packed_word_widths(p, n):
    # a row of neighbours is one word of 8 bits (n = 8), 16 (n = 9 and
    # 16) or 32 (n = 17): each width at its edges, against the scan of
    # every cut, members of every kind in one stack
    rng = random.Random(100 * n + p)
    graphs = graphs_of_every_kind(rng, p, n, 12 if n < 16 else 1)
    labels = entanglement._labels(np.array([a.rows for a in graphs]), p)
    assert labels == [classify_by_bipartitions(a) for a in graphs]
    kinds = {FULLY_SEPARABLE, BISEPARABLE, GENUINELY_MULTIPARTITE}
    kinds |= {GHZ_TYPE} if p == 2 else set()
    assert set(labels) == kinds


def test_labels_past_one_word():
    # n > 64 takes ceil(n / 64) uint64 words per row; labels known by
    # construction (a path is connected, neither a star nor complete)
    for n in (65, 70, 130):
        rng = random.Random(n)
        graphs = graphs_of_every_kind(rng, 2, n, 0)
        assert entanglement._labels(np.array([a.rows for a in graphs]), 2) == [
            FULLY_SEPARABLE, GHZ_TYPE, GHZ_TYPE, GENUINELY_MULTIPARTITE, BISEPARABLE, BISEPARABLE]


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


@pytest.mark.parametrize("p, n", [(2, 1), (2, 3), (2, 6), (3, 3), (5, 2), (7, 3)])
def test_analysis_parts_are_the_report_bytes(monkeypatch, p, n):
    # blocks of one row, of a few rows ending inside the cuts, and the default
    fam = mub_set(p, n)
    shifted = shift_set(fam, random_shift(p, n, 3 * p + n))
    partial = MubSet(p=p, n=n, stack=shifted.stack[::2])
    empty = MubSet(p=p, n=n, stack=fam.stack[:0])
    picked = random_cuts(random.Random(n), n, 6) if n > 1 else []
    for block in (1, 3 * p**n + 1, entanglement.REPORT_BLOCK):
        monkeypatch.setattr(entanglement, "REPORT_BLOCK", block)
        for s in (fam, shifted, partial, empty):
            for bips in (None, picked, []):
                expected = canonical_json(analysis_report(s, bips))
                assert "".join(entanglement.analysis_parts(s, bips)) == expected, (s, bips)


@pytest.mark.parametrize("p, n, purity", [(5, 10, "1/3125"), (3, 12, "1/729"),
                                          (2, 20, "1/1024")])
def test_analysis_parts_write_wide_codes(p, n, purity):
    # X = {1, ..., n/2} crosses a full-rank block, so with its "," the
    # purity code takes 8 or 9 bytes ('"1/3125"'); beside a zero member
    # the codes of one row differ in width, and the keys hold two-digit
    # vertices; the oracle writes the same report
    h = n // 2
    full = np.zeros((n, n), dtype=np.int64)
    full[:h, h:] = np.diag(1 + np.arange(h) % (p - 1))
    full[h:, :h] = full[:h, h:].T
    x = tuple(range(1, h + 1))
    cut = [Bipartition.of(x, n)]
    for stack in ([full], [full, np.zeros_like(full)]):
        s = MubSet(p=p, n=n, stack=np.array(stack))
        report = analysis_report(s, cut)
        assert report["bipartitions"][cut[0].key()]["purities"][0] == purity
        expected = canonical_json(report)
        assert "".join(entanglement.analysis_parts(s, cut)) == expected
        assert expected == canonical_json(analysis_report_brute(s, [x]))


def test_analysis_parts_refuse_before_the_first_piece():
    one = MubSet(p=2, n=30, stack=np.zeros((1, 30, 30), dtype=np.int64))
    with pytest.raises(ValueError, match="ALL_CUTS_LIMIT"):
        entanglement.analysis_parts(one)
    with pytest.raises(ValueError, match="bipartition size does not match"):
        entanglement.analysis_parts(one, [Bipartition.of((1,), 4)])


def test_all_cuts_over_the_limit_are_refused_before_any_is_built(monkeypatch):
    def no_cuts(n):
        raise AssertionError("_all_cuts ran")

    monkeypatch.setattr(entanglement, "_all_cuts", no_cuts)
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
    monkeypatch.setattr(entanglement, "_all_cuts", lambda n: [])
    s = MubSet(p=2, n=n, stack=np.zeros((members, n, n), dtype=np.int64))
    assert ALL_CUTS_LIMIT == 2**23
    if admitted:
        assert analysis_report(s)["census"] == {FULLY_SEPARABLE: members}
    else:
        with pytest.raises(ValueError, match="ALL_CUTS_LIMIT"):
            analysis_report(s)


def crossing(m, b):
    """The X rows and Y columns of an (n, n) matrix, or of every member of
    an (N, n, n) stack."""
    return m[..., [v - 1 for v in b.x], :][..., [v - 1 for v in b.y]]


def per_cut_ranks(stack, p, bips):
    """The rank table cut by cut: one stacked elimination of each cut's
    crossing blocks."""
    return np.array([eliminate_stack(crossing(stack, b), p).tolist()
                     for b in bips], dtype=np.int64).reshape(len(bips), len(stack))


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (2, 8), (2, 9), (2, 10), (3, 5), (5, 4)])
def test_rank_table_equals_a_per_cut_elimination(p, n):
    fam = mub_set(p, n)
    shifted = shift_set(fam, random_shift(p, n, 7 * p + n))
    bips = all_bipartitions(n)
    for s in (fam, shifted):
        table = entanglement._rank_table(s.stack, p, entanglement._all_cuts(n))
        assert table.dtype == np.uint8 and table.shape == (len(bips), p**n)
        assert np.array_equal(table, per_cut_ranks(s.stack, p, bips))
    # cuts of mixed |X| in any order land in their own rows
    picked = random.Random(p + n).sample(bips, min(9, len(bips)))
    assert np.array_equal(entanglement._rank_table(shifted.stack, p, entanglement._sides(picked)),
                          per_cut_ranks(shifted.stack, p, picked))


def random_cuts(rng, n, count):
    """count cuts of every size, X drawn anywhere in [1, n] (vertex 1 on
    either side), shuffled, with one cut repeated."""
    cuts = [Bipartition.of(rng.sample(range(1, n + 1), rng.randrange(1, n)), n)
            for _ in range(count)]
    cuts.append(cuts[0])
    rng.shuffle(cuts)
    return cuts


def test_rank_table_p2_unreduced_random_stack():
    # symmetric members with entries of any sign and size: only their
    # parities count, at every cut and at picked cuts of mixed sizes
    rng = random.Random(2211)
    rows = [random_symmetric(rng, 2, 7, rng.choice((0.2, 0.5, 0.8))).rows for _ in range(150)]
    stack = np.array(rows, dtype=np.int64)
    stack += 2 * np.random.default_rng(2211).integers(-5, 6, stack.shape)
    stack[:, np.arange(7), np.arange(7)] -= 4  # negative diagonals too
    assert stack.min() < 0 and stack.max() > 1
    for bips in (all_bipartitions(7), random_cuts(rng, 7, 30)):
        table = entanglement._rank_table(stack, 2, entanglement._sides(bips))
        assert np.array_equal(table, per_cut_ranks(stack, 2, bips))
        assert table[:, 3].tolist() == [rank_gf2_basis(crossing(stack[3], b))
                                        for b in bips]


@pytest.mark.parametrize("p, n", [(2, 6), (2, 9), (3, 4)])
def test_rank_table_at_picked_cuts_of_mixed_sizes(p, n):
    fam = shift_set(mub_set(p, n), random_shift(p, n, 5 * p + n))
    bips = random_cuts(random.Random(p * n), n, 25)
    assert np.array_equal(entanglement._rank_table(fam.stack, p, entanglement._sides(bips)),
                          per_cut_ranks(fam.stack, p, bips))


def test_rank_table_p2_crossings_wider_than_kernel_bits():
    # 10 or 11 columns, or n > 64, are eliminated; 9 columns are counted
    rng = random.Random(4242)
    for n, sizes in ((21, (9, 10, 11, 12)), (70, (1, 2))):
        a = random_symmetric(rng, 2, n, 0.3)
        stack = np.array([a.rows], dtype=np.int64)
        bips = [Bipartition.of(rng.sample(range(1, n + 1), size), n)
                for size in sizes for _ in range(3)]
        table = entanglement._rank_table(stack, 2, entanglement._sides(bips))
        expected = [rank_gf2_basis(crossing(stack[0], b)) for b in bips]
        assert table[:, 0].tolist() == expected
    assert entanglement.KERNEL_BITS == 9


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
    table = entanglement._rank_table(stack, 2, entanglement._sides(bips))
    assert table.shape == (120, 1)
    expected = [rank_gf2_basis(crossing(stack[0], b)) for b in bips]
    assert table[:, 0].tolist() == expected
    assert np.array_equal(table, per_cut_ranks(stack, 2, bips))
    assert len(set(expected[40:])) >= 3  # the two-word cuts reach several ranks


def test_rank_table_makes_one_elimination_per_gather_block(monkeypatch):
    # (3,5): 243 members; a block of 100 entries holds 100 // (|X| |Y|)
    # (cut, member) pairs, so blocks end inside cuts and inside members.
    # The cuts whose smaller side has c vertices share their blocks: |X| = 1
    # with |X| = 4, and |X| = 2 with |X| = 3
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
        sizes = Counter(min(len(b.x), len(b.y)) for b in bips)
        blocks = sum(-(-cuts * 243 // max(1, gather // (c * (5 - c))))
                     for c, cuts in sizes.items())
        assert len(calls) == blocks
        assert all(r * c * (count - 1) < gather for count, r, c in calls)
        assert {(r, c) for _, r, c in calls} == {(4, 1), (3, 2)}  # taken tall
    assert blocks == len(sizes) == 2  # every c of (3,5) fits one default block


def test_rank_table_memory_at_2_11():
    # the table (1023 cuts x 2048 members, one byte a rank: 2 MiB) plus a
    # few gather blocks
    s = mub_set(2, 11)
    cuts = entanglement._all_cuts(11)
    tracemalloc.start()
    try:
        table = entanglement._rank_table(s.stack, 2, cuts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 1023 * 2048 * 1
    assert peak <= table.nbytes + 2 * 2**20, peak - table.nbytes


def test_a_bipartition_of_the_wrong_n_is_refused():
    fam = qubit_triple_family()
    wrong = Bipartition.of((1,), 4)
    with pytest.raises(ValueError, match="bipartition size does not match"):
        entanglement._rank_table(fam.stack, 2,
                                 entanglement._sides([Bipartition.of((1,), 3), wrong]))
    for call in (lambda: connectivity_rank(fam.matrices[0], wrong),
                 lambda: design_purity_check(fam, wrong),
                 lambda: analysis_report(fam, [wrong])):
        with pytest.raises(ValueError, match="bipartition size does not match"):
            call()
