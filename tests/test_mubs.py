import json
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from graphmub import mubs
from graphmub.cli import main
from graphmub.fields import PolyZp
from graphmub.linalg import MatZp
from graphmub.mubs import (
    MubSet,
    MuConditionReport,
    adjacency_set,
    canonical_json,
    difference_rows,
    from_document,
    fundamental_graphs,
    index_to_coeffs,
    mub_set,
    read_document,
    shift_set,
    stack_document,
    to_document,
    verify_mu_condition,
)
from graphmub.symrep import symmetric_representation, symmetrize_companion, tridiagonal_rep
from graphmub.states import verify_mu_numeric
from oracles import (
    canonical_json_brute,
    det_cofactor,
    difference_rows_brute,
    field_brute,
    mu_condition_scalar,
    numeric_sweep_brute,
    power_enumeration,
)

F27 = PolyZp(3, [1, 2, 1, 1])

Q23 = MatZp(2, [[1, 1, 0], [1, 0, 1], [0, 1, 0]])
Q23_SQ = MatZp(2, [[0, 1, 1], [1, 0, 0], [1, 0, 1]])


def qubit_triple_family():
    return mub_set(2, 3, method="tridiag", d=(1, 0, 0))


def qubit_triple_expected_set():
    eye = MatZp.identity(2, 3)
    zero = MatZp.zeros(2, 3)
    return {
        zero, eye, Q23, Q23_SQ,
        eye + Q23, eye + Q23_SQ, Q23 + Q23_SQ, eye + Q23 + Q23_SQ,
    }


def random_symmetric(rng, p, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(p)
    return MatZp(p, rows)


def test_index_conventions():
    assert index_to_coeffs(0, 3, 3) == (0, 0, 0)
    assert index_to_coeffs(1, 3, 3) == (1, 0, 0)
    assert index_to_coeffs(3, 3, 3) == (0, 1, 0)
    for idx in range(27):
        assert sum(a * 3**k for k, a in enumerate(index_to_coeffs(idx, 3, 3))) == idx


def test_family_basics():
    fam = qubit_triple_family()
    assert len(fam.matrices) == 8
    assert fam.matrices[0] == MatZp.zeros(2, 3)
    assert fam.matrices[1] == MatZp.identity(2, 3)
    assert all(m.is_symmetric for m in fam.matrices)
    assert fam.num_bases == 9


def test_three_qubit_family_matches_expected_set():
    assert set(qubit_triple_family().matrices) == qubit_triple_expected_set()


def test_single_vertex_family():
    fam = mub_set(3, 1)
    assert set(fam.matrices) == {MatZp(3, [[0]]), MatZp(3, [[1]]), MatZp(3, [[2]])}


def test_random_witness_family_size_and_symmetry():
    rng = random.Random(211)
    for p, n in ((2, 4), (3, 2), (5, 2), (7, 1)):
        rep = symmetric_representation(p, n)
        fam = adjacency_set(rep)
        assert len(set(fam.matrices)) == p**n
        assert all(m.is_symmetric for m in fam.matrices)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (3, 3), (2, 6)])
def test_closure_under_subtraction(p, n):
    fam = mub_set(p, n)
    members = set(fam.matrices)
    for a in fam.matrices:
        for b in fam.matrices:
            assert a - b in members


def test_fundamental_graphs_fixtures():
    rep = tridiagonal_rep(2, (1, 0, 0))
    fg = fundamental_graphs(rep)
    assert fg == [MatZp.identity(2, 3), Q23, Q23_SQ]

    rep27 = symmetrize_companion(F27)
    fg27 = fundamental_graphs(rep27)
    assert fg27[0] == MatZp.identity(3, 3)
    assert fg27[1] == rep27.q
    assert fg27[2] == MatZp(3, [[2, 2, 1], [2, 1, 1], [1, 1, 0]])

    rep1 = symmetric_representation(5, 1)
    assert fundamental_graphs(rep1) == [MatZp(5, [[1]])]


def test_every_member_is_combination_of_fundamental_graphs():
    # adjacency_set fills its stack from int64 powers of Q; the reference
    # adds scaled MatZp powers one member at a time
    families = [qubit_triple_family()] + [
        mub_set(p, n, method=method) for p, n, method in (
            (2, 5, "auto"), (3, 3, "companion"), (5, 2, "auto"),
            (7, 2, "companion"), (2, 1, "auto"), (2, 8, "auto"),
            (101, 2, "auto"), (9973, 1, "auto"))]
    for fam in families:
        fg = fundamental_graphs(fam.witness)
        for idx, m in enumerate(fam.matrices):
            acc = MatZp.zeros(fam.p, fam.n)
            for a, g in zip(fam.coeff_vector(idx), fg):
                if a:
                    acc = acc + g.scale(a)
            assert acc == m


@pytest.mark.parametrize("p,n", [(2, 12), (3, 7), (9973, 1)])
def test_field_fills_one_stack(p, n):
    # the family table is written in place: no second table of its size,
    # not even the multiples j Q^k, j < p, which at n = 1 are the stack.
    # One untraced call first: the allocations a first call makes (caches
    # filled once per process) would otherwise dominate the small n = 1 peak
    q = symmetric_representation(p, n).q
    mubs._field(q)
    tracemalloc.start()
    try:
        stack = mubs._field(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.shape == (p**n, n, n)
    assert peak <= 1.5 * stack.nbytes


@pytest.mark.parametrize("p,n", [(2, 14), (3, 9)])
def test_field_rep_proves_a_stack_without_a_second_stack(p, n):
    # a stack passed in is checked against the recurrence of Z_p[Q] in
    # blocks, not against a rebuilt copy of itself
    stack = mub_set(p, n).stack
    edited = stack.copy()
    edited[-1] = edited[-2]
    for s, verdict in ((stack, True), (edited, False)):
        fam = MubSet(p=p, n=n, stack=s)
        tracemalloc.start()
        try:
            assert fam.field_rep is verdict
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * stack.nbytes


def test_affine_keys_stay_on_the_stack_dtype():
    # the duplicate test keys each row by its own bytes on the int8
    # stack: no int64 copy of the upper triangles is made
    s = shift_set(mub_set(2, 14), MatZp.identity(2, 14))
    upper = mubs._upper(s.stack).nbytes
    tracemalloc.start()
    try:
        assert s.affine
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * upper


@pytest.mark.parametrize("p,n,kwargs", [
    (2, 3, {"d": (1, 0, 0)}),
    (3, 2, {}),
    (3, 3, {"method": "companion", "poly": F27}),
    (2, 6, {}),
    (3, 5, {"d": (2, 1, 2, 0, 1)}),  # five-qutrit primitive seed
])
def test_power_enumeration_matches_combinations(p, n, kwargs):
    # for a primitive f the powers of Q and zero are the whole family
    rep = symmetric_representation(p, n, primitive=True, **kwargs) \
        if "poly" not in kwargs else symmetrize_companion(kwargs["poly"])
    assert rep.f.is_primitive()
    fam_lin = adjacency_set(rep)
    assert power_enumeration(rep.q) == set(fam_lin.matrices)
    assert len(set(fam_lin.matrices)) == p**n


def test_power_enumeration_rejects_nonprimitive():
    # d = (1, 2) over Z_3 has characteristic polynomial x^2 + 1: irreducible,
    # order of x is 4 != 8, so not primitive, and the powers of Q reach only
    # 4 of the 8 nonzero members
    rep = tridiagonal_rep(3, (1, 2))
    assert rep.f == PolyZp(3, [1, 0, 1]) and not rep.f.is_primitive()
    powers = power_enumeration(rep.q)
    assert len(powers) == 5 and powers < set(adjacency_set(rep).matrices)


def test_verify_condition_passes_closure_and_pairwise():
    fam = qubit_triple_family()
    assert verify_mu_condition(fam).mode == "closure"
    assert verify_mu_condition(fam).ok
    full = verify_mu_condition(fam, pairwise=True)
    assert full.mode == "pairwise" and full.ok


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2), (7, 3)])
def test_verify_condition_exhaustive_pairwise(p, n):
    assert verify_mu_condition(mub_set(p, n), pairwise=True).ok


def test_verify_condition_reports_first_failing_pair():
    bad = MubSet(
        p=2, n=2,
        stack=[m.rows for m in (MatZp.zeros(2, 2), MatZp(2, [[1, 0], [0, 0]]))],
    )
    report = verify_mu_condition(bad)
    assert not report.ok
    assert report.failing_pair == (0, 1)


def test_unproven_family_fails_pairwise():
    # members 1 and 2 differ by the singular all-ones matrix; no flag can
    # send this family to closure mode any more
    with pytest.raises(TypeError):
        MubSet(p=2, n=2, stack=[[[0, 0], [0, 0]]], field_rep=True)
    bad = MubSet(p=2, n=2, stack=[[[0, 0], [0, 0]], [[1, 0], [0, 1]],
                                  [[0, 1], [1, 0]], [[1, 1], [1, 0]]])
    assert not bad.field_rep
    with pytest.raises(AttributeError):  # frozen: the proof cannot be overwritten
        bad.field_rep = True
    report = verify_mu_condition(bad)
    assert report == mu_condition_scalar(bad, pairwise=True)
    assert not report.ok and report.mode == "pairwise" and report.failing_pair == (1, 2)


def _span_of(basis, p, n):
    """The p^n combinations sum_k a_k basis[k] in index order."""
    out = []
    for i in range(p**n):
        acc = MatZp.zeros(p, n)
        for a, b in zip(index_to_coeffs(i, p, n), basis):
            acc = acc + b.scale(a)
        out.append(acc)
    return MubSet(p=p, n=n, stack=[m.rows for m in out])


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_non_field_spans_are_checked_pairwise(p, n):
    q = mub_set(p, n).witness.q
    # the powers of diag(1, 0, ..., 0), whose characteristic polynomial
    # x^(n-1) (x - 1) is reducible: a ring with zero divisors
    e = MatZp(p, [[int(i == j == 0) for j in range(n)] for i in range(n)])
    reducible = _span_of([e**k for k in range(n)], p, n)
    # Q, ..., Q^n: the field Z_p[Q] again, but not in the order of the
    # powers of one member, so nothing proves it
    rotated = _span_of([q ** (k + 1) for k in range(n)], p, n)
    for s, ok in ((reducible, False), (rotated, True)):
        assert not s.field_rep and not field_brute(s)
        report = verify_mu_condition(s)
        assert report == mu_condition_scalar(s, pairwise=True)
        assert report.mode == "pairwise" and report.ok == ok


def test_field_family_passes_closure_without_a_determinant(monkeypatch):
    calls = []
    eliminate = mubs.eliminate_stack
    monkeypatch.setattr(mubs, "eliminate_stack",
                        lambda stack, p: calls.append(len(stack)) or eliminate(stack, p))
    for p, n in ((2, 1), (2, 3), (2, 8), (3, 5), (7, 3), (13, 2)):
        fam = from_document(to_document(mub_set(p, n)))
        calls.clear()
        assert verify_mu_condition(fam) == MuConditionReport(True, "closure", None)
        assert fam.field_rep and not calls
    assert verify_mu_condition(fam, pairwise=True).ok and calls


def test_pairwise_check_takes_one_determinant_per_difference(monkeypatch):
    # a nonzero shift hides the field, so the pairwise check runs; its
    # differences are the p^n - 1 nonzero members of the field, and each
    # takes one determinant however many pairs share it (square calls
    # only: the affine check's rank is one call on an (N, n(n+1)/2) block)
    rows = []
    eliminate = mubs.eliminate_stack

    def counting(stack, p):
        if stack.shape[1] == stack.shape[2]:
            rows.append(len(stack))
        return eliminate(stack, p)

    monkeypatch.setattr(mubs, "eliminate_stack", counting)
    for p, n in ((2, 5), (3, 3), (5, 2)):
        fam = shift_set(mub_set(p, n), MatZp.identity(p, n))
        rows.clear()
        assert verify_mu_condition(fam) == MuConditionReport(True, "pairwise", None)
        assert not fam.field_rep and sum(rows) == p**n - 1


def _difference_stacks():
    """(p, stack) cases: duplicated members, repeated differences, two-word
    keys, the largest admitted prime, a field with one member edited (one
    new class per row), 40 random members (mostly new classes), no member
    and one member."""
    rng = np.random.default_rng(31)

    def symmetric(p, n, count):
        a = rng.integers(p, size=(count, n, n))
        return np.triu(a) + np.triu(a, 1).transpose(0, 2, 1)

    dup = mub_set(3, 2).stack.copy()
    dup[[4, 7, 8]] = dup[[1, 1, 0]]
    shifted = shift_set(mub_set(2, 3), MatZp(2, symmetric(2, 3, 1)[0].tolist())).stack
    # n = 11 has 66 key digits, two words: members 0 and 1 differ only in
    # digit 65, members 2 and 3 not at all
    wide = symmetric(2, 11, 8)
    wide[1], wide[3] = wide[0], wide[2]
    wide[1, 10, 10] ^= 1
    big = 2**31 - 1
    x, y = symmetric(big, 3, 2)
    progression = np.array([(x + c * y) % big for c in (0, 1, 2, 3, big - 1, big - 2, 1)])
    edited = mub_set(2, 5).stack.copy()
    edited[20, 0, 0] ^= 1
    return [(3, dup), (2, shifted), (2, wide), (big, progression),
            (big, np.vstack([progression, symmetric(big, 3, 3)])),
            (2, edited), (2, symmetric(2, 4, 40)), (5, symmetric(5, 3, 0)),
            (5, symmetric(5, 3, 1))]


@pytest.mark.parametrize("case", range(9))
def test_difference_rows_match_brute_force(case):
    p, stack = _difference_stacks()[case]
    rows = list(difference_rows(stack, p))
    first = difference_rows_brute(stack, p)
    # each class exactly once, at its least pair in row-major order, so
    # the ts of a row ascend and only rows that meet a new class come
    assert [(r, int(t)) for r, ts in rows for t in ts] == sorted(first.values())
    assert [r for r, _ in rows] == sorted({r for r, _ in first.values()})
    assert len(stack) < 3 or len(first) < len(stack) * (len(stack) - 1) // 2


@pytest.mark.parametrize("case", [5, 6])
def test_walk_reports_match_brute_force(case):
    # non-affine stacks with several failing classes: the first failing
    # representative is the first failing pair of a scan over all pairs
    p, stack = _difference_stacks()[case]
    s = MubSet(p=p, n=stack.shape[1], stack=stack)
    failing = {d for d, (r, t) in difference_rows_brute(stack, p).items()
               if det_cofactor((s.matrices[t] - s.matrices[r]).to_lists(), p) == 0}
    assert not s.affine and len(failing) > 1
    assert verify_mu_condition(s) == mu_condition_scalar(s, pairwise=True)
    assert verify_mu_numeric(s).first_violation[:2] == \
        numeric_sweep_brute(s).first_violation[:2]


def _corrupt(fam, rng, copies):
    """fam with `copies` members overwritten by other members (so some pair
    has a zero difference, and the field proof fails)."""
    mats = list(fam.matrices)
    for _ in range(copies):
        i, j = rng.sample(range(len(mats)), 2)
        mats[i] = mats[j]
    return MubSet(p=fam.p, n=fam.n, stack=[m.rows for m in mats])


@pytest.mark.parametrize("p,n", [(2, 3), (2, 5), (3, 2), (3, 3), (5, 2), (13, 1)])
def test_stacked_mu_condition_matches_scalar_loop(p, n):
    rng = random.Random(227 + p * 10 + n)
    fam = mub_set(p, n)
    shifted = shift_set(fam, random_symmetric(rng, p, n))
    families = [fam, shifted]
    for copies in (1, 1, 2, 3):
        families += [_corrupt(fam, rng, copies), _corrupt(shifted, rng, copies)]
    # two singular members, and a truncated family
    mats = list(fam.matrices)
    mats[len(mats) // 2] = mats[-1] = MatZp.zeros(p, n)
    families.append(MubSet(p=p, n=n, stack=[m.rows for m in mats]))
    families.append(replace(shifted, stack=shifted.stack[: p**n // 2 + 1]))
    failures = 0
    for s in families:
        for pairwise in (False, True):
            report = verify_mu_condition(s, pairwise=pairwise)
            assert report == mu_condition_scalar(s, pairwise=pairwise)
            failures += not report.ok
    assert failures >= 10


def test_shift_preserves_condition():
    rng = random.Random(223)
    for p, n in ((2, 3), (3, 2), (5, 2)):
        fam = mub_set(p, n)
        for _ in range(20):
            m = random_symmetric(rng, p, n)
            shifted = shift_set(fam, m)
            assert not shifted.field_rep
            assert verify_mu_condition(shifted).ok


def test_shift_fixture_and_inverse():
    fam = qubit_triple_family()
    m = MatZp(2, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    shifted = shift_set(fam, m)
    assert shifted.matrices[0] == m
    assert shifted.shifts == (m,)
    zero_shift = shift_set(fam, MatZp.zeros(2, 3))
    assert zero_shift.matrices == fam.matrices
    # adding m then (p-1) m restores every matrix
    restored = shift_set(shifted, m)  # p = 2: m + m = 0
    assert restored.matrices == fam.matrices


def test_shift_rejects_nonsymmetric():
    fam = qubit_triple_family()
    with pytest.raises(ValueError):
        shift_set(fam, MatZp(2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


def test_stack_is_the_stored_family():
    fam = qubit_triple_family()
    assert fam.stack.dtype == np.int8 and fam.stack.shape == (8, 3, 3)
    with pytest.raises(ValueError):
        fam.stack[0, 0, 0] = 1  # read-only
    assert fam.matrices == tuple(MatZp(2, rows) for rows in fam.stack.tolist())
    assert fam.matrices is fam.matrices  # built once, on first use
    # entries of any size and sign are reduced before they are narrowed
    raw = MubSet(p=3, n=2, stack=[[[4, -1], [2, 3 * 2**70]]])
    assert raw.stack.tolist() == [[[1, 2], [2, 0]]]
    # int64 beside uint64 entries, which numpy takes as float64
    raw = MubSet(p=3, n=2, stack=[[[1, 2**63], [2**63, 0]]])
    assert raw.stack.tolist() == [[[1, 2], [2, 0]]]
    for bad in ([[[0, 1], [0, 0]]], [[[0]]], [[0, 0], [0, 0]], [], [[[0, 0], [0]]]):
        with pytest.raises(ValueError):
            MubSet(p=2, n=2, stack=bad)
    for shift in (MatZp(2, [[0, 1], [0, 0]]), MatZp(2, [[1]]), MatZp(3, [[0, 0], [0, 0]])):
        with pytest.raises(ValueError):
            MubSet(p=2, n=2, stack=[[[0, 0], [0, 0]]], shifts=(shift,))


@pytest.mark.parametrize("entry", [0.5, 1.7, float("nan"), 1.0, 1 + 0j, True, False, "1"])
@pytest.mark.parametrize("container", ["array", "nested", "mixed", "tuple"])
def test_non_integer_stack_entries_are_refused(entry, container):
    # a stack of float, complex, bool or str entries is no stack: refused,
    # not truncated or cast (NaN read 0, 1.7 read 1), as documents refuse
    # them; so is one such entry among ints, in nested lists or tuples,
    # which numpy would read as an int (True as 1) or as a float
    rows = [[entry] * 2] * 2
    stack = {"array": np.array([rows]), "nested": [rows], "mixed": [[[entry, 0], [0, 1]]],
             "tuple": (((1, entry), (entry, 0)),)}[container]
    with pytest.raises(ValueError, match="integers"):
        MubSet(p=2, n=2, stack=stack)


def test_stack_is_not_shared_with_a_callers_array():
    # a caller's array, or a read-only view of it, is copied: a later write
    # to the array leaves the family (and its cached properties) as built
    base = qubit_triple_family().stack.copy()
    view = base[:]
    view.setflags(write=False)
    for given in (base, view):
        fam = MubSet(p=2, n=3, stack=given)
        assert not np.shares_memory(fam.stack, base)
        before = fam.stack.copy()
        base[1] ^= 1
        assert np.array_equal(fam.stack, before)
    # a read-only array that owns its memory (the document reader's) is kept
    owned = qubit_triple_family().stack.copy()
    owned.setflags(write=False)
    assert MubSet(p=2, n=3, stack=owned).stack is owned


def test_family_sizes_examples():
    assert mub_set(2, 3).num_bases == 9
    assert mub_set(3, 3).num_bases == 28
    assert mub_set(2, 1).num_bases == 3


# -- interchange format ------------------------------------------------------


def test_document_roundtrip_identity():
    fam = qubit_triple_family()
    doc = to_document(fam)
    text = canonical_json(doc)
    back = from_document(json.loads(text))
    assert back.matrices == fam.matrices
    assert back.p == fam.p and back.n == fam.n
    assert back.field_rep
    assert canonical_json(to_document(back)) == text


def test_document_roundtrip_shifted():
    fam = qubit_triple_family()
    m = MatZp(2, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    shifted = shift_set(fam, m)
    back = from_document(json.loads(canonical_json(to_document(shifted))))
    assert back.matrices == shifted.matrices
    assert not back.field_rep
    assert back.shifts == (m,)


def _same_bytes(s):
    """The stack encoder and the list-form oracle write the same bytes."""
    doc = stack_document(s)
    assert doc["matrices"] is s.stack
    assert canonical_json(doc) == canonical_json_brute(to_document(s))


@pytest.mark.parametrize("p,n", [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 6)]
                         + [(5, 3), (7, 3), (11, 2), (13, 2), (97, 2), (101, 2), (9973, 1)])
def test_stack_encoder_writes_the_json_dumps_bytes(p, n):
    # 100 of (101,2) has an inner zero; 9973 has four digits
    fam = mub_set(p, n)
    _same_bytes(fam)
    _same_bytes(shift_set(fam, random_symmetric(random.Random(p * n), p, n)))


def test_stack_encoder_edge_stacks(monkeypatch):
    rng = random.Random(5)
    one = MubSet(p=9973, n=3, stack=[random_symmetric(rng, 9973, 3).to_lists()])
    _same_bytes(one)
    _same_bytes(MubSet(p=2, n=4, stack=np.zeros((16, 4, 4), dtype=np.int64)))
    _same_bytes(MubSet(p=7, n=1, stack=np.zeros((0, 1, 1), dtype=np.int64)))
    # blocks of 1 to 3 members whose digit widths differ from block to block
    mixed = np.array([[[v, 1], [1, 0]] for v in (0, 7, 10, 99, 100, 1000, 9972, 5)])
    for block in (4, 9, 12):
        monkeypatch.setattr(mubs, "STACK_BLOCK", block)
        _same_bytes(MubSet(p=9973, n=2, stack=mixed))
        _same_bytes(shift_set(mub_set(3, 3), MatZp.identity(3, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        canonical_json({"matrices": -np.ones((1, 2, 2), dtype=np.int64)})


def test_canonical_json_joins_sorted_keys():
    doc = {"z": [1, {"b": 2, "a": None}], "a": "\u00e9", "m": np.eye(2, dtype=np.int64)[None],
           "f": 1.5, "t": True}
    lists = dict(doc, m=doc["m"].tolist())
    assert canonical_json(doc) == canonical_json_brute(lists) == canonical_json(lists)
    assert canonical_json({}) == "{}\n"
    # nested dicts are joined key by key, empty ones included
    nested = {"r": {"b": {"y": [1, "\u00e9"], "x": {}}, "a": [], "\"q": None}, "e": {}}
    assert canonical_json(nested) == canonical_json_brute(nested)


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 3), (5, 2), (13, 1)])
def test_field_proof_accepts_only_the_powers_of_an_irreducible_seed(p, n):
    rng = random.Random(229 + p * 10 + n)
    fam = mub_set(p, n)
    m = random_symmetric(rng, p, n)
    mats = list(fam.matrices)
    swapped = mats[:]
    swapped[1], swapped[-1] = swapped[-1], swapped[1]
    edited = mats[:]
    edited[-1] = edited[-1] + MatZp.identity(p, n)
    q = mats[p] if n > 1 else MatZp(p, [[2]])
    cases = {"sound": mats, "swapped": swapped, "edited": edited,
             "nonzero-first": [MatZp.identity(p, n)] + mats[1:],
             "shifted": list(shift_set(fam, m).matrices),
             "truncated": mats[:-1], "reversed": mats[::-1],
             # the index-ordered span of Q, ..., Q^n: not the powers of
             # member p, though for a field it holds the same members
             "non-power-span": list(_span_of([q ** (k + 1) for k in range(n)], p, n).matrices)}
    verdicts = {}
    for name, ms in cases.items():
        s = replace(fam, stack=[m.rows for m in ms])
        # the document's claim is ignored in both directions
        for claim in (True, False):
            assert from_document(dict(to_document(s), field_rep=claim)).field_rep == s.field_rep
        verdicts[name] = s.field_rep
        assert verdicts[name] == field_brute(s), name
    assert verdicts["sound"]
    assert not any(v for k, v in verdicts.items() if k != "sound")


def test_document_validation():
    with pytest.raises(ValueError):
        from_document({"p": 4, "n": 1, "matrices": [[[0]]]})
    with pytest.raises(ValueError):
        from_document({"p": 2, "n": 2, "matrices": [[[0, 1], [0, 0]]]})
    with pytest.raises(ValueError):
        from_document({"p": 2, "n": 2, "matrices": []})
    with pytest.raises(ValueError):
        from_document({"p": 2, "n": 3, "matrices": [[[0, 0], [0, 0]]]})
    # an integer array is taken as decoded; any other array is no list
    assert from_document({"p": 2, "n": 1, "matrices": np.array([[[3]]], np.uint8)}).stack.tolist() \
        == [[[1]]]
    with pytest.raises(ValueError, match="matrices: expected a list"):
        from_document({"p": 2, "n": 1, "matrices": np.array([[[1.5]]])})


# -- reading canonical documents ---------------------------------------------


def _judged(raw: bytes):
    """What loading the bytes gives, as a comparable value: the family's
    fields and stack, or the exception's type and message."""
    def outcome(load):
        try:
            s = load(raw)
        except (ValueError, KeyError, RecursionError) as exc:
            return type(exc).__name__, str(exc)
        assert s.stack.dtype == mubs.stack_dtype(s.p)
        return (s.p, s.n, s.method, s.polynomial, s.d, s.shifts, s.stack.shape,
                s.stack.tobytes())
    return outcome(read_document), outcome(lambda b: from_document(json.loads(b.decode())))


def _reads_like_json(s):
    """The canonical bytes of s take the fast path, read back as
    json.loads + from_document reads them, and write back the same bytes."""
    raw = canonical_json(stack_document(s)).encode()
    assert mubs._canonical_doc(raw) is not None
    new, judge = _judged(raw)
    assert new == judge
    assert canonical_json(stack_document(read_document(raw))).encode() == raw


@pytest.mark.parametrize("p,n", [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 6)]
                         + [(5, 3), (7, 3), (11, 2), (13, 2), (97, 2), (101, 2), (9973, 1)])
def test_read_document_equals_json_loads(p, n):
    fam = mub_set(p, n)
    _reads_like_json(fam)
    shifted = shift_set(fam, random_symmetric(random.Random(p * n), p, n))
    assert shifted.shifts and (shifted.d is not None or p > 2)
    _reads_like_json(shifted)


def test_read_document_edge_stacks(monkeypatch):
    rng = random.Random(7)
    _reads_like_json(MubSet(p=9973, n=3, stack=[random_symmetric(rng, 9973, 3).to_lists()]))
    _reads_like_json(MubSet(p=5, n=1, stack=[[[4]]]))
    mixed = np.array([[[v, 1], [1, 0]] for v in (0, 7, 10, 99, 100, 1000, 9972, 5)])
    # blocks cut after 1 to 3 members, with digit widths that differ by block
    for block in (1, 9, 24, 40):
        monkeypatch.setattr(mubs, "STACK_BLOCK", block)
        _reads_like_json(MubSet(p=9973, n=2, stack=mixed))
        _reads_like_json(shift_set(mub_set(3, 3), MatZp.identity(3, 3)))
        _reads_like_json(mub_set(2, 1))


def _canonical_bytes(p, n, shift=None):
    fam = mub_set(p, n)
    if shift is not None:
        fam = shift_set(fam, shift)
    return canonical_json(stack_document(fam)).encode()


SMALL_DOCS = {"2-2": lambda: _canonical_bytes(2, 2), "2-3": lambda: _canonical_bytes(2, 3),
              "3-2": lambda: _canonical_bytes(3, 2),
              "shifted-2-2": lambda: _canonical_bytes(2, 2, MatZp(2, [[1, 1], [1, 0]]))}
BYTE_CLASSES = [b"7", b"0", b"[", b"]", b",", b"-", b".", b"e", b" ", b"a", b'"', b"\xe9"]


@pytest.mark.parametrize("name", sorted(SMALL_DOCS))
def test_one_byte_mutations_read_as_json_loads(name, tmp_path):
    raw = SMALL_DOCS[name]()
    assert b'"d":' in raw and (b'"shifts":' in raw) == name.startswith("shifted")
    path, fast, verdicts = tmp_path / "doc.json", 0, {}
    for i in range(len(raw)):
        # every byte class in place of byte i, and a 0 inserted before it
        # (a leading zero wherever byte i starts a number)
        for new in [raw[:i] + b + raw[i + 1:] for b in BYTE_CLASSES] + [raw[:i] + b"0" + raw[i:]]:
            fast += mubs._canonical_doc(new) is not None
            got, judge = _judged(new)
            assert got == judge, (i, new)
            family = judge[:2] + judge[6:]  # p, n, shape, stack: what verify reads
            if isinstance(judge[0], int) and family not in verdicts:
                # a new family: verify exits as the brute-force oracle says
                fam = from_document(json.loads(new.decode()))
                verdicts[family] = len(fam.stack) == fam.dim \
                    and mu_condition_scalar(fam, pairwise=True).ok
                path.write_bytes(new)
                assert main(["verify", str(path)]) == (0 if verdicts[family] else 1), (i, new)
    # the edited digits, at least, are read on the fast path
    assert fast > len(raw) // 4 and len(verdicts) > 5


def _edited(raw: bytes, old: bytes, new: bytes) -> bytes:
    assert raw.count(old) >= 1
    return raw.replace(old, new, 1)


def _falls_back(raw: bytes):
    assert mubs._canonical_doc(raw) is None
    got, judge = _judged(raw)
    assert got == judge
    return got


def test_documents_the_fast_path_hands_to_json_loads():
    raw = _canonical_bytes(2, 2)
    tail = b',"method"'
    # a second matrices key, under either spelling: json.loads keeps the last
    for key in (b'"matrices"', b'"matr\\u0069ces"'):
        got = _falls_back(_edited(raw, tail, b"," + key + b":[[[1,0],[0,1]]]" + tail))
        assert got[6] == (1, 2, 2)
    # "matrices": inside a string before the key; after it, the key was found
    _falls_back(b'{"a":"\\"matrices\\":[[[0]]]",' + raw[1:])
    text = _edited(raw, b'"method":"tridiagonal"', b'"method":"\\"matrices\\":[[[1]]]"')
    assert mubs._canonical_doc(text) is not None
    got, judge = _judged(text)
    assert got == judge and got[2] == '"matrices":[[[1]]]'
    # a leading zero and an empty number
    assert _falls_back(_edited(raw, b"[[[0,", b"[[[01,"))[0] == "JSONDecodeError"
    assert _falls_back(_edited(raw, b"[[[0,", b"[[[,"))[0] == "JSONDecodeError"
    # the matrices key out of canonical order, and a space
    _falls_back(_edited(raw, b'{"d":[0,1],', b'{"p":2,"d":[0,1],'))
    _falls_back(_edited(raw, b"[[[0,", b"[[[0, "))


@pytest.mark.parametrize("entry,fast", [(b"100000000000000002", True),  # 18 digits
                                        (b"1000000000000000002", False),  # 19 digits
                                        (b"18446744073709551618", False)])  # beyond int64
def test_long_entries_load_reduced(entry, fast):
    # each entry is even, so member 0 stays the zero matrix mod 2
    raw = _canonical_bytes(2, 2)
    text = _edited(raw, b"[[[0,0],[0,0]]", b"[[[" + entry + b",0],[0,0]]")
    assert (mubs._canonical_doc(text) is not None) == fast
    got, judge = _judged(text)
    assert got == judge
    assert np.array_equal(read_document(text).stack, read_document(raw).stack)


@pytest.mark.parametrize("method", ["auto", "tridiag", "companion"])
def test_mub_set_bounds_family_size(method):
    with pytest.raises(ValueError, match="family size"):
        mub_set(2147483647, 1, method=method)
