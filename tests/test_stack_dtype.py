"""The family stack on its narrowest signed dtype, checked at the primes
where that dtype widens: p = 61 (int8) and 67 (int16), p = 16381 (int16)
and 16411 (int32).  Each stack holds sums of two residues near 2p - 2
and differences near -(p - 1), so a dtype one step too narrow, or an
unsigned one, would wrap; every path is judged by `tests/oracles.py`."""

import json

import numpy as np
import pytest

from graphmub import mubs
from graphmub.linalg import MatZp, eliminate_stack
from graphmub.mubs import (
    MubSet,
    canonical_json,
    difference_rows,
    from_document,
    mub_set,
    read_document,
    shift_set,
    stack_document,
    verify_mu_condition,
)
from graphmub.states import _sample_draws, _verify_sampled, verify_mu_numeric
from oracles import (
    affine_brute,
    difference_rows_brute,
    field_brute,
    mu_condition_scalar,
    numeric_sampled_brute,
    numeric_worst_exact,
    rank_brute,
)

BOUNDARY = {(61, 2): np.int8, (67, 2): np.int16, (16381, 1): np.int16, (16411, 1): np.int32}


def _top_shift(p, n):
    """The symmetric all-(p - 1) matrix: shifting by it sends most entries
    of a field to sums in [p, 2p - 2] before they are reduced."""
    return MatZp(p, [[p - 1] * n for _ in range(n)])


def _pieces(p, n):
    """(field, shifted field, corrupted sample): the sample is 24 members
    of the shifted field, member 0 and the top members among them, with
    member 5 a copy of member 2, so its walk meets a singular class."""
    field = mub_set(p, n)
    shifted = shift_set(field, _top_shift(p, n))
    rng = np.random.default_rng(p)
    picks = np.concatenate([[0, p**n - 1, p**n - 2],
                            rng.choice(np.arange(1, p**n - 2), 21, replace=False)])
    sample = shifted.stack[picks].copy()
    sample[5] = sample[2]
    return field, shifted, MubSet(p=p, n=n, stack=sample)


@pytest.mark.parametrize("p,n", list(BOUNDARY))
def test_stack_dtype_at_the_widening_primes(p, n):
    field, shifted, corrupted = _pieces(p, n)
    for s in (field, shifted, corrupted):
        assert s.stack.dtype == BOUNDARY[p, n] == mubs.stack_dtype(p)
    assert np.iinfo(BOUNDARY[p, n]).min <= -2 * p
    # the shift reached past p before its reduction, and stayed in [0, p)
    assert int(shifted.stack.max()) == p - 1 and int(shifted.stack.min()) == 0
    expected = (field.stack.astype(np.int64) + p - 1) % p
    assert np.array_equal(shifted.stack, expected)


@pytest.mark.parametrize("p,n", list(BOUNDARY))
def test_field_and_shift_match_the_oracles(p, n):
    field, shifted, _ = _pieces(p, n)
    assert field.field_rep and field_brute(field)
    assert MubSet(p=p, n=n, stack=field.stack).field_rep  # proven from the stack
    assert not shifted.field_rep and not field_brute(shifted)
    assert shifted.affine and affine_brute(shifted.stack, p)
    assert verify_mu_condition(field) == mu_condition_scalar(field)
    for s in (field, shifted):
        report = verify_mu_condition(s, pairwise=True)
        assert report.ok and report.mode == "pairwise"
    # the shifted field's differences from member 0 are the field's members
    ranks = eliminate_stack(shifted.stack[1:] - shifted.stack[0], p)
    assert (ranks == n).all()


@pytest.mark.parametrize("p,n", list(BOUNDARY))
def test_corrupted_sample_matches_the_oracles(p, n):
    _, _, s = _pieces(p, n)
    stack = s.stack
    assert not s.field_rep and not s.affine and not affine_brute(stack, p)
    rows = list(difference_rows(stack, p))
    first = difference_rows_brute(stack, p)
    assert [(r, int(t)) for r, ts in rows for t in ts] == sorted(first.values())
    for r, ts in rows:
        diffs = stack[ts] - stack[r]  # on the stack's signed dtype
        assert diffs.dtype == stack.dtype
        assert eliminate_stack(diffs, p).tolist() == [
            rank_brute(((stack[t].astype(np.int64) - stack[r]) % p).tolist(), p) for t in ts]
    report = verify_mu_condition(s)
    assert report == mu_condition_scalar(s, pairwise=True)
    assert not report.ok and report.failing_pair == (2, 5)


@pytest.mark.parametrize("p,n", list(BOUNDARY))
def test_numeric_modes_match_the_oracles(p, n):
    field, _, corrupted = _pieces(p, n)
    sample = MubSet(p=p, n=n, stack=corrupted.stack[:12])
    for s in (sample, corrupted):
        draws = _sample_draws(s, 60, seed=p)
        r, t, mr, ms = draws
        r[0], t[0], ms[0] = 2, 5, mr[0]  # the copied member: overlap 1
        fast = _verify_sampled(s, 1e-10, draws)
        slow = numeric_sampled_brute(s, draws, 1e-10)
        assert not fast.ok and fast.first_violation[:4] == slow.first_violation[:4]
        assert abs(fast.worst_deviation - slow.worst_deviation) < 1e-9
    assert verify_mu_numeric(field, sample=200, seed=1).ok
    if p**n > 10**4:  # beyond the full sweep's cap
        with pytest.raises(ValueError, match="full-sweep cap"):
            verify_mu_numeric(sample)
        return
    full = verify_mu_numeric(sample)
    mu = verify_mu_condition(sample)
    assert not full.ok and full.first_violation[:2] == mu.failing_pair == (2, 5)
    assert abs(full.worst_deviation - numeric_worst_exact(sample)) < 1e-9


@pytest.mark.parametrize("p,n", list(BOUNDARY))
def test_documents_past_p_and_int64_load_narrow(p, n):
    field, shifted, corrupted = _pieces(p, n)
    for s in (field, shifted, corrupted):
        wide = s.stack.astype(np.int64) + 5 * p  # every entry >= p
        canonical = canonical_json({**stack_document(s), "matrices": wide}).encode()
        assert mubs._canonical_doc(canonical) is not None  # the fast path
        doc = json.loads(canonical)
        doc["matrices"][-1][0][0] += 7 * p * 2**64  # beyond int64
        doc["matrices"][1][0][0] -= 3 * p  # and below 0
        loaded = [read_document(canonical), from_document(doc),
                  read_document(json.dumps(doc).encode())]
        for got in loaded:
            assert got.stack.dtype == BOUNDARY[p, n]
            assert np.array_equal(got.stack, s.stack)
            assert got.field_rep == s.field_rep and got.affine == s.affine
    assert verify_mu_condition(loaded[0]) == verify_mu_condition(corrupted)


def test_signed_stack_keeps_odd_differences_that_unsigned_would_wrap():
    # over Z_3, 0 - 1 wraps to 255 in uint8, and 255 = 0 mod 3: the
    # invertible difference -1 = 2 would read as the singular 0
    assert (np.array([0], np.uint8) - np.array([1], np.uint8))[0] % 3 == 0
    s = MubSet(p=3, n=1, stack=np.array([[[0]], [[1]], [[2]]], dtype=np.uint8))
    assert s.stack.dtype == np.int8
    diffs = s.stack[[1, 2]] - s.stack[0]
    assert diffs.tolist() == [[[1]], [[2]]]
    assert (s.stack[0] - s.stack[[1, 2]]).tolist() == [[[-1]], [[-2]]]
    assert eliminate_stack(s.stack[0] - s.stack[[1, 2]], 3).tolist() == [1, 1]
    assert [(r, ts.tolist()) for r, ts in difference_rows(s.stack[::-1], 3)] == [(0, [1, 2])]
    assert verify_mu_condition(s, pairwise=True).ok
    assert verify_mu_numeric(s).ok
