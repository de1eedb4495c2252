"""Affine stacks, fields and shifted fields: row 0 decides both
unbiasedness checks.

`MubSet.affine` is cross-checked against the field oracle of the stack
less member 0, and `field_rep` against the field oracle of the stack.
On every stack of the grid both checks must report exactly what the
walk over all pairs reports when the affine route is switched off: a
field in another order, or a coset of another subspace, takes the walk.
"""

import random

import numpy as np
import pytest

from graphmub import mubs, states
from graphmub.mubs import MubSet, mub_set, verify_mu_condition
from graphmub.states import verify_mu_numeric
from oracles import field_brute


def _symmetric(rng, p, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(p)
    return np.array(rows, dtype=np.int64)


def _shift(rng, p, n):
    """A random symmetric n x n matrix over Z_p other than zero."""
    while True:
        m = _symmetric(rng, p, n)
        if m.any():
            return m


def _unit(n, i):
    e = np.zeros((n, n), dtype=np.int64)
    e[i, i] = 1
    return e


def _span(gens, p, shift):
    """shift + sum_k a_k gens[k] over all digit vectors a, a_0 fastest."""
    acc = np.zeros((1,) + gens[0].shape, dtype=np.int64)
    for g in gens:
        acc = (acc[None] + np.arange(p)[:, None, None, None] * g).reshape(-1, *g.shape)
    return (acc + shift) % p


def _grid():
    """name -> (p, stack, affine)."""
    rng = random.Random(12)
    f24, f33, f52 = mub_set(2, 4).stack, mub_set(3, 3).stack, mub_set(5, 2).stack
    edited, duplicated = f33.copy(), f24.copy()
    edited[5] = (edited[5] + _unit(3, 0)) % 3
    duplicated[9] = duplicated[3]
    grid = {
        "field-2,4": (2, f24, True),
        "field-5,2": (5, f52, True),
        "shifted-field-3,3": (3, f33 + _symmetric(rng, 3, 3), True),
        # the field in another order, and the cosets of other subspaces
        # below, are no shifted field in index order: they take the walk
        "permuted-field-2,4": (2, f24[rng.sample(range(16), 16)], False),
        "edited-member-3,3": (3, edited, False),
        "duplicated-member-2,4": (2, duplicated, False),
        "truncated-field-5,2": (5, f52[:7], False),
        # span{I, Q}: p^2 of the p^3 members
        "shifted-subspace-3,3": (3, f33[:9] + _symmetric(rng, 3, 3), False),
        # span{I, E_00}: member 3 = E_00 + shift, so the pair (0, 3) is singular
        "singular-subspace-3,3": (3, _span([np.eye(3, dtype=np.int64), _unit(3, 0)], 3,
                                           _symmetric(rng, 3, 3)), False),
        "one-member-2,3": (2, mub_set(2, 3).stack[5:6], False),
        # 66 upper-triangle digits, two key words; E_(10,10) is digit 65
        # alone, so keys that dropped the second word would merge members
        "two-word-2,11": (2, _span([_unit(11, 10), np.eye(11, dtype=np.int64),
                                    _symmetric(rng, 2, 11)], 2, _symmetric(rng, 2, 11)), False),
    }
    for p, n in [(2, 1), (3, 1), (2, 6), (3, 4), (5, 2), (13, 2)]:
        shifted = (mub_set(p, n).stack + _shift(rng, p, n)) % p
        edited = shifted.copy()
        edited[0] = (edited[0] + _unit(n, 0)) % p
        grid[f"shifted-field-{p},{n}"] = (p, shifted, True)
        grid[f"edited-first-member-{p},{n}"] = (p, edited, False)
    return grid


GRID = _grid()


def _family(case):
    p, stack, _ = GRID[case]
    return MubSet(p=p, n=stack.shape[1], stack=stack)


@pytest.mark.parametrize("case", sorted(GRID))
def test_affine_check_matches_span_enumeration(case):
    # affine: the stack less member 0 is the field of its member p;
    # field_rep: affine with member 0 zero, so no shifted field is one
    p, stack, affine = GRID[case]
    s = _family(case)
    less = MubSet(p=p, n=s.n, stack=np.remainder(stack - stack[:1], p))
    assert s.affine == field_brute(less) == affine
    assert s.field_rep == field_brute(s) == (affine and not stack[0].any())


def _reports(s):
    return ([verify_mu_condition(s, pairwise=True)]
            + [verify_mu_numeric(s, tol=tol) for tol in (1e-10, 0.0)])


@pytest.mark.parametrize("case", sorted(GRID))
def test_row_zero_reports_equal_the_walk(monkeypatch, case):
    # at tol 0 rounding fails some pair, a class or the computational
    # basis: both routes must pick the same one
    fast = _reports(_family(case))
    monkeypatch.setattr(MubSet, "affine", False)
    assert fast == _reports(_family(case))


def test_failing_affine_stack_reports_row_zero():
    s = _family("singular-subspace-3,3")
    assert verify_mu_condition(s).failing_pair == (0, 3)
    assert verify_mu_numeric(s).first_violation[:2] == (0, 3)


@pytest.mark.parametrize("case", sorted(GRID))
def test_affine_stack_never_walks(monkeypatch, case):
    # row 0 decides an affine stack; every other stack walks
    walks = []
    walk = mubs.difference_rows
    monkeypatch.setattr(mubs, "difference_rows", lambda *args: walks.append(args) or walk(*args))
    s = _family(case)
    verify_mu_condition(s)
    _reports(s)
    assert bool(walks) != GRID[case][2]


@pytest.mark.parametrize("case", ["shifted-field-3,3", "singular-subspace-3,3"])
def test_computational_violation_order_matches_the_walk(monkeypatch, case):
    # a computational bound that fails (the real one is rounding) fails
    # every row's computational pair, so row 0 decides, its class first:
    # the singular subspace reports its class (0, 3) and the sound field
    # reports (0, computational)
    monkeypatch.setattr(states, "_computational_dev", lambda p, n: 0.5)
    fast = verify_mu_numeric(_family(case))
    computational = len(GRID[case][1])
    assert fast.first_violation[:2] == ((0, 3) if case.startswith("singular") else (0, computational))
    monkeypatch.setattr(MubSet, "affine", False)
    assert fast == verify_mu_numeric(_family(case))


@pytest.mark.parametrize("case, ranks", [("shifted-field-3,3", 0), ("field-5,2", 0)])
def test_affinity_is_proven_once_per_family(monkeypatch, case, ranks):
    # both checks route through `affine`: one walk of the recurrence,
    # whose cached verdict serves the second check, and no rank of a
    # non-square block
    blocks, proofs = [], []
    eliminate, levels = mubs.eliminate_stack, mubs._levels

    def counting(stack, p):
        if stack.shape[1] != stack.shape[2]:
            blocks.append(stack.shape)
        return eliminate(stack, p)

    monkeypatch.setattr(mubs, "eliminate_stack", counting)
    monkeypatch.setattr(mubs, "_levels", lambda q: proofs.append(q) or levels(q))
    s = _family(case)
    verify_mu_condition(s)
    verify_mu_numeric(s)
    assert len(blocks) == ranks and len(proofs) == 1


def test_empty_stack_has_no_pair():
    s = MubSet(p=3, n=2, stack=np.zeros((0, 2, 2), dtype=np.int64))
    assert not s.affine
    assert verify_mu_condition(s).ok
    assert verify_mu_numeric(s).pairs_checked == 0
