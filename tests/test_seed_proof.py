"""One proof per seed: the witness proves Q, and the family built from it
carries that proof.

`SymmetricRep` is the one place a seed is proven (q symmetric,
char_poly(q) = f, f irreducible); `PolyZp.is_irreducible` keeps its
verdict on the instance, and a `MubSet` built from its witness is Z_p[Q]
by construction.  These tests count the underlying work of each
construction route, and check that nothing unproven is carried: a stack
passed in is still proven from the stack.
"""

import json

import numpy as np
import pytest

from graphmub import mubs
from graphmub.cli import main
from graphmub.fields import PolyZp
from graphmub.linalg import MatZp
from graphmub.mubs import (
    MubSet,
    adjacency_set,
    canonical_json,
    from_document,
    mub_set,
    shift_set,
    to_document,
    verify_mu_condition,
)
from graphmub.symrep import (
    ConstructionError,
    PrimitivePolynomialRequired,
    SymmetricRep,
    tridiag_char_poly,
    tridiag_search,
    tridiagonal_matrix,
)
from oracles import all_monic, field_brute


@pytest.fixture
def work(monkeypatch):
    """Counters for the two costs a seed may pay: walks of the Z_p[Q]
    recurrence (`_field` expanding Q, or `affine` proving a stack passed
    in), and distinct-degree computations (by coefficient tuple),
    counted inside the kernels rather than at the memoizing
    `is_irreducible`."""
    fields, tested = [], []
    walk, distinct = mubs._levels, PolyZp._distinct_degree

    def counting_walk(q):
        fields.append(q)
        return walk(q)

    def counting_distinct(f):
        tested.append(f.coeffs)
        return distinct(f)

    monkeypatch.setattr(mubs, "_levels", counting_walk)
    monkeypatch.setattr(PolyZp, "_distinct_degree", counting_distinct)
    return fields, tested


def _seeds(p, n):
    return [f for f in all_monic(p, n) if f.is_irreducible()]


def test_tridiagonal_target_hit_proves_the_seed_once(work, tmp_path):
    f = tridiag_search(2, 8)[1]
    out = tmp_path / "fam.json"
    fields, tested = work
    fields.clear(), tested.clear()  # the search above is not part of gen
    assert main(["gen", "-p", "2", "-n", "8", "--poly", ",".join(map(str, f.coeffs)),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "tridiagonal" and doc["field_rep"] is True
    assert len(fields) == 1 and tested == [f.coeffs]


@pytest.mark.parametrize("build", [
    # x^3 + 2x + 1 over Z_3 has no tridiagonal realization: auto falls back
    lambda: mub_set(3, 3, poly=PolyZp(3, [1, 2, 0, 1])),
    lambda: mub_set(2, 3, d=(1, 0, 0)),
], ids=["companion-fallback", "explicit-d"])
def test_requested_seed_is_the_only_polynomial_tested(work, build):
    fields, tested = work
    fam = build()
    assert verify_mu_condition(fam).mode == "closure" and to_document(fam)["field_rep"]
    assert len(fields) == 1 and tested == [fam.polynomial.coeffs]


@pytest.mark.parametrize("build,method", [
    # n = 2 mod 4 with -1 a non-residue mod 7: the multiplier is the
    # companion matrix, so the seed is also tested for primitivity
    (lambda: mub_set(7, 2, method="companion", primitive=True), "companion"),
    (lambda: mub_set(3, 3, method="companion"), "companion"),
    (lambda: mub_set(2, 8), "tridiagonal"),
], ids=["matrix-multiplier", "find-irreducible", "untargeted-tridiagonal"])
def test_searched_seed_is_proven_once(work, build, method):
    fields, tested = work
    fam = build()
    assert fam.method == method
    assert verify_mu_condition(fam).mode == "closure" and to_document(fam)["field_rep"]
    assert len(fields) == 1
    # find_irreducible and tridiag_search hand the instance they tested to
    # the witness: the seed is tested once, and on these routes no
    # polynomial twice
    assert tested.count(fam.polynomial.coeffs) == 1
    assert len(tested) == len(set(tested))


def _sound_witness():
    return mub_set(2, 3, d=(1, 0, 0)).witness


def test_witness_refuses_a_reducible_polynomial():
    q = tridiagonal_matrix(2, (0, 0))
    f = tridiag_char_poly(2, (0, 0))  # x^2 + 1 = (x + 1)^2
    assert q.is_symmetric and q.char_poly() == f
    with pytest.raises(ConstructionError, match="is reducible"):
        SymmetricRep(f=f, q=q, method="tridiagonal", d=(0, 0))


def test_witness_refuses_a_seed_of_another_polynomial():
    w = _sound_witness()
    other = PolyZp(2, [1, 1, 0, 1])
    assert other != w.f and other.is_irreducible()
    with pytest.raises(ConstructionError, match="characteristic polynomial is not"):
        SymmetricRep(f=other, q=w.q, method="tridiagonal")


def test_witness_refuses_a_non_symmetric_seed():
    f = PolyZp(2, [1, 1, 0, 1])
    c = MatZp.companion(f)  # char_poly(C) = f, irreducible, but C != C^T
    assert c.char_poly() == f and f.is_irreducible() and not c.is_symmetric
    with pytest.raises(ConstructionError, match="not symmetric"):
        SymmetricRep(f=f, q=c, method="companion")


def test_family_built_from_a_witness_is_the_field_by_construction(work):
    w = _sound_witness()
    fields, _ = work
    fields.clear()
    fam = adjacency_set(w)
    assert len(fields) == 1 and fam.field_rep and len(fields) == 1  # no proof
    assert field_brute(fam)
    with pytest.raises(ValueError):
        MubSet(p=2, n=3)  # nothing to build from
    with pytest.raises(ValueError):
        MubSet(p=3, n=3, witness=w)  # another modulus
    with pytest.raises(ValueError):
        MubSet(p=2, n=3, witness=w, shifts=(MatZp.identity(2, 3),))


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2), (2, 8)])
def test_a_stack_passed_in_is_proven_from_the_stack(work, p, n):
    fam = mub_set(p, n)
    w, stack = fam.witness, fam.stack
    swapped = stack.copy()
    swapped[[1, -1]] = swapped[[-1, 1]]
    edited = stack.copy()
    edited[-1] += np.eye(n, dtype=np.int64)
    cases = {
        "own-field": MubSet(p=p, n=n, stack=stack, witness=w),
        "swapped": MubSet(p=p, n=n, stack=swapped, witness=w),
        "edited": MubSet(p=p, n=n, stack=edited, witness=w),
        "shift-zero": shift_set(fam, MatZp.zeros(p, n)),
        "shift-identity": shift_set(fam, MatZp.identity(p, n)),
    }
    fields, _ = work
    for name, s in cases.items():
        fields.clear()
        verdict = s.field_rep
        # Q = member p - member 0 is untouched in every case, so the proof
        # expands it, unless a nonzero member 0 rules out a field first
        assert len(fields) == (name != "shift-identity"), name
        assert verdict == MubSet(p=p, n=n, stack=s.stack).field_rep == field_brute(s), name
        assert verdict == (name in ("own-field", "shift-zero")), name
        # the shifted field is proven by the same walk, once
        fields.clear()
        assert s.affine == (name not in ("swapped", "edited")), name
        assert len(fields) == (name == "shift-identity"), name


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (7, 3), (11, 2), (13, 2)])
def test_carried_proof_matches_the_reloaded_one_for_every_seed(p, n):
    refused = 0
    for f in _seeds(p, n):
        try:
            fam = mub_set(p, n, poly=f)
        except PrimitivePolynomialRequired as exc:
            assert "a primitive polynomial is required" in str(exc)
            refused += 1
            continue
        back = from_document(json.loads(canonical_json(to_document(fam))))
        assert fam.field_rep and back.field_rep
        assert np.array_equal(back.stack, fam.stack)
    # the documented refusals: companion fallbacks at p = 3 mod 4, n = 2
    # mod 4 with a non-primitive f
    assert refused == (14 if (p, n) == (11, 2) else 0)
