"""The seed stage of `gen`: the route that `symmetric_representation`
picks, against a recorded table of witnesses and refusals, the
trace-pinned tridiagonal scan against an exhaustive scan, the one
congruence diagonalization on int64 arrays against fixed witnesses (both
deadlock mixes included), and the one exact Z_p matrix product, alone and
under `MatZp`, against Python ints."""

import json
import random
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from graphmub import symrep
from graphmub.fields import MODULUS_BOUND, PolyZp
from graphmub.linalg import MatZp, matmul_mod
from graphmub.symrep import (
    reduce_to_identity_char2,
    reduce_to_identity_odd,
    symmetric_representation,
    symmetrize_companion,
    tridiag_search,
)
from oracles import (
    all_monic,
    irreducible_brute,
    matmul_brute,
    order_of_x_brute,
    tridiag_first_brute,
)

GOLDENS = json.loads((Path(__file__).parent / "companion_goldens.json").read_text())
ROUTE_GOLDENS = Path(__file__).parent / "route_goldens.json"

SEARCH_GRID = ([(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]
               + [(5, 3), (7, 3), (11, 2), (13, 2)])


@pytest.mark.parametrize("p,n", SEARCH_GRID)
def test_targeted_search_is_the_first_of_an_exhaustive_scan(p, n):
    # every monic irreducible seed gets the lexicographically first of all
    # p^n diagonals that realize it, or None when none does
    first = tridiag_first_brute(p, n)
    seeds = [f for f in all_monic(p, n) if irreducible_brute(f)]
    found = {f: tridiag_search(p, n, target=f) for f in seeds}
    for f in seeds:
        expected = first.get(f)
        assert found[f] == (None if expected is None else (expected, f)), f
    if (p, n) == (3, 5):  # misses happen, and are met
        assert sum(v is None for v in found.values()) == 12


def test_targeted_search_scans_only_the_trace_class(monkeypatch):
    # one pass over the p^(n-1) prefixes, d_n completed from the trace
    seen = []
    real = symrep._tridiag_recursion
    monkeypatch.setattr(symrep, "_tridiag_recursion",
                        lambda d, p: seen.append(d.copy()) or real(d, p))
    miss = PolyZp(3, [1, 0, 0, 0, 2, 1])  # irreducible, realized by no diagonal
    assert irreducible_brute(miss) and tridiag_search(3, 5, target=miss) is None
    scanned = np.concatenate(seen)
    assert len(scanned) == 3**4
    assert (scanned.sum(axis=1) % 3 == 1).all()  # the trace, -c_4 = 1
    weights = 3 ** np.arange(3, -1, -1)
    assert (scanned[:, :-1] @ weights == np.arange(3**4)).all()


def _route_requests():
    """The requests of route_goldens.json.  For each (p, n) in {2, 3, 5, 7}
    x {1, 2, 3} and (11, 2): every method, with and without `primitive`,
    with no polynomial and with the first primitive, the first irreducible
    non-primitive, the first irreducible that no tridiagonal matrix
    realizes and the first reducible polynomial (those that exist, chosen
    by the oracles), each alone and with the diagonal (1, 0, ..., 0); and
    for `auto` and `tridiag` without a diagonal, once more with the
    tridiagonal scan made to miss (`miss`), which at these sizes is the
    only way to reach the fallbacks of a search without a target."""
    sizes = [(p, n) for p in (2, 3, 5, 7) for n in (1, 2, 3)] + [(11, 2)]
    for p, n in sizes:
        realized = tridiag_first_brute(p, n)

        def primitive(f):  # for irreducible f; x is no unit mod f = x
            return f.coeffs[0] and order_of_x_brute(f) == p**n - 1

        kinds = [
            lambda f: irreducible_brute(f) and primitive(f),
            lambda f: irreducible_brute(f) and not primitive(f),
            lambda f: irreducible_brute(f) and f not in realized,
            lambda f: not irreducible_brute(f),
        ]
        polys = dict.fromkeys(f.coeffs for kind in kinds
                              for f in islice(filter(kind, all_monic(p, n)), 1))
        for method in ("auto", "tridiag", "companion"):
            for primitive in (False, True):
                for poly in [None, *map(list, polys)]:
                    request = {"p": p, "n": n, "method": method, "primitive": primitive,
                               "poly": poly, "d": None, "miss": False}
                    yield request
                    yield {**request, "d": [1] + [0] * (n - 1)}
                    if method != "companion":
                        yield {**request, "miss": True}


def _route_outcome(request, monkeypatch):
    """The witness that symmetric_representation returns for a request, or
    the type and message of its refusal, with the number of primitivity
    tests it ran."""
    tests = []
    real = PolyZp.is_primitive
    monkeypatch.setattr(PolyZp, "is_primitive", lambda f: tests.append(f) or real(f))
    monkeypatch.setattr(symrep, "tridiag_search", (lambda *args, **kwargs: None)
                        if request["miss"] else tridiag_search)
    p, poly = request["p"], request["poly"]
    try:
        rep = symmetric_representation(
            p, request["n"], method=request["method"],
            poly=None if poly is None else PolyZp(p, poly), d=request["d"],
            primitive=request["primitive"])
    except (ValueError, symrep.ConstructionError) as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "primitive_tests": len(tests)}
    m = rep.multiplier
    return {"method": rep.method, "d": None if rep.d is None else list(rep.d),
            "f": list(rep.f.coeffs), "q": rep.q.to_lists(),
            "transform": None if rep.transform is None else rep.transform.to_lists(),
            "multiplier": m.to_lists() if isinstance(m, MatZp) else m,
            "primitive_tests": len(tests)}


def test_route_goldens(monkeypatch):
    # every request of the table gets the recorded witness or refusal, with
    # as many primitivity tests: tridiagonal hits and misses, companion
    # fallbacks with scalar and matrix multipliers, explicit diagonals,
    # and each refusal message
    cases = json.loads(ROUTE_GOLDENS.read_text())
    assert [case["request"] for case in cases] == list(_route_requests())
    for case in cases:
        assert _route_outcome(case["request"], monkeypatch) == case["outcome"], case["request"]
    outcomes = Counter(case["outcome"].get("error", case["outcome"].get("method"))
                       for case in cases)
    assert set(outcomes) == {"tridiagonal", "companion", "ConstructionError",
                             "PrimitivePolynomialRequired", "ValueError"}


def _reduction_steps(monkeypatch):
    calls = Counter()
    for name in ("swap", "sweep", "scale_row", "omega_pair", "omega_triple", "phi"):
        real = getattr(symrep._Reduction, name)
        monkeypatch.setattr(symrep._Reduction, name,
                            lambda self, *a, _real=real, _name=name:
                            calls.update([_name]) or _real(self, *a))
    return calls


def test_companion_goldens(monkeypatch):
    # the witnesses of companion_goldens.json, byte for byte: they take
    # every step of both reductions, and scalar and matrix multipliers
    # (the matrix at n = 2 mod 4 for p = 3, 7)
    calls = _reduction_steps(monkeypatch)
    multipliers = set()
    for case in GOLDENS:
        p, poly = case["p"], case["poly"]
        rep = symmetrize_companion(PolyZp(p, poly))
        assert rep.q.to_lists() == case["q"], (p, poly)
        assert rep.transform.to_lists() == case["transform"], (p, poly)
        m = rep.multiplier
        assert (m.to_lists() if isinstance(m, MatZp) else m) == case["multiplier"], (p, poly)
        multipliers.add((p, len(poly) - 1, "matrix" if isinstance(m, MatZp) else m))
    assert {case["p"] for case in GOLDENS} == {2, 3, 7, 13}
    assert set(calls) == {"swap", "sweep", "scale_row", "omega_pair", "omega_triple", "phi"}
    assert {(3, 2, "matrix"), (3, 6, "matrix"), (7, 2, "matrix"), (7, 6, "matrix"),
            (3, 3, 2), (7, 3, 3), (13, 4, 1), (2, 8, None)} <= multipliers


_matmul_ints = matmul_brute


@pytest.mark.parametrize("n", range(3, 7))
def test_matmul_mod_is_exact_at_the_largest_modulus(n):
    p = MODULUS_BOUND - 1  # 2^31 - 1, a prime: n (p - 1)^2 passes 2^63 from n = 3
    top = [[p - 1] * n for _ in range(n)]
    rng = random.Random(n)
    mixed = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    for a, b in ((top, top), (top, mixed), (mixed, top), (mixed, mixed)):
        got = matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
        assert got.tolist() == _matmul_ints(a, b, p)
    assert matmul_mod(np.array(top, dtype=np.int64), np.array(top, dtype=np.int64),
                      p).tolist() == [[n % p] * n] * n  # (p - 1)^2 = 1


@pytest.mark.parametrize("p", [2, 3, MODULUS_BOUND - 1])
@pytest.mark.parametrize("n", range(1, 9))
def test_matzp_products_are_exact(p, n):
    # MatZp @, ** and inverse() run on matmul_mod; at p = 2^31 - 1 with
    # entries p - 1 each sum of products passes 2^63 from n = 3
    rng = random.Random(p + n)
    top = [[p - 1] * n for _ in range(n)]
    while True:
        mixed = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if MatZp(p, mixed).det():
            break
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    for a, b in ((top, top), (top, mixed), (mixed, top), (mixed, mixed)):
        assert (MatZp(p, a) @ MatZp(p, b)).to_lists() == matmul_brute(a, b, p)
    for rows in (top, mixed):
        power = eye
        for k in range(6):
            assert (MatZp(p, rows) ** k).to_lists() == power
            power = matmul_brute(power, rows, p)
    inv = MatZp(p, mixed).inverse()
    assert matmul_brute(mixed, inv.to_lists(), p) == eye
    assert (MatZp(p, mixed) ** -2).to_lists() == matmul_brute(inv.to_lists(), inv.to_lists(), p)


T4 = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]

# (p, B, P) with P B P^T = 1, P as the reduction gave it before its two
# characteristics shared one diagonalization; every B reaches the deadlock
# mix, after a unit pivot or at once, and T4 through a swap to c + 1
DEADLOCKS = [
    (2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]], [[1, 1, 0], [1, 0, 1], [1, 1, 1]]),
    (2, [[1, 0, 0, 0, 0]] + [[0] + r for r in T4],
     [[1, 1, 0, 0, 0], [1, 0, 0, 1, 0], [1, 1, 1, 1, 0], [1, 1, 0, 1, 1], [1, 1, 1, 1, 1]]),
    (5, [[0, 1], [1, 0]], [[2, 4], [1, 3]]),
    (5, [[0, 2], [2, 0]], [[3, 3], [1, 4]]),
    (5, [[1, 0, 0], [0, 0, 1], [0, 1, 0]], [[1, 0, 0], [0, 2, 4], [0, 1, 3]]),
    (5, T4, [[2, 0, 4, 0], [1, 0, 3, 0], [0, 2, 0, 4], [0, 1, 0, 3]]),
    (13, [[0, 1], [1, 0]], [[11, 3], [10, 2]]),
    (13, [[0, 3], [3, 0]], [[4, 6], [7, 9]]),
    (13, [[1, 0, 0], [0, 0, 1], [0, 1, 0]], [[1, 0, 0], [0, 11, 3], [0, 10, 2]]),
    (13, T4, [[11, 0, 3, 0], [10, 0, 2, 0], [0, 11, 0, 3], [0, 10, 0, 2]]),
]


@pytest.mark.parametrize("p,b,expected", DEADLOCKS)
def test_both_deadlock_mixes(monkeypatch, p, b, expected):
    # an all-zero remaining diagonal: omega_triple for p = 2, omega_pair
    # for odd p, one per deadlock
    calls = _reduction_steps(monkeypatch)
    reduce = reduce_to_identity_char2 if p == 2 else reduce_to_identity_odd
    pm = reduce(MatZp(p, b)).to_lists()
    assert pm == expected
    eye = [[int(i == j) for j in range(len(b))] for i in range(len(b))]
    assert matmul_brute(matmul_brute(pm, b, p), [list(c) for c in zip(*pm)], p) == eye
    mix, other = ("omega_triple", "omega_pair") if p == 2 else ("omega_pair", "omega_triple")
    assert calls[mix] == (2 if len(b) in (4, 5) else 1) and not calls[other]


def test_reduction_steps_are_exact_at_the_largest_modulus():
    # each block row holds at most two nonzero residues: sums below 2^63
    p, n = MODULUS_BOUND - 1, 4
    b = MatZp(p, [[p - 1] * n] * n)
    st = symrep._Reduction(b)
    t = [[int(i == j) for j in range(n)] for i in range(n)]

    def mix(idx, coeff):
        step = [[int(i == j) for j in range(n)] for i in range(n)]
        for a, i in enumerate(idx):
            for c, j in enumerate(idx):
                step[i][j] = coeff[a][c] % p
        return step

    steps = [((0, 1, 2, 3), [[1, 0, 0, 0], [p - 1, 1, 0, 0], [p - 2, 0, 1, 0], [p - 3, 0, 0, 1]]),
             ((1, 3), [[1, p - 1], [1, 1]]), ((2, 0), [[1, 1], [1, p - 1]]), ((3,), [[p - 1]])]
    st.sweep(0, [1, 2, 3], [p - 1, p - 2, p - 3])
    st.phi(1, 3, p - 1)
    st.omega_pair(2, 0)
    st.scale_row(3, p - 1)
    ref = b.to_lists()
    for idx, coeff in steps:
        step = mix(idx, coeff)
        ref = _matmul_ints(_matmul_ints(step, ref, p), [list(c) for c in zip(*step)], p)
        t = _matmul_ints(step, t, p)
    assert st.B.tolist() == ref
    assert st.P.tolist() == t


if __name__ == "__main__":
    # records route_goldens.json from the code at hand:
    # cd tests && PYTHONPATH=../src python test_seed_stage.py
    with pytest.MonkeyPatch.context() as mp:
        rows = [json.dumps({"request": r, "outcome": _route_outcome(r, mp)},
                           separators=(",", ":")) for r in _route_requests()]
    ROUTE_GOLDENS.write_text("[\n" + ",\n".join(rows) + "\n]\n")
