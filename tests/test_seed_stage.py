"""The seed stage of `gen`: the trace-pinned tridiagonal scan against an
exhaustive scan, the congruence reduction on int64 arrays against fixed
witnesses, and the exact Z_p matrix product against Python ints."""

import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from graphmub import symrep
from graphmub.fields import MODULUS_BOUND, PolyZp
from graphmub.linalg import MatZp, matmul_mod
from graphmub.symrep import symmetrize_companion, tridiag_search
from oracles import all_monic, irreducible_brute, tridiag_first_brute

GOLDENS = json.loads((Path(__file__).parent / "companion_goldens.json").read_text())

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


def _matmul_ints(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


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
