"""Entanglement structure of graph bases and the 2-design purity identity.

The reduced state of a graph state across a bipartition (X|Y) has purity
p^{-rank} where rank is the Z_p-rank of the off-diagonal connectivity
block of the adjacency matrix.  That rank is 0 exactly when no edge
crosses the cut, so a basis is biseparable exactly when its edge graph
is disconnected.  Purities are kept as exact rationals so the
averaged-purity identity over a complete family,

    (1 + sum_i p^{-rank_i}) / (p^n + 1) = (d_X + d_Y) / (d_X d_Y + 1),

is checked with exact equality.  Self-loops (diagonal entries) are local
operations and never affect any classification here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .linalg import MatZp, eliminate_stack, rank_mod_p
from .mubs import MubSet
from .states import graph_state

FULLY_SEPARABLE = "fully-separable"
GHZ_TYPE = "GHZ-type"
GENUINELY_MULTIPARTITE = "genuinely-multipartite"
BISEPARABLE = "biseparable-structure"


@dataclass(frozen=True)
class Bipartition:
    """Nonempty proper subset of vertices [1, n] and its complement."""

    x: tuple[int, ...]
    y: tuple[int, ...]

    @classmethod
    def of(cls, x_indices, n: int) -> "Bipartition":
        x = tuple(sorted(set(int(v) for v in x_indices)))
        if not x or any(v < 1 or v > n for v in x):
            raise ValueError(f"X must be a nonempty subset of [1, {n}]")
        y = tuple(v for v in range(1, n + 1) if v not in x)
        if not y:
            raise ValueError("X must be a proper subset: Y is empty")
        return cls(x=x, y=y)

    @property
    def n(self) -> int:
        return len(self.x) + len(self.y)

    def key(self) -> str:
        return ",".join(map(str, self.x)) + "|" + ",".join(map(str, self.y))


def all_bipartitions(n: int) -> list[Bipartition]:
    """One orientation per split (vertex 1 kept on the X side)."""
    out = []
    for size in range(1, n):
        for rest in combinations(range(2, n + 1), size - 1):
            out.append(Bipartition.of((1,) + rest, n))
    return out


def connectivity_rank(a: MatZp, b: Bipartition) -> int:
    """Z_p-rank of the |X| x |Y| off-diagonal block selected by b."""
    if b.n != a.n:
        raise ValueError("bipartition size does not match the matrix")
    block = a.submatrix([v - 1 for v in b.x], [v - 1 for v in b.y])
    return rank_mod_p(block, a.p)


def _cut_ranks(stack: np.ndarray, p: int, b: Bipartition) -> list[int]:
    """connectivity_rank of every matrix of an (N, n, n) stack at b, by
    one stacked elimination of the (N, |X|, |Y|) crossing blocks."""
    if b.n != stack.shape[1]:
        raise ValueError("bipartition size does not match the matrices")
    x = [v - 1 for v in b.x]
    y = [v - 1 for v in b.y]
    return eliminate_stack(stack[:, x][:, :, y], p)[0].tolist()


def reduced_purity(a: MatZp, b: Bipartition) -> Fraction:
    """Exact purity p^{-rank} of the reduced state on the X side."""
    return Fraction(1, a.p ** connectivity_rank(a, b))


def numeric_purity(a: MatZp, b: Bipartition) -> float:
    """tr(rho_X^2) from the dense state vector (cross-check path)."""
    p, n = a.p, a.n
    psi = graph_state(a).reshape((p,) * n)
    axes = [v - 1 for v in b.x] + [v - 1 for v in b.y]
    mat = psi.transpose(axes).reshape(p ** len(b.x), p ** len(b.y))
    rho = mat @ mat.conj().T
    return float(np.sum(np.abs(rho) ** 2))


@dataclass(frozen=True)
class DesignCheck:
    lhs: Fraction
    rhs: Fraction
    passed: bool


def _design_check(p: int, b: Bipartition, ranks) -> DesignCheck:
    """Averaged purity of a complete family with these ranks at b (the
    computational basis adds purity 1) against the Haar value."""
    lhs = (1 + sum(Fraction(1, p**r) for r in ranks)) / (len(ranks) + 1)
    dx = p ** len(b.x)
    dy = p ** len(b.y)
    rhs = Fraction(dx + dy, dx * dy + 1)
    return DesignCheck(lhs=lhs, rhs=rhs, passed=lhs == rhs)


def design_purity_check(s: MubSet, b: Bipartition) -> DesignCheck:
    """Average reduced purity over the complete family versus the Haar value.

    The implicit computational basis contributes purity 1; graph bases
    contribute p^{-rank} each.  Requires the full p^n matrices.
    """
    if len(s.stack) != s.dim:
        raise ValueError(
            f"complete family required: expected {s.dim} matrices, "
            f"got {len(s.stack)}"
        )
    return _design_check(s.p, b, _cut_ranks(s.stack, s.p, b))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify_basis(a: MatZp) -> str:
    """Entanglement label of the basis generated by adjacency matrix a.

    Off-diagonal entries are edges.  fully-separable: no edges.
    biseparable-structure: edges, but the edge graph is disconnected (some
    cut has connectivity rank 0).  GHZ-type: p = 2 connected star or
    complete graphs.  Every other connected graph: genuinely-multipartite.
    """
    return _label(a.rows, a.p)


def _label(rows, p: int) -> str:
    """classify_basis of the matrix with these rows (a MatZp's or a stack's)."""
    n = len(rows)
    nbrs = [[j for j in range(n) if j != i and rows[i][j]] for i in range(n)]
    degrees = [len(js) for js in nbrs]
    if not any(degrees):
        return FULLY_SEPARABLE
    seen, frontier = {0}, {0}
    while frontier:
        frontier = {j for i in frontier for j in nbrs[i]} - seen
        seen |= frontier
    if len(seen) < n:
        return BISEPARABLE
    if p == 2 and sorted(degrees) in ([n - 1] * n, [1] * (n - 1) + [n - 1]):
        return GHZ_TYPE
    return GENUINELY_MULTIPARTITE


def census(s: MubSet, include_computational: bool = False) -> dict[str, int]:
    """Histogram of classify_basis over the graph bases.

    The implicit computational basis counts as fully separable when
    requested.
    """
    counts = Counter(_label(rows, s.p) for rows in s.stack.tolist())
    if include_computational:
        counts[FULLY_SEPARABLE] += 1
    return dict(counts)


def analysis_report(s: MubSet, bipartitions=None) -> dict:
    """Per-graph ranks, purities and labels, keyed by bipartition,
    plus the exact two sides of the design identity."""
    bips = list(bipartitions) if bipartitions is not None else all_bipartitions(s.n)
    labels = [_label(rows, s.p) for rows in s.stack.tolist()]
    report = {
        "p": s.p,
        "n": s.n,
        "labels": labels,
        "census": dict(Counter(labels)),
        "computational_basis": FULLY_SEPARABLE,
        "bipartitions": {},
    }
    complete = len(s.stack) == s.dim
    for b in bips:
        ranks = _cut_ranks(s.stack, s.p, b)
        entry = {
            "ranks": ranks,
            "purities": [str(Fraction(1, s.p**r)) for r in ranks],
        }
        if complete:
            check = _design_check(s.p, b, ranks)
            entry["design_lhs"] = str(check.lhs)
            entry["design_rhs"] = str(check.rhs)
            entry["design_pass"] = check.passed
        report["bipartitions"][b.key()] = entry
    return report
