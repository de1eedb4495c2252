"""Entanglement structure of graph bases and the 2-design purity identity.

The reduced state of a graph state across a bipartition (X|Y) has purity
p^{-rank}, where rank is the Z_p-rank of the |X| x |Y| crossing block of
the adjacency matrix.  That rank is 0 exactly when no edge crosses the
cut, so a basis is biseparable exactly when its edge graph is
disconnected.

Every rank comes from one table, `_rank_table`: the rank of each member
of the (N, n, n) int64 stack at each cut asked for.  Cuts with the same
|X| share a crossing shape, so their crossing blocks are gathered
straight from the stack, a few thousand at a time, and each gather is
one `eliminate_stack` call.  The report, the design check and a single
`connectivity_rank` (a stack of one) all read this table, and a purity
is one lookup per rank.

Purities are exact rationals, so the averaged-purity identity over a
complete family,

    (1 + sum_i p^{-rank_i}) / (p^n + 1) = (d_X + d_Y) / (d_X d_Y + 1),

is checked with exact equality: the left side is one Fraction built from
the rank histogram of the cut's row, and the right side depends only on
|X|.  Labels come from one pass over the stack's boolean edge arrays.
Self-loops (diagonal entries) are local operations and never affect any
classification here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

# rank_mod_p is unused here but stays importable: perfbench's layer trace
# wraps it in every module that imports it, and its self-test checks this one
from .linalg import MatZp, eliminate_stack, rank_mod_p  # noqa: F401
from .mubs import MubSet
from .states import graph_state

FULLY_SEPARABLE = "fully-separable"
GHZ_TYPE = "GHZ-type"
GENUINELY_MULTIPARTITE = "genuinely-multipartite"
BISEPARABLE = "biseparable-structure"

# Most (cut, member) pairs an all-cuts report takes.  The rank table
# costs about 0.3-0.6 us per pair ((2,10) to (2,12)) plus 8-15 us per
# cut (one member, n = 16 and 17), on one BLAS thread of a 2-vCPU Xeon
# VM, and a cut counts as at least 2^7 members: (2,12) (3.5-5 s of
# ranks) and one-member n = 17 (0.5-1 s) fit, (2,13) and one-member
# n = 18 do not.
ALL_CUTS_LIMIT = 2**23

# Crossing entries per `eliminate_stack` call of `_rank_table`.  The
# temporaries grow with it (traced peak above the table at (2,11): 0.5
# MiB at 2^14, 1.0 at 2^15, 2.0 at 2^16), and larger blocks were no
# faster at (2,8).
GATHER_BLOCK = 2**14


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
    """Z_p-rank of the |X| x |Y| off-diagonal block selected by b: the
    rank table of a stack of one at one cut."""
    return int(_rank_table(np.array([a.rows], dtype=np.int64), a.p, [b])[0, 0])


def _crossing(m: np.ndarray, b: Bipartition) -> np.ndarray:
    """The X rows and Y columns of an (n, n) matrix, or of every member of
    an (N, n, n) stack."""
    if b.n != m.shape[-1]:
        raise ValueError("bipartition size does not match the matrices")
    return m[..., [v - 1 for v in b.x], :][..., [v - 1 for v in b.y]]


def _rank_table(stack: np.ndarray, p: int, bips: list[Bipartition]) -> np.ndarray:
    """connectivity_rank of every member of an (N, n, n) stack at every
    cut of bips: an int64 (len(bips), N) table.  The cuts of one |X|
    share a crossing shape, taken tall (the transpose when |X| < |Y|: the
    same rank, and fewer columns for the elimination to step through).
    Their (cut, member) pairs, cut after cut, are gathered by flat
    offsets into the stack, GATHER_BLOCK entries at a time, and each
    gather is one stacked elimination."""
    count, n = len(stack), stack.shape[-1]
    flat = stack.reshape(-1)
    cells = np.arange(n * n).reshape(n, n)
    table = np.zeros((len(bips), count), dtype=np.int64)
    for x in sorted({len(b.x) for b in bips}):
        cuts = np.array([i for i, b in enumerate(bips) if len(b.x) == x])
        offsets = np.array([_crossing(cells, bips[i]) for i in cuts])
        if 2 * x < n:
            offsets = offsets.transpose(0, 2, 1)
        shape = offsets.shape[1:]
        offsets = offsets.reshape(len(cuts), -1)
        pairs, step = len(cuts) * count, max(1, GATHER_BLOCK // offsets.shape[1])
        for start in range(0, pairs, step):
            cut, member = np.divmod(np.arange(start, min(start + step, pairs)), count)
            block = np.take(flat, (member * n * n)[:, None] + offsets[cut])
            table[cuts[cut], member] = eliminate_stack(block.reshape(-1, *shape), p)
    return table


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


def _design_checks(p: int, n: int, bips: list[Bipartition],
                   table: np.ndarray) -> list[DesignCheck]:
    """The design identity at each cut of bips, from its row of the rank
    table: the averaged purity of a complete family whose N graph bases
    have k_r members of rank r, and the computational basis purity 1,

        (p^n + sum_r k_r p^(n-r)) / (p^n (N + 1)),

    against the Haar value (p^|X| + p^|Y|) / (p^n + 1), once per |X|."""
    d = p**n
    haar = {x: Fraction(p**x + p ** (n - x), d + 1) for x in {len(b.x) for b in bips}}
    checks = []
    for b, ranks in zip(bips, table):
        counts = np.bincount(ranks)
        lhs = Fraction(d + sum(int(k) * p ** (n - r) for r, k in enumerate(counts) if k),
                       d * (len(ranks) + 1))
        rhs = haar[len(b.x)]
        checks.append(DesignCheck(lhs=lhs, rhs=rhs, passed=lhs == rhs))
    return checks


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
    return _design_checks(s.p, s.n, [b], _rank_table(s.stack, s.p, [b]))[0]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify_basis(a: MatZp) -> str:
    """Entanglement label of the basis generated by adjacency matrix a.

    Off-diagonal entries are edges.  fully-separable: no edges.
    biseparable-structure: edges, but the edge graph is disconnected (some
    cut has connectivity rank 0).  GHZ-type: p = 2 connected star or
    complete graphs.  Every other connected graph: genuinely-multipartite.
    The label of a stack of one (`_labels`).
    """
    return _labels(np.array([a.rows], dtype=np.int64), a.p)[0]


def _labels(stack: np.ndarray, p: int) -> list[str]:
    """classify_basis of every member of an (N, n, n) stack reduced mod p:
    the set reached from vertex 0 grows by one edge step per pass, and
    n - 1 passes reach its whole component."""
    n = stack.shape[1]
    edges = (stack != 0) & ~np.eye(n, dtype=bool)
    degrees = edges.sum(axis=2)
    reached = np.broadcast_to(np.arange(n) == 0, stack.shape[:2])
    for _ in range(n - 1):
        reached = reached | (reached[:, :, None] & edges).any(axis=1)
    hubs = (degrees == n - 1).sum(axis=1)  # complete graph, or a star
    ghz = (hubs == n) | ((hubs == 1) & ((degrees == 1).sum(axis=1) == n - 1))
    return np.select([~degrees.any(axis=1), ~reached.all(axis=1), ghz & (p == 2)],
                     [FULLY_SEPARABLE, BISEPARABLE, GHZ_TYPE], GENUINELY_MULTIPARTITE).tolist()


def census(s: MubSet, include_computational: bool = False) -> dict[str, int]:
    """Histogram of classify_basis over the graph bases.

    The implicit computational basis counts as fully separable when
    requested.
    """
    counts = Counter(_labels(s.stack, s.p))
    if include_computational:
        counts[FULLY_SEPARABLE] += 1
    return dict(counts)


def analysis_report(s: MubSet, bipartitions=None) -> dict:
    """Per-graph ranks, purities and labels, keyed by bipartition,
    plus the exact two sides of the design identity.  All bipartitions by
    default; ValueError, before any is built, if they are over
    ALL_CUTS_LIMIT."""
    if bipartitions is None:
        cuts = 2 ** (s.n - 1) - 1
        if cuts * max(len(s.stack), 2**7) > ALL_CUTS_LIMIT:
            raise ValueError(f"all {cuts} bipartitions of n = {s.n} times "
                             f"max({len(s.stack)} members, 128) exceed "
                             f"ALL_CUTS_LIMIT = {ALL_CUTS_LIMIT}; name a bipartition")
        bipartitions = all_bipartitions(s.n)
    bips = list(bipartitions)
    labels = _labels(s.stack, s.p)
    report = {
        "p": s.p,
        "n": s.n,
        "labels": labels,
        "census": dict(Counter(labels)),
        "computational_basis": FULLY_SEPARABLE,
        "bipartitions": {},
    }
    table = _rank_table(s.stack, s.p, bips)
    purity = np.array([str(Fraction(1, s.p**r)) for r in range(s.n + 1)], dtype=object)
    complete = len(s.stack) == s.dim
    checks = _design_checks(s.p, s.n, bips, table) if complete else [None] * len(bips)
    for b, ranks, check in zip(bips, table, checks):
        entry = {"ranks": ranks.tolist(), "purities": purity[ranks].tolist()}
        if complete:
            entry["design_lhs"] = str(check.lhs)
            entry["design_rhs"] = str(check.rhs)
            entry["design_pass"] = check.passed
        report["bipartitions"][b.key()] = entry
    return report
