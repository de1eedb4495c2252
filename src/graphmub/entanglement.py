"""Entanglement structure of graph bases and the 2-design purity identity.

The reduced state of a graph state across a bipartition (X|Y) has purity
p^{-rank}, where rank is the Z_p-rank of the |X| x |Y| crossing block of
the adjacency matrix.  That rank is 0 exactly when no edge crosses the
cut, so a basis is biseparable exactly when its edge graph is
disconnected.

Every rank comes from one table, `_rank_table`: the rank of each member
of the (N, n, n) family stack at each cut asked for.  Cuts with the same
|X| share a crossing shape, with c columns from the smaller side.  For
p = 2 a rank is counted, not eliminated: a block's kernel holds
2^(c - rank) of the 2^c subsets of its columns, and with each column one
word of bits, the XORs of all subsets double over the columns
(`_count_kernels`).  Odd p, and p = 2 crossings wider than KERNEL_BITS
or with n > 64, gather their crossing blocks straight from the stack, a
few thousand at a time, and each gather is one `eliminate_stack` call.
The report, the design check and a single `connectivity_rank` (a stack
of one) all read this table, and a purity is one lookup per rank.
`analysis_report` builds the report as a dict; `analysis_parts` writes
its canonical JSON straight from the table, block by block, through one
pre-encoded text per rank value, so no per-member int or str is built.

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

import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np

# rank_mod_p is unused here but stays importable: perfbench's layer trace
# wraps it in every module that imports it, and its self-test checks this one
from .linalg import MatZp, eliminate_stack, rank_mod_p  # noqa: F401
from .mubs import MubSet, canonical_json
from .states import graph_state

FULLY_SEPARABLE = "fully-separable"
GHZ_TYPE = "GHZ-type"
GENUINELY_MULTIPARTITE = "genuinely-multipartite"
BISEPARABLE = "biseparable-structure"

# Most (cut, member) pairs an all-cuts report takes.  On one BLAS thread
# of a 2-vCPU Xeon VM (a shared host) the rank table costs about
# 0.03-0.05 us per pair ((2,10) to (2,12)) plus 1.3 us per cut (one
# member, n = 16 and 17), and CLI `analyze` takes 0.8-1.2 s for a
# complete (2,12) family (0.25-0.4 s of ranks) and about 1.1 s for one
# member at n = 17.  A cut counts as at least 2^7 members, so these fit;
# (2,13), a report of 33M ranks (a 268 MB int64 table), and one member
# at n = 18 do not.
ALL_CUTS_LIMIT = 2**23

# Widest crossing (columns) whose p = 2 ranks `_count_kernels` counts.
# Per member of one cut, counting against eliminating took 1.7 against
# 2.1 us at 8 columns, 2.4 against 3.6 at 9, 5.8 against 4.5 at 10.
KERNEL_BITS = 9

# Subsets per span block of `_count_kernels` (the (2,12) rank table took
# 0.57 s at 2^14, 0.24 s at 2^16, 0.35 s at 2^18).
SPAN_BLOCK = 2**16

# Ranks per block of `analysis_parts`.  The traced peak of a (2,8)
# `analyze` is 0.91 MiB at 2^14 against 1.37 MiB at 2^15 or more (the
# whole table in one block), and 2^16 saved about 8% at (2,12).
REPORT_BLOCK = 2**14

# Crossing entries per `eliminate_stack` call of `_rank_table` (odd p).
# The temporaries grow with it (traced peak above the table at (3,8): 0.8
# MiB at 2^14, 3.1 at 2^16, 12 at 2^18), and larger blocks were no faster
# at (3,7), (3,8) or (5,5) (1.07 s at 2^14, 1.04 s at 2^18 for (3,8)).
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
            out.append(Bipartition(x=(1,) + rest,
                                   y=tuple(v for v in range(2, n + 1) if v not in rest)))
    return out


def connectivity_rank(a: MatZp, b: Bipartition) -> int:
    """Z_p-rank of the |X| x |Y| off-diagonal block selected by b: the
    rank table of a stack of one at one cut."""
    return int(_rank_table(np.array([a.rows], dtype=np.int64), a.p, [b])[0, 0])


def _crossing(m: np.ndarray, b: Bipartition) -> np.ndarray:
    """The X rows and Y columns of an (n, n) matrix, or of every member of
    an (N, n, n) stack."""
    return m[..., [v - 1 for v in b.x], :][..., [v - 1 for v in b.y]]


def _rank_table(stack: np.ndarray, p: int, bips: list[Bipartition]) -> np.ndarray:
    """connectivity_rank of every member of an (N, n, n) stack at every
    cut of bips: an int64 (len(bips), N) table.  The cuts of one |X|
    share a crossing shape, taken tall (the transpose when |X| < |Y|: the
    same rank), so its c columns come from the smaller side.  For p = 2
    (n <= 64, c <= KERNEL_BITS) the ranks come from `_count_kernels`;
    otherwise the (cut, member) pairs, cut after cut, are gathered by flat
    offsets into the stack, GATHER_BLOCK entries at a time, and each
    gather is one stacked elimination."""
    count, n = len(stack), stack.shape[-1]
    sizes = {}  # the cuts of each |X|
    for i, b in enumerate(bips):
        if b.n != n:
            raise ValueError("bipartition size does not match the matrices")
        sizes.setdefault(len(b.x), []).append(i)
    flat = stack.reshape(-1)
    cells = np.arange(n * n).reshape(n, n)
    table = np.zeros((len(bips), count), dtype=np.int64)
    lines = {}  # per orientation, every member's packed rows or columns
    for x in sorted(sizes):
        cuts = np.array(sizes[x])
        tall = 2 * x < n
        if p == 2 and n <= 64 and min(x, n - x) <= KERNEL_BITS:
            if tall not in lines:
                lines[tall] = _packed_rows(stack if tall else stack.transpose(0, 2, 1))
            picks = np.array([bips[i].x if tall else bips[i].y for i in cuts]) - 1
            _count_kernels(table, cuts, picks, lines[tall])
            continue
        offsets = np.array([_crossing(cells, bips[i]) for i in cuts])
        if tall:
            offsets = offsets.transpose(0, 2, 1)
        shape = offsets.shape[1:]
        offsets = offsets.reshape(len(cuts), -1)
        pairs, step = len(cuts) * count, max(1, GATHER_BLOCK // offsets.shape[1])
        for start in range(0, pairs, step):
            cut, member = np.divmod(np.arange(start, min(start + step, pairs)), count)
            block = np.take(flat, (member * n * n)[:, None] + offsets[cut])
            table[cuts[cut], member] = eliminate_stack(block.reshape(-1, *shape), p)
    return table


def _packed_rows(stack: np.ndarray) -> np.ndarray:
    """Each row of each member of an (N, n, n) stack as one unsigned word
    (n <= 64) of its parities: bit k of row i is entry (i, k) mod 2."""
    n = stack.shape[-1]
    word = np.min_scalar_type((1 << n) - 1)
    bits = np.bitwise_and(stack, 1, dtype=word, casting="unsafe")
    return bits @ (np.ones(1, word) << np.arange(n, dtype=word))


def _count_kernels(table: np.ndarray, cuts: np.ndarray, picks: np.ndarray,
                   lines: np.ndarray) -> None:
    """Fill rows cuts of a p = 2 rank table, where cut k has the smaller
    side picks[k] (c vertices, 0-based) and T the rest.  Column s of a
    crossing block is line s of the member masked to T (lines: (N, n)
    words from `_packed_rows`), so the block sends v in Z_2^c to the XOR
    of the lines it picks, and its kernel holds 2^(c - rank) vectors.  The
    XORs of every subset double over the c lines (as `states._frequencies`
    does), one in-place XOR per line, for a rectangle of cuts and members
    of about SPAN_BLOCK subsets in all; the zeros among them are the
    kernel, and rank = c + 1 - the exponent `np.frexp` reads off that
    power of two."""
    count = len(lines)
    # every bit but S's (a line has no bits above n)
    masks = ~np.bitwise_or.reduce(np.ones(1, lines.dtype) << picks.astype(lines.dtype), axis=1)
    c = picks.shape[1]
    members = max(1, min(count, SPAN_BLOCK >> c))
    width = max(1, (SPAN_BLOCK >> c) // members)
    for k in range(0, len(cuts), width):
        for m in range(0, count, members):
            block, mask = lines[m:m + members], masks[k:k + width]
            span = np.empty((1 << c, len(block), len(mask)), dtype=lines.dtype)
            span[0] = 0
            for i in range(c):
                np.bitwise_xor(span[:1 << i], block[:, picks[k:k + width, i]] & mask,
                               out=span[1 << i:2 << i])
            kernel = np.add.reduce((span == 0).view(np.uint8), axis=0, dtype=np.uint16)
            table[cuts[k:k + width], m:m + members] = (c + 1 - np.frexp(kernel)[1]).T


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
    weights = [p ** (n - r) for r in range(n + 1)]
    checks = []
    for b, ranks in zip(bips, table):
        lhs = Fraction(d + sum(map(mul, np.bincount(ranks).tolist(), weights)),
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


def _analysis(s: MubSet, bipartitions) -> tuple:
    """What a report holds: its fields other than the bipartitions, the
    cuts, their rank table, and their design checks (None unless the
    family is complete).  All bipartitions by default; ValueError, before
    any is built, if they are over ALL_CUTS_LIMIT."""
    if bipartitions is None:
        cuts = 2 ** (s.n - 1) - 1
        if cuts * max(len(s.stack), 2**7) > ALL_CUTS_LIMIT:
            raise ValueError(f"all {cuts} bipartitions of n = {s.n} times "
                             f"max({len(s.stack)} members, 128) exceed "
                             f"ALL_CUTS_LIMIT = {ALL_CUTS_LIMIT}; name a bipartition")
        bipartitions = all_bipartitions(s.n)
    bips = list(bipartitions)
    table = _rank_table(s.stack, s.p, bips)
    checks = _design_checks(s.p, s.n, bips, table) if len(s.stack) == s.dim else None
    labels = _labels(s.stack, s.p)
    head = {"p": s.p, "n": s.n, "labels": labels, "census": dict(Counter(labels)),
            "computational_basis": FULLY_SEPARABLE}
    return head, bips, table, checks


def analysis_report(s: MubSet, bipartitions=None) -> dict:
    """Per-graph ranks, purities and labels, keyed by bipartition,
    plus the exact two sides of the design identity (see `_analysis`)."""
    report, bips, table, checks = _analysis(s, bipartitions)
    report["bipartitions"] = {}
    purity = np.array([str(Fraction(1, s.p**r)) for r in range(s.n + 1)], dtype=object)
    for i, (b, ranks) in enumerate(zip(bips, table)):
        entry = {"ranks": ranks.tolist(), "purities": purity[ranks].tolist()}
        if checks is not None:
            entry.update(design_lhs=str(checks[i].lhs), design_rhs=str(checks[i].rhs),
                         design_pass=checks[i].passed)
        report["bipartitions"][b.key()] = entry
    return report


def analysis_parts(s: MubSet, bipartitions=None) -> Iterator[str]:
    """canonical_json(analysis_report(s, bipartitions)) as an iterator of
    pieces, written straight from the rank table: no Python int or str is
    built per member and rank.  The cuts go out in key order, REPORT_BLOCK
    ranks at a time, each block's rank and purity rows joined by
    `_joined_rows`.  Refusals raise here, before the first piece."""
    head, bips, table, checks = _analysis(s, bipartitions)
    return _report_pieces(s, bips, table, checks, canonical_json(head))


def _design_json(check: DesignCheck) -> str:
    """A report entry's design fields in canonical JSON, unbraced, and a
    ",": their values are a bool and two Fractions, whose text is
    JSON-safe."""
    return (f'"design_lhs":"{check.lhs}","design_pass":{json.dumps(check.passed)},'
            f'"design_rhs":"{check.rhs}",')


def _report_pieces(s: MubSet, bips: list[Bipartition], table: np.ndarray, checks,
                   head: str) -> Iterator[str]:
    cuts = sorted({b.key(): i for i, b in enumerate(bips)}.items())  # a repeated cut is one entry
    ranks = [str(r) for r in range(s.n // 2 + 1)]  # a rank is at most min(|X|, |Y|)
    purities = [f'"{Fraction(1, s.p**r)}"' for r in range(s.n // 2 + 1)]
    step = max(1, REPORT_BLOCK // max(1, len(s.stack)))
    sep = ""
    yield '{"bipartitions":{'
    for a in range(0, len(cuts), step):
        chunk = cuts[a:a + step]
        block = table[[i for _, i in chunk]]
        for (key, i), purity, rank in zip(chunk, _joined_rows(block, purities),
                                          _joined_rows(block, ranks)):
            design = "" if checks is None else _design_json(checks[i])
            yield f'{sep}"{key}":{{{design}"purities":[{purity}],"ranks":[{rank}]}}'
            sep = ","
    yield "}," + head[1:]


def _joined_rows(block: np.ndarray, texts: list[str]) -> list[str]:
    """",".join(texts[v] for v in row) for each row of an int array of
    indices into texts (ASCII, no NUL).  Each text, after a ",", fills a
    code of w bytes, zero-padded (w a power of two, or a multiple of 8),
    and one gather of the codes as words lays the block's rows back to
    back; with the zero bytes dropped (none when every code is full) the
    rows are cut at offsets summed from the text lengths, and each one's
    leading "," is dropped."""
    sizes = np.array([len(t) + 1 for t in texts])
    top = int(sizes.max())
    w = 1 << (top - 1).bit_length() if top <= 8 else -(-top // 8) * 8
    codes = np.zeros((len(texts), w), dtype=np.uint8)
    for v, t in enumerate(texts):
        codes[v, :sizes[v]] = np.frombuffer(("," + t).encode(), dtype=np.uint8)
    grid = np.take(codes.view(f"<u{min(w, 8)}"), block, axis=0).view(np.uint8)
    text = (grid if (sizes == w).all() else grid[grid != 0]).tobytes().decode()
    ends = np.cumsum(sizes[block].sum(axis=1)).tolist()
    return [text[a + 1:b] for a, b in zip([0] + ends, ends)]
