"""Entanglement structure of graph bases and the 2-design purity identity.

The reduced state of a graph state across a bipartition (X|Y) has purity
p^{-rank}, where rank is the Z_p-rank of the |X| x |Y| crossing block of
the adjacency matrix.  That rank is 0 exactly when no edge crosses the
cut, so a basis is biseparable exactly when its edge graph is
disconnected.

Every rank comes from one table, `_rank_table`: the rank of each member
of the (N, n, n) family stack at each cut asked for.  Cuts are arrays,
not objects: `_all_cuts` gives, for each |X|, one int array of X sides
and one of Y sides, and a named `Bipartition` is a one-row pair of the
same kind.  The cuts whose smaller side has c vertices share a crossing
shape, (n - c) x c, each cut's block taken in its own orientation.  For
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
pre-encoded text per rank value, so no per-member int or str is built:
the texts are a NUL-padded bytes array, a block's are gathered by one
`np.take`, and `bytes.translate` drops the padding.  The keys of the
cuts are laid out by the same gather, into one fixed-width bytes array
that sorts in their str order.

Purities are exact rationals, so the averaged-purity identity over a
complete family,

    (1 + sum_i p^{-rank_i}) / (p^n + 1) = (d_X + d_Y) / (d_X d_Y + 1),

is checked with exact equality: the left side's numerators are summed
from the table, one Fraction per distinct value, and the right side
depends only on |X|.  Labels come from a walk over each member's packed
neighbour words.  Self-loops (diagonal entries) are local operations and
never affect any classification here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

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
# 0.03-0.04 us per pair ((2,10) to (2,12)) plus 0.2-0.3 us per cut (one
# member, n = 16 and 17), and CLI `analyze` takes 0.56-0.74 s at 45 MiB
# for a complete (2,12) family (about 0.24 s of ranks and 0.23 s of
# report text) and 0.19-0.32 s for one member at n = 17.  A cut counts
# as at least 2^7 members, so these fit; (2,13), a report of 33M ranks
# (a 33 MB table, a byte a rank), and one member at n = 18 do not (the
# latter's report takes 0.29-0.35 s from the import, at 66 MiB).
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
    """One orientation per split (vertex 1 kept on the X side), in the
    order of `_all_cuts`."""
    return [Bipartition(x=tuple(x), y=tuple(y))
            for xs, ys in _all_cuts(n) for x, y in zip(xs.tolist(), ys.tolist())]


def _all_cuts(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every cut with vertex 1 on the X side, as arrays: for each |X| from
    1 to n - 1, the X sides (vertex 1 and each (|X| - 1)-subset of [2, n],
    in `combinations` order) and their complements, the Y sides, one row
    per cut (1-based, ascending).  The r-subsets grow from the (r - 1)-
    subsets, each row followed by every vertex after its last, and the
    complements of the r-subsets are the (n - 1 - r)-subsets in reverse."""
    levels = [np.zeros((1, 0), dtype=np.intp)]  # the r-subsets of [2, n]
    for r in range(1, n):
        last = levels[-1][:, -1] if r > 1 else np.ones(1, dtype=np.intp)
        counts = n - last
        starts = np.repeat(np.cumsum(counts) - counts - last - 1, counts)
        levels.append(np.hstack([np.repeat(levels[-1], counts, axis=0),
                                 (np.arange(counts.sum()) - starts)[:, None]]))
    return [(np.hstack([np.ones((len(levels[x - 1]), 1), dtype=np.intp), levels[x - 1]]),
             levels[n - x][::-1]) for x in range(1, n)]


def _sides(bips: list[Bipartition]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Named cuts in the form of `_all_cuts`: a one-row pair each."""
    return [(np.array([b.x], dtype=np.intp), np.array([b.y], dtype=np.intp)) for b in bips]


def connectivity_rank(a: MatZp, b: Bipartition) -> int:
    """Z_p-rank of the |X| x |Y| off-diagonal block selected by b: the
    rank table of a stack of one at one cut."""
    return int(_rank_table(np.array([a.rows], dtype=np.int64), a.p, _sides([b]))[0, 0])


def _rank_table(stack: np.ndarray, p: int,
                cuts: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """connectivity_rank of every member of an (N, n, n) stack at every
    cut, given as (X sides, Y sides) array pairs (`_all_cuts`, `_sides`):
    a table with one row per cut, pair after pair, and one column per
    member, on the narrowest unsigned dtype that holds n // 2 (a rank is
    at most min(|X|, |Y|): uint8 up to n = 511).  The cuts whose smaller
    side has c vertices share a crossing shape: each cut's block A[X, Y],
    taken tall (its transpose, the same rank, when |X| < |Y|), has c
    columns from the smaller side.
    For p = 2 (n <= 64, c <= KERNEL_BITS) the ranks come from
    `_count_kernels`; otherwise the (cut, member) pairs of one c are
    gathered by flat offsets into the stack, GATHER_BLOCK entries at a
    time, and each gather is one stacked elimination."""
    count, n = len(stack), stack.shape[-1]
    shapes = {}  # per c, the rows and sides of its cuts
    rows = 0
    for xs, ys in cuts:
        x = xs.shape[1]
        if x + ys.shape[1] != n:
            raise ValueError("bipartition size does not match the matrices")
        shapes.setdefault(min(x, n - x), []).append((np.arange(rows, rows + len(xs)), xs, ys))
        rows += len(xs)
    flat = stack.reshape(-1)
    table = np.zeros((rows, count), dtype=np.min_scalar_type(n // 2))
    lines = None  # every member's packed rows, then its packed columns
    for c, groups in shapes.items():
        index = np.concatenate([r for r, _, _ in groups])
        if p == 2 and n <= 64 and c <= KERNEL_BITS:
            if lines is None:
                odd = (stack & 1) != 0
                lines = _words(np.concatenate([odd, odd.transpose(0, 2, 1)], axis=1))[..., 0]
            # X picks rows of the member, Y picks columns (lines n and on)
            picks = np.concatenate([xs - 1 if 2 * xs.shape[1] < n else ys - 1 + n
                                    for _, xs, ys in groups])
            _count_kernels(table, index, picks, lines)
            continue
        offsets = []
        for _, xs, ys in groups:
            block = (xs - 1)[:, :, None] * n + (ys - 1)[:, None, :]
            offsets.append((block.transpose(0, 2, 1) if 2 * xs.shape[1] < n else block)
                           .reshape(len(xs), -1))
        offsets = np.concatenate(offsets)
        pairs, step = len(index) * count, max(1, GATHER_BLOCK // offsets.shape[1])
        for start in range(0, pairs, step):
            cut, member = np.divmod(np.arange(start, min(start + step, pairs)), count)
            block = np.take(flat, (member * n * n)[:, None] + offsets[cut])
            table[index[cut], member] = eliminate_stack(block.reshape(-1, n - c, c), p)
    return table


def _words(bits: np.ndarray) -> np.ndarray:
    """Boolean (..., n) rows packed into words, bit k of a row's word w
    set when entry w B + k is: (..., 1) words of B bits, the narrowest
    unsigned type, for n <= 64, else (..., ceil(n / 64)) words of 64."""
    n = bits.shape[-1]
    word = np.min_scalar_type((1 << min(n, 64)) - 1)
    width = 8 * word.itemsize
    count = -(-n // width)
    if count > 1:
        bits = np.concatenate([bits, np.zeros(bits.shape[:-1] + (count * width - n,), bool)],
                              axis=-1)
    per = bits.shape[-1] // count
    return (bits.reshape(*bits.shape[:-1], count, per)
            @ (np.ones(1, word) << np.arange(per, dtype=word)))


def _count_kernels(table: np.ndarray, cuts: np.ndarray, picks: np.ndarray,
                   lines: np.ndarray) -> None:
    """Fill rows cuts of a p = 2 rank table, where cut k has the smaller
    side picks[k] (c lines, 0-based; line s < n is row s of the member,
    line n + s its column s, so the picked vertices are picks mod n) and
    T the rest.  Column s of a crossing block is line s masked to T
    (lines: (N, 2n) words from `_words`), so the block sends v in Z_2^c
    to the XOR of the lines it picks, and its kernel holds 2^(c - rank)
    vectors.  The XORs of every subset double over the c lines (as
    `states._frequencies` does), one in-place XOR per line, for a
    rectangle of cuts and members of about SPAN_BLOCK subsets in all; the
    zeros among them are the kernel, and rank = c + 1 - the exponent
    `np.frexp` reads off that power of two."""
    count = len(lines)
    # every bit but S's (a line has no bits above n)
    vertices = (picks % (lines.shape[1] // 2)).astype(lines.dtype)
    masks = ~np.bitwise_or.reduce(np.ones(1, lines.dtype) << vertices, axis=1)
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


def _design(p: int, n: int, cuts: list[tuple[np.ndarray, np.ndarray]],
            table: np.ndarray) -> tuple[list[tuple[Fraction, Fraction]], np.ndarray]:
    """The design identity at each cut, from its row of the rank table:
    the averaged purity of a complete family whose N graph bases have
    k_r members of rank r, and the computational basis purity 1,

        (p^n + sum_r k_r p^(n-r)) / (p^n (N + 1)),

    against the Haar value (p^|X| + p^|Y|) / (p^n + 1).  The numerators
    are summed from the table a block of REPORT_BLOCK ranks at a time
    (they stay below p^n (N + 1), so int64 holds them); one Fraction is
    built per distinct numerator and per size.  Returns the distinct
    (lhs, rhs) pairs and each cut's index into them."""
    d, count = p**n, table.shape[1]
    weights = np.array([p ** (n - r) for r in range(n // 2 + 1)], dtype=np.int64)
    step = max(1, REPORT_BLOCK // max(1, count))
    sums = [np.take(weights, table[a:a + step]).sum(axis=1) for a in range(0, len(table), step)]
    values, which = np.unique(np.concatenate(sums + [np.zeros(0, np.int64)]),
                              return_inverse=True)
    lhs = [Fraction(d + v, d * (count + 1)) for v in values.tolist()]
    sizes = np.repeat(np.array([min(xs.shape[1], n - xs.shape[1]) for xs, _ in cuts],
                               dtype=np.int64), [len(xs) for xs, _ in cuts])
    pairs, index = np.unique(which * (n // 2 + 1) + sizes, return_inverse=True)
    return [(lhs[v], Fraction(p**c + p ** (n - c), d + 1))
            for v, c in (divmod(pair, n // 2 + 1) for pair in pairs.tolist())], index


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
    cuts = _sides([b])
    pairs, index = _design(s.p, s.n, cuts, _rank_table(s.stack, s.p, cuts))
    lhs, rhs = pairs[index[0]]
    return DesignCheck(lhs=lhs, rhs=rhs, passed=lhs == rhs)


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
    """classify_basis of every member of an (N, n, n) stack reduced mod p.
    Each vertex's neighbours are packed into words (`_words`); the set
    reached from vertex 0, a word per member, grows by the neighbours of
    the vertices it holds, one edge step per pass, until no member's set
    grows (n - 1 passes reach a whole component)."""
    count, n = stack.shape[:2]
    edges = stack != 0
    edges[:, np.arange(n), np.arange(n)] = False
    degrees = np.count_nonzero(edges, axis=2)
    neighbours = _words(edges)
    bit, shift = np.divmod(np.arange(n), 8 * neighbours.itemsize)
    shift = shift.astype(neighbours.dtype)
    reached = np.zeros((count, neighbours.shape[2]), dtype=neighbours.dtype)
    reached[:, 0] = 1
    for _ in range(n - 1):
        held = (reached[:, bit] >> shift) & 1  # (N, n): 1 where the vertex is reached
        grown = reached | np.bitwise_or.reduce(neighbours * held[:, :, None], axis=1)
        if np.array_equal(grown, reached):
            break
        reached = grown
    connected = (reached == _words(np.ones(n, dtype=bool))).all(axis=1)
    hubs = (degrees == n - 1).sum(axis=1)  # complete graph, or a star
    ghz = (hubs == n) | ((hubs == 1) & ((degrees == 1).sum(axis=1) == n - 1))
    return np.select([~degrees.any(axis=1), ~connected, ghz & (p == 2)],
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
    keys of the cuts (`_keys`), their rank table, and their design pairs
    and indices (`_design`; None unless the family is complete).  All
    bipartitions by default; ValueError, before any is built, if they are
    over ALL_CUTS_LIMIT."""
    if bipartitions is None:
        count = 2 ** (s.n - 1) - 1
        if count * max(len(s.stack), 2**7) > ALL_CUTS_LIMIT:
            raise ValueError(f"all {count} bipartitions of n = {s.n} times "
                             f"max({len(s.stack)} members, 128) exceed "
                             f"ALL_CUTS_LIMIT = {ALL_CUTS_LIMIT}; name a bipartition")
        cuts = _all_cuts(s.n)
    else:
        cuts = _sides(list(bipartitions))
    table = _rank_table(s.stack, s.p, cuts)
    design = _design(s.p, s.n, cuts, table) if len(s.stack) == s.dim else None
    labels = _labels(s.stack, s.p)
    head = {"p": s.p, "n": s.n, "labels": labels, "census": dict(Counter(labels)),
            "computational_basis": FULLY_SEPARABLE}
    return head, _keys(s.n, cuts), table, design


def _keys(n: int, cuts: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Bipartition.key of every cut, in table order, as one bytes array:
    each key holds every vertex once, so all have one width.  A key is
    the text "v" of its first X vertex, ",v" of the other vertices and
    "|v" of the first of Y, laid out by `_laid_out`."""
    texts = ([str(v) for v in range(1, n + 1)] + [f",{v}" for v in range(1, n + 1)]
             + [f"|{v}" for v in range(1, n + 1)])
    keys = [np.zeros(0, dtype=f"S{sum(map(len, texts[n:2 * n])) - 1}")]
    for xs, ys in cuts:
        text = _laid_out(np.hstack([xs[:, :1] - 1, xs[:, 1:] + n - 1,
                                    ys[:, :1] + 2 * n - 1, ys[:, 1:] + n - 1]), texts)
        keys.append(np.frombuffer(text, dtype=keys[0].dtype))
    return np.concatenate(keys)


def analysis_report(s: MubSet, bipartitions=None) -> dict:
    """Per-graph ranks, purities and labels, keyed by bipartition,
    plus the exact two sides of the design identity (see `_analysis`)."""
    report, keys, table, design = _analysis(s, bipartitions)
    report["bipartitions"] = {}
    purity = np.array([str(Fraction(1, s.p**r)) for r in range(s.n + 1)], dtype=object)
    pairs, index = design or ([], np.zeros(len(table), dtype=np.intp))
    for key, ranks, i in zip(keys.tolist(), table, index.tolist()):
        entry = {"ranks": ranks.tolist(), "purities": purity[ranks].tolist()}
        if design is not None:
            lhs, rhs = pairs[i]
            entry.update(design_lhs=str(lhs), design_rhs=str(rhs), design_pass=lhs == rhs)
        report["bipartitions"][key.decode()] = entry
    return report


def analysis_parts(s: MubSet, bipartitions=None) -> Iterator[str]:
    """canonical_json(analysis_report(s, bipartitions)) as an iterator of
    pieces, written straight from the rank table: no Python int or str is
    built per member and rank.  The cuts go out in key order (a bytes
    sort), REPORT_BLOCK ranks at a time, each block's rank and purity rows
    joined by `_joined_rows`, and each cut's design fields are the one
    text `canonical_json` writes for its (lhs, rhs) pair.  Refusals raise
    here, before the first piece."""
    head, keys, table, design = _analysis(s, bipartitions)
    return _report_pieces(s, keys, table, design, canonical_json(head))


def _report_pieces(s: MubSet, keys: np.ndarray, table: np.ndarray, design,
                   head: str) -> Iterator[str]:
    keys, rows = np.unique(keys, return_index=True)  # a repeated cut is one entry
    ranks = [str(r) for r in range(s.n // 2 + 1)]  # a rank is at most min(|X|, |Y|)
    purities = [f'"{Fraction(1, s.p**r)}"' for r in range(s.n // 2 + 1)]
    if design is None:
        designs, index = [""], np.zeros(len(table), dtype=np.intp)
    else:
        designs = [canonical_json({"design_lhs": str(lhs), "design_pass": lhs == rhs,
                                   "design_rhs": str(rhs)})[1:-2] + "," for lhs, rhs in design[0]]
        index = design[1]
    step = max(1, REPORT_BLOCK // max(1, len(s.stack)))
    sep = ""
    yield '{"bipartitions":{'
    for a in range(0, len(rows), step):
        chunk = rows[a:a + step]
        block = table[chunk]
        for key, i, purity, rank in zip(keys[a:a + step].tolist(), index[chunk].tolist(),
                                        _joined_rows(block, purities), _joined_rows(block, ranks)):
            yield f'{sep}"{key.decode()}":{{{designs[i]}"purities":[{purity}],"ranks":[{rank}]}}'
            sep = ","
    yield "}," + head[1:]


def _joined_rows(block: np.ndarray, texts: list[str]) -> list[str]:
    """",".join(texts[v] for v in row) for each row of an int array of
    indices into texts: the rows laid out by `_laid_out` with a "," before
    each text, cut at offsets summed from the text lengths, and each
    one's leading "," dropped."""
    text = _laid_out(block, [f",{t}" for t in texts]).decode()
    ends = np.cumsum(np.array([len(t) + 1 for t in texts])[block].sum(axis=1)).tolist()
    return [text[a + 1:b] for a, b in zip([0] + ends, ends)]


def _laid_out(block: np.ndarray, texts: list[str]) -> bytes:
    """The texts (ASCII, no NUL) indexed by an int array, row after row,
    back to back: one gather from their bytes array, which numpy pads
    with NULs to one width, with the padding dropped."""
    codes = np.array([t.encode() for t in texts])
    return np.take(codes, block).tobytes().translate(None, b"\0")
