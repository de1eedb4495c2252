"""Independent brute-force oracles used to cross-check the fast paths.

These deliberately use different algorithms than the library: trial
factorization instead of the distinct-degree test, explicit group-order
stepping instead of the factored order test, Laplace cofactor
expansion instead of Berkowitz and Gaussian elimination (one cofactor
determinant per member or pair instead of the stacked elimination),
polynomial arithmetic instead of the int64 tridiagonal recursion,
explicit matrix powers instead of the coefficient table, dense
basis-matrix grams instead of the difference-class Fourier sweep, the
rank rule for the overlap spectrum of a difference B instead of its
Fourier transform, one explicit state pair per sampled overlap instead
of the batched exponent matmul, a scan of every bipartition's crossing
block instead of the component walk, explicit combinations of powers
with a cofactor determinant per member instead of the characteristic-
polynomial field proof, a dict of nested-tuple differences instead of
the set of packed int64 keys of the difference-class walk, a span
enumerated one difference at a time instead of the rank and sorted keys
of the affine check, an XOR basis of
Python-int rows instead of the packed uint64 fields of the p = 2
elimination, one
`Fraction` term and one purity string per member instead of the rank
histogram and the per-rank lookup of the analysis report, and plain
`json.dumps` of the list-form document instead of the stack encoder's
digit grid.
"""

import json
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from graphmub.entanglement import (
    BISEPARABLE,
    FULLY_SEPARABLE,
    GENUINELY_MULTIPARTITE,
    GHZ_TYPE,
)
from graphmub.fields import PolyZp
from graphmub.linalg import MatZp
from graphmub.mubs import MuConditionReport
from graphmub.states import NumericReport, basis_element, basis_matrix, overlap


def all_monic(p: int, n: int):
    """Every monic polynomial of degree n over Z_p."""
    for tail in product(range(p), repeat=n):
        yield PolyZp(p, list(tail) + [1])


def irreducible_brute(f: PolyZp) -> bool:
    """Trial division by every monic polynomial of degree 1..n/2."""
    n = f.degree
    for d in range(1, n // 2 + 1):
        for g in all_monic(f.p, d):
            if (f % g).is_zero:
                return False
    return True


def order_of_x_brute(f: PolyZp) -> int:
    """Multiplicative order of x mod f by explicit stepping."""
    x = PolyZp.x(f.p)
    one = PolyZp.one(f.p)
    acc = x % f
    order = 1
    limit = f.p ** f.degree
    while acc != one:
        acc = (acc * x) % f
        order += 1
        if order > limit:
            raise AssertionError("x is not invertible mod f")
    return order


def det_cofactor(rows: list[list[int]], p: int) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j, a in enumerate(rows[0]):
        if a % p == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * a * det_cofactor(minor, p)
    return total % p


def char_poly_cofactor(m: MatZp) -> PolyZp:
    """det(x*1 - M) by cofactor expansion over Z_p[x]."""
    p, n = m.p, m.n
    x = PolyZp.x(p)
    entries = [
        [
            (x if i == j else PolyZp.zero(p)) - PolyZp(p, [m[i, j]])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def expand(block):
        k = len(block)
        if k == 1:
            return block[0][0]
        total = PolyZp.zero(p)
        for j in range(k):
            a = block[0][j]
            if a.is_zero:
                continue
            minor = [r[:j] + r[j + 1 :] for r in block[1:]]
            term = a * expand(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    return expand(entries)


def rank_brute(block: list[list[int]], p: int) -> int:
    """Rank as the size of the largest nonsingular square sub-block."""
    nr, nc = len(block), len(block[0]) if block else 0
    best = 0
    for k in range(1, min(nr, nc) + 1):
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                sub = [[block[i][j] for j in ci] for i in ri]
                if det_cofactor(sub, p) != 0:
                    best = k
                    break
            else:
                continue
            break
    return best


def rank_gf2_basis(block) -> int:
    """Rank over Z_2 of integer rows, each row one Python int of its
    parities, reduced against an XOR basis kept by leading bit."""
    basis = {}
    for row in block:
        v = sum(int(e) % 2 << j for j, e in enumerate(row))
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def tridiag_char_poly_brute(p: int, d) -> PolyZp:
    """The three-term recursion D_k = (x - d_{n+1-k}) D_{k-1} - D_{k-2} in
    PolyZp arithmetic, from D_0 = 1 and D_{-1} = 0."""
    prev, cur = PolyZp.zero(p), PolyZp.one(p)
    for v in reversed(list(d)):
        prev, cur = cur, (PolyZp.x(p) - PolyZp(p, [v % p])) * cur - prev
    return cur


def power_enumeration(q: MatZp) -> set:
    """{Q^k : 0 <= k < p^n - 1} together with the zero matrix, by repeated
    multiplication; it is the whole family exactly when the characteristic
    polynomial of Q is primitive."""
    acc = MatZp.identity(q.p, q.n)
    out = {acc, MatZp.zeros(q.p, q.n)}
    for _ in range(q.p**q.n - 2):
        acc = acc @ q
        out.add(acc)
    return out


def field_brute(s) -> bool:
    """MubSet.field_rep from the definition: p^n members, member i equal to
    sum_k a_k Q^k for the base-p digits a of i, Q = member p (the powers
    are I alone for n = 1), and every nonzero member invertible, which
    makes Z_p[Q] a field."""
    p, n, mats = s.p, s.n, s.matrices
    if len(mats) != p**n:
        return False
    powers = [mats[p] ** k for k in range(n)] if n > 1 else [MatZp.identity(p, 1)]
    for i, m in enumerate(mats):
        combo = MatZp.zeros(p, n)
        for k, g in enumerate(powers):
            combo = combo + g.scale(i // p**k % p)
        if m != combo:
            return False
    return all(det_cofactor(m.to_lists(), p) != 0 for m in mats[1:])


def mu_condition_scalar(s, pairwise: bool = False) -> MuConditionReport:
    """verify_mu_condition by one cofactor determinant per member (closure
    mode, for field_rep families) or per pair, stopping at the first
    singular one."""
    mats = s.matrices
    if s.field_rep and not pairwise:
        for idx in range(1, len(mats)):
            if det_cofactor(mats[idx].to_lists(), s.p) == 0:
                return MuConditionReport(ok=False, mode="closure", failing_pair=(idx, 0))
        return MuConditionReport(ok=True, mode="closure", failing_pair=None)
    for r, t in combinations(range(len(mats)), 2):
        if det_cofactor((mats[r] - mats[t]).to_lists(), s.p) == 0:
            return MuConditionReport(ok=False, mode="pairwise", failing_pair=(r, t))
    return MuConditionReport(ok=True, mode="pairwise", failing_pair=None)


def difference_rows_brute(stack, p: int) -> dict:
    """A dict from each distinct difference (A_t - A_r) mod p, as nested
    tuples, to its least pair (r, t), t > r, in row-major order."""
    first = {}
    for r, t in combinations(range(len(stack)), 2):
        d = tuple(tuple(int(v) % p for v in line) for line in np.subtract(stack[t], stack[r]))
        first.setdefault(d, (r, t))
    return first


def affine_brute(stack, p: int) -> bool:
    """True when the members form a coset s_0 + G of a Z_p-subspace G: the
    differences from member 0 are distinct and are all of the span they
    generate, enumerated by adding every multiple of each difference not
    yet in it."""
    rows = [tuple(int(v) % p for v in np.ravel(m)) for m in stack]
    diffs = {tuple((a - b) % p for a, b in zip(row, rows[0])) for row in rows}
    span = {(0,) * len(rows[0])}
    for g in diffs:
        if g not in span:
            span = {tuple((x + c * y) % p for x, y in zip(v, g)) for v in span for c in range(p)}
            if len(span) > len(rows):
                return False
    return len(diffs) == len(rows) and span == diffs


def numeric_sweep_brute(s, tol: float = 1e-10) -> NumericReport:
    """Full overlap sweep from explicit basis matrices: one d x d gram per
    pair of bases, O(d^3) each; the computational basis comes last."""
    d = s.dim
    bases = [basis_matrix(a) for a in s.matrices] + [np.eye(d)]
    worst = 0.0
    first = None
    pairs = 0
    for r, t in combinations(range(len(bases)), 2):
        dev = np.abs(np.abs(bases[r].conj().T @ bases[t]) ** 2 - 1.0 / d)
        mr, ms = np.unravel_index(int(np.argmax(dev)), dev.shape)
        pairs += 1
        worst = max(worst, float(dev[mr, ms]))
        if first is None and dev[mr, ms] > tol:
            first = (r, t, int(mr), int(ms), float(dev[mr, ms]))
    return NumericReport(ok=first is None, mode="full", pairs_checked=pairs,
                         worst_deviation=worst, first_violation=first)


def difference_spectrum(b: MatZp) -> list[float]:
    """Exact squared overlaps, in descending order over the label
    differences, of two graph bases whose adjacency matrices differ by the
    symmetric B: p^k / d on exactly p^(n-k) labels and 0 on the rest, with
    nullity k = n - rank_p(B) by rank_brute."""
    p, n = b.p, b.n
    k = n - rank_brute(b.to_lists(), p)
    hits = p ** (n - k)
    return [p**k / p**n] * hits + [0.0] * (p**n - hits)


def numeric_worst_exact(s) -> float:
    """The full sweep's worst deviation from difference_spectrum: the
    largest |overlap - 1/d| over the pairs of graph bases, (p^k - 1)/d
    for the pair of largest nullity k (the computational basis is flat)."""
    d = s.dim
    return max((abs(v - 1 / d) for a, b in combinations(s.matrices, 2)
                for v in difference_spectrum(b - a)), default=0.0)


def numeric_sampled_brute(s, draws, tol: float = 1e-10) -> NumericReport:
    """Sampled overlap check from explicit vectors, one basis_element pair
    per draw (r, t, m_r, m_s); index len(s.matrices) is the computational
    basis, whose elements are unit vectors."""
    d, comp = s.dim, len(s.matrices)

    def element(basis: int, label: int) -> np.ndarray:
        if basis == comp:
            unit = np.zeros(d, dtype=np.complex128)
            unit[label] = 1
            return unit
        digits = np.unravel_index(label, (s.p,) * s.n)
        return basis_element(s.matrices[basis], [int(v) for v in digits])

    worst = 0.0
    first = None
    for r, t, mr, ms in zip(*(v.tolist() for v in draws)):
        dev = abs(overlap(element(r, mr), element(t, ms)) - 1.0 / d)
        worst = max(worst, dev)
        if first is None and dev > tol:
            first = (r, t, mr, ms, dev)
    return NumericReport(ok=first is None, mode=f"sampled({len(draws[0])})",
                         pairs_checked=len(draws[0]), worst_deviation=worst,
                         first_violation=first)


def classify_by_bipartitions(a: MatZp) -> str:
    """Entanglement label by scanning all 2^(n-1) - 1 cuts X|Y (vertex 0
    on the X side): biseparable when some crossing block has rank 0."""
    n, p = a.n, a.p
    edges = [[i != j and a[i, j] != 0 for j in range(n)] for i in range(n)]
    if not any(edges[i][j] for i in range(n) for j in range(i + 1, n)):
        return FULLY_SEPARABLE
    for size in range(1, n):
        for rest in combinations(range(1, n), size - 1):
            x = (0,) + rest
            y = [v for v in range(n) if v not in x]
            if rank_brute(a.submatrix(x, y), p) == 0:
                return BISEPARABLE
    degrees = sorted(sum(row) for row in edges)
    if p == 2 and (degrees == [n - 1] * n or degrees == [1] * (n - 1) + [n - 1]):
        return GHZ_TYPE
    return GENUINELY_MULTIPARTITE


def analysis_report_brute(s, cuts=None) -> dict:
    """analysis_report member by member: rank_brute of each crossing block,
    one purity string and one Fraction term of the design sum per member,
    and labels from the bipartition scan.  cuts are X sides (1-based); by
    default every X that holds vertex 1."""
    p, n, mats = s.p, s.n, s.matrices
    if cuts is None:
        cuts = [(1,) + rest for size in range(n - 1)
                for rest in combinations(range(2, n + 1), size)]
    labels = [classify_by_bipartitions(m) for m in mats]
    report = {"p": p, "n": n, "labels": labels,
              "census": {label: labels.count(label) for label in set(labels)},
              "computational_basis": FULLY_SEPARABLE, "bipartitions": {}}
    for x in cuts:
        y = [v for v in range(1, n + 1) if v not in x]
        ranks = [rank_brute(m.submatrix([v - 1 for v in x], [v - 1 for v in y]), p)
                 for m in mats]
        entry = {"ranks": ranks, "purities": [str(Fraction(1, p**r)) for r in ranks]}
        if len(mats) == p**n:
            lhs = Fraction(1)
            for r in ranks:
                lhs += Fraction(1, p**r)
            lhs /= len(mats) + 1
            dx, dy = p ** len(x), p ** len(y)
            rhs = Fraction(dx + dy, dx * dy + 1)
            entry.update(design_lhs=str(lhs), design_rhs=str(rhs), design_pass=lhs == rhs)
        report["bipartitions"][",".join(map(str, x)) + "|" + ",".join(map(str, y))] = entry
    return report


def canonical_json_brute(doc: dict) -> str:
    """The canonical document bytes by `json.dumps` over nested lists
    (`to_document`), with no stack encoder and no top-level join."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
