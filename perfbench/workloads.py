"""The four benchmark workloads: seeded inputs, the op list, and output checks.

Each workload is a fixed list of user operations.  An operation is one
``graphmub.cli.main(argv)`` call; its check runs on the captured exit
code and output after the call returns, outside the timed span.  The
seed picks which irreducible polynomial seeds each family, the shift
matrices, the corrupted members and the single bipartition; the (p, n)
sizes and the operation counts are fixed, so the work per run does not
depend on the seed.  ``small=True`` swaps every size for (2, 3) and
(3, 2), which the self-test uses.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

from graphmub.fields import PolyZp
from graphmub.linalg import MatZp
from graphmub.mubs import canonical_json, from_document, mub_set, shift_set, to_document

TOL = 1e-10

WHY = {
    "gen-seeds": "every construction route (tridiagonal hit, companion fallback, "
                 "documented exit-3 refusal) over all monic irreducible seeds of five sizes",
    "numeric-full": "dense full overlap sweep in states, where a Fourier-diagonal sweep must show",
    "analyze-bips": "bipartition ranks, design identity and 2^(n-1) classification scans in entanglement",
    "verify-docs": "document loading, closure and pairwise determinants, sampled numeric path "
                   "and negative controls including the forged field_rep document",
}
WHY_NOT_TABLES = ("tables is left unmeasured: no workload uses it and derive_rows() "
                  "re-derives a fixed curated set in about 0.1 s")
# The forged document must exit 1; the program at this commit trusts its
# field_rep flag and exits 0, so this op is a failed op until verification
# stops trusting document claims (ROADMAP "Sound verification from the seed").
BASELINE_FAILURES = {
    "verify-docs": "forged field_rep:true p=2 n=3 document with matrices[3] = matrices[2] "
                   "exits 0 instead of 1",
}


@dataclass
class Op:
    """One CLI call.  ``check(rc, text)`` gets the exit code and the op's
    output: the ``--out`` file when ``out`` is set, stdout otherwise."""

    kind: str
    argv: list[str]
    check: Callable[[int, str], bool]
    out: Path | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmups: list[Op]


def irreducibles(p: int, n: int) -> list[PolyZp]:
    """Every monic irreducible polynomial of degree n over Z_p."""
    out = []
    for tail in product(range(p), repeat=n):
        f = PolyZp(p, list(reversed(tail)) + [1])
        if f.is_irreducible():
            out.append(f)
    return out


def needs_primitive(p: int, n: int) -> bool:
    """The documented multiplier rule: companion symmetrization demands a
    primitive polynomial when p = 3 mod 4 and n = 2 mod 4."""
    return p % 4 == 3 and n % 4 == 2


def seeded_poly(rng: random.Random, p: int, n: int) -> PolyZp:
    fs = irreducibles(p, n)
    if needs_primitive(p, n):
        fs = [f for f in fs if f.is_primitive()]
    return rng.choice(fs)


def random_symmetric(rng: random.Random, p: int, n: int) -> MatZp:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(p)
    return MatZp(p, rows)


def _poly_arg(f: PolyZp) -> str:
    return ",".join(map(str, f.coeffs))


def _write_doc(path: Path, doc: dict) -> Path:
    path.write_text(canonical_json(doc))
    return path


def _family_doc(rng: random.Random, p: int, n: int) -> dict:
    return to_document(mub_set(p, n, poly=seeded_poly(rng, p, n)))


def _shifted_doc(rng: random.Random, p: int, n: int) -> dict:
    fam = mub_set(p, n, poly=seeded_poly(rng, p, n))
    return to_document(shift_set(fam, random_symmetric(rng, p, n)))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _annihilates(f: PolyZp, rows: list[list[int]]) -> bool:
    """f(Q) = 0 mod p by Horner's rule in plain integers.  For irreducible
    f of degree n this proves that the n x n matrix Q has characteristic
    polynomial f, without using the library's own char_poly."""
    p, n = f.p, len(rows)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(f.coeffs):
        acc = [[sum(acc[i][k] * rows[k][j] for k in range(n)) % p for j in range(n)]
               for i in range(n)]
        for i in range(n):
            acc[i][i] = (acc[i][i] + c) % p
    return all(v == 0 for row in acc for v in row)


def check_gen(p: int, n: int, f: PolyZp) -> Callable[[int, str], bool]:
    def check(rc: int, text: str) -> bool:
        if rc == 3:
            return needs_primitive(p, n) and not f.is_primitive()
        if rc != 0:
            return False
        fam = from_document(json.loads(text))
        mats = fam.matrices
        return (fam.p == p and fam.n == n and len(mats) == p**n
                and len(set(mats)) == p**n
                and _annihilates(f, mats[p].to_lists()))
    return check


_SWEEP = re.compile(r"numeric overlap sweep: pass \((\S+), (\d+) checks, "
                    r"worst deviation (\S+)\)")


def check_numeric(mode: str, checks: int) -> Callable[[int, str], bool]:
    def check(rc: int, text: str) -> bool:
        m = _SWEEP.search(text)
        return (rc == 0 and m is not None and m.group(1) == mode
                and int(m.group(2)) == checks and float(m.group(3)) <= TOL)
    return check


def check_exit(expected_rc: int, line: str | None = None) -> Callable[[int, str], bool]:
    def check(rc: int, text: str) -> bool:
        return rc == expected_rc and (line is None or line in text)
    return check


def algebraic_pass(mode: str, count: int) -> str:
    return f"algebraic difference condition: pass ({mode} mode, {count} matrices)"


def check_analysis(p: int, n: int, bipartitions: int) -> Callable[[int, str], bool]:
    def check(rc: int, text: str) -> bool:
        if rc != 0:
            return False
        rep = json.loads(text)
        entries = rep["bipartitions"].values()
        return (len(rep["labels"]) == p**n and len(entries) == bipartitions
                and all(e.get("design_pass") is True for e in entries)
                and rep["census"].get("fully-separable") == p)
    return check


def numeric_pairs(p: int, n: int) -> int:
    nb = p**n + 1
    return nb * (nb - 1) // 2


# ---------------------------------------------------------------------------
# Workloads: generate the input documents, return the op lists
# ---------------------------------------------------------------------------


def gen_seeds(rng: random.Random, work: Path, small: bool) -> Workload:
    sizes = [(2, 3), (3, 2)] if small else [(2, 8), (3, 5), (7, 3), (11, 2), (13, 2)]
    out = work / "gen.json"

    def op(p, n, f):
        argv = ["gen", "-p", str(p), "-n", str(n), "--poly", _poly_arg(f), "--out", str(out)]
        return Op("gen", argv, check_gen(p, n, f), out)

    ops = [op(p, n, f) for p, n in sizes for f in irreducibles(p, n)]
    rng.shuffle(ops)
    return Workload(ops, [op(2, 2, PolyZp(2, [1, 1, 1]))])


def numeric_full(rng: random.Random, work: Path, small: bool) -> Workload:
    sizes = [(2, 3), (3, 2)] if small else [(2, 7), (3, 4)]
    ops = []
    for p, n in sizes:
        doc = _write_doc(work / f"family-{p}-{n}.json", _family_doc(rng, p, n))
        ops.append(Op("verify_full", ["verify", str(doc), "--numeric"],
                      check_numeric("full", numeric_pairs(p, n))))
    warm = _write_doc(work / "warm.json", _family_doc(rng, 2, 2))
    return Workload(ops, [Op("verify_full", ["verify", str(warm), "--numeric"],
                             check_numeric("full", numeric_pairs(2, 2)))])


def analyze_bips(rng: random.Random, work: Path, small: bool) -> Workload:
    sizes = [(2, 3), (3, 2)] if small else [(2, 8), (3, 5), (7, 3)]
    out = work / "analysis.json"
    ops = []
    for p, n in sizes:
        doc = _write_doc(work / f"family-{p}-{n}.json", _family_doc(rng, p, n))
        ops.append(Op("analyze", ["analyze", str(doc), "--out", str(out)],
                      check_analysis(p, n, 2 ** (n - 1) - 1), out))
    # one seeded bipartition on the largest qubit family
    p, n = sizes[0]
    x = sorted(rng.sample(range(1, n + 1), rng.randrange(1, n)))
    ops.append(Op("analyze", ["analyze", ops[0].argv[1], "--bipartition",
                              ",".join(map(str, x)), "--out", str(out)],
                  check_analysis(p, n, 1), out))
    warm = _write_doc(work / "warm.json", _family_doc(rng, 2, 2))
    return Workload(ops, [Op("analyze", ["analyze", str(warm), "--out", str(out)],
                             check_analysis(2, 2, 1), out)])


def forged_doc(rng: random.Random) -> dict:
    """p=2, n=3 family still flagged field_rep: true, with matrices[3]
    overwritten by matrices[2]: two identical bases, overlap 1."""
    doc = _family_doc(rng, 2, 3)
    doc["matrices"][3] = doc["matrices"][2]
    return doc


def corrupted_doc(rng: random.Random, doc: dict) -> dict:
    """Copy one member over another.  Both indices come from the last
    eight members, so the pairwise scan runs nearly to its end whatever
    the seed and the work stays fixed."""
    d = len(doc["matrices"])
    lo = max(0, d - 8)
    i = rng.randrange(lo, d - 1)
    j = rng.randrange(i + 1, d)
    bad = json.loads(json.dumps(doc))
    bad["matrices"][i] = bad["matrices"][j]
    return bad


def verify_docs(rng: random.Random, work: Path, small: bool) -> Workload:
    big = (2, 3) if small else (2, 10)
    shifted = [(2, 3), (3, 2)] if small else [(2, 7), (3, 5), (13, 2)]
    sample = 200 if small else 20000
    closure = _write_doc(work / "closure.json", _family_doc(rng, *big))
    count = big[0] ** big[1]
    ops = [Op("verify", ["verify", str(closure)], check_exit(0, algebraic_pass("closure", count)))]
    shifted_docs = []
    for p, n in shifted:
        doc = _shifted_doc(rng, p, n)
        shifted_docs.append(doc)
        path = _write_doc(work / f"shifted-{p}-{n}.json", doc)
        ops.append(Op("verify", ["verify", str(path)], check_exit(0, algebraic_pass("pairwise", p**n))))
    bad = _write_doc(work / "corrupted.json", corrupted_doc(rng, shifted_docs[0]))
    ops.append(Op("verify", ["verify", str(bad)], check_exit(1)))
    forged = _write_doc(work / "forged.json", forged_doc(rng))
    ops.append(Op("verify", ["verify", str(forged)], check_exit(1)))
    ops.append(Op("verify_sampled",
                  ["verify", str(closure), "--numeric", "--sample", str(sample)],
                  check_numeric(f"sampled({sample})", sample)))
    warm = _write_doc(work / "warm.json", _family_doc(rng, 2, 2))
    warmups = [Op("verify", ["verify", str(warm)], check_exit(0, algebraic_pass("closure", 4))),
               Op("verify_sampled", ["verify", str(warm), "--numeric", "--sample", "50"],
                  check_numeric("sampled(50)", 50))]
    return Workload(ops, warmups)


MAKERS = {
    "gen-seeds": gen_seeds,
    "numeric-full": numeric_full,
    "analyze-bips": analyze_bips,
    "verify-docs": verify_docs,
}
