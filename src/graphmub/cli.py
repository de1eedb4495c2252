"""Batch front end: generate, verify, analyze and export MUB families.

Exit codes: 0 success/pass, 1 verification failure, 2 usage error,
3 construction failure.  Given identical flags the output is
byte-identical (fixed search orders, canonical JSON, no randomness
except the seeded sampler).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from .entanglement import Bipartition, analysis_parts
from .fields import PolyZp, check_prime
from .linalg import MatZp
from .mubs import (
    MubSet,
    canonical_json,
    canonical_parts,
    mub_set,
    read_document,
    stack_document,
    verify_mu_condition,
)
from .states import circuit_to_text, emit_measurement_circuit, verify_mu_numeric
from .symrep import (
    ConstructionError,
    symmetrizing_form_odd,
    symmetrize_companion,
    tridiagonal_rep,
)
from .tables import derive_rows

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3


def _prime(text: str) -> int:
    v = int(text)
    try:
        return check_prime(v)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"{v} must be >= 1")
    return v


def _tolerance(text: str) -> float:
    v = float(text)
    if not (math.isfinite(v) and v >= 0):
        raise argparse.ArgumentTypeError(f"{text} must be a finite number >= 0")
    return v


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmub",
        description="Construct, verify and analyze complete sets of "
                    "mutually unbiased graph bases for prime-power dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct a family and emit its document")
    gen.add_argument("-p", type=_prime, required=True, help="prime qupit dimension")
    gen.add_argument("-n", type=_positive, required=True, help="number of qupits")
    gen.add_argument("--method", choices=("tridiag", "companion", "auto"),
                     default="auto")
    gen.add_argument("--poly", type=_csv_ints, metavar="C0,C1,...",
                     help="target polynomial, ascending coefficients")
    gen.add_argument("--d", type=_csv_ints, metavar="D1,...,DN",
                     help="explicit tridiagonal diagonal")
    gen.add_argument("--primitive", action="store_true",
                     help="demand a primitive characteristic polynomial")
    gen.add_argument("--out", help="output path (default stdout)")

    ver = sub.add_parser("verify", help="check a family document")
    ver.add_argument("doc", nargs="?", default="-", help="document path or - for stdin")
    ver.add_argument("--numeric", action="store_true",
                     help="also sweep state-vector overlaps")
    ver.add_argument("--tol", type=_tolerance, default=1e-10)
    ver.add_argument("--sample", type=_positive,
                     help="sampled overlap count instead of the full sweep")

    ana = sub.add_parser("analyze", help="entanglement and design-identity report")
    ana.add_argument("doc", nargs="?", default="-")
    ana.add_argument("--bipartition", type=_csv_ints, metavar="I,J,...",
                     help="X-side vertex indices (default: all bipartitions)")
    ana.add_argument("--out")

    exp = sub.add_parser("export", help="re-emit a document as json, dot or circuits")
    exp.add_argument("doc", nargs="?", default="-")
    exp.add_argument("--format", choices=("json", "dot", "circuit"), default="json")
    exp.add_argument("--index", type=int,
                     help="restrict to one adjacency matrix")
    exp.add_argument("--out")

    tab = sub.add_parser("tables", help="re-derive the curated diagonal tables")
    tab.add_argument("-p", type=_prime, help="restrict to one prime")
    tab.add_argument("--out")

    exa = sub.add_parser("example", help="replay a worked construction end to end")
    exa.add_argument("name", choices=("appendix-c", "appendix-d"),
                     help="appendix-c: three qutrits via companion symmetrization; "
                          "appendix-d: three qubits via a tridiagonal diagonal")

    return parser


def _write(parts: Iterable[str], out: str | None) -> int:
    """Write the pieces of a text one at a time, so the whole text (an
    all-cuts report is tens of MB) is never joined or encoded at once;
    the exit code.  An `out` path that cannot be opened is a usage error.
    A reader that closes stdout (`| head`) got all it asked for: stdout
    is pointed at devnull, so the flush at shutdown prints nothing."""
    if out:
        try:
            fh = open(out, "w")
        except OSError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        with fh:
            fh.writelines(parts)
        return EXIT_OK
    try:
        sys.stdout.writelines(parts)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


def _load(path: str) -> MubSet | None:
    """The family at path (- for stdin), or None after a `malformed input`
    line on stderr (nesting too deep to parse included).  The bytes are
    held by `read_document` alone, which drops them once decoded."""
    try:
        return read_document(sys.stdin.buffer.read() if path == "-"
                             else Path(path).read_bytes())
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return None


def _fmt_matrix(m: MatZp) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in m.rows)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    poly = PolyZp(args.p, args.poly) if args.poly is not None else None
    try:
        fam = mub_set(args.p, args.n, method=args.method, poly=poly,
                      d=args.d, primitive=args.primitive)
    except ConstructionError as exc:
        print(f"construction failure: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _write(canonical_parts(stack_document(fam)), args.out)


def _cmd_verify(args) -> int:
    if args.sample is not None and not args.numeric:
        print("usage error: --sample needs --numeric", file=sys.stderr)
        return EXIT_USAGE
    fam = _load(args.doc)
    if fam is None:
        return EXIT_USAGE
    if len(fam.stack) != fam.dim:
        print(f"FAIL incomplete family: {len(fam.stack)} of p^n = {fam.dim} "
              f"matrices", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    algebraic = verify_mu_condition(fam)
    if not algebraic.ok:
        r, t = algebraic.failing_pair
        print(f"FAIL algebraic (difference condition): matrices {r} and {t} "
              f"have a singular difference", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    _write([f"algebraic difference condition: pass "
            f"({algebraic.mode} mode, {len(fam.stack)} matrices)\n"], None)
    if args.numeric:
        try:
            report = verify_mu_numeric(fam, tol=args.tol, sample=args.sample)
        except ValueError as exc:  # above FULL_SWEEP_LIMIT, or inexact in float64
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not report.ok:
            r, t, mr, ms, dev = report.first_violation
            print(f"FAIL numeric (overlap): bases {r},{t} elements {mr},{ms} "
                  f"deviate by {dev:.3e} (tol {args.tol:.1e})", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        _write([f"numeric overlap sweep: pass ({report.mode}, "
                f"{report.pairs_checked} checks, worst deviation "
                f"{report.worst_deviation:.3e})\n"], None)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    fam = _load(args.doc)
    if fam is None:
        return EXIT_USAGE
    try:
        bips = None if args.bipartition is None else [Bipartition.of(args.bipartition, fam.n)]
        parts = analysis_parts(fam, bips)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _write(parts, args.out)


def adjacency_to_dot(m: MatZp, name: str) -> str:
    """Multigraph DOT form: vertices 1..n, multiplicities as edge labels,
    self-loops as labeled loop edges."""
    lines = [f"graph {name} {{"]
    for i in range(1, m.n + 1):
        lines.append(f"  {i};")
    for i in range(m.n):
        for j in range(i, m.n):
            k = m[i, j]
            if k:
                lines.append(f'  {i + 1} -- {j + 1} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_export(args) -> int:
    if args.index is not None and args.format == "json":
        print("usage error: --index needs --format dot or circuit", file=sys.stderr)
        return EXIT_USAGE
    fam = _load(args.doc)
    if fam is None:
        return EXIT_USAGE
    indices = range(len(fam.stack))
    if args.index is not None:
        if not 0 <= args.index < len(fam.stack):
            print(f"index {args.index} out of range", file=sys.stderr)
            return EXIT_USAGE
        indices = [args.index]

    def member(i):  # only the emitted members become MatZp
        return MatZp(fam.p, fam.stack[i].tolist())

    if args.format == "json":
        out = canonical_parts(stack_document(fam))
    elif args.format == "dot":
        out = [adjacency_to_dot(member(i), f"g{i}") for i in indices]
    else:
        out = ["\n".join(circuit_to_text(emit_measurement_circuit(member(i)))
                          for i in indices)]
    return _write(out, args.out)


def _cmd_tables(args) -> int:
    return _write(map(canonical_json, derive_rows(args.p)), args.out)


def _cmd_example(args) -> int:
    # the example prints as it goes; its text is sent on through _write,
    # so a reader that closes stdout early ends it quietly
    example = _example_three_qutrits if args.name == "appendix-c" else _example_three_qubits
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = example()
    _write([text.getvalue()], None)
    return code


def _example_three_qutrits() -> int:
    f = PolyZp(3, [1, 2, 1, 1])
    print(f"polynomial f = {f} over Z_3 (irreducible: {f.is_irreducible()})")
    rep = symmetrize_companion(f)
    print("companion matrix C:")
    print(_fmt_matrix(rep.companion))
    b0 = symmetrizing_form_odd(f)
    print("base form B_0:")
    print(_fmt_matrix(b0))
    print(f"det(B_0) = {b0.det()}")
    print(f"multiplier g = {rep.multiplier}")
    print("congruence transform P with P (g B_0) P^T = 1:")
    print(_fmt_matrix(rep.transform))
    print("P^-1:")
    print(_fmt_matrix(rep.transform.inverse()))
    print("symmetric seed Q = P C P^-1:")
    print(_fmt_matrix(rep.q))
    print("Q^2:")
    print(_fmt_matrix(rep.q @ rep.q))
    fam = mub_set(3, 3, method="companion", poly=f)
    report = verify_mu_condition(fam)
    print(f"family: {len(fam.stack)} adjacency matrices; "
          f"difference condition {'pass' if report.ok else 'FAIL'}; "
          f"{fam.num_bases} mutually unbiased bases including computational")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _example_three_qubits() -> int:
    d = (1, 0, 0)
    rep = tridiagonal_rep(2, d)
    print(f"diagonal d = {d} over Z_2")
    print("tridiagonal seed Q:")
    print(_fmt_matrix(rep.q))
    print(f"characteristic polynomial: {rep.f} "
          f"(irreducible: {rep.f.is_irreducible()}, primitive: {rep.f.is_primitive()})")
    fam = mub_set(2, 3, d=d)
    for k in range(3):
        print(f"fundamental graph Q^{k}:")
        print(_fmt_matrix(rep.q**k))
    print("all adjacency matrices (index: coefficient vector a_0,a_1,a_2):")
    for idx, m in enumerate(fam.matrices):
        print(f"  index {idx}, coefficients {fam.coeff_vector(idx)}:")
        for row in m.rows:
            print("    " + " ".join(map(str, row)))
    report = verify_mu_condition(fam)
    print(f"difference condition {'pass' if report.ok else 'FAIL'}; "
          f"{fam.num_bases} mutually unbiased bases including computational")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


_HANDLERS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "export": _cmd_export,
    "tables": _cmd_tables,
    "example": _cmd_example,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
