#!/usr/bin/env python3
"""graphmub benchmark: in-process CLI workloads with traced layer metrics.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload gen-seeds --seed 1 --seconds 24 --trace 0

One client issues the workload's operations back to back (a closed loop,
no threads), each a ``graphmub.cli.main(argv)`` call.  With ``--trace 0``
the fixed op list is repeated in as many whole passes as fit in
``--seconds`` (at least two) and the end-to-end metrics are reported; with
``--trace 1`` a traced pass between two untraced ones gives the per-layer
metrics and the tracing overhead.  Every op's output is checked outside
its timed span.  Times are scaled to a reference machine speed measured
alongside the ops (see calibration.py); the raw wall times go into the
metadata.  The last line of stdout is the result object; the line before
it holds the environment and run metadata.  Spans, metadata and the result are also
written under ``perfbench/out/``; the spans of a traced run go to a
gzipped CSV there.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
from calibration import Calibrator  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_PASSES = 2
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import graphmub; "
                "print(time.perf_counter() - t)")
KINDS = ("gen", "verify", "verify_full", "verify_sampled", "analyze")


def import_program():
    """Import graphmub from this checkout's src/, never from elsewhere."""
    if not (SRC / "graphmub" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'graphmub'} not found; run from a checkout "
                 "of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import graphmub
    if Path(graphmub.__file__).resolve().parent != SRC / "graphmub":
        sys.exit(f"perfbench: imported graphmub from {graphmub.__file__}, not {SRC}")
    return graphmub


# ---------------------------------------------------------------------------
# Running and checking ops
# ---------------------------------------------------------------------------


def run_op(cli, op):
    """One CLI call; returns (exit code or None, output text, (start, end))."""
    if op.out is not None and op.out.exists():
        op.out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc, error = None, traceback.format_exc()
        t1 = time.perf_counter()
    if error is not None:
        print(f"perfbench: {' '.join(op.argv)} raised\n{error}", file=sys.stderr)
    if op.out is not None:
        text = op.out.read_text() if op.out.exists() else ""
    else:
        text = stdout.getvalue()
    return rc, text, (t0, t1)


class Checker:
    """Checks every op's output; an output identical to one already
    checked for the same op gets the same verdict without re-checking."""

    def __init__(self, ops):
        self.ops = ops
        self.verdicts: dict[tuple[int, int | None, bytes], bool] = {}
        self.attempted = 0
        self.failed = 0
        self.failed_ops: set[int] = set()

    def verdict(self, i: int, rc, text: str) -> bool:
        key = (i, rc, hashlib.sha1(text.encode()).digest())
        if key not in self.verdicts:
            ok = False
            if rc is not None:
                try:
                    ok = bool(self.ops[i].check(rc, text))
                except Exception:
                    traceback.print_exc()
            if not ok:
                print(f"perfbench: check failed (exit {rc}): {' '.join(self.ops[i].argv)}",
                      file=sys.stderr)
            self.verdicts[key] = ok
        return self.verdicts[key]

    def record(self, outputs) -> None:
        for i, (rc, text) in enumerate(outputs):
            self.attempted += 1
            if not self.verdict(i, rc, text):
                self.failed += 1
                self.failed_ops.add(i)


def run_pass(cli, ops, checker, calib, tracer=None):
    """All ops once; returns (wall seconds, scaled seconds) per op.  Checks
    run after the pass, with any tracer stopped."""
    spans, outputs = [], []
    with calib.sampling():
        if tracer is not None:
            tracer.recording = True
        try:
            for op in ops:
                rc, text, span = run_op(cli, op)
                spans.append(span)
                outputs.append((rc, text))
        finally:
            if tracer is not None:
                tracer.recording = False
    checker.record(outputs)
    return [t1 - t0 for t0, t1 in spans], [calib.scaled(t0, t1) for t0, t1 in spans]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_seconds() -> float:
    """Time of ``import graphmub`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(cli, workloads, calib, name: str, seed: int, small: bool = False):
    """Generate the inputs and run one warm-up op per op kind.  Returns the
    workload, the scaled set-up seconds (import included) and whether
    every warm-up output passed its check."""
    with calib.sampling(0):
        t0 = time.perf_counter()
        t_import = import_seconds()
        t1 = time.perf_counter()
        work = OUT / "work" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = workloads.MAKERS[name](random.Random(seed), work, small)
        warm_ok = True
        for op in wl.warmups:
            rc, text, _ = run_op(cli, op)
            warm_ok &= rc is not None and bool(op.check(rc, text))
        t2 = time.perf_counter()
    return wl, (t_import + t2 - t1) * calib.factor(t0, t2), warm_ok


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def p95(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def kind_metrics(ops, latencies) -> dict[str, float]:
    """Seconds per op kind, plus the gen-op latency percentiles."""
    out = {f"{k}_s": sum(t for op, t in zip(ops, latencies) if op.kind == k) for k in KINDS}
    gen = [t for op, t in zip(ops, latencies) if op.kind == "gen"]
    out["gen_op_p50_ms"] = statistics.median(gen) * 1e3 if gen else 0.0
    out["gen_op_p95_ms"] = p95(gen) * 1e3 if gen else 0.0
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def openblas_threads():
    """Thread count reported by a loaded OpenBLAS, or None if there is none."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (ROOT / ".git" / ref).is_file():
        return (ROOT / ".git" / ref).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(workloads, seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
        "loop": "closed, one client, no threads",
        "why": workloads.WHY,
        "why_not_tables": workloads.WHY_NOT_TABLES,
        "baseline_failures": workloads.BASELINE_FAILURES,
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def timed_run(cli, workloads, name, seed, seconds, small=False):
    calib = Calibrator()
    setups = [set_up(cli, workloads, calib, name, seed, small)
              for _ in range(SETUP_REPEATS)]
    wl = setups[-1][0]
    checker = Checker(wl.ops)
    # whole passes, as many as fit in `seconds` but at least two, so that
    # every op's time is a median of several samples
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(cli, wl.ops, checker, calib))
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    # per-op median over passes, so one slow pass cannot move an op
    lat = [statistics.median(ts) for ts in zip(*(scaled for _, scaled in passes))]
    raw = [statistics.median(ts) for ts in zip(*(wall for wall, _ in passes))]
    metrics = {
        "setup_s": statistics.median(s[1] for s in setups),
        "ops_s": sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p95_ms": p95(lat) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"passes": len(passes), "ops_per_pass": len(wl.ops), "latency_samples": len(lat),
           "setup_samples": [s[1] for s in setups],
           "pass_wall_s": [sum(wall) for wall, _ in passes],
           "pass_scaled_s": [sum(scaled) for _, scaled in passes],
           "ops_wall_s": sum(raw), "calibration_samples": len(calib.samples),
           "kinds": kind_metrics(wl.ops, lat)}
    correct = all(s[2] for s in setups)
    return metrics, info, checker, correct, None


def traced_run(cli, workloads, layertrace, name, seed, small=False):
    calib = Calibrator()
    wl, _, correct = set_up(cli, workloads, calib, name, seed, small)
    checker = Checker(wl.ops)
    # untraced passes on both sides of the traced one, so that drift over
    # the run does not show as tracing overhead
    _, before = run_pass(cli, wl.ops, checker, calib)
    tracer = layertrace.Tracer()
    tracer.install()
    calib.kernel = tracer.wrap("calibration.kernel", calibration.kernel)
    try:
        traced_wall, traced = run_pass(cli, wl.ops, checker, calib, tracer)
    finally:
        tracer.uninstall()
        calib.kernel = calibration.kernel
    _, after = run_pass(cli, wl.ops, checker, calib)
    plain = [(a + b) / 2 for a, b in zip(before, after)]
    metrics = tracer.layer_metrics()
    kernel_calls = metrics.pop("calibration.kernel.calls")
    metrics.pop("calibration.kernel.self_s")
    metrics["trace.overhead_s"] = sum(traced) - sum(plain)
    metrics.update(kind_metrics(wl.ops, plain))
    metrics["error_rate"] = checker.failed / checker.attempted
    info = {"passes": 3, "ops_per_pass": len(wl.ops), "spans": len(tracer.start),
           "untraced_scaled_s": [sum(before), sum(after)], "traced_scaled_s": sum(traced),
           "traced_wall_s": sum(traced_wall), "kernel_runs_in_traced_pass": kernel_calls}
    return metrics, info, checker, correct, tracer


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(name, seed, seconds, trace, small=False):
    """Run one workload; returns (metadata, result object)."""
    import_program()
    from graphmub import cli
    import workloads
    import layertrace
    if trace:
        metrics, info, checker, correct, tracer = traced_run(
            cli, workloads, layertrace, name, seed, small)
    else:
        metrics, info, checker, correct, tracer = timed_run(
            cli, workloads, name, seed, seconds, small)
    units = declared_metrics(trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from "
                           "BENCHMARK.json")
    result = {
        # every output was checked; ops whose check failed are in `failed`
        "correct": correct and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    info["failed_ops"] = [" ".join(checker.ops[i].argv) for i in sorted(checker.failed_ops)]
    meta = {"workload": name, "trace": int(trace), "seconds": seconds, "run": info,
            "env": environment(workloads, seed)}
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.csv.gz")
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("gen-seeds", "numeric-full", "analyze-bips", "verify-docs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    meta, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
