"""Span tracing of graphmub's layers from outside the package.

``Tracer.install()`` wraps the measured functions of each module at every
name they are reached through: module globals of graphmub and of every
submodule that imported them (``entanglement.rank_mod_p`` and
``linalg.rank_mod_p``; ``cli.verify_mu_condition`` and
``mubs.verify_mu_condition``), and class attributes for methods
(``MatZp.det``, ``PolyZp.is_irreducible``).  ``uninstall()`` puts every
original back.  Spans (name, start, end, parent) are kept in flat arrays in
memory and written out once, by ``write_spans``, when the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

import graphmub
from graphmub.fields import PolyZp
from graphmub.linalg import MatZp

MODULES = ("fields", "linalg", "symrep", "mubs", "states", "entanglement", "tables", "cli")

# (layer, owner, attribute, how): "span" records a span, "count" only
# counts calls (cheap enough for the innermost arithmetic).
MEASURED = (
    ("fields", PolyZp, "is_irreducible", "span"),
    ("fields", PolyZp, "is_primitive", "span"),
    ("symrep", "symrep", "tridiag_search", "span"),
    ("symrep", "symrep", "tridiag_char_poly", "count"),
    ("symrep", "symrep", "symmetrize_companion", "span"),
    ("linalg", MatZp, "det", "span"),
    ("linalg", MatZp, "char_poly", "span"),
    ("linalg", MatZp, "__matmul__", "count"),
    ("linalg", MatZp, "__add__", "count"),
    ("linalg", "linalg", "rank_mod_p", "span"),
    ("mubs", "mubs", "adjacency_set", "span"),
    ("mubs", "mubs", "verify_mu_condition", "span"),
    ("mubs", "mubs", "from_document", "span"),
    ("mubs", "mubs", "canonical_json", "span"),
    ("states", "states", "graph_state", "span"),
    ("states", "states", "verify_mu_numeric", "span"),
    ("entanglement", "entanglement", "classify_basis", "span"),
    ("entanglement", "entanglement", "connectivity_rank", "span"),
    ("entanglement", "entanglement", "design_purity_check", "span"),
    ("entanglement", "entanglement", "analysis_report", "span"),
    ("cli", "cli", "main", "span"),
)

_SHORT = {"__matmul__": "matmul", "__add__": "add"}

# What to keep from a span's return value (the rest is dropped at once).
KEEP = {
    "symrep.tridiag_search": lambda d: d is not None,
    "mubs.verify_mu_condition": lambda report: report.mode,
    "mubs.canonical_json": lambda text: len(text.encode()),
    "states.verify_mu_numeric": lambda report: (report.pairs_checked,
                                                report.worst_deviation),
}


def metric_name(layer: str, attr: str) -> str:
    return f"{layer}.{_SHORT.get(attr, attr)}"


class Tracer:
    """Records spans while installed and ``recording`` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: array = array("H")
        self.parent: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self.counts: Counter = Counter()
        self.results: dict[str, list] = {}
        self.recording = False
        self._busy = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        mods = [graphmub] + [sys.modules[f"graphmub.{m}"] for m in MODULES]
        for layer, owner, attr, how in MEASURED:
            name = metric_name(layer, attr)
            if isinstance(owner, str):
                original = getattr(sys.modules[f"graphmub.{owner}"], attr)
                owners = [m for m in mods if getattr(m, attr, None) is original]
            else:
                original = owner.__dict__[attr]
                owners = [owner]
            wrapper = (self.wrap if how == "span" else self._count_wrapper)(name, original)
            for o in owners:
                setattr(o, attr, wrapper)
                self._patched.append((o, attr, original))

    def uninstall(self) -> None:
        for o, attr, original in reversed(self._patched):
            setattr(o, attr, original)
        if any(getattr(o, attr) is not original for o, attr, original in self._patched):
            raise RuntimeError("a traced name was not restored")
        self._patched.clear()

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.recording:
                counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, name, fn):
        """``fn`` recording a span called ``name`` while ``recording``."""
        self.names.append(name)
        nid = len(self.names) - 1
        keep = KEEP.get(name)
        results = self.results.setdefault(name, [])
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            # _busy marks the bookkeeping, which a signal handler that calls
            # a wrapped function (the calibration kernel) must not interleave
            if not self.recording or self._busy:
                return fn(*args, **kwargs)
            self._busy = True
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            self._busy = False
            try:
                out = fn(*args, **kwargs)
            finally:
                self._busy = True
                self.end[idx] = clock()
                stack.pop()
                self._busy = False
            if keep is not None:
                results.append(keep(out))
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per span name, calls per counted name, and the
        derived ratios named in the benchmark."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for layer, _, attr, how in MEASURED:
            if how == "count":
                out[f"{metric_name(layer, attr)}.calls"] = self.counts[metric_name(layer, attr)]

        hits = self.results["symrep.tridiag_search"]
        out["symrep.tridiag_hit_ratio"] = sum(hits) / len(hits) if hits else 0.0
        modes = Counter(self.results["mubs.verify_mu_condition"])
        out["mubs.verify.closure_calls"] = modes["closure"]
        out["mubs.verify.pairwise_calls"] = modes["pairwise"]
        out["mubs.canonical_json.bytes"] = sum(self.results["mubs.canonical_json"])
        numeric = self.results["states.verify_mu_numeric"]
        out["states.pairs_checked"] = sum(pairs for pairs, _ in numeric)
        out["states.worst_deviation"] = max((worst for _, worst in numeric), default=0.0)

        classify = self.names.index("entanglement.classify_basis")
        rank = self.names.index("entanglement.connectivity_rank")
        under = 0
        for i in range(n):
            if self.name_of[i] == rank:
                par = self.parent[i]
                while par >= 0 and self.name_of[par] != classify:
                    par = self.parent[par]
                under += par >= 0
        classify_calls = calls["entanglement.classify_basis"]
        out["entanglement.ranks_per_classify"] = under / classify_calls if classify_calls else 0.0
        return out

    def write_spans(self, path) -> None:
        """Gzipped CSV, one span per row: name index (into the ``# names``
        header line), start and end in microseconds from the first span,
        and the parent's row number (-1 for a root)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names " + " ".join(self.names) + "\n")
            fh.write("name,start_us,end_us,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name_of[i]},{(self.start[i] - t0) * 1e6:.1f},"
                         f"{(self.end[i] - t0) * 1e6:.1f},{self.parent[i]}\n")
