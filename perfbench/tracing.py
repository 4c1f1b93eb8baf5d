"""Spans around omlat's public functions, installed from outside the package.

Each listed function is rebound in every `omlat` module namespace that holds
it (for example both `omlat.order.canonical_certificate` and
`omlat.search.canonical_certificate`), so calls made inside the package are
traced without editing it.  Spans are kept in memory as
[name, start, end, parent index, outcome] and written out at the end.  Their
times are as measured, not scaled to the reference speed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# The layers are omlat's modules; `reports` and `errors` do no measurable work.
LAYERS = {
    "cli": ("main",),
    "formats": ("parse_structure", "serialize_structure"),
    "order": (
        "poset_from_covers",
        "lattice_from_poset",
        "verify_lattice",
        "canonical_certificate",
    ),
    "search": (
        "enumerate_bounded_lattices",
        "enumerate_omls",
        "enumerate_orthocomplements",
    ),
    "ortho": ("verify_ortholattice", "check_orthomodularity"),
    "residuated": ("verify_lrg",),
    "correspondence": ("sasaki_groupoid", "induced_oml", "round_trip_check"),
}
TRACED = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)

RAISED = "raised"
SEARCH = "search.enumerate_orthocomplements"
LRG = "residuated.verify_lrg"

# What a span keeps of its function's result, for the ratio metrics.
OUTCOMES = {
    SEARCH: len,
    LRG: lambda report: int(not report.overall),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (namespace, attribute, original, wrapper)
        targets = {}
        for module_name, fns in LAYERS.items():
            try:
                module = importlib.import_module(f"omlat.{module_name}")
            except ImportError:
                module = None
            for fn in fns:
                name = f"{module_name}.{fn}"
                original = getattr(module, fn, None)
                if callable(original):
                    targets[id(original)] = (original, self._wrap(name, original))
                else:
                    self.absent.append(name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "omlat" or module_name.startswith("omlat.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    original, wrapper = targets[id(value)]
                    self._bindings.append((module, attr, original, wrapper))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4] = RAISED
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if outcome is not None:
                span[4] = outcome(result)
            return result

        return traced

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._bindings:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._bindings:
            setattr(namespace, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans recorded on one thread nest, so a span's direct children never
    overlap and their durations add up to the time they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass calls and self time of each traced function, plus the ratios."""
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        busy[span[0]] += own
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (calls[name] / passes, "count")
        metrics[f"{name}.self_s"] = (busy[name] / passes, "s")

    returned = sum(s[4] for s in spans if s[0] == SEARCH and s[4] != RAISED)
    tried = sum(
        1
        for s in spans
        if s[0] == "ortho.verify_ortholattice" and s[3] >= 0 and spans[s[3]][0] == SEARCH
    )
    lrg = [s[4] for s in spans if s[0] == LRG and s[4] != RAISED]
    uncaught = sum(1 for s in spans if s[0] == "cli.main" and s[4] == RAISED)
    metrics["search.orthocomplements.accept_ratio"] = (
        returned / tried if tried else 0.0,
        "ratio",
    )
    metrics["residuated.verify_lrg.fail_share"] = (
        sum(lrg) / len(lrg) if lrg else 0.0,
        "ratio",
    )
    metrics["cli.main.uncaught"] = (uncaught / passes, "count")
    return metrics
