"""Per-layer tracing from outside the package.

The tracer rebinds each traced public function at every module attribute
in `mmsfair` that holds it, so calls through any import path are caught
(`scan_one` -> `omms_requirements` -> `mms` goes through the names bound
in `scan` and `criteria`). Spans (name, start, end, parent, query) stay in
memory; the per-layer metrics are derived from them after the run.
`dominates` runs hundreds of thousands of times per `pairs` query, so it is
counted rather than spanned.
"""
from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Callable

# module -> public functions that get a span each
SPANNED = {
    "cli": ("execute",),
    "engine": ("mms",),
    "criteria": ("omms_requirements", "weighted_maximin_partition", "bmms_value", "audit"),
    "pairs": ("non_dominated_pairs", "filtration_trace"),
    "scan": ("scan_one", "report_jsonable"),
}
COUNTED = {"dominance": ("dominates",)}
COUNTED_NAMES = {f"{mod}.{fn}" for mod, fns in COUNTED.items() for fn in fns}

# name, unit, better. The order is the order they are printed in.
LAYER_METRICS = [
    ("engine.mms.calls", "count", "lower"),
    ("engine.mms.busy_s", "s", "lower"),
    ("engine.mms.p90_ms", "ms", "lower"),
    ("engine.mms.distinct_frac", "fraction", "higher"),
    ("criteria.weighted_maximin_partition.calls", "count", "lower"),
    ("criteria.weighted_maximin_partition.busy_s", "s", "lower"),
    ("criteria.bmms_value.calls", "count", "lower"),
    ("criteria.bmms_value.busy_s", "s", "lower"),
    ("criteria.omms_requirements.calls", "count", "lower"),
    ("criteria.omms_requirements.self_s", "s", "lower"),
    ("criteria.audit.self_s", "s", "lower"),
    ("pairs.non_dominated_pairs.calls", "count", "lower"),
    ("pairs.non_dominated_pairs.busy_s", "s", "lower"),
    ("pairs.filtration_trace.busy_s", "s", "lower"),
    ("dominance.dominates.calls", "count", "lower"),
    ("scan.scan_one.calls", "count", "lower"),
    ("scan.scan_one.self_s", "s", "lower"),
    ("scan.report_jsonable.busy_s", "s", "lower"),
    ("cli.execute.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]


def _mms_key(args: tuple, kwargs: dict) -> tuple:
    bound = dict(zip(("instance", "pair"), args), **kwargs)
    instance, pair = bound["instance"], bound["pair"]
    return tuple(sorted(instance.items)), pair.l, pair.d


class Tracer:
    """Wraps the package's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, query]
        self.counts: Counter[str] = Counter()
        self.mms_keys: set[tuple] = set()  # (query, sorted items, l, d)
        self.query = -1
        self._stack = [-1]
        self._bindings: list[tuple[object, str, Callable, Callable]] = []

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        keyed = name == "engine.mms"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self.query]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if keyed:
                    self.mms_keys.add((self.query, *_mms_key(args, kwargs)))

        return traced

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _plan(self) -> list[tuple[object, str, Callable, Callable]]:
        # (module, attribute, original, wrapper) for every binding of every
        # traced function in the loaded mmsfair modules.
        modules = [m for n, m in sys.modules.items() if n == "mmsfair" or n.startswith("mmsfair.")]
        wrappers = [(mod, fn, self._span) for mod, fns in SPANNED.items() for fn in fns]
        wrappers += [(mod, fn, self._counter) for mod, fns in COUNTED.items() for fn in fns]
        plan = []
        for mod, fn, wrap in wrappers:
            original = getattr(sys.modules[f"mmsfair.{mod}"], fn)
            wrapper = wrap(f"{mod}.{fn}", original)
            for module in modules:
                plan += [(module, attr, original, wrapper) for attr, value in vars(module).items() if value is original]
        return plan

    def install(self) -> None:
        if not self._bindings:
            self._bindings = self._plan()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("name\tstart_s\tend_s\tparent\tquery\n")
            for name, start, end, parent, query in self.spans:
                out.write(f"{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\t{query}\n")

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """The per-layer metrics of LAYER_METRICS, from the recorded spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durations: dict[str, list[float]] = {}
        self_time: Counter[str] = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            durations.setdefault(name, []).append(end - start)
            self_time[name] += end - start - covered

        def stat(name: str, kind: str) -> float:
            spans = durations.get(name, [])
            if kind == "calls":
                return self.counts[name] if name in COUNTED_NAMES else len(spans)
            if kind == "busy_s":
                return float(sum(spans))
            if kind == "self_s":
                return float(self_time[name])
            if kind == "p90_ms":
                return p90(spans) * 1000
            if kind == "distinct_frac":
                return len(self.mms_keys) / len(spans) if spans else 0.0
            raise ValueError(f"unknown layer statistic {kind!r}")

        values = {}
        for metric, _, _ in LAYER_METRICS:
            if metric == "trace.overhead_frac":
                values[metric] = overhead_frac
            else:
                name, kind = metric.rsplit(".", 1)
                values[metric] = stat(name, kind)
        return values


def p90(values: list[float]) -> float:
    """90th percentile (statistics.quantiles, exclusive method); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]
