#!/usr/bin/env python3
"""Closed-loop benchmark of mmsfair's commands, end to end and per layer.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload search-worst --seed 1 --seconds 20 --trace 0

One client sends `mmsfair.cli.execute(command, inputs)` queries from the
workload's seeded stream, each as soon as the previous one returned, in a
single process with no threads. Every answer is checked; on the default
seed the first pass must also match the digests recorded in
reference_digests.json. Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

--trace 0 reports the end-to-end metrics. --trace 1 runs each query of the
stream twice, once untraced and once with every public function of the
package wrapped in a span, until the untraced runs add up to half the
time, and reports the per-layer metrics; the spans are written to
.perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check, digest  # noqa: E402
from spans import LAYER_METRICS, Tracer, p90  # noqa: E402
from workloads import WORKLOADS, Query, Workload  # noqa: E402

# name, unit, better
END_TO_END = [
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("throughput_qps", "1/s", "higher"),
    ("ok_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]
SETUP_REPEATS = 7
# The reference machine runs the calibration kernel in exactly this time.
REFERENCE_KERNEL_S = 1e-4
KERNEL_ITERATIONS = 1400
REFERENCE_SEED = 0
REFERENCE_FILE = HERE / "reference_digests.json"
SPANS_DIR = ROOT / ".perfbench_out"


def import_package():
    """Import mmsfair.cli afresh from the checkout's src/ and return it."""
    src = ROOT / "src"
    if not (src / "mmsfair" / "__init__.py").is_file():
        raise SystemExit(f"error: no mmsfair package under {src}; run from a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "mmsfair" or n.startswith("mmsfair.")]:
        del sys.modules[name]
    return importlib.import_module("mmsfair.cli")


def kernel_time() -> float:
    """Wall time of a fixed pure-Python kernel that never touches the package."""
    gc.disable()
    try:
        start = perf_counter()
        total, values = 0, []
        for i in range(KERNEL_ITERATIONS):
            total += (i * i) % 7
            values.append(total)
        values.sort()
        return perf_counter() - start
    finally:
        gc.enable()


class ReferenceClock:
    """Scales wall times to the reference machine's speed.

    Other tenants of the host's cores slow this process by up to 50% for
    minutes at a time, so raw wall times of one run differ from the next by
    18-35% (interquartile range over median) although the work is the same.
    The kernel is timed right before and right after each timed section;
    the section's time is scaled by REFERENCE_KERNEL_S over the mean of the
    two, which cancels the host's speed at that moment.
    """

    def __init__(self) -> None:
        self.before = kernel_time()
        self.kernel_times: list[float] = [self.before]

    def scale(self, elapsed: float) -> float:
        """Call right after a timed section that started after the last call."""
        after = kernel_time()
        self.kernel_times.append(after)
        factor = REFERENCE_KERNEL_S / ((self.before + after) / 2)
        self.before = after
        return elapsed * factor


def run_one(cli, query: Query, expected_digest: str | None = None) -> tuple[float, str | None]:
    """Execute one query; return its wall time and the reason it failed, if it did."""
    start = perf_counter()
    try:
        code, outputs = cli.execute(query.command, query.inputs)
    except Exception as exc:  # a query that raises (exit 2 or 3 on the CLI) is a failed query
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        error = check(query, code, outputs)
    except (KeyError, TypeError, ValueError) as exc:
        error = f"malformed outputs: {type(exc).__name__}: {exc}"
    if error is None and expected_digest is not None and digest(code, outputs) != expected_digest:
        error = "answer differs from the reference recorded for the default seed"
    return elapsed, error


class Run:
    """Tally of one benchmark process: every executed query counts."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.errors: list[str] = []
        reference = {}
        if seed == REFERENCE_SEED and REFERENCE_FILE.is_file():
            reference = json.loads(REFERENCE_FILE.read_text())["workloads"]
        self.reference: list[str] = reference.get(workload.name, [])

    def execute(self, cli, query: Query, index: int | None = None) -> float:
        expected = self.reference[index] if index is not None and index < len(self.reference) else None
        elapsed, error = run_one(cli, query, expected)
        self.attempted += 1
        if error is not None:
            self.errors.append(f"query {index}: {query.command}: {error}")
        return elapsed

    def setup(self, clock: ReferenceClock) -> tuple[list[float], list[float], object, list[Query]]:
        """Import the package afresh, generate the first pass and answer one
        warm-up query, SETUP_REPEATS times; returns the wall times, the same
        times scaled by `clock`, the package's cli module and the first pass."""
        wall, scaled = [], []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            cli = import_package()
            first = self.workload.make_pass(self.seed, 0)
            self.execute(cli, self.workload.make_warmup(self.seed))
            wall.append(perf_counter() - start)
            scaled.append(clock.scale(wall[-1]))
        return wall, scaled, cli, first

    def closed_loop(self, first: list[Query], seconds: float, send) -> list[float]:
        """Send the stream, each query once the previous one returned, until
        the times `send(index, query)` returns add up to `seconds`."""
        queries = itertools.chain(first, self.workload.stream(self.seed, start=1))
        latencies: list[float] = []
        busy = 0.0
        for index, query in enumerate(queries):
            if busy >= seconds:
                break
            latencies.append(send(index, query))
            busy += latencies[-1]
        return latencies

    def report(self, metrics: dict[str, float], units: dict[str, str], lines: list[str]) -> None:
        failed = len(self.errors)
        for error in self.errors[:10]:
            print(f"FAILED {error}", file=sys.stderr)
        print(f"{self.workload.name} seed {self.seed}: {self.attempted} queries attempted, {failed} failed")
        for line in lines:
            print("  " + line)
        result = {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        }
        print(json.dumps(result))


def end_to_end(run: Run, seconds: float) -> None:
    clock = ReferenceClock()
    setup_wall, setup_scaled, cli, first = run.setup(clock)
    latencies: list[float] = []  # scaled to the reference machine

    def send(index: int, query: Query) -> float:
        elapsed = run.execute(cli, query, index)
        latencies.append(clock.scale(elapsed))
        return elapsed

    wall = run.closed_loop(first, seconds, send)
    p90_s = p90(latencies)
    metrics = {
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": p90_s * 1000,
        "throughput_qps": len(latencies) / sum(latencies),
        "ok_frac": (run.attempted - len(run.errors)) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_scaled),
    }
    above = sum(1 for t in latencies if t > p90_s)
    slowdown = statistics.mean(clock.kernel_times) / REFERENCE_KERNEL_S
    lines = [
        f"closed loop, 1 client: {len(wall)} timed queries in {sum(wall):.3f} s of wall time",
        f"host ran the calibration kernel at {slowdown:.3f} x its reference time (mean of {len(clock.kernel_times)})",
        "metric          reference machine      wall clock on this host",
        f"latency_p50_ms  {metrics['latency_p50_ms']:10.3f} ms   {statistics.median(wall) * 1000:10.3f} ms"
        f"  ({len(latencies)} samples)",
        f"latency_p90_ms  {metrics['latency_p90_ms']:10.3f} ms   {p90(wall) * 1000:10.3f} ms"
        f"  ({len(latencies)} samples, {above} above p90)",
        f"throughput_qps  {metrics['throughput_qps']:10.3f} 1/s  {len(wall) / sum(wall):10.3f} 1/s",
        f"setup_s         {metrics['setup_s']:10.4f} s    {statistics.median(setup_wall):10.4f} s"
        f"   (median of {SETUP_REPEATS})",
        f"failed_frac     {len(run.errors) / run.attempted:.4f} ({len(run.errors)} of {run.attempted} attempted)",
        f"ok_frac         {metrics['ok_frac']:.4f}",
        f"peak_rss_mb     {metrics['peak_rss_mb']:.3f} MB",
    ]
    run.report(metrics, {name: unit for name, unit, _ in END_TO_END}, lines)


def per_layer(run: Run, seconds: float) -> None:
    _, _, cli, first = run.setup(ReferenceClock())
    tracer = Tracer()
    traced: list[float] = []

    def send_twice(index: int, query: Query) -> float:
        # Each query runs untraced and traced, in alternating order, so slow
        # drift in machine speed and any warm cache fall on both sides alike.
        tracer.query = index
        timings = {}
        for tracing in ((False, True) if index % 2 == 0 else (True, False)):
            if tracing:
                tracer.install()
            try:
                timings[tracing] = run.execute(cli, query, index)
            finally:
                if tracing:
                    tracer.uninstall()
        traced.append(timings[True])
        return timings[False]

    untraced = run.closed_loop(first, seconds / 2, send_twice)
    overhead = sum(traced) / sum(untraced) - 1
    metrics = tracer.layer_metrics(overhead)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{run.workload.name}-seed{run.seed}.tsv"
    tracer.write(spans_path)
    lines = [f"{len(untraced)} queries, each untraced ({sum(untraced):.3f} s) and traced ({sum(traced):.3f} s)"]
    lines += [f"{name:45s} {metrics[name]:.6g} {unit}" for name, unit, _ in LAYER_METRICS]
    lines.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    run.report(metrics, {name: unit for name, unit, _ in LAYER_METRICS}, lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run = Run(WORKLOADS[args.workload], args.seed)
    (per_layer if args.trace else end_to_end)(run, args.seconds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
