#!/usr/bin/env python3
"""Replay one benchmark workload through two checkouts, alternating them (stdlib only).

    python scripts/replay_ab.py PARENT CHANGE --workload scan-sweep [--seed 0] [--passes 6] [--reps 10]

PARENT and CHANGE are checkouts of this repository. Each rep runs each side in
a fresh `python` process, and the side that goes first alternates from rep to
rep. A child imports `mmsfair` from its own checkout's src/ and replays,
through `cli.execute`, passes 0..PASSES-1 of the workload as built by this
checkout's perfbench/workloads.py (imported, never changed), so both sides get
the same queries. The child runs the workload's warm-up query first and times
only the replay loop. The script prints each rep, each side's min, quartiles
and median in seconds and the ratio of the medians (parent / change, above 1
when the change is faster). It exits 1 if the SHA-256 of the outputs differs
between the two sides or between reps.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The child: `python -B -c CHILD SRC PERFBENCH WORKLOAD SEED PASSES`; prints one JSON line.
CHILD = """
import hashlib, json, sys, time
src, perfbench, name, seed, passes = sys.argv[1:]
sys.path[:0] = [src, perfbench]
from mmsfair.cli import execute
from workloads import WORKLOADS
workload = WORKLOADS[name]
queries = [q for k in range(int(passes)) for q in workload.make_pass(int(seed), k)]
warmup = workload.make_warmup(int(seed))
execute(warmup.command, warmup.inputs)
outputs = []
started = time.perf_counter()
for q in queries:
    outputs.append(execute(q.command, q.inputs))
seconds = time.perf_counter() - started
digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
print(json.dumps({"seconds": seconds, "sha256": digest, "queries": len(queries)}))
"""


def replay(checkout: Path, args: argparse.Namespace) -> dict:
    src = checkout.resolve() / "src"
    if not (src / "mmsfair" / "__init__.py").is_file():
        raise SystemExit(f"error: no mmsfair package under {src}")
    argv = [sys.executable, "-B", "-c", CHILD, str(src), str(PERFBENCH), args.workload,
            str(args.seed), str(args.passes)]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: the replay in {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def describe(seconds: list[float]) -> str:
    q1, median, q3 = (statistics.quantiles(seconds, n=4, method="inclusive")
                      if len(seconds) > 1 else seconds * 3)
    return f"min {min(seconds):.4f}  q1 {q1:.4f}  median {median:.4f}  q3 {q3:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=6)
    parser.add_argument("--reps", type=int, default=10)
    args = parser.parse_args()
    sides = {"parent": args.parent, "change": args.change}
    seconds = {name: [] for name in sides}
    digests = {name: set() for name in sides}
    for rep in range(args.reps):
        order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
        for name in order:
            result = replay(sides[name], args)
            seconds[name].append(result["seconds"])
            digests[name].add(result["sha256"])
        print(f"rep {rep + 1}: parent {seconds['parent'][-1]:.4f} s, change "
              f"{seconds['change'][-1]:.4f} s ({order[0]} first, {result['queries']} queries)")
    for name in sides:
        print(f"{name}: {describe(seconds[name])}  sha256 {' '.join(sorted(digests[name]))}")
    ratio = statistics.median(seconds["parent"]) / statistics.median(seconds["change"])
    print(f"median ratio parent/change: {ratio:.3f}")
    if len(digests["parent"] | digests["change"]) > 1:
        print("outputs differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
