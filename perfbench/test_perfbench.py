"""Self-test of the benchmark. Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == LAYER_METRICS


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric(capsys, workload, trace, section):
    run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)])
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_queries(workload):
    w = WORKLOADS[workload]
    first = [w.make_pass(7, k) for k in range(2)]
    assert first == [w.make_pass(7, k) for k in range(2)]
    assert first[0] != first[1]
    assert first[0] != w.make_pass(8, 0)
    assert w.make_warmup(7) == w.make_warmup(7)


def _corrupt(command: str, outputs: dict) -> None:
    if command == "mms":
        outputs["value"] += 1
    elif command == "audit":
        outputs["all_ok"] = not outputs["all_ok"]
    elif command == "pairs":
        outputs["survivors"].pop()
    else:
        outputs["rows"].pop()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_answer_raises_failed_frac(capsys, monkeypatch, workload):
    real_import = run.import_package

    class CorruptingCli:
        def __init__(self, cli):
            self.cli = cli

        def execute(self, command, inputs):
            code, outputs = self.cli.execute(command, inputs)
            _corrupt(command, outputs)
            return code, outputs

    monkeypatch.setattr(run, "import_package", lambda: CorruptingCli(real_import()))
    run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0"])
    result = last_json(capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_default_seed_matches_reference(workload):
    reference = json.loads(run.REFERENCE_FILE.read_text())
    assert reference["seed"] == run.REFERENCE_SEED
    expected = reference["workloads"][workload]
    cli = run.import_package()
    queries = WORKLOADS[workload].make_pass(run.REFERENCE_SEED, 0)
    assert len(expected) == len(queries)
    for query, want in zip(queries, expected):
        assert run.run_one(cli, query, want)[1] is None


def test_fails_without_the_package():
    bare = run.ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [*BENCHMARK["command"], "--workload", "search-worst", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
