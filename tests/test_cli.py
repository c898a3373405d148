import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mmsfair import cli
from mmsfair.cli import COMMANDS, _render_scan, build_parser, execute, main
from mmsfair.core import MmsPair
from mmsfair.dominance import dominates, non_dominance_witness
from mmsfair.engine import mms_cardinality


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mms_command(capsys):
    code, out, _ = run(capsys, "mms", "--items", "1,3,5,6,9", "--pair", "1/3")
    assert code == 0
    assert "value: 7" in out


def test_mms_empty_items(capsys):
    code, out, _ = run(capsys, "mms", "--items", "", "--pair", "1/3")
    assert code == 0
    assert "value: 0" in out


def test_mms_json_shape(capsys):
    code, out, _ = run(capsys, "mms", "--items", "1,3,5,6,9", "--pair", "2/5", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["command"] == "mms"
    assert blob["outputs"]["value"] == 4
    assert blob["outputs"]["canonical_items"] == [9, 6, 5, 3, 1]
    sums = blob["outputs"]["witness_part_sums"]
    assert sum(sorted(sums)[:2]) == 4


def test_mms_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "mms", "--items", "1,x", "--pair", "1/3")
    assert code == 2
    assert "error" in err


def test_mms_size_refusal_exit_3(capsys):
    items = ",".join(["1"] * 17)
    code, _, err = run(capsys, "mms", "--items", items, "--pair", "1/3")
    assert code == 3
    assert "refused" in err
    code, out, _ = run(
        capsys, "mms", "--items", items, "--pair", "1/3", "--max-items", "17"
    )
    assert code == 0
    # A scan's --max-items is its largest multiset size, not its search bound:
    # the 17-item multiset is refused as `mms` refuses it.
    code, out, err = run(capsys, "scan", "--max-items", "17", "--values", "1",
                         "--entitlements", "1")
    assert code == 3 and out == ""
    assert err == ("refused: instance too large for exact search: 17 items into 1 parts "
                   "(limits: 16 items, 10 parts)\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mms", "--items", "1,2", "--pair", "1/2", "--max-parts", "-5"],
         "search limits must be non-negative: SearchLimits(max_items=16, max_parts=-5)"),
        (["scan", "--max-items", "-1", "--values", "1", "--entitlements", "1/2,1/2"],
         "need max_items, max_instances >= 0: -1, None"),
    ],
)
def test_negative_search_bound_is_a_usage_error_exit_2(capsys, argv, message):
    # A negative bound is a bad option, not an instance too large to search.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_mms_recursion_depth_refusal_exit_3(capsys):
    # Raised bounds let the search reach Python's recursion limit: a refusal
    # (exit 3), not a traceback and exit 1.
    items = ",".join(["1"] * 3000)
    code, _, err = run(
        capsys, "mms", "--items", items, "--pair", "1/2", "--max-items", "5000"
    )
    assert code == 3
    assert err.startswith("refused:")


def test_mms_zero_l_is_not_refused(capsys):
    # l = 0 needs no search, so the size bound does not apply.
    code, out, _ = run(capsys, "mms", "--items", "1,2,3", "--pair", "0/3", "--max-parts", "2")
    assert code == 0
    assert "value: 0" in out


def test_mms_items_file(tmp_path, capsys):
    text_file = tmp_path / "items.txt"
    text_file.write_text("1\n3\n5\n6\n9\n")
    code, out, _ = run(capsys, "mms", "--items-file", str(text_file), "--pair", "1/3")
    assert code == 0 and "value: 7" in out

    json_file = tmp_path / "items.json"
    json_file.write_text("[1, 3, 5, 6, 9]")
    code, out, _ = run(capsys, "mms", "--items-file", str(json_file), "--pair", "1/2")
    assert code == 0 and "value: 12" in out


def test_missing_items_file_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, "mms", "--items-file", missing, "--pair", "1/2")
    assert code == 2
    assert err.startswith("error: ") and "missing.txt" in err
    assert out == ""


@pytest.mark.parametrize(
    "command",
    [
        ["mms", "--pair", "1/2"],
        ["audit", "--entitlements", "1/2,1/2", "--allocation", ";"],
    ],
)
def test_deeply_nested_items_file_is_a_usage_error(command, tmp_path, capsys):
    # json.loads raises RecursionError on deep nesting: a parse error (exit 2),
    # not a traceback and exit 1, the false-verdict code.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run(capsys, *command, "--items-file", str(deep))
    assert code == 2
    assert err == f"error: items file nested too deeply: {deep}\n"
    assert out == ""


def test_dominates_exit_codes(capsys):
    code, out, _ = run(capsys, "dominates", "2", "3", "4", "7")
    assert code == 0
    assert "yes" in out and "q=3, r=2" in out

    code, out, _ = run(capsys, "dominates", "2", "3", "5", "7")
    assert code == 1
    assert "no" in out and "7 unit items" in out and "4 < 5" in out

    code, out, _ = run(capsys, "dominates", "1", "1", "1", "1")
    assert code == 0

    code, _, err = run(capsys, "dominates", "3", "2", "1", "1")
    assert code == 2


def test_dominates_witness_is_the_unit_item_closed_form():
    # `execute` builds the witness itself; it must stay `non_dominance_witness`'s
    # d' unit items, valued by the closed form, on the whole grid and at a large d'.
    grid = [MmsPair(l, d) for d in range(1, 13) for l in range(d + 1)]
    cases = [(p, q) for p in grid for q in grid if not dominates(p, q)]
    cases.append((MmsPair(1, 2), MmsPair(99_999, 100_000)))
    assert len(cases) > 1000
    for p, other in cases:
        code, outputs = execute("dominates", {"pair": str(p), "other": str(other)})
        assert code == 1
        assert outputs["witness"] == {
            "items": list(non_dominance_witness(p, other).items),
            "pair_value": mms_cardinality(other.d, p),
            "other_value": other.l,
        }
        assert outputs["witness"]["pair_value"] < other.l


def test_pairs_command_and_trace(capsys):
    code, out, _ = run(capsys, "pairs", "--entitlement", "0.74", "--items-count", "7")
    assert code == 0
    assert "survivors: 2/3 5/7" in out
    assert "filtered out" not in out

    code, out, _ = run(
        capsys, "pairs", "--entitlement", "0.74", "--items-count", "7", "--trace"
    )
    assert code == 0
    assert "0/1 is filtered out by 2/3 (with q=1, r=2)" in out
    assert "3/5 is filtered out by 5/7 (with q=1, r=2)" in out


def test_pairs_other_entitlements(capsys):
    code, out, _ = run(capsys, "pairs", "--entitlement", "1/2", "--items-count", "4")
    assert code == 0 and "survivors: 1/2" in out
    code, out, _ = run(capsys, "pairs", "--entitlement", "1", "--items-count", "3")
    assert code == 0 and "survivors: 1/1" in out


def test_audit_exit_depends_on_requested_criteria(capsys):
    base = [
        "audit",
        "--items",
        "40,60",
        "--entitlements",
        "0.6,0.2,0.2",
        "--allocation",
        ";0;1",
    ]
    code, out, _ = run(capsys, *base)
    assert code == 1

    code, out, _ = run(capsys, *base, "--criteria", "wmms")
    assert code == 0

    code, out, _ = run(capsys, *base, "--criteria", "omms")
    assert code == 1

    code, _, err = run(capsys, *base, "--criteria", "envy")
    assert code == 2


def test_audit_checks_criteria_before_the_search(capsys):
    # 17 items are past the default item bound: an unknown criterion is a
    # usage error (exit 2) before the search could refuse (exit 3).
    base = ["audit", "--items", ",".join(["1"] * 17), "--entitlements", "1/2,1/2",
            "--allocation", ",".join(map(str, range(17))) + ";"]
    code, _, err = run(capsys, *base, "--criteria", "envy")
    assert code == 2
    assert err.startswith("error: unknown criterion 'envy'")
    code, _, err = run(capsys, *base, "--criteria", "omms")
    assert code == 3
    assert err.startswith("refused: ")


def test_a_memory_error_is_a_refusal(capsys, monkeypatch):
    # Exit 1 would read as a false verdict. This d' makes `dominates` run out of
    # memory; a stand-in raises, because a real allocation this large may be
    # killed outright where memory is overcommitted.
    def out_of_memory(command, inputs):
        raise MemoryError

    monkeypatch.setattr(cli, "execute", out_of_memory)
    argv = ["dominates", "1", "2", "9999999999999", "10000000000000"]
    assert run(capsys, *argv) == (3, "", "refused: out of memory\n")


def test_audit_intro_allocation(capsys):
    code, out, _ = run(
        capsys,
        "audit",
        "--items",
        "1,3,5,6,9",
        "--entitlements",
        "0.4,0.6",
        "--allocation",
        "0,3;1,2,4",
        "--criteria",
        "omms",
    )
    assert code == 0


def test_audit_single_agent(capsys):
    code, _, _ = run(
        capsys,
        "audit",
        "--items",
        "40,60",
        "--entitlements",
        "1",
        "--allocation",
        "0,1",
    )
    assert code == 0


def test_audit_json_report(capsys):
    code, out, _ = run(
        capsys,
        "audit",
        "--items",
        "40,60",
        "--entitlements",
        "0.6,0.2,0.2",
        "--allocation",
        ";0;1",
        "--json",
    )
    assert code == 1
    blob = json.loads(out)
    agents = blob["outputs"]["agents"]
    assert agents[0]["wmms"] == {"ok": True, "value": "0/1"}
    assert agents[0]["omms"]["ok"] is False
    assert {"pair": "1/2", "value": 40} in agents[0]["omms"]["requirements"]


def test_scan_command_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        "scan",
        "--max-items",
        "2",
        "--values",
        "40,60",
        "--entitlements",
        "0.4,0.6;0.6,0.2,0.2",
        "--seed",
        "11",
        "--out",
        str(out_csv),
    )
    assert code == 0
    assert "no counterexample found" in out
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("items,entitlements,agent")
    assert len(lines) > 1


def test_scan_empty_bounds(capsys):
    code, out, _ = run(capsys, "scan", "--values", "", "--entitlements", "")
    assert code == 0
    assert "rows: 0" in out


def test_scan_refusal_echoes_its_own_limits(capsys):
    # A scan's search keeps the default item bound, whatever its multiset
    # size, and the message shows the bounds the scan ran with.
    code, out, err = run(
        capsys,
        "scan",
        "--max-items",
        "3",
        "--values",
        "7",
        "--entitlements",
        "2/5,3/5",
        "--max-parts",
        "1",
    )
    assert code == 3
    assert err.startswith("refused: ")
    assert "(limits: 16 items, 1 parts)" in err
    assert out == ""


def test_scan_refusal_of_a_tied_vector(capsys):
    # The first instance, (0,), needs its 1-out-of-3 share for WMMS.
    code, out, err = run(
        capsys,
        "scan",
        "--max-items",
        "5",
        "--values",
        "0,7,19,31,60",
        "--entitlements",
        "1/3,1/3,1/3",
        "--max-parts",
        "2",
    )
    assert code == 3
    assert "1 items into 3 parts (limits: 16 items, 2 parts)" in err
    assert out == ""


def test_scan_renders_counterexample_count():
    summary = {
        "rows": 5,
        "rows_wmms_strictly_stronger": 1,
        "rows_omms_strictly_stronger": 0,
        "bmms_conjecture_counterexamples": 2,
    }
    text = _render_scan({"summary": summary}, None)
    assert text.splitlines()[-1] == "BMMS-implies-WMMS/OMMS: COUNTEREXAMPLE FOUND in 2 row(s)"


def test_every_command_json_is_byte_identical(capsys):
    commands = [
        ["mms", "--items", "1,3,5,6,9", "--pair", "2/5", "--json"],
        ["dominates", "2", "3", "5", "7", "--json"],
        ["pairs", "--entitlement", "0.74", "--items-count", "7", "--json"],
        [
            "audit",
            "--items",
            "40,60",
            "--entitlements",
            "0.4,0.6",
            "--allocation",
            "0;1",
            "--json",
        ],
        [
            "scan",
            "--max-items",
            "2",
            "--values",
            "0,40,60",
            "--entitlements",
            "0.4,0.6;0.6,0.2,0.2",
            "--seed",
            "5",
            "--max-instances",
            "4",
            "--json",
        ],
    ]
    for argv in commands:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second, argv
        assert first[0] in (0, 1)


def test_run_record_replay(tmp_path, capsys):
    record_file = tmp_path / "record.json"
    code, out, _ = run(
        capsys,
        "pairs",
        "--entitlement",
        "0.74",
        "--items-count",
        "7",
        "--record",
        str(record_file),
        "--json",
    )
    assert code == 0
    stored = json.loads(record_file.read_text())
    assert stored["engine_version"]
    assert stored["wall_time_s"] >= 0
    assert sorted(stored) == ["command", "engine_version", "inputs", "outputs", "wall_time_s"]
    assert execute(stored["command"], stored["inputs"]) == (0, stored["outputs"])
    # and the replayed outputs equal what was printed
    assert json.loads(out)["outputs"] == stored["outputs"]


def test_execute_rejects_unknown_command():
    with pytest.raises(ValueError):
        execute("nope", {})


def test_execute_scan_reads_max_instances_like_the_other_numbers():
    # A hand-edited record may hold the sample size as a string.
    inputs = {"max_items": 3, "value_grid": [0, 1, 2], "entitlement_grid": [["1/2", "1/2"]]}
    code, outputs = execute("scan", dict(inputs, max_instances=3))
    assert (code, outputs["summary"]["rows"]) == (0, 3)
    assert execute("scan", dict(inputs, max_instances="3")) == (code, outputs)


_SCAN = {"max_items": 2, "value_grid": [1, 2], "entitlement_grid": [["1"]]}


@pytest.mark.parametrize(
    "command, inputs",
    [
        ("mms", {"items": [3, 1], "pair": "1/1", "max_items": 16.0}),
        ("mms", {"items": [3, 1], "pair": "1/1", "max_parts": True}),
        ("pairs", {"entitlement": "1/2", "item_count": 3.7}),
        ("scan", dict(_SCAN, value_grid=[2.5])),
        ("scan", dict(_SCAN, max_items=2.0)),
        ("scan", dict(_SCAN, max_instances=2.5)),
        ("scan", dict(_SCAN, seed=False)),
    ],
    ids=["max_items", "max_parts", "item_count", "value_grid", "scan_max_items",
         "max_instances", "seed"],
)
def test_execute_refuses_numbers_it_would_truncate(command, inputs):
    # int() would read 16.0 as 16, True as 1, 3.7 as 3 and 2.5 as 2.
    with pytest.raises(ValueError, match="expected an integer"):
        execute(command, inputs)


@pytest.mark.parametrize(
    "command, inputs",
    [
        ("pairs", {"entitlement": 0.5, "item_count": 3}),
        ("mms", {"items": [1, 2], "pair": 12}),
        ("dominates", {"pair": "1/2", "other": 3}),
        ("audit", {"items": [1, 2], "entitlements": [0.5, 0.5], "allocation": [[0], [1]]}),
        ("scan", dict(_SCAN, entitlement_grid=[[0.5, 0.5]])),
    ],
    ids=["entitlement", "pair", "other", "entitlements", "entitlement_grid"],
)
def test_execute_refuses_numbers_where_strings_belong(command, inputs):
    # A rational or an l/d condition is read from its text only, so a JSON
    # number is refused and a float is never read as a Fraction.
    with pytest.raises(ValueError, match="not a rational number|expected 'l/d'"):
        execute(command, inputs)


def test_execute_audit_refuses_fractional_item_indices():
    inputs = {"items": [1, 2], "entitlements": ["1/2", "1/2"], "allocation": [[0.9], [1.2]]}
    with pytest.raises(ValueError, match="item index must be an integer"):
        execute("audit", inputs)


_AUDIT = {"items": [1, 2, 3], "entitlements": ["1/2", "1/2"], "allocation": [[0], [1, 2]]}


@pytest.mark.parametrize(
    "command, inputs, field",
    [
        ("mms", {"items": None, "pair": "1/2"}, "items"),
        ("mms", {"items": 5, "pair": "1/2"}, "items"),
        ("mms", {"items": "12", "pair": "1/2"}, "items"),
        ("mms", {"items": [1]}, "'pair'"),
        ("dominates", {"pair": "1/2"}, "'other'"),
        ("pairs", {"entitlement": "1/2"}, "'item_count'"),
        ("audit", dict(_AUDIT, allocation=5), "allocation"),
        ("audit", dict(_AUDIT, allocation=[5, [1]]), "allocation bundle"),
        ("audit", dict(_AUDIT, entitlements="1/2"), "entitlements"),
        ("audit", {"items": [1], "entitlements": ["1"]}, "'allocation'"),
        ("audit", dict(_AUDIT, criteria="omms"), "criteria"),
        ("scan", dict(_SCAN, value_grid="12"), "value_grid"),
        ("scan", dict(_SCAN, entitlement_grid="1/2"), "entitlement_grid"),
        ("scan", dict(_SCAN, entitlement_grid=[5]), "entitlement vector"),
        ("mms", None, "inputs"),
        ("mms", "ab", "inputs"),
        ("audit", [("items", [1])], "inputs"),
    ],
    ids=["items-none", "items-int", "items-str", "no-pair", "no-other",
         "no-item-count", "allocation-int", "bundle-int", "entitlements-str",
         "no-allocation", "criteria-str", "value-grid-str", "entitlement-grid-str",
         "vector-int", "inputs-none", "inputs-str", "inputs-pairs"],
)
def test_execute_refuses_malformed_inputs_naming_the_field(command, inputs, field):
    # A hand-edited record gets a ValueError (exit 2 from the CLI), never a
    # TypeError or KeyError, and a string is not read character by character.
    with pytest.raises(ValueError, match="missing input|must be a") as refused:
        execute(command, inputs)
    assert str(refused.value).startswith(("missing input " + field, field))


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "mmsfair.cli", "mms", "--items", "1,3,5,6,9", "--pair", "1/3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "value: 7" in proc.stdout


def test_the_installed_entry_point_is_main():
    # Every README command runs through this script; CI runs from src/ and
    # never installs it. A regex, not tomllib, which needs Python 3.11.
    import importlib
    import re

    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    target = re.search(r'^mmsfair\s*=\s*"([\w.]+):(\w+)"\s*$', section.group(1), re.M)
    module, name = target.groups()
    assert getattr(importlib.import_module(module), name) is main


def test_audit_and_scan_read_an_entitlement_by_value_however_spelled():
    # Share-table entries are keyed by value, so "0.4" and "2/5" share one.
    decimals, fractions = ["0.4", "0.6"], ["2/5", "3/5"]
    audit_inputs = {"items": [1, 3, 5, 6, 9], "allocation": [[0, 3], [1, 2, 4]]}
    audited = execute("audit", dict(audit_inputs, entitlements=decimals))
    assert execute("audit", dict(audit_inputs, entitlements=fractions)) == audited
    scan_inputs = {"max_items": 3, "value_grid": [0, 1, 2, 40, 60]}
    scanned = execute("scan", dict(scan_inputs, entitlement_grid=[decimals]))
    assert execute("scan", dict(scan_inputs, entitlement_grid=[fractions])) == scanned
    # Both spellings in one scan, which shares one table: the rows pair up.
    _, both = execute("scan", dict(scan_inputs, entitlement_grid=[decimals, fractions]))
    assert both["rows"][::2] == both["rows"][1::2] == scanned[1]["rows"]


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out.lower()


def test_record_to_unwritable_path_is_a_usage_error(tmp_path, capsys):
    record_file = tmp_path / "missing" / "record.json"
    code, out, err = run(
        capsys, "dominates", "2", "3", "4", "7", "--record", str(record_file)
    )
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_output_past_the_int_digit_limit_is_a_usage_error(capsys, json_flag):
    # The value of 2/2 is the sum of both items, one digit longer than the limit.
    items = ",".join(["9" * 640] * 2)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "mms", "--items", items, "--pair", "2/2", *json_flag)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_audit_criteria_names_may_be_spaced(capsys):
    base = ["audit", "--items", "40,60", "--entitlements", "0.4,0.6", "--allocation", "0;1",
            "--json", "--criteria"]
    spaced = run(capsys, *base, " omms, wmms ")
    assert spaced == run(capsys, *base, "omms,wmms")
    assert spaced[0] == 0 and json.loads(spaced[1])["inputs"]["criteria"] == ["omms", "wmms"]


@pytest.mark.parametrize("allocation", ["0,0;1", "0;0,1"])
def test_audit_refuses_an_item_index_listed_twice(capsys, allocation):
    # Inside one bundle as across two: the same usage error.
    argv = ["audit", "--items", "1,2", "--entitlements", "1/2,1/2", "--allocation", allocation]
    assert run(capsys, *argv) == (2, "", "error: item indices assigned twice: [0]\n")


def test_scan_out_to_unwritable_path_is_a_usage_error(tmp_path, capsys):
    out_csv = tmp_path / "missing" / "report.csv"
    code, out, err = run(
        capsys, "scan", "--values", "40,60", "--entitlements", "0.4,0.6", "--out", str(out_csv)
    )
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


# Exit code, stdout and CSV of the README examples, recorded at version 0.1.0.
# Any change here is a change of the command-line contract.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize(
    "case",
    GOLDEN,
    ids=[f"{c['argv'][0]}-{'json' if '--json' in c['argv'] else 'text'}" for c in GOLDEN],
)
def test_readme_examples_match_recorded_output(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *case["argv"]) == (case["exit_code"], case["stdout"], "")
    if "csv" in case:
        assert (tmp_path / "report.csv").read_bytes() == case["csv"].encode()


def _csv(values):
    return ",".join(str(v) for v in values)


# A few bad values per flag; the command line gets at most one of them.
BAD_VALUES = {
    "items": ["1,x", "1.5", "-3"],
    "entitlements": [
        "", "0,1", "-1/2,3/2", "1/0,1", "nan,1", "1/3,1/3", "0.5,0.6", "1e400,1",
        "1e-99999999,1",
    ],
    "allocation": ["0;0", "a", "9", ";;;;"],
}


@st.composite
def audit_argv(draw):
    items = draw(st.lists(st.integers(0, 50) | st.just(10**30), max_size=9))
    weights = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    agents = len(weights)
    owners = draw(
        st.lists(st.integers(0, agents - 1), min_size=len(items), max_size=len(items))
    )
    values = {
        "items": _csv(items),
        "entitlements": _csv(Fraction(w, sum(weights)) for w in weights),
        "allocation": ";".join(
            _csv(i for i, owner in enumerate(owners) if owner == j) for j in range(agents)
        ),
    }
    fault = draw(st.sampled_from([None, None, *BAD_VALUES]))
    if fault:
        values[fault] = draw(st.sampled_from(BAD_VALUES[fault]))
    items_text, entitlements, allocation = values.values()
    argv = ["audit", "--items", items_text, "--entitlements", entitlements]
    argv += ["--allocation", allocation]
    if draw(st.booleans()):
        argv += ["--max-parts", str(draw(st.integers(-1, 12)))]
    if draw(st.booleans()):
        argv += ["--criteria", draw(st.sampled_from(["omms", "wmms,bmms", "envy"]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(audit_argv())
def test_audit_command_line_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert not err.getvalue()
        if "--json" in argv:
            assert json.loads(out.getvalue())["command"] == "audit"
    elif code == 2:
        assert "error: " in err.getvalue()
    else:
        assert err.getvalue().startswith("refused: ")


# Bad values for the two commands; a command line gets at most one of them.
BAD_PAIRS_VALUES = {
    "entitlement": ["0", "-1/2", "-0.5", "3/2", "x", "1/0", "nan", "", "1e-99999999"],
    "items-count": ["x", "1.5", "-1/2"],
}
BAD_CONDITION_VALUES = ["-1", "-3", "0", "x", "1/2", "-1/2", ""]


@st.composite
def pairs_argv(draw):
    values = {
        "entitlement": str(
            draw(st.fractions(min_value=Fraction(1, 1000), max_value=1, max_denominator=1000))
        ),
        "items-count": str(draw(st.integers(-5, 2000))),
    }
    fault = draw(st.sampled_from([None, None, *BAD_PAIRS_VALUES]))
    if fault:
        values[fault] = draw(st.sampled_from(BAD_PAIRS_VALUES[fault]))
    argv = ["pairs"]
    for name, value in values.items():
        argv += [f"--{name}", value]
    if draw(st.booleans()):
        argv.append("--trace")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@st.composite
def dominates_argv(draw):
    d, d_prime = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    values = [draw(st.integers(0, d)), d, draw(st.integers(0, d_prime)), d_prime]
    if draw(st.booleans()):
        values[draw(st.integers(0, 3))] = draw(st.sampled_from(BAD_CONDITION_VALUES))
    argv = ["dominates", *map(str, values)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=100, deadline=None)
@given(pairs_argv() | dominates_argv())
def test_pairs_and_dominates_command_line_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert not err.getvalue()
        if "--json" in argv:
            assert json.loads(out.getvalue())["command"] == argv[0]
    elif code == 2:
        assert "error: " in err.getvalue()
    else:
        assert err.getvalue().startswith("refused: ")


# Bad values for `mms` and `scan`; a command line gets at most one of them.
BAD_MMS_VALUES = {
    "items": ["1,x", "1.5", "-3", "x"],
    "pair": ["3/2", "11/10", "0/0", "1/0", "-1/2", "1", "x", "1/x", ""],
}
BAD_SCAN_VALUES = {
    "values": ["x", "1.5", "-3", "1,,y"],
    "entitlements": ["0,1", "1/0,1", "nan,1", "1/3,1/3", "x", "1/2,1/2;x"],
    "max-items": ["x", "1.5"],
    "max-instances": ["-1", "x"],
}
SCAN_VECTORS = ["1/2,1/2", "2/5,3/5", "74/100,26/100", "3/5,1/5,1/5", "1/4,1/4,1/4,1/4"]


@st.composite
def mms_argv(draw):
    items = draw(
        st.lists(st.integers(0, 50) | st.integers(10**6, 10**6 + 50) | st.just(10**30), max_size=10)
    )
    d = draw(st.integers(1, 10))
    values = {"items": _csv(items), "pair": f"{draw(st.integers(0, d))}/{d}"}
    fault = draw(st.sampled_from([None, None, *BAD_MMS_VALUES]))
    if fault:
        values[fault] = draw(st.sampled_from(BAD_MMS_VALUES[fault]))
    argv = ["mms", "--items", values["items"], "--pair", values["pair"]]
    for flag in ("--max-items", "--max-parts"):
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(-1, 12)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@st.composite
def scan_argv(draw):
    values = {
        "values": _csv(draw(st.lists(st.integers(0, 60), max_size=3))),
        "entitlements": ";".join(draw(st.lists(st.sampled_from(SCAN_VECTORS), max_size=2))),
        "max-items": str(draw(st.integers(-1, 4))),
        "max-instances": str(draw(st.integers(0, 6))),
    }
    fault = draw(st.sampled_from([None, None, *BAD_SCAN_VALUES]))
    if fault:
        values[fault] = draw(st.sampled_from(BAD_SCAN_VALUES[fault]))
    argv = ["scan", "--values", values["values"], "--entitlements", values["entitlements"]]
    argv += ["--max-items", values["max-items"]]
    if fault == "max-instances" or draw(st.booleans()):
        argv += ["--max-instances", values["max-instances"]]
    if draw(st.booleans()):
        argv += ["--max-parts", str(draw(st.integers(-1, 12)))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(mms_argv() | scan_argv())
def test_mms_and_scan_command_line_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert not err.getvalue()
        if "--json" in argv:
            assert json.loads(out.getvalue())["command"] == argv[0]
    elif code == 2:
        assert "error: " in err.getvalue()
    else:
        assert err.getvalue().startswith("refused: ")


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["audit", "--items", "1,2", "--allocation", "0;1", "--entitlements", "-1/2,3/2"],
         "entitlements must be positive, got -1/2"),
        (["audit", "--entitlements", "1/2,1/2", "--allocation", "0;1", "--items", "-1,2"],
         "item value must be non-negative, got -1"),
        (["pairs", "--items-count", "3", "--entitlement", "-1/2"],
         "entitlement must satisfy 0 < a <= 1, got -1/2"),
        (["mms", "--pair", "1/2", "--items", "-1,2"], "item value must be non-negative, got -1"),
        (["mms", "--items", "1,2", "--pair", "-1/2"], "need 0 <= l <= d, got l=-1, d=2"),
    ],
)
def test_value_starting_with_dash_reaches_its_parser(capsys, argv, message, joined):
    # "--flag -1/2" and "--flag=-1/2" give the same error.
    if joined:
        argv = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["mms", "--pair", "1/2", "--items", "-x"], "bad item list: '-x'"),
        (["mms", "--items", "1,2", "--pair", "-x"], "expected 'l/d', got '-x'"),
        (["pairs", "--items-count", "3", "--entitlement", "-x"],
         "not a rational number: '-x'"),
        (["audit", "--items", "1,2", "--entitlements", "1/2,1/2", "--allocation", "-x"],
         "bad allocation segment '-x'"),
        (["scan", "--values", "-x"], "bad item list: '-x'"),
    ],
)
def test_single_dash_word_reaches_its_parser(capsys, argv, message, joined):
    # A single-dash token that is no option of the parser ("-x") is a
    # value in both forms, as "-1/2" is.
    if joined:
        argv = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_single_dash_help_is_still_an_option(capsys):
    code, out, err = run(capsys, "mms", "-h")
    assert (code, err) == (0, "")
    assert out.startswith("usage: mmsfair mms")


_JSON_HELP = ["machine-readable output", "write a replayable run record (JSON)"]
_ITEMS_HELP = [
    "comma/whitespace separated item values",
    "file with item values (text or JSON array)",
]
_LIMITS_HELP = [
    "search safety bound on item count (default 16)",
    "search safety bound on part count (default 10)",
]


@pytest.mark.parametrize(
    "argv, inputs, helps",
    [
        (["mms", "--pair", "1/2"],
         {"items": [], "pair": "1/2", "max_items": 16, "max_parts": 10},
         [*_ITEMS_HELP, "share condition as l/d", *_LIMITS_HELP, *_JSON_HELP]),
        (["dominates", "1", "2", "1", "3"], {"pair": "1/2", "other": "1/3"}, _JSON_HELP),
        (["pairs", "--entitlement", "1/3", "--items-count", "5"],
         {"entitlement": "1/3", "item_count": 5},
         ['entitlement, "p/q" or decimal', "show every filtration step", *_JSON_HELP]),
        (["audit", "--entitlements", "1/2,1/2", "--allocation", ""],
         {"items": [], "entitlements": ["1/2", "1/2"], "allocation": [[]],
          "criteria": ["omms", "wmms", "bmms"], "max_items": 16, "max_parts": 10},
         [*_ITEMS_HELP, 'comma separated, e.g. "0.4,0.6"',
          'bundles of item indices, ";"-separated, e.g. "0,3;1,2;4" (empty allowed)',
          "subset of omms,wmms,bmms (default: all)", *_LIMITS_HELP, *_JSON_HELP]),
        (["scan"],
         {"max_items": 2, "value_grid": [], "entitlement_grid": [],
          "max_instances": None, "seed": 0, "max_parts": 10},
         ["largest multiset size to enumerate (default 2)", 'value grid, e.g. "0,40,60"',
          'entitlement vectors, ";"-separated, e.g. "0.4,0.6;0.6,0.2,0.2"',
          "write the CSV report here", _LIMITS_HELP[1], *_JSON_HELP]),
    ],
)
def test_minimal_argv_builds_every_default_input(capsys, argv, inputs, helps):
    # What the parser hands to `execute`, with every default spelled out, and
    # each flag's help in that subcommand's --help (wrapping ignored).
    args = build_parser().parse_args(argv)
    assert (args.json, args.record) == (False, None)
    assert COMMANDS[argv[0]][0](args) == inputs
    assert main([argv[0], "--help"]) == 0
    shown = "".join(capsys.readouterr().out.split())
    for text in helps:
        assert "".join(text.split()) in shown, text


class _ClosedPipe(io.StringIO):
    # A standard output whose reader has left, as under `mmsfair ... | head`.
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, code", [
    (["dominates", "1", "2", "1", "3"], 0),
    (["dominates", "1", "3", "1", "2", "--json"], 1),
    (["mms", "--pair", "0/2000", "--items", "5,4"], 0),
])
def test_a_closed_stdout_keeps_the_exit_code_and_says_nothing(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    try:
        assert main(argv) == code
        assert not isinstance(sys.stdout, _ClosedPipe)  # the exit flush goes to devnull
    finally:
        sys.stdout.close()
    assert capsys.readouterr().err == ""
