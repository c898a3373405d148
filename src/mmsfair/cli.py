"""Command-line interface.

Subcommands: `mms` (share value and witness), `dominates` (condition
comparison with counterexample), `pairs` (non-dominated conditions for an
entitlement), `audit` (allocation fairness report), `scan` (notion
separation sweep). Every command supports --json; outputs are
deterministic, so repeated runs are byte-identical. Exit codes: 0 success
or true verdict, 1 false verdict, 2 usage or parse error, 3 refused by the
search safety bound, or out of memory. A reader that closes standard output
early (`| head`) does not change the code: the answer was computed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .core import (
    EntitlementVector,
    Instance,
    InstanceTooLargeError,
    MmsPair,
    format_rational,
    parse_items,
    parse_rational,
)
from .criteria import CRITERIA, Allocation, audit, check_criteria
from .dominance import decompose, dominates
from .engine import DEFAULT_LIMITS, SearchLimits, mms, mms_cardinality
from .pairs import candidate_pairs, filtration_trace
from .scan import _scan_jsonable, write_csv_rows

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


def _int(value: object) -> int:
    """An int that is not a bool, or the decimal text of one; anything
    else, such as 3.7 or True, raises instead of being truncated."""
    if type(value) is int or isinstance(value, str) and value.strip().lstrip("+-").isdigit():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


class _Inputs(dict):
    def __missing__(self, key: str) -> object:  # refused like any malformed input
        raise ValueError(f"missing input {key!r}")


def _list(value: object, name: str, each=None) -> tuple:
    if not isinstance(value, (list, tuple)):  # a string would be read char by char
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value if each is None else map(each, value))


def _limits(inputs: dict) -> SearchLimits:
    return SearchLimits(
        max_items=_int(inputs.get("max_items", DEFAULT_LIMITS.max_items)),
        max_parts=_int(inputs.get("max_parts", DEFAULT_LIMITS.max_parts)),
    )


def execute(command: str, inputs: dict) -> tuple[int, dict]:
    """Pure dispatch from JSON-able inputs to (exit code, JSON-able outputs)."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    if not isinstance(inputs, dict):  # _Inputs(None) would raise a TypeError
        raise ValueError(f"inputs must be a dict, got {inputs!r}")
    _, run, _ = COMMANDS[command]
    return run(_Inputs(inputs))


def _exec_mms(inputs: dict) -> tuple[int, dict]:
    instance = Instance(_list(inputs["items"], "items"))
    pair = MmsPair.parse(inputs["pair"])
    result = mms(instance, pair, _limits(inputs))
    canonical = sorted(instance.items, reverse=True)
    parts = result.witness.parts(canonical)
    outputs = {
        "pair": str(pair),
        "value": result.value,
        "canonical_items": canonical,
        "witness": {"d": result.witness.d, "part_of": list(result.witness.part_of)},
        "witness_parts": parts,
        "witness_part_sums": [sum(part) for part in parts],
    }
    return EXIT_OK, outputs


def _exec_dominates(inputs: dict) -> tuple[int, dict]:
    p = MmsPair.parse(inputs["pair"])
    other = MmsPair.parse(inputs["other"])
    q, r = decompose(p.d, other.d)
    verdict = dominates(p, other)
    outputs = {
        "pair": str(p),
        "other": str(other),
        "dominates": verdict,
        "q": q,
        "r": r,
        "witness": None,
    }
    if not verdict:
        # `non_dominance_witness`'s d' unit items, valued by the closed form (any d').
        outputs["witness"] = {
            "items": [1] * other.d,
            "pair_value": mms_cardinality(other.d, p),
            "other_value": mms_cardinality(other.d, other),
        }
    return (EXIT_OK if verdict else EXIT_FALSE), outputs


def _exec_pairs(inputs: dict) -> tuple[int, dict]:
    a = parse_rational(inputs["entitlement"])
    m = _int(inputs["item_count"])
    candidates = candidate_pairs(a, m)
    trace = filtration_trace(a, m, candidates)
    removed = {t.removed.d for t in trace}  # each candidate has its own d
    names = [str(p) for p in candidates]  # names[d - 1]; `by` is a candidate too
    outputs = {
        "entitlement": format_rational(a),
        "item_count": m,
        "candidates": names,
        "survivors": [names[p.d - 1] for p in candidates if p.d not in removed],
        "trace": [
            {"removed": names[t.removed.d - 1], "by": names[t.by.d - 1], "q": t.q, "r": t.r}
            for t in trace
        ],
    }
    return EXIT_OK, outputs


def _exec_audit(inputs: dict) -> tuple[int, dict]:
    instance = Instance(_list(inputs["items"], "items"))
    t = EntitlementVector(_list(inputs["entitlements"], "entitlements", parse_rational))
    bundles = _list(inputs["allocation"], "allocation")
    alloc = Allocation.from_lists([_list(b, "allocation bundle") for b in bundles])
    criteria = list(_list(inputs.get("criteria") or CRITERIA, "criteria"))
    check_criteria(criteria)
    report = audit(instance, t, alloc, _limits(inputs))
    all_ok = report.all_ok(criteria)
    outputs = {
        "criteria": criteria,
        "all_ok": all_ok,
        "agents": [
            {
                "agent": a.agent,
                "bundle": sorted(alloc.bundles[a.agent]),
                "bundle_value": a.bundle_value,
                "omms": {
                    "ok": a.omms_ok,
                    "requirements": [
                        {"pair": str(p), "value": v} for p, v in a.omms_requirements
                    ],
                },
                "wmms": {"ok": a.wmms_ok, "value": format_rational(a.wmms_value)},
                "bmms": {"ok": a.bmms_ok, "value": format_rational(a.bmms_value)},
            }
            for a in report.agents
        ],
    }
    return (EXIT_OK if all_ok else EXIT_FALSE), outputs


def _exec_scan(inputs: dict) -> tuple[int, dict]:
    value_grid = _list(inputs.get("value_grid", []), "value_grid", _int)
    entitlement_grid = [
        EntitlementVector(_list(vector, "entitlement vector", parse_rational))
        for vector in _list(inputs.get("entitlement_grid", []), "entitlement_grid")
    ]
    max_instances = inputs.get("max_instances")
    return EXIT_OK, _scan_jsonable(
        _int(inputs.get("max_items", 0)), value_grid, entitlement_grid,
        None if max_instances is None else _int(max_instances), _int(inputs.get("seed", 0)),
        _limits(inputs))


def _render_mms(outputs: dict, args: argparse.Namespace) -> str:
    parts = " | ".join(str(p) for p in outputs["witness_parts"])
    return f"value: {outputs['value']}\nwitness parts: {parts}"


def _render_dominates(outputs: dict, args: argparse.Namespace) -> str:
    head = (
        f"{outputs['pair']} dominates {outputs['other']}: "
        f"{'yes' if outputs['dominates'] else 'no'} "
        f"(q={outputs['q']}, r={outputs['r']})"
    )
    if outputs["witness"] is None:
        return head
    w = outputs["witness"]
    return (
        head
        + f"\nwitness: {len(w['items'])} unit items -> "
        + f"{w['pair_value']} < {w['other_value']}"
    )


def _render_pairs(outputs: dict, args: argparse.Namespace) -> str:
    lines = [
        "candidates: " + " ".join(outputs["candidates"]),
        "survivors: " + " ".join(outputs["survivors"]),
    ]
    if args.trace:
        for step in outputs["trace"]:
            lines.append(
                f"{step['removed']} is filtered out by {step['by']} "
                f"(with q={step['q']}, r={step['r']})"
            )
    return "\n".join(lines)


def _render_audit(outputs: dict, args: argparse.Namespace) -> str:
    lines = []
    for a in outputs["agents"]:
        verdicts = " | ".join(
            f"{name} {'ok' if a[name]['ok'] else 'FAIL'}"
            for name in CRITERIA
        )
        lines.append(f"agent {a['agent']}: bundle value {a['bundle_value']} | {verdicts}")
    checked = ",".join(outputs["criteria"])
    lines.append(
        f"verdict ({checked}): {'all pass' if outputs['all_ok'] else 'FAIL'}"
    )
    return "\n".join(lines)


def _render_scan(outputs: dict, args: argparse.Namespace) -> str:
    s = outputs["summary"]
    lines = [
        f"rows: {s['rows']}",
        f"rows where WMMS is strictly stronger than OMMS: {s['rows_wmms_strictly_stronger']}",
        f"rows where OMMS is strictly stronger than WMMS: {s['rows_omms_strictly_stronger']}",
    ]
    n_counter = s["bmms_conjecture_counterexamples"]
    if n_counter:
        lines.append(
            f"BMMS-implies-WMMS/OMMS: COUNTEREXAMPLE FOUND in {n_counter} row(s)"
        )
    else:
        lines.append(
            f"BMMS-implies-WMMS/OMMS: no counterexample found at this scale "
            f"({s['rows']} rows)"
        )
    return "\n".join(lines)


def _load_items(args: argparse.Namespace) -> list[int]:
    if args.items_file:
        text = Path(args.items_file).read_text().strip()
        if text.startswith("["):
            try:
                return list(Instance(tuple(json.loads(text))).items)
            except RecursionError:
                raise ValueError(f"items file nested too deeply: {args.items_file}") from None
        return list(parse_items(text).items)
    return list(parse_items(args.items if args.items is not None else "").items)


def _search_inputs(args: argparse.Namespace) -> dict:
    return {"items": _load_items(args), "max_items": args.max_items, "max_parts": args.max_parts}


def _build_mms_inputs(args: argparse.Namespace) -> dict:
    return {"pair": args.pair, **_search_inputs(args)}


def _build_dominates_inputs(args: argparse.Namespace) -> dict:
    return {"pair": f"{args.l}/{args.d}", "other": f"{args.l_prime}/{args.d_prime}"}


def _build_pairs_inputs(args: argparse.Namespace) -> dict:
    return {"entitlement": args.entitlement, "item_count": args.items_count}


def _parse_allocation(text: str) -> list[list[int]]:
    bundles = []
    for segment in text.split(";"):
        try:
            bundles.append([int(t) for t in segment.replace(",", " ").split()])
        except ValueError as exc:
            raise ValueError(f"bad allocation segment {segment!r}") from exc
    return bundles


def _build_audit_inputs(args: argparse.Namespace) -> dict:
    criteria = [c.strip() for c in (args.criteria or "").split(",") if c.strip()]
    return {
        "entitlements": [s.strip() for s in args.entitlements.split(",") if s.strip()],
        "allocation": _parse_allocation(args.allocation),
        "criteria": criteria or list(CRITERIA),
        **_search_inputs(args),
    }


def _build_scan_inputs(args: argparse.Namespace) -> dict:
    entitlement_grid = [
        [s.strip() for s in vector.split(",") if s.strip()]
        for vector in (args.entitlements or "").split(";")
        if vector.strip()
    ]
    return {
        "max_items": args.max_items,
        "value_grid": list(parse_items(args.values or "").items),
        "entitlement_grid": entitlement_grid,
        "max_instances": args.max_instances,
        "seed": args.seed,
        "max_parts": args.max_parts,
    }


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with a single "-" and is not one of the
    parser's option strings, such as "-1/2,3/2" or "-x", as a value: the
    only single-dash option is "-h", and the value's own parser gives the
    real error."""

    def _parse_optional(self, arg_string):
        if (
            arg_string.startswith("-")
            and not arg_string.startswith("--")
            and arg_string not in self._option_string_actions
        ):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mmsfair",
        description="Exact maximin-share fairness toolkit for unequal entitlements.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    # The flags that several subcommands share, as parents each built on the last.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="machine-readable output")
    output.add_argument(
        "--record", metavar="FILE", help="write a replayable run record (JSON)"
    )
    parts = argparse.ArgumentParser(add_help=False, parents=[output])
    parts.add_argument(
        "--max-parts",
        type=int,
        default=DEFAULT_LIMITS.max_parts,
        help="search safety bound on part count (default %(default)s)",
    )
    search = argparse.ArgumentParser(add_help=False, parents=[parts])
    search.add_argument("--items", help="comma/whitespace separated item values")
    search.add_argument("--items-file", help="file with item values (text or JSON array)")
    search.add_argument(
        "--max-items",
        type=int,
        default=DEFAULT_LIMITS.max_items,
        help="search safety bound on item count (default %(default)s)",
    )

    p_mms = sub.add_parser("mms", parents=[search], help="l-out-of-d share value and witness")
    p_mms.add_argument("--pair", required=True, help="share condition as l/d")

    p_dom = sub.add_parser("dominates", parents=[output], help="does (l,d) dominate (l',d')?")
    p_dom.add_argument("l", type=int)
    p_dom.add_argument("d", type=int)
    p_dom.add_argument("l_prime", type=int)
    p_dom.add_argument("d_prime", type=int)

    p_pairs = sub.add_parser(
        "pairs", parents=[output], help="non-dominated conditions for an entitlement"
    )
    p_pairs.add_argument("--entitlement", required=True, help='entitlement, "p/q" or decimal')
    p_pairs.add_argument("--items-count", required=True, type=int)
    p_pairs.add_argument("--trace", action="store_true", help="show every filtration step")

    p_audit = sub.add_parser(
        "audit", parents=[search], help="audit an allocation against the criteria"
    )
    p_audit.add_argument(
        "--entitlements", required=True, help='comma separated, e.g. "0.4,0.6"'
    )
    p_audit.add_argument(
        "--allocation",
        required=True,
        help='bundles of item indices, ";"-separated, e.g. "0,3;1,2;4" (empty allowed)',
    )
    p_audit.add_argument(
        "--criteria", default="", help="subset of omms,wmms,bmms (default: all)"
    )

    p_scan = sub.add_parser(
        "scan", parents=[parts], help="notion separation sweep over small grids"
    )
    p_scan.add_argument(
        "--max-items",
        type=int,
        default=2,
        help="largest multiset size to enumerate (default %(default)s)",
    )
    p_scan.add_argument("--values", default="", help='value grid, e.g. "0,40,60"')
    p_scan.add_argument(
        "--entitlements",
        default="",
        help='entitlement vectors, ";"-separated, e.g. "0.4,0.6;0.6,0.2,0.2"',
    )
    p_scan.add_argument("--max-instances", type=int, default=None)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--out", metavar="FILE", help="write the CSV report here")

    return parser


# name -> (build inputs from parsed args, execute inputs, render outputs as text)
COMMANDS = {
    "mms": (_build_mms_inputs, _exec_mms, _render_mms),
    "dominates": (_build_dominates_inputs, _exec_dominates, _render_dominates),
    "pairs": (_build_pairs_inputs, _exec_pairs, _render_pairs),
    "audit": (_build_audit_inputs, _exec_audit, _render_audit),
    "scan": (_build_scan_inputs, _exec_scan, _render_scan),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    build, _, render = COMMANDS[args.command]

    try:
        inputs = build(args)
        started = time.perf_counter()
        code, outputs = execute(args.command, inputs)
        wall = time.perf_counter() - started
        # The record is the envelope plus wall time; `execute(record["command"],
        # record["inputs"])` gives back its outputs.
        envelope = {
            "command": args.command,
            "engine_version": __version__,
            "inputs": inputs,
            "outputs": outputs,
        }
        if args.record:
            record = dict(envelope, wall_time_s=wall)
            Path(args.record).write_text(json.dumps(record, sort_keys=True, indent=2))
        if getattr(args, "out", None):
            with open(args.out, "w", newline="") as handle:
                write_csv_rows(outputs["rows"], handle)
        text = (json.dumps(envelope, sort_keys=True, indent=2) if args.json
                else render(outputs, args))
    except (InstanceTooLargeError, MemoryError) as exc:
        # A MemoryError carries no message; exit 1 would read as a false verdict.
        print(f"refused: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError) as exc:  # also str() of an int past Python's digit limit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left (`| head`), and the exit flush must stay quiet
        sys.stdout = open(os.devnull, "w")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
