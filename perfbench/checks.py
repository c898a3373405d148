"""Output checks for benchmark queries.

Each check re-derives something the command's answer must satisfy from the
query's own inputs, without calling the package, and returns a message for
the first violation or None. A query whose check fails counts as failed.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import Query

EXIT_OK, EXIT_FALSE = 0, 1


def digest(code: int, outputs: dict) -> str:
    """Stable digest of one answer: exit code plus canonical JSON outputs."""
    blob = json.dumps({"code": code, "outputs": outputs}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _check_mms(query: Query, code: int, out: dict) -> str | None:
    if code != EXIT_OK:
        return f"exit code {code}"
    l, d = (int(x) for x in query.inputs["pair"].split("/"))
    items = query.inputs["items"]
    parts, sums, value = out["witness_parts"], out["witness_part_sums"], out["value"]
    if len(parts) != d or sorted(v for p in parts for v in p) != sorted(items):
        return "witness is not a partition of the items into d parts"
    if [sum(p) for p in parts] != sums:
        return "witness part sums do not add up"
    if sum(sorted(sums)[:l]) != value:
        return f"l smallest part sums are {sum(sorted(sums)[:l])}, value is {value}"
    if value > l * sum(items) // d:
        return f"value {value} exceeds l*T//d"
    return None


def _check_audit(query: Query, code: int, out: dict) -> str | None:
    agents = out["agents"]
    verdicts = [a[c]["ok"] for a in agents for c in out["criteria"]]
    if out["all_ok"] != all(verdicts):
        return "all_ok disagrees with the per-agent verdicts"
    if code != (EXIT_OK if out["all_ok"] else EXIT_FALSE):
        return f"exit code {code} with all_ok={out['all_ok']}"
    if len(agents) == 2:
        # Documented in criteria: for two agents the labeled-partition
        # search (WMMS) and the subset-sum route (BMMS) must agree.
        for a in agents:
            if Fraction(a["wmms"]["value"]) != Fraction(a["bmms"]["value"]):
                return f"agent {a['agent']}: WMMS {a['wmms']['value']} != BMMS {a['bmms']['value']}"
    return None


def _check_pairs(query: Query, code: int, out: dict) -> str | None:
    if code != EXIT_OK:
        return f"exit code {code}"
    candidates = out["candidates"]
    if len(candidates) != query.inputs["item_count"]:
        return "one candidate per d expected"
    removed = [step["removed"] for step in out["trace"]]
    kept = out["survivors"]
    if sorted(kept + removed) != sorted(candidates) or set(kept) & set(removed):
        return "survivors plus trace removals are not the candidates"
    return None


def _check_scan(query: Query, code: int, out: dict) -> str | None:
    if code != EXIT_OK:
        return f"exit code {code}"
    rows = len(out["rows"])
    if rows != query.expect["rows"] or out["summary"]["rows"] != rows:
        return f"{rows} rows, expected {query.expect['rows']}"
    return None


_CHECKS = {
    "mms": _check_mms,
    "audit": _check_audit,
    "pairs": _check_pairs,
    "scan": _check_scan,
}


def check(query: Query, code: int, outputs: dict) -> str | None:
    return _CHECKS[query.command](query, code, outputs)
