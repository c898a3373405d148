"""Empirical comparison of the three fairness notions over small grids.

For each (instance, entitlement vector) combination the scan records the
per-agent OMMS requirement maximum, the WMMS value, and the BMMS value,
and flags where one notion is strictly stronger than another. The claim
that BMMS-fairness implies the other two is only ever reported as
"counterexample found" or "none found at this scale", never asserted.
"""
from __future__ import annotations

import csv
import itertools
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import IO, Sequence

from .core import EntitlementVector, Instance, InstanceTooLargeError, Value, format_rational
from .criteria import ShareTables, agent_shares
from .engine import DEFAULT_LIMITS, SearchLimits


@dataclass(frozen=True, slots=True)
class ScanRow:
    items: tuple[Value, ...]
    entitlements: tuple[Fraction, ...]
    omms_max: tuple[Value, ...]
    wmms: tuple[Fraction, ...]
    bmms: tuple[Fraction, ...]
    # Agent indices where one requirement strictly exceeds another.
    wmms_stronger: tuple[int, ...]
    omms_stronger: tuple[int, ...]
    bmms_below_wmms: tuple[int, ...]
    bmms_below_omms: tuple[int, ...]
    # Set once per row, from integer pairs: a Fraction is in lowest terms.
    equal_entitlements: bool = field(init=False)

    def __post_init__(self) -> None:
        pairs = {(t.numerator, t.denominator) for t in self.entitlements}
        object.__setattr__(self, "equal_entitlements", len(pairs) == 1)

    @property
    def omms_wmms_coincide(self) -> bool:
        return not self.wmms_stronger and not self.omms_stronger


@dataclass(frozen=True, slots=True)
class ScanReport:
    rows: tuple[ScanRow, ...]
    seed: int

    def conjecture_counterexamples(self) -> list[ScanRow]:
        """Rows where a BMMS-fair bundle could fail WMMS or OMMS."""
        return [r for r in self.rows if r.bmms_below_wmms or r.bmms_below_omms]

    def summary(self) -> dict:
        return {
            "rows": len(self.rows),
            "rows_wmms_strictly_stronger": sum(1 for r in self.rows if r.wmms_stronger),
            "rows_omms_strictly_stronger": sum(1 for r in self.rows if r.omms_stronger),
            "rows_equal_entitlements": sum(1 for r in self.rows if r.equal_entitlements),
            "bmms_conjecture_counterexamples": len(self.conjecture_counterexamples()),
        }


def _row_jsonable(row: ScanRow) -> dict:
    return {
        "items": list(row.items),
        "entitlements": [format_rational(t) for t in row.entitlements],
        "omms_max": list(row.omms_max),
        "wmms": [format_rational(v) for v in row.wmms],
        "bmms": [format_rational(v) for v in row.bmms],
        "wmms_stronger": list(row.wmms_stronger),
        "omms_stronger": list(row.omms_stronger),
        "bmms_below_wmms": list(row.bmms_below_wmms),
        "bmms_below_omms": list(row.bmms_below_omms),
        "equal_entitlements": row.equal_entitlements,
        "omms_wmms_coincide": row.omms_wmms_coincide,
    }


def report_jsonable(report: ScanReport) -> dict:
    return {
        "seed": report.seed,
        "rows": [_row_jsonable(r) for r in report.rows],
        "summary": report.summary(),
    }


CSV_COLUMNS = [
    "items",
    "entitlements",
    "agent",
    "omms_max",
    "wmms",
    "bmms",
    "wmms_stronger_than_omms",
    "omms_stronger_than_wmms",
    "bmms_below_wmms",
    "bmms_below_omms",
]


def write_csv_rows(rows: Sequence[dict], out: IO[str]) -> None:
    """One line per (instance, entitlements, agent); rows as produced by
    `report_jsonable`."""
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        items_text = " ".join(str(v) for v in row["items"])
        ents_text = " ".join(row["entitlements"])
        for i in range(len(row["entitlements"])):
            writer.writerow(
                [
                    items_text,
                    ents_text,
                    i,
                    row["omms_max"][i],
                    row["wmms"][i],
                    row["bmms"][i],
                    int(i in row["wmms_stronger"]),
                    int(i in row["omms_stronger"]),
                    int(i in row["bmms_below_wmms"]),
                    int(i in row["bmms_below_omms"]),
                ]
            )


def _instances(
    max_items: int, value_grid: Sequence[Value], max_instances: int | None, seed: int
) -> list[tuple[Value, ...]]:
    # Multisets by size, each size in lexicographic order of the indices of
    # their values in the descending grid; a full scan unranks every rank in
    # that listing, a sample only the ranks it draws.
    grid = sorted(set(value_grid), reverse=True)
    if not grid:
        return []
    n, sizes = len(grid), range(1, max_items + 1)
    starts = [0, *itertools.accumulate(comb(n + size - 1, size) for size in sizes)]
    total = starts[-1]
    if max_instances is None or total <= max_instances:
        ranks = range(total)
    elif total > sys.maxsize:  # the most `random.sample` can index
        raise InstanceTooLargeError(f"scan too large to sample: {total} multisets")
    else:
        ranks = random.Random(seed).sample(range(total), max_instances)
    chosen = []
    for rank in ranks:
        size = bisect_right(starts, rank)
        rank -= starts[size - 1]
        multiset, a = [], 0
        for left in range(size, 0, -1):
            while rank >= (block := comb(n - a + left - 2, left - 1)):
                rank -= block
                a += 1
            multiset.append(grid[a])
        chosen.append(tuple(multiset))
    return sorted(chosen, key=lambda t: (len(t), t))


def scan_one(
    instance: Instance,
    t: EntitlementVector,
    limits: SearchLimits = DEFAULT_LIMITS,
    tables: ShareTables | None = None,
) -> ScanRow:
    requirements, wmms, bmms = zip(*agent_shares(instance, t, limits, tables))
    omms_max = tuple(max((v for _, v in r), default=0) for r in requirements)
    # Integer comparisons by cross-multiplying; denominators are positive.
    w = [(v.numerator, v.denominator) for v in wmms]
    b = [(v.numerator, v.denominator) for v in bmms]
    idx = range(len(t))
    return ScanRow(
        items=tuple(instance.items),
        entitlements=tuple(t.entitlements),
        omms_max=omms_max,
        wmms=wmms,
        bmms=bmms,
        wmms_stronger=tuple(i for i in idx if w[i][0] > omms_max[i] * w[i][1]),
        omms_stronger=tuple(i for i in idx if omms_max[i] * w[i][1] > w[i][0]),
        bmms_below_wmms=tuple(i for i in idx if b[i][0] * w[i][1] < w[i][0] * b[i][1]),
        bmms_below_omms=tuple(i for i in idx if b[i][0] < omms_max[i] * b[i][1]),
    )


def notion_separation_scan(
    max_items: int,
    value_grid: Sequence[Value],
    entitlement_grid: Sequence[EntitlementVector],
    *,
    max_instances: int | None = None,
    seed: int = 0,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> ScanReport:
    """Scan every multiset of 1..max_items values from `value_grid` against
    every entitlement vector; sample deterministically when the multiset
    count exceeds `max_instances`. Rows are sorted by instance encoding."""
    if max_instances is not None and max_instances < 0:
        raise ValueError(f"max_instances must be non-negative, got {max_instances}")
    rows = []
    tables = ShareTables()  # one for all rows: see ShareTables
    for items in _instances(max_items, value_grid, max_instances, seed):
        instance = Instance(items)
        for t in entitlement_grid:
            rows.append(scan_one(instance, t, limits, tables))
    return ScanReport(rows=tuple(rows), seed=seed)
