"""Empirical comparison of the three fairness notions over small grids.

For each (instance, entitlement vector) combination the scan records the
per-agent OMMS requirement maximum, the WMMS value, and the BMMS value,
and flags where one notion is strictly stronger than another. BMMS-fair
implies WMMS- and OMMS-fair, a theorem (for t_i < 1; t_i = 1 is trivial).
BMMS_i >= WMMS_i: split an optimal WMMS partition, V(P_j) >= t_j*R, into
X = P_i and the rest; V(X)/t_i >= R and V(rest)/(1 - t_i) >= R. BMMS_i >=
every l-out-of-d share with l/d <= t_i: the l smallest parts X, of sum s,
of an optimal partition leave d - l parts of at least s/l each, so
V(rest)/(1 - t_i) >= (d - l)s/(l(1 - t_i)) >= s/t_i. So a row counted
against it is an alarm: BMMS (subset sums) and the search disagree.
One `criteria.ShareTables` serves all rows of a scan and goes with it. A row
compares the integer pairs of `ShareTables.agents` by cross-multiplying, with
no Fraction arithmetic (denominators are positive; OMMS_i over 1), in
`_agent_values`, the flags' one home. The CLI's `_scan_jsonable` writes the JSON
in one pass, with no ScanRow, ScanReport or Fraction per row; the tests hold it
to the reference, `report_jsonable(notion_separation_scan(...))`. Both lay rows
out and count with `_row_dict`.
"""
from __future__ import annotations

import csv
import itertools
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import IO, Sequence

from .core import EntitlementVector, Instance, InstanceTooLargeError, Value, format_rational
from .criteria import ShareTables
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

    @property
    def equal_entitlements(self) -> bool:
        # From integer pairs: a Fraction is in lowest terms, and hashes in Python.
        return len({(t.numerator, t.denominator) for t in self.entitlements}) == 1

    @property
    def omms_wmms_coincide(self) -> bool:
        return not self.wmms_stronger and not self.omms_stronger


# The row fields behind the four flags, the CSV's last four columns.
_FLAGS = ("wmms_stronger", "omms_stronger", "bmms_below_wmms", "bmms_below_omms")
_SUMMARY = ("rows", "rows_wmms_strictly_stronger", "rows_omms_strictly_stronger",
            "rows_equal_entitlements", "bmms_conjecture_counterexamples")


@dataclass(frozen=True, slots=True)
class ScanReport:
    rows: tuple[ScanRow, ...]
    seed: int

    def conjecture_counterexamples(self) -> list[ScanRow]:
        """Rows where a BMMS-fair bundle fails WMMS or OMMS: an alarm (module docstring)."""
        return [r for r in self.rows if r.bmms_below_wmms or r.bmms_below_omms]

    def summary(self) -> dict:
        return report_jsonable(self)["summary"]


def _row_dict(counts, items, omms_max, equal, flags, entitlements, wmms, bmms) -> dict:
    """A row's JSON, counted into `counts`: the summary, in `_SUMMARY` order."""
    counts[0] += 1
    counts[1] += bool(flags[0])
    counts[2] += bool(flags[1])
    counts[3] += equal
    counts[4] += bool(flags[2] or flags[3])
    return {
        "items": list(items),
        "entitlements": list(entitlements),
        "omms_max": omms_max,
        "wmms": wmms,
        "bmms": bmms,
        "wmms_stronger": flags[0],
        "omms_stronger": flags[1],
        "bmms_below_wmms": flags[2],
        "bmms_below_omms": flags[3],
        "equal_entitlements": equal,
        "omms_wmms_coincide": not (flags[0] or flags[1]),
    }


def report_jsonable(report: ScanReport) -> dict:
    counts = [0] * len(_SUMMARY)
    rows = [_row_dict(counts, r.items, list(r.omms_max), r.equal_entitlements,
                      [list(getattr(r, flag)) for flag in _FLAGS],
                      *([format_rational(v) for v in values]
                        for values in (r.entitlements, r.wmms, r.bmms)))
            for r in report.rows]
    return {"seed": report.seed, "rows": rows, "summary": dict(zip(_SUMMARY, counts))}


CSV_COLUMNS = ["items", "entitlements", "agent", "omms_max", "wmms", "bmms",
               "wmms_stronger_than_omms", "omms_stronger_than_wmms", "bmms_below_wmms",
               "bmms_below_omms"]


def write_csv_rows(rows: Sequence[dict], out: IO[str]) -> None:
    """One line per (instance, entitlements, agent); rows as produced by
    `report_jsonable`."""
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        items_text = " ".join(str(v) for v in row["items"])
        ents_text = " ".join(row["entitlements"])
        for i in range(len(row["entitlements"])):
            writer.writerow([items_text, ents_text, i, row["omms_max"][i], row["wmms"][i],
                             row["bmms"][i], *(int(i in row[flag]) for flag in _FLAGS)])


def _instances(
    max_items: int, value_grid: Sequence[Value], max_instances: int | None, seed: int
) -> list[tuple[Value, ...]]:
    if max_items < 0 or max_instances is not None and max_instances < 0:
        raise ValueError(f"need max_items, max_instances >= 0: {max_items}, {max_instances}")
    # Multisets by size, each size in lexicographic order of the indices of
    # their values in the descending grid; a full scan unranks every rank in
    # that listing, a sample only the ranks it draws.
    grid = sorted(set(value_grid), reverse=True)
    if not grid:  # not only a shortcut: `starts` below would hold max_items + 1 zeros
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


def _agent_values(instance, t, limits, tables) -> tuple:
    """`ShareTables.agents`, OMMS max and "p/q" of WMMS and BMMS per agent; the flags."""
    agents = tables.agents(instance, t, limits)
    omms_max, wmms, bmms, flags = [], [], [], ([], [], [], [])
    for i, (_, o, b, wn, wd) in enumerate(agents):
        bn, bd = b.as_integer_ratio()
        g = gcd(wn, wd)
        omms_max.append(o)
        wmms.append(f"{wn // g}/{wd // g}")
        bmms.append(f"{bn}/{bd}")
        if wn > o * wd:
            flags[0].append(i)
        elif o * wd > wn:
            flags[1].append(i)
        if bn * wd < wn * bd:
            flags[2].append(i)
        if bn < o * bd:
            flags[3].append(i)
    return agents, omms_max, wmms, bmms, flags


def scan_one(
    instance: Instance,
    t: EntitlementVector,
    limits: SearchLimits = DEFAULT_LIMITS,
    tables: ShareTables | None = None,
) -> ScanRow:
    agents, omms_max, _, _, flags = _agent_values(
        instance, t, limits, ShareTables() if tables is None else tables)
    return ScanRow(tuple(instance.items), tuple(t.entitlements), tuple(omms_max),
                   tuple(Fraction(wn, wd) for *_, wn, wd in agents),
                   tuple(b for _, _, b, _, _ in agents), *map(tuple, flags))


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
    tables = ShareTables()  # one for all rows: see ShareTables
    rows = [scan_one(instance, t, limits, tables)
            for instance in map(Instance, _instances(max_items, value_grid, max_instances, seed))
            for t in entitlement_grid]
    return ScanReport(rows=tuple(rows), seed=seed)


def _scan_jsonable(max_items, value_grid, entitlement_grid, max_instances, seed, limits) -> dict:
    vectors = [(t, [format_rational(a) for a in t], len(set(t)) == 1) for t in entitlement_grid]
    tables, rows, counts = ShareTables(), [], [0] * len(_SUMMARY)
    for instance in map(Instance, _instances(max_items, value_grid, max_instances, seed)):
        for t, texts, equal in vectors:
            _, omms, wmms, bmms, flags = _agent_values(instance, t, limits, tables)
            rows.append(_row_dict(counts, instance.items, omms, equal, flags, texts, wmms, bmms))
    return {"seed": seed, "rows": rows, "summary": dict(zip(_SUMMARY, counts))}
