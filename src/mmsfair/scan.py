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
One `criteria.ShareTables` serves all rows of a scan and goes with it.
`scan_one` builds a row's JSON from the integer pairs of `ShareTables.agents`,
comparing them by cross-multiplying, with no Fraction arithmetic
(denominators are positive; OMMS_i over 1); `report_jsonable` counts the rows
into the summary.
"""
from __future__ import annotations

import csv
import itertools
import random
import sys
from bisect import bisect_right
from math import comb, gcd
from typing import IO, Sequence

from .core import EntitlementVector, Instance, InstanceTooLargeError, Value
from .criteria import ShareTables
from .engine import DEFAULT_LIMITS, SearchLimits

# The row fields behind the four flags, the CSV's last four columns.
_FLAGS = ("wmms_stronger", "omms_stronger", "bmms_below_wmms", "bmms_below_omms")


def report_jsonable(rows: list[dict], seed: int) -> dict:
    """A scan's JSON: its rows, as `scan_one` builds them, and their counts."""
    return {"seed": seed, "rows": rows, "summary": {
        "rows": len(rows),
        "rows_wmms_strictly_stronger": sum(1 for r in rows if r["wmms_stronger"]),
        "rows_omms_strictly_stronger": sum(1 for r in rows if r["omms_stronger"]),
        "rows_equal_entitlements": sum(1 for r in rows if r["equal_entitlements"]),
        "bmms_conjecture_counterexamples": sum(
            1 for r in rows if r["bmms_below_wmms"] or r["bmms_below_omms"]),
    }}


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


def scan_one(
    instance: Instance,
    t: EntitlementVector,
    limits: SearchLimits = DEFAULT_LIMITS,
    tables: ShareTables | None = None,
) -> dict:
    """One row's JSON: per agent the OMMS maximum and "p/q" of WMMS and BMMS,
    and the agents where one notion is strictly stronger than another."""
    agents = (ShareTables() if tables is None else tables).agents(instance, t, limits)
    entitlements, omms_max, wmms, bmms = [], [], [], []
    wmms_stronger, omms_stronger, below_wmms, below_omms = [], [], [], []
    for i, (a, (_, o, b, wn, wd)) in enumerate(zip(t, agents)):
        p, q = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        g = gcd(wn, wd)
        entitlements.append(f"{p}/{q}")
        omms_max.append(o)
        wmms.append(f"{wn // g}/{wd // g}")
        bmms.append(f"{bn}/{bd}")
        if wn > o * wd:
            wmms_stronger.append(i)
        elif o * wd > wn:
            omms_stronger.append(i)
        if bn * wd < wn * bd:
            below_wmms.append(i)
        if bn < o * bd:
            below_omms.append(i)
    return {
        "items": list(instance.items),
        "entitlements": entitlements,
        "omms_max": omms_max,
        "wmms": wmms,
        "bmms": bmms,
        "wmms_stronger": wmms_stronger,
        "omms_stronger": omms_stronger,
        "bmms_below_wmms": below_wmms,
        "bmms_below_omms": below_omms,
        # Lowest-terms texts are equal exactly when the entitlements are.
        "equal_entitlements": len(set(entitlements)) == 1,
        "omms_wmms_coincide": not (wmms_stronger or omms_stronger),
    }


def notion_separation_scan(
    max_items: int,
    value_grid: Sequence[Value],
    entitlement_grid: Sequence[EntitlementVector],
    *,
    max_instances: int | None = None,
    seed: int = 0,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> dict:
    """Scan every multiset of 1..max_items values from `value_grid` against
    every entitlement vector; sample deterministically when the multiset
    count exceeds `max_instances`. Rows are sorted by instance encoding."""
    tables = ShareTables()  # one for all rows: see ShareTables
    return report_jsonable([
        scan_one(instance, t, limits, tables)
        for instance in map(Instance, _instances(max_items, value_grid, max_instances, seed))
        for t in entitlement_grid], seed)
