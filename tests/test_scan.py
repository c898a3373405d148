import io
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mmsfair import criteria, scan
from mmsfair.core import EntitlementVector, Instance, InstanceTooLargeError
from mmsfair.criteria import bmms_value, weighted_maximin_partition
from mmsfair.engine import mms
from mmsfair.pairs import non_dominated_pairs
from mmsfair.scan import (
    CSV_COLUMNS,
    ScanRow,
    notion_separation_scan,
    report_jsonable,
    write_csv_rows,
)

T_40_60 = EntitlementVector((Fraction(2, 5), Fraction(3, 5)))
T_SKEW = EntitlementVector((Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)))
T_74_26 = EntitlementVector((Fraction(74, 100), Fraction(26, 100)))


def tied(n):
    return EntitlementVector((Fraction(1, n),) * n)


def _row(report, items, entitlements):
    for row in report.rows:
        if row.items == items and row.entitlements == entitlements.entitlements:
            return row
    raise AssertionError(f"row not found: {items}, {entitlements}")


def test_scan_rediscovers_wmms_stronger_configuration():
    report = notion_separation_scan(2, [40, 60], [T_40_60])
    row = _row(report, (60, 40), T_40_60)
    assert row.wmms == (Fraction(40), Fraction(60))
    assert row.omms_max == (0, 40)
    assert row.wmms_stronger == (0, 1)
    assert row.omms_stronger == ()


def test_scan_rediscovers_omms_stronger_configuration():
    report = notion_separation_scan(2, [40, 60], [T_SKEW])
    row = _row(report, (60, 40), T_SKEW)
    assert row.wmms == (Fraction(0), Fraction(0), Fraction(0))
    assert row.omms_max[0] == 40
    assert 0 in row.omms_stronger


def test_scan_equal_entitlements_omms_wmms_coincide():
    grid = [
        EntitlementVector((Fraction(1, 2), Fraction(1, 2))),
        EntitlementVector((Fraction(1, 3),) * 3),
    ]
    report = notion_separation_scan(3, [0, 1, 2, 3], grid)
    assert report.rows
    for row in report.rows:
        assert row.equal_entitlements
        assert row.omms_wmms_coincide
        # The bipartite notion may be strictly stronger; it must never be
        # weaker than the other two here, or the conjecture scan flags it.
        assert not row.bmms_below_wmms
        assert not row.bmms_below_omms


def test_scan_is_deterministic_and_sorted():
    grid = [T_40_60, T_SKEW]
    first = notion_separation_scan(2, [0, 40, 60], grid, max_instances=5, seed=3)
    second = notion_separation_scan(2, [0, 40, 60], grid, max_instances=5, seed=3)
    assert first == second
    sizes = [(len(r.items), r.items) for r in first.rows]
    assert sizes == sorted(sizes)
    different_seed = notion_separation_scan(2, [0, 40, 60], grid, max_instances=5, seed=4)
    assert {r.items for r in different_seed.rows} != {r.items for r in first.rows}


def test_scan_empty_bounds_yield_empty_report():
    assert notion_separation_scan(0, [1, 2], [T_40_60]).rows == ()
    assert notion_separation_scan(2, [], [T_40_60]).rows == ()
    assert notion_separation_scan(2, [1, 2], []).rows == ()


def test_scan_of_an_empty_grid_enumerates_nothing(monkeypatch):
    # Sizes 1..max_items come from outside (`scan --max-items`); with no
    # values there is nothing to enumerate, however large the bound.
    def enumerated(*args):
        raise AssertionError("enumerated multisets of an empty grid")

    monkeypatch.setattr(scan.itertools, "combinations_with_replacement", enumerated)
    assert notion_separation_scan(10**9, [], [T_40_60]).rows == ()


def _listed(max_items, value_grid, max_instances, seed):
    # Every multiset listed, then sampled: the listing that `_instances`
    # unranks, kept here as its oracle.
    grid = sorted(set(value_grid), reverse=True)
    every = [
        t for size in range(1, max_items + 1)
        for t in itertools.combinations_with_replacement(grid, size)
    ]
    if max_instances is not None and len(every) > max_instances:
        every = random.Random(seed).sample(every, max_instances)
    return sorted(every, key=lambda t: (len(t), t))


def test_instances_unrank_the_listing_they_sample_from():
    grids = [[5], [3, 3, 1], [0, 7, 19, 31, 60], [0, 1, 2, 40, 60], list(range(7))]
    for grid, max_items in itertools.product(grids, range(5)):
        for max_instances, seed in itertools.product([None, 0, 1, 5, 12, 60, 300], range(3)):
            args = (max_items, grid, max_instances, seed)
            assert scan._instances(*args) == _listed(*args), args


def test_instances_of_a_large_grid_are_sampled_without_listing(monkeypatch):
    # C(40, 10) - 1, about 8.5e8 multisets of up to 30 values out of 10:
    # listing them first would take minutes and gigabytes, so it fails here.
    # A full scan unranks every index on the same path, with no listing.
    def enumerated(*args):
        raise AssertionError("listed every multiset to sample 5")

    monkeypatch.setattr(scan.itertools, "combinations_with_replacement", enumerated)
    assert scan._instances(2, [3, 1, 3], None, 0) == [(1,), (3,), (1, 1), (3, 1), (3, 3)]
    chosen = scan._instances(30, range(10), 5, 0)
    assert len(chosen) == 5 == len(set(chosen))
    for items in chosen:
        assert 1 <= len(items) <= 30 and list(items) == sorted(items, reverse=True)
        assert set(items) <= set(range(10))
    assert chosen == sorted(chosen, key=lambda t: (len(t), t))


def test_instances_refuse_a_grid_too_large_to_sample():
    # About 1.4e28 multisets of up to 40 values out of 60: more indices than
    # `random.sample` can draw from, so the scan is refused (exit 3).
    with pytest.raises(InstanceTooLargeError, match="too large to sample"):
        scan._instances(40, range(60), 2, 0)


def test_report_serialization_round_trip():
    report = notion_separation_scan(2, [40, 60], [T_40_60])
    blob = report_jsonable(report)
    assert blob["summary"]["rows"] == len(report.rows)
    assert blob["rows"][0]["entitlements"] == ["2/5", "3/5"]

    out = io.StringIO()
    write_csv_rows(blob["rows"], out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # one line per (instance, entitlements, agent)
    assert len(lines) == 1 + sum(len(r.entitlements) for r in report.rows)


def test_scan_rejects_negative_max_instances():
    with pytest.raises(ValueError, match="max_instances"):
        notion_separation_scan(2, [40, 60], [T_40_60], max_instances=-1)


def test_scan_computes_each_share_once_per_instance(monkeypatch):
    # 3/5 is in both vectors, so both need its shares on every instance.
    grid = [T_40_60, T_SKEW]
    expected = notion_separation_scan(3, [0, 1, 40, 60], grid)
    calls = []
    real = criteria._share  # the value-only share behind the share table

    def counted(instance, pair, limits, lex_first):
        calls.append((instance.items, pair))
        return real(instance, pair, limits, lex_first)

    monkeypatch.setattr(criteria, "_share", counted)
    assert notion_separation_scan(3, [0, 1, 40, 60], grid) == expected
    assert calls and len(calls) == len(set(calls))


def reference_row(instance, t):
    # One row on its own, sharing nothing with other rows or agents: the
    # weighted search for every vector, tied or not, and a fresh pair set,
    # share and subset-sum enumeration per agent, compared as Fractions.
    m = len(instance.items)
    best, _ = weighted_maximin_partition(instance, t.entitlements)
    omms_max, wmms, bmms = [], [], []
    for t_i in t:
        pairs = non_dominated_pairs(t_i, m) if m else ()
        omms_max.append(max((mms(instance, p).value for p in pairs), default=0))
        wmms.append(t_i * best)
        bmms.append(bmms_value(instance, t_i))
    idx = range(len(t))
    return ScanRow(
        items=instance.items,
        entitlements=t.entitlements,
        omms_max=tuple(omms_max),
        wmms=tuple(wmms),
        bmms=tuple(bmms),
        wmms_stronger=tuple(i for i in idx if wmms[i] > omms_max[i]),
        omms_stronger=tuple(i for i in idx if omms_max[i] > wmms[i]),
        bmms_below_wmms=tuple(i for i in idx if bmms[i] < wmms[i]),
        bmms_below_omms=tuple(i for i in idx if bmms[i] < omms_max[i]),
    )


random_vectors = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
    lambda ws: EntitlementVector(tuple(Fraction(w, sum(ws)) for w in ws))
)
vectors = st.sampled_from([tied(2), tied(3), tied(4), T_74_26, T_40_60, T_SKEW]) | random_vectors


@seed(15)
@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.integers(0, 30), min_size=1, max_size=4),
    st.lists(vectors, min_size=1, max_size=4),
)
# Zeros, repeated values and fewer items than agents, for every tied vector
# and 74/100 with 26/100.
@example(3, [0, 7, 7], [tied(2), tied(3), tied(4), T_74_26])
def test_scan_rows_match_a_row_by_row_reference(max_items, grid, grid_vectors):
    report = notion_separation_scan(max_items, grid, grid_vectors, max_instances=12, seed=1)
    assert report.rows == tuple(
        reference_row(Instance(row.items), t)
        for row, t in zip(report.rows, grid_vectors * len(report.rows))
    )
    assert report.summary()["rows_equal_entitlements"] == sum(
        len(set(row.entitlements)) == 1 for row in report.rows
    )


def test_scan_computes_pair_sets_subset_sums_and_tied_shares_once(monkeypatch):
    grid = [T_40_60, T_SKEW, tied(2), tied(3), T_74_26]
    expected = notion_separation_scan(3, [0, 1, 40, 60], grid)
    # `_weighted` is the value-only weighted search.
    calls = {"non_dominated_pairs": [], "_subset_sums": [], "_weighted": []}

    def counted(name):
        real = getattr(criteria, name)

        def wrapper(*args):
            calls[name].append(args)
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(criteria, name, counted(name))
    assert notion_separation_scan(3, [0, 1, 40, 60], grid) == expected
    instances = {row.items for row in expected.rows}
    # One pair set per (entitlement, item count), one enumeration per
    # instance, and the weighted search for untied vectors only.
    pair_sets = calls["non_dominated_pairs"]
    assert len(pair_sets) == len(set(pair_sets))
    assert set(pair_sets) == {(t_i, m) for t in grid for t_i in t for m in (1, 2, 3)}
    assert sorted(items for items, in calls["_subset_sums"]) == sorted(instances)
    searched = [entitlements for _, entitlements, _, _ in calls["_weighted"]]
    assert len(searched) == 3 * len(instances)
    assert all(len(set(entitlements)) > 1 for entitlements in searched)
