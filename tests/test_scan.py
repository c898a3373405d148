import io
from fractions import Fraction

import pytest

from mmsfair import criteria
from mmsfair.core import EntitlementVector
from mmsfair.scan import (
    CSV_COLUMNS,
    notion_separation_scan,
    report_jsonable,
    write_csv,
)

T_40_60 = EntitlementVector((Fraction(2, 5), Fraction(3, 5)))
T_SKEW = EntitlementVector((Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)))


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


def test_report_serialization_round_trip():
    report = notion_separation_scan(2, [40, 60], [T_40_60])
    blob = report_jsonable(report)
    assert blob["summary"]["rows"] == len(report.rows)
    assert blob["rows"][0]["entitlements"] == ["2/5", "3/5"]

    out = io.StringIO()
    write_csv(report, out)
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
    real = criteria.mms

    def counted(instance, pair, limits):
        calls.append((instance.items, pair))
        return real(instance, pair, limits)

    monkeypatch.setattr(criteria, "mms", counted)
    assert notion_separation_scan(3, [0, 1, 40, 60], grid) == expected
    assert calls and len(calls) == len(set(calls))
