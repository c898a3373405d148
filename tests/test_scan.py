import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mmsfair import core, criteria, scan
from mmsfair.cli import execute, main
from mmsfair.core import EntitlementVector, Instance, InstanceTooLargeError, format_rational
from mmsfair.criteria import Allocation, audit, bmms_value, weighted_maximin_partition
from mmsfair.engine import mms
from mmsfair.pairs import non_dominated_pairs
from mmsfair.scan import CSV_COLUMNS, notion_separation_scan, write_csv_rows

T_40_60 = EntitlementVector((Fraction(2, 5), Fraction(3, 5)))
T_SKEW = EntitlementVector((Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)))
T_74_26 = EntitlementVector((Fraction(74, 100), Fraction(26, 100)))


def tied(n):
    return EntitlementVector((Fraction(1, n),) * n)


def _row(report, items, entitlements):
    for row in report["rows"]:
        if row["items"] == list(items) and row["entitlements"] == [
                format_rational(a) for a in entitlements]:
            return row
    raise AssertionError(f"row not found: {items}, {entitlements}")


def test_scan_rediscovers_wmms_stronger_configuration():
    report = notion_separation_scan(2, [40, 60], [T_40_60])
    row = _row(report, (60, 40), T_40_60)
    assert row["wmms"] == ["40/1", "60/1"]
    assert row["omms_max"] == [0, 40]
    assert row["wmms_stronger"] == [0, 1]
    assert row["omms_stronger"] == []


def test_scan_rediscovers_omms_stronger_configuration():
    report = notion_separation_scan(2, [40, 60], [T_SKEW])
    row = _row(report, (60, 40), T_SKEW)
    assert row["wmms"] == ["0/1", "0/1", "0/1"]
    assert row["omms_max"][0] == 40
    assert 0 in row["omms_stronger"]


def test_scan_equal_entitlements_omms_wmms_coincide():
    grid = [
        EntitlementVector((Fraction(1, 2), Fraction(1, 2))),
        EntitlementVector((Fraction(1, 3),) * 3),
    ]
    report = notion_separation_scan(3, [0, 1, 2, 3], grid)
    assert report["rows"]
    for row in report["rows"]:
        assert row["equal_entitlements"] is True
        assert row["omms_wmms_coincide"] is True
        # The bipartite notion may be strictly stronger; it must never be
        # weaker than the other two here, or the conjecture scan flags it.
        assert not row["bmms_below_wmms"]
        assert not row["bmms_below_omms"]


def test_scan_is_deterministic_and_sorted():
    grid = [T_40_60, T_SKEW]
    first = notion_separation_scan(2, [0, 40, 60], grid, max_instances=5, seed=3)
    second = notion_separation_scan(2, [0, 40, 60], grid, max_instances=5, seed=3)
    assert first == second
    sizes = [(len(r["items"]), r["items"]) for r in first["rows"]]
    assert sizes == sorted(sizes)
    different_seed = notion_separation_scan(2, [0, 40, 60], grid, max_instances=5, seed=4)
    assert ({tuple(r["items"]) for r in different_seed["rows"]}
            != {tuple(r["items"]) for r in first["rows"]})


def test_scan_empty_bounds_yield_empty_report():
    assert notion_separation_scan(0, [1, 2], [T_40_60])["rows"] == []
    assert notion_separation_scan(2, [], [T_40_60])["rows"] == []
    assert notion_separation_scan(2, [1, 2], [])["rows"] == []


def test_scan_of_an_empty_grid_enumerates_nothing(monkeypatch):
    # Sizes 1..max_items come from outside (`scan --max-items`); with no
    # values there is nothing to enumerate, however large the bound.
    def enumerated(*args):
        raise AssertionError("enumerated multisets of an empty grid")

    monkeypatch.setattr(scan.itertools, "combinations_with_replacement", enumerated)
    assert notion_separation_scan(10**9, [], [T_40_60])["rows"] == []


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
    assert json.loads(json.dumps(report)) == report
    assert report["summary"]["rows"] == len(report["rows"])
    assert report["rows"][0]["entitlements"] == ["2/5", "3/5"]

    out = io.StringIO()
    write_csv_rows(report["rows"], out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # one line per (instance, entitlements, agent)
    assert len(lines) == 1 + sum(len(r["entitlements"]) for r in report["rows"])


def test_scan_rejects_negative_max_instances():
    with pytest.raises(ValueError, match="max_instances"):
        notion_separation_scan(2, [40, 60], [T_40_60], max_instances=-1)


def test_scan_rejects_negative_max_items():
    with pytest.raises(ValueError, match="max_items, max_instances >= 0: -1, None"):
        notion_separation_scan(-1, [40, 60], [T_40_60])


def test_scan_takes_each_vector_keys_once_and_builds_no_witness(monkeypatch):
    # Each vector computes its WMMS keys when it is built, and the scan's
    # value-only searches return a bare assignment: no PartitionAssignment.
    keyed = []
    real_keys = core.ratio_keys

    def counted_keys(entitlements):
        keyed.append(entitlements)
        return real_keys(entitlements)

    monkeypatch.setattr(core, "ratio_keys", counted_keys)
    monkeypatch.setattr(criteria, "ratio_keys", counted_keys)
    grid = [T_40_60, T_SKEW, T_74_26]
    grid = [EntitlementVector(t.entitlements) for t in grid]
    assert len(keyed) == len(grid)
    built = []
    real_init = core.PartitionAssignment.__post_init__

    def counted_init(self):
        built.append(self.part_of)
        real_init(self)

    monkeypatch.setattr(core.PartitionAssignment, "__post_init__", counted_init)
    report = notion_separation_scan(3, [0, 7, 19, 31], grid)
    assert len(report["rows"]) == 34 * len(grid)  # 4 + 10 + 20 multisets
    assert len(keyed) == len(grid) and built == []
    # The witness routes still build one, so the count above sees them.
    weighted_maximin_partition(Instance((7, 19)), T_40_60.entitlements)
    assert len(built) == 1 and len(keyed) == len(grid) + 1


def test_scan_computes_each_share_once_per_instance(monkeypatch):
    # 3/5 is in both vectors, so both need its shares on every instance.
    grid = [T_40_60, T_SKEW]
    expected = notion_separation_scan(3, [0, 1, 40, 60], grid)
    calls = []
    real = criteria._search  # every value-only search, behind the share table

    def counted(items, l, scale, lex_first, limits):
        calls.append((items, l, scale))
        return real(items, l, scale, lex_first, limits)

    monkeypatch.setattr(criteria, "_search", counted)
    assert notion_separation_scan(3, [0, 1, 40, 60], grid) == expected
    assert calls and len(calls) == len(set(calls))


def test_scan_computes_each_entitlement_once_per_instance(monkeypatch):
    # 3/5 is in both vectors and 1/5 twice in one: the table keeps each
    # entitlement's OMMS requirements and BMMS value per instance.
    grid = [T_40_60, T_SKEW]
    expected = notion_separation_scan(3, [0, 1, 40, 60], grid)
    calls = {"omms_requirements": [], "bmms_value": []}

    def counted(name):
        real = getattr(criteria, name)

        def wrapper(instance, a, *args):
            calls[name].append((instance.items, a))
            return real(instance, a, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(criteria, name, counted(name))
    assert notion_separation_scan(3, [0, 1, 40, 60], grid) == expected
    once = sorted({(tuple(row["items"]), core.parse_rational(t_i))
                   for row in expected["rows"] for t_i in row["entitlements"]})
    assert sorted(calls["omms_requirements"]) == sorted(calls["bmms_value"]) == once


def reference_row(instance, t):
    # One row on its own, sharing nothing with other rows or agents: the
    # weighted search for every vector, tied or not, and a fresh pair set,
    # share and subset-sum enumeration per agent, compared as Fractions and
    # then written out as the scan's JSON row.
    m = len(instance.items)
    best, _ = weighted_maximin_partition(instance, t.entitlements)
    omms_max, wmms, bmms = [], [], []
    for t_i in t:
        pairs = non_dominated_pairs(t_i, m) if m else ()
        omms_max.append(max((mms(instance, p).value for p in pairs), default=0))
        wmms.append(t_i * best)
        bmms.append(bmms_value(instance, t_i))
    idx = range(len(t))
    return {
        "items": list(instance.items),
        "entitlements": [format_rational(t_i) for t_i in t],
        "omms_max": omms_max,
        "wmms": [format_rational(w) for w in wmms],
        "bmms": [format_rational(b) for b in bmms],
        "wmms_stronger": [i for i in idx if wmms[i] > omms_max[i]],
        "omms_stronger": [i for i in idx if omms_max[i] > wmms[i]],
        "bmms_below_wmms": [i for i in idx if bmms[i] < wmms[i]],
        "bmms_below_omms": [i for i in idx if bmms[i] < omms_max[i]],
        "equal_entitlements": len(set(t)) == 1,
        "omms_wmms_coincide": wmms == omms_max,
    }


def reference_report(max_items, grid, grid_vectors, max_instances, seed):
    # Every multiset of the listing oracle against every vector, one
    # reference row each, and the summary counted from those rows.
    rows = [reference_row(Instance(items), t)
            for items in _listed(max_items, grid, max_instances, seed) for t in grid_vectors]
    return {"seed": seed, "rows": rows, "summary": {
        "rows": len(rows),
        "rows_wmms_strictly_stronger": sum(bool(r["wmms_stronger"]) for r in rows),
        "rows_omms_strictly_stronger": sum(bool(r["omms_stronger"]) for r in rows),
        "rows_equal_entitlements": sum(r["equal_entitlements"] for r in rows),
        "bmms_conjecture_counterexamples": sum(
            bool(r["bmms_below_wmms"] + r["bmms_below_omms"]) for r in rows),
    }}


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
    assert report == reference_report(max_items, grid, grid_vectors, 12, 1)


@seed(15)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=6), vectors)
# Zeros and ties, fewer items than agents, and 74/100 with 26/100.
@example([0, 7, 7], tied(4))
@example([9, 5, 3, 1], T_74_26)
def test_audit_and_scan_one_report_the_same_shares(items, t):
    instance = Instance(tuple(items))
    everything_to_agent_0 = [list(range(len(items)))] + [[] for _ in range(len(t) - 1)]
    report = audit(instance, t, Allocation.from_lists(everything_to_agent_0))
    row = scan.scan_one(instance, t)
    assert len(report.agents) == len(row["wmms"]) == len(t)
    for i, agent in enumerate(report.agents):
        assert max((v for _, v in agent.omms_requirements), default=0) == row["omms_max"][i]
        assert format_rational(agent.wmms_value) == row["wmms"][i]
        assert format_rational(agent.bmms_value) == row["bmms"][i]


def test_a_bmms_route_below_the_search_raises_the_alarm(monkeypatch, tmp_path, capsys):
    # BMMS is at least WMMS and OMMS (module docstring), so only a broken BMMS
    # route can flag a row: (5, 5) at 1/2, 1/2 has WMMS = OMMS = 5 for both agents.
    monkeypatch.setattr(criteria, "bmms_value", lambda *args: Fraction(0))
    report = notion_separation_scan(2, [5], [tied(2)])
    assert [(r["items"], r["bmms_below_wmms"], r["bmms_below_omms"])
            for r in report["rows"]] == [([5], [], []), ([5, 5], [0, 1], [0, 1])]
    assert report["summary"]["bmms_conjecture_counterexamples"] == 1
    out = tmp_path / "scan.csv"
    assert main(["scan", "--max-items", "2", "--values", "5", "--entitlements", "1/2,1/2",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "BMMS-implies-WMMS/OMMS: COUNTEREXAMPLE FOUND in 1 row(s)")
    lines = out.read_text().splitlines()
    assert [line.split(",")[-2:] for line in lines[1:]] == [["0", "0"]] * 2 + [["1", "1"]] * 2


def _counting(module, names, monkeypatch):
    # Each named function of `module`, rebound to record its arguments.
    calls = {name: [] for name in names}

    def counted(name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name].append(args)
            return real(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def test_scan_computes_pair_sets_subset_sums_and_tied_shares_once(monkeypatch):
    grid = [T_40_60, T_SKEW, tied(2), tied(3), T_74_26]
    expected = notion_separation_scan(3, [0, 1, 40, 60], grid)
    # `_search` runs every value-only search, OMMS and WMMS.
    calls = _counting(criteria, ["non_dominated_pairs", "_subset_sums", "_search"], monkeypatch)
    assert notion_separation_scan(3, [0, 1, 40, 60], grid) == expected
    instances = {tuple(row["items"]) for row in expected["rows"]}
    # One pair set per (entitlement, item count), one enumeration per
    # instance, and a search at a non-unit scale for untied vectors only: a
    # tied vector's WMMS is the 1-out-of-n share at unit scale.
    pair_sets = calls["non_dominated_pairs"]
    assert len(pair_sets) == len(set(pair_sets))
    assert set(pair_sets) == {(t_i, m) for t in grid for t_i in t for m in (1, 2, 3)}
    assert sorted(items for items, in calls["_subset_sums"]) == sorted(instances)
    weighted = [scale for _, _, scale, _, _ in calls["_search"] if set(scale) != {1}]
    assert len(weighted) == 3 * len(instances)


def _execute_scan(max_items, grid, grid_vectors, max_instances, seed, max_parts=10):
    # `execute("scan", ...)` on the inputs a `scan --record` would hold.
    inputs = {"max_items": max_items, "value_grid": grid, "max_instances": max_instances,
              "seed": seed, "max_parts": max_parts,
              "entitlement_grid": [[format_rational(a) for a in t] for t in grid_vectors]}
    return execute("scan", inputs)[1]


def _csv(rows):
    out = io.StringIO()
    write_csv_rows(rows, out)
    return out.getvalue()


@seed(34)
@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.integers(0, 30), min_size=1, max_size=4),
    st.lists(vectors, min_size=1, max_size=4),
    st.none() | st.integers(0, 15),
    st.integers(0, 3),
)
# Zeros and ties, every tied vector and 74/100 with 26/100, full and sampled.
@example(3, [0, 7, 7], [tied(2), tied(3), tied(4), T_74_26], None, 0)
@example(4, [0, 1, 40, 60], [T_40_60, T_SKEW, T_74_26, tied(3)], 12, 1)
@example(4, [0, 1, 40, 60], [T_40_60, T_SKEW, T_74_26, tied(3)], 12, 2)
def test_execute_scan_matches_the_reference(max_items, grid, grid_vectors, max_instances,
                                            sample_seed):
    outputs = _execute_scan(max_items, grid, grid_vectors, max_instances, sample_seed)
    expected = reference_report(max_items, grid, grid_vectors, max_instances, sample_seed)
    # Same values, key order and types (True is not 1 in JSON).
    assert json.dumps(outputs) == json.dumps(expected)
    assert _csv(outputs["rows"]) == _csv(expected["rows"])


def test_execute_scan_refusals():
    # Three agents with room for two parts: the weighted search is refused.
    with pytest.raises(InstanceTooLargeError) as refused:
        _execute_scan(2, [0, 5], [T_40_60, T_SKEW], None, 0, max_parts=2)
    assert str(refused.value) == ("instance too large for exact search: "
                                  "1 items into 3 parts (limits: 16 items, 2 parts)")
    # A multiset past the search's item bound, refused as `mms` refuses it:
    # the scan's `max_items` is its largest multiset size, not a search bound.
    with pytest.raises(InstanceTooLargeError) as refused:
        _execute_scan(17, [1], [EntitlementVector((Fraction(1),))], None, 0)
    assert str(refused.value) == ("instance too large for exact search: "
                                  "17 items into 1 parts (limits: 16 items, 10 parts)")
    with pytest.raises(ValueError) as refused:
        _execute_scan(2, [1, 2], [T_40_60], -1, 0)
    assert str(refused.value) == "need max_items, max_instances >= 0: 2, -1"


@pytest.mark.parametrize("max_instances", [None, 7])
def test_execute_scan_computes_each_share_once(monkeypatch, max_instances):
    # A sampled scan too reads one share table for all its rows: one pair set
    # per (entitlement, item count), one enumeration per instance and one
    # value-only search per share, three of them weighted (the untied vectors).
    grid = [T_40_60, T_SKEW, tied(2), tied(3), T_74_26]
    calls = _counting(criteria, ["non_dominated_pairs", "_subset_sums", "_search"], monkeypatch)
    rows = _execute_scan(3, [0, 1, 40, 60], grid, max_instances, 5)["rows"]
    instances = [tuple(row["items"]) for row in rows[::len(grid)]]
    assert len(instances) == (34 if max_instances is None else max_instances)
    assert len(rows) == len(grid) * len(instances)
    for made in calls.values():
        assert made and len(made) == len(set(made))
    sizes = {len(items) for items in instances}
    assert set(calls["non_dominated_pairs"]) == {(t_i, m) for t in grid for t_i in t for m in sizes}
    assert sorted(items for items, in calls["_subset_sums"]) == sorted(instances)
    weighted = [scale for _, _, scale, _, _ in calls["_search"] if set(scale) != {1}]
    assert len(weighted) == 3 * len(instances)


def test_execute_scan_calls_scan_one_per_row_and_report_jsonable_once(monkeypatch):
    # perfbench's tracer spans a scan through the module attributes
    # `scan.scan_one` and `scan.report_jsonable`, rebinding them as done here.
    calls = _counting(scan, ["scan_one", "report_jsonable"], monkeypatch)
    rows = _execute_scan(3, [0, 1, 40, 60], [T_40_60, T_SKEW], 7, 5)["rows"]
    assert len(rows) == 14
    assert [args[:2] for args in calls["scan_one"]] == [
        (Instance(tuple(row["items"])), t) for row in rows[::2] for t in (T_40_60, T_SKEW)]
    assert [args[0] for args in calls["report_jsonable"]] == [rows]
