import hashlib
import itertools
import math
import operator
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsfair import engine
from mmsfair.core import (
    Instance,
    InstanceTooLargeError,
    MmsPair,
    PartitionAssignment,
    canonicalize,
    ratio_keys,
)
from mmsfair.criteria import omms_requirements, weighted_maximin_partition
from mmsfair.dominance import dominates
from mmsfair.engine import SearchLimits, min_l_union, mms, mms_cardinality
from oracles import brute_force_mms, brute_force_mms_table, coverable

INTRO = Instance((1, 3, 5, 6, 9))

instances = st.lists(st.integers(0, 9), max_size=6).map(lambda xs: Instance(tuple(xs)))
pairs_d4 = st.integers(1, 4).flatmap(
    lambda d: st.integers(0, d).map(lambda l: MmsPair(l, d))
)


def test_min_l_union_examples():
    assert min_l_union([7, 8, 9], 1) == 7
    assert min_l_union([4, 4, 4], 0) == 0
    assert min_l_union([2, 5, 3, 1], 2) == 3


def test_min_l_union_rejects_out_of_range():
    with pytest.raises(ValueError):
        min_l_union([1, 2], 3)
    with pytest.raises(ValueError):
        min_l_union([1, 2], -1)


@pytest.mark.parametrize(
    "pair,expected",
    [
        (MmsPair(1, 3), 7),
        (MmsPair(2, 5), 4),
        (MmsPair(3, 5), 9),
        (MmsPair(1, 2), 12),
    ],
)
def test_mms_five_item_values(pair, expected):
    assert mms(INTRO, pair).value == expected


def test_mms_seven_item_instances():
    skewed = Instance((1, 1, 1, 0, 0, 0, 0))
    assert mms(skewed, MmsPair(2, 3)).value == 2
    assert mms(skewed, MmsPair(5, 7)).value == 1
    units = Instance((1,) * 7)
    assert mms(units, MmsPair(2, 3)).value == 4
    assert mms(units, MmsPair(5, 7)).value == 5


def test_mms_degenerate_pairs():
    assert mms(INTRO, MmsPair(3, 3)).value == INTRO.total()
    result = mms(INTRO, MmsPair(0, 4))
    assert result.value == 0
    assert result.witness.part_of == (0,) * 5
    assert mms(Instance(()), MmsPair(1, 3)).value == 0


def test_mms_refuses_oversized_instances():
    with pytest.raises(InstanceTooLargeError):
        mms(Instance((1,) * 17), MmsPair(1, 2))
    with pytest.raises(InstanceTooLargeError):
        mms(INTRO, MmsPair(1, 11))
    # overridable
    wide = SearchLimits(max_items=18, max_parts=11)
    assert mms(Instance((1,) * 17), MmsPair(1, 2), wide).value == 8


def test_mms_refuses_a_huge_part_count_before_building_its_scales():
    # The part bound is checked before the d unit scales exist: at d = 10**6
    # the tuple alone takes 8 MB, at d = 10**10 80 GB.
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLargeError, match="2 items into 1000000 parts"):
            mms(Instance((1, 2)), MmsPair(1, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mms_zero_l_needs_no_search_and_is_never_refused():
    result = mms(Instance((1, 2, 3)), MmsPair(0, 3), SearchLimits(max_parts=2))
    assert result.value == 0
    assert result.witness.part_of == (0, 0, 0)


def test_mms_raises_when_witness_misses_value(monkeypatch):
    # A witness that does not reproduce the value is an error; the check
    # raises explicitly, since an assert would vanish under `python -O`.
    monkeypatch.setattr(engine, "min_l_union", lambda sums, l: -1)
    with pytest.raises(AssertionError, match="witness"):
        mms(INTRO, MmsPair(1, 3))


def test_mms_raises_when_start_is_never_beaten(monkeypatch):
    # No leaf beats a greedy start above the optimum, so there is no witness:
    # a search fault, raised as such rather than as a bad-input ValueError.
    monkeypatch.setattr(engine, "_greedy", lambda items, scale, where: [10**9] * len(scale))
    with pytest.raises(AssertionError, match="witness None"):
        mms(INTRO, MmsPair(1, 3))


def test_search_stops_only_at_the_root_bound():
    # The search meets an incumbent of 104, one short of the root bound
    # 210 // 2, before the optimum; only the bound itself may end it early.
    result = mms(Instance((98, 75, 24, 6, 5, 2, 0)), MmsPair(1, 2))
    assert result.value == 105
    assert result.witness.part_of == (0, 1, 1, 1, 0, 0, 0)


def test_mms_witness_reproduces_value_on_known_cases():
    for pair in [MmsPair(1, 3), MmsPair(2, 5), MmsPair(3, 5), MmsPair(1, 2)]:
        result = mms(INTRO, pair)
        sums = result.witness.part_sums(canonicalize(INTRO).items)
        assert min_l_union(sums, pair.l) == result.value


def test_mms_deterministic_witness():
    first = mms(INTRO, MmsPair(1, 3))
    second = mms(INTRO, MmsPair(1, 3))
    assert first == second


def test_witness_lexicographic_tie_break():
    # Parts are numbered in order of first use; among optimal partitions the
    # lexicographically smallest assignment vector wins.
    result = mms(Instance((5, 5, 5)), MmsPair(1, 3))
    assert result.value == 5
    assert result.witness.part_of == (0, 1, 2)
    result = mms(Instance((2, 2)), MmsPair(1, 2))
    assert result.witness.part_of == (0, 1)


def test_brute_force_examples():
    assert brute_force_mms(INTRO, MmsPair(1, 3)) == 7
    assert brute_force_mms(Instance(()), MmsPair(1, 3)) == 0
    assert brute_force_mms(Instance((40, 60)), MmsPair(1, 2)) == 40


def test_brute_force_rejects_above_oracle_scale():
    with pytest.raises(InstanceTooLargeError):
        brute_force_mms(Instance((1,) * 11), MmsPair(1, 2))
    with pytest.raises(InstanceTooLargeError):
        brute_force_mms_table(INTRO, 7)


def test_brute_force_table_rejects_no_parts():
    with pytest.raises(ValueError, match="d must be >= 1"):
        brute_force_mms_table(INTRO, 0)


@settings(max_examples=200, deadline=None)
@given(instances, pairs_d4)
def test_search_matches_brute_force(instance, pair):
    assert mms(instance, pair).value == brute_force_mms(instance, pair)


def _lex_first_optimum(items, pair):
    # Every labeling in lex order, parts numbered in order of first use; the
    # first that reaches the brute-force optimum.
    best = brute_force_mms(Instance(items), pair)
    for labels in itertools.product(range(pair.d), repeat=len(items)):
        if all(k <= max(labels[:j], default=-1) + 1 for j, k in enumerate(labels)):
            sums = PartitionAssignment(labels, pair.d).part_sums(items)
            if min_l_union(sums, pair.l) == best:
                return labels
    raise AssertionError("no labeling reaches the optimum")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=7), pairs_d4)
def test_witness_is_lex_first_optimum(values, pair):
    # Small values force ties, duplicates and zeros: the search prunes
    # identical items and settles the last item in closed form, and must
    # still return exactly the lex-first optimal labeling.
    items = canonicalize(Instance(tuple(values))).items
    assert mms(Instance(items), pair).witness.part_of == _lex_first_optimum(items, pair)


@settings(max_examples=150, deadline=None)
@given(instances, pairs_d4)
def test_witness_sound(instance, pair):
    result = mms(instance, pair)
    sums = result.witness.part_sums(canonicalize(instance).items)
    assert min_l_union(sums, pair.l) == result.value


@settings(max_examples=100, deadline=None)
@given(instances, st.integers(1, 4))
def test_monotone_in_l(instance, d):
    values = [mms(instance, MmsPair(l, d)).value for l in range(d + 1)]
    assert values == sorted(values)
    assert values[0] == 0
    assert values[d] == instance.total()


@settings(max_examples=100, deadline=None)
@given(instances, st.integers(0, 3))
def test_antitone_in_d(instance, l):
    values = [mms(instance, MmsPair(l, d)).value for d in range(max(l, 1), 6)]
    assert values == sorted(values, reverse=True)


@settings(max_examples=100, deadline=None)
@given(instances, pairs_d4, st.integers(1, 5))
def test_scale_equivariance(instance, pair, c):
    scaled = Instance(tuple(v * c for v in instance.items))
    assert mms(scaled, pair).value == c * mms(instance, pair).value


def test_mms_cardinality_known_values():
    assert mms_cardinality(7, MmsPair(2, 3)) == 4
    assert mms_cardinality(7, MmsPair(5, 7)) == 5
    assert mms_cardinality(5, MmsPair(1, 3)) == 1
    assert mms_cardinality(0, MmsPair(1, 3)) == 0
    assert mms_cardinality(4, MmsPair(0, 3)) == 0


@pytest.mark.parametrize("bounds", [{"max_items": -1}, {"max_parts": -5}])
def test_negative_search_limits_are_rejected(bounds):
    with pytest.raises(ValueError, match="search limits must be non-negative"):
        SearchLimits(**bounds)


def test_mms_cardinality_rejects_negative_item_count():
    with pytest.raises(ValueError, match="non-negative"):
        mms_cardinality(-1, MmsPair(1, 3))


def test_mms_cardinality_matches_oracle_at_small_scale():
    for m in range(8):
        units = Instance((1,) * m)
        for d in range(1, 5):
            table = brute_force_mms_table(units, d)
            for l in range(d + 1):
                assert mms_cardinality(m, MmsPair(l, d)) == table[l], (m, l, d)


def test_mms_cardinality_matches_search_sweep():
    for m in range(13):
        units = Instance((1,) * m)
        for d in range(1, 9):
            for l in range(d + 1):
                pair = MmsPair(l, d)
                assert mms_cardinality(m, pair) == mms(units, pair).value, (m, l, d)


@pytest.mark.parametrize("c", [1, 10**30])
@pytest.mark.parametrize("m", [14, 16])
def test_identical_items_past_oracle_reach(m, c):
    # Beyond the brute-force oracle (10 items): the closed form for units,
    # scaled by c, checks every pair within the default part bound.
    instance = Instance((c,) * m)
    for d in range(1, 11):
        for l in range(d + 1):
            pair = MmsPair(l, d)
            assert mms(instance, pair).value == c * mms_cardinality(m, pair), pair


@settings(max_examples=100, deadline=None)
@given(instances, st.integers(1, 6), st.integers(0, 3))
def test_bundle_size_reduction(instance, d, h):
    # With at most d items, growing both sides of the condition by the same
    # shift can never improve the share.
    if len(instance) > d:
        instance = Instance(instance.items[:d])
    for l in range(d + 1):
        assert (
            mms(instance, MmsPair(l, d)).value
            >= mms(instance, MmsPair(l + h, d + h)).value
        )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10**15), max_size=5), pairs_d4)
def test_huge_values_stay_exact(values, pair):
    instance = Instance(tuple(v * 10**6 for v in values))
    assert mms(instance, pair).value == brute_force_mms(instance, pair)


def smallest_part_tables(values, d, whole_last=False):
    """[f_1, ..., f_d] as tables over item bitmasks, where f_k[S] is the
    best smallest part sum over splits of the items in S into k
    possibly-empty parts: f_1[S] = sum S and f_k[S] = max over T in S of
    min(f_{k-1}[S - T], sum T). T runs over the subsets that hold the lowest
    item of S (the part that item lands in), which meets every split once.
    No item order, no pruning, no bound. With `whole_last`, f_d is filled in
    for the whole item set only."""
    m = len(values)
    full = (1 << m) - 1
    sums = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    tables = [sums]
    for k in range(2, d + 1):
        best, step = tables[-1], [0] * (full + 1)
        for mask in range(1, full + 1) if k < d or not whole_last else [full]:
            low = mask & -mask
            others = mask ^ low
            top, sub = None, others
            while True:
                part = sub | low
                rest, own = best[mask ^ part], sums[part]
                worst = own if own < rest else rest
                if top is None or worst > top:
                    top = worst
                if sub == 0:
                    break
                sub = (sub - 1) & others
            step[mask] = top
        tables.append(step)
    return tables


def best_smallest_part(values, d):
    """[f_1(X), ..., f_d(X)] for the whole item set X."""
    full = (1 << len(values)) - 1
    return [f[full] for f in smallest_part_tables(values, d, whole_last=True)]


def all_but_largest_part(values, d):
    """[T - makespan_k for k = 1..d]: the best sum of the k-1 smallest of k
    parts is the total less the least possible largest part. Negating every
    value turns the smallest part into minus the largest, so the same DP at
    -values gives minus the makespan."""
    return [sum(values) + v for v in best_smallest_part([-v for v in values], d)]


def middle_shares(values, pairs):
    """{pair: share} for 1 <= l <= d-1, by a route unlike the search: the
    share is the largest sum(U) over item subsets U whose least makespan
    into l parts is at most the best smallest part of the other items into
    d-l parts. The l smallest parts of an optimal partition form such a U;
    conversely, U's l parts and the others' d-l parts make a partition whose
    l smallest parts are U's. Per-mask tables of the DP above give both
    sides; the makespan is the DP at negated values, as in
    `all_but_largest_part`."""
    smallest = smallest_part_tables(values, max(p.d - p.l for p in pairs))
    neg_makespan = smallest_part_tables([-v for v in values], max(p.l for p in pairs))
    sums, full = smallest[0], len(smallest[0]) - 1
    return {
        p: max(
            sums[u]
            for u in range(full + 1)
            if -neg_makespan[p.l - 1][u] <= smallest[p.d - p.l - 1][full ^ u]
        )
        for p in pairs
    }


def _values(kind, m, seed):
    rng = random.Random(f"{kind}:{m}:{seed}")
    if kind == "near-equal":
        return [10**6 + rng.randrange(51) for _ in range(m)]
    if kind == "huge":
        return [10**30 + rng.randrange(51) for _ in range(m)]
    if kind == "1-1000":
        return [rng.randint(1, 1000) for _ in range(m)]
    return [rng.choice([0, 0, 3, 3, 3, 8, 8, 13]) for _ in range(m)]  # ties and zeros


def _check_witness(values, pair, result):
    sums = result.witness.part_sums(sorted(values, reverse=True))
    assert min_l_union(sums, pair.l) == result.value


@pytest.mark.parametrize(
    "kind, m, seed",
    [
        ("near-equal", 11, 1),
        ("near-equal", 12, 2),
        ("huge", 11, 3),
        ("1-1000", 11, 4),
        ("1-1000", 12, 5),
        ("ties-zeros", 11, 6),
        ("ties-zeros", 12, 7),
    ],
)
def test_search_matches_subset_dps_past_oracle_reach(kind, m, seed):
    # 11-12 items, beyond the d**m oracle: l = 1 and l = d-1 for d = 2..6.
    values = _values(kind, m, seed)
    instance = Instance(tuple(values))
    smallest = best_smallest_part(values, 6)
    all_but_largest = all_but_largest_part(values, 6)
    for d in range(2, 7):
        for l, expected in ((1, smallest[d - 1]), (d - 1, all_but_largest[d - 1])):
            pair = MmsPair(l, d)
            result = mms(instance, pair)
            assert result.value == expected, pair
            _check_witness(values, pair, result)


@pytest.mark.parametrize("scale", [10**6, 10**30])
@pytest.mark.parametrize("m, d", [(11, 6), (12, 8)])
def test_search_matches_subset_dp_on_hard_benchmark_shapes(m, d, scale):
    # The l = 1 shapes of the search-worst benchmark: near-equal items.
    rng = random.Random(f"hard:{m}:{d}")
    values = [scale + rng.randrange(51) for _ in range(m)]
    pair = MmsPair(1, d)
    result = mms(Instance(tuple(values)), pair, SearchLimits(max_parts=d))
    assert result.value == best_smallest_part(values, d)[d - 1]
    _check_witness(values, pair, result)


def test_subset_dps_match_brute_force():
    # The two DPs against the d**m oracle, where it reaches.
    for seed in range(4):
        values = _values("ties-zeros" if seed % 2 else "1-1000", 6, seed)
        tables = [brute_force_mms_table(Instance(tuple(values)), d) for d in range(1, 6)]
        assert best_smallest_part(values, 5) == [t[1] for t in tables]
        assert all_but_largest_part(values, 5) == [t[d - 1] for d, t in enumerate(tables, 1)]


def test_middle_share_dp_matches_brute_force():
    # The middle-l oracle against the d**m oracle, where it reaches.
    rng = random.Random("middle-brute")
    for seed in range(40):
        m, d = rng.randint(0, 6), rng.randint(2, 5)
        values = _values(("ties-zeros", "1-1000", "near-equal")[seed % 3], m, seed)
        table = brute_force_mms_table(Instance(tuple(values)), d)
        pairs = [MmsPair(l, d) for l in range(1, d)]
        assert middle_shares(values, pairs) == {p: table[p.l] for p in pairs}


@pytest.mark.parametrize("scale", [10**6, 10**30])
@pytest.mark.parametrize(
    "m, pairs",
    [
        (12, [MmsPair(2, 5), MmsPair(3, 5), MmsPair(3, 7)]),
        (13, [MmsPair(2, 4), MmsPair(3, 6), MmsPair(4, 8)]),
    ],
)
def test_search_matches_middle_dp_on_hard_benchmark_shapes(m, pairs, scale):
    # The slowest search-worst shapes, all at 2 <= l <= d-2, where the
    # search cuts with whole units and neither l = 1 nor l = d-1 DP reaches.
    rng = random.Random(f"hard:{m}")
    values = [scale + rng.randrange(51) for _ in range(m)]
    for pair, expected in middle_shares(values, pairs).items():
        result = mms(Instance(tuple(values)), pair, SearchLimits(max_parts=pair.d))
        assert result.value == expected, pair
        _check_witness(values, pair, result)


@pytest.mark.parametrize("kind, seed", [("1-1000", 8), ("ties-zeros", 9)])
def test_search_matches_middle_dp_past_oracle_reach(kind, seed):
    # 12 items, every 2 <= l <= d-2 for d = 4..7.
    values = _values(kind, 12, seed)
    pairs = [MmsPair(l, d) for d in range(4, 8) for l in range(2, d - 1)]
    for pair, expected in middle_shares(values, pairs).items():
        result = mms(Instance(tuple(values)), pair)
        assert result.value == expected, pair
        _check_witness(values, pair, result)


def test_search_strength_is_pinned(dfs_calls):
    # 16 near-equal items at 1/3 enter 37 nodes with the item-count check.
    # Counting each part one item short enters 143,970, the whole-unit bound
    # in its place 3,487 and plain water-filling 231,900; the root bound
    # l*T//d alone 195 and the greedy start alone 178. The bound, twice the
    # count, fails each of them at once.
    values = tuple(10**6 + (37 * k) % 51 for k in range(16))
    assert dfs_calls(mms, 2 * 37, Instance(values), MmsPair(1, 3)) <= 2 * 37


@pytest.mark.parametrize(
    "m, pair, nodes",
    [(12, MmsPair(3, 4), 113), (12, MmsPair(4, 5), 420), (14, MmsPair(2, 5), 4394)],
)
def test_search_strength_is_pinned_above_l_one(dfs_calls, m, pair, nodes):
    # Near-equal items at l >= 2, where the search places the remaining
    # items as whole units in its bound. With the fractional bound alone they
    # enter 2,133, 7,228 and 886,820 nodes and pass the pin, over four
    # times the pinned count.
    values = tuple(10**6 + (37 * k) % 51 for k in range(m))
    bound = 4 * nodes
    assert dfs_calls(mms, bound, Instance(values), pair) <= bound


def _seeded_spread(seed, m=16):
    rng = random.Random(seed)
    return tuple(10**6 + rng.randrange(51) for _ in range(m))


@pytest.mark.parametrize(
    "values, pair, nodes",
    [
        (tuple(10**6 + (37 * k) % 51 for k in range(16)), MmsPair(4, 5), 20),
        (_seeded_spread(50_000), MmsPair(4, 5), 20),
        (_seeded_spread(50_001), MmsPair(2, 6), 944),
        (_seeded_spread(1, 13), MmsPair(3, 6), 188),
    ],
)
def test_search_strength_is_pinned_by_count_caps(dfs_calls, values, pair, nodes):
    # Near-equal items where few items fit in the smallest parts, so the
    # count cap lowers the root bound to the optimum and the search stops at
    # the lex-first witness. With the root bound l*T//d alone the first
    # three enter 206,244, 234,878 and 346,245 nodes. The last starts from
    # the cap's partition; from the greedy partition alone it enters 1,408.
    bound = 4 * nodes
    assert dfs_calls(mms, bound, Instance(values), pair) <= bound


def test_search_strength_is_pinned_by_equal_sum_twins(dfs_calls):
    # Near-equal items with five values, so many part sums tie: a part whose
    # previous twin has the same sum is skipped, 70 nodes. Skipping only
    # empty twins enters 184, so this pin has its own bound of twice the
    # count, where the 4x pins above would pass the weaker rule.
    values = tuple(10**6 + (37 * k) % 5 for k in range(14))
    bound = 2 * 70
    assert dfs_calls(mms, bound, Instance(values), MmsPair(3, 6)) <= bound


def _spread(k, seed):
    # The hunt's 16 items 10**6 + randrange(K + 1), seeded by 1000*K + seed.
    rng = random.Random(1000 * k + seed)
    return Instance(tuple(10**6 + rng.randrange(k + 1) for _ in range(16)))


@pytest.mark.parametrize(
    "instance, pair, value",
    [
        (_spread(10**6, 0), MmsPair(2, 9), 3_794_352),
        (_spread(10**6, 1), MmsPair(2, 9), 3_910_588),
        (_spread(50, 0), MmsPair(2, 10), 2_000_075),
        (_spread(50, 0), MmsPair(5, 7), 10_000_351),
        (Instance((60, 31)), MmsPair(2, 3), 31),
        (Instance((60, 31, 7)), MmsPair(2, 3), 38),
        (Instance((9, 8, 7, 6)), MmsPair(3, 5), 13),
    ],
)
def test_value_only_share_takes_no_node_when_the_start_meets_the_root(
    dfs_calls, instance, pair, value
):
    # The count cap proves the start optimal here, so the value-only share
    # runs no search. On the first three the start is the greedy partition,
    # and for its lex-first witness `mms` takes 546,279, 682,203 and 506,185
    # nodes on the same items. At 5/7 it is the cap's partition (3,788 nodes
    # from the greedy one). With at most d items the cap at j = d is the
    # share itself, the l - (d - m) smallest items (2, 2 and 4 nodes under
    # the plain l*T//d).
    args = (instance.items, pair.l, (1,) * pair.d, False, SearchLimits())
    share, part_of = engine._search(*args)
    assert share == value
    if pair == MmsPair(5, 7):  # the cap binds at j = 5 with C_j = 10
        # The 10 largest items are in parts 0-4, the other 6 in parts 5-6.
        assert max(part_of[:10]) <= 4 < min(part_of[10:])
    assert dfs_calls(engine._search, 0, *args) == 0


def test_value_only_route_answers_one_item_per_part_at_the_root(dfs_calls):
    # With m <= d nonzero items each can have its own part, and the value-only
    # route answers with no node: the greedy start (item i in part i, zeros in
    # part 0) is its witness. At unit scale the value is the j = d cap, the
    # brute-force share; at WMMS scales with m < d a part is empty, so it is 0.
    # The lex-first route still searches: its witnesses hash as before.
    rng = random.Random(30)
    digest = hashlib.sha256()
    for d in range(1, 7):
        for m in range(d + 1):
            nonzero = [rng.choice((1, 2, 5, 9, 10**30 + rng.randrange(9))) for _ in range(m)]
            table = brute_force_mms_table(Instance(tuple(nonzero)), d)
            weights = [[rng.randint(1, 4) for _ in range(d)] for _ in range(3)]
            scales = {tuple(math.lcm(*w) // x for x in w) for w in weights} - {(1,) * d}
            for zeros in range(3):
                items = nonzero + [0] * zeros
                rng.shuffle(items)
                witness = tuple(range(m)) + (0,) * zeros
                for l in range(1, d + 1):
                    args = (items, l, (1,) * d, False, SearchLimits())
                    assert engine._search(*args) == (table[l], witness), (items, l)
                    assert dfs_calls(engine._search, 0, *args) == 0
                    result = mms(Instance(tuple(items)), MmsPair(l, d))
                    digest.update(repr((result.value, result.witness.part_of)).encode())
                for scale in sorted(scales) if m < d else ():
                    args = (items, 1, scale, False, SearchLimits())
                    assert engine._search(*args) == (0, witness), (items, scale)
                    assert dfs_calls(engine._search, 0, *args) == 0
                    lex_first = engine._search(items, 1, scale, True, SearchLimits())
                    digest.update(repr(lex_first).encode())
    assert digest.hexdigest() == "5ebae2059bef2509880bb617a490de25c36e1e8515f8db49e35b13e7bb14a20b"


def test_coverable_certifies_the_oracle_shares():
    # v is the 1-out-of-d share exactly when d parts of at least v exist and
    # d parts of at least v + 1 do not; v = 0 needs empty parts up front.
    rng = random.Random(21)
    for _ in range(300):
        m = rng.randint(0, 6)
        if rng.random() < 0.5:
            values = _mixed_values(rng, m)
        else:
            values = [rng.randrange(40) for _ in range(m)]
        d = rng.randint(1, 5)
        v = brute_force_mms(Instance(tuple(values)), MmsPair(1, d))
        assert coverable(values, [v] * d), (values, d, v)
        assert not coverable(values, [v + 1] * d), (values, d, v)


@pytest.mark.parametrize("k, seed, d", [(50, 0, 3), (400, 1, 5), (10**6, 1, 7)])
def test_sixteen_item_one_out_of_d_shares_are_certified(k, seed, d):
    # Past the d**m oracle: the share read through the share table (OMMS at
    # 1/d, whose only surviving condition is 1/d) and through `mms` is
    # certified by the covering DP, which shares no code with the search.
    instance = _spread(k, seed)
    [(pair, v)] = omms_requirements(instance, Fraction(1, d))
    assert pair == MmsPair(1, d) and mms(instance, pair).value == v
    assert coverable(instance.items, [v] * d)
    assert not coverable(instance.items, [v + 1] * d)


def _mixed_values(rng, m):
    # Small values with zeros and ties, or near-equal values with zeros.
    if rng.random() < 0.5:
        return [rng.choice([0, 0, 1, 2, 3, 3, 5, 8, 13]) for _ in range(m)]
    return [rng.choice([0, 10**6 + rng.randrange(51)]) for _ in range(m)]


def test_witnesses_of_a_seeded_sweep_are_pinned():
    # One SHA-256 over (value, part_of) of 600 searches on 6-11 items, both
    # routes: tie-heavy 0-3, 1-1000 and near-equal at 10**6 and 10**30, every
    # l at unit scale and l = 1 at scales from {1, 2, 3, 6}. The brute-force
    # test pins lex-first witnesses up to 7 items and CI's hashes at 16 items;
    # this pins them in between.
    rng = random.Random(2026)
    draws = [lambda: rng.randrange(4), lambda: rng.randint(1, 1000),
             lambda: 10**6 + rng.randrange(51), lambda: 10**30 + rng.randrange(51)]
    digest = hashlib.sha256()
    for _ in range(300):
        draw = rng.choice(draws)
        items = [draw() for _ in range(rng.randint(6, 11))]
        d = rng.randint(1, 8)
        if rng.randrange(2):
            l, scale = rng.randint(1, d), (1,) * d
        else:
            l, scale = 1, tuple(rng.choice((1, 2, 3, 6)) for _ in range(d))
        for lex_first in (True, False):
            digest.update(repr(engine._search(items, l, scale, lex_first, SearchLimits())).encode())
    assert digest.hexdigest() == "e981c29a80abcbb8075f8380ed407a43ef17487f9d8cfc7cb8061ee439213b9f"


def test_value_only_route_matches_the_lex_first_values():
    # 6,000 seeded searches on 0-10 items, at unit scale for every
    # 1 <= l <= d <= 6 and at WMMS scales (l = 1, c_j = lcm(w) // w_j).
    rng = random.Random(18)
    limits = SearchLimits()
    for _ in range(6000):
        values = _mixed_values(rng, rng.randint(0, 10))
        d = rng.randint(1, 6)
        if rng.random() < 0.5:
            l, scale = rng.randint(1, d), (1,) * d
        else:
            weights = [rng.randint(1, 4) for _ in range(d)]
            l, scale = 1, tuple(math.lcm(*weights) // w for w in weights)
        value, part_of = engine._search(values, l, scale, False, limits)
        assert value == engine._search(values, l, scale, True, limits)[0], (values, l, scale)
        witness = PartitionAssignment(part_of, len(scale))
        keys = map(operator.mul, witness.part_sums(sorted(values, reverse=True)), scale)
        assert min_l_union(list(keys), l) == value


def test_near_equal_items_keep_their_witness_at_every_base_above_the_spread():
    # Items B + r_i with r_i in [0, 50] and zeros mixed in, at B = 10**30
    # (searched at a small base, module docstring), 10**6 and the least base
    # above C*sum(r), C = lcm(scale). Every base gives the same lex-first
    # witness, and the value N*B + R keeps its R, N being the items in the
    # witness's l smallest parts. The edges: one item, all r_i = 0 (at the
    # least base every item is 1) and a single part.
    rng = random.Random(27)
    for case in range(240):
        m = 1 if case % 8 == 0 else rng.randint(2, 9)
        r = [0] * m if case % 8 == 1 else [rng.randint(0, 50) for _ in range(m)]
        zeros = [0] * rng.choice((0, 0, 1, 2))
        d = rng.randint(1, 6)
        pair = MmsPair(rng.randint(1, d), d)
        seen = set()
        for base in (10**30, 10**6, sum(r) + 1):
            instance = Instance(tuple(base + x for x in r) + tuple(zeros))
            result = mms(instance, pair)
            part_of = result.witness.part_of
            counts = [part_of[:m].count(j) for j in range(d)]
            sums = result.witness.part_sums(sorted(instance.items, reverse=True))
            n = sum(c for _, c in sorted(zip(sums, counts))[:pair.l])
            seen.add((part_of, result.value - n * base))
            if base == 10**30 and m + len(zeros) <= (7 if d < 6 else 6):  # the d**m oracle
                assert result.value == brute_force_mms(instance, pair), (r, pair)
        assert len(seen) == 1, (r, zeros, pair)
        # WMMS: one part per agent, keys c_j*s_j with lcm(c) > 1.
        weights = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        if len(set(weights)) == 1:
            weights[0] += 1
        t = [Fraction(w, sum(weights)) for w in weights]
        top = math.lcm(*ratio_keys(t)[2])
        assert top > 1
        seen = {
            weighted_maximin_partition(Instance(tuple(b + x for x in r) + tuple(zeros)), t)[1]
            for b in (10**30, 10**6, top * sum(r) + 1)
        }
        assert len(seen) == 1, (r, zeros, t)


def _prefix(values):
    return [0, *itertools.accumulate(sorted((v for v in values if v), reverse=True))]


def _cap_case(d):
    m = 8 if d <= 4 else 12 - d  # keeps the d**m oracle under a second
    small = st.lists(st.integers(0, 12), max_size=m)
    near_equal = st.lists(st.integers(0, 50).map(lambda k: 10**6 + k), max_size=m)
    return st.tuples(st.just(d), st.one_of(small, near_equal))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(_cap_case))
def test_count_cap_is_sound(case):
    # The cap lies between the share and the plain root bound l*T//d.
    d, values = case
    prefix = _prefix(values)
    table = brute_force_mms_table(Instance(tuple(v for v in values if v)), d)
    for l in range(1, d + 1):
        assert table[l] <= engine._count_cap(prefix, l, d)[0] <= l * prefix[-1] // d


def test_count_cap_is_exact_below_the_root_bound():
    # 6 items into 5 parts: the 4 parts with the fewest items hold at most 4,
    # one each, so the 3 smallest of them hold at most 8 + 7 + 6 = 21 < 39*3//5.
    values = (9, 8, 7, 6, 5, 4)
    cap = engine._count_cap(_prefix(values), 3, 5)[0]
    assert cap == 21 < 3 * sum(values) // 5
    assert brute_force_mms(Instance(values), MmsPair(3, 5)) == cap
    assert mms(Instance(values), MmsPair(3, 5)).value == cap


def _cap_members(items, l, d):
    # Every member of the two count-cap families of the `engine` docstring,
    # items in canonical order without zeros, as (family, j or k, first, end,
    # l', j'): the share is at most sum(items[:first]) plus the l'-out-of-j'
    # share of items[first:end].
    m = len(items)
    counts = [mms_cardinality(m, MmsPair(j, d)) for j in range(d + 1)]  # C_j
    primal = [("primal", j, 0, counts[j], l, j) for j in range(l, d + 1)]
    dual = [("dual", k, counts[d - k], m, l - d + k, k) for k in range(d - l + 1, d)]
    return primal + dual


def _member_shares(items, l, d):
    # {(family, j or k): (the member at its exact share, its closed form)}. The
    # closed form is the exact share where the sub-instance has no more items
    # than parts, else its fractional form prefix[first] + l'*sum // j'.
    shares = {}
    for family, x, first, end, inner_l, parts in _cap_members(items, l, d):
        part, head = items[first:end], sum(items[:first])
        exact = head + engine._search(part, inner_l, (1,) * parts, False, SearchLimits())[0]
        shares[family, x] = exact, exact if len(part) <= parts else head + inner_l * sum(part) // parts
    return shares


def test_count_cap_families_are_sound_at_their_exact_shares():
    # Every member of both families, each at its exact share, is at least the
    # share (the d**m oracle), on ties with zeros, near-equal and wide values.
    # `_count_cap` is the least closed form, and its binding j or k (the dual's
    # if one binds) attains it.
    rng = random.Random(28)
    draws = (
        lambda: rng.choice((0, 0, 1, 2, 3, 3, 5, 8)),
        lambda: rng.choice((0, 10**6 + rng.randrange(51), 10**6 + rng.randrange(51))),
        lambda: rng.randrange(10**9),
    )
    for case in range(160):
        d = rng.randint(2, 6)
        most = 8 if d <= 4 else 12 - d  # keeps the d**m oracle fast
        m = rng.randint(d + 1, most) if case % 4 and d < most else rng.randint(0, most)
        values = [draws[case % 3]() for _ in range(m)]
        items = sorted((v for v in values if v), reverse=True)
        table = brute_force_mms_table(Instance(tuple(items)), d)
        for l in range(1, d):
            shares = _member_shares(items, l, d)
            for member, (exact, closed) in shares.items():
                assert table[l] <= exact <= closed, (values, l, d, member)
            cap, split, count, dual = engine._count_cap(_prefix(items), l, d)
            binding = ("dual", dual) if dual else ("primal", split)
            assert cap == shares[binding][1] == min(c for _, c in shares.values()), (values, l, d)
            assert count == mms_cardinality(len(items), MmsPair(split, d))


def test_only_the_dual_count_cap_is_exact_on_near_equal_items(dfs_calls):
    # 12 near-equal items at 3/7. The 2 parts with the fewest items hold at
    # most 2 items, so the share is at most the 2 largest items plus the
    # 1-out-of-5 share of the other 10: the dual cap at k = 5 binds, and at its
    # exact share it is the share, which no primal cap at j < 7 reaches. The
    # value-only search then stops at the share: 434 nodes, 4,271 with the
    # primal caps in their fractional form alone.
    values = _seeded_spread(0, 12)
    pair = MmsPair(3, 7)
    share = middle_shares(values, [pair])[pair]
    items = sorted(values, reverse=True)
    cap, _, _, dual = engine._count_cap(_prefix(items), 3, 7)
    assert dual == 5 and cap > share
    shares = _member_shares(items, 3, 7)
    primal = [exact for (family, j), (exact, _) in shares.items() if family == "primal" and j < 7]
    assert shares["dual", 5][0] == share < min(primal)
    args = (values, 3, (1,) * 7, False, SearchLimits())
    assert engine._search(*args)[0] == share
    assert dfs_calls(engine._search, 2 * 434, *args) <= 2 * 434


@pytest.mark.parametrize(
    "l, value, nodes", [(2, 4_000_131, 8), (3, 6_000_199, 2), (4, 8_000_274, 1)]
)
def test_value_only_hunt_shares_are_pinned_by_exact_count_caps(dfs_calls, l, value, nodes):
    # CI's sixteen hunt items (HUNT_ITEMS, the spread 50 of seed 0) at l/7 on
    # the value-only route. The binding cap (j = 5, the 10 largest items) at
    # its exact share is the share, so the search stops once it reaches it;
    # the counts include the sub-search's nodes. With the primal caps in
    # their fractional form alone they enter 132,028, 117,091 and 87,277.
    args = (_spread(50, 0).items, l, (1,) * 7, False, SearchLimits())
    assert engine._search(*args)[0] == value
    assert dfs_calls(engine._search, 2 * nodes, *args) <= 2 * nodes


@pytest.mark.parametrize("kind", ["near-equal", "1-1000"])
def test_metamorphic_properties_at_sixteen_items(kind):
    # Past every oracle, l = 1: the share scales with the values, ignores
    # zero-valued items and does not rise with d.
    values = _values(kind, 16, 0)
    shares = []
    for d in range(2, 11):
        pair = MmsPair(1, d)
        share = mms(Instance(tuple(values)), pair).value
        scaled = Instance(tuple(7 * v for v in values))
        assert mms(scaled, pair).value == 7 * share
        padded = Instance((0, *values, 0))
        assert mms(padded, pair, SearchLimits(max_items=18)).value == share
        shares.append(share)
    assert shares == sorted(shares, reverse=True)


@pytest.mark.parametrize("kind, m", [("1-1000", 16), ("near-equal", 14)])
def test_metamorphic_properties_above_l_one(kind, m):
    # Past every oracle, l >= 2. At l = d-1 the share scales with the
    # values, ignores zero-valued items and does not fall with d; at d = 5
    # and 7 it does not fall as l rises; and wherever (l, d) dominates
    # (l', d'), the l-out-of-d share is at least the l'-out-of-d' one.
    values = _values(kind, m, 0)
    instance = Instance(tuple(values))
    shares = {}
    for d in range(2, 11):
        pair = MmsPair(d - 1, d)
        shares[pair] = share = mms(instance, pair).value
        scaled = Instance(tuple(7 * v for v in values))
        assert mms(scaled, pair).value == 7 * share
        padded = Instance((0, *values, 0))
        assert mms(padded, pair, SearchLimits(max_items=m + 2)).value == share
    top = [shares[MmsPair(d - 1, d)] for d in range(2, 11)]
    assert top == sorted(top)
    for d in (5, 7):
        row = [mms(instance, MmsPair(l, d)).value for l in range(1, d + 1)]
        assert row == sorted(row)
        shares.update((MmsPair(l, d), v) for l, v in enumerate(row, 1))
    for p, q in itertools.product(shares, repeat=2):
        if dominates(p, q):
            assert shares[p] >= shares[q], (p, q)


def test_mms_refuses_past_recursion_depth():
    # The search recurses once per nonzero item; raised bounds reach Python's
    # recursion limit, which must end in a refusal, not a RecursionError.
    with pytest.raises(InstanceTooLargeError, match="3000 items exceed"):
        mms(Instance((1,) * 3000), MmsPair(1, 2), SearchLimits(max_items=5000))


@pytest.mark.parametrize("lex_first", [True, False])
def test_both_routes_refuse_past_the_depth_guard(lex_first):
    # The guard admits the recursion limit less 100 nonzero items (900 at
    # Python's default), also where the value-only route would not recurse.
    cap = sys.getrecursionlimit() - 100
    raised = SearchLimits(max_items=5000)

    def share(instance):
        return engine._search(instance.items, 1, (1, 1), lex_first, raised)[0]

    assert share(Instance((1,) * cap)) == cap // 2
    with pytest.raises(InstanceTooLargeError, match=f"{cap + 1} items exceed"):
        share(Instance((1,) * (cap + 1) + (0,) * 9))  # zeros do not count


def test_deep_caller_overflow_is_a_refusal():
    # The guard admits cap items (900 at Python's default limit), but a caller
    # 200 frames deep leaves the search too few: its RecursionError becomes
    # the same refusal.
    cap = sys.getrecursionlimit() - 100

    def deep(frames):
        if frames:
            return deep(frames - 1)
        return mms(Instance((1,) * cap), MmsPair(1, 2), SearchLimits(max_items=cap, max_parts=2))

    with pytest.raises(InstanceTooLargeError, match=f"{cap} items exceed its recursion depth"):
        deep(200)
