import itertools
import random

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
)
from mmsfair.dominance import dominates
from mmsfair.engine import SearchLimits, min_l_union, mms, mms_cardinality
from oracles import brute_force_mms, brute_force_mms_table

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
    monkeypatch.setattr(engine, "_greedy_start", lambda items, l, scale: 10**9)
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
    # 16 near-equal items at 1/3 take 534 nodes with the item-count check;
    # water-filling alone, or counting each part one item short, takes
    # 839,235. The bound fails a weaker prune at once.
    values = tuple(10**6 + (37 * k) % 51 for k in range(16))
    assert dfs_calls(mms, 2000, Instance(values), MmsPair(1, 3)) <= 2000


@pytest.mark.parametrize(
    "m, pair, nodes",
    [(12, MmsPair(3, 4), 315), (12, MmsPair(4, 5), 1580), (14, MmsPair(2, 5), 20490)],
)
def test_search_strength_is_pinned_above_l_one(dfs_calls, m, pair, nodes):
    # Near-equal items at l >= 2, where the search places the remaining
    # items as whole units in its bound. With the fractional bound alone they
    # take 3,839, 13,675 and 1,351,184 nodes and pass the pin, about four
    # times today's count.
    values = tuple(10**6 + (37 * k) % 51 for k in range(m))
    bound = 4 * nodes
    assert dfs_calls(mms, bound, Instance(values), pair) <= bound


def _seeded_spread(seed, m=16):
    rng = random.Random(seed)
    return tuple(10**6 + rng.randrange(51) for _ in range(m))


@pytest.mark.parametrize(
    "values, pair, nodes",
    [
        (tuple(10**6 + (37 * k) % 51 for k in range(16)), MmsPair(4, 5), 61),
        (_seeded_spread(50_000), MmsPair(4, 5), 47),
        (_seeded_spread(50_001), MmsPair(2, 6), 33_845),
    ],
)
def test_search_strength_is_pinned_by_count_caps(dfs_calls, values, pair, nodes):
    # 16 near-equal items where few items fit in the smallest parts, so the
    # count cap lowers the root bound to the optimum and the search stops at
    # the lex-first witness. With the root bound l*T//d alone they take
    # 737,464, 854,154 and 1,158,563 nodes.
    bound = 4 * nodes
    assert dfs_calls(mms, bound, Instance(values), pair) <= bound


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
        assert table[l] <= engine._count_cap(prefix, l, d) <= l * prefix[-1] // d


def test_count_cap_is_exact_below_the_root_bound():
    # 6 items into 5 parts: the 4 parts with the fewest items hold at most 4,
    # one each, so the 3 smallest of them hold at most 8 + 7 + 6 = 21 < 39*3//5.
    values = (9, 8, 7, 6, 5, 4)
    cap = engine._count_cap(_prefix(values), 3, 5)
    assert cap == 21 < 3 * sum(values) // 5
    assert brute_force_mms(Instance(values), MmsPair(3, 5)) == cap
    assert mms(Instance(values), MmsPair(3, 5)).value == cap


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
