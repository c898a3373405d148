import math
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mmsfair import criteria, engine
from mmsfair.core import (
    EntitlementVector,
    Instance,
    InstanceTooLargeError,
    MmsPair,
    PartitionAssignment,
)
from mmsfair.criteria import (
    Allocation,
    audit,
    bmms_value,
    omms_requirements,
    weighted_maximin_partition,
    wmms_value,
)
from mmsfair.engine import SearchLimits, mms
from oracles import ORACLE_MAX_PARTS, coverable

TWO_ITEMS = Instance((40, 60))
INTRO = Instance((1, 3, 5, 6, 9))

small_instances = st.lists(st.integers(0, 9), max_size=6).map(
    lambda xs: Instance(tuple(xs))
)


def entitlement_vectors(n):
    # Random positive integer weights normalized to sum 1.
    return st.lists(st.integers(1, 6), min_size=n, max_size=n).map(
        lambda ws: EntitlementVector(tuple(Fraction(w, sum(ws)) for w in ws))
    )


def test_omms_requirements_examples():
    reqs = omms_requirements(INTRO, Fraction(2, 5))
    assert (MmsPair(1, 3), 7) in reqs

    assert omms_requirements(TWO_ITEMS, Fraction(3, 5)) == [(MmsPair(1, 2), 40)]

    low = omms_requirements(TWO_ITEMS, Fraction(2, 5))
    assert all(value == 0 for _, value in low)

    assert omms_requirements(Instance(()), Fraction(1, 2)) == []


def test_is_omms_fair_examples():
    # A bundle is OMMS-fair when it meets every requirement.
    values = [value for _, value in omms_requirements(INTRO, Fraction(2, 5))]
    assert all(7 >= value for value in values)
    assert not all(4 >= value for value in values)
    assert all(INTRO.total() >= value for value in values)


def test_wmms_two_agent_split():
    t = EntitlementVector((Fraction(2, 5), Fraction(3, 5)))
    assert wmms_value(TWO_ITEMS, t, 0) == 40
    assert wmms_value(TWO_ITEMS, t, 1) == 60


def test_wmms_forced_empty_part_gives_zero():
    t = EntitlementVector((Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)))
    for i in range(3):
        assert wmms_value(TWO_ITEMS, t, i) == 0


def test_wmms_rejects_bad_agent_index():
    t = EntitlementVector((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        wmms_value(TWO_ITEMS, t, 2)


def test_weighted_partition_rejects_no_agents_and_zero_entitlements():
    with pytest.raises(ValueError, match="at least one agent"):
        weighted_maximin_partition(TWO_ITEMS, [])
    with pytest.raises(ValueError, match="must be positive"):
        weighted_maximin_partition(TWO_ITEMS, [Fraction(1), Fraction(0)])


def test_wmms_size_bound():
    t = EntitlementVector((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(InstanceTooLargeError):
        wmms_value(Instance((1,) * 17), t, 0)


@settings(max_examples=60, deadline=None)
@given(small_instances, st.integers(1, 4))
def test_equal_entitlements_reduce_to_one_out_of_n(instance, n):
    t = EntitlementVector((Fraction(1, n),) * n)
    expected = mms(instance, MmsPair(1, n)).value
    for i in range(n):
        assert wmms_value(instance, t, i) == expected


def test_bmms_examples():
    assert bmms_value(TWO_ITEMS, Fraction(2, 5)) == 40
    assert bmms_value(TWO_ITEMS, Fraction(3, 5)) == 60
    assert bmms_value(Instance(()), Fraction(1, 3)) == 0
    assert bmms_value(TWO_ITEMS, Fraction(1)) == 100
    with pytest.raises(ValueError):
        bmms_value(TWO_ITEMS, Fraction(0))
    with pytest.raises(ValueError):
        bmms_value(TWO_ITEMS, Fraction(6, 5))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 20), max_size=8),
    st.integers(2, 9).flatmap(
        lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den))
    ),
)
def test_bmms_equals_wmms_for_two_agents(values, t1):
    instance = Instance(tuple(values))
    t = EntitlementVector((t1, 1 - t1))
    assert bmms_value(instance, t1) == wmms_value(instance, t, 0)
    assert bmms_value(instance, 1 - t1) == wmms_value(instance, t, 1)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=5), entitlement_vectors(3))
def test_weighted_search_matches_unpruned_enumeration(values, t):
    from itertools import product

    instance = Instance(tuple(values))
    best = max(
        min(
            Fraction(sum(v for v, j in zip(values, assign) if j == agent), 1) / t[agent]
            for agent in range(3)
        )
        for assign in product(range(3), repeat=len(values))
    )
    ratio, _ = weighted_maximin_partition(instance, t.entitlements)
    assert ratio == best


@settings(max_examples=40, deadline=None)
@given(small_instances, entitlement_vectors(3))
def test_weighted_partition_feasibility(instance, t):
    # The argmax partition hands every agent at least its weighted share.
    ratio, assignment = weighted_maximin_partition(instance, t.entitlements)
    sums = assignment.part_sums(sorted(instance.items, reverse=True))
    for i, t_i in enumerate(t):
        assert sums[i] >= t_i * ratio


@settings(max_examples=30, deadline=None)
@given(small_instances, entitlement_vectors(2), st.integers(1, 4))
def test_values_scale_with_items(instance, t, c):
    scaled = Instance(tuple(v * c for v in instance.items))
    for i, t_i in enumerate(t):
        assert wmms_value(scaled, t, i) == c * wmms_value(instance, t, i)
        assert bmms_value(scaled, t_i) == c * bmms_value(instance, t_i)
    low = {p: v for p, v in omms_requirements(instance, t[0])}
    high = {p: v for p, v in omms_requirements(scaled, t[0])}
    assert high == {p: c * v for p, v in low.items()}


def test_allocation_validation():
    alloc = Allocation.from_lists([[0], [1]])
    alloc.validate_for(TWO_ITEMS)
    with pytest.raises(ValueError):
        Allocation.from_lists([[0], [0, 1]]).validate_for(TWO_ITEMS)
    with pytest.raises(ValueError):
        Allocation.from_lists([[0], []]).validate_for(TWO_ITEMS)
    with pytest.raises(ValueError):
        Allocation.from_lists([[0], [1, 2]]).validate_for(TWO_ITEMS)
    # A repeat inside one bundle, which a set of indices would drop.
    with pytest.raises(ValueError, match=r"item indices assigned twice: \[0\]"):
        Allocation.from_lists([[0, 0], [1]]).validate_for(TWO_ITEMS)
    # The same rule as Instance's item values: no bool, float or text.
    for index in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="item index must be an integer"):
            Allocation.from_lists([[0], [index]])


def test_audit_intro_allocation_is_omms_fair():
    t = EntitlementVector((Fraction(2, 5), Fraction(3, 5)))
    # Item values (1, 3, 5, 6, 9): bundles {1, 6} and {3, 5, 9} by value.
    alloc = Allocation.from_lists([[0, 3], [1, 2, 4]])
    report = audit(INTRO, t, alloc)
    assert all(agent.omms_ok for agent in report.agents)


def test_audit_unbalanced_entitlements_split():
    t = EntitlementVector((Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)))
    alloc = Allocation.from_lists([[], [0], [1]])
    report = audit(TWO_ITEMS, t, alloc)
    assert all(agent.wmms_ok for agent in report.agents)
    assert not report.agents[0].omms_ok
    assert report.agents[1].omms_ok and report.agents[2].omms_ok
    assert report.all_ok(["wmms"])
    assert not report.all_ok(["omms", "wmms"])


def test_audit_proportional_split_passes_everything():
    t = EntitlementVector((Fraction(2, 5), Fraction(3, 5)))
    report = audit(TWO_ITEMS, t, Allocation.from_lists([[0], [1]]))
    assert report.all_ok()


def test_audit_single_agent_everything():
    t = EntitlementVector((Fraction(1),))
    report = audit(TWO_ITEMS, t, Allocation.from_lists([[0, 1]]))
    assert report.all_ok()


def test_audit_dimension_mismatch():
    t = EntitlementVector((Fraction(1),))
    with pytest.raises(ValueError):
        audit(TWO_ITEMS, t, Allocation.from_lists([[0], [1]]))
    with pytest.raises(ValueError):
        audit(TWO_ITEMS, t, Allocation.from_lists([[0]]))


def test_audit_report_all_ok_rejects_unknown_criterion():
    t = EntitlementVector((Fraction(1),))
    report = audit(TWO_ITEMS, t, Allocation.from_lists([[0, 1]]))
    with pytest.raises(ValueError):
        report.all_ok(["omms", "envy"])


def test_audit_verdicts_monotone_in_bundle():
    # Moving an item into an agent's bundle never flips that agent fair -> unfair.
    rng = random.Random(99)
    instance = Instance((4, 1, 7, 2, 3))
    t = EntitlementVector((Fraction(1, 4), Fraction(3, 4)))
    for _ in range(20):
        owner = [rng.randint(0, 1) for _ in range(5)]
        bundles = [[i for i in range(5) if owner[i] == j] for j in range(2)]
        report = audit(instance, t, Allocation.from_lists(bundles))
        others = bundles[1]
        if not others:
            continue
        moved = others[rng.randrange(len(others))]
        grown = [bundles[0] + [moved], [i for i in others if i != moved]]
        grown_report = audit(instance, t, Allocation.from_lists(grown))
        before, after = report.agents[0], grown_report.agents[0]
        for name in ("omms_ok", "wmms_ok", "bmms_ok"):
            if getattr(before, name):
                assert getattr(after, name)


def fraction_weighted_search(items, entitlements):
    """The labeled-partition search as it ran on Fraction ratios: the same
    order, pruning and strict-improvement rule, kept here as the oracle of
    the integer-key search."""
    items = sorted(items, reverse=True)
    n, m = len(entitlements), len(items)
    same_t_before = [
        [j2 for j2 in range(j) if entitlements[j2] == entitlements[j]]
        for j in range(n)
    ]
    sums, counts, assign = [0] * n, [0] * n, [0] * m
    best = [None, None]

    def dfs(i, rest):
        if i == m:
            ratio = min(s / t for s, t in zip(sums, entitlements))
            if best[0] is None or ratio > best[0]:
                best[:] = [ratio, tuple(assign)]
            return
        if best[0] is not None:
            if min((s + rest) / t for s, t in zip(sums, entitlements)) <= best[0]:
                return
        for j in range(n):
            if counts[j] == 0 and any(counts[j2] == 0 for j2 in same_t_before[j]):
                continue
            sums[j] += items[i]
            counts[j] += 1
            assign[i] = j
            dfs(i + 1, rest - items[i])
            sums[j] -= items[i]
            counts[j] -= 1

    dfs(0, sum(items))
    return Fraction(best[0]), best[1]


def weight_vectors(min_agents, max_agents):
    # Integer weights normalized to sum 1; ties are likely with weights 1-4.
    return st.lists(st.integers(1, 4), min_size=min_agents, max_size=max_agents).map(
        lambda ws: tuple(Fraction(w, sum(ws)) for w in ws)
    )


HUGE = 10**30
ODD_DENOMINATORS = (
    (Fraction(74, 100), Fraction(13, 100), Fraction(13, 100)),
    (Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 12), max_size=8),
    weight_vectors(2, 4) | st.sampled_from(ODD_DENOMINATORS),
    st.sampled_from([1, HUGE]),
)
@example([], ODD_DENOMINATORS[0], 1)
@example([5, 4, 4, 0, 3, 2, 2, 1], ODD_DENOMINATORS[0], HUGE)
@example([7, 7, 6, 5, 3, 3, 1, 0], ODD_DENOMINATORS[1], 1)
@example([9, 8, 8, 2, 2, 1], (Fraction(1, 4),) * 4, HUGE)
@example([3, 0, 0, 3], (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), 1)
def test_weighted_search_matches_fraction_search(values, entitlements, c):
    # Ratio and witness both: the integer keys must keep the search order.
    # The +1 on large values keeps huge instances from being exact
    # multiples of small ones.
    scaled = [v * c + (v > 6) for v in values]
    ratio, assignment = weighted_maximin_partition(
        Instance(tuple(scaled)), entitlements
    )
    assert (ratio, assignment.part_of) == fraction_weighted_search(scaled, entitlements)
    assert assignment.d == len(entitlements)


def wmms_subset_dp(values, entitlements):
    """Best min_j V(part_j) / t_j by a DP over (agent, subset of items):
    after agent k, best[S] is the best min over agents 0..k of a split of
    exactly the items in bitmask S. No item order, no pruning."""
    m, n = len(values), len(entitlements)
    full = (1 << m) - 1
    sums = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    best = [Fraction(s) / entitlements[0] for s in sums]
    for k in range(1, n):
        share = [Fraction(s) / entitlements[k] for s in sums]
        step = []
        for mask in range(full + 1) if k < n - 1 else [full]:
            top, sub = None, mask
            while True:
                ratio = min(best[mask ^ sub], share[sub])
                if top is None or ratio > top:
                    top = ratio
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            step.append(top)
        best = step
    return best[-1]


def witness_ratio(values, entitlements, assignment):
    sums = assignment.part_sums(sorted(values, reverse=True))
    return min(Fraction(s) / t for s, t in zip(sums, entitlements))


def normalized(*ws):
    return tuple(Fraction(w, sum(ws)) for w in ws)


# (seed, item count, entitlements, value scale): ties, zeros, odd
# denominators and 10**30 values, 10-11 items, 2-4 agents. The DP takes
# 0.2-0.6 s per case.
SUBSET_DP_CASES = [
    (1, 11, normalized(1, 1), 1),
    (2, 11, normalized(74, 26), HUGE),
    (3, 11, normalized(1, 1, 1), 1),
    (4, 11, normalized(74, 13, 13), HUGE),
    (5, 10, normalized(3, 1, 1), 1),
    (6, 11, normalized(1, 7, 13), 1),
    (7, 10, normalized(1, 1, 1, 1), HUGE),
    (8, 10, normalized(74, 10, 10, 6), 1),
    (9, 10, normalized(2, 1, 1, 1), 1),
    (10, 10, normalized(1, 2, 3, 4), 10**6),
]


@pytest.mark.parametrize("seed, m, entitlements, c", SUBSET_DP_CASES)
def test_weighted_search_matches_subset_dp(seed, m, entitlements, c):
    # Past the reach of the Fraction search oracle; values 0-12 give zeros
    # and ties, and the +1 keeps huge values from being exact multiples.
    rng = random.Random(seed)
    values = [v * c + (v > 6) for v in (rng.randint(0, 12) for _ in range(m))]
    ratio, assignment = weighted_maximin_partition(Instance(tuple(values)), entitlements)
    assert ratio == wmms_subset_dp(values, entitlements)
    assert witness_ratio(values, entitlements, assignment) == ratio


def identical_items_ratio(m, entitlements):
    # Best min_j n_j / t_j over count vectors (n_1, ..., n_k) summing to m,
    # one per placement of k - 1 bars among m + k - 1 slots.
    k = len(entitlements)
    best = None
    for bars in combinations(range(m + k - 1), k - 1):
        edges = (-1, *bars, m + k - 1)
        counts = [b - a - 1 for a, b in zip(edges, edges[1:])]
        ratio = min(Fraction(n_j) / t for n_j, t in zip(counts, entitlements))
        best = ratio if best is None or ratio > best else best
    return best


# The audit vectors of 2-4 agents, and four unequal agents.
IDENTICAL_ITEMS_VECTORS = [
    normalized(1, 1),
    normalized(74, 26),
    normalized(2, 3),
    normalized(1, 1, 1),
    normalized(74, 13, 13),
    normalized(3, 1, 1),
    normalized(1, 1, 1, 1),
    normalized(74, 10, 10, 6),
    normalized(2, 1, 1, 1),
    normalized(1, 2, 3, 4),
]


@pytest.mark.parametrize("entitlements", IDENTICAL_ITEMS_VECTORS)
@pytest.mark.parametrize("m", [14, 16])
def test_weighted_search_on_identical_items(entitlements, m):
    expected = identical_items_ratio(m, entitlements)
    for c in (1, 10**6, HUGE):
        ratio, assignment = weighted_maximin_partition(Instance((c,) * m), entitlements)
        assert ratio == c * expected
        assert witness_ratio([c] * m, entitlements, assignment) == ratio


def test_weighted_search_on_sixteen_near_equal_items():
    # Without the item-count check this search runs for minutes. Every part
    # sum lies between n_j * min and n_j * max, so the ratio lies between
    # the identical-item ratios at the smallest and the largest value.
    entitlements = normalized(1, 2, 3, 4)
    rng = random.Random(16)
    values = [10**6 + rng.randint(0, 50) for _ in range(16)]
    ratio, assignment = weighted_maximin_partition(Instance(tuple(values)), entitlements)
    assert witness_ratio(values, entitlements, assignment) == ratio
    counts_ratio = identical_items_ratio(16, entitlements)
    assert min(values) * counts_ratio <= ratio <= max(values) * counts_ratio


def test_sixteen_item_weighted_share_is_certified():
    # Past every weighted oracle: R = WMMS_j / t_j is the best ratio exactly
    # when parts of at least R*t_j exist and parts above it, at
    # floor(R*t_j) + 1, do not. The covering DP decides both on the hunt's
    # 16 items 10**6 + randrange(51), with Fraction floors from the ratio.
    rng = random.Random(1000 * 50)
    instance = Instance(tuple(10**6 + rng.randrange(51) for _ in range(16)))
    t = EntitlementVector((Fraction(2, 9), Fraction(1, 5), Fraction(2, 9), Fraction(16, 45)))
    ratio = wmms_value(instance, t, 0) / t[0]
    assert [wmms_value(instance, t, j) for j in range(len(t))] == [ratio * t_j for t_j in t]
    assert coverable(instance.items, [math.ceil(ratio * t_j) for t_j in t])
    assert not coverable(instance.items, [math.floor(ratio * t_j) + 1 for t_j in t])


@pytest.mark.parametrize(
    "entitlements, nodes",
    [(normalized(1, 2, 3, 4), 37), (normalized(74, 13, 13), 12)],
)
def test_weighted_search_strength_is_pinned(dfs_calls, entitlements, nodes):
    # 12 near-equal items. Counting each part one item short in the
    # item-count check keeps the answers but enters 431,485 and 1,935
    # nodes; the bound, four times today's count, fails it at once.
    values = tuple(10**6 + (37 * k) % 51 for k in range(12))
    bound = 4 * nodes
    calls = dfs_calls(weighted_maximin_partition, bound, Instance(values), entitlements)
    assert calls <= bound


def test_weighted_search_stops_at_the_root_bound(dfs_calls, monkeypatch):
    # Four equal agents on 12 equal items reach the root bound T/4 on the
    # first partition that beats the greedy start, after 12 nodes. At l = 1
    # every child then fails the value check, so the stop saves no node, only
    # the tests of the children still open: the item-count check makes 29
    # lookups, and 53 without the stop.
    lookups = 0

    def counted(*args):
        nonlocal lookups
        lookups += 1
        return bisect_left(*args)

    monkeypatch.setattr(engine, "bisect_left", counted)
    instance = Instance((10**6,) * 12)
    calls = dfs_calls(weighted_maximin_partition, 12, instance, normalized(1, 1, 1, 1))
    assert calls <= 12 and lookups <= 29


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(0, 9), st.integers(10**6, 10**6 + 50)), max_size=9
    ),
    st.integers(1, 5),
)
@example([10**6, 10**6, 10**6 + 1, 0, 0], 3)
def test_equal_entitlements_match_the_one_out_of_d_share(values, d):
    # The two callers of the one search agree: d equal agents maximize the
    # smallest part, as the 1-out-of-d share does, with the same witness.
    instance = Instance(tuple(values))
    ratio, assignment = weighted_maximin_partition(instance, [Fraction(1, d)] * d)
    result = mms(instance, MmsPair(1, d))
    assert ratio == d * result.value
    assert assignment == result.witness


def test_weighted_search_raises_when_start_is_never_beaten(monkeypatch):
    monkeypatch.setattr(engine, "_greedy", lambda items, scale, where: [10**9] * len(scale))
    with pytest.raises(AssertionError, match="witness None"):
        weighted_maximin_partition(INTRO, normalized(1, 1))


def _misreport_witness_keys(monkeypatch):
    # The witness check sums the l smallest keys with `engine.min_l_union`:
    # one less than the real sum is a witness that misses the value.
    real = engine.min_l_union
    monkeypatch.setattr(engine, "min_l_union", lambda keys, l: real(keys, l) - 1)


def test_weighted_search_raises_when_witness_misses_ratio(monkeypatch):
    _misreport_witness_keys(monkeypatch)
    with pytest.raises(AssertionError, match="does not reach"):
        weighted_maximin_partition(INTRO, normalized(1, 1))


@pytest.mark.parametrize(
    "instance, t",
    [(INTRO, normalized(1, 2)), (Instance((10,) * 4), normalized(1, 1))],
)
def test_value_only_witness_is_rechecked(monkeypatch, instance, t):
    # The value-only shares and WMMS re-check their witness as well: after a
    # search (INTRO at 1/3, 2/3) and when the greedy partition meets the
    # root bound and no search runs (four equal items at 1/2, 1/2).
    _misreport_witness_keys(monkeypatch)
    with pytest.raises(AssertionError, match="does not reach"):
        wmms_value(instance, EntitlementVector(tuple(t)), 0)
    with pytest.raises(AssertionError, match="does not reach"):
        omms_requirements(instance, t[0])


def subset_sum_scan(values, t_i):
    # Every two-way split scored directly, one subset at a time.
    from itertools import combinations

    total = sum(values)
    if t_i == 1:
        return Fraction(total)
    return t_i * max(
        min(Fraction(sum(subset)) / t_i, Fraction(total - sum(subset)) / (1 - t_i))
        for size in range(len(values) + 1)
        for subset in combinations(values, size)
    )


entitlements_up_to_1 = st.integers(2, 12).flatmap(
    lambda den: st.integers(1, den).map(lambda num: Fraction(num, den))
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 30), max_size=9),
    entitlements_up_to_1,
    st.sampled_from([1, HUGE]),
)
@example([], Fraction(1, 3), 1)
@example([], Fraction(1), 1)
@example([0, 0, 0], Fraction(2, 5), 1)
@example([4, 6], Fraction(1), HUGE)
@example([40, 60], Fraction(2, 5), 1)  # a subset sum equals t_i * T
@example([3, 3, 2, 2], Fraction(1, 2), HUGE)  # and here
@example([7, 1, 1], Fraction(1, 9), HUGE)
def test_bmms_matches_subset_scan(values, t_i, c):
    scaled = [v * c for v in values]
    assert bmms_value(Instance(tuple(scaled)), t_i) == subset_sum_scan(scaled, t_i)


# 0-9 items, small values with zeros and ties or near-equal large ones.
bmms_instances = st.lists(
    st.one_of(st.integers(0, 30), st.integers(10**6, 10**6 + 50)), max_size=9
).map(lambda xs: Instance(tuple(xs)))
agent_vectors = st.integers(2, 4).flatmap(entitlement_vectors)


@seed(21)
@settings(max_examples=150, deadline=None)
@given(bmms_instances, agent_vectors)
def test_bmms_is_at_least_wmms(instance, t):
    # A theorem: split an optimal WMMS partition into P_i and the rest.
    # V(P_i)/t_i >= R, and V(rest)/(1 - t_i) >= sum_{j != i} t_j*R/(1 - t_i) = R.
    for i, t_i in enumerate(t):
        assert bmms_value(instance, t_i) >= wmms_value(instance, t, i), i


@seed(21)
@settings(max_examples=150, deadline=None)
@given(bmms_instances, agent_vectors)
def test_bmms_is_at_least_every_share_it_covers(instance, t):
    # A theorem: let X be the l smallest parts, of sum s, of an optimal
    # l-out-of-d partition. The other d - l parts are each at least s/l, so
    # V(rest)/(1 - t_i) >= (d - l)s / (l(1 - t_i)) >= s/t_i when d*t_i >= l.
    for t_i in t:
        bmms = bmms_value(instance, t_i)
        for d in range(1, ORACLE_MAX_PARTS + 1):
            for l in range(1, d * t_i.numerator // t_i.denominator + 1):
                assert bmms >= mms(instance, MmsPair(l, d)).value, (t_i, l, d)


def test_audit_computes_each_share_once(monkeypatch):
    instance = Instance((9, 7, 6, 5, 3, 2, 1))
    # Two agents share 2/9, and 2/9 and 1/5 both need the 1-out-of-5 share.
    t = EntitlementVector(
        (Fraction(2, 9), Fraction(1, 5), Fraction(2, 9), Fraction(16, 45))
    )
    expected = [
        (
            omms_requirements(instance, t_i),
            wmms_value(instance, t, i),
            bmms_value(instance, t_i),
        )
        for i, t_i in enumerate(t)
    ]
    calls = {"_search": [], "non_dominated_pairs": [], "bmms_value": []}

    def counted(name, key):
        # Records arguments `key` of each call: (l, scale) or the entitlement.
        real = getattr(criteria, name)

        def wrapper(*args):
            calls[name].append(args[key])
            return real(*args)

        return wrapper

    # `_search` behind the share table runs every value-only search.
    for name, key in (("_search", slice(1, 3)), ("non_dominated_pairs", 0),
                      ("bmms_value", 1)):
        monkeypatch.setattr(criteria, name, counted(name, key))
    report = audit(instance, t, Allocation.from_lists([[0, 1], [2, 3], [4, 5], [6]]))
    shares = [(list(a.omms_requirements), a.wmms_value, a.bmms_value) for a in report.agents]
    assert shares == expected
    distinct = [Fraction(2, 9), Fraction(1, 5), Fraction(16, 45)]
    assert calls["non_dominated_pairs"] == distinct
    assert calls["bmms_value"] == distinct
    assert len(calls["_search"]) == len(set(calls["_search"]))
    # The OMMS pairs at unit scale and the one weighted search, at c_j = L // w_j.
    omms = {(p.l, (1,) * p.d) for reqs, _, _ in expected for p, _ in reqs}
    assert set(calls["_search"]) == omms | {(1, (72, 80, 72, 45))}


def test_wmms_value_calls_sharing_a_table_search_once(monkeypatch):
    # n agents cost one weighted search, not n, when their calls share a table.
    instance = Instance((9, 7, 6, 5, 3, 2, 1))
    t = EntitlementVector((Fraction(2, 9), Fraction(1, 5), Fraction(2, 9), Fraction(16, 45)))
    expected = [wmms_value(instance, t, i) for i in range(len(t))]
    calls = []
    real = criteria._search

    def counted(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(criteria, "_search", counted)
    tables = criteria.ShareTables()
    assert [wmms_value(instance, t, i, tables=tables) for i in range(len(t))] == expected
    assert calls == [(1, (72, 80, 72, 45))]


def test_audit_first_refusal_is_unchanged():
    # Agent 1 (2/5) needs 5 parts and agent 2 (4/15) needs 4: the refusal
    # names the first share beyond the bound in agent order.
    instance = Instance((5, 4, 3, 2, 1))
    t = EntitlementVector((Fraction(1, 3), Fraction(2, 5), Fraction(4, 15)))
    alloc = Allocation.from_lists([[0, 1], [2, 3], [4]])
    with pytest.raises(InstanceTooLargeError, match="into 5 parts"):
        audit(instance, t, alloc, SearchLimits(max_items=16, max_parts=3))


def test_weighted_partition_refuses_past_recursion_depth():
    halves = [Fraction(1, 2), Fraction(1, 2)]
    with pytest.raises(InstanceTooLargeError, match="3000 items exceed"):
        weighted_maximin_partition(
            Instance((1,) * 3000), halves, SearchLimits(max_items=5000)
        )


def tied(n):
    return EntitlementVector((Fraction(1, n),) * n)


@seed(15)
@settings(max_examples=60, deadline=None)
@given(small_instances, st.integers(1, 4), st.randoms(use_true_random=False))
@example(Instance((7, 7, 0)), 4, random.Random(0))
def test_audit_of_a_tied_vector_matches_the_weighted_search(instance, n, rng):
    # A tied vector's WMMS comes from the 1-out-of-n share; the weighted
    # search must give the same value to every agent.
    bundles = [[] for _ in range(n)]
    for j in range(len(instance.items)):
        bundles[rng.randrange(n)].append(j)
    report = audit(instance, tied(n), Allocation.from_lists(bundles))
    best, _ = weighted_maximin_partition(instance, tied(n).entitlements)
    for agent in report.agents:
        assert agent.wmms_value == best / n
        assert agent.wmms_ok == (agent.bundle_value >= best / n)


@pytest.mark.parametrize(
    "instance, n, limits",
    [
        (Instance((5, 4, 3, 2, 1)), 3, SearchLimits(max_parts=2)),
        (Instance((5, 4, 3, 2, 1)), 4, SearchLimits(max_items=4)),
        (Instance((1,) * 3000), 2, SearchLimits(max_items=5000)),
    ],
)
def test_audit_of_a_tied_vector_refuses_as_the_weighted_search(instance, n, limits):
    with pytest.raises(InstanceTooLargeError) as searched:
        weighted_maximin_partition(instance, tied(n).entitlements, limits)
    bundles = [list(range(len(instance.items)))] + [[] for _ in range(n - 1)]
    with pytest.raises(InstanceTooLargeError) as audited:
        audit(instance, tied(n), Allocation.from_lists(bundles), limits)
    assert str(audited.value) == str(searched.value)
