import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsfair.core import Instance, MmsPair
from mmsfair.dominance import (
    Decomposition,
    bundle_size_reduction_applies,
    corollary_case,
    decompose,
    dominates,
    non_dominance_witness,
)
from mmsfair.engine import brute_force_mms, mms, mms_cardinality

any_pair = st.integers(1, 12).flatmap(
    lambda d: st.integers(0, d).map(lambda l: MmsPair(l, d))
)


def grid_pairs(max_d, min_l=0):
    return [MmsPair(l, d) for d in range(1, max_d + 1) for l in range(min_l, d + 1)]


def test_decompose_examples():
    assert decompose(3, 7) == Decomposition(q=3, r=2)
    assert decompose(5, 3) == Decomposition(q=1, r=2)
    assert decompose(4, 4) == Decomposition(q=1, r=0)
    with pytest.raises(ValueError):
        decompose(0, 3)


@given(st.integers(1, 50), st.integers(1, 50))
def test_decompose_invariants(d, d_prime):
    dec = decompose(d, d_prime)
    assert dec.q >= 1
    assert 0 <= dec.r <= d - 1
    assert dec.q * d - dec.r == d_prime


def test_dominates_spot_checks():
    assert dominates(MmsPair(2, 3), MmsPair(4, 7))
    assert not dominates(MmsPair(2, 3), MmsPair(5, 7))
    assert not dominates(MmsPair(2, 5), MmsPair(1, 3))
    assert not dominates(MmsPair(1, 3), MmsPair(2, 5))


@given(any_pair)
def test_dominates_reflexive(p):
    assert dominates(p, p)


@given(any_pair, st.integers(1, 12))
def test_everything_dominates_zero_share(p, d_prime):
    assert dominates(p, MmsPair(0, d_prime))


def test_dominates_transitive_on_grid():
    pairs = grid_pairs(12)
    dominated = {p: {p2 for p2 in pairs if dominates(p, p2)} for p in pairs}
    for p in pairs:
        for p2 in dominated[p]:
            assert dominated[p2] <= dominated[p], (p, p2)


def test_corollary_case_examples():
    assert corollary_case(MmsPair(2, 3), MmsPair(1, 3)) == "a"
    assert corollary_case(MmsPair(2, 3), MmsPair(2, 4)) == "b"
    assert corollary_case(MmsPair(2, 3), MmsPair(1, 2)) == "c"
    assert corollary_case(MmsPair(1, 2), MmsPair(2, 4)) == "d"
    assert corollary_case(MmsPair(2, 3), MmsPair(5, 7)) is None
    with pytest.raises(ValueError):
        corollary_case(MmsPair(0, 1), MmsPair(1, 2))


def test_corollary_case_implies_dominance_on_grid():
    pairs = grid_pairs(12, min_l=1)
    labelled = 0
    for p in pairs:
        for p2 in pairs:
            label = corollary_case(p, p2)
            if label is not None:
                assert dominates(p, p2), (p, p2, label)
                labelled += 1
    assert labelled > 0


def test_non_dominance_witness_examples():
    w = non_dominance_witness(MmsPair(2, 3), MmsPair(5, 7))
    assert w.items == (1,) * 7
    assert mms(w, MmsPair(2, 3)).value == 4 < 5 == mms(w, MmsPair(5, 7)).value

    w = non_dominance_witness(MmsPair(1, 3), MmsPair(2, 5))
    assert w.items == (1,) * 5
    assert mms(w, MmsPair(1, 3)).value == 1 < 2 == mms(w, MmsPair(2, 5)).value

    w = non_dominance_witness(MmsPair(0, 1), MmsPair(1, 1))
    assert w.items == (1,)


def test_non_dominance_witness_rejects_dominating_pairs():
    with pytest.raises(ValueError):
        non_dominance_witness(MmsPair(2, 3), MmsPair(4, 7))


def test_witness_separates_on_full_grid():
    # For every non-dominating combination up to d, d' <= 8 the unit-item
    # witness strictly separates; the closed form agrees with the search.
    pairs = grid_pairs(8)
    memo = {}

    def unit_value(m, p):
        if (m, p) not in memo:
            memo[(m, p)] = mms(Instance((1,) * m), p).value
        return memo[(m, p)]

    checked = 0
    for p in pairs:
        for p2 in pairs:
            if dominates(p, p2):
                continue
            witness = non_dominance_witness(p, p2)
            m = len(witness)
            low, high = unit_value(m, p), unit_value(m, p2)
            assert low < high, (p, p2)
            assert low == mms_cardinality(m, p)
            assert high == mms_cardinality(m, p2) == p2.l
            checked += 1
    assert checked > 500


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 9), max_size=6),
    st.integers(1, 5).flatmap(lambda d: st.integers(0, d).map(lambda l: MmsPair(l, d))),
    st.integers(1, 5).flatmap(lambda d: st.integers(0, d).map(lambda l: MmsPair(l, d))),
)
def test_dominance_sound_on_additive_instances(values, p, p_prime):
    if not dominates(p, p_prime):
        return
    instance = Instance(tuple(values))
    assert mms(instance, p).value >= mms(instance, p_prime).value


def test_bundle_size_reduction_applies_examples():
    assert bundle_size_reduction_applies(MmsPair(1, 3), MmsPair(2, 4), m=3)
    assert not bundle_size_reduction_applies(MmsPair(1, 3), MmsPair(2, 4), m=4)
    assert bundle_size_reduction_applies(MmsPair(2, 5), MmsPair(2, 5), m=5)
    assert not bundle_size_reduction_applies(MmsPair(2, 5), MmsPair(1, 4), m=3)


def test_bundle_size_reduction_rejects_negative_item_count():
    with pytest.raises(ValueError, match="non-negative"):
        bundle_size_reduction_applies(MmsPair(1, 3), MmsPair(2, 4), m=-1)


def test_bundle_size_reduction_backed_by_oracle():
    skew = Instance((3, 2, 1))
    assert bundle_size_reduction_applies(MmsPair(1, 3), MmsPair(3, 5), m=3)
    assert not dominates(MmsPair(1, 3), MmsPair(3, 5))
    assert brute_force_mms(skew, MmsPair(1, 3)) >= brute_force_mms(skew, MmsPair(3, 5))


def _set_partitions(m, d):
    # Partitions of items 0..m-1 into at most d blocks, as bitmasks.
    def extend(i, blocks):
        if i == m:
            yield blocks
            return
        for b in range(len(blocks)):
            yield from extend(i + 1, blocks[:b] + [blocks[b] | 1 << i] + blocks[b + 1:])
        if len(blocks) < d:
            yield from extend(i + 1, blocks + [1 << i])

    yield from extend(0, [])


def ordinal_shares(rank, m, d):
    """The l-out-of-d shares for l = 0..d under a monotone ordering given by
    `rank` (a score per item bitmask; higher is better, ties allowed): the
    best rank, over partitions into d parts, of the worst union of l parts."""
    best = [None] * (d + 1)
    for blocks in _set_partitions(m, d):
        parts = blocks + [0] * (d - len(blocks))
        for l in range(d + 1):
            worst = min(rank[reduce(or_, union, 0)] for union in combinations(parts, l))
            if best[l] is None or worst > best[l]:
                best[l] = worst
    return best


def _top_k_rank(values, k):
    # Sum of the k most valuable items of each subset; k = 1 is the max item.
    m = len(values)
    return [
        sum(sorted((values[i] for i in range(m) if mask >> i & 1), reverse=True)[:k])
        for mask in range(1 << m)
    ]


def _random_monotone_rank(rng, m):
    # Random scores made monotone: a subset ranks as its best subset.
    rank = [rng.randrange(8) for _ in range(1 << m)]
    for mask in range(1 << m):
        for i in range(m):
            if mask >> i & 1:
                rank[mask] = max(rank[mask], rank[mask ^ 1 << i])
    return rank


@pytest.mark.parametrize("seed", range(12))
def test_dominance_sound_for_monotone_orderings(seed):
    # The theorem holds for every monotone ordering, not only additive
    # values: max item, the top k items, and a random monotone rank.
    rng = random.Random(f"ordering:{seed}")
    m = rng.randint(1, 6)
    values = [rng.randint(0, 9) for _ in range(m)]
    ranks = [_top_k_rank(values, k) for k in (1, 2, 3)] + [_random_monotone_rank(rng, m)]
    pairs = grid_pairs(6)
    for rank in ranks:
        shares = {d: ordinal_shares(rank, m, d) for d in range(1, 7)}
        for p in pairs:
            for q in pairs:
                if dominates(p, q):
                    assert shares[p.d][p.l] >= shares[q.d][q.l], (values, p, q)
