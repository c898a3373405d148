"""Exact l-out-of-d maximin-share computation.

The share value is the maximum, over all partitions of the items into d
possibly-empty parts, of the sum of the l smallest part sums. `mms` and
the WMMS search of `criteria` run one search, `_search`: it maximizes the
sum of the l smallest keys s_j*scale[j] (s_j: part sums). `mms` has unit
scale; WMMS has l = 1 and scale c_j; l > 1 comes with unit scale only.
Parts of one scale are interchangeable, so part j opens only once its twin,
the previous part of the same scale, is in use: the part before at unit
scale, the previous agent of equal entitlement in WMMS. The search walks the
assignments depth first in lex order and keeps strict improvements only,
so its witness is the lex-first optimum, which no rule cuts. It starts one
below the greedy partition (each item, largest first, to the part with the
least key) and stops at the root bound l*T*C // sum(C // scale[j]),
C = lcm(scale). At unit scale the root is the least count cap over
j = l..d: the j parts with the fewest items hold at most C_j = q*j -
min(j, q*d - m) of the m items (q = ceil(m/d)), so the l smallest part
sums are at most the l-out-of-j share of the C_j largest items, at most
l/j of their sum and, when C_j <= j (one item per part), the sum of items
j-l .. C_j-1. Zeros go to part 0 outside the search. An item equal to its
predecessor never goes to an earlier part (swapping equal items keeps the
part sums and lowers the vector). At l > 1 an upper bound cuts subtrees
that cannot beat the incumbent. With b the smallest item and r items left,
every completion ends at part sums s_j + n_j*b + x_j, integers n_j >= 0
summing to r and x_j >= 0 summing to E = rest - r*b. The bound puts each of
the r units of b on the then smallest part and pours E fractionally onto the
smallest parts (water-filling). The poured sum of the l smallest is
symmetric and concave in the part sums, so Schur-concave, and the greedy
placement is majorized by every other: no completion beats it. At E >= d*b
the pour covers every part that took a unit (each lies within b of the
smallest part), so it equals pouring all of rest; units are placed only
below that. At l = 1 beating best puts every key at best + 1 or more, so
each part needs its own items up to its floor ceil((best + 1) / scale[j]):
the shortfalls must fit in the remaining value, and the fewest of the
largest remaining items that cover each must fit in the remaining count
(this cuts all that water-filling would). The last item is placed in closed
form, after one cut for every l: no key rises by more than v*lcm(scale) or
past the l+1-th smallest. The witness is re-checked on every call.
`mms_cardinality` is the closed form for identical unit items.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from heapq import heapreplace
from dataclasses import dataclass
from math import lcm
from operator import mul, sub
from typing import Sequence

from .core import (
    Instance,
    InstanceTooLargeError,
    MmsPair,
    PartitionAssignment,
    Value,
)


@dataclass(frozen=True, slots=True)
class SearchLimits:
    """Safety bounds for the exact search; exceeding them raises instead of hanging."""

    max_items: int = 16
    max_parts: int = 10

    def check(self, m: int, d: int) -> None:
        """Raise InstanceTooLargeError if m items into d parts exceed the bounds."""
        if m > self.max_items or d > self.max_parts:
            raise InstanceTooLargeError(
                f"instance too large for exact search: {m} items into {d} parts "
                f"(limits: {self.max_items} items, {self.max_parts} parts)"
            )


DEFAULT_LIMITS = SearchLimits()


@dataclass(frozen=True, slots=True)
class MmsResult:
    """Share value together with a partition that attains it.

    The witness refers to the canonical (non-increasing) item order;
    summing its l smallest part sums reproduces `value`.
    """

    value: Value
    witness: PartitionAssignment


def min_l_union(part_sums: Sequence[Value], l: int) -> Value:
    """Sum of the l smallest entries: the worst union of l parts under an
    additive ordering."""
    if not 0 <= l <= len(part_sums):
        raise ValueError(f"need 0 <= l <= {len(part_sums)}, got l={l}")
    return sum(sorted(part_sums)[:l])


def _greedy_start(items: Sequence[Value], l: int, scale: Sequence[int]) -> Value:
    # Each item, largest first, to the part with the least key (the first of
    # equals): a feasible partition, so its l smallest keys are a lower bound.
    keys = [0] * len(scale)
    for v in items:
        j = keys.index(min(keys))
        keys[j] += v * scale[j]
    return sum(sorted(keys)[:l])


def _count_cap(prefix: list[Value], l: int, d: int) -> Value:
    # The module docstring's least count cap over j = l..d, without min()
    # (it doubles the cost on tiny searches); j = d is l*T//d.
    m = len(prefix) - 1
    q = -(-m // d)
    r = q * d - m
    cap = l * prefix[m] // d
    for j in range(l, d):
        c = q * j - (j if j < r else r)  # mms_cardinality(m, j/d)
        x = prefix[c] - prefix[j - l if j - l < c else c] if c <= j else l * prefix[c] // j
        cap = x if x < cap else cap
    return cap


def _upper_bound(
    asc: list[Value], rest: Value, l: int, d: int, r: int, small: Value
) -> Value:
    # The module docstring's bound for r items of at least `small` that sum
    # to `rest` (`asc`: part sums, ascending; reordered in place).
    if rest < (r + d) * small:
        for _ in range(r):
            heapreplace(asc, asc[0] + small)
        asc.sort()
        rest -= r * small
    # The water covers the k smallest parts.
    water = rest
    for k in range(1, d):
        water += asc[k - 1]
        if water <= k * asc[k]:
            break
    else:
        k = d
        water += asc[-1]
    if k >= l:
        return l * water // k
    # The water settles below the l-th part: the l smallest absorb it all.
    return water + sum(asc[k:l])


def _search(
    items: Sequence[Value], l: int, scale: Sequence[int]
) -> tuple[Value, PartitionAssignment]:
    # The search of the module docstring: the best sum of the l smallest keys
    # and the lex-first assignment over the canonical (non-increasing) item
    # order that reaches it. l > 1 needs unit scale: part sums are keys there.
    d = len(scale)
    canonical = sorted(items, reverse=True)
    m = len(canonical) - canonical.count(0)
    zeros = (0,) * (len(canonical) - m)
    if m == 0:
        return 0, PartitionAssignment(zeros, d)
    items = canonical[:m]
    # prefix[k] is the sum of the k largest items, so items i.. hold
    # total - prefix[i], and the fewest of them whose sum reaches x are
    # bisect_left(prefix, prefix[i] + x, i) - i (m - i + 1 if none do).
    prefix = [0, *itertools.accumulate(items)]
    total = prefix[m]
    top = lcm(*scale)
    root = (_count_cap(prefix, l, d) if top == 1
            else l * total * top // sum(top // c for c in scale))
    best = _greedy_start(items, l, scale) - 1
    best_assign = None
    # At l = 1, beating best needs every key above best, so every part needs
    # a part sum of floors[j] = ceil((best + 1) / scale[j]) or more.
    floors = [-(-(best + 1) // c) for c in scale]
    # twin_before[j]: the previous part with the same scale (-1 if none).
    twin_before, previous = [], {}
    for j, c in enumerate(scale):
        twin_before.append(previous.get(c, -1))
        previous[c] = j
    sums = [0] * d
    assign = [0] * m
    last = m - 1
    small = items[last]

    def dfs(i: int) -> bool:
        # Returns True once the incumbent meets the root bound.
        nonlocal best, best_assign
        v = items[i]
        if l > 1:
            # The scale is 1 here, so the part sums are the keys.
            if i < last and _upper_bound(
                sorted(sums), total - prefix[i], l, d, m - i, small
            ) <= best:
                return False
        else:
            base = prefix[i]
            need = count = 0
            for short in map(sub, floors, sums):
                if short > 0:
                    need += short
                    count += bisect_left(prefix, base + short, i) - i
            if need > total - base or count > m - i:
                return False
        first = assign[i - 1] if i and v == items[i - 1] else 0
        if i == last:
            # Adding g to a key s below the ceiling (the l+1-th smallest key;
            # none when l == d) raises the l smallest by min(g, ceiling - s).
            keys = sums if top == 1 else list(map(mul, sums, scale))
            asc = sorted(keys)
            base = sum(asc[:l])
            ceiling = asc[l] if l < d else asc[-1] + v * top
            # No key rises by more than v*top, nor past the ceiling.
            if base + min(v * top, ceiling - asc[0]) <= best:
                return False
            # No twin check: an empty twin scores the same, lex-earlier, and only gains count.
            for k in range(first, d):
                s = keys[k]
                gain = min(v * scale[k], ceiling - s)
                value = base + gain if gain > 0 else base
                if value > best:
                    best = value
                    assign[i] = k
                    best_assign = tuple(assign)
                    for j, c in enumerate(scale):
                        floors[j] = -(-(best + 1) // c)
            return best == root
        for k in range(first, d):
            s = sums[k]
            # An unused part opens only once its previous twin is in use.
            if not s and twin_before[k] >= 0 and not sums[twin_before[k]]:
                continue
            sums[k] = s + v
            assign[i] = k
            if dfs(i + 1):
                return True
            sums[k] = s
        return False

    try:
        dfs(0)
    except RecursionError:  # dfs recurses once per nonzero item
        raise InstanceTooLargeError(
            f"instance too large for exact search: {m} items exceed its recursion depth"
        ) from None
    # Raised explicitly, not asserted, so that `python -O` keeps the check.
    # The optimum beats the greedy start, so no witness at all is a fault.
    witness = None if best_assign is None else PartitionAssignment(best_assign + zeros, d)
    if witness is None or min_l_union(
        list(map(mul, witness.part_sums(canonical), scale)), l
    ) != best:
        raise AssertionError(f"witness {best_assign} does not reach {best}")
    return best, witness


def mms(
    instance: Instance, pair: MmsPair, limits: SearchLimits = DEFAULT_LIMITS
) -> MmsResult:
    """Exact share value and witness partition.

    Deterministic: among optimal partitions, returns the lexicographically
    smallest assignment vector over canonical items, with parts numbered in
    order of first use. Raises InstanceTooLargeError beyond `limits`,
    except for l == 0, which needs no search.
    """
    m, l, d = len(instance.items), pair.l, pair.d
    if l == 0:  # the empty union: no search, so nothing to refuse
        return MmsResult(0, PartitionAssignment((0,) * m, d))
    limits.check(m, d)
    return MmsResult(*_search(instance.items, l, (1,) * d))


def mms_cardinality(m: int, pair: MmsPair) -> int:
    """Share of m identical unit items, via the balanced-split closed form.

    The most balanced partition into d parts has r parts of size q - 1 and
    d - r parts of size q, where q = ceil(m / d) and r = q * d - m; the l
    smallest parts then hold q * l - min(l, r) items.
    """
    if m < 0:
        raise ValueError(f"item count must be non-negative, got {m}")
    q = -(-m // pair.d)
    r = q * pair.d - m
    return q * pair.l - min(pair.l, r)
