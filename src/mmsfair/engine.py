"""Exact l-out-of-d maximin-share computation.

The share value is the maximum, over all partitions of the items into d
possibly-empty parts, of the sum of the l smallest part sums. `mms` and
the WMMS search of `criteria` run one search, `_search`: it maximizes the
sum of the l smallest keys s_j*scale[j] (s_j: part sums). `mms` has unit
scale; WMMS has l = 1 and scale c_j; l > 1 comes with unit scale only.
It is the one entry, so it decides whether a search runs: at l >= 1 it refuses
past the caller's `SearchLimits` (which `mms` checks first, before it builds
its d unit scales), then past its recursion depth.
A part takes an item only when its sum differs from its twin's, the previous
part of its scale (of equal entitlement in WMMS): swapping the two labels
from that item on keeps all keys and lowers the vector. The search walks the
assignments depth first in lex order, keeps strict improvements only and
stops at the root bound l*T*C // sum(C // scale[j]), C = lcm(scale). At unit
scale the root is the least count cap of two families. The j parts with the
fewest items hold at most C_j = q*j - min(j, q*d - m) of the m items
(q = ceil(m/d)); P_c is the sum of the c largest. Primal, j = l..d: the l
smallest part sums are at most the l-out-of-j share of the c = C_j largest
items, at most l*P_c/j and, when c <= j (one item per part), the sum of items
j-l .. c-1: at j = d with m <= d, the exact share, with no search. Dual,
k = d-l+1..d-1, m > d: the d-k emptiest parts (c = C_(d-k) items at most) and
the l-d+k smallest others are l parts, so the share is at most
P_c + share(l-d+k, k, items[c:]) <= P_c + (l-d+k)*(T - P_c)/k: moving an item,
or a larger one, to the emptiest parts adds at least what the other share
loses. At l > 1, when the start is below the root and the binding cap has more
items than its j' < d parts, a value-only search of its sub-instance makes the
root exact. Only the root changes; it decides only whether to search and when
to stop, so values and witnesses stay. The start is the better of the greedy
partition (each item, largest first, to the part with the least key) and, at
unit scale with a binding primal j < d, the cap's partition (the C_j largest
items greedily into parts 0..j-1, the rest into parts j..). The lex-first route
(`mms`, `weighted_maximin_partition`) starts one below it: any start is at most
the optimum, so its witness stays the lex-first optimum, which no rule cuts.
The value-only route (`audit`, `scan`, `wmms_value`) keeps the start as its
witness until beaten (so the start stays the primal's), and searches only if
that is below the root bound, which would prove it optimal. When every item
can have its own part (m <= d; m < d at WMMS scales) it answers at the root,
before any set-up: the j = d cap at unit scale, 0 at WMMS scales (a part is
empty), with the greedy start, item i in part i, as its witness. Zeros go
to part 0 outside the search. An item equal to its predecessor never goes
to an earlier part (swapping equal items keeps the part sums and lowers the
vector). Each node is tested in its parent's loop, once its item is placed,
and a node that fails is never entered: a node is a call of `dfs`, and the
root is entered untested. At l > 1 an upper bound cuts subtrees that cannot
beat the incumbent. With b the smallest item and r items left, every
completion ends at part sums s_j + n_j*b + x_j, integers n_j >= 0 summing to
r and x_j >= 0 summing to E = rest - r*b. The bound puts each of the r units
of b on the then smallest part and pours E fractionally onto the smallest
parts (water-filling). The poured sum of the l smallest is symmetric and
concave in the part sums, so Schur-concave, and the greedy placement is
majorized by every other: no completion beats it. At E >= d*b the pour
covers every part that took a unit (each lies within b of the smallest
part), so it equals pouring all of rest; units are placed only below that.
The units and the pour depend on the depth alone, so they are built once per
search. At l = 1 beating best puts every key at best + 1 or more, so each part
needs its own items up to its floor ceil((best + 1) / scale[j]): the
shortfalls must fit in the remaining value, and the fewest of the largest
remaining items that cover each must fit in the remaining count (this cuts
all that water-filling would). The last item is placed by formula, after
one cut for every l (at l > 1 in place of the bound): no key rises by more
than v*lcm(scale) or past the l+1-th smallest. Near-equal items are searched
in small integers: with b the smallest nonzero item, spread = T - m*b and
C = lcm(scale), a key is c_j*(n_j*b + R_j) with 0 <= c_j*R_j <= C*spread and
a union of l unit-scale keys is N*b + R with R <= spread, so every base above
C*spread orders all partitions alike, by (N, R), with the same optima and
lex-first witness. At T >= 2**30 (past one CPython digit; below, it does not
pay) and b > small = C*spread + 1 the search runs on the items v - b + small
and maps its value back as value // small * b + value % small. `_search`
returns the value and a bare assignment, whose keys it re-checks on the
items given; only `mms` and `weighted_maximin_partition` build a
`PartitionAssignment`. `mms_cardinality` is the share of m unit items.
"""
from __future__ import annotations

import itertools
import sys
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

    def __post_init__(self) -> None:
        if self.max_items < 0 or self.max_parts < 0:
            raise ValueError(f"search limits must be non-negative: {self}")

    def check(self, m: int, d: int) -> None:
        """Raise InstanceTooLargeError if m items into d parts exceed the bounds."""
        if m > self.max_items or d > self.max_parts:
            raise InstanceTooLargeError(
                f"instance too large for exact search: {m} items into {d} parts "
                f"(limits: {self.max_items} items, {self.max_parts} parts)"
            )


DEFAULT_LIMITS = SearchLimits()
_TOO_DEEP = "instance too large for exact search: {} items exceed its recursion depth"


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


def _greedy(
    items: Sequence[Value], scale: Sequence[int], where: list[int], first=0, part=0
) -> list[Value]:
    # Each item, largest first, to the part with the least key (the first of
    # equals), item first + i to part part + k; returns the keys it reaches.
    keys = [0] * len(scale)
    for i, v in enumerate(items, first):
        k = keys.index(min(keys))
        keys[k] += v * scale[k]
        where[i] = part + k
    return keys


def _count_cap(prefix: list[Value], l: int, d: int) -> tuple[Value, int, int, int]:
    # The docstring's least cap of both families, the primal's binding j and C_j, the dual's k.
    m = len(prefix) - 1
    q = -(-m // d)
    r = q * d - m
    cap, dual = prefix[m] + 1, 0  # above every cap; no min(), it doubles tiny searches' cost
    for j in range(l, d + 1):
        c = q * j - (j if j < r else r)  # mms_cardinality(m, j/d)
        x = prefix[c] - prefix[j - l if j - l < c else c] if c <= j else l * prefix[c] // j
        if x < cap:
            cap, split, count = x, j, c
    for k in range(d - l + 1, d) if l > 1 and m > d else ():  # m <= d: the j = d cap is exact
        c = q * (d - k) - (d - k if d - k < r else r)  # C_(d-k)
        x = prefix[c] + (l - d + k) * (prefix[m] - prefix[c]) // k
        if x < cap:
            cap, dual = x, k
    return cap, split, count, dual


def _search(
    items: Sequence[Value], l: int, scale: Sequence[int], lex_first: bool,
    limits: SearchLimits,
) -> tuple[Value, tuple[int, ...]]:
    # The search of the module docstring: the best sum of the l smallest keys
    # and the part of each item in canonical (non-increasing) order reaching
    # it, zeros in part 0. l > 1 needs unit scale: part sums are keys there.
    d = len(scale)
    if l:  # l = 0 is the empty union: no search, so nothing to refuse
        limits.check(len(items), d)
    canonical = sorted(items, reverse=True)
    m = len(canonical) - canonical.count(0)
    if m == 0 or l == 0:  # no item, or the empty union: all to part 0
        return 0, (0,) * len(canonical)
    # dfs recurses once per nonzero item; 100 frames are left to the callers.
    if m > sys.getrecursionlimit() - 100:
        raise InstanceTooLargeError(_TOO_DEEP.format(m))
    if m <= d and not lex_first and (m < d or lcm(*scale) == 1):  # one item per part
        return _checked(canonical, l, scale, sum(canonical[d - l:]), tuple(range(m)))
    items = canonical[:m]
    # prefix[k] is the sum of the k largest items, so items i.. hold
    # total - prefix[i], and the fewest of them whose sum reaches x are
    # bisect_left(prefix, prefix[i] + x, i) - i (m - i + 1 if none do).
    prefix = [0, *itertools.accumulate(items)]
    total = prefix[m]
    top = lcm(*scale)
    b = items[-1]  # near-equal items are searched at the base small (module docstring)
    small = min(b, top * (total - m * b) + 1) if total >> 30 else b
    if small < b:
        items = [v - b + small for v in items]
        prefix = [0, *itertools.accumulate(items)]
        total = prefix[m]
    root, cap_j, cap_c, dual = (_count_cap(prefix, l, d) if top == 1  # WMMS scales: no caps
                                else (l * total * top // sum(top // s for s in scale), d, 0, 0))
    assign = [0] * m
    best = min_l_union(_greedy(items, scale, assign), l)
    if best < root and cap_j < d:  # try the cap's partition too
        keys = _greedy(items[:cap_c], scale[:cap_j], split := [0] * m)
        keys += _greedy(items[cap_c:], scale[cap_j:], split, cap_c, cap_j)
        if (start := min_l_union(keys, l)) > best:
            best, assign = start, split
    if l > 1 and best < root and (dual or cap_c > cap_j < d):  # the binding fractional cap
        first = mms_cardinality(m, MmsPair(d - dual, d)) if dual else 0
        end, inner_l, parts = (m, l - d + dual, dual) if dual else (cap_c, l, cap_j)
        root = prefix[first] + _search(items[first:end], inner_l, (1,) * parts, False, limits)[0]
    # The lex-first route starts one below, with no witness until beaten.
    best, best_assign = (best - 1, None) if lex_first else (best, tuple(assign))
    # A start at the root proves the value-only route's witness optimal.
    if best < root:
        # At l = 1, beating best needs every key above best, so every part needs
        # a part sum of floors[j] = ceil((best + 1) / scale[j]) or more.
        floors = [-(-(best + 1) // c) for c in scale]
        # twin_before[j]: the previous part with the same scale (-1 if none).
        twin_before, previous = [], {}
        for j, c in enumerate(scale):
            twin_before.append(previous.get(c, -1))
            previous[c] = j
        sums = [0] * d
        last = m - 1
        if l > 1:  # by depth: the bound's whole units of small, then its pour
            units = [m - j if total - prefix[j] < (m - j + d) * small else 0 for j in range(m)]
            pours = [total - prefix[j] - n * small for j, n in enumerate(units)]

        def dfs(i: int) -> bool:
            # Returns True once the incumbent meets the root bound; tests each child.
            nonlocal best, best_assign
            v = items[i]
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
                # No twin check: an equal-sum twin's lex-earlier twin scores the same.
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
            j = i + 1
            base, rest, left = prefix[j], total - prefix[j], m - j  # the child's items j..
            for k in range(first, d):
                s = sums[k]
                # A part whose previous twin has the same sum is a relabelling.
                if twin_before[k] >= 0 and sums[twin_before[k]] == s:
                    continue
                sums[k] = s + v
                if l == 1:
                    need = count = 0
                    for short in map(sub, floors, sums):
                        if short > 0:
                            need += short
                            count += bisect_left(prefix, base + short, j) - j
                    if need > rest or count > left:
                        sums[k] = s
                        continue
                elif j < last:  # the scale is 1 here, so the part sums are the keys
                    asc = sorted(sums)
                    for _ in range(units[j]):
                        heapreplace(asc, asc[0] + small)
                    asc.sort()
                    # The water covers the h smallest parts.
                    water = pours[j]
                    for h in range(1, d):
                        water += asc[h - 1]
                        if water <= h * asc[h]:
                            break
                    else:
                        h = d
                        water += asc[-1]
                    # Below the l-th part the l smallest absorb all the water.
                    if (l * water // h if h >= l else water + sum(asc[h:l])) <= best:
                        sums[k] = s
                        continue
                assign[i] = k
                if dfs(j):
                    return True
                sums[k] = s
            return False

        try:
            dfs(0)
        except RecursionError:  # a caller deeper than the margin above
            raise InstanceTooLargeError(_TOO_DEEP.format(m)) from None
    best = best // small * b + best % small if small < b else best  # back to base b
    return _checked(canonical, l, scale, best, best_assign)


def _checked(canonical: list[Value], l: int, scale: Sequence[int], best: Value,
             part_of: tuple[int, ...] | None) -> tuple[Value, tuple[int, ...]]:
    # Raised explicitly, not asserted, so that `python -O` keeps the check.
    # The lex-first optimum beats its start, so no witness at all is a fault.
    keys = [0] * len(scale)
    for v, k in zip(canonical, part_of or ()):  # on the items given; zeros add nothing
        keys[k] += v * scale[k]
    if part_of is None or min_l_union(keys, l) != best:
        raise AssertionError(f"witness {part_of} does not reach {best}")
    return best, part_of + (0,) * (len(canonical) - len(part_of))


def mms(
    instance: Instance, pair: MmsPair, limits: SearchLimits = DEFAULT_LIMITS
) -> MmsResult:
    """Exact share value and witness partition.

    Deterministic: among optimal partitions, returns the lexicographically
    smallest assignment vector over canonical items, with parts numbered in
    order of first use. Raises InstanceTooLargeError beyond `limits`,
    except for l == 0, which needs no search.
    """
    if pair.l:  # the part bound; `_search` would check it after `(1,) * d`
        limits.check(len(instance.items), pair.d)
    value, part_of = _search(instance.items, pair.l, (1,) * pair.d, True, limits)
    return MmsResult(value, PartitionAssignment(part_of, pair.d))


def mms_cardinality(m: int, pair: MmsPair) -> int:
    """Share of m identical unit items, via the balanced-split formula.

    The most balanced partition into d parts has r parts of size q - 1 and
    d - r parts of size q, where q = ceil(m / d) and r = q * d - m; the l
    smallest parts then hold q * l - min(l, r) items.
    """
    if m < 0:
        raise ValueError(f"item count must be non-negative, got {m}")
    q = -(-m // pair.d)
    r = q * pair.d - m
    return q * pair.l - min(pair.l, r)
