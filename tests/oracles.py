"""Reference oracles for the tests, kept out of the shipped package.

`brute_force_mms_table` is the deliberately dumb twin of `engine.mms`: an
unpruned enumeration of all d**m part assignments. `corollary_case` and
`bundle_size_reduction_applies` state the paper's shortcut rules directly,
for the tests of `dominance` and of the filtration's credits. `coverable`
is a 2**m * m bin-covering decision DP: it certifies 1-out-of-d and WMMS
values at 16 items, past the d**m enumeration, and shares no code with the
search.
"""
from __future__ import annotations

import itertools
from math import gcd
from typing import Sequence

from mmsfair.core import Instance, InstanceTooLargeError, MmsPair, Value

ORACLE_MAX_ITEMS = 10
ORACLE_MAX_PARTS = 6


def brute_force_mms_table(instance: Instance, d: int) -> tuple[Value, ...]:
    """Share values for every l in 0..d by unpruned enumeration of all d**m
    part assignments. Reference oracle: small scale only."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    items = instance.items
    m = len(items)
    if m > ORACLE_MAX_ITEMS or d > ORACLE_MAX_PARTS:
        raise InstanceTooLargeError(
            f"brute-force oracle limited to {ORACLE_MAX_ITEMS} items and "
            f"{ORACLE_MAX_PARTS} parts, got {m} items into {d} parts"
        )
    best = [0] * (d + 1)
    for assign in itertools.product(range(d), repeat=m):
        sums = [0] * d
        for j, k in enumerate(assign):
            sums[k] += items[j]
        sums.sort()
        running = 0
        for l in range(1, d + 1):
            running += sums[l - 1]
            if running > best[l]:
                best[l] = running
    return tuple(best)


def brute_force_mms(instance: Instance, pair: MmsPair) -> Value:
    """Oracle twin of `mms(...).value`; same contract, no pruning."""
    return brute_force_mms_table(instance, pair.d)[pair.l]


def corollary_case(p: MmsPair, p_prime: MmsPair) -> str | None:
    """Label of the first shortcut rule that forces dominance, if any.

    (a) same d, larger l; (b) same l, smaller d; (c) both shrunk by the
    same shift r >= 1; (d) p is the reduced fraction of a non-reduced
    p_prime. Only defined when both sides have l >= 1.
    """
    if p.l < 1 or p_prime.l < 1:
        raise ValueError("shortcut rules require l >= 1 on both pairs")
    if p.d == p_prime.d and p.l > p_prime.l:
        return "a"
    if p.l == p_prime.l and p.d < p_prime.d:
        return "b"
    shift = p.d - p_prime.d
    if shift >= 1 and p.l - p_prime.l == shift:
        return "c"
    g = gcd(p_prime.l, p_prime.d)
    if g > 1 and p_prime.l == p.l * g and p_prime.d == p.d * g:
        return "d"
    return None


def bundle_size_reduction_applies(p: MmsPair, p_prime: MmsPair, m: int) -> bool:
    """True when p_prime = (l + h, d + h) for some h >= 0 and m <= p.d:
    on instances of at most m items, p's share is then at least p_prime's
    even where `dominates` is false."""
    if m < 0:
        raise ValueError(f"item count must be non-negative, got {m}")
    h = p_prime.d - p.d
    return h >= 0 and p_prime.l - p.l == h and m <= p.d


def coverable(items: Sequence[Value], floors: Sequence[Value]) -> bool:
    """Can the items fill len(floors) labeled parts, part j to at least
    floors[j]? Items beyond the floors go to any part.

    dp[mask] is the lexicographically best pair (parts completed in the
    fixed order of `floors`, fill of the next part) over all orders of the
    items in mask. A completed part absorbs any later item, so the best pair
    dominates every other: more parts completed, then more fill. A floor of
    0 (or less) is met by an empty part as soon as it comes up. The pair is
    stored as completed * big + fill, with every fill below big.
    """
    d, m = len(floors), len(items)
    big = sum(items) + 1

    def settle(k: int) -> int:
        # Parts whose floor is met while still empty complete at once.
        while k < d and floors[k] <= 0:
            k += 1
        return k

    done = d * big
    dp = [0] * (1 << m)
    dp[0] = settle(0) * big
    # Every subset of mask comes before it, so dp[mask] is final when read.
    for mask, state in enumerate(dp):
        if state >= done:
            return True  # the rest of the items go to any part
        k, fill = divmod(state, big)
        for i, v in enumerate(items):
            bit = 1 << i
            if mask & bit:
                continue
            new = settle(k + 1) * big if fill + v >= floors[k] else state + v
            if new > dp[mask | bit]:
                dp[mask | bit] = new
    return dp[-1] >= done
