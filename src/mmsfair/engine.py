"""Exact l-out-of-d maximin-share computation.

The share value is the maximum, over all partitions of the items into d
possibly-empty parts, of the sum of the l smallest part sums. `mms`
searches part assignments depth first in lex order (parts numbered by
first use) and keeps strict improvements only, so its witness is the
lex-first optimum, which no pruning rule cuts: the water-filling bound
(part sums sorted once per node) cuts subtrees that cannot beat the
incumbent; so does the item-count check (beating `best` puts the l-th
smallest final part, and every part above it, at h = ceil((best + 1) / l)
or more, so the d-l+1 largest parts each need their own items up to h:
their shortfalls must fit in the remaining value, and the fewest of the
largest remaining items that cover each must fit in the remaining count);
zeros are left out and put in part 0; the last item is placed in closed
form (the sum of the l smallest is Schur-concave, so a smallest part is
its best home; each allowed part scores in O(1), first maximum kept); an
item equal to its predecessor never goes to an earlier part (swapping
equal items keeps the part sums and first-use order and lowers the
vector); and the search stops at the root bound l*T//d. `brute_force_mms`
is the deliberately dumb reference oracle used by the tests;
`mms_cardinality` is the closed form for identical unit-valued items.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Instance,
    InstanceTooLargeError,
    MmsPair,
    PartitionAssignment,
    Value,
    canonicalize,
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

ORACLE_MAX_ITEMS = 10
ORACLE_MAX_PARTS = 6


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


def _greedy_value(items: Sequence[Value], l: int, d: int) -> Value:
    # Longest-processing-time style start: feasible, so a lower bound.
    sums = [0] * d
    for v in items:
        sums[sums.index(min(sums))] += v
    return sum(sorted(sums)[:l])


def _upper_bound(asc: list[Value], rest: Value, l: int, d: int) -> Value:
    # Pouring the unassigned total fractionally onto the smallest parts
    # (`asc`: part sums, ascending) maximizes the sum of the l smallest; no
    # integral completion beats it.
    prefix = 0
    for k in range(1, d + 1):
        prefix += asc[k - 1]
        if k == d or prefix + rest <= k * asc[k]:
            if k >= l:
                return l * (prefix + rest) // k
            # Water level settles below the k-th part: the poured total is
            # absorbed entirely by the l smallest parts.
            return prefix + rest + sum(asc[k:l])
    raise AssertionError("water level not found")


def mms(
    instance: Instance, pair: MmsPair, limits: SearchLimits = DEFAULT_LIMITS
) -> MmsResult:
    """Exact share value and witness partition.

    Deterministic: among optimal partitions, returns the lexicographically
    smallest assignment vector over canonical items, with parts numbered in
    order of first use. Raises InstanceTooLargeError beyond `limits`,
    except for l == 0, which needs no search.
    """
    items = canonicalize(instance).items
    m, l, d = len(items), pair.l, pair.d
    if l == 0:  # the empty union: no search, so nothing to refuse
        return MmsResult(0, PartitionAssignment((0,) * m, d))
    limits.check(m, d)
    # Zeros come last and change no part sum: the search leaves them out,
    # and the witness puts them in part 0, as the lex-first optimum does.
    zeros = (0,) * items.count(0)
    items, m = items[: m - len(zeros)], m - len(zeros)
    if m == 0:
        return MmsResult(0, PartitionAssignment(zeros, d))

    # prefix[k] is the sum of the k largest items, so items i.. hold
    # total - prefix[i], and the fewest of them whose sum reaches x are
    # bisect_left(prefix, prefix[i] + x, i) - i (m - i + 1 if none do).
    prefix = [0, *itertools.accumulate(items)]
    total = prefix[m]
    root = l * total // d
    best_value = _greedy_value(items, l, d) - 1
    best_assign: tuple[int, ...] = ()
    sums = [0] * d
    assign = [0] * m
    last = m - 1

    def dfs(i: int, opened: int) -> bool:
        # Returns True once the incumbent meets the root bound.
        nonlocal best_value, best_assign
        asc = sorted(sums)
        v = items[i]
        first = assign[i - 1] if i and v == items[i - 1] else 0
        stop = opened + 1 if opened < d else d
        if i == last:
            # Adding v to a part of sum s below the ceiling (the l+1-th smallest;
            # every part counts when l == d) raises the l smallest by
            # min(v, ceiling - s).
            base = sum(asc[:l])
            ceiling = asc[l] if l < d else asc[-1] + v
            if base + min(v, ceiling - asc[0]) <= best_value:
                return False
            for k in range(first, stop):
                s = sums[k]
                value = base + min(v, ceiling - s) if s < ceiling else base
                if value > best_value:
                    best_value = value
                    assign[i] = k
                    best_assign = tuple(assign)
            return best_value == root
        rest = total - prefix[i]
        if _upper_bound(asc, rest, l, d) <= best_value:
            return False
        # Beating best puts the l-th smallest final part at h or above, so
        # the d-l+1 largest parts each need their own items up to h.
        h = (best_value + l) // l
        need = count = 0
        for s in asc[l - 1:]:
            if s < h:
                need += h - s
                count += bisect_left(prefix, prefix[i] + h - s, i) - i
        if need > rest or count > m - i:
            return False
        for k in range(first, stop):
            sums[k] += v
            assign[i] = k
            if dfs(i + 1, opened + 1 if k == opened else opened):
                return True
            sums[k] -= v
        return False

    dfs(0, 0)
    witness = PartitionAssignment(best_assign + zeros, d)
    # Raised explicitly, not asserted, so that `python -O` keeps the check.
    if min_l_union(witness.part_sums(items + zeros), l) != best_value:
        raise AssertionError(f"witness {best_assign} does not reach {best_value}")
    return MmsResult(best_value, witness)


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


def mms_cardinality(m: int, pair: MmsPair) -> int:
    """Share of m identical unit items, via the balanced-split closed form.

    The most balanced partition into d parts has r parts of size q - 1 and
    d - r parts of size q, where q = ceil(m / d) and r = q * d - m; the l
    smallest parts then hold q * l - min(l, r) items.
    """
    if m < 0:
        raise ValueError(f"item count must be non-negative, got {m}")
    if m == 0 or pair.l == 0:
        return 0
    q = -(-m // pair.d)
    r = q * pair.d - m
    return q * pair.l - min(pair.l, r)
