"""Fairness criteria for agents with unequal entitlements.

Three notions are evaluated exactly:

- OMMS: the bundle must be at least every l-out-of-d share with l/d at
  most the agent's entitlement; reduced to finitely many checks via the
  non-dominated pair set.
- WMMS: entitlement times the best achievable min over agents of
  V(part_j) / t_j across partitions into one labeled part per agent.
- BMMS: the bipartite variant, splitting the items between the agent
  (weight t_i) and everyone else (weight 1 - t_i).

WMMS and BMMS values are exact rationals. BMMS deliberately uses a
subset-sum enumeration rather than the labeled-partition search, so the
two routes cross-check each other where they must agree. At t_i = 1/n for
all i the WMMS search is the 1-out-of-n share's, so a tied vector's WMMS
is that share, read from the table OMMS reads. `agent_shares` and a scan
compute each share and the sorted subset sums once per instance and each
pair set once per (entitlement, item count): see `ShareTables`.

Neither inner loop does Fraction arithmetic. The WMMS search puts the
entitlements over a common denominator W, so w_j = t_j*W are integers;
with L = lcm(w) and c_j = L // w_j, each ratio s/t_j is s*c_j * W/L, and
the search compares the integer keys s*c_j, building one Fraction at the
end. It is `engine._search` at l = 1 with scale c_j, parts of equal
entitlement opened in order; `engine` states its rules. BMMS bisects the
sorted subset sums for t_i*T and scores the two on either side of it.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import (
    EntitlementVector,
    Instance,
    MmsPair,
    PartitionAssignment,
    Value,
)
from .engine import DEFAULT_LIMITS, SearchLimits, _search, mms
from .pairs import non_dominated_pairs

#: The criterion names, in report order.
CRITERIA = ("omms", "wmms", "bmms")


def check_criteria(names: Sequence[str]) -> None:
    """Reject any name that is not one of CRITERIA."""
    for name in names:
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}; choose from {CRITERIA}")


class ShareTables:
    """Share values and sorted subset sums of the current instance object
    and pair sets by (entitlement, item count), for one call or scan."""

    def __init__(self) -> None:
        self.instance, self.pairs = None, {}

    def of(self, instance: Instance) -> "ShareTables":
        if instance is not self.instance:
            self.instance, self.shares, self.sums = instance, {}, None
        return self

    def share(self, instance: Instance, p: MmsPair, limits: SearchLimits) -> Value:
        # Keyed by (l, d): an MmsPair hashes in Python, a tuple in C.
        shares, key = self.of(instance).shares, (p.l, p.d)
        if key not in shares:
            shares[key] = mms(instance, p, limits).value
        return shares[key]


def omms_requirements(
    instance: Instance,
    a: Fraction,
    limits: SearchLimits = DEFAULT_LIMITS,
    tables: ShareTables | None = None,
) -> list[tuple[MmsPair, Value]]:
    """The finitely many (condition, share value) checks equivalent to
    "at least the l-out-of-d share for every l/d <= a"; pair sets and share
    values come from `tables` when given."""
    m = len(instance.items)
    if m == 0:
        return []
    tables = ShareTables() if tables is None else tables
    key = (a.numerator, a.denominator, m)
    if key not in tables.pairs:
        tables.pairs[key] = non_dominated_pairs(a, m)
    return [(p, tables.share(instance, p, limits)) for p in tables.pairs[key]]


def weighted_maximin_partition(
    instance: Instance,
    entitlements: Sequence[Fraction],
    limits: SearchLimits = DEFAULT_LIMITS,
) -> tuple[Fraction, PartitionAssignment]:
    """Maximize min_j V(part_j) / t_j over partitions into one labeled part
    per agent; returns the best ratio and an argmax assignment.

    Parts are labeled by agent, so parts are interchangeable only between
    agents with identical entitlements; symmetry breaking is applied inside
    those groups and nowhere else. The assignment refers to canonical
    (non-increasing) item order and is deterministic.
    """
    n = len(entitlements)
    if n < 1:
        raise ValueError("at least one agent is required")
    for t in entitlements:
        if t <= 0:
            raise ValueError(f"entitlements must be positive, got {t}")
    limits.check(len(instance.items), n)
    # Integer keys as in the module docstring, with den = W, top = L and
    # scale[j] = c_j: s/t_j is s*c_j * W/L.
    den = lcm(*(t.denominator for t in entitlements))
    weights = [t.numerator * (den // t.denominator) for t in entitlements]
    top = lcm(*weights)
    scale = [top // w for w in weights]
    best_key, witness = _search(instance.items, 1, scale)
    return Fraction(best_key * den, top), witness


def wmms_value(
    instance: Instance,
    t: EntitlementVector,
    i: int,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> Fraction:
    """Weighted share of agent i: t_i times the best achievable
    min_j V(part_j) / t_j."""
    if not 0 <= i < len(t):
        raise ValueError(f"agent index {i} outside 0..{len(t) - 1}")
    best, _ = weighted_maximin_partition(instance, t.entitlements, limits)
    return t[i] * best


def _subset_sums(items: Sequence[Value]) -> set[Value]:
    sums = {0}
    for v in items:
        sums |= {s + v for s in sums}
    return sums


def bmms_value(
    instance: Instance, t_i: Fraction, limits: SearchLimits = DEFAULT_LIMITS,
    tables: ShareTables | None = None,
) -> Fraction:
    """Bipartite weighted share: t_i times the best achievable
    min(V(X) / t_i, V(rest) / (1 - t_i)) over two-way splits.

    t_i = 1 is the degenerate whole-set split and evaluates to the total.
    """
    p, q = t_i.numerator, t_i.denominator
    if not 0 < p <= q:
        raise ValueError(f"entitlement must satisfy 0 < t_i <= 1, got {t_i}")
    # The subset-sum enumeration grows with the item count only; one part
    # keeps the part bound out of it for any max_parts >= 1.
    limits.check(len(instance.items), 1)
    total = instance.total()
    if p == q:
        return Fraction(total)
    # min(s/t_i, (T-s)/(1-t_i)) rises up to s = t_i*T and falls after it,
    # so only the sums on either side of t_i*T can be best. The largest
    # sum lo <= t_i*T scores lo; the next one, hi > t_i*T, scores
    # t_i*(T-hi)/(1-t_i). 0 and T are sums, so lo always exists.
    tables = (ShareTables() if tables is None else tables).of(instance)
    sums = tables.sums = tables.sums or sorted(_subset_sums(instance.items))
    k = bisect_right(sums, p * total // q)
    lo = sums[k - 1]
    if k < len(sums) and lo * (q - p) < p * (total - sums[k]):
        return Fraction(p * (total - sums[k]), q - p)
    return Fraction(lo)


def agent_shares(
    instance: Instance,
    t: EntitlementVector,
    limits: SearchLimits = DEFAULT_LIMITS,
    tables: ShareTables | None = None,
) -> list[tuple[list[tuple[MmsPair, Value]], Fraction, Fraction]]:
    """(OMMS requirements, WMMS value, BMMS value) of every agent, in agent
    order. Agents with equal entitlements share all three; `tables` (fresh
    by default) holds each share, pair set and the subset sums once. All
    t_i = 1/n makes WMMS the 1-out-of-n share, else one labeled-partition
    search. Shares are computed in first-use order, so the first refusal
    is the one the agents meet in order."""
    tables = ShareTables() if tables is None else tables
    # Agents are grouped by entitlement under integer keys, in first-use order.
    keys = [(t_i.numerator, t_i.denominator) for t_i in t]
    groups = dict(zip(keys, t))
    if len(groups) == 1:
        best_ratio = len(t) * tables.share(instance, MmsPair(1, len(t)), limits)
    else:
        best_ratio, _ = weighted_maximin_partition(instance, t.entitlements, limits)
    for key, a in groups.items():
        groups[key] = (omms_requirements(instance, a, limits, tables), a * best_ratio,
                       bmms_value(instance, a, limits, tables))
    return [groups[key] for key in keys]


@dataclass(frozen=True, slots=True)
class Allocation:
    """Item indices split into one bundle per agent; empty bundles allowed."""

    bundles: tuple[frozenset[int], ...]

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[int]]) -> "Allocation":
        for bundle in lists:
            for i in bundle:
                if isinstance(i, bool) or not isinstance(i, int):
                    raise ValueError(f"item index must be an integer, got {i!r}")
        return cls(tuple(frozenset(b) for b in lists))

    def validate_for(self, instance: Instance) -> None:
        seen: set[int] = set()
        for bundle in self.bundles:
            overlap = bundle & seen
            if overlap:
                raise ValueError(f"item indices assigned twice: {sorted(overlap)}")
            seen |= bundle
        expected = set(range(len(instance.items)))
        if seen != expected:
            raise ValueError(
                "allocation must cover every item index exactly once; "
                f"got {sorted(seen)}, expected {sorted(expected)}"
            )

    def bundle_value(self, instance: Instance, i: int) -> Value:
        return sum(instance.items[j] for j in self.bundles[i])


@dataclass(frozen=True, slots=True)
class AgentAudit:
    agent: int
    bundle_value: Value
    omms_requirements: tuple[tuple[MmsPair, Value], ...]
    omms_ok: bool
    wmms_value: Fraction
    wmms_ok: bool
    bmms_value: Fraction
    bmms_ok: bool


@dataclass(frozen=True, slots=True)
class FairnessReport:
    agents: tuple[AgentAudit, ...]

    def all_ok(self, criteria: Sequence[str] = CRITERIA) -> bool:
        check_criteria(criteria)
        return all(
            getattr(agent, f"{name}_ok") for agent in self.agents for name in criteria
        )


def audit(
    instance: Instance,
    t: EntitlementVector,
    alloc: Allocation,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> FairnessReport:
    """Per-agent verdicts for all three criteria on one allocation."""
    if len(alloc.bundles) != len(t):
        raise ValueError(
            f"allocation has {len(alloc.bundles)} bundles for {len(t)} agents"
        )
    alloc.validate_for(instance)
    audits = []
    for i, (requirements, wmms, bmms) in enumerate(agent_shares(instance, t, limits)):
        value = alloc.bundle_value(instance, i)
        audits.append(
            AgentAudit(
                agent=i,
                bundle_value=value,
                omms_requirements=tuple(requirements),
                omms_ok=all(value >= req for _, req in requirements),
                wmms_value=wmms,
                wmms_ok=value >= wmms,
                bmms_value=bmms,
                bmms_ok=value >= bmms,
            )
        )
    return FairnessReport(tuple(audits))
