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
two routes cross-check each other where they must agree.

Neither inner loop does Fraction arithmetic. The WMMS search puts the
entitlements over a common denominator W, so w_j = t_j*W are integers;
with L = lcm(w) and c_j = L // w_j, each ratio s/t_j is s*c_j * W/L, and
the search compares the integer keys s*c_j, building one Fraction at the
end. It is `engine._search` at l = 1 with scale c_j, parts of equal
entitlement opened in order; `engine` states its rules.

BMMS still enumerates every subset sum, then bisects the sorted sums for
t_i*T: the split value rises up to that point and falls after it, so only
the two sums on either side of it are scored.
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


def omms_requirements(
    instance: Instance,
    a: Fraction,
    limits: SearchLimits = DEFAULT_LIMITS,
    shares: dict[MmsPair, Value] | None = None,
) -> list[tuple[MmsPair, Value]]:
    """The finitely many (condition, share value) checks equivalent to
    "at least the l-out-of-d share for every l/d <= a".

    `shares` holds share values of this instance already known by pair;
    the ones computed here are added to it.
    """
    m = len(instance.items)
    if m == 0:
        return []
    shares = {} if shares is None else shares
    requirements = []
    for p in non_dominated_pairs(a, m).pairs:
        if p not in shares:
            shares[p] = mms(instance, p, limits).value
        requirements.append((p, shares[p]))
    return requirements


def is_omms_fair(
    instance: Instance,
    a: Fraction,
    bundle_value: Value,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> bool:
    return all(bundle_value >= value for _, value in omms_requirements(instance, a, limits))


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
    instance: Instance, t_i: Fraction, limits: SearchLimits = DEFAULT_LIMITS
) -> Fraction:
    """Bipartite weighted share: t_i times the best achievable
    min(V(X) / t_i, V(rest) / (1 - t_i)) over two-way splits.

    t_i = 1 is the degenerate whole-set split and evaluates to the total.
    """
    if not 0 < t_i <= 1:
        raise ValueError(f"entitlement must satisfy 0 < t_i <= 1, got {t_i}")
    # The subset-sum enumeration grows with the item count only; one part
    # keeps the part bound out of it for any max_parts >= 1.
    limits.check(len(instance.items), 1)
    total = instance.total()
    if t_i == 1:
        return Fraction(total)
    # min(s/t_i, (T-s)/(1-t_i)) rises up to s = t_i*T and falls after it,
    # so only the sums on either side of t_i*T can be best. The largest
    # sum lo <= t_i*T scores lo; the next one, hi > t_i*T, scores
    # t_i*(T-hi)/(1-t_i). 0 and T are sums, so lo always exists.
    p, q = t_i.numerator, t_i.denominator
    sums = sorted(_subset_sums(instance.items))
    k = bisect_right(sums, p * total // q)
    best = Fraction(sums[k - 1])
    if k < len(sums):
        best = max(best, Fraction(p * (total - sums[k]), q - p))
    return best


def agent_shares(
    instance: Instance,
    t: EntitlementVector,
    limits: SearchLimits = DEFAULT_LIMITS,
    shares: dict[MmsPair, Value] | None = None,
) -> list[tuple[list[tuple[MmsPair, Value]], Fraction, Fraction]]:
    """(OMMS requirements, WMMS value, BMMS value) of every agent, in agent
    order. One labeled-partition search serves all agents' WMMS values;
    agents with equal entitlements share their OMMS and BMMS values, and
    each share value is computed once. Shares are computed in first-use
    order, so the first refusal is the one the agents meet in order.
    `shares` is as in `omms_requirements`."""
    best_ratio, _ = weighted_maximin_partition(instance, t.entitlements, limits)
    shares = {} if shares is None else shares
    by_entitlement: dict[Fraction, tuple[list[tuple[MmsPair, Value]], Fraction]] = {}
    for t_i in t:
        if t_i not in by_entitlement:
            by_entitlement[t_i] = (
                omms_requirements(instance, t_i, limits, shares),
                bmms_value(instance, t_i, limits),
            )
    return [
        (by_entitlement[t_i][0], t_i * best_ratio, by_entitlement[t_i][1]) for t_i in t
    ]


@dataclass(frozen=True, slots=True)
class Allocation:
    """Item indices split into one bundle per agent; empty bundles allowed."""

    bundles: tuple[frozenset[int], ...]

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[int]]) -> "Allocation":
        return cls(tuple(frozenset(int(i) for i in b) for b in lists))

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
