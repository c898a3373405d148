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
two routes cross-check each other where they must agree. `audit` and a
scan read every agent's values from `ShareTables.agents`. The search checks
its own bound; BMMS, which does not search, checks its own.

Neither inner loop does Fraction arithmetic. The WMMS search puts the
entitlements over a common denominator W, so w_j = t_j*W are integers;
with L = lcm(w) and c_j = L // w_j, each ratio s/t_j is s*c_j * W/L. An
`EntitlementVector` keeps (W, L, c) from when it is built; the search
compares the integer keys s*c_j, and WMMS is one Fraction per agent
(`ShareTables.agents`). The search is `engine._search` at l = 1
with scale c_j, parts of equal entitlement as twins. `engine` states its
rules, its re-check and its routes: `weighted_maximin_partition` takes the
lex-first one, the shares and WMMS of `audit`, `scan` and `wmms_value` the
value-only one. BMMS bisects the sorted subset sums for t_i*T and scores the
two on either side, where the split value, unimodal in the sum, peaks.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    EntitlementVector,
    Instance,
    MmsPair,
    PartitionAssignment,
    Value,
    ratio_keys,
)
from .engine import DEFAULT_LIMITS, SearchLimits, _search
from .pairs import non_dominated_pairs

#: The criterion names, in report order.
CRITERIA = ("omms", "wmms", "bmms")


def check_criteria(names: Sequence[str]) -> None:
    """Reject any name that is not one of CRITERIA."""
    for name in names:
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}; choose from {CRITERIA}")


class ShareTables:
    """For the current instance object: value-only searches by (l, scale), the
    sorted subset sums, and each entitlement's OMMS requirements, their largest
    value and BMMS by its lowest terms (p, q); pair sets by (entitlement, item
    count). For one call or scan. OMMS reads (l, (1,)*d), WMMS (1, c): a tied
    vector's is 1-out-of-n."""

    def __init__(self) -> None:
        self.instance, self.pairs = None, {}

    def of(self, instance: Instance) -> "ShareTables":
        if instance is not self.instance:
            self.instance, self.shares, self.sums, self.entitlements = instance, {}, None, {}
        return self

    def share(self, instance: Instance, l: int, scale: tuple[int, ...],
              limits: SearchLimits) -> Value:
        # Keyed by the tuple (l, scale): a tuple hashes in C, an MmsPair in Python.
        shares, key = self.of(instance).shares, (l, scale)
        if key not in shares:
            shares[key] = _search(instance.items, l, scale, False, limits)[0]
        return shares[key]

    def agents(self, instance: Instance, t: EntitlementVector, limits: SearchLimits
               ) -> list[tuple]:
        """Per agent of `t`, in order: (OMMS requirements, their largest value,
        BMMS, numerator and denominator of WMMS_i = p*key*W / (q*L)), `key` the
        weighted search's value. The weighted search runs first, then OMMS and
        BMMS per new entitlement: the first refusal is the agents' first."""
        den, top, scale = t.wmms_keys
        best, rows = self.share(instance, 1, scale, limits) * den, []
        entitlements = self.of(instance).entitlements
        for a in t:
            p, q = key = a.as_integer_ratio()
            if key not in entitlements:
                requirements = omms_requirements(instance, a, limits, self)
                entitlements[key] = (requirements, max((v for _, v in requirements), default=0),
                                     bmms_value(instance, a, limits, self))
            rows.append((*entitlements[key], p * best, q * top))
        return rows


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
    return [(p, tables.share(instance, p.l, (1,) * p.d, limits)) for p in tables.pairs[key]]


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
    den, top, scale = ratio_keys(entitlements)
    best_key, part_of = _search(instance.items, 1, scale, True, limits)
    return Fraction(best_key * den, top), PartitionAssignment(part_of, len(scale))


def wmms_value(
    instance: Instance,
    t: EntitlementVector,
    i: int,
    limits: SearchLimits = DEFAULT_LIMITS,
    tables: ShareTables | None = None,
) -> Fraction:
    """Weighted share of agent i: t_i times the best achievable
    min_j V(part_j) / t_j. Calls that share `tables` run one weighted
    search for all agents, as `audit` does."""
    if not 0 <= i < len(t):
        raise ValueError(f"agent index {i} outside 0..{len(t) - 1}")
    den, top, scale = t.wmms_keys
    p, q = t[i].as_integer_ratio()
    tables = ShareTables() if tables is None else tables
    return Fraction(p * tables.share(instance, 1, scale, limits) * den, q * top)


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
            if len(set(bundle)) < len(bundle):  # frozenset would drop the repeat
                twice = {i for i in bundle if bundle.count(i) > 1}
                raise ValueError(f"item indices assigned twice: {sorted(twice)}")
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
    """Per-agent verdicts for all three criteria on one allocation, from
    `ShareTables.agents`."""
    if len(alloc.bundles) != len(t):
        raise ValueError(
            f"allocation has {len(alloc.bundles)} bundles for {len(t)} agents"
        )
    alloc.validate_for(instance)
    audits = []
    for i, (requirements, omms_max, bmms, wn, wd) in enumerate(
            ShareTables().agents(instance, t, limits)):
        value, wmms = alloc.bundle_value(instance, i), Fraction(wn, wd)
        audits.append(AgentAudit(i, value, tuple(requirements), value >= omms_max,
                                 wmms, value >= wmms, bmms, value >= bmms))
    return FairnessReport(tuple(audits))
