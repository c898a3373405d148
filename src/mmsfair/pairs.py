"""Minimal set of share conditions for one entitlement.

Given an entitlement a and an item count m, build one candidate (l_d, d)
per d in 1..m with l_d the largest integer satisfying l_d / d <= a, then
drop every candidate dominated by another one. Checking the survivors is
equivalent to checking every pair with l/d <= a: larger part counts are
covered by the bundle-size reduction, dominated pairs by the survivors.

The filter checks each candidate, in ascending d, against the survivors
so far only: O(m*|S|) dominance tests for |S| survivors. Dominance is
transitive, so whatever a dropped candidate dominates, the survivor that
dropped it dominates too. A new survivor removes at most the last kept
pair, so removal is one test per survivor.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import MmsPair, check_entitlement
from .dominance import corollary_case, decompose, dominates


@dataclass(frozen=True, slots=True)
class PairSet:
    """Surviving conditions, sorted by d ascending."""

    pairs: tuple[MmsPair, ...]


@dataclass(frozen=True, slots=True)
class Removal:
    """One filtration step: `removed` is dominated by `by`, whose
    decomposition over removed.d is (q, r)."""

    removed: MmsPair
    by: MmsPair
    q: int
    r: int


def candidate_pairs(a: Fraction, m: int) -> list[MmsPair]:
    """One candidate (l_d, d) per d in 1..m; rejects m < 1 or a outside (0, 1]."""
    if m < 1:
        raise ValueError(f"item count must be at least 1, got {m}")
    check_entitlement(a)
    num, den = a.numerator, a.denominator
    return [MmsPair(num * d // den, d) for d in range(1, m + 1)]


def _survivors(cands: list[MmsPair]) -> list[MmsPair]:
    # A candidate is dropped when another one dominates it, strictly or with
    # a smaller d (mutual dominance means equal shares everywhere). A new
    # survivor p removes a kept s (q = 1, r = p.d - s.d) exactly when s.l = 0
    # or s.d - s.l >= p.d - p.l. As l = floor(a*d), d - l never falls as d
    # grows, so the latter means equal d - l. By induction d - l strictly
    # rises along the kept list, and (0, 1) is kept only alone, so p removes
    # at most the last kept pair.
    kept: list[MmsPair] = []
    for p in cands:
        if not any(dominates(s, p) for s in kept):
            if kept and dominates(p, kept[-1]):
                kept.pop()
            kept.append(p)
    return kept


def non_dominated_pairs(a: Fraction, m: int) -> PairSet:
    """Candidates minus everything dominated by another candidate."""
    cands = candidate_pairs(a, m)
    return PairSet(tuple(_survivors(cands)))


def _attribute(removed: MmsPair, survivors: list[MmsPair]) -> MmsPair:
    # Credit each removal to the smallest-d survivor whose dominance follows
    # from a shortcut rule; fall back to the smallest-d dominating survivor.
    first = None
    for s in survivors:
        if dominates(s, removed):
            if removed.l >= 1 and s.l >= 1 and corollary_case(s, removed) is not None:
                return s
            if first is None:
                first = s
    # Every removed candidate has a dominating survivor. Raised explicitly,
    # not asserted, so that `python -O` keeps the check.
    if first is None:
        raise AssertionError(f"no survivor dominates the removed {removed}")
    return first


def filtration_trace(
    a: Fraction, m: int, candidates: list[MmsPair] | None = None
) -> list[Removal]:
    """Audit of every removal; candidates minus the removed entries equal
    the surviving PairSet. A caller that already holds
    `candidate_pairs(a, m)` passes it as `candidates`."""
    cands = candidate_pairs(a, m) if candidates is None else candidates
    survivors = _survivors(cands)
    keep = set(survivors)
    trace = []
    for p in cands:
        if p in keep:
            continue
        by = _attribute(p, survivors)
        dec = decompose(by.d, p.d)
        trace.append(Removal(removed=p, by=by, q=dec.q, r=dec.r))
    return trace
