"""Minimal set of share conditions for one entitlement.

Given an entitlement a and an item count m, build one candidate (l_d, d)
per d in 1..m with l_d the largest integer satisfying l_d / d <= a, then
drop every candidate dominated by another one, strictly or with a smaller
d. Checking the survivors is equivalent to checking every pair with
l/d <= a: larger part counts are covered by the bundle-size reduction,
dominated pairs by the survivors. Along the candidates l and d - l never
fall, so no survivor list is scanned:

- Drop test. With q = ceil(d'/d), (l, d) dominates (l', d') iff
  max((q-1)*l, d' - q*(d - l)) >= l'. The earlier d of one q form a range
  where the first term peaks at the top and the second at the bottom, so
  two checks per q test every earlier candidate: O(sqrt(d')) each.
- Survivors. A later candidate dominates (l, d) iff l = 0 or it has the
  same d - l, hence the next one has l + 1; strictly unless a = 1, where
  all are mutual and only (1, 1) survives. Else (0, 1) survives iff every
  l is 0, and (l >= 1, d) iff the next one, if any, has the same l and no
  earlier one dominates it.
- Credits. A removal goes to the smallest-d survivor that a shortcut rule
  names: the first one with the same l (b) or the reduced form (d), else
  the one with the same d - l (c), unique as d - l strictly rises along
  the survivors. Without one, `_attribute` takes the first that dominates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import MmsPair, check_entitlement
from .dominance import decompose, dominates


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


def _ratio(a: Fraction, m: int) -> tuple[int, int]:
    if m < 1:
        raise ValueError(f"item count must be at least 1, got {m}")
    check_entitlement(a)
    return a.numerator, a.denominator


def candidate_pairs(a: Fraction, m: int) -> list[MmsPair]:
    """One candidate (l_d, d) per d in 1..m; rejects m < 1 or a outside (0, 1]."""
    num, den = _ratio(a, m)
    return [MmsPair(num * d // den, d) for d in range(1, m + 1)]


def _dominated_earlier(num: int, den: int, d: int) -> bool:
    """True iff a candidate (l_e, e) with e < d dominates (l_d, d), where
    l_e = num*e // den. Each step tests the q = ceil(d/e) range [lo, e]."""
    l = num * d // den
    e = d - 1
    while e:
        q = -(-d // e)
        lo = -(-d // q)
        if (q - 1) * (num * e // den) >= l or d - q * (lo - num * lo // den) >= l:
            return True
        e = lo - 1
    return False


def non_dominated_pairs(a: Fraction, m: int) -> PairSet:
    """Candidates minus everything dominated by another candidate."""
    num, den = _ratio(a, m)
    if num * m < den or num == den:  # every l is 0, or a = 1
        return PairSet((MmsPair(num // den, 1),))
    kept = []
    for d in range(1, m + 1):
        l = num * d // den
        if l and (d == m or num * (d + 1) // den == l) and not _dominated_earlier(num, den, d):
            kept.append(MmsPair(l, d))
    return PairSet(tuple(kept))


def _attribute(removed: MmsPair, survivors: tuple[MmsPair, ...]) -> MmsPair:
    """The smallest-d survivor that dominates `removed`."""
    for s in survivors:
        if dominates(s, removed):
            return s
    # Every removed candidate has a dominating survivor. Raised explicitly,
    # not asserted, so that `python -O` keeps the check.
    raise AssertionError(f"no survivor dominates the removed {removed}")


def filtration_trace(
    a: Fraction, m: int, candidates: list[MmsPair] | None = None
) -> list[Removal]:
    """Audit of every removal; candidates minus the removed entries equal
    the surviving PairSet. A caller that already holds
    `candidate_pairs(a, m)` passes it as `candidates`."""
    cands = candidate_pairs(a, m) if candidates is None else candidates
    survivors = non_dominated_pairs(a, m).pairs
    at_d = {s.d: s for s in survivors}
    with_gap = {s.d - s.l: s for s in survivors}
    first_with_l = {s.l: s for s in reversed(survivors)}
    trace = []
    for p in cands:
        l, d = p.l, p.d
        if d in at_d:
            continue
        by = None
        if l:  # rules (b), (d) (at gcd 1 the reduced form is p) and (c)
            b, red, c = first_with_l.get(l), at_d.get(d // gcd(l, d)), with_gap.get(d - l)
            if b and b.d < d:
                by = red if red and red.d < b.d else b
            else:
                by = red or (c if c and c.d > d else None)
        if by is None:
            by = _attribute(p, survivors)
        dec = decompose(by.d, d)
        trace.append(Removal(removed=p, by=by, q=dec.q, r=dec.r))
    return trace
