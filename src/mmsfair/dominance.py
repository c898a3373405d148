"""Dominance between share conditions.

(l, d) dominates (l', d') when the l-out-of-d share is at least as good as
the l'-out-of-d' share on every instance and every monotone subset
ordering. Writing d' = q*d - r with q >= 1 and 0 <= r <= d - 1, this holds
exactly when q*l - min(l, r) >= l'. When it fails, d' identical unit items
are a counterexample.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import Instance, MmsPair


@dataclass(frozen=True, slots=True)
class Decomposition:
    """The unique q >= 1, 0 <= r <= d - 1 with d_prime = q * d - r."""

    q: int
    r: int


def decompose(d: int, d_prime: int) -> Decomposition:
    if d < 1 or d_prime < 1:
        raise ValueError(f"part counts must be >= 1, got d={d}, d'={d_prime}")
    q = -(-d_prime // d)
    return Decomposition(q=q, r=q * d - d_prime)


def dominates(p: MmsPair, p_prime: MmsPair) -> bool:
    """True iff p's share is at least p_prime's on every instance.

    Also defined for l = 0 on either side: a 0-out-of-d share is the empty
    union, which everything dominates.
    """
    # decompose(p.d, p_prime.d) inline (MmsPair already keeps d >= 1) and
    # no min() call: the trace's fallback scan calls it once per survivor.
    l, d = p.l, p.d
    q = -(-p_prime.d // d)
    r = q * d - p_prime.d
    return q * l - (l if l < r else r) >= p_prime.l


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


def non_dominance_witness(p: MmsPair, p_prime: MmsPair) -> Instance:
    """Instance of d' unit items on which p's share is strictly below
    p_prime's. Rejects pairs for which dominance actually holds."""
    if dominates(p, p_prime):
        raise ValueError(f"({p}) dominates ({p_prime}); no counterexample exists")
    return Instance((1,) * p_prime.d)


def bundle_size_reduction_applies(p: MmsPair, p_prime: MmsPair, m: int) -> bool:
    """True when p_prime = (l + h, d + h) for some h >= 0 and m <= p.d:
    on instances of at most m items, p's share is then at least p_prime's
    even where `dominates` is false."""
    if m < 0:
        raise ValueError(f"item count must be non-negative, got {m}")
    h = p_prime.d - p.d
    return h >= 0 and p_prime.l - p.l == h and m <= p.d
