"""Dominance between share conditions.

(l, d) dominates (l', d') when the l-out-of-d share is at least as good as
the l'-out-of-d' share on every instance and every monotone subset
ordering. Writing d' = q*d - r with q >= 1 and 0 <= r <= d - 1, this holds
exactly when q*l - min(l, r) >= l'. When it fails, d' identical unit items
are a counterexample.
"""
from __future__ import annotations

from .core import Instance, MmsPair


def decompose(d: int, d_prime: int) -> tuple[int, int]:
    """The pair (q, r) of the unique q >= 1, 0 <= r <= d - 1 with
    d_prime = q * d - r."""
    if d < 1 or d_prime < 1:
        raise ValueError(f"part counts must be >= 1, got d={d}, d'={d_prime}")
    q = -(-d_prime // d)
    return q, q * d - d_prime


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


def non_dominance_witness(p: MmsPair, p_prime: MmsPair) -> Instance:
    """Instance of d' unit items on which p's share is strictly below
    p_prime's. Rejects pairs for which dominance actually holds."""
    if dominates(p, p_prime):
        raise ValueError(f"({p}) dominates ({p_prime}); no counterexample exists")
    return Instance((1,) * p_prime.d)

