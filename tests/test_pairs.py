import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmsfair import pairs
from mmsfair.core import Instance, MmsPair, rational_floor_mul
from mmsfair.dominance import corollary_case, decompose, dominates
from mmsfair.engine import mms
from mmsfair.pairs import (
    Removal,
    _attribute,
    candidate_pairs,
    filtration_trace,
    non_dominated_pairs,
)

entitlements = st.fractions(min_value=Fraction(1, 100), max_value=1)


def test_candidate_pairs_examples():
    assert candidate_pairs(Fraction(74, 100), 7) == [
        MmsPair(0, 1),
        MmsPair(1, 2),
        MmsPair(2, 3),
        MmsPair(2, 4),
        MmsPair(3, 5),
        MmsPair(4, 6),
        MmsPair(5, 7),
    ]
    assert candidate_pairs(Fraction(1), 3) == [MmsPair(1, 1), MmsPair(2, 2), MmsPair(3, 3)]
    assert candidate_pairs(Fraction(1, 2), 4) == [
        MmsPair(0, 1),
        MmsPair(1, 2),
        MmsPair(1, 3),
        MmsPair(2, 4),
    ]


def test_candidate_pairs_rejects_bad_inputs():
    with pytest.raises(ValueError):
        candidate_pairs(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        candidate_pairs(Fraction(0), 3)
    with pytest.raises(ValueError):
        candidate_pairs(Fraction(3, 2), 3)


def test_non_dominated_pairs_examples():
    assert non_dominated_pairs(Fraction(74, 100), 7).pairs == (MmsPair(2, 3), MmsPair(5, 7))
    assert non_dominated_pairs(Fraction(1, 2), 4).pairs == (MmsPair(1, 2),)
    assert non_dominated_pairs(Fraction(1), 3).pairs == (MmsPair(1, 1),)


def test_all_zero_candidates_keep_smallest_d():
    assert non_dominated_pairs(Fraction(1, 10), 3).pairs == (MmsPair(0, 1),)


def test_filtration_trace_worked_example():
    trace = filtration_trace(Fraction(74, 100), 7)
    assert trace == [
        Removal(removed=MmsPair(0, 1), by=MmsPair(2, 3), q=1, r=2),
        Removal(removed=MmsPair(1, 2), by=MmsPair(2, 3), q=1, r=1),
        Removal(removed=MmsPair(2, 4), by=MmsPair(2, 3), q=2, r=2),
        Removal(removed=MmsPair(3, 5), by=MmsPair(5, 7), q=1, r=2),
        Removal(removed=MmsPair(4, 6), by=MmsPair(2, 3), q=2, r=0),
    ]


@settings(max_examples=200, deadline=None)
@given(entitlements, st.integers(1, 12))
def test_pair_set_invariants(a, m):
    result = non_dominated_pairs(a, m)
    survivors = result.pairs
    assert survivors, "at least one condition always survives"
    assert list(survivors) == sorted(survivors, key=lambda p: p.d)
    for p in survivors:
        assert p.d <= m
        assert p.l == rational_floor_mul(a, d=p.d)
    for p in survivors:
        for p2 in survivors:
            if p != p2:
                assert not dominates(p, p2)


@settings(max_examples=200, deadline=None)
@given(entitlements, st.integers(1, 12))
def test_every_candidate_covered(a, m):
    survivors = set(non_dominated_pairs(a, m).pairs)
    for candidate in candidate_pairs(a, m):
        assert candidate in survivors or any(
            dominates(s, candidate) for s in survivors
        )


@settings(max_examples=200, deadline=None)
@given(entitlements, st.integers(1, 12))
def test_trace_replays_to_survivors(a, m):
    candidates = candidate_pairs(a, m)
    survivors = non_dominated_pairs(a, m).pairs
    removed = [step.removed for step in filtration_trace(a, m)]
    assert [p for p in candidates if p not in removed] == list(survivors)
    for step in filtration_trace(a, m):
        assert step.by in survivors
        assert dominates(step.by, step.removed)
        assert step.q * step.by.d - step.r == step.removed.d


@given(entitlements, st.integers(1, 12))
def test_enumeration_deterministic(a, m):
    assert non_dominated_pairs(a, m) == non_dominated_pairs(a, m)
    assert filtration_trace(a, m) == filtration_trace(a, m)


def test_zero_pairs_filtered_when_positive_candidate_exists():
    # Any candidate with l >= 1 dominates every (0, d).
    for a, m in [(Fraction(74, 100), 7), (Fraction(1, 2), 4), (Fraction(2, 5), 5)]:
        survivors = non_dominated_pairs(a, m).pairs
        if any(p.l >= 1 for p in candidate_pairs(a, m)):
            assert all(p.l >= 1 for p in survivors)


def test_removed_conditions_are_weaker_on_instances():
    # Checking a surviving condition really covers the ones it removed.
    rng = random.Random(1234)
    for a in (Fraction(74, 100), Fraction(1, 2), Fraction(2, 5)):
        trace = filtration_trace(a, 7)
        for _ in range(25):
            size = rng.randint(0, 6)
            instance = Instance(tuple(rng.randint(0, 9) for _ in range(size)))
            for step in trace:
                assert (
                    mms(instance, step.by).value >= mms(instance, step.removed).value
                )


# Reference filtration: every candidate against every other one, both ways,
# O(m^2) dominance tests. The oracle for the incremental filter.
def _oracle_survivors(cands):
    kept = []
    for p in cands:
        eliminated = any(
            dominates(q, p) and (not dominates(p, q) or q.d < p.d)
            for q in cands
            if q is not p
        )
        if not eliminated:
            kept.append(p)
    return kept


def _oracle_attribute(removed, survivors):
    doms = [s for s in survivors if s != removed and dominates(s, removed)]
    if removed.l >= 1:
        with_case = [
            s for s in doms if s.l >= 1 and corollary_case(s, removed) is not None
        ]
        if with_case:
            return with_case[0]
    return doms[0]


def _oracle_filtration(a, m):
    cands = candidate_pairs(a, m)
    survivors = _oracle_survivors(cands)
    trace = []
    for p in cands:
        if p not in survivors:
            by = _oracle_attribute(p, survivors)
            dec = decompose(by.d, p.d)
            trace.append(Removal(removed=p, by=by, q=dec.q, r=dec.r))
    return tuple(survivors), trace


def _assert_matches_oracle(a, m):
    survivors, trace = _oracle_filtration(a, m)
    assert non_dominated_pairs(a, m).pairs == survivors
    assert filtration_trace(a, m) == trace


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200).flatmap(lambda q: st.tuples(st.integers(1, q), st.just(q))),
       st.integers(1, 80))
def test_filtration_matches_quadratic_oracle(pq, m):
    _assert_matches_oracle(Fraction(*pq), m)


@pytest.mark.parametrize("m", [300, 600])
@pytest.mark.parametrize("a", ["74/100", "73/100", "1", "1/m"])
def test_filtration_matches_quadratic_oracle_at_large_m(a, m):
    _assert_matches_oracle(Fraction(1, m) if a == "1/m" else Fraction(a), m)


def test_attribute_raises_when_no_survivor_dominates():
    # An explicit raise, so it also holds under python -O.
    with pytest.raises(AssertionError, match="no survivor dominates"):
        _attribute(MmsPair(3, 4), [MmsPair(1, 2)])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200).flatmap(lambda q: st.tuples(st.integers(1, q), st.just(q))),
       st.integers(1, 300))
def test_survivors_strictly_increase_in_d_minus_l(pq, m):
    # The invariant that lets a new survivor remove only the last kept pair.
    gaps = [p.d - p.l for p in non_dominated_pairs(Fraction(*pq), m).pairs]
    assert all(x < y for x, y in zip(gaps, gaps[1:]))


def test_filtration_dominance_call_count(monkeypatch):
    # One drop test per kept pair and candidate, plus one removal test per
    # survivor; re-filtering the whole kept list makes 483,890 calls here.
    calls = 0

    def counting(p, p_prime):
        nonlocal calls
        calls += 1
        return dominates(p, p_prime)

    monkeypatch.setattr(pairs, "dominates", counting)
    assert len(non_dominated_pairs(Fraction(137, 262), 2000).pairs) == 575
    assert calls <= 311_339


# The stack filtration: each candidate, in ascending d, against the kept
# pairs only, popping at most the last one. Exact because dominance is
# transitive and d - l strictly rises along the kept list; O(m*|S|)
# dominance tests, the oracle at large m.
def _stack_survivors(cands):
    kept = []
    for p in cands:
        if not any(dominates(s, p) for s in kept):
            if kept and dominates(p, kept[-1]):
                kept.pop()
            kept.append(p)
    return kept


def _scan_attribute(removed, survivors):
    # The first survivor that a shortcut rule names, else the first that
    # dominates: one scan per removal, the oracle for the lookup credits.
    first = None
    for s in survivors:
        if dominates(s, removed):
            if removed.l >= 1 and s.l >= 1 and corollary_case(s, removed) is not None:
                return s
            first = first or s
    return first


def test_filtration_matches_stack_oracle_for_small_denominators():
    fractions = {Fraction(k, q) for q in range(1, 41) for k in range(1, q + 1)}
    assert len(fractions) == 490
    for a in sorted(fractions):
        cands = candidate_pairs(a, 300)
        survivors = _stack_survivors(cands)
        assert non_dominated_pairs(a, 300).pairs == tuple(survivors), a
        kept = set(survivors)
        removed = [p for p in cands if p not in kept]
        bys = [_scan_attribute(p, survivors) for p in removed]
        assert [(t.removed, t.by) for t in filtration_trace(a, 300)] == list(zip(removed, bys)), a


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200).flatmap(lambda q: st.tuples(st.integers(1, q), st.just(q))),
       st.integers(1, 300))
@example((1, 1), 300)
@example((1, 1), 2)
def test_dominated_earlier_reads_two_candidates_per_q(pq, d_prime):
    a = Fraction(*pq)
    p_prime = MmsPair(rational_floor_mul(a, d_prime), d_prime)
    expected = any(
        dominates(MmsPair(rational_floor_mul(a, d), d), p_prime) for d in range(1, d_prime)
    )
    assert pairs._dominated_earlier(a.numerator, a.denominator, d_prime) == expected


def test_trace_dominance_call_count(monkeypatch):
    # Only removals that no shortcut rule credits scan the survivors, and
    # each scan stops at its first hit; a scan per removal makes 601,858.
    calls = 0

    def counting(p, p_prime):
        nonlocal calls
        calls += 1
        return dominates(p, p_prime)

    monkeypatch.setattr(pairs, "dominates", counting)
    assert len(filtration_trace(Fraction(137, 262), 2000)) == 1425
    assert calls <= 6_646
