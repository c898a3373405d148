"""Acceptance checklist: exact known values, formula spot checks, large
randomized oracle sweeps, and CLI determinism. Every check is exact (no
tolerances anywhere; all arithmetic is integer or rational). Each test
prints one PASS line; run with `pytest tests/test_acceptance.py -v -s`.
"""
import json
import random
from fractions import Fraction

from mmsfair.cli import main
from mmsfair.core import EntitlementVector, Instance, MmsPair
from mmsfair.criteria import Allocation, audit, omms_requirements, wmms_value
from mmsfair.dominance import dominates, non_dominance_witness
from mmsfair.engine import mms, mms_cardinality
from mmsfair.pairs import Removal, candidate_pairs, filtration_trace, non_dominated_pairs
from oracles import brute_force_mms_table

SEED = 20260810


def _ok(n: int, text: str) -> None:
    print(f"A{n:02d} PASS: {text}")


def _random_instance(rng: random.Random, max_items: int = 6, max_value: int = 9) -> Instance:
    size = rng.randint(0, max_items)
    return Instance(tuple(rng.randint(0, max_value) for _ in range(size)))


def test_a01_known_share_values():
    instance = Instance((1, 3, 5, 6, 9))
    assert mms(instance, MmsPair(1, 3)).value == 7
    assert mms(instance, MmsPair(2, 5)).value == 4
    assert mms(instance, MmsPair(3, 5)).value == 9
    assert mms(instance, MmsPair(1, 2)).value == 12
    _ok(1, "share values on {1,3,5,6,9} are exactly 7, 4, 9, 12")


def test_a02_dominance_formula_spot_checks():
    assert dominates(MmsPair(2, 3), MmsPair(4, 7)) is True
    assert dominates(MmsPair(2, 3), MmsPair(5, 7)) is False
    assert dominates(MmsPair(1, 3), MmsPair(2, 5)) is False
    assert dominates(MmsPair(2, 5), MmsPair(1, 3)) is False
    _ok(2, "dominance verdicts for (2,3)/(4,7), (2,3)/(5,7), (1,3)<->(2,5)")


def test_a03_enumeration_worked_example():
    a = Fraction(74, 100)
    assert candidate_pairs(a, 7) == [
        MmsPair(0, 1),
        MmsPair(1, 2),
        MmsPair(2, 3),
        MmsPair(2, 4),
        MmsPair(3, 5),
        MmsPair(4, 6),
        MmsPair(5, 7),
    ]
    assert non_dominated_pairs(a, 7) == (MmsPair(2, 3), MmsPair(5, 7))
    assert filtration_trace(a, 7) == [
        Removal(MmsPair(0, 1), MmsPair(2, 3), q=1, r=2),
        Removal(MmsPair(1, 2), MmsPair(2, 3), q=1, r=1),
        Removal(MmsPair(2, 4), MmsPair(2, 3), q=2, r=2),
        Removal(MmsPair(3, 5), MmsPair(5, 7), q=1, r=2),
        Removal(MmsPair(4, 6), MmsPair(2, 3), q=2, r=0),
    ]
    _ok(3, "a=0.74, m=7: candidates, survivors {2/3, 5/7}, and all 5 trace steps")


def test_a04_surviving_conditions_are_independent():
    skewed = Instance((1, 1, 1, 0, 0, 0, 0))
    assert mms(skewed, MmsPair(2, 3)).value == 2
    assert mms(skewed, MmsPair(5, 7)).value == 1
    units = Instance((1,) * 7)
    assert mms(units, MmsPair(2, 3)).value == 4
    assert mms(units, MmsPair(5, 7)).value == 5
    _ok(4, "each surviving condition is the binding one on some instance")


def test_a05_weighted_share_strictly_stronger_for_two_agents():
    items = Instance((40, 60))
    t = EntitlementVector((Fraction(2, 5), Fraction(3, 5)))
    wmms = (wmms_value(items, t, 0), wmms_value(items, t, 1))
    assert wmms == (40, 60)
    omms_max = tuple(
        max((v for _, v in omms_requirements(items, t_i)), default=0) for t_i in t
    )
    assert omms_max == (0, 40)
    assert wmms[0] > omms_max[0] and wmms[1] > omms_max[1]
    _ok(5, "items {40,60}, t=(0.4,0.6): wmms=(40,60) > omms requirements (0,40)")


def test_a06_ordinal_share_strictly_stronger_for_three_agents():
    items = Instance((40, 60))
    t = EntitlementVector((Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)))
    assert all(wmms_value(items, t, i) == 0 for i in range(3))
    requirements = omms_requirements(items, t[0])
    assert (MmsPair(1, 2), 40) in requirements
    report = audit(items, t, Allocation.from_lists([[], [0], [1]]))
    assert all(agent.wmms_ok for agent in report.agents)
    assert not report.agents[0].omms_ok
    _ok(6, "items {40,60}, t=(0.6,0.2,0.2): wmms=(0,0,0) but agent 1 needs 40")


def test_a07_search_equals_oracle_on_random_sweep():
    rng = random.Random(SEED)
    pairs = [MmsPair(l, d) for d in range(1, 5) for l in range(d + 1)]
    cases = 0
    for _ in range(1000):
        instance = _random_instance(rng)
        for d in range(1, 5):
            table = brute_force_mms_table(instance, d)
            for l in range(d + 1):
                assert mms(instance, MmsPair(l, d)).value == table[l], (
                    instance,
                    l,
                    d,
                )
                cases += 1
    assert cases == 1000 * len(pairs)
    assert cases >= 10_000
    _ok(7, f"search == unpruned oracle on {cases} (instance, condition) cases")


def test_a08_dominance_soundness_on_random_instances():
    rng = random.Random(SEED + 1)
    pairs = [MmsPair(l, d) for d in range(1, 6) for l in range(d + 1)]
    dominating = [
        (p, p2) for p in pairs for p2 in pairs if p != p2 and dominates(p, p2)
    ]
    assert dominating
    instances = 0
    for _ in range(1000):
        instance = _random_instance(rng)
        values = {p: mms(instance, p).value for p in pairs}
        for p, p2 in dominating:
            assert values[p] >= values[p2], (instance, p, p2)
        instances += 1
    _ok(
        8,
        f"{instances} random instances x {len(dominating)} dominating pairs: "
        "no violation",
    )


def test_a09_dominance_completeness_on_full_grid():
    pairs = [MmsPair(l, d) for d in range(1, 9) for l in range(d + 1)]
    memo = {}

    def unit_value(m, p):
        if (m, p) not in memo:
            memo[(m, p)] = mms(Instance((1,) * m), p).value
        return memo[(m, p)]

    checked = 0
    for p in pairs:
        for p2 in pairs:
            if p == p2 or dominates(p, p2):
                continue
            witness = non_dominance_witness(p, p2)
            m = len(witness)
            low, high = unit_value(m, p), unit_value(m, p2)
            assert low < high, (p, p2)
            assert low == mms_cardinality(m, p)
            assert high == mms_cardinality(m, p2) == p2.l
            checked += 1
    _ok(9, f"{checked} non-dominating combinations: strict witness separation")


def test_a10_bundle_size_reduction_property():
    rng = random.Random(SEED + 2)
    checked = 0
    for _ in range(60):
        instance = _random_instance(rng)
        values = {}
        for d in range(max(len(instance), 1), 7):
            for l in range(d + 1):
                for h in range(4):
                    for pair in (MmsPair(l, d), MmsPair(l + h, d + h)):
                        if pair not in values:
                            values[pair] = mms(instance, pair).value
                    assert values[MmsPair(l, d)] >= values[MmsPair(l + h, d + h)], (
                        instance,
                        l,
                        d,
                        h,
                    )
                    checked += 1
    _ok(10, f"{checked} bundle-size reduction checks with |X| <= d <= 6, h <= 3")


def test_a11_coincidence_identities():
    rng = random.Random(SEED + 3)
    # equal entitlements: the weighted share is the 1-out-of-n share
    for _ in range(40):
        instance = _random_instance(rng)
        n = rng.randint(1, 4)
        t = EntitlementVector((Fraction(1, n),) * n)
        expected = mms(instance, MmsPair(1, n)).value
        for i in range(n):
            assert wmms_value(instance, t, i) == expected
    # two agents: bipartite and weighted shares coincide
    from mmsfair.criteria import bmms_value

    for _ in range(40):
        instance = _random_instance(rng, max_items=8, max_value=30)
        den = rng.randint(2, 9)
        t1 = Fraction(rng.randint(1, den - 1), den)
        t = EntitlementVector((t1, 1 - t1))
        assert bmms_value(instance, t1) == wmms_value(instance, t, 0)
        assert bmms_value(instance, 1 - t1) == wmms_value(instance, t, 1)
    _ok(11, "wmms == 1-out-of-n share (equal t) and bmms == wmms (n=2), exactly")


def test_a12_cli_outputs_are_deterministic(capsys):
    commands = [
        ["mms", "--items", "1,3,5,6,9", "--pair", "1/3", "--json"],
        ["dominates", "2", "3", "5", "7", "--json"],
        ["pairs", "--entitlement", "0.74", "--items-count", "7", "--json"],
        [
            "audit",
            "--items",
            "40,60",
            "--entitlements",
            "0.6,0.2,0.2",
            "--allocation",
            ";0;1",
            "--json",
        ],
        [
            "scan",
            "--max-items",
            "2",
            "--values",
            "0,40,60",
            "--entitlements",
            "0.4,0.6;0.6,0.2,0.2",
            "--seed",
            "9",
            "--max-instances",
            "5",
            "--json",
        ],
    ]
    for argv in commands:
        code_1 = main(list(argv))
        out_1 = capsys.readouterr().out
        code_2 = main(list(argv))
        out_2 = capsys.readouterr().out
        assert code_1 == code_2
        assert out_1.encode() == out_2.encode(), argv
        json.loads(out_1)  # valid JSON envelope
    _ok(12, f"{len(commands)} CLI commands re-run byte-identically")
