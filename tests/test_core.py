from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmsfair.core import (
    EntitlementVector,
    Instance,
    MmsPair,
    PartitionAssignment,
    canonicalize,
    parse_items,
    parse_rational,
)

small_items = st.lists(st.integers(0, 9), max_size=8)


def test_canonicalize_examples():
    assert canonicalize(Instance((1, 3, 5, 6, 9))).items == (9, 6, 5, 3, 1)
    assert canonicalize(Instance(())).items == ()
    assert canonicalize(Instance((5, 5, 5))).items == (5, 5, 5)


@given(small_items)
def test_canonicalize_idempotent_and_multiset_preserving(values):
    inst = Instance(tuple(values))
    canon = canonicalize(inst)
    assert canonicalize(canon) == canon
    assert sorted(canon.items) == sorted(inst.items)
    assert canon.total() == inst.total()


def test_instance_rejects_bad_values():
    with pytest.raises(ValueError):
        Instance((-1,))
    with pytest.raises(ValueError):
        Instance((1.5,))  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        Instance((True,))  # type: ignore[arg-type]


def test_parse_items_forms():
    assert parse_items("1,3,5").items == (1, 3, 5)
    assert parse_items("1 3  5").items == (1, 3, 5)
    assert parse_items("1,\t3\n5\u00a06\u20037").items == (1, 3, 5, 6, 7)
    assert parse_items("  ").items == ()
    assert parse_items("").items == ()
    with pytest.raises(ValueError):
        parse_items("1,two,3")


@given(st.fractions(), st.fractions())
def test_fraction_arithmetic_round_trips(x, y):
    assert (x + y) - y == x


def test_parse_rational():
    assert parse_rational("0.74") == Fraction(37, 50)
    assert parse_rational("74/100") == Fraction(37, 50)
    assert parse_rational(" 1 ") == 1
    with pytest.raises(ValueError):
        parse_rational("three halves")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_mms_pair_validation_and_parse():
    assert str(MmsPair(2, 3)) == "2/3"
    assert MmsPair.parse("2/3") == MmsPair(2, 3)
    assert MmsPair.parse(" 0/1 ") == MmsPair(0, 1)
    with pytest.raises(ValueError):
        MmsPair(3, 2)
    with pytest.raises(ValueError):
        MmsPair(-1, 2)
    with pytest.raises(ValueError):
        MmsPair(0, 0)
    with pytest.raises(ValueError):
        MmsPair.parse("23")
    with pytest.raises(ValueError):
        MmsPair.parse("a/b")


def test_partition_assignment_validation():
    pa = PartitionAssignment((0, 1, 1, 2, 0), d=3)
    assert pa.part_sums((9, 6, 5, 3, 1)) == [10, 11, 3]
    assert pa.parts((9, 6, 5, 3, 1)) == [[9, 1], [6, 5], [3]]
    with pytest.raises(ValueError):
        PartitionAssignment((0, 3), d=3)
    with pytest.raises(ValueError):
        PartitionAssignment((0,), d=0)
    with pytest.raises(ValueError):
        pa.part_sums((1, 2))


def test_partition_assignment_parts_rejects_wrong_item_count():
    pa = PartitionAssignment((0, 1, 1), d=2)
    with pytest.raises(ValueError, match="does not match item count"):
        pa.parts((9, 6))
    with pytest.raises(ValueError, match="does not match item count"):
        pa.parts((9, 6, 5, 3))


def test_entitlement_vector_validation():
    t = EntitlementVector((Fraction("0.4"), Fraction("0.6")))
    assert t.entitlements == (Fraction(2, 5), Fraction(3, 5))
    assert len(t) == 2 and t[1] == Fraction(3, 5)
    single = EntitlementVector((1,))
    assert single.entitlements == (Fraction(1),)
    with pytest.raises(ValueError):
        EntitlementVector((Fraction("0.4"), Fraction("0.5")))
    with pytest.raises(ValueError):
        EntitlementVector((Fraction(1), Fraction(0)))
    with pytest.raises(ValueError):
        EntitlementVector(())
    with pytest.raises(ValueError):
        EntitlementVector((Fraction(3, 2), Fraction(-1, 2)))


def test_entitlement_vector_keys_stay_out_of_equality_hash_and_repr():
    # The WMMS keys (W, L, c) are set once, when the vector is built; they
    # are derived, so only the entitlements count.
    t = EntitlementVector((Fraction(1, 3), Fraction(2, 3)))
    assert t.wmms_keys == (3, 2, (2, 1))
    u = EntitlementVector((Fraction(1, 3), Fraction(2, 3)))
    object.__setattr__(u, "wmms_keys", None)
    assert t == u and hash(t) == hash(u)
    assert repr(t) == "EntitlementVector(entitlements=(Fraction(1, 3), Fraction(2, 3)))"
