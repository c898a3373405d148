"""Exact domain types shared by the whole package.

Item values are arbitrary-precision non-negative integers and entitlements
are `fractions.Fraction`, so nothing here or downstream rounds, loses
precision, or overflows silently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

#: Non-negative integer item value. Python ints are unbounded, so sums of
#: arbitrarily large values stay exact.
Value = int


class InstanceTooLargeError(Exception):
    """An exact search was refused because it exceeds the configured safety bound."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a decimal like "0.74" into an exact Fraction; a non-string
    (the float 0.5) or exponent notation ("1e-9": Fraction builds 10^9) raises."""
    if isinstance(text, str) and "e" not in text.lower():
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational number: {text!r}")


def format_rational(f: Fraction) -> str:
    """The "p/q" form that `parse_rational` reads back; integers keep "/1"."""
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True, slots=True)
class Instance:
    """A multiset of non-negative integer item values.

    Order is preserved as given; `canonicalize` returns the sorted
    non-increasing form used by the search engine.
    """

    items: tuple[Value, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        for v in self.items:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"item value must be an integer, got {v!r}")
            if v < 0:
                raise ValueError(f"item value must be non-negative, got {v}")

    def __len__(self) -> int:
        return len(self.items)

    def total(self) -> Value:
        return sum(self.items)


def canonicalize(instance: Instance) -> Instance:
    """Sorted non-increasing form; idempotent, multiset unchanged."""
    return Instance(tuple(sorted(instance.items, reverse=True)))


def parse_items(text: str) -> Instance:
    """Parse comma or whitespace separated integers; "" means no items."""
    try:
        values = tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"bad item list: {text!r}") from exc
    return Instance(values)


@dataclass(frozen=True, slots=True)
class MmsPair:
    """An l-out-of-d share condition: split into d parts, keep the worst
    union of l of them."""

    l: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if not 0 <= self.l <= self.d:
            raise ValueError(f"need 0 <= l <= d, got l={self.l}, d={self.d}")

    def __str__(self) -> str:
        return f"{self.l}/{self.d}"

    @classmethod
    def parse(cls, text: str) -> "MmsPair":
        """Parse the "l/d" command-line form; anything but a string raises."""
        if not isinstance(text, str) or "/" not in text:
            raise ValueError(f"expected 'l/d', got {text!r}")
        left, _, right = text.strip().partition("/")
        try:
            l, d = int(left), int(right)
        except ValueError as exc:
            raise ValueError(f"bad share condition {text!r}") from exc
        return cls(l, d)


@dataclass(frozen=True, slots=True)
class PartitionAssignment:
    """Part index per item for a partition into d possibly-empty parts."""

    part_of: tuple[int, ...]
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "part_of", tuple(self.part_of))
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        for k in self.part_of:
            if not 0 <= k < self.d:
                raise ValueError(f"part index {k} outside 0..{self.d - 1}")

    def part_sums(self, items: Sequence[Value]) -> list[Value]:
        """Sum per part; `items` must be in the order the assignment was built for."""
        return [sum(group) for group in self.parts(items)]

    def parts(self, items: Sequence[Value]) -> list[list[Value]]:
        """Item values grouped per part, in part order."""
        if len(items) != len(self.part_of):
            raise ValueError("assignment length does not match item count")
        groups: list[list[Value]] = [[] for _ in range(self.d)]
        for value, k in zip(items, self.part_of):
            groups[k].append(value)
        return groups


def ratio_keys(entitlements: Sequence[Fraction]) -> tuple[int, int, tuple[int, ...]]:
    """WMMS integer keys (W, L, c) of one or more entitlements, each of them
    positive (else ValueError): see `criteria`."""
    if not entitlements:
        raise ValueError("at least one agent is required")
    for t in entitlements:
        if t <= 0:
            raise ValueError(f"entitlements must be positive, got {t}")
    den = lcm(*(t.denominator for t in entitlements))
    weights = [t.numerator * (den // t.denominator) for t in entitlements]
    top = lcm(*weights)
    return den, top, tuple(top // w for w in weights)


@dataclass(frozen=True, slots=True)
class EntitlementVector:
    """Strictly positive rational entitlements summing to exactly 1."""

    entitlements: tuple[Fraction, ...]
    # Set once, when built: its `ratio_keys`.
    wmms_keys: tuple[int, int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entitlements", tuple(Fraction(t) for t in self.entitlements)
        )
        object.__setattr__(self, "wmms_keys", ratio_keys(self.entitlements))
        total = sum(self.entitlements)
        if total != 1:
            raise ValueError(f"entitlements must sum to 1, got {total}")

    def __len__(self) -> int:
        return len(self.entitlements)

    def __getitem__(self, i: int) -> Fraction:
        return self.entitlements[i]

    def __iter__(self) -> Iterable[Fraction]:
        return iter(self.entitlements)
