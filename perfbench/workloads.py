"""Seeded query generators for the four benchmark workloads.

A workload is an endless stream of `execute(command, inputs)` queries cut
into passes. Every pass holds the same fixed set of slots (the instance
shapes the workload is about) and the seed only picks the values that fill
them, so the mix of cheap and expensive queries is the same on every seed
and every run. Pass k draws its values from its own generator, so no query
repeats within a run and a cache across queries gains nothing.

Bounds such as `max_items` and `max_parts` are set per query to what the
instance needs, the way a user passes `--max-parts`.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass(frozen=True)
class Query:
    command: str
    inputs: dict
    # Facts the output checks need that are not part of the inputs.
    expect: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # String seeds hash with SHA-512, so streams do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _interleave(major: list, minor: list) -> list:
    # Spread the `major` slots evenly through the pass, so that the partial
    # pass a timed run ends on has about the same mix as a whole pass.
    out, placed = [], 0
    total = len(major) + len(minor)
    minor_iter = iter(minor)
    for p in range(total):
        if (p + 1) * len(major) // total > placed:
            out.append(major[placed])
            placed += 1
        else:
            out.append(next(minor_iter))
    return out


# --- search-worst -----------------------------------------------------------
# (items, l, d) shapes. The hard ones took 0.19-0.53 s per query on a 2-core
# 2.1 GHz Xeon; the rest 0-0.15 s. 13-item shapes slower than about 0.6 s
# (13 items at 1/5, 2/5, 1/7, 1/8, 2/8, 3/8 take 2.7-10 s) and the 16-item
# cases (36 s at 2/5, over 120 s at 3/7) are left out: one of them would
# outlast a whole run.
SEARCH_HARD = [
    (11, 1, 6), (12, 2, 5), (12, 3, 5), (12, 1, 8),
    (12, 3, 7), (13, 2, 4), (13, 3, 6), (13, 4, 8),
]
SEARCH_EASY = [
    (11, 1, 3), (11, 2, 3), (11, 1, 4), (11, 3, 4), (11, 2, 5), (11, 4, 5),
    (11, 3, 6), (11, 5, 6), (11, 2, 7), (11, 5, 7), (11, 3, 8), (11, 7, 8),
    (12, 1, 3), (12, 1, 4), (12, 2, 4), (12, 4, 5), (12, 2, 6), (12, 4, 7),
    (12, 6, 7), (12, 5, 8),
    (13, 1, 3), (13, 2, 3), (13, 4, 5), (13, 3, 7), (13, 5, 8), (13, 6, 8),
]
NEAR_EQUAL_NOISE = 51


def _search_pass(seed: int, k: int) -> list[Query]:
    rng = _rng("search-worst", seed, k)
    easy = SEARCH_EASY[:]
    rng.shuffle(easy)
    queries = []
    for slot, (m, l, d) in enumerate(_interleave(SEARCH_HARD, easy)):
        # Half of every pass at each scale, swapped between passes.
        scale = 10**30 if (slot + k) % 2 else 10**6
        items = [scale + rng.randrange(NEAR_EQUAL_NOISE) for _ in range(m)]
        queries.append(
            Query("mms", {"items": items, "pair": f"{l}/{d}", "max_items": m, "max_parts": d})
        )
    return queries


def _search_warmup(seed: int) -> Query:
    rng = _rng("search-worst", seed, -1)
    items = [10**6 + rng.randrange(NEAR_EQUAL_NOISE) for _ in range(11)]
    return Query("mms", {"items": items, "pair": "2/3", "max_items": 11, "max_parts": 3})


# --- audit-agents -----------------------------------------------------------
# Tied vectors, 74/100 and unequal splits for 2, 3 and 4 agents.
AUDIT_ENTITLEMENTS = [
    ["1/2", "1/2"],
    ["74/100", "26/100"],
    ["2/5", "3/5"],
    ["1/3", "1/3", "1/3"],
    ["74/100", "13/100", "13/100"],
    ["3/5", "1/5", "1/5"],
    ["1/4", "1/4", "1/4", "1/4"],
    ["74/100", "1/10", "1/10", "6/100"],
    ["2/5", "1/5", "1/5", "1/5"],
]
AUDIT_ITEM_COUNTS = (10, 11, 12)
# Small values make subset sums collide, which keeps the BMMS enumeration
# cheap: at 1-50 WMMS takes about two thirds of the traced time, BMMS a
# sixth; at 1-1000 BMMS took 56% and WMMS 34%.
AUDIT_MAX_VALUE = 50


def _audit_query(rng: random.Random, m: int, entitlements: list[str]) -> Query:
    n = len(entitlements)
    items = [rng.randint(1, AUDIT_MAX_VALUE) for _ in range(m)]
    allocation: list[list[int]] = [[] for _ in range(n)]
    for j in range(m):
        allocation[rng.randrange(n)].append(j)
    # A surviving condition can have d up to the item count (8/11 for
    # 74/100 on 12 items), so the part bound is m, not the default 10.
    inputs = {
        "items": items,
        "entitlements": entitlements,
        "allocation": allocation,
        "criteria": ["omms", "wmms", "bmms"],
        "max_items": m,
        "max_parts": max(m, n),
    }
    return Query("audit", inputs)


# Four agents only at 10 items: on values up to 1000, one WMMS search in
# four agents took 0.05-0.5 s at 11 items and 0.1-1.6 s at 12, and that
# tail alone moved a run's throughput by 6-13% from seed to seed.
AUDIT_SLOTS = [
    (m, t) for t in AUDIT_ENTITLEMENTS for m in AUDIT_ITEM_COUNTS if len(t) < 4 or m == 10
]


def _audit_pass(seed: int, k: int) -> list[Query]:
    rng = _rng("audit-agents", seed, k)
    slots = AUDIT_SLOTS[:]
    rng.shuffle(slots)
    return [_audit_query(rng, m, t) for m, t in slots]


def _audit_warmup(seed: int) -> Query:
    return _audit_query(_rng("audit-agents", seed, -1), 10, AUDIT_ENTITLEMENTS[0])


# --- scan-sweep -------------------------------------------------------------
# The default entitlement grid of scripts/run_separation_scan.py.
SCAN_ENTITLEMENTS = [
    ["2/5", "3/5"],
    ["3/5", "1/5", "1/5"],
    ["1/2", "1/2"],
    ["1/3", "1/3", "1/3"],
    ["74/100", "26/100"],
]
SCAN_MAX_ITEMS = 5
SCAN_GRID_SIZE = 5  # zero plus four positive values
SCAN_MAX_VALUE = 60
SCAN_SAMPLE_SIZES = (30, 40, 50)
SCAN_QUERIES_PER_PASS = 9


def _multiset_count(grid_size: int, max_items: int) -> int:
    return sum(math.comb(grid_size + k - 1, k) for k in range(1, max_items + 1))


def _scan_query(rng: random.Random, sample: int) -> Query:
    # Zero is always in the grid; ties come from repeated values in the
    # multisets.
    grid = [0] + rng.sample(range(1, SCAN_MAX_VALUE + 1), SCAN_GRID_SIZE - 1)
    inputs = {
        "max_items": SCAN_MAX_ITEMS,
        "value_grid": grid,
        "entitlement_grid": SCAN_ENTITLEMENTS,
        "max_instances": sample,
        "seed": rng.randrange(2**31),
        "max_parts": max(SCAN_MAX_ITEMS, max(len(t) for t in SCAN_ENTITLEMENTS)),
    }
    instances = min(sample, _multiset_count(SCAN_GRID_SIZE, SCAN_MAX_ITEMS))
    return Query("scan", inputs, {"rows": instances * len(SCAN_ENTITLEMENTS)})


def _scan_pass(seed: int, k: int) -> list[Query]:
    rng = _rng("scan-sweep", seed, k)
    sizes = itertools.islice(itertools.cycle(SCAN_SAMPLE_SIZES), SCAN_QUERIES_PER_PASS)
    return [_scan_query(rng, sample) for sample in sizes]


def _scan_warmup(seed: int) -> Query:
    return _scan_query(_rng("scan-sweep", seed, -1), 5)


# --- pairs-filtration -------------------------------------------------------
# The filtration is O(m^2), and its cost also swings with k: a k/100 that
# reduces to a small denominator (1/2, 3/4, 4/5) leaves one survivor and
# costs up to 20x less than its neighbours, which moved a run's throughput
# by 10% from seed to seed. So k is coprime to 100, and every pass covers
# each item count once in each band of ten k values.
PAIRS_ITEM_COUNTS = (100, 150, 200, 300, 400, 600)
PAIRS_K_BANDS = [
    [k for k in range(10 * b + 1, 10 * b + 11) if math.gcd(k, 100) == 1] for b in range(10)
]


def _pairs_pass(seed: int, k: int) -> list[Query]:
    rng = _rng("pairs-filtration", seed, k)
    n_m, n_b = len(PAIRS_ITEM_COUNTS), len(PAIRS_K_BANDS)
    queries = []
    for i in range(n_m * n_b):
        # i -> (item count, band) is a bijection because 7 and 10 are
        # coprime; every run of six slots covers each item count once.
        m = PAIRS_ITEM_COUNTS[i % n_m]
        band = PAIRS_K_BANDS[(i // n_m + i) % n_b]
        queries.append(Query("pairs", {"entitlement": f"{rng.choice(band)}/100", "item_count": m}))
    return queries


def _pairs_warmup(seed: int) -> Query:
    # Fixed: the cost of a pairs query swings with k, and set-up time
    # should not swing with the seed.
    return Query("pairs", {"entitlement": "73/100", "item_count": 100})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_pass: Callable[[int, int], list[Query]]  # (seed, pass index)
    make_warmup: Callable[[int], Query]

    def stream(self, seed: int, start: int = 0) -> Iterator[Query]:
        """The workload's endless, deterministic query stream for `seed`,
        from pass `start` on."""
        for k in itertools.count(start):
            yield from self.make_pass(seed, k)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-worst",
            "mms on near-equal values at 1e6 and 1e30 scale: the engine search does "
            "the work and its pruning is at its weakest",
            _search_pass,
            _search_warmup,
        ),
        Workload(
            "audit-agents",
            "audit of random allocations for 2-4 agents: the criteria layer (WMMS, BMMS) "
            "does the work and the search little",
            _audit_pass,
            _audit_warmup,
        ),
        Workload(
            "scan-sweep",
            "scans of small multisets with zeros and ties: thousands of tiny mms calls "
            "on many repeated keys",
            _scan_pass,
            _scan_warmup,
        ),
        Workload(
            "pairs-filtration",
            "pairs for k/100 at 100-600 items: the O(m^2) filtration in pairs and "
            "dominance, with no search at all",
            _pairs_pass,
            _pairs_warmup,
        ),
    )
}
