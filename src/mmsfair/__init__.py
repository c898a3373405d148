"""Exact maximin-share (MMS) fairness toolkit for unequal entitlements.

Computes l-out-of-d maximin shares exactly, decides dominance between
share conditions, enumerates the minimal set of conditions to check for a
given entitlement, and evaluates the OMMS / WMMS / BMMS fairness criteria.
"""
from .core import (
    EntitlementVector,
    Instance,
    InstanceTooLargeError,
    MmsPair,
    PartitionAssignment,
    Value,
    canonicalize,
    parse_items,
    parse_rational,
)
from .criteria import (
    AgentAudit,
    Allocation,
    FairnessReport,
    audit,
    bmms_value,
    omms_requirements,
    weighted_maximin_partition,
    wmms_value,
)
from .dominance import decompose, dominates, non_dominance_witness
from .engine import (
    DEFAULT_LIMITS,
    MmsResult,
    SearchLimits,
    min_l_union,
    mms,
    mms_cardinality,
)
from .pairs import Removal, candidate_pairs, filtration_trace, non_dominated_pairs
from .scan import notion_separation_scan, scan_one

__version__ = "0.1.0"

__all__ = [
    "AgentAudit",
    "Allocation",
    "DEFAULT_LIMITS",
    "EntitlementVector",
    "FairnessReport",
    "Instance",
    "InstanceTooLargeError",
    "MmsPair",
    "MmsResult",
    "PartitionAssignment",
    "Removal",
    "SearchLimits",
    "Value",
    "audit",
    "bmms_value",
    "canonicalize",
    "candidate_pairs",
    "decompose",
    "dominates",
    "filtration_trace",
    "min_l_union",
    "mms",
    "mms_cardinality",
    "non_dominance_witness",
    "non_dominated_pairs",
    "notion_separation_scan",
    "omms_requirements",
    "parse_items",
    "parse_rational",
    "scan_one",
    "weighted_maximin_partition",
    "wmms_value",
]
