"""The public surface: `mmsfair.__all__` and the README's library example."""
import ast
from pathlib import Path

import mmsfair

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
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
    "candidate_pairs",
    "canonicalize",
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


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 32
    assert sorted(mmsfair.__all__) == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mmsfair import *", namespace)  # a stale __all__ entry raises here
    assert [name for name in PUBLIC_NAMES if name not in namespace] == []


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _shown(value) -> str:
    # The README writes a tuple of conditions in their "l/d" form.
    if isinstance(value, tuple):
        return "(" + ", ".join(str(v) for v in value) + ")"
    return repr(value)


def test_readme_library_example_prints_its_comments():
    source = _library_example()
    lines = source.splitlines()
    namespace, shown = {}, []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            shown.append((comment, _shown(value)))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert [comment for comment, _ in shown] == [
        "7", "True", "(2/3, 5/7)", "Fraction(40, 1)", "True", "3"
    ]
    assert all(comment == value for comment, value in shown), shown
