"""Σ-aware equivalence tests for CQ and aggregate queries (Theorems 2.2, 6.1–6.3)."""

from .aggregate_equivalence import (
    equivalent_aggregate_queries,
    equivalent_aggregate_queries_under_dependencies,
)
from .decision import EquivalenceVerdict, decide_all, decide_equivalence
from .under_dependencies import (
    contained_under_dependencies_set,
    equivalent_under_dependencies,
)

__all__ = [
    "EquivalenceVerdict",
    "contained_under_dependencies_set",
    "decide_all",
    "decide_equivalence",
    "equivalent_aggregate_queries",
    "equivalent_aggregate_queries_under_dependencies",
    "equivalent_under_dependencies",
]
