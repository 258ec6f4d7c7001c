"""Query-reformulation algorithms: C&B, Bag-C&B, Bag-Set-C&B, aggregate variants."""

from .aggregate_cb import (
    AggregateReformulationResult,
    max_min_c_and_b,
    reformulate_aggregate_query,
    sum_count_c_and_b,
)
from .candidates import count_subquery_candidates, iter_subqueries
from .cb import (
    ReformulationResult,
    chase_and_backchase,
    naive_bag_c_and_b,
)
from .minimality import is_sigma_minimal, is_sigma_minimal_aggregate, sigma_minimize

__all__ = [
    "AggregateReformulationResult",
    "ReformulationResult",
    "chase_and_backchase",
    "count_subquery_candidates",
    "is_sigma_minimal",
    "is_sigma_minimal_aggregate",
    "iter_subqueries",
    "max_min_c_and_b",
    "naive_bag_c_and_b",
    "reformulate_aggregate_query",
    "sigma_minimize",
    "sum_count_c_and_b",
]
