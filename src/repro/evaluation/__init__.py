"""Query evaluation under set, bag, and bag-set semantics, plus aggregates."""

from .aggregates import aggregate_answers_agree, evaluate_aggregate
from .assignments import (
    InstanceIndex,
    instantiate_terms,
    iter_satisfying_assignments,
)
from .bag import Bag
from .engine import (
    answers_agree,
    evaluate,
    evaluate_all_semantics,
    evaluate_bag,
    evaluate_bag_set,
    evaluate_set,
)

__all__ = [
    "Bag",
    "InstanceIndex",
    "aggregate_answers_agree",
    "answers_agree",
    "evaluate",
    "evaluate_aggregate",
    "evaluate_all_semantics",
    "evaluate_bag",
    "evaluate_bag_set",
    "evaluate_set",
    "instantiate_terms",
    "iter_satisfying_assignments",
]
