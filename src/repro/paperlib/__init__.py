"""The paper's examples and the synthetic benchmark workloads."""

from .examples import (
    PAPER_EXAMPLES,
    Example41,
    Example42,
    Example43,
    Example46,
    ExampleE1,
    ExampleE2,
    example_4_1,
    example_4_2,
    example_4_3,
    example_4_6,
    example_e_1,
    example_e_2,
)
from .workloads import (
    ORDERS_DDL,
    Workload,
    chain_workload,
    clique_workload,
    h_family,
    orders_workload,
    star_workload,
)

__all__ = [
    "ORDERS_DDL",
    "PAPER_EXAMPLES",
    "Example41",
    "Example42",
    "Example43",
    "Example46",
    "ExampleE1",
    "ExampleE2",
    "Workload",
    "chain_workload",
    "clique_workload",
    "example_4_1",
    "example_4_2",
    "example_4_3",
    "example_4_6",
    "example_e_1",
    "example_e_2",
    "h_family",
    "orders_workload",
    "star_workload",
]
