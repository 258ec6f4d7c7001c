"""Reformulation of aggregate queries: Max-Min-C&B and Sum-Count-C&B (Section 6.3).

Both algorithms reformulate the *core* of the aggregate query and reattach
the original head (grouping terms + aggregate term) to every reformulated
core:

* **Max-Min-C&B** — for ``max`` / ``min`` queries; the core is reformulated
  with the set-semantics C&B (Theorem 6.3(1) reduces equivalence of max/min
  queries to set equivalence of cores);
* **Sum-Count-C&B** — for ``sum`` / ``count`` queries; the core is
  reformulated with Bag-Set-C&B (Theorem 6.3(2)).

Both are sound and complete whenever the set chase of the core terminates
(Theorem K.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from ..core.aggregate import AggregateQuery
from ..core.query import ConjunctiveQuery
from ..dependencies.base import Dependency, DependencySet
from ..semantics import Semantics
from ..chase.set_chase import DEFAULT_MAX_STEPS
from .cb import ReformulationResult, chase_and_backchase


@dataclass
class AggregateReformulationResult:
    """Output of Max-Min-C&B / Sum-Count-C&B."""

    query: AggregateQuery
    core_result: ReformulationResult
    reformulations: list[AggregateQuery] = field(default_factory=list)
    minimal_reformulations: list[AggregateQuery] = field(default_factory=list)

    def __iter__(self) -> Iterator[AggregateQuery]:
        return iter(self.minimal_reformulations)

    def __len__(self) -> int:
        return len(self.minimal_reformulations)

    def __str__(self) -> str:
        lines = [
            f"aggregate reformulation of {self.query}",
            f"  core handled under {self.core_result.semantics}",
            f"  {len(self.minimal_reformulations)} Σ-minimal reformulations:",
        ]
        lines.extend(f"    {query}" for query in self.minimal_reformulations)
        return "\n".join(lines)


def _reattach_heads(
    query: AggregateQuery, cores: Sequence[ConjunctiveQuery]
) -> list[AggregateQuery]:
    return [query.with_core(core) for core in cores]


def reformulate_aggregate_query(
    query: AggregateQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    **kwargs: Any,
) -> AggregateReformulationResult:
    """Dispatch to Max-Min-C&B or Sum-Count-C&B based on the aggregate function."""
    if query.aggregate.function.is_duplicate_sensitive:
        return sum_count_c_and_b(query, dependencies, max_steps, **kwargs)
    return max_min_c_and_b(query, dependencies, max_steps, **kwargs)


def max_min_c_and_b(
    query: AggregateQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    **kwargs: Any,
) -> AggregateReformulationResult:
    """Max-Min-C&B: reformulate a max/min query via set-semantics C&B on its core."""
    core_result = chase_and_backchase(
        query.core(), dependencies, Semantics.SET, max_steps, **kwargs
    )
    return AggregateReformulationResult(
        query=query,
        core_result=core_result,
        reformulations=_reattach_heads(query, core_result.reformulations),
        minimal_reformulations=_reattach_heads(
            query, core_result.minimal_reformulations
        ),
    )


def sum_count_c_and_b(
    query: AggregateQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    **kwargs: Any,
) -> AggregateReformulationResult:
    """Sum-Count-C&B: reformulate a sum/count query via Bag-Set-C&B on its core."""
    core_result = chase_and_backchase(
        query.core(), dependencies, Semantics.BAG_SET, max_steps, **kwargs
    )
    return AggregateReformulationResult(
        query=query,
        core_result=core_result,
        reformulations=_reattach_heads(query, core_result.reformulations),
        minimal_reformulations=_reattach_heads(
            query, core_result.minimal_reformulations
        ),
    )
