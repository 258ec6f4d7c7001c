"""Human-readable reports over chase, equivalence, and reformulation results.

Small, dependency-free reporting helpers used by the examples, the CLI, and
the benchmark harness:

* :func:`chase_statistics` — per-run statistics of a
  :class:`~repro.chase.set_chase.ChaseResult` (steps by kind and by
  dependency, body growth);
* :func:`equivalence_matrix` — the verdict matrix of a set of queries under
  one dependency set and one semantics (the E7 artefact);
* :func:`reformulation_table` — a text table of a
  :class:`~repro.reformulation.cb.ReformulationResult`;
* :func:`render_table` — minimal fixed-width table rendering (kept local so
  the library has no dependency on tabulate/pandas).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..chase.set_chase import ChaseResult
from ..core.query import ConjunctiveQuery
from ..dependencies.base import Dependency, DependencySet
from ..equivalence.under_dependencies import equivalent_under_dependencies
from ..reformulation.cb import ReformulationResult
from ..semantics import Semantics


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width text table."""
    columns = [list(map(str, column)) for column in zip(headers, *rows)] if rows else [
        [str(h)] for h in headers
    ]
    widths = [max(len(cell) for cell in column) for column in columns]

    def format_row(cells: Sequence[object]) -> str:
        return " | ".join(str(cell).ljust(width) for cell, width in zip(cells, widths))

    lines = [format_row(headers), "-+-".join("-" * width for width in widths)]
    lines.extend(format_row(row) for row in rows)
    return "\n".join(lines)


@dataclass(frozen=True)
class ChaseStatistics:
    """Summary statistics of one chase run."""

    semantics: Semantics
    total_steps: int
    tgd_steps: int
    egd_steps: int
    steps_by_dependency: Mapping[str, int]
    initial_body_size: int
    final_body_size: int

    def as_table(self) -> str:
        rows = [
            ("semantics", str(self.semantics)),
            ("total steps", self.total_steps),
            ("tgd steps", self.tgd_steps),
            ("egd steps", self.egd_steps),
            ("final body size", self.final_body_size),
        ]
        rows.extend(
            (f"steps using {name or '<unnamed>'}", count)
            for name, count in sorted(self.steps_by_dependency.items())
        )
        return render_table(["metric", "value"], rows)


def chase_statistics(
    result: ChaseResult, original: ConjunctiveQuery | None = None
) -> ChaseStatistics:
    """Compute statistics for a chase run.

    ``original`` (the pre-chase query) is optional; when omitted the initial
    body size is inferred from the final size and the number of added atoms.
    """
    kinds = Counter(record.kind for record in result.steps)
    by_dependency = Counter(
        record.dependency.name or record.kind for record in result.steps
    )
    added_atoms = sum(len(record.added_atoms) for record in result.steps)
    final_size = len(result.query.body)
    initial_size = (
        len(original.body) if original is not None else max(final_size - added_atoms, 0)
    )
    return ChaseStatistics(
        semantics=result.semantics,
        total_steps=result.step_count,
        tgd_steps=kinds.get("tgd", 0),
        egd_steps=kinds.get("egd", 0),
        steps_by_dependency=dict(by_dependency),
        initial_body_size=initial_size,
        final_body_size=final_size,
    )


def equivalence_matrix(
    queries: Mapping[str, ConjunctiveQuery],
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics | str = Semantics.BAG_SET,
) -> dict[tuple[str, str], bool]:
    """Pairwise Σ-equivalence verdicts for a named family of queries.

    Only the upper triangle is computed (equivalence is symmetric); the
    returned mapping contains both orientations for convenience.
    """
    names = list(queries)
    matrix: dict[tuple[str, str], bool] = {}
    for index, left in enumerate(names):
        matrix[(left, left)] = True
        for right in names[index + 1 :]:
            verdict = equivalent_under_dependencies(
                queries[left], queries[right], dependencies, semantics
            )
            matrix[(left, right)] = verdict
            matrix[(right, left)] = verdict
    return matrix


def equivalence_matrix_table(
    queries: Mapping[str, ConjunctiveQuery],
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics | str = Semantics.BAG_SET,
) -> str:
    """The equivalence matrix rendered as a text table (✓ / ✗)."""
    matrix = equivalence_matrix(queries, dependencies, semantics)
    names = list(queries)
    rows = [
        [left] + ["✓" if matrix[(left, right)] else "✗" for right in names]
        for left in names
    ]
    return render_table([str(semantics)] + names, rows)


def reformulation_table(result: ReformulationResult) -> str:
    """A text table summarising a C&B run."""
    rows = []
    for query in sorted(result.reformulations, key=lambda q: len(q.body)):
        rows.append(
            (
                len(query.body),
                "yes" if any(query is m or query == m for m in result.minimal_reformulations) else "no",
                str(query),
            )
        )
    header = (
        f"{len(result.reformulations)} reformulations of {result.query.head_predicate} "
        f"under {result.semantics} ({result.candidates_examined} candidates examined, "
        f"{result.candidates_chased} chased)"
    )
    return header + "\n" + render_table(["#subgoals", "Σ-minimal", "query"], rows)
