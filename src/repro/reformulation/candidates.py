"""Candidate reformulations: subqueries of a universal plan.

The backchase phase of C&B (Appendix A) iterates over every query whose head
is the universal plan's head and whose body is a nonempty subset of the
universal plan's body.  Only *safe* subsets (every head variable still occurs
in the body) are queries at all, so unsafe subsets are skipped.

Candidates are produced in increasing body size, which lets callers that
only want Σ-minimal reformulations stop exploring supersets of an already
accepted candidate.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterator, Sequence

from ..core.atoms import Atom
from ..core.query import ConjunctiveQuery
from ..core.terms import Variable


def iter_subqueries(
    universal_plan: ConjunctiveQuery,
    min_size: int = 1,
    max_size: int | None = None,
    include_full: bool = True,
) -> Iterator[ConjunctiveQuery]:
    """Yield the safe subqueries of *universal_plan*, smallest bodies first.

    ``max_size`` caps the body size of generated candidates; ``include_full``
    controls whether the universal plan itself (the full body) is yielded.
    """
    for _, candidate in iter_indexed_subqueries(
        universal_plan, min_size, max_size, include_full
    ):
        yield candidate


def iter_indexed_subqueries(
    universal_plan: ConjunctiveQuery,
    min_size: int = 1,
    max_size: int | None = None,
    include_full: bool = True,
) -> Iterator[tuple[tuple[int, ...], ConjunctiveQuery]]:
    """:func:`iter_subqueries`, each candidate paired with its body positions in the plan."""
    body = universal_plan.body
    head_variables = {
        term for term in universal_plan.head_terms if isinstance(term, Variable)
    }
    upper = len(body) if max_size is None else min(max_size, len(body))
    for size in range(max(1, min_size), upper + 1):
        if size == len(body) and not include_full:
            continue
        for indices in combinations(range(len(body)), size):
            atoms = tuple(body[i] for i in indices)
            covered = {v for atom in atoms for v in atom.variables()}
            if not head_variables <= covered:
                continue
            yield indices, ConjunctiveQuery(
                universal_plan.head_predicate, universal_plan.head_terms, atoms
            )


def count_subquery_candidates(universal_plan: ConjunctiveQuery) -> int:
    """Number of safe subqueries the backchase would consider (diagnostics)."""
    return sum(1 for _ in iter_subqueries(universal_plan))


def subquery_atom_indices(
    universal_plan: ConjunctiveQuery, candidate: ConjunctiveQuery
) -> tuple[int, ...] | None:
    """Indices of the universal plan's body atoms that *candidate* consists of.

    Returns None when the candidate's body is not a sub-multiset of the
    plan's body (e.g. for candidates produced elsewhere).
    """
    available: dict[Atom, list[int]] = {}
    for index, atom in enumerate(universal_plan.body):
        available.setdefault(atom, []).append(index)
    chosen: list[int] = []
    for atom in candidate.body:
        slots = available.get(atom)
        if not slots:
            return None
        chosen.append(slots.pop(0))
    return tuple(sorted(chosen))


def sub_multiset_of(
    smaller: Sequence[Hashable], larger: Sequence[Hashable]
) -> bool:
    """Is *smaller* a sub-multiset of *larger* (used for minimality filtering)?"""
    from collections import Counter

    small_counts = Counter(smaller)
    large_counts = Counter(larger)
    return all(large_counts[key] >= count for key, count in small_counts.items())
