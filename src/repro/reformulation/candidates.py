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
from typing import Iterator, Sequence

from ..core.query import ConjunctiveQuery
from ..core.terms import Term


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
    for positions, _ in iter_candidates(universal_plan, min_size, max_size, include_full):
        yield positions, subquery_at(universal_plan, positions)


def iter_candidates(
    universal_plan: ConjunctiveQuery,
    min_size: int = 1,
    max_size: int | None = None,
    include_full: bool = True,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The body positions of each safe subquery of *universal_plan*, smallest first.

    Each comes with its positions as a bitmask (bit *i* for position *i*).
    No query is built: a caller that can decide a candidate from its
    positions alone (the backchase's verdict table) builds only the queries
    it keeps, through :func:`subquery_at`.  A subset is safe when it meets,
    for every head variable, the positions holding that variable
    (:func:`head_holders`).
    """
    body = universal_plan.body
    holders = head_holders(universal_plan)
    bits = [1 << position for position in range(len(body))]
    upper = len(body) if max_size is None else min(max_size, len(body))
    for size in range(max(1, min_size), upper + 1):
        if size == len(body) and not include_full:
            continue
        for positions, chosen in zip(
            combinations(range(len(body)), size), combinations(bits, size)
        ):
            mask = sum(chosen)
            for holder in holders:
                if not holder & mask:
                    break
            else:
                yield positions, mask


def head_holders(universal_plan: ConjunctiveQuery) -> list[int]:
    """Per head variable, the bitmask of the body positions holding it."""
    holders: dict[Term, int] = {variable: 0 for variable in universal_plan.head_variables()}
    for position, atom in enumerate(universal_plan.body):
        for term in atom.terms:
            if term in holders:
                holders[term] |= 1 << position
    return list(holders.values())


def subquery_at(universal_plan: ConjunctiveQuery, positions: Sequence[int]) -> ConjunctiveQuery:
    """The subquery of *universal_plan* over the body atoms at *positions*.

    *positions* must be nonempty and safe, as :func:`iter_candidates`
    yields them, so the query is not validated again.
    """
    body = universal_plan.body
    return universal_plan.with_safe_body(tuple([body[i] for i in positions]))


def count_subquery_candidates(universal_plan: ConjunctiveQuery) -> int:
    """Number of safe subqueries the backchase would consider (diagnostics)."""
    return sum(1 for _ in iter_candidates(universal_plan))
