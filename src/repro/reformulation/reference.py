"""Frozen chase-every-candidate C&B, kept as the verdict table's oracle.

:func:`repro.reformulation.cb.chase_and_backchase` settles most backchase
candidates, and most Σ-minimality probes, from its verdict table without a
chase.  This module is the algorithm of Appendix A without the table: every
candidate is chased through the session and tested against the universal
plan with the semantics' own equivalence test, and every Σ-minimality probe
is a :meth:`~repro.session.Session.decide`.

It exists so that the differential tests (``tests/test_reformulation.py``)
and the verdict-table tier of ``benchmarks/bench_reformulation.py`` can
assert that the table changes no output: the universal plan, the
reformulations in order, the Σ-minimal ones, and the number of candidates
examined.  Its chases go through the given session, so they share that
session's chase cache.

Like :mod:`repro.chase.reference`, this module is deliberately frozen — do
not "speed it up" with the verdict table, isomorphism buckets or any other
shortcut of the code it checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.homomorphism import are_isomorphic
from ..core.query import ConjunctiveQuery
from ..session import strategies
from .candidates import iter_subqueries
from .cb import ReformulationResult
from .minimality import is_sigma_minimal

if TYPE_CHECKING:
    from ..session.engine import Session


def chase_and_backchase_reference(
    session: "Session",
    query: ConjunctiveQuery,
    semantics: object,
    *,
    max_candidate_size: int | None = None,
) -> ReformulationResult:
    """C&B of *query* under *session*'s Σ, chasing every backchase candidate."""
    semantics = strategies.resolve(semantics)
    sigma = session.dependencies
    steps = session.max_steps
    chase_result = session.chase(query, semantics, steps)
    universal_plan = chase_result.query

    reformulations: list[ConjunctiveQuery] = []
    examined = 0
    for candidate in iter_subqueries(universal_plan, max_size=max_candidate_size):
        examined += 1
        chased = session.chase(candidate, semantics, steps).query
        if strategies.equivalent_chased(
            chased, universal_plan, sigma, semantics
        ) and not any(are_isomorphic(candidate, kept) for kept in reformulations):
            reformulations.append(candidate)

    def decided(shortened: ConjunctiveQuery, original: ConjunctiveQuery) -> bool:
        return bool(session.decide(shortened, original, semantics, steps))

    minimal = [
        candidate
        for candidate in reformulations
        if is_sigma_minimal(candidate, sigma, semantics, steps, equivalent_fn=decided)
    ]
    return ReformulationResult(
        query=query,
        semantics=semantics,
        universal_plan=universal_plan,
        reformulations=reformulations,
        minimal_reformulations=minimal,
        candidates_examined=examined,
        candidates_chased=examined,
        chase_result=chase_result,
    )
