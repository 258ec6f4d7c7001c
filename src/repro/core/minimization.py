"""Dependency-free minimization of conjunctive queries.

The classical minimization procedure of Chandra–Merlin (referenced in the
paper's introduction): repeatedly try to drop a body subgoal and keep the
shorter query whenever it stays set-equivalent to the original.  The result
— the *core* of the query — is unique up to isomorphism.

Σ-minimality (Definition 3.1 of the paper), which additionally allows
replacing variables and works modulo a dependency set, lives in
:mod:`repro.reformulation.minimality` because it needs the chase.
"""

from __future__ import annotations

from typing import Iterator

from .containment import is_set_equivalent
from .homomorphism import Homomorphism, iter_homomorphisms
from .query import ConjunctiveQuery
from .terms import Term, Variable


def drop_atom_if_safe(query: ConjunctiveQuery, index: int) -> ConjunctiveQuery | None:
    """Drop the body atom at *index*, or return None if the result is unsafe.

    Dropping a subgoal can strand a head variable; such candidates are not
    queries at all and are skipped by the minimization procedures.
    """
    remaining = query.body[:index] + query.body[index + 1 :]
    if not remaining:
        return None
    covered = {v for atom in remaining for v in atom.variables()}
    head_variables = {t for t in query.head_terms if isinstance(t, Variable)}
    if not head_variables <= covered:
        return None
    return query.with_body(remaining)


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Return a minimal (core) query set-equivalent to *query*.

    Greedy subgoal removal: drop any subgoal whose removal preserves set
    equivalence, until no more subgoals can be dropped.  The classical
    theory guarantees the result is the core of the query, unique up to
    isomorphism and independent of removal order.
    """
    current = query
    changed = True
    while changed:
        changed = False
        for index in range(len(current.body)):
            if len(current.body) == 1:
                break
            candidate = drop_atom_if_safe(current, index)
            if candidate is not None and is_set_equivalent(candidate, current):
                current = candidate
                changed = True
                break
    return current


def is_minimal(query: ConjunctiveQuery) -> bool:
    """True when no single subgoal can be dropped without losing equivalence."""
    if len(query.body) == 1:
        return True
    for index in range(len(query.body)):
        candidate = drop_atom_if_safe(query, index)
        if candidate is not None and is_set_equivalent(candidate, query):
            return False
    return True


def core_endomorphisms(query: ConjunctiveQuery) -> list[dict]:
    """All endomorphisms of *query* (homomorphisms from the query to itself
    that fix the head).

    Useful both for minimization diagnostics and for the Σ-minimality search
    of Definition 3.1, which considers replacing variables of a query by
    other variables of the same query.
    """
    return list(iter_core_endomorphisms(query))


def iter_core_endomorphisms(query: ConjunctiveQuery) -> Iterator[Homomorphism]:
    """:func:`core_endomorphisms` lazily, in the same order.

    A query with n same-predicate atoms that share only the head variable
    has nⁿ endomorphisms, so a search that may stop early should not build
    them all first.
    """
    fixed: dict[Term, Term] = {term: term for term in query.head_terms}
    return iter_homomorphisms(query.body, query.body, fixed=fixed)
