"""Dependency-free equivalence tests under bag and bag-set semantics.

Implements the Chaudhuri–Vardi characterisations (Theorem 2.1 of the paper)
and the paper's own extension to schemas where some relations are forced to
be set valued (Theorem 4.2):

* ``Q ≡B Q'``    iff Q and Q' are isomorphic;
* ``Q ≡BS Q'``   iff their canonical representations are isomorphic;
* with set-enforced relations ``P1..Pk`` (and no other dependencies),
  ``Q ≡B Q'`` iff the queries obtained by dropping duplicate subgoals over
  ``P1..Pk`` are isomorphic.

Also provided is the necessary condition for bag containment from
Chaudhuri–Vardi that the paper re-proves in Appendix D (Lemma D.1): if
``Q1 ⊑B Q2`` then, for every predicate, Q2 has at least as many subgoals
with that predicate as Q1 does.  The corresponding helper
:func:`violates_bag_containment_count_condition` is used by property tests
and by the counterexample-database constructions.
"""

from __future__ import annotations

from typing import Iterable

from .homomorphism import are_isomorphic
from .query import ConjunctiveQuery


def is_bag_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Decide ``Q1 ≡B Q2`` in the absence of dependencies (Theorem 2.1(1))."""
    return are_isomorphic(q1, q2)


def is_bag_set_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Decide ``Q1 ≡BS Q2`` in the absence of dependencies (Theorem 2.1(2)).

    The test is isomorphism of the canonical representations (duplicate
    subgoals dropped).
    """
    return are_isomorphic(q1.canonical_representation(), q2.canonical_representation())


def is_bag_equivalent_with_set_enforced(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    set_valued_predicates: Iterable[str],
) -> bool:
    """Decide bag equivalence in the presence of set-enforcing constraints only.

    Theorem 4.2: with ``P1..Pk`` the relations required to be set valued in
    every instance (and no other dependencies), ``Q1 ≡B Q2`` iff the queries
    obtained by dropping duplicate subgoals whose predicates are among
    ``P1..Pk`` are isomorphic.
    """
    predicates = set(set_valued_predicates)
    reduced1 = q1.drop_duplicates_for(predicates)
    reduced2 = q2.drop_duplicates_for(predicates)
    return are_isomorphic(reduced1, reduced2)


def violates_bag_containment_count_condition(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> list[str]:
    """Predicates witnessing that ``Q1 ⊑B Q2`` cannot hold.

    Chaudhuri–Vardi (re-proved as part of Appendix D): Q1 is bag contained in
    Q2 only if, for each predicate used in Q1, Q2 has at least as many
    subgoals with that predicate as Q1 does.  Returns the list of predicates
    for which Q1 has strictly more subgoals than Q2 — an empty list means the
    necessary condition is satisfied (which does *not* by itself imply
    containment).
    """
    counts1 = q1.predicate_counts()
    counts2 = q2.predicate_counts()
    return sorted(
        predicate
        for predicate, count in counts1.items()
        if count > counts2.get(predicate, 0)
    )
