"""Σ-minimality of conjunctive queries (Definition 3.1 of the paper).

A CQ query Q is Σ-minimal when there are no queries S1 (obtained from Q by
replacing zero or more variables with other variables of Q) and S2 (obtained
from S1 by dropping at least one atom) that remain equivalent to Q under Σ.
For aggregate queries, Σ-minimality is Σ-minimality of the core.

The variable-replacement space of Definition 3.1 is all mappings from Q's
variables to Q's variables, which is exponential; following standard C&B
practice, :func:`is_sigma_minimal` searches only the substitutions induced
by the query's own head-preserving endomorphisms (plus the identity).  That
is **not exact**: a replacement that merges two atoms only once Σ's egds are
taken into account is no endomorphism of Q.  With the key
``r(X,Y) & r(X,Z) -> Y = Z``, the function calls
``Q(X) :- r(X,Y), r(X,Z), s(Y), t(Z)`` Σ-minimal under set and bag-set
semantics, yet replacing Z by Y and dropping the repeated ``r`` atom gives
``Q(X) :- r(X,Y), s(Y), t(Y)``, which :meth:`repro.session.Session.decide`
finds Σ-equivalent to Q under both.  On C&B's own outputs the restricted
search agrees with an exhaustive search of every variable→variable map
(the Definition 3.1 leg of ``tests/test_reformulation.py``, run on the
paper workloads and the seed-0 fuzz campaign).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ..core.aggregate import AggregateQuery
from ..core.minimization import iter_core_endomorphisms
from ..core.query import ConjunctiveQuery
from ..core.terms import Term, Variable
from ..dependencies.base import Dependency, DependencySet
from ..semantics import Semantics
from ..chase.set_chase import DEFAULT_MAX_STEPS
from ..equivalence.under_dependencies import equivalent_under_dependencies


def _candidate_substitutions(query: ConjunctiveQuery) -> Iterator[dict[Term, Term]]:
    """Identity, then the query's head-preserving variable→variable endomorphisms.

    Lazy, so a search that finds an equivalent shortened query early never
    enumerates the rest (there can be nⁿ of them).
    """
    yield {}
    seen: set[frozenset[tuple[Term, Term]]] = set()
    for endomorphism in iter_core_endomorphisms(query):
        mapping: dict[Term, Term] = {
            source: target
            for source, target in endomorphism.items()
            if isinstance(source, Variable) and isinstance(target, Variable)
            and source != target
        }
        key = frozenset(mapping.items())
        if mapping and key not in seen:
            seen.add(key)
            yield mapping


def is_sigma_minimal(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics | str = Semantics.SET,
    max_steps: int = DEFAULT_MAX_STEPS,
    equivalent_fn: Callable[[ConjunctiveQuery, ConjunctiveQuery], bool] | None = None,
) -> bool:
    """Definition 3.1: is *query* Σ-minimal under the given semantics?

    The search applies each candidate variable substitution (identity and the
    query's head-preserving endomorphisms), then tries to drop each atom of
    the substituted query and asks whether the shortened query is still
    Σ-equivalent to the original.  ``equivalent_fn(shortened, query) -> bool``
    overrides the equivalence probe — the Session engine injects its
    cache-aware decision procedure here.
    """
    if equivalent_fn is None:
        equivalent_fn = lambda shortened, original: equivalent_under_dependencies(  # noqa: E731
            shortened, original, dependencies, semantics, max_steps
        )
    return not _drops_to_an_equivalent(query, _candidate_substitutions(query), equivalent_fn)


def _drops_to_an_equivalent(
    query: ConjunctiveQuery,
    substitutions: Iterable[dict[Term, Term]],
    equivalent_fn: Callable[[ConjunctiveQuery, ConjunctiveQuery], bool],
) -> bool:
    """Does some substitution, followed by dropping one atom, keep *query*'s equivalence?

    The substitutions are tried in order, and the atoms of each substituted
    query in body order; the search stops at the first equivalent shortened
    query.
    """
    from ..core.minimization import drop_atom_if_safe

    for substitution in substitutions:
        substituted = query.substitute(substitution) if substitution else query
        if len(substituted.body) <= 1:
            continue
        for index in range(len(substituted.body)):
            shortened = drop_atom_if_safe(substituted, index)
            if shortened is None:
                continue
            if equivalent_fn(shortened, query):
                return True
    return False


def sigma_minimize(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics | str = Semantics.SET,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ConjunctiveQuery:
    """Greedily minimize *query* while preserving Σ-equivalence.

    Repeatedly drops any body subgoal whose removal keeps the query
    Σ-equivalent to the original under the chosen semantics (the
    subgoal-removal half of Definition 3.1), until no single subgoal can be
    dropped.  This is the "query minimization" use of the equivalence tests
    that the paper's introduction motivates: under set semantics it
    generalises the classical Chandra–Merlin minimization with dependency
    awareness; under bag / bag-set semantics it only drops subgoals whose
    removal provably preserves answer multiplicities.
    """
    semantics = Semantics.from_name(semantics)
    from ..core.minimization import drop_atom_if_safe

    current = query
    changed = True
    while changed:
        changed = False
        for index in range(len(current.body)):
            if len(current.body) == 1:
                break
            candidate = drop_atom_if_safe(current, index)
            if candidate is None:
                continue
            if equivalent_under_dependencies(
                candidate, query, dependencies, semantics, max_steps
            ):
                current = candidate
                changed = True
                break
    return current


def is_sigma_minimal_aggregate(
    query: AggregateQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """Σ-minimality of an aggregate query = Σ-minimality of its core.

    The core of a max/min query is judged under set semantics, the core of a
    sum/count query under bag-set semantics, mirroring Theorem 6.3.
    """
    semantics = (
        Semantics.BAG_SET
        if query.aggregate.function.is_duplicate_sensitive
        else Semantics.SET
    )
    return is_sigma_minimal(query.core(), dependencies, semantics, max_steps)
