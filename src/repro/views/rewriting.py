"""View-based query rewriting under set, bag, and bag-set semantics.

This is the application the paper positions its framework for (Section 1 and
the contributions list): finding rewritings of a CQ query in terms of view
predicates that are equivalent to the query *in presence of the schema's
embedded dependencies*, under the query-evaluation semantics of interest.

The algorithm is the view-based C&B recipe, made bag-aware with the paper's
machinery:

1. extend the dependency set with the exact-view tgds (forward + backward,
   :meth:`repro.views.definitions.ViewSet.view_dependencies`); DISTINCT views
   additionally become set-enforced relations;
2. chase the input query under *set semantics* over the combined dependency
   set — the resulting universal plan mentions both base and view predicates
   and is used purely as a candidate generator (the set chase introduces
   every view atom the dependencies can justify, which a bag-sound chase by
   design would refuse to add);
3. enumerate subqueries of the universal plan; keep those that use only view
   predicates (total rewritings) or, optionally, mixed base/view bodies
   (partial rewritings);
4. accept a candidate iff its *expansion* is Σ-equivalent to the input query
   under the chosen semantics (Theorems 2.2 / 6.1 / 6.2 applied through
   :func:`repro.equivalence.equivalent_under_dependencies`) — this validation
   step, not the candidate generation, is what carries the bag / bag-set
   soundness guarantees.

Correctness assumptions, spelled out because bag semantics makes them
visible: a view defined **without** DISTINCT is materialised as a bag whose
tuple multiplicities are those of its defining query under bag / bag-set
semantics, so a rewriting's answer over the materialised views coincides
with its expansion's answer over the base database and the expansion test
decides correctness.  A view defined **with** DISTINCT is materialised as a
set, which in general *loses* multiplicities; under bag and bag-set
semantics such a view is therefore only used when its defining query
provably produces no duplicates in the first place (no projection of body
variables and every body relation set enforced) — a conservative sufficient
condition.  Under set semantics DISTINCT is immaterial and every view is
usable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..core.atoms import Atom
from ..core.homomorphism import are_isomorphic
from ..core.query import ConjunctiveQuery
from ..dependencies.base import Dependency, DependencySet
from ..equivalence.under_dependencies import equivalent_under_dependencies
from ..exceptions import ReformulationError
from ..reformulation.candidates import iter_subqueries
from ..reformulation.cb import IsomorphismBuckets
from ..semantics import Semantics
from ..chase.incremental import ChaseDelta
from ..chase.set_chase import DEFAULT_MAX_STEPS
from ..chase.sound_chase import sound_chase
from ..session import Session
from .definitions import ViewDefinition, ViewSet


def _distinct_view_is_duplicate_free(
    view: ViewDefinition, dependencies: DependencySet
) -> bool:
    """Can this DISTINCT view never collapse duplicates?

    Sufficient condition: the definition projects no body variable away and
    every body relation is set enforced — then the defining query returns a
    set under bag and bag-set semantics anyway, so materialising it with
    DISTINCT changes nothing.
    """
    head_variables = set(view.definition.head_variables())
    body_variables = set(view.definition.body_variables())
    if not body_variables <= head_variables:
        return False
    return all(
        dependencies.is_set_valued(atom.predicate) for atom in view.definition.body
    )


def _view_usable_under(
    view: ViewDefinition, semantics: Semantics, dependencies: DependencySet
) -> bool:
    """May *view* appear in a rewriting evaluated under *semantics*?

    Non-DISTINCT views are bags that reproduce their definition's
    multiplicities, so they are always usable; DISTINCT views are usable
    under set semantics unconditionally and under bag / bag-set semantics
    only when they provably produce no duplicates.
    """
    if not view.distinct or semantics is Semantics.SET:
        return True
    return _distinct_view_is_duplicate_free(view, dependencies)


@dataclass
class ViewRewritingResult:
    """Output of :func:`rewrite_query_using_views`."""

    query: ConjunctiveQuery
    semantics: Semantics
    universal_plan: ConjunctiveQuery
    rewritings: list[ConjunctiveQuery] = field(default_factory=list)
    expansions: dict[int, ConjunctiveQuery] = field(default_factory=dict)
    candidates_examined: int = 0

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.rewritings)

    def __len__(self) -> int:
        return len(self.rewritings)

    def expansion_of(self, rewriting: ConjunctiveQuery) -> ConjunctiveQuery:
        """The expansion that was used to validate *rewriting*."""
        return self.expansions[id(rewriting)]

    def contains_isomorphic(self, query: ConjunctiveQuery) -> bool:
        """Is some accepted rewriting isomorphic to *query*?"""
        return any(are_isomorphic(candidate, query) for candidate in self.rewritings)

    def __str__(self) -> str:
        lines = [
            f"view rewritings of {self.query} under {self.semantics}:",
            f"  universal plan: {self.universal_plan}",
        ]
        lines.extend(f"  {rewriting}" for rewriting in self.rewritings)
        return "\n".join(lines)


def rewrite_query_using_views(
    query: ConjunctiveQuery,
    views: ViewSet,
    dependencies: DependencySet | Sequence[Dependency] = (),
    semantics: Semantics | str = Semantics.SET,
    total_only: bool = True,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_candidate_size: int | None = None,
) -> ViewRewritingResult:
    """Find view-based rewritings of *query* equivalent under Σ and *semantics*.

    ``total_only`` restricts the output to rewritings whose body uses view
    predicates exclusively; with ``total_only=False`` mixed base/view bodies
    are reported as well (useful when the views alone cannot answer the
    query).  The input query itself (all-base body) is never reported.
    """
    semantics = Semantics.from_name(semantics)
    if not isinstance(dependencies, DependencySet):
        dependencies = DependencySet(dependencies)
    if any(atom.predicate in views.view_names() for atom in query.body):
        raise ReformulationError(
            "the input query must be phrased over the base schema; "
            "rewritings over the views are the output"
        )

    combined = views.combined_dependencies(dependencies)
    # Candidate generation always uses the set chase (see the module
    # docstring); per-candidate validation below uses the requested semantics.
    universal_plan = sound_chase(query, combined, Semantics.SET, max_steps).query
    return _collect_rewritings(
        query,
        views,
        dependencies,
        semantics,
        universal_plan,
        total_only=total_only,
        max_steps=max_steps,
        max_candidate_size=max_candidate_size,
    )


def _collect_rewritings(
    query: ConjunctiveQuery,
    views: ViewSet,
    dependencies: DependencySet,
    semantics: Semantics,
    universal_plan: ConjunctiveQuery,
    *,
    total_only: bool,
    max_steps: int,
    max_candidate_size: int | None,
) -> ViewRewritingResult:
    """Steps 3–4 of the recipe: enumerate and validate subquery candidates.

    Shared by :func:`rewrite_query_using_views` (which chases the universal
    plan cold) and :class:`IncrementalViewRewriter` (which maintains it
    across deltas); any terminal set-chase fixpoint of the combined
    dependency set works as *universal_plan* — resumed and cold fixpoints
    differ only up to Σ-equivalence, and the per-candidate expansion test
    carries the correctness guarantee either way.
    """
    result = ViewRewritingResult(
        query=query, semantics=semantics, universal_plan=universal_plan
    )
    usable_views = {
        view.name
        for view in views
        if _view_usable_under(view, semantics, dependencies)
    }
    distinct = IsomorphismBuckets()
    for candidate in iter_subqueries(universal_plan, max_size=max_candidate_size):
        used_views = {
            atom.predicate for atom in candidate.body if atom.predicate in views.view_names()
        }
        if not used_views:
            continue
        if total_only and not views.uses_only_views(candidate):
            continue
        if not used_views <= usable_views:
            continue
        result.candidates_examined += 1
        expansion = views.expand(candidate)
        if not equivalent_under_dependencies(
            expansion, query, dependencies, semantics, max_steps
        ):
            continue
        if not distinct.add_if_new(candidate):
            continue
        result.rewritings.append(candidate)
        result.expansions[id(candidate)] = expansion
    return result


class IncrementalViewRewriter:
    """Maintain view-based rewritings while the query and Σ grow.

    The dominant cost of :func:`rewrite_query_using_views` on a warm
    workload is step 2 — re-chasing the input to its universal plan after
    every edit.  This maintainer runs that chase on a private
    ``Session(chase_resumable=True)``: :meth:`add_atoms` and
    :meth:`add_dependencies` go through :meth:`Session.apply_delta
    <repro.session.Session.apply_delta>`, which advances the universal-plan
    fixpoint from its checkpoint instead of rechasing, then re-run only
    candidate enumeration and validation.

    The maintainer owns its working dependency order: it starts from
    ``views.combined_dependencies(dependencies)`` and *appends* every added
    dependency at the end, so each checkpoint's Σ stays a prefix of the next
    (the resumability condition).  This differs from what
    ``combined_dependencies`` would produce if rebuilt from the grown base
    set (base dependencies first, view dependencies after) — harmless, since
    chase order only affects the fixpoint's syntax, never its Σ-equivalence
    class, and validation is order-insensitive.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        views: ViewSet,
        dependencies: DependencySet | Sequence[Dependency] = (),
        semantics: Semantics | str = Semantics.SET,
        total_only: bool = True,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_candidate_size: int | None = None,
    ) -> None:
        self.semantics = Semantics.from_name(semantics)
        if not isinstance(dependencies, DependencySet):
            dependencies = DependencySet(dependencies)
        self.views = views
        self.total_only = total_only
        self.max_steps = max_steps
        self.max_candidate_size = max_candidate_size
        self._check_base_only(query.body)
        self._query = query
        # Validation Σ (base + added) and the chase's working Σ (combined,
        # append-only) evolve together but keep different orders; see the
        # class docstring.
        self._dependencies = dependencies
        self._session = Session(
            dependencies=views.combined_dependencies(dependencies),
            default_semantics=Semantics.SET,
            max_steps=max_steps,
            chase_resumable=True,
        )

    def _check_base_only(self, atoms: Iterable[Atom]) -> None:
        if any(atom.predicate in self.views.view_names() for atom in atoms):
            raise ReformulationError(
                "the input query must be phrased over the base schema; "
                "rewritings over the views are the output"
            )

    @property
    def query(self) -> ConjunctiveQuery:
        """The current (delta-accumulated) input query."""
        return self._query

    @property
    def dependencies(self) -> DependencySet:
        """The current base dependency set used for validation."""
        return self._dependencies

    def rewrite(self) -> ViewRewritingResult:
        """Rewritings for the current state (chases only what a delta needs)."""
        universal_plan = self._session.chase(self._query).query
        return _collect_rewritings(
            self._query,
            self.views,
            self._dependencies,
            self.semantics,
            universal_plan,
            total_only=self.total_only,
            max_steps=self.max_steps,
            max_candidate_size=self.max_candidate_size,
        )

    def _apply(self, delta: ChaseDelta) -> None:
        # The current state's chase leaves the checkpoint the delta resumes
        # from (a cache hit once the state has been chased).
        self._session.chase(self._query)
        checkpoint = self._session.apply_delta(self._query, delta).checkpoint
        assert checkpoint is not None  # apply_delta always leaves one
        self._query = checkpoint.base_query

    def add_atoms(self, atoms: Iterable[Atom]) -> ViewRewritingResult:
        """Grow the input query's body and re-derive the rewritings."""
        added = tuple(atoms)
        self._check_base_only(added)
        self._apply(ChaseDelta.atoms(*added))
        return self.rewrite()

    def add_dependencies(
        self, dependencies: Sequence[Dependency]
    ) -> ViewRewritingResult:
        """Grow the base dependency set and re-derive the rewritings."""
        added = tuple(dependencies)
        self._apply(ChaseDelta.dependencies(*added))
        base = list(self._dependencies.dependencies) + list(added)
        self._dependencies = DependencySet(
            base, self._dependencies.set_valued_predicates
        )
        return self.rewrite()

    def stats(self) -> dict[str, object]:
        """Resumed-vs-cold counters of the universal-plan chase: the private
        Session's ``incremental`` stats."""
        incremental = self._session.stats()["incremental"]
        assert isinstance(incremental, dict)
        return incremental


def is_correct_rewriting(
    rewriting: ConjunctiveQuery,
    query: ConjunctiveQuery,
    views: ViewSet,
    dependencies: DependencySet | Sequence[Dependency] = (),
    semantics: Semantics | str = Semantics.SET,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """The expansion test: is *rewriting* (over view predicates) equivalent to
    *query* under Σ and the chosen semantics?

    DISTINCT views that may collapse duplicates make the rewriting incorrect
    under bag / bag-set semantics regardless of the expansion, so such
    rewritings are rejected up front (same conservative rule as
    :func:`rewrite_query_using_views`).
    """
    semantics = Semantics.from_name(semantics)
    if not isinstance(dependencies, DependencySet):
        dependencies = DependencySet(dependencies)
    for atom in rewriting.body:
        if atom.predicate in views.view_names():
            view = views.view(atom.predicate)
            if not _view_usable_under(view, semantics, dependencies):
                return False
    expansion = views.expand(rewriting)
    return equivalent_under_dependencies(
        expansion, query, dependencies, semantics, max_steps
    )
