"""Chase & Backchase (C&B) and its bag / bag-set variants (Section 6.3, Appendix A).

The generic driver :func:`chase_and_backchase` implements the two-phase
algorithm:

1. **chase phase** — chase the input query under Σ (with the chase that is
   sound for the chosen semantics) to obtain the *universal plan*;
2. **backchase phase** — enumerate the safe subqueries of the universal
   plan, chase each candidate (unless the verdict table below settles it),
   and keep the candidates whose chase result is equivalent to the
   universal plan under the dependency-free test matching the semantics
   (Theorem 2.2 / 6.1 / 6.2).

The result records the universal plan, every equivalent reformulation found,
and the Σ-minimal ones among them.  ``c_and_b``, ``bag_c_and_b``, and
``bag_set_c_and_b`` are the paper's named algorithms (Theorem A.1, 6.4, K.1);
all are sound and complete whenever the set chase of the input terminates.

**The verdict table.**  The algorithms need only each candidate's verdict
against the universal plan U, and many verdicts follow from others.  Under
the three built-in strategies the backchase records every verdict in a
table keyed by the candidate's U-body positions (candidates still come
smallest first) and settles a candidate without chasing it by three exact
rules:

1. *refutation* (every semantics): each built-in test needs every predicate
   of U in the chased candidate, a tgd adds its conclusion predicates only
   once its premise predicates are present, and egds add none; so if Σ's
   tgds cannot reach every predicate of U from the candidate's predicates,
   the verdict is False;
2. *upward closure* (set semantics): a candidate S that contains an
   accepted candidate S′ is accepted, since U ⊑ S ⊑ S′ ≡Σ U;
3. *minimality from the table*: a Σ-minimality probe whose shortened query
   is a sub-multiset of U's body (always the case under the identity
   substitution) gets that candidate's verdict, since each built-in test is
   an equivalence relation and the probed reformulation is equivalent to U.
   Only the other probes call :meth:`Session.decide`.

A third-party strategy's test need not have these properties, so its C&B
chases every candidate.  The rules change no output; the one observable
difference is that a candidate settled by a rule is never chased, so it can
no longer raise from its own chase (e.g. by exhausting its step budget).
``ReformulationResult.candidates_chased`` counts the candidates that were.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, cast

from ..core.homomorphism import are_isomorphic
from ..core.query import ConjunctiveQuery
from ..dependencies.base import TGD, Dependency, DependencySet
from ..semantics import Semantics
from ..chase.set_chase import DEFAULT_MAX_STEPS, ChaseResult
from ..chase.sound_chase import sound_chase
from ..session.strategies import BUILTIN_STRATEGIES
from .candidates import iter_indexed_subqueries, iter_subqueries, subquery_atom_indices
from .minimality import is_sigma_minimal

if TYPE_CHECKING:
    from ..session.engine import Session


@dataclass
class ReformulationResult:
    """Output of a C&B run."""

    query: ConjunctiveQuery
    #: The :class:`~repro.semantics.Semantics` member for the paper's three
    #: semantics; results produced through a third-party strategy carry that
    #: strategy's token (its name string) instead.
    semantics: Semantics | str
    universal_plan: ConjunctiveQuery
    reformulations: list[ConjunctiveQuery] = field(default_factory=list)
    minimal_reformulations: list[ConjunctiveQuery] = field(default_factory=list)
    candidates_examined: int = 0
    #: Candidates whose verdict needed a chase (cache hits included); the
    #: others were settled by the verdict table's rules.
    candidates_chased: int = 0
    chase_result: ChaseResult | None = None

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.minimal_reformulations)

    def __len__(self) -> int:
        return len(self.minimal_reformulations)

    def contains_isomorphic(self, query: ConjunctiveQuery, minimal_only: bool = False) -> bool:
        """Is some (minimal) reformulation isomorphic to *query*?"""
        pool = self.minimal_reformulations if minimal_only else self.reformulations
        return any(are_isomorphic(candidate, query) for candidate in pool)

    def __str__(self) -> str:
        lines = [
            f"C&B under {self.semantics} for {self.query}",
            f"  universal plan: {self.universal_plan}",
            f"  {len(self.reformulations)} equivalent reformulations, "
            f"{len(self.minimal_reformulations)} Σ-minimal",
        ]
        lines.extend(f"    {query}" for query in self.minimal_reformulations)
        return "\n".join(lines)


def chase_and_backchase(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: object = Semantics.SET,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_candidate_size: int | None = None,
    check_sigma_minimality: bool = True,
    engine: "Session | None" = None,
) -> ReformulationResult:
    """Run C&B (or its bag / bag-set variant) on *query* under *dependencies*.

    ``max_candidate_size`` caps the body size of backchase candidates (useful
    on large universal plans); ``check_sigma_minimality`` controls whether
    the Definition 3.1 Σ-minimality filter is applied to produce
    ``minimal_reformulations`` (the full list of equivalent reformulations is
    always reported).  ``engine`` is an optional
    :class:`~repro.session.Session`: semantics dispatch goes through its
    registry and every chase — the universal plan, each backchase candidate,
    and the Σ-minimality probes — is served from its chase cache.  Without
    one, an ephemeral Session over *dependencies* is built, so direct
    functional callers get the same candidate-chase caching within the call.
    Under a built-in strategy, candidates and probes the verdict table
    settles (see the module docstring) are not chased at all.
    """
    sigma = DependencySet.coerce(dependencies)

    if engine is None:
        from ..session.engine import Session

        engine = Session(dependencies=sigma)
        sigma = engine.dependencies
    elif engine.dependencies is not sigma:
        # The engine chases (and probes minimality) under its own Σ while the
        # dependency-free test below uses *dependencies*; mixing two Σs would
        # silently produce reformulations equivalent under neither.  Session
        # callers pass engine.dependencies itself, so the identity check
        # skips even the (memoized) fingerprint comparison on that hot path.
        from ..exceptions import ReformulationError

        if engine.dependencies.fingerprint != sigma.fingerprint:
            raise ReformulationError(
                "chase_and_backchase was given an engine whose dependency "
                "set differs from the dependencies argument; use "
                "Session.reformulate, or pass engine.dependencies"
            )
    session = engine

    strategy = session.strategy_for(semantics)
    # Built-in strategies stamp the Semantics member, third-party ones their
    # name string (SemanticsStrategy.token's contract); the cast records that.
    semantics_label = cast("Semantics | str", strategy.token)
    chase: Callable[[ConjunctiveQuery], ChaseResult] = lambda q: session.chase(q, strategy.name, max_steps)  # noqa: E731
    equivalence_test: Callable[[ConjunctiveQuery, ConjunctiveQuery], bool] = lambda q1, q2: strategy.equivalent_chased(q1, q2, sigma)  # noqa: E731

    chase_result = chase(query)
    universal_plan = chase_result.query
    table = (
        _VerdictTable(universal_plan, sigma, upward_closed=strategy.token is Semantics.SET)
        if type(strategy) in BUILTIN_STRATEGIES
        else None
    )

    def minimality_equivalent(shortened: ConjunctiveQuery, original: ConjunctiveQuery) -> bool:
        verdict = None if table is None else table.lookup(shortened)
        if verdict is None:
            verdict = bool(session.decide(shortened, original, strategy.name, max_steps))
        return verdict

    reformulations: list[ConjunctiveQuery] = []
    distinct = IsomorphismBuckets()
    examined = chased = 0
    for positions, candidate in iter_indexed_subqueries(
        universal_plan, max_size=max_candidate_size
    ):
        examined += 1
        verdict = None if table is None else table.settle(positions)
        if verdict is None:
            chased += 1
            verdict = equivalence_test(chase(candidate).query, universal_plan)
            if table is not None:
                table.record(positions, verdict)
        if verdict and distinct.add_if_new(candidate):
            reformulations.append(candidate)

    if check_sigma_minimality:
        minimal = [
            candidate
            for candidate in reformulations
            if is_sigma_minimal(
                candidate,
                sigma,
                semantics_label,
                max_steps,
                equivalent_fn=minimality_equivalent,
            )
        ]
    else:
        # Fall back to subset-minimality: keep candidates none of whose
        # accepted strict sub-bodies is also accepted.
        minimal = []
        for candidate in reformulations:
            has_smaller = any(
                other is not candidate
                and len(other.body) < len(candidate.body)
                and set(other.body) <= set(candidate.body)
                for other in reformulations
            )
            if not has_smaller:
                minimal.append(candidate)

    return ReformulationResult(
        query=query,
        semantics=semantics_label,
        universal_plan=universal_plan,
        reformulations=reformulations,
        minimal_reformulations=minimal,
        candidates_examined=examined,
        candidates_chased=chased,
        chase_result=chase_result,
    )


def _position_mask(positions: Sequence[int]) -> int:
    mask = 0
    for position in positions:
        mask |= 1 << position
    return mask


class _VerdictTable:
    """Backchase verdicts keyed by U-body positions, and the three rules.

    See the module docstring for the rules and their proofs.  Positions are
    held as bitmasks, so the upward-closure test is one ``&`` per accepted
    candidate.  Only the built-in strategies get a table: the proofs rely on
    their equivalence tests.
    """

    __slots__ = (
        "_plan",
        "_verdicts",
        "_predicates",
        "_needed",
        "_tgds",
        "_upward_closed",
        "_accepted",
    )

    def __init__(
        self, universal_plan: ConjunctiveQuery, sigma: DependencySet, *, upward_closed: bool
    ):
        self._plan = universal_plan
        self._verdicts: dict[int, bool] = {}
        self._predicates = [atom.predicate for atom in universal_plan.body]
        self._needed = frozenset(self._predicates)
        self._tgds = [
            (
                frozenset(atom.predicate for atom in dependency.premise),
                frozenset(atom.predicate for atom in dependency.conclusion),
            )
            for dependency in sigma.dependencies
            if isinstance(dependency, TGD)
        ]
        self._upward_closed = upward_closed
        #: Masks of the candidates accepted by a chase; under upward closure
        #: every other accepted candidate contains one of them.
        self._accepted: list[int] = []

    def settle(self, positions: Sequence[int]) -> bool | None:
        """Rules 2 and 1: the verdict of the candidate at *positions*, or None to chase it."""
        mask = _position_mask(positions)
        if self._upward_closed and any(
            mask & accepted == accepted for accepted in self._accepted
        ):
            verdict = True
        elif not self._reaches_needed({self._predicates[i] for i in positions}):
            verdict = False
        else:
            return None
        self._verdicts[mask] = verdict
        return verdict

    def record(self, positions: Sequence[int], verdict: bool) -> None:
        """Store the verdict a chase gave the candidate at *positions*."""
        mask = _position_mask(positions)
        self._verdicts[mask] = verdict
        if verdict:
            self._accepted.append(mask)

    def lookup(self, query: ConjunctiveQuery) -> bool | None:
        """Rule 3: the verdict of *query* when its body is a sub-multiset of U's body."""
        positions = subquery_atom_indices(self._plan, query)
        return None if positions is None else self._verdicts.get(_position_mask(positions))

    def _reaches_needed(self, reached: set[str]) -> bool:
        """Can Σ's tgds, fired from the predicates *reached*, produce every predicate of U?"""
        pending = self._tgds
        while not self._needed <= reached:
            waiting = []
            for premise, conclusion in pending:
                if premise <= reached:
                    reached |= conclusion
                else:
                    waiting.append((premise, conclusion))
            if len(waiting) == len(pending):
                return False
            pending = waiting
        return True


class IsomorphismBuckets:
    """Accepted queries, each admitted only if no isomorphic one was.

    Queries are bucketed by their sorted body predicates, which isomorphic
    queries always share, so a new query is compared only within its bucket.
    ``are_isomorphic`` is looked up in this module at call time.
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: dict[tuple[str, ...], list[ConjunctiveQuery]] = {}

    def add_if_new(self, query: ConjunctiveQuery) -> bool:
        """Admit *query* unless it is isomorphic to an admitted one."""
        key = tuple(sorted(atom.predicate for atom in query.body))
        bucket = self._buckets.setdefault(key, [])
        if any(are_isomorphic(query, existing) for existing in bucket):
            return False
        bucket.append(query)
        return True


def _cb_deprecation_message(deprecated_name: str, semantics: Semantics) -> str:
    return (
        f"{deprecated_name}() is deprecated; use "
        f"Session(dependencies=...).reformulate(query, semantics={semantics.value!r})"
    )


def _session_reformulate(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics,
    max_steps: int,
    **kwargs: Any,
) -> ReformulationResult:
    """Shared body of the deprecated per-semantics C&B wrappers.

    The :class:`DeprecationWarning` is emitted by each wrapper itself with
    ``stacklevel=2`` (not from here), so it points at the wrapper's caller.
    """
    from ..session.engine import Session

    return Session(dependencies=dependencies, max_steps=max_steps).reformulate(
        query, semantics, **kwargs
    )


def c_and_b(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    **kwargs: Any,
) -> ReformulationResult:
    """The original set-semantics C&B of Deutsch et al. (Appendix A).

    Deprecated shim: delegates to ``Session.reformulate(semantics="set")``.
    """
    warnings.warn(
        _cb_deprecation_message("c_and_b", Semantics.SET),
        DeprecationWarning,
        stacklevel=2,
    )
    return _session_reformulate(query, dependencies, Semantics.SET, max_steps, **kwargs)


def bag_c_and_b(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    **kwargs: Any,
) -> ReformulationResult:
    """Bag-C&B (Theorem 6.4): Σ-minimal reformulations under bag semantics.

    Deprecated shim: delegates to ``Session.reformulate(semantics="bag")``.
    """
    warnings.warn(
        _cb_deprecation_message("bag_c_and_b", Semantics.BAG),
        DeprecationWarning,
        stacklevel=2,
    )
    return _session_reformulate(query, dependencies, Semantics.BAG, max_steps, **kwargs)


def bag_set_c_and_b(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    **kwargs: Any,
) -> ReformulationResult:
    """Bag-Set-C&B (Theorem K.1): Σ-minimal reformulations under bag-set semantics.

    Deprecated shim: delegates to ``Session.reformulate(semantics="bag-set")``.
    """
    warnings.warn(
        _cb_deprecation_message("bag_set_c_and_b", Semantics.BAG_SET),
        DeprecationWarning,
        stacklevel=2,
    )
    return _session_reformulate(query, dependencies, Semantics.BAG_SET, max_steps, **kwargs)


def naive_bag_c_and_b(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    **kwargs: Any,
) -> ReformulationResult:
    """The *unsound* naive extension of C&B discussed in Section 4.1.

    It chases with the ordinary set chase and merely swaps in the
    dependency-free bag-equivalence test (query isomorphism).  Example 4.1
    shows this accepts reformulations that are not bag equivalent to the
    input; it is provided so tests and the E9 benchmark can reproduce that
    failure mode and contrast it with :func:`bag_c_and_b`.
    """
    semantics = Semantics.BAG
    dependencies = DependencySet.coerce(dependencies)
    chase_result = sound_chase(query, dependencies, Semantics.SET, max_steps)
    universal_plan = chase_result.query
    reformulations: list[ConjunctiveQuery] = []
    distinct = IsomorphismBuckets()
    examined = 0
    for candidate in iter_subqueries(universal_plan, max_size=kwargs.get("max_candidate_size")):
        examined += 1
        chased_candidate = sound_chase(
            candidate, dependencies, Semantics.SET, max_steps
        ).query
        # The naive test of Section 4.1: plain bag equivalence (isomorphism,
        # Theorem 2.1) between the set-chase results.
        if are_isomorphic(chased_candidate, universal_plan) and distinct.add_if_new(candidate):
            reformulations.append(candidate)
    return ReformulationResult(
        query=query,
        semantics=semantics,
        universal_plan=universal_plan,
        reformulations=reformulations,
        minimal_reformulations=list(reformulations),
        candidates_examined=examined,
        candidates_chased=examined,
        chase_result=chase_result,
    )
