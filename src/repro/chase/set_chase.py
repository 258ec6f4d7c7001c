"""Set-semantics chase of conjunctive queries (Section 2.4).

``set_chase(Q, Σ)`` repeatedly applies tgd and egd chase steps until the
canonical database of the current query satisfies every dependency (i.e. no
step is applicable), or the step budget is exhausted.  The chase is run with
a deterministic strategy — egds are given priority, dependencies are tried in
their given order, and the first applicable homomorphism (in the
deterministic order produced by the homomorphism search) is applied — so
repeated runs produce the same result.  All terminal chase results of a
query are set-equivalent in the absence of dependencies, so determinism is a
convenience, not a correctness requirement.

Chase termination is undecidable in general; weakly acyclic dependency sets
(see :mod:`repro.dependencies.weak_acyclicity`) are guaranteed to terminate.
A :class:`~repro.exceptions.ChaseNonTerminationError` is raised when the
budget runs out.

A chase step's Python work follows what the step adds.  The run keeps one
:class:`~repro.core.homomorphism.TargetIndex` over the body: a tgd step only
appends atoms, so it extends the index with them, and only an egd step,
which rewrites terms, rebuilds it.  A tgd step is applied through the tgd's
compiled :class:`~repro.chase.plans.TGDPlan`, which checks fresh names
against the run's used-name set alone and skips the grown query's safety
check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..core.homomorphism import Homomorphism, TargetIndex
from ..core.query import ConjunctiveQuery
from ..core.terms import Term
from ..dependencies.base import EGD, Dependency, DependencySet
from ..exceptions import ChaseNonTerminationError
from ..semantics import Semantics
from .delta import ChaseCapture, TriggerIndex
from .plans import EGDPlan, PlanCache, SigmaPlans, TGDPlan, default_plan_cache
from .profile import ChaseProfile, snapshot_core_stats
from .steps import (
    ChaseStepRecord,
    apply_egd_step,
    apply_tgd_step,
    deduplicate_body,
    iter_applicable_egd_bindings,
    iter_applicable_tgd_bindings,
    trigger_homomorphism,
)

DEFAULT_MAX_STEPS = 2000


@dataclass
class ChaseResult:
    """The outcome of a chase run."""

    query: ConjunctiveQuery
    steps: list[ChaseStepRecord] = field(default_factory=list)
    semantics: Semantics = Semantics.SET
    terminated: bool = True
    #: What the run did and skipped; ``None`` only for results built by hand.
    profile: ChaseProfile | None = None

    @property
    def step_count(self) -> int:
        """Number of chase steps applied."""
        return len(self.steps)

    def __str__(self) -> str:
        lines = [f"chase result ({self.semantics}): {self.query}"]
        lines.extend(f"  {record}" for record in self.steps)
        return "\n".join(lines)


def _first_applicable_egd_step(
    query: ConjunctiveQuery,
    plans: Sequence[EGDPlan],
    index: TargetIndex,
    state: TriggerIndex,
    profile: ChaseProfile,
) -> tuple[EGD, Homomorphism, Term, Term] | None:
    """First applicable egd trigger in Σ order, delta-skipping clean egds.

    Every egd scanned to exhaustion without a trigger is marked clean: its
    no-trigger verdict is stable until an added atom matches its premise or
    an egd step rewrites the query (see :mod:`repro.chase.delta`).
    """
    for position, plan in enumerate(plans):
        if state.is_clean(position):
            profile.dependencies_skipped += 1
            continue
        egd = plan.egd
        for match, left, right in iter_applicable_egd_bindings(
            query, egd, index=index, plan=plan
        ):
            profile.triggers_examined += 1
            # Only the applied trigger crosses the dict boundary.
            return egd, trigger_homomorphism(plan, match), left, right
        state.mark_clean(position)
    return None


def _first_applicable_tgd_step(
    query: ConjunctiveQuery,
    plans: Sequence[TGDPlan],
    index: TargetIndex,
    state: TriggerIndex,
    profile: ChaseProfile,
) -> tuple[TGDPlan, Homomorphism] | None:
    """First applicable tgd trigger in Σ order, delta-skipping clean tgds.

    Under set semantics every applicable homomorphism fires, so a completed
    scan means the tgd has no applicable homomorphism at all — a verdict
    stable under growth (extendability to the conclusion is monotone) and
    therefore always safe to mark clean.  Returns the tgd's plan, which the
    caller applies the step with.
    """
    for position, plan in enumerate(plans):
        if state.is_clean(position):
            profile.dependencies_skipped += 1
            continue
        for match in iter_applicable_tgd_bindings(
            query, plan.tgd, index=index, plan=plan
        ):
            profile.triggers_examined += 1
            # Only the applied trigger crosses the dict boundary.
            return plan, trigger_homomorphism(plan, match)
        state.mark_clean(position)
    return None


def _drive_set_chase(
    current: ConjunctiveQuery,
    plans: SigmaPlans,
    egd_state: TriggerIndex,
    tgd_state: TriggerIndex,
    used_names: set[str],
    records: list[ChaseStepRecord],
    profile: ChaseProfile,
    max_steps: int,
    deduplicate: bool,
) -> ConjunctiveQuery:
    """The delta-driven set-chase loop, from *current* to its fixpoint.

    Shared by :func:`set_chase` (fresh state) and the incremental resume in
    :mod:`repro.chase.incremental` (state seeded from a checkpoint): the
    caller owns the trigger indexes, the used-name set, and the record list,
    so a continuation run starts exactly where a previous fixpoint left off.
    *used_names* must hold every variable name of *current* (tgd steps are
    applied through their compiled plans, see
    :func:`~repro.chase.steps.apply_tgd_step`).  Mutates *records*,
    *used_names*, and the trigger states in place and returns the terminal
    query; raises :class:`ChaseNonTerminationError` after *max_steps*
    rounds.

    One :class:`TargetIndex` serves the run: a tgd step only appends atoms,
    so the index is extended with them; an egd step rewrites terms, so the
    index is rebuilt.  Its counters are retired once per index.
    """
    index = TargetIndex(current.body)
    for _ in range(max_steps):
        profile.rounds += 1
        egd_step = _first_applicable_egd_step(
            current, plans.egd_plans, index, egd_state, profile
        )
        if egd_step is not None:
            egd, hom, left, right = egd_step
            current, record = apply_egd_step(current, egd, hom, left, right)
            if deduplicate:
                current = deduplicate_body(current)
            records.append(record)
            profile.egd_steps += 1
            egd_state.reset()
            tgd_state.reset()
            profile.retire_index(index)
            index = TargetIndex(current.body)
            continue
        tgd_step = _first_applicable_tgd_step(
            current, plans.tgd_plans, index, tgd_state, profile
        )
        if tgd_step is not None:
            plan, hom = tgd_step
            current, record = apply_tgd_step(
                current, plan.tgd, hom, used_names, plan=plan
            )
            records.append(record)
            profile.tgd_steps += 1
            added = {atom.predicate for atom in record.added_atoms}
            egd_state.note_added(added)
            tgd_state.note_added(added)
            index.extend(record.added_atoms)
            continue
        profile.retire_index(index)
        return current
    raise ChaseNonTerminationError(
        f"set chase did not terminate within {max_steps} steps "
        f"({len(plans.items)} dependencies); "
        "either raise max_steps or use weakly acyclic dependencies",
        steps_taken=len(records),
    )


def set_chase(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    regularize: bool = True,
    deduplicate: bool = True,
    *,
    plan_cache: PlanCache | None = None,
    capture: ChaseCapture | None = None,
) -> ChaseResult:
    """Chase *query* with *dependencies* under set semantics to termination.

    ``regularize`` replaces every tgd by its regularized set first
    (Proposition 4.1 guarantees this does not change the result up to
    equivalence); ``deduplicate`` drops duplicate subgoals after egd steps,
    which is always harmless under set semantics.

    The loop is delta-driven: one :class:`TargetIndex` over the current body
    is shared by every dependency probe of the run (grown in place by tgd
    steps, rebuilt after egd steps), a :class:`TriggerIndex`
    per dependency kind skips dependencies that provably cannot have gained
    a trigger since their last clean scan, and each dependency's compiled
    match plans are served per Σ from ``plan_cache`` (default: the
    process-wide cache) and reused across rounds and runs.  The applied step
    sequence is identical to a full rescan every round.

    ``capture``, when given, receives the terminal trigger frontier and the
    run's used-name set — the raw material of a resumable checkpoint (see
    :mod:`repro.chase.incremental`).  Nothing is captured on non-termination.
    """
    cache = plan_cache if plan_cache is not None else default_plan_cache()
    plan_stats = cache.snapshot()
    plans = cache.plans_for(dependencies, regularize=regularize)
    egds, tgds = plans.egds, plans.tgds

    profile = ChaseProfile(semantics=str(Semantics.SET))
    started = time.perf_counter()
    core_stats = snapshot_core_stats()
    records: list[ChaseStepRecord] = []
    # Names of every variable ever used in this chase run, so fresh variables
    # never reuse a name eliminated by an earlier egd step.
    used_names = set(query.variable_names())
    egd_state = TriggerIndex.from_trigger_map(len(egds), plans.egd_trigger_map)
    tgd_state = TriggerIndex.from_trigger_map(len(tgds), plans.tgd_trigger_map)
    terminal = _drive_set_chase(
        query, plans, egd_state, tgd_state, used_names, records, profile,
        max_steps, deduplicate,
    )
    profile.record_core_stats(core_stats)
    profile.record_plan_stats(plan_stats, cache)
    profile.wall_time = time.perf_counter() - started
    if capture is not None:
        capture.record(egd_state, tgd_state, used_names)
    return ChaseResult(terminal, records, Semantics.SET, terminated=True, profile=profile)


def set_chase_terminates(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """Convenience wrapper: does the set chase terminate within the budget?"""
    try:
        set_chase(query, dependencies, max_steps=max_steps)
    except ChaseNonTerminationError:
        return False
    return True
