"""Sound chase under bag and bag-set semantics (Section 4 of the paper).

The ordinary set-semantics chase is *not* sound under bag or bag-set
semantics: a chase step can change answer multiplicities (Example 4.1).
Theorems 4.1 and 4.3 give the exact conditions under which a step preserves
equivalence:

* **bag semantics** (Theorem 4.1) — a tgd step is sound iff it is an
  assignment-fixing chase step *and* every subgoal it adds is over a
  relation required to be set valued in all instances; an egd step is always
  sound, but duplicate subgoals it creates may be dropped only for
  set-valued relations (Theorem 4.2).
* **bag-set semantics** (Theorem 4.3) — a tgd step is sound iff it is an
  assignment-fixing chase step; egd steps are always sound and duplicates
  may always be dropped.

``sound_chase`` applies only sound steps until none remains; by
Proposition 5.1 this terminates whenever the set chase terminates, and by
Theorem 5.1 (and its bag-set analogue, Theorem G.1) the result is unique up
to bag equivalence (modulo duplicate subgoals over set-valued relations).
Every tgd is regularized before chasing — Theorem 4.1/4.3 require it, and
Examples 4.4–4.5 show the failure modes otherwise.

The loop is delta-driven (see :mod:`repro.chase.delta`): one
:class:`~repro.core.homomorphism.TargetIndex` over the current body serves
every dependency probe of the run — tgd steps extend it with the atoms they
add, egd steps (which rewrite terms) rebuild it — and a
:class:`~repro.chase.delta.TriggerIndex` skips dependencies that provably
cannot have gained a trigger.  Definition 4.3 verdicts are memoized per
canonicalized test query within the run, or settled without a test chase:
full tgds by Proposition 4.3, key-determined tgds by
:class:`~repro.chase.plans.AssignmentFixingRule`, whose query gates are
decided once per run.  Tgd steps are applied through their compiled
:class:`~repro.chase.plans.TGDPlan`, so a step's Python work follows what
it adds.  The applied step sequence is byte-identical to the pre-index
implementation (frozen in :mod:`repro.chase.reference`); each result carries
a :class:`~repro.chase.profile.ChaseProfile` of the work done and skipped.
"""

from __future__ import annotations

import time
from typing import Hashable, Sequence

from ..core.homomorphism import Homomorphism, TargetIndex
from ..core.query import ConjunctiveQuery
from ..dependencies.base import EGD, TGD, Dependency, DependencySet
from ..exceptions import ChaseError, ChaseNonTerminationError
from ..semantics import Semantics
from .assignment_fixing import is_assignment_fixing_for
from .delta import ChaseCapture, TriggerIndex
from .plans import PlanCache, SigmaPlans, TGDPlan, default_plan_cache
from .profile import ChaseProfile, snapshot_core_stats
from .set_chase import DEFAULT_MAX_STEPS, ChaseResult, _first_applicable_egd_step, set_chase
from .steps import (
    ChaseStepRecord,
    apply_egd_step,
    apply_tgd_step,
    deduplicate_body,
    iter_applicable_tgd_bindings,
    trigger_homomorphism,
)


def _split(dependencies: DependencySet | Sequence[Dependency]) -> tuple[
    list[Dependency], frozenset[str]
]:
    if isinstance(dependencies, DependencySet):
        return list(dependencies.dependencies), dependencies.set_valued_predicates
    return list(dependencies), frozenset()


def _first_sound_tgd_step(
    query: ConjunctiveQuery,
    plans: SigmaPlans,
    items_sigma: DependencySet,
    semantics: Semantics,
    set_valued: frozenset[str],
    max_steps: int,
    index: TargetIndex,
    state: TriggerIndex,
    profile: ChaseProfile,
    memo: dict[Hashable, bool],
    plan_cache: PlanCache,
    gates_hold: bool,
) -> tuple[TGDPlan, Homomorphism] | None:
    """First sound tgd trigger in Σ order, delta-skipping where exact.

    A tgd is only marked clean when its scan found *no applicable
    homomorphism at all*: that verdict is stable while added atoms miss the
    premise.  A scan that found applicable-but-not-assignment-fixing
    homomorphisms is left dirty — Definition 4.3's verdict is taken against
    the whole current query and can flip to sound as the query grows, so the
    old full-rescan behaviour is preserved exactly for those tgds (the
    per-run ``memo`` absorbs the repeated test chases instead).

    Two kinds of tgd are assignment fixing for every trigger, so their
    verdicts are read off without a Definition 4.3 test: full tgds
    (Proposition 4.3) and, when *gates_hold* says the run's state passes
    gates 2 and 3 of :class:`~repro.chase.plans.AssignmentFixingRule`,
    key-determined ones.  Only the rest go through
    :func:`is_assignment_fixing_for`.
    Returns the tgd's plan, which the caller applies the step with.
    """
    rule = plans.assignment_fixing_rule()
    for position, plan in enumerate(plans.tgd_plans):
        tgd = plan.tgd
        if semantics is Semantics.BAG:
            # Theorem 4.1(1): every added subgoal must be over a set-valued relation.
            if not all(atom.predicate in set_valued for atom in tgd.conclusion):
                continue
        if state.is_clean(position):
            profile.dependencies_skipped += 1
            continue
        full = not plan.existential
        static = full or (gates_hold and rule.is_key_determined(tgd))
        applicable = False
        for match in iter_applicable_tgd_bindings(
            query, tgd, index=index, plan=plan,
        ):
            applicable = True
            profile.triggers_examined += 1
            # The Definition 4.3 test needs the trigger as a mapping (it
            # instantiates the associated test query with it), so applicable
            # triggers — and only those — cross the dict boundary.
            homomorphism = trigger_homomorphism(plan, match)
            if static:
                if not full:
                    profile.assignment_fixing_static += 1
                return plan, homomorphism
            if is_assignment_fixing_for(
                query, tgd, homomorphism, items_sigma, max_steps,
                memo=memo, profile=profile, plan_cache=plan_cache,
            ):
                return plan, homomorphism
        if not applicable:
            state.mark_clean(position)
    return None


def _drive_sound_chase(
    current: ConjunctiveQuery,
    plans: SigmaPlans,
    items_sigma: DependencySet,
    semantics: Semantics,
    set_valued: frozenset[str],
    dedup_predicates: set[str] | None,
    egd_state: TriggerIndex,
    tgd_state: TriggerIndex,
    used_names: set[str],
    records: list[ChaseStepRecord],
    profile: ChaseProfile,
    af_memo: dict[Hashable, bool],
    max_steps: int,
    cache: PlanCache,
) -> ConjunctiveQuery:
    """The delta-driven sound-chase loop, from *current* to its fixpoint.

    Shared by :func:`sound_chase` (fresh state) and the incremental resume
    in :mod:`repro.chase.incremental` (state seeded from a replayed
    checkpoint).  The caller owns the trigger indexes, the used-name set,
    the record list, and the Definition 4.3 memo; all are mutated in place.
    *used_names* must hold every variable name of *current* (tgd steps are
    applied through their compiled plans, see
    :func:`~repro.chase.steps.apply_tgd_step`).  Returns the terminal query;
    raises :class:`ChaseNonTerminationError` after *max_steps* rounds.

    Per-run work is done once: gates 2 and 3 of Σ's
    :class:`~repro.chase.plans.AssignmentFixingRule` are decided on the
    start state (they then hold, or fail, for the whole run), and one
    :class:`TargetIndex` is extended by tgd steps and rebuilt only after egd
    steps, its counters retired once per index.
    """
    gates_hold = plans.assignment_fixing_rule().holds_for(current)
    index = TargetIndex(current.body)
    for _ in range(max_steps):
        profile.rounds += 1
        # Egd steps are always sound under both semantics (Theorems 4.1/4.3 item 2).
        egd_step = _first_applicable_egd_step(
            current, plans.egd_plans, index, egd_state, profile
        )
        if egd_step is not None:
            egd, hom, left, right = egd_step
            current, record = apply_egd_step(current, egd, hom, left, right)
            current = deduplicate_body(current, dedup_predicates)
            records.append(record)
            profile.egd_steps += 1
            egd_state.reset()
            tgd_state.reset()
            profile.retire_index(index)
            index = TargetIndex(current.body)
            continue

        tgd_step = _first_sound_tgd_step(
            current, plans, items_sigma, semantics, set_valued, max_steps,
            index, tgd_state, profile, af_memo, cache, gates_hold,
        )
        if tgd_step is not None:
            plan, hom = tgd_step
            current, record = apply_tgd_step(
                current, plan.tgd, hom, used_names, plan=plan
            )
            # No deduplication here, unlike the egd branch: a regularized tgd
            # step cannot duplicate an existing subgoal — every conclusion
            # atom of a regularized non-full tgd carries at least one
            # existential variable, instantiated fresh (regularized full tgds
            # are single-atom and applicability means that atom is absent).
            # Duplicates *among* the added atoms require syntactically
            # duplicated conclusion atoms and are harmless: the Theorem 6.2
            # bag-set test compares canonical representations, and under bag
            # semantics Theorem 4.2 only licenses dropping set-valued
            # duplicates anyway.  tests/test_sound_chase.py pins this down.
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
        f"sound chase under {semantics} did not terminate within {max_steps} steps",
        steps_taken=len(records),
    )


def sound_chase(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics | str = Semantics.BAG,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    plan_cache: PlanCache | None = None,
    capture: ChaseCapture | None = None,
) -> ChaseResult:
    """Chase *query* applying only chase steps sound under *semantics*.

    For ``Semantics.SET`` this simply delegates to :func:`set_chase` (every
    step is sound under set semantics).  For bag semantics the
    :class:`DependencySet`'s ``set_valued_predicates`` determine which
    relations may receive new subgoals and which duplicate subgoals may be
    dropped.  ``plan_cache`` (default: the process-wide cache) serves the
    per-dependency compiled match plans, reused across rounds and runs.
    ``capture``, when given, receives the terminal trigger frontier and the
    run's used-name set — the raw material of a resumable checkpoint (see
    :mod:`repro.chase.incremental`).
    """
    semantics = Semantics.from_name(semantics)
    if semantics is Semantics.SET:
        return set_chase(
            query, dependencies, max_steps=max_steps,
            plan_cache=plan_cache, capture=capture,
        )

    cache = plan_cache if plan_cache is not None else default_plan_cache()
    plan_stats = cache.snapshot()
    _, set_valued = _split(dependencies)
    plans = cache.plans_for(dependencies, regularize=True)
    egds, tgds = plans.egds, plans.tgds
    # The plans' memoized wrapper: the nested Definition 4.3 test chases key
    # their plan lookups on its memoized key instead of re-walking the list.
    items_sigma = plans.dependency_set()
    dedup_predicates: set[str] | None
    if semantics is Semantics.BAG:
        dedup_predicates = set(set_valued)
    else:
        dedup_predicates = None  # bag-set: all duplicates may be dropped

    profile = ChaseProfile(semantics=str(semantics))
    started = time.perf_counter()
    core_stats = snapshot_core_stats()
    records: list[ChaseStepRecord] = []
    # Forbid reuse of any variable name ever produced in this chase run.
    used_names = set(query.variable_names())
    # Per-run state of the acceleration layers: body index, delta trigger
    # tracking, and the Definition 4.3 verdict memo (Σ and the step budget
    # are fixed for the whole run, as the memo requires).
    egd_state = TriggerIndex.from_trigger_map(len(egds), plans.egd_trigger_map)
    tgd_state = TriggerIndex.from_trigger_map(len(tgds), plans.tgd_trigger_map)
    af_memo: dict[Hashable, bool] = {}
    terminal = _drive_sound_chase(
        query, plans, items_sigma, semantics, set_valued, dedup_predicates,
        egd_state, tgd_state, used_names, records, profile, af_memo,
        max_steps, cache,
    )
    profile.record_core_stats(core_stats)
    profile.record_plan_stats(plan_stats, cache)
    profile.wall_time = time.perf_counter() - started
    if capture is not None:
        capture.record(egd_state, tgd_state, used_names)
    return ChaseResult(terminal, records, semantics, terminated=True, profile=profile)


def chase(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics | str = Semantics.SET,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ChaseResult:
    """Uniform entry point: set chase or sound bag / bag-set chase by *semantics*."""
    return sound_chase(query, dependencies, semantics, max_steps)


def is_sound_chase_step(
    query: ConjunctiveQuery,
    dependency: Dependency,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics | str = Semantics.BAG,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    plan_cache: PlanCache | None = None,
    index: TargetIndex | None = None,
    memo: dict[Hashable, bool] | None = None,
    profile: ChaseProfile | None = None,
) -> bool:
    """Is every applicable chase step of *dependency* on *query* sound?

    This is the ``soundChaseStep`` predicate of Algorithms 1 and 2
    (Max-Bag-Σ-Subset and its bag-set counterpart): it returns True when
    *dependency* has no applicable step on *query* (vacuously sound) or when
    all its applicable steps satisfy the soundness conditions of Theorem 4.1
    (bag) / Theorem 4.3 (bag-set); it returns False when some applicable step
    is unsound.  Note that a *non-regularized* tgd with an applicable step is
    never sound under bag or bag-set semantics (Section 4.2.2), so it is
    checked against its regularized set: the step is sound only if each
    regularized component with an applicable step passes the test.

    The vacuous verdicts — egds (always sound) and set semantics (every step
    sound) — return before any Σ setup, so they are O(1).  The setup itself
    is served by ``plan_cache`` (default: the process-wide cache): both the
    regularized Σ for the nested Definition 4.3 test chases and the
    dependency's regularized component plans are compiled once and reused
    across calls.  A sigma-subset scan checks every dependency of Σ against
    the *same* terminal query, so it additionally shares one ``index`` over
    the query body, one Definition 4.3 verdict ``memo`` (sound only while
    Σ and *max_steps* stay fixed, which the scan guarantees), and one
    ``profile`` across the whole scan — see
    :func:`repro.chase.sigma_subset.max_bag_sigma_subset`.
    """
    semantics = Semantics.from_name(semantics)
    # Fast paths first (Theorems 4.1/4.3 item 2): no regularization, no
    # index build, no plan compilation for the vacuous verdicts.
    if isinstance(dependency, EGD):
        return True
    if semantics is Semantics.SET:
        return True
    if not isinstance(dependency, TGD):
        raise ChaseError(f"unsupported dependency {dependency!r}")

    cache = plan_cache if plan_cache is not None else default_plan_cache()
    plan_stats = cache.snapshot()
    _, set_valued = _split(dependencies)
    # One regularization of Σ per cache entry; the memoized DependencySet
    # wrapper keys the nested Definition 4.3 test chases' plan lookups on a
    # fingerprint computed once per Σ, not once per call.
    items_sigma = cache.plans_for(dependencies, regularize=True).dependency_set()
    component_plans = cache.plans_for((dependency,), regularize=True)
    if profile is not None:
        hits, _ = plan_stats
        profile.subset_plans_reused += cache.hits - hits
    if index is None:
        index = TargetIndex(query.body)
    for component, plan in zip(component_plans.tgds, component_plans.tgd_plans):
        if semantics is Semantics.BAG and not all(
            atom.predicate in set_valued for atom in component.conclusion
        ):
            # Theorem 4.1(1): an applicable step adding a non-set-valued
            # subgoal is unsound; probe applicability only (no dict needed).
            for _ in iter_applicable_tgd_bindings(query, component, index=index, plan=plan):
                return False
            continue
        for match in iter_applicable_tgd_bindings(query, component, index=index, plan=plan):
            homomorphism = trigger_homomorphism(plan, match)
            if not is_assignment_fixing_for(
                query, component, homomorphism, items_sigma, max_steps,
                memo=memo, profile=profile, plan_cache=cache,
            ):
                return False
    # Either not applicable at all (vacuously sound) or every applicable step
    # of every regularized component is sound.
    return True


def bag_chase(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ChaseResult:
    """Sound chase under bag semantics, ``(Q)_{Σ,B}``."""
    return sound_chase(query, dependencies, Semantics.BAG, max_steps)


def bag_set_chase(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ChaseResult:
    """Sound chase under bag-set semantics, ``(Q)_{Σ,BS}``."""
    return sound_chase(query, dependencies, Semantics.BAG_SET, max_steps)
