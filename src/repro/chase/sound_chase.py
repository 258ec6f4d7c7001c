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

The chase runs the one loop of :mod:`repro.chase.set_chase` with this
module's tgd-step policy, :func:`tgd_step_policy`, built once per run.  The
policy fires only sound tgd steps; egd steps are always sound, and the
loop's egd branch drops the duplicates :func:`dedup_predicates` allows.
The loop is delta-driven (see :mod:`repro.chase.delta`): one
:class:`~repro.core.homomorphism.TargetIndex` over the current body serves
every dependency probe of the run — tgd steps extend it with the atoms they
add, egd steps (which rewrite terms) rebuild it — and a
:class:`~repro.chase.delta.TriggerIndex` skips dependencies that provably
cannot have gained a trigger, probes a dirtied one through the atoms added
since its last clean scan, and resumes the scan of a tgd decided without a
Definition 4.3 test where it last fired.  Definition 4.3 verdicts are
settled without a test chase where they can be (full tgds by Proposition
4.3, key-determined tgds by :class:`~repro.chase.plans.AssignmentFixingRule`,
whose query gates the policy decides once, on the run's start state), and
otherwise memoized on the compiled Σ, across runs (see
:func:`~repro.chase.assignment_fixing.is_assignment_fixing_for`).  Tgd
steps are applied through their compiled :class:`~repro.chase.plans.TGDPlan`,
so a step's Python work follows what it adds.  The applied step sequence is
byte-identical to the pre-index implementation (frozen in
:mod:`repro.chase.reference`); each result carries a
:class:`~repro.chase.profile.ChaseProfile` of the work done and skipped.
"""

from __future__ import annotations

from typing import Sequence

from ..core.homomorphism import Homomorphism, TargetIndex
from ..core.query import ConjunctiveQuery
from ..dependencies.base import EGD, TGD, Dependency, DependencySet
from ..exceptions import ChaseError
from ..semantics import Semantics
from .assignment_fixing import is_assignment_fixing_for
from .delta import ChaseCapture, TriggerIndex
from .plans import PlanCache, SigmaPlans, TGDPlan, default_plan_cache
from .profile import ChaseProfile
from .set_chase import (
    DEFAULT_MAX_STEPS,
    ChaseResult,
    TGDStepPolicy,
    _chase,
    _note_fired,
    _open_scan,
    set_chase,
    set_tgd_policy,
)
from .steps import iter_applicable_tgd_bindings, trigger_homomorphism

# The loop in repro.chase.set_chase applies the chase steps; the benchmark's
# span tracer (e2ebench/tracing.py) still patches these names on this module,
# so they stay imported.
from .steps import apply_egd_step, apply_tgd_step, deduplicate_body  # noqa: F401


def _split(dependencies: DependencySet | Sequence[Dependency]) -> tuple[
    list[Dependency], frozenset[str]
]:
    if isinstance(dependencies, DependencySet):
        return list(dependencies.dependencies), dependencies.set_valued_predicates
    return list(dependencies), frozenset()


def dedup_predicates(semantics: Semantics, set_valued: frozenset[str]) -> set[str] | None:
    """The duplicate subgoals an egd step may drop under *semantics*.

    ``None`` means every duplicate (set and bag-set semantics); under bag
    semantics only duplicates over set-valued relations (Theorem 4.2).
    """
    return set(set_valued) if semantics is Semantics.BAG else None


def tgd_step_policy(
    start: ConjunctiveQuery,
    plans: SigmaPlans,
    semantics: Semantics,
    set_valued: frozenset[str],
    max_steps: int,
    cache: PlanCache,
) -> TGDStepPolicy:
    """The tgd-step policy of one run under *semantics* from *start*.

    Under set semantics every step is sound: the policy is
    :func:`~repro.chase.set_chase.set_tgd_policy`.  Under bag and bag-set
    semantics it is the sound policy: the first sound tgd trigger in Σ
    order, delta-skipping where exact.

    A tgd is only marked clean when its scan found *no applicable
    homomorphism at all*: that verdict is stable while added atoms miss the
    premise.  A scan that found applicable-but-not-assignment-fixing
    homomorphisms is left dirty — Definition 4.3's verdict is taken against
    the whole current query and can flip to sound as the query grows — and
    the compiled Σ's verdict memo absorbs its repeated test chases.

    Full tgds (Proposition 4.3) and, when *start* passes gates 2 and 3 of
    :class:`~repro.chase.plans.AssignmentFixingRule`, key-determined tgds
    are assignment fixing for every trigger, so their verdicts need no
    Definition 4.3 test.  The gates are decided once, here: every state the
    run reaches gives the same answer (see
    :meth:`~repro.chase.plans.AssignmentFixingRule.holds_for`).  Every
    applicable trigger of such a tgd fires, so, as under the set policy,
    its next scan resumes after the trigger it fired; a tested tgd's scan
    starts over, so that the matches the test refused are examined again.
    """
    if semantics is Semantics.SET:
        return set_tgd_policy(plans)
    rule = plans.assignment_fixing_rule()
    gates_hold = rule.holds_for(start)
    # The plans' memoized wrapper: the nested Definition 4.3 test chases key
    # their plan lookups on its memoized key instead of re-walking the list.
    items_sigma = plans.dependency_set()
    tgd_plans = plans.tgd_plans
    bag = semantics is Semantics.BAG

    def first_sound_step(
        query: ConjunctiveQuery,
        index: TargetIndex,
        state: TriggerIndex,
        profile: ChaseProfile,
    ) -> tuple[TGDPlan, Homomorphism] | None:
        for position, plan in enumerate(tgd_plans):
            tgd = plan.tgd
            # Theorem 4.1(1): every added subgoal must be over a set-valued relation.
            if bag and not all(atom.predicate in set_valued for atom in tgd.conclusion):
                continue
            if state.is_clean(position):
                profile.dependencies_skipped += 1
                continue
            full = not plan.existential
            static = full or (gates_hold and rule.is_key_determined(tgd))
            scan = _open_scan(
                iter_applicable_tgd_bindings, query, tgd, plan, index, state, position, profile
            )
            if scan is None:
                continue
            applicable = False
            for match in scan:
                applicable = True
                profile.triggers_examined += 1
                # The Definition 4.3 test needs the trigger as a mapping (it
                # instantiates the associated test query with it), so
                # applicable triggers — and only those — cross the dict
                # boundary.
                homomorphism = trigger_homomorphism(plan, match)
                if static:
                    if not full:
                        profile.assignment_fixing_static += 1
                    # Every applicable match of a static tgd fires, so its
                    # next scan may resume after this one; a tested tgd's
                    # may not (see repro.chase.delta).
                    _note_fired(state, position, plan, scan, match)
                    return plan, homomorphism
                if is_assignment_fixing_for(
                    query, tgd, homomorphism, items_sigma, max_steps,
                    profile=profile, plan_cache=cache,
                ):
                    return plan, homomorphism
            if not applicable:
                state.mark_clean(position, len(index))
        return None

    return first_sound_step


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
    _, set_valued = _split(dependencies)

    def policy_for(start: ConjunctiveQuery, plans: SigmaPlans, cache: PlanCache) -> TGDStepPolicy:
        return tgd_step_policy(start, plans, semantics, set_valued, max_steps, cache)

    return _chase(
        query, dependencies, semantics, max_steps, plan_cache, capture,
        policy_for, dedup_predicates(semantics, set_valued),
    )


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
    the query body and one ``profile`` across the whole scan — see
    :func:`repro.chase.sigma_subset.max_bag_sigma_subset`.  Definition 4.3
    verdicts are memoized on the compiled Σ in ``plan_cache``.
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
    items_sigma = cache.plans_for(dependencies).dependency_set()
    component_plans = cache.plans_for((dependency,))
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
                profile=profile, plan_cache=cache,
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
