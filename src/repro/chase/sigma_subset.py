"""Maximal satisfied dependency subsets (Section 5.3, Appendix I).

Theorem 5.3 (and its bag-set analogue, Theorem I.1): for a CQ query Q and a
dependency set Σ whose set chase terminates, there is a *unique maximal*
subset Σ^max of Σ satisfied by the canonical database of the sound-chase
result of Q.  Algorithms 1 and 2 of the paper compute it by removing from Σ
exactly those dependencies that are (unsoundly) applicable to the terminal
sound-chase result.

``max_bag_sigma_subset`` and ``max_bag_set_sigma_subset`` implement
Algorithms 1 and 2 verbatim; :class:`SigmaSubsetResult` also carries the
chase result so callers can verify the canonical-database satisfaction claim
(the tests do).

The scan itself shares its state across the per-dependency
``is_sound_chase_step`` calls: one :class:`~repro.core.homomorphism.
TargetIndex` over the terminal query body, one regularized Σ and one set of
compiled plans (served by the :class:`~repro.chase.plans.PlanCache`, keyed
on Σ's memoized fingerprint), whose compiled Σ also memoizes the
Definition 4.3 verdicts.  ``SigmaSubsetResult.scan_profile`` records what
the scan did (the nested chase that produced ``chase_result`` keeps its own
profile).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.homomorphism import TargetIndex
from ..core.query import ConjunctiveQuery
from ..dependencies.base import Dependency, DependencySet
from ..semantics import Semantics
from .plans import PlanCache, default_plan_cache
from .profile import ChaseProfile, snapshot_core_stats
from .set_chase import DEFAULT_MAX_STEPS, ChaseResult
from .sound_chase import is_sound_chase_step, sound_chase


@dataclass
class SigmaSubsetResult:
    """Output of Max-Bag-Σ-Subset / Max-Bag-Set-Σ-Subset."""

    subset: DependencySet
    removed: list[Dependency]
    chase_result: ChaseResult
    semantics: Semantics
    #: What the per-dependency soundness scan did (index probes, binding-level
    #: extension probes, plan-cache reuse, Definition 4.3 memo hits); ``None``
    #: only for results built by hand.
    scan_profile: ChaseProfile | None = None

    def __contains__(self, dependency: Dependency) -> bool:
        return dependency in self.subset.dependencies


def scan_sigma_subset(
    chased: ChaseResult,
    dependencies: DependencySet,
    semantics: Semantics,
    max_steps: int,
    plan_cache: PlanCache | None = None,
) -> SigmaSubsetResult:
    """The per-dependency soundness scan of Algorithms 1/2, given the chase.

    *chased* must be the terminal sound-chase result of the input query under
    *dependencies* and *semantics* — callers that already hold one (the
    :class:`~repro.session.Session` serves it from its chase cache) skip the
    chase entirely.  Every dependency is checked against the same terminal
    query under the same Σ and budget, so one body index and one plan-cache
    view serve the whole scan.
    """
    cache = plan_cache if plan_cache is not None else default_plan_cache()
    profile = ChaseProfile(semantics=str(semantics))
    core_stats = snapshot_core_stats()
    plan_stats = cache.snapshot()
    index = TargetIndex(chased.query.body)
    kept: list[Dependency] = []
    removed: list[Dependency] = []
    for dependency in dependencies:
        if is_sound_chase_step(
            chased.query, dependency, dependencies, semantics, max_steps,
            plan_cache=cache, index=index, profile=profile,
        ):
            kept.append(dependency)
        else:
            removed.append(dependency)
    profile.retire_index(index)
    profile.record_core_stats(core_stats)
    profile.record_plan_stats(plan_stats, cache)
    subset = dependencies.restricted_to(kept)
    return SigmaSubsetResult(subset, removed, chased, semantics, profile)


def _max_sigma_subset(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    semantics: Semantics,
    max_steps: int,
    plan_cache: PlanCache | None,
) -> SigmaSubsetResult:
    if not isinstance(dependencies, DependencySet):
        dependencies = DependencySet(dependencies)
    cache = plan_cache if plan_cache is not None else default_plan_cache()
    chased = sound_chase(query, dependencies, semantics, max_steps, plan_cache=cache)
    return scan_sigma_subset(chased, dependencies, semantics, max_steps, cache)


def max_bag_sigma_subset(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    plan_cache: PlanCache | None = None,
) -> SigmaSubsetResult:
    """Algorithm 1 (Max-Bag-Σ-Subset): the maximal Σ^max_B(Q, Σ) ⊆ Σ satisfied
    by the canonical database of ``(Q)_{Σ,B}``.

    ``plan_cache`` (default: the process-wide cache) serves the compiled
    match plans of both the initial sound chase and the per-dependency
    soundness scan.
    """
    return _max_sigma_subset(query, dependencies, Semantics.BAG, max_steps, plan_cache)


def max_bag_set_sigma_subset(
    query: ConjunctiveQuery,
    dependencies: DependencySet | Sequence[Dependency],
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    plan_cache: PlanCache | None = None,
) -> SigmaSubsetResult:
    """Algorithm 2 (Max-Bag-Set-Σ-Subset): the maximal Σ^max_BS(Q, Σ) ⊆ Σ
    satisfied by the canonical database of ``(Q)_{Σ,BS}``.

    ``plan_cache`` plays the same role as in :func:`max_bag_sigma_subset`.
    """
    return _max_sigma_subset(
        query, dependencies, Semantics.BAG_SET, max_steps, plan_cache
    )
