"""Experiment E5 — uniqueness of sound chase and the Σ^max algorithms
(Theorems 5.1 / 5.3, Algorithms Max-Bag-Σ-Subset and Max-Bag-Set-Σ-Subset).

Reproduces, on Example 4.1:

* Σ^max_B(Q4, Σ) drops σ3 and σ4; Σ^max_BS(Q4, Σ) drops only σ4;
* the proper-inclusion chain Σ^max_B ⊂ Σ^max_BS ⊂ Σ (Proposition 5.2);
* the canonical database of the sound-chase result satisfies the computed
  subset (the defining property of Theorem 5.3);
* query dependence: for Q(X) :- p(X,Y), u(X,Z) the subset keeps σ4.

The **Algorithm 1/2 tiers** (``bench_sigma_subset_cold_alg1``) measure the
whole pipeline — terminal sound chase plus the per-dependency soundness scan
— on the accelerated path (binding-level probes, one shared body index and
per-Σ plan-cache view per scan) against the frozen reference engines
(:mod:`repro.chase.reference` chase + a scan assembled from its building
blocks).  Step records must stay byte-identical and the computed Σ^max
equal; the large tier asserts the ≥1.3x speedup floor of the binding-level
rework and CI trend-gates the small tier's counters.
"""

from __future__ import annotations

import time

import pytest
from _util import record, reference_sound_step_verdicts

from repro.chase import max_bag_set_sigma_subset, max_bag_sigma_subset
from repro.chase.plans import PlanCache
from repro.chase.reference import sound_chase_reference
from repro.database import canonical_database, satisfies_all
from repro.datalog import parse_query
from repro.paperlib import chain_workload, clique_workload, star_workload
from repro.semantics import Semantics

# Algorithm 1/2 tiers: (workload, constructor arguments).  The chain query
# is chased from its first subgoal so the inclusion dependencies regenerate
# the whole chain (the full query is already chase-terminal).
ALG1_TIERS = {
    "small": (("star", (8, 8)), ("chain", (12,))),
    "large": (("star", (20, 20)), ("clique", (8, 6)), ("chain", (24,))),
}
#: Minimum accelerated-vs-reference speedup asserted on the large tier (the
#: binding-level kernel bar; ~4x measured on a quiet machine).
ALG1_SPEEDUP_FLOOR = 1.3
ALG1_MAX_STEPS = 5000


def _alg1_cases(tier: str):
    cases = []
    for label, parameters in ALG1_TIERS[tier]:
        if label == "chain":
            workload = chain_workload(*parameters)
            query = workload.query.with_body(workload.query.body[:1])
        elif label == "star":
            workload = star_workload(*parameters)
            query = workload.query
        else:
            workload = clique_workload(*parameters)
            query = workload.query
        cases.append((label, query, workload.dependencies))
    return cases


def _step_records(result) -> list[str]:
    return [str(step) for step in result.steps] + [str(result.query)]


@pytest.mark.parametrize("tier", list(ALG1_TIERS))
def bench_sigma_subset_cold_alg1(benchmark, tier):
    """Max-Bag-Σ-Subset end to end: accelerated vs frozen reference, per tier."""
    cases = _alg1_cases(tier)

    def run_accelerated():
        return [
            max_bag_sigma_subset(
                query, deps, ALG1_MAX_STEPS, plan_cache=PlanCache()
            )
            for _, query, deps in cases
        ]

    def run_reference(query, deps):
        chased = sound_chase_reference(query, deps, Semantics.BAG, ALG1_MAX_STEPS)
        verdicts = reference_sound_step_verdicts(
            chased.query, deps, Semantics.BAG, ALG1_MAX_STEPS
        )
        return chased, verdicts

    # One untimed pass over the tier first: in a fresh process the first
    # case pays the process's own warm-up on both sides alike, which would
    # swamp a small tier's ratio.  Each timed run still gets a fresh
    # PlanCache, so the scans stay cold.
    run_accelerated()
    for _, query, deps in cases:
        run_reference(query, deps)

    per_case = {}
    accelerated_total = reference_total = 0.0
    for label, query, deps in cases:
        started = time.perf_counter()
        fast = max_bag_sigma_subset(query, deps, ALG1_MAX_STEPS, plan_cache=PlanCache())
        accelerated_seconds = time.perf_counter() - started
        started = time.perf_counter()
        slow_chased, slow_verdicts = run_reference(query, deps)
        reference_seconds = time.perf_counter() - started
        assert _step_records(fast.chase_result) == _step_records(slow_chased), (
            f"{tier}/{label}: chase step records diverge from the reference"
        )
        slow_removed = sorted(
            dependency.name
            for dependency, sound in zip(deps, slow_verdicts)
            if not sound
        )
        assert sorted(d.name for d in fast.removed) == slow_removed, (
            f"{tier}/{label}: Σ^max diverges from the reference scan"
        )
        accelerated_total += accelerated_seconds
        reference_total += reference_seconds
        profile = fast.scan_profile
        per_case[label] = {
            "accelerated_seconds": round(accelerated_seconds, 6),
            "reference_seconds": round(reference_seconds, 6),
            "speedup": round(reference_seconds / accelerated_seconds, 2),
            "chase_steps": fast.chase_result.step_count,
            "removed": len(fast.removed),
            "extension_probes": profile.extension_probes,
            "dicts_avoided": profile.dicts_avoided,
            "subset_plans_reused": profile.subset_plans_reused,
        }

    speedup = reference_total / accelerated_total
    benchmark(run_accelerated)
    record(
        benchmark,
        tier=tier,
        cold_speedup=round(speedup, 2),
        accelerated_seconds=round(accelerated_total, 6),
        reference_seconds=round(reference_total, 6),
        scan_extension_probes=sum(c["extension_probes"] for c in per_case.values()),
        scan_plans_reused=sum(c["subset_plans_reused"] for c in per_case.values()),
        workloads=per_case,
    )
    if tier == "large":
        assert speedup >= ALG1_SPEEDUP_FLOOR, (
            f"large-tier Algorithm 1 speedup regressed to {speedup:.2f}x "
            f"(floor {ALG1_SPEEDUP_FLOOR}x)"
        )


def bench_max_bag_sigma_subset(benchmark, ex41):
    result = benchmark(lambda: max_bag_sigma_subset(ex41.q4, ex41.dependencies))
    removed = sorted(d.name for d in result.removed)
    assert removed == ["sigma3", "sigma4"]
    canonical = canonical_database(result.chase_result.query).instance
    assert satisfies_all(canonical, list(result.subset), check_set_valuedness=False)
    record(
        benchmark,
        removed=removed,
        paper_expected=["sigma3", "sigma4"],
        kept=sorted(d.name for d in result.subset),
    )


def bench_max_bag_set_sigma_subset(benchmark, ex41):
    result = benchmark(lambda: max_bag_set_sigma_subset(ex41.q4, ex41.dependencies))
    removed = sorted(d.name for d in result.removed)
    assert removed == ["sigma4"]
    record(benchmark, removed=removed, paper_expected=["sigma4"])


def bench_proposition_5_2_chain(benchmark, ex41):
    def run():
        bag = max_bag_sigma_subset(ex41.q4, ex41.dependencies)
        bag_set = max_bag_set_sigma_subset(ex41.q4, ex41.dependencies)
        return {
            "sigma_max_B_size": len(bag.subset),
            "sigma_max_BS_size": len(bag_set.subset),
            "sigma_size": len(ex41.dependencies),
            "proper_chain": len(bag.subset) < len(bag_set.subset) < len(ex41.dependencies),
        }

    result = benchmark(run)
    assert result["proper_chain"] is True
    record(benchmark, measured=result, paper_expected="Σ^max_B ⊂ Σ^max_BS ⊂ Σ")


def bench_query_dependence(benchmark, ex41):
    other = parse_query("Q(X) :- p(X,Y), u(X,Z)")

    def run():
        return sorted(d.name for d in max_bag_sigma_subset(other, ex41.dependencies).removed)

    removed = benchmark(run)
    assert "sigma4" not in removed
    record(
        benchmark,
        removed_for_other_query=removed,
        paper_expected="sigma4 is satisfied for Q(X) :- p(X,Y), u(X,Z) (Section 5.3)",
    )
