"""Experiment E3 — sound vs unsound chase steps (Examples 4.4–4.8, E.1, E.2).

Each benchmark replays one of the paper's unsoundness demonstrations: it
evaluates the original query and the (unsoundly) chased query on the
counterexample database and records the diverging multiplicities, and it
checks that the sound chase refuses the offending step while the equivalence
tests reject the chased query.  The regularization ablation (chase with the
original σ4 as a whole vs its regularized components, Examples 4.4/4.5) is
covered by ``bench_example_4_5_regularization_ablation``.

The **probe tiers** (``bench_sound_steps_cold_probe``) additionally measure
the per-step soundness tests themselves — ``is_sound_chase_step`` across all
of Σ against a workload query, the exact inner loop of every chase round and
of Algorithms 1/2 — on the binding-level kernel (shared index, per-Σ plan
cache and its Definition 4.3 memo) against a reference scan assembled from the
frozen :mod:`repro.chase.reference` building blocks.  Both scans must agree
on every verdict; the large tier asserts the ≥1.3x speedup floor of the
binding-level rework and CI trend-gates the small tier's counters.
"""

from __future__ import annotations

import time

import pytest
from _util import record, reference_sound_step_verdicts

from repro.chase import bag_chase, bag_set_chase, is_sound_chase_step
from repro.chase.plans import PlanCache
from repro.chase.profile import ChaseProfile
from repro.core import TargetIndex, are_isomorphic
from repro.database import DatabaseInstance
from repro.datalog import parse_query
from repro.equivalence import decide_equivalence
from repro.evaluation import evaluate
from repro.paperlib import clique_workload, h_family, star_workload
from repro.semantics import Semantics


# Probe tiers: every dependency of Σ soundness-tested against the workload
# query (the state every chase round scans), under both non-trivial
# semantics.  Query size and |Σ| grow together.
PROBE_TIERS = {
    "small": (("star", (8, 8)), ("clique", (6, 4))),
    "large": (("star", (20, 20)), ("clique", (9, 8)), ("h_family", (4,))),
}
_WORKLOADS = {
    "star": star_workload,
    "clique": clique_workload,
    "h_family": h_family,
}
#: Minimum accelerated-vs-reference speedup asserted on the large tier (the
#: binding-level kernel bar; ~3.4x measured on a quiet machine).
PROBE_SPEEDUP_FLOOR = 1.3
PROBE_MAX_STEPS = 5000


def _probe_cases(tier: str):
    return [
        (label, _WORKLOADS[label](*parameters))
        for label, parameters in PROBE_TIERS[tier]
    ]


def _accelerated_scan(query, dependencies, semantics):
    """One shared-state soundness scan of Σ, as the sigma-subset drivers run it."""
    cache = PlanCache()
    index = TargetIndex(query.body)
    profile = ChaseProfile(semantics=str(semantics))
    verdicts = [
        is_sound_chase_step(
            query, dependency, dependencies, semantics, PROBE_MAX_STEPS,
            plan_cache=cache, index=index, profile=profile,
        )
        for dependency in dependencies
    ]
    profile.retire_index(index)
    return verdicts, profile


@pytest.mark.parametrize("tier", list(PROBE_TIERS))
def bench_sound_steps_cold_probe(benchmark, tier):
    """Per-step soundness scans: binding-level kernel vs frozen reference."""
    cases = _probe_cases(tier)

    def run_accelerated():
        return [
            _accelerated_scan(w.query, w.dependencies, semantics)
            for _, w in cases
            for semantics in (Semantics.BAG, Semantics.BAG_SET)
        ]

    # One untimed pass over the tier first: in a fresh process the first
    # scan pays the process's own warm-up on both sides alike, which would
    # swamp a small tier's ratio.  Each timed scan still gets a fresh
    # PlanCache, so it stays cold.
    run_accelerated()
    for _, workload in cases:
        for semantics in (Semantics.BAG, Semantics.BAG_SET):
            reference_sound_step_verdicts(
                workload.query, workload.dependencies, semantics, PROBE_MAX_STEPS
            )

    per_case = {}
    accelerated_total = reference_total = 0.0
    for label, workload in cases:
        for semantics in (Semantics.BAG, Semantics.BAG_SET):
            started = time.perf_counter()
            fast, profile = _accelerated_scan(
                workload.query, workload.dependencies, semantics
            )
            accelerated_seconds = time.perf_counter() - started
            started = time.perf_counter()
            slow = reference_sound_step_verdicts(
                workload.query, workload.dependencies, semantics, PROBE_MAX_STEPS
            )
            reference_seconds = time.perf_counter() - started
            assert fast == slow, (
                f"{tier}/{label}[{semantics}]: soundness verdicts diverge "
                "from the reference scan"
            )
            accelerated_total += accelerated_seconds
            reference_total += reference_seconds
            per_case[f"{label}.{semantics}"] = {
                "accelerated_seconds": round(accelerated_seconds, 6),
                "reference_seconds": round(reference_seconds, 6),
                "unsound": sum(1 for verdict in fast if not verdict),
                "extension_probes": profile.extension_probes,
                "dicts_avoided": profile.dicts_avoided,
                "subset_plans_reused": profile.subset_plans_reused,
                "assignment_fixing_tests": profile.assignment_fixing_tests,
            }

    speedup = reference_total / accelerated_total
    benchmark(run_accelerated)
    total_probes = sum(case["extension_probes"] for case in per_case.values())
    record(
        benchmark,
        tier=tier,
        probe_speedup=round(speedup, 2),
        accelerated_seconds=round(accelerated_total, 6),
        reference_seconds=round(reference_total, 6),
        extension_probes=total_probes,
        scans=per_case,
    )
    assert total_probes > 0, "the binding-level probe layer never ran"
    if tier == "large":
        assert speedup >= PROBE_SPEEDUP_FLOOR, (
            f"large-tier soundness-scan speedup regressed to {speedup:.2f}x "
            f"(floor {PROBE_SPEEDUP_FLOOR}x)"
        )


def bench_example_4_5_regularization_ablation(benchmark, ex41):
    """Applying non-regularized σ4 wholesale is unsound; its regularized
    t-component alone is sound (and the sound chase applies exactly that)."""
    sigma_prime = ex41.dependencies_without_sigma2
    q4_prime = parse_query("Qp(X) :- p(X,Y), t(X,Y,W), u(X,Z)")
    database = DatabaseInstance.from_dict(
        {"p": [(1, 2)], "t": [(1, 2, 3)], "u": [(1, 4), (1, 5)], "r": [], "s": []},
        ex41.schema,
    )

    def run():
        chased = bag_chase(ex41.q4, sigma_prime).query
        return {
            "sound_chase_is_q3": are_isomorphic(chased, ex41.q3),
            "whole_sigma4_equivalent": bool(
                decide_equivalence(q4_prime, ex41.q4, sigma_prime, "bag-set")
            ),
            "Q4(D,BS)": evaluate(ex41.q4, database, "bag-set").multiplicity((1,)),
            "Q4'(D,BS)": evaluate(q4_prime, database, "bag-set").multiplicity((1,)),
        }

    result = benchmark(run)
    assert result == {
        "sound_chase_is_q3": True,
        "whole_sigma4_equivalent": False,
        "Q4(D,BS)": 1,
        "Q4'(D,BS)": 2,
    }
    record(benchmark, measured=result, paper_expected=result)


def bench_example_4_6_modified_chase_is_unsound(benchmark, ex46):
    def run():
        return {
            "Q(D,BS)": evaluate(ex46.query, ex46.counterexample, "bag-set").multiplicity((1,)),
            "Q'(D,BS)": evaluate(
                ex46.query_modified_chase, ex46.counterexample, "bag-set"
            ).multiplicity((1,)),
            "equivalent": bool(
                decide_equivalence(
                    ex46.query, ex46.query_modified_chase, ex46.dependencies, "bag-set"
                )
            ),
        }

    result = benchmark(run)
    assert result == {"Q(D,BS)": 2, "Q'(D,BS)": 1, "equivalent": False}
    record(benchmark, measured=result, paper_expected=result)


def bench_example_4_8_traditional_step_is_sound(benchmark, ex46):
    def run():
        chased = bag_set_chase(ex46.query, ex46.dependencies).query
        return {
            "chase_is_Qpp": are_isomorphic(chased, ex46.query_traditional_chase),
            "equivalent": bool(
                decide_equivalence(
                    ex46.query, ex46.query_traditional_chase, ex46.dependencies, "bag"
                )
            ),
        }

    result = benchmark(run)
    assert result == {"chase_is_Qpp": True, "equivalent": True}
    record(benchmark, measured=result)


def bench_example_e_1_bag_unsoundness(benchmark, exE1):
    def run():
        return {
            "Q(D,B)": evaluate(exE1.query, exE1.counterexample, "bag").multiplicity(("a",)),
            "Q'(D,B)": evaluate(exE1.chased_query, exE1.counterexample, "bag").multiplicity(("a",)),
            "bag_chase_applies_step": not are_isomorphic(
                bag_chase(exE1.query, exE1.dependencies).query, exE1.query
            ),
        }

    result = benchmark(run)
    assert result == {"Q(D,B)": 1, "Q'(D,B)": 2, "bag_chase_applies_step": False}
    record(benchmark, measured=result, paper_expected=result)


def bench_example_e_2_bag_set_unsoundness(benchmark, exE2):
    def run():
        return {
            "Q(D,BS)": evaluate(exE2.query, exE2.counterexample, "bag-set").multiplicity(("a",)),
            "Q'(D,BS)": evaluate(
                exE2.chased_query, exE2.counterexample, "bag-set"
            ).multiplicity(("a",)),
            "bag_set_chase_applies_step": not are_isomorphic(
                bag_set_chase(exE2.query, exE2.dependencies).query, exE2.query
            ),
        }

    result = benchmark(run)
    assert result == {"Q(D,BS)": 1, "Q'(D,BS)": 2, "bag_set_chase_applies_step": False}
    record(benchmark, measured=result, paper_expected=result)
