"""Experiment E6 — complexity of sound chase — plus the acceleration tiers.

Two paper series are regenerated:

* **exponential in |Σ| / schema size m** — the H family: the terminal chase
  of ``Q(X,Y) :- p1(X,Y)`` has ≈ 2^(i-1) subgoals per relation p_i, so the
  total chase size roughly doubles with every extra relation; the key-based
  fds of Example H.2 make every tgd sound under bag and bag-set semantics, so
  the sound chase exhibits the same blow-up.
* **polynomial (here: linear) in |Q|** — chain queries of growing length
  under key + inclusion dependencies: chase output size and time grow gently
  with the query size for a fixed dependency set size per relation.

Absolute times are machine dependent; the shape (doubling vs linear growth)
is asserted.

On top of E6, the **scaling tiers** measure the cold-path speedup of the
indexed/delta chase subsystem against the frozen pre-index implementation
(:mod:`repro.chase.reference`) on synthetic chain / star / clique workloads
with growing Σ.  Every tier asserts the two implementations produce
byte-identical step records; the largest tier additionally asserts the
aggregate speedup stays ≥ 5x.  Run with ``--benchmark-json
BENCH_chase_scaling.json`` to persist the speedup trajectory (CI uploads
the smallest tier's JSON as an artifact on every push).
"""

from __future__ import annotations

import time

import pytest
from _util import record

from repro.chase import bag_set_chase, set_chase, sound_chase
from repro.chase.reference import sound_chase_reference
from repro.paperlib import (
    chain_workload,
    clique_workload,
    h_family,
    star_workload,
)
from repro.semantics import Semantics

H_SIZES = (2, 3, 4, 5)
CHAIN_LENGTHS = (2, 4, 6, 8)

# Scaling tiers: (chain length, (star spokes, distractors),
# (clique size, distractors)).  Query size and |Σ| grow together.
SCALING_TIERS = {
    "small": {"chain": 12, "star": (8, 8), "clique": (6, 4)},
    "medium": {"chain": 32, "star": (20, 20), "clique": (9, 8)},
    "large": {"chain": 64, "star": (40, 40), "clique": (12, 12)},
}
#: Minimum aggregate accelerated-vs-reference speedup asserted per tier.
#: The medium floor is deliberately loose (≈3.5x measured on a quiet
#: machine): it runs on nightly shared runners and exists to catch the
#: acceleration collapsing entirely, not a few percent of drift.  The
#: large tier carried a paper-grade 5x bar through PR 4; the uid-kernel
#: refactor compounded that to 6.5x (10x measured), and the binding-level
#: probe rework (zero-materialization tgd applicability + per-Σ plan reuse
#: + candidate-list pooling) moved the measured ratio to 10.5x on a quiet
#: machine, so the floor rose to 7.5x — ~30% headroom for shared-runner
#: noise.  Deciding Definition 4.3 without a test chase for key-determined
#: tgds (the chain and star tiers' inclusion / spoke tgds) measured 24-27x
#: against 9-11x before it (two runs each, 2-vCPU VM), so the floor rises to
#: 15x; the clique tier (full tgds, Proposition 4.3) now dominates the
#: accelerated time.  Cutting the chase's per-step overhead (one body index
#: grown across a run, a flat loop for one-atom match plans, compiled tgd
#: steps, Definition 4.3 gates decided once per run) measured 41-54x against
#: 21-28x before it (six and five runs, 2-vCPU VM), so the floor rises to
#: 30x.  The incremental trigger search (two-atom egd gates, watermark delta
#: probes, resumed tgd scans) measured 720-970x on the large tier and
#: 138-165x on the medium one under pytest, against 42-58x and 26-33x before
#: it (six runs each, 2-vCPU VM); in a bare process 390-551x and 146-198x,
#: against 41-50x and 20-30x.  The medium tier's accelerated run now takes
#: ~10 ms, so one cyclic-GC pass inside it shows: with --benchmark-disable
#: and the small tier run first, it measured 53-67x.  So the floors rise to
#: 200x and 40x, below every new run and well above every old one.
#: Asserting the ratio rather than seconds keeps the bar meaningful across
#: machines.
SCALING_SPEEDUP_FLOOR = {"medium": 40.0, "large": 200.0}
SCALING_MAX_STEPS = 5000

#: PR 4's recorded large-tier accelerated wall time and reference speedup,
#: kept for the informational improvement estimate in the benchmark JSON.
PR4_LARGE_TIER_SECONDS = 1.69
PR4_LARGE_TIER_REFERENCE_SPEEDUP = 9.0


@pytest.mark.parametrize("m", H_SIZES)
def bench_h_family_set_chase(benchmark, m):
    workload = h_family(m)
    result = benchmark(lambda: set_chase(workload.query, workload.dependencies, max_steps=5000))
    size = len(result.query.body)
    record(
        benchmark,
        schema_size_m=m,
        chase_body_size=size,
        chase_steps=result.step_count,
        paper_expected="size grows exponentially in m (Example H.1)",
    )
    # The last relation p_m accumulates at least 2^(m-1) subgoals.
    assert result.query.predicate_counts()[f"p{m}"] >= 2 ** (m - 1)


@pytest.mark.parametrize("m", (2, 3, 4))
def bench_h_family_sound_bag_set_chase(benchmark, m):
    workload = h_family(m)
    result = benchmark(
        lambda: bag_set_chase(workload.query, workload.dependencies, max_steps=5000)
    )
    set_size = len(set_chase(workload.query, workload.dependencies, max_steps=5000).query.body)
    record(
        benchmark,
        schema_size_m=m,
        sound_chase_body_size=len(result.query.body),
        set_chase_body_size=set_size,
        paper_expected="key-based tgds keep the full exponential blow-up under "
        "bag-set semantics (Example H.2)",
    )
    assert len(result.query.body) == set_size


@pytest.mark.parametrize("length", CHAIN_LENGTHS)
def bench_chain_query_set_chase(benchmark, length):
    workload = chain_workload(length)
    result = benchmark(lambda: set_chase(workload.query, workload.dependencies))
    record(
        benchmark,
        query_size=length,
        chase_body_size=len(result.query.body),
        paper_expected="chase size linear in |Q| for a fixed per-relation "
        "dependency budget (polynomial half of Theorem 5.2)",
    )
    assert len(result.query.body) == length


def _scaling_cases(tier: str):
    """The (label, query, dependencies) triples of one scaling tier.

    The chain query is chased from its first subgoal so the inclusion
    dependencies regenerate the whole chain (the full query is already
    chase-terminal); star and clique chase their workload query directly.
    """
    parameters = SCALING_TIERS[tier]
    chain = chain_workload(parameters["chain"])
    chain_prefix = chain.query.with_body(chain.query.body[:1])
    star = star_workload(*parameters["star"])
    clique = clique_workload(*parameters["clique"])
    return [
        ("chain", chain_prefix, chain.dependencies),
        ("star", star.query, star.dependencies),
        ("clique", clique.query, clique.dependencies),
    ]


def _step_records(result) -> list[str]:
    return [str(step) for step in result.steps] + [str(result.query)]


@pytest.mark.parametrize("tier", list(SCALING_TIERS))
def bench_scaling_cold_sound_chase(benchmark, tier):
    """Cold bag-set sound chase: accelerated vs frozen reference, per tier."""
    cases = _scaling_cases(tier)

    def run_accelerated():
        return [
            sound_chase(query, deps, Semantics.BAG_SET, max_steps=SCALING_MAX_STEPS)
            for _, query, deps in cases
        ]

    # One manual timing of each implementation for the recorded speedup (the
    # benchmark fixture may be disabled in smoke runs); byte-identical step
    # records are asserted on the same pass.
    per_case = {}
    accelerated_total = reference_total = 0.0
    for label, query, deps in cases:
        started = time.perf_counter()
        fast = sound_chase(query, deps, Semantics.BAG_SET, max_steps=SCALING_MAX_STEPS)
        accelerated_seconds = time.perf_counter() - started
        started = time.perf_counter()
        slow = sound_chase_reference(
            query, deps, Semantics.BAG_SET, max_steps=SCALING_MAX_STEPS
        )
        reference_seconds = time.perf_counter() - started
        assert _step_records(fast) == _step_records(slow), (
            f"{tier}/{label}: accelerated chase diverged from the reference"
        )
        accelerated_total += accelerated_seconds
        reference_total += reference_seconds
        profile = fast.profile
        per_case[label] = {
            "accelerated_seconds": round(accelerated_seconds, 6),
            "reference_seconds": round(reference_seconds, 6),
            "speedup": round(reference_seconds / accelerated_seconds, 2),
            "steps": fast.step_count,
            "index_hit_rate": round(profile.index_hit_rate, 4),
            "dependency_scans_skipped": profile.dependencies_skipped,
            "kernel_searches": profile.kernel_searches,
            "plans_compiled": profile.plans_compiled,
            "plans_reused": profile.plans_reused,
        }

    speedup = reference_total / accelerated_total
    benchmark(run_accelerated)
    record(
        benchmark,
        tier=tier,
        cold_speedup=round(speedup, 2),
        accelerated_seconds=round(accelerated_total, 6),
        reference_seconds=round(reference_total, 6),
        workloads=per_case,
    )
    floor = SCALING_SPEEDUP_FLOOR.get(tier)
    if floor is not None:
        assert speedup >= floor, (
            f"{tier} tier cold-chase speedup regressed to {speedup:.1f}x "
            f"(floor {floor}x)"
        )
    if tier == "large":
        # Informational: the uid-kernel improvement over the PR 4 baseline,
        # estimated from the (era-invariant) reference run and PR 4's
        # recorded reference speedup.  The enforced form of the ≥1.3x bar is
        # the compounded speedup floor above; this estimate just makes the
        # trajectory visible in the benchmark JSON.
        pr4_estimate = reference_total / PR4_LARGE_TIER_REFERENCE_SPEEDUP
        record(
            benchmark,
            pr4_seconds_recorded=PR4_LARGE_TIER_SECONDS,
            pr4_seconds_estimated=round(pr4_estimate, 6),
            uid_kernel_improvement_estimate=round(pr4_estimate / accelerated_total, 2),
        )


def bench_scaling_fixture_records_byte_identical(benchmark, ex41):
    """The Example 4.1 / Theorem 4.2 fixtures chase identically on both paths."""
    queries = (ex41.q1, ex41.q2, ex41.q3, ex41.q4, ex41.q5, ex41.q7, ex41.q8)

    def compare_all():
        matched = 0
        for semantics in (Semantics.BAG, Semantics.BAG_SET, Semantics.SET):
            for query in queries:
                fast = sound_chase(query, ex41.dependencies, semantics)
                slow = sound_chase_reference(query, ex41.dependencies, semantics)
                assert _step_records(fast) == _step_records(slow)
                matched += 1
        return matched

    matched = benchmark(compare_all)
    record(benchmark, fixture_chases_compared=matched)
    assert matched == len(queries) * 3


def bench_h_family_growth_curve(benchmark):
    """One run that collects the whole size-vs-m series (the E6 'figure')."""

    def series():
        return {
            m: len(set_chase(h_family(m).query, h_family(m).dependencies, max_steps=5000).query.body)
            for m in H_SIZES
        }

    sizes = benchmark(series)
    # Roughly doubling growth.
    assert all(sizes[m + 1] >= 1.8 * sizes[m] for m in H_SIZES[:-1])
    record(benchmark, size_by_m={str(m): v for m, v in sizes.items()})
