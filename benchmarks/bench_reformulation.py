"""Experiment E9 — the reformulation space under the three semantics
(C&B vs Bag-C&B vs Bag-Set-C&B vs the naive unsound extension; Theorem 6.4,
Section 4.1, Example 4.1) plus the orders and chain workloads.

The reproduced shape: on Example 4.1, the set-semantics C&B accepts all of
Q1–Q4 as reformulations of Q4; Bag-Set-C&B accepts Q2–Q4 but not Q1;
Bag-C&B accepts only Q3 and Q4; and the naive extension of Section 4.1
accepts reformulations that are *not* bag equivalent to Q4 — the sound
algorithm accepts none of those.

The verdict-table tier runs C&B on orders, chain5, chain6 and star6 (the
C&B inputs of the repo benchmark's ``reformulate`` workload) under the
three semantics and records how many backchase candidates were examined
and how many needed a chase; the baseline pins the chased count.
Each result must equal the chase-every-candidate reference C&B
(:mod:`repro.reformulation.reference`).  With the timer on, the tier also
records ``reference_speedup``: the best of 3 reference runs over the
tier's own minimum, pinned for star6, so the gate sees the backchase's
speed as well as its chase counts.
"""

from __future__ import annotations

import time

import pytest
from _util import record

from repro.paperlib import chain_workload, orders_workload, star_workload
from repro.reformulation import naive_bag_c_and_b
from repro.reformulation.reference import chase_and_backchase_reference
from repro.session import Session

_ALGORITHMS = {
    "set (C&B)": "set",
    "bag-set (Bag-Set-C&B)": "bag-set",
    "bag (Bag-C&B)": "bag",
}

_EXPECTED_MEMBERSHIP = {
    "set (C&B)": {"Q1": True, "Q2": True, "Q3": True, "Q4": True},
    "bag-set (Bag-Set-C&B)": {"Q1": False, "Q2": True, "Q3": True, "Q4": True},
    "bag (Bag-C&B)": {"Q1": False, "Q2": False, "Q3": True, "Q4": True},
}


@pytest.mark.parametrize("name", sorted(_ALGORITHMS))
def bench_example_4_1_reformulation_space(benchmark, ex41, name):
    semantics = _ALGORITHMS[name]
    result = benchmark(
        lambda: Session(dependencies=ex41.dependencies).reformulate(
            ex41.q4, semantics, check_sigma_minimality=False
        )
    )
    membership = {
        "Q1": result.contains_isomorphic(ex41.q1),
        "Q2": result.contains_isomorphic(ex41.q2),
        "Q3": result.contains_isomorphic(ex41.q3),
        "Q4": result.contains_isomorphic(ex41.q4),
    }
    assert membership == _EXPECTED_MEMBERSHIP[name]
    record(
        benchmark,
        algorithm=name,
        reformulations=len(result.reformulations),
        candidates_examined=result.candidates_examined,
        membership=membership,
        paper_expected=_EXPECTED_MEMBERSHIP[name],
    )


def bench_naive_extension_is_unsound(benchmark, ex41):
    def run():
        session = Session(dependencies=ex41.dependencies)
        naive = naive_bag_c_and_b(ex41.q4, ex41.dependencies)
        unsound = sum(
            1
            for query in naive.reformulations
            if not session.decide(query, ex41.q4, "bag")
        )
        sound = session.reformulate(ex41.q4, "bag", check_sigma_minimality=False)
        sound_unsound = sum(
            1
            for query in sound.reformulations
            if not session.decide(query, ex41.q4, "bag")
        )
        return {
            "naive_accepted": len(naive.reformulations),
            "naive_not_bag_equivalent": unsound,
            "bag_cb_accepted": len(sound.reformulations),
            "bag_cb_not_bag_equivalent": sound_unsound,
        }

    result = benchmark(run)
    assert result["naive_not_bag_equivalent"] > 0
    assert result["bag_cb_not_bag_equivalent"] == 0
    record(
        benchmark,
        measured=result,
        paper_expected="the naive extension of Section 4.1 accepts non-equivalent "
        "reformulations; Bag-C&B accepts only bag-equivalent ones",
    )


def bench_sigma_minimal_outputs(benchmark, ex41):
    result = benchmark(
        lambda: Session(dependencies=ex41.dependencies).reformulate(ex41.q4, "bag")
    )
    assert len(result.minimal_reformulations) >= 1
    assert all(len(q.body) == 1 for q in result.minimal_reformulations)
    record(
        benchmark,
        minimal_reformulations=[str(q) for q in result.minimal_reformulations],
        equivalent_reformulations=len(result.reformulations),
    )


def bench_orders_workload_reformulation(benchmark, orders):
    def run():
        session = Session(dependencies=orders.dependencies)
        set_result = session.reformulate(orders.query, "set", check_sigma_minimality=False)
        bag_result = session.reformulate(orders.query, "bag", check_sigma_minimality=False)
        return {
            "set_reformulations": len(set_result.reformulations),
            "set_shortest_body": min(len(q.body) for q in set_result.reformulations),
            "bag_reformulations": len(bag_result.reformulations),
            "bag_shortest_body": min(len(q.body) for q in bag_result.reformulations),
        }

    result = benchmark(run)
    assert result["set_shortest_body"] == 1
    assert result["bag_shortest_body"] == 1  # keys make the lookups multiplicity preserving
    record(benchmark, measured=result)


@pytest.mark.parametrize("length", (2, 3, 4))
def bench_chain_reformulation_scaling(benchmark, length):
    workload = chain_workload(length)
    result = benchmark(
        lambda: Session(dependencies=workload.dependencies).reformulate(
            workload.query, "set", check_sigma_minimality=False
        )
    )
    assert any(len(q.body) == 1 for q in result.reformulations)
    record(
        benchmark,
        chain_length=length,
        candidates_examined=result.candidates_examined,
        reformulations=len(result.reformulations),
    )


def _outputs(result):
    return (
        result.universal_plan,
        result.reformulations,
        result.minimal_reformulations,
        result.candidates_examined,
    )


#: Every C&B input of the repo benchmark's ``reformulate`` workload.
_VERDICT_TABLE_WORKLOADS = {
    "chain5": lambda: chain_workload(5),
    "chain6": lambda: chain_workload(6),
    "orders": orders_workload,
    "star6": lambda: star_workload(6),
}


@pytest.mark.parametrize("semantics", ("set", "bag", "bag-set"))
@pytest.mark.parametrize("workload", sorted(_VERDICT_TABLE_WORKLOADS))
def bench_backchase_verdict_table(benchmark, workload, semantics):
    built = _VERDICT_TABLE_WORKLOADS[workload]()
    session = Session(dependencies=built.dependencies)

    def run():
        session.clear_cache()
        return session.reformulate(built.query, semantics)

    result = benchmark(run)
    reference_session = Session(dependencies=built.dependencies)
    reference_seconds = []
    for _ in range(3):
        reference_session.clear_cache()
        started = time.perf_counter()
        reference = chase_and_backchase_reference(reference_session, built.query, semantics)
        reference_seconds.append(time.perf_counter() - started)
    assert _outputs(result) == _outputs(reference)
    assert reference.candidates_chased == reference.candidates_examined
    record(
        benchmark,
        workload=workload,
        semantics=semantics,
        candidates_examined=result.candidates_examined,
        candidates_chased=result.candidates_chased,
        reformulations=len(result.reformulations),
    )
    if benchmark.enabled:
        record(
            benchmark,
            reference_speedup=round(min(reference_seconds) / benchmark.stats.stats.min, 1),
        )
