"""Re-measure the two layer breakdowns that motivate the benchmark.

Usage, from the repository root::

    python3 e2ebench/breakdown.py

* **Cold chase**: the bag-set sound chase of the large chain, star and
  clique tiers (one chase each, as ``bench_chase_scaling`` runs them), timed
  untraced, then traced with the wrappers of :mod:`tracing`: the share of
  the chase spent in tgd trigger search, in Definition 4.3 tests, in
  ``TargetIndex`` builds and in step application, and index builds per
  applied step.  The kernel-internal split of trigger search (its
  ``verified_ids`` loop) is not visible from outside the program.
* **Warm decide**: Example 4.1 bag ``decide`` on a warm Session, in process:
  with the same query objects, with fresh objects parsed from text, and
  through ``repro.serve.ops.execute_op`` (parse, decide, render).  The wire
  part comes from ``run.py --workload warm-serve --trace 1``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402

clock = time.perf_counter
REPS = 3


def cold() -> None:
    from repro import parse_dependencies, parse_query
    from repro.chase import sound_chase

    tier = inputs.COLD_TIERS["large"]
    cases = [
        (inputs.chain_sigma(tier["chain"]), inputs.chain_query(1, 1)),
        (inputs.star_sigma(*tier["star"]), inputs.star_query(0)),
        (inputs.clique_sigma(tier["clique"][1]), inputs.clique_query(tier["clique"][0])),
    ]
    parsed = [
        (parse_dependencies(s.text(), set_valued=list(s.set_valued)), parse_query(q.text()))
        for s, q in cases
    ]

    def run_all() -> tuple[float, int]:
        began = clock()
        steps = sum(
            sound_chase(query, sigma, "bag-set", 5000).step_count for sigma, query in parsed
        )
        return clock() - began, steps

    run_all()  # compile plans
    walls = [run_all()[0] for _ in range(REPS)]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        for sigma, query in parsed:
            # Through the patched name, so the outer chase gets its span.
            tracing.importlib.import_module("repro.chase.incremental").sound_chase(
                query, sigma, "bag-set", 5000
            )
    finally:
        undo()
    _, steps = run_all()
    totals = tracer.totals()
    chase = totals["chase.sound_chase"]["total"]

    def share(name: str, field: str = "total") -> float:
        return totals.get(name, {}).get(field, 0.0) / chase

    print("cold bag-set sound chase, large chain + star + clique tiers")
    print(f"  untraced wall: median {statistics.median(walls):.3f} s over {REPS} runs "
          f"({', '.join(f'{w:.3f}' for w in walls)})")
    print(f"  traced wall: {chase:.3f} s; shares of the traced chase time:")
    print(f"    tgd trigger search, with its kernel probes : {share('chase.tgd_search'):.1%}")
    print(f"    Definition 4.3 tests (nested chases)       : {share('chase.af_test'):.1%}")
    print(f"    tgd step search in total (search + tests)  : "
          f"{share('chase.tgd_search') + share('chase.af_test'):.1%}")
    print(f"    egd trigger search                         : {share('chase.egd_search'):.1%}")
    print(f"    TargetIndex builds                         : {share('chase.index_build'):.1%}")
    print(f"    step application (incl. body copies)       : {share('chase.step_apply'):.1%}")
    builds = totals.get("chase.index_build", {}).get("calls", 0)
    print(f"  {builds} index builds for {steps} applied steps "
          f"({builds / steps:.2f} per step)")


def warm() -> None:
    from repro import Session, parse_dependencies, parse_query
    from repro.serve.ops import execute_op

    sigma = inputs.example_4_1_sigma()
    session = Session(
        dependencies=parse_dependencies(sigma.text(), set_valued=list(sigma.set_valued))
    )
    left, right = (inputs.EX41_QUERIES["q1"].text(), inputs.EX41_QUERIES["q4"].text())
    q1, q2 = parse_query(left), parse_query(right)
    session.decide(q1, q2, "bag")
    params = {"query": left, "other": right, "semantics": "bag"}

    def per_call_us(fn, count: int = 3000) -> float:
        samples = []
        for _ in range(REPS):
            began = clock()
            for _ in range(count):
                fn()
            samples.append((clock() - began) / count * 1e6)
        return statistics.median(samples)

    same = per_call_us(lambda: session.decide(q1, q2, "bag"))
    parse = per_call_us(lambda: (parse_query(left), parse_query(right)))
    fresh = per_call_us(lambda: session.decide(parse_query(left), parse_query(right), "bag"))
    op = per_call_us(lambda: execute_op(session, "decide", params))
    print("warm Example 4.1 bag decide, in process (median of per-call means)")
    print(f"  same query objects        : {same:8.1f} us")
    print(f"  parsing both queries      : {parse:8.1f} us")
    print(f"  fresh objects (parse + decide): {fresh:8.1f} us")
    print(f"  through execute_op        : {op:8.1f} us")


if __name__ == "__main__":
    cold()
    warm()
