"""Experiment E13 — the ``repro serve`` daemon's warm-state value.

Two claims the serving subsystem makes, measured end-to-end over the real
TCP transport (in-process event-loop thread, same code path as the CLI
daemon):

* **warm request throughput** — once the daemon has chased a workload, every
  further identical ``decide`` is answered from the shared chase cache: the
  engine performs zero chases per request, so the cost is one JSON line each
  way plus a cache lookup.
* **restart latency with vs without the disk store** — the first request of
  a freshly started daemon must chase cold (two sound chases for the
  Theorem 4.2 workload) unless a :class:`ChaseStore` file is attached, in
  which case the chases come off disk and the profile stays at zero runs.

As elsewhere, the CI gate pins counts and ratios (chases per request, store
hits) rather than wall-clock seconds; see
``benchmarks/baselines/BENCH_serve_throughput.json``.
"""

from __future__ import annotations

import os
import threading
import time

from _util import record

import repro.serve.ops
import repro.serve.store
from repro.datalog import parse_dependencies, parse_query, render_query
from repro.serve import ChaseStore, ReproClient, ReproServer
from repro.serve.ops import execute_op
from repro.session import Session

_WARM_REQUESTS = 25


def bench_warm_decide_throughput(benchmark, ex41):
    """Warm requests are chase-free: profile runs stay put across the loop."""
    q1, q4 = render_query(ex41.q1), render_query(ex41.q4)
    server = ReproServer(Session(dependencies=ex41.dependencies), port=0)
    with server.start_in_thread() as handle:
        with ReproClient(handle.host, handle.port) as client:
            client.decide(q1, q4, "bag")  # absorb the cold chases up front
            runs_before = client.stats()["profile"]["runs"]

            def warm_loop():
                for _ in range(_WARM_REQUESTS):
                    verdict = client.decide(q1, q4, "bag")
                return verdict

            verdict = benchmark(warm_loop)
            runs_after = client.stats()["profile"]["runs"]

    assert verdict["equivalent"] is False
    assert runs_after == runs_before  # zero chases across every warm request
    record(
        benchmark,
        requests_per_round=_WARM_REQUESTS,
        chases_per_request=runs_after - runs_before,
    )


def bench_restart_first_request(benchmark, ex41, tmp_path):
    """First decide after restart: cold chase without a store, disk hit with.

    One measured round restarts the daemon twice on the same workload —
    once bare, once on a pre-populated store file — and times the first
    ``decide`` of each.  The deterministic half (store restart performs zero
    chase runs, the bare restart performs two) is always asserted; the
    wall-clock ratio is recorded for the report but not gated.
    """
    q1, q4 = render_query(ex41.q1), render_query(ex41.q4)
    store_path = tmp_path / "bench-store.jsonl"

    # Pre-populate the store file once, outside the measured region.
    seeder = Session(dependencies=ex41.dependencies, store=ChaseStore(store_path))
    seeder.decide(ex41.q1, ex41.q4, "bag")
    seeder.store.close()

    def first_request(store):
        server = ReproServer(
            Session(dependencies=ex41.dependencies), port=0, store=store
        )
        with server.start_in_thread() as handle:
            with ReproClient(handle.host, handle.port) as client:
                started = time.perf_counter()
                verdict = client.decide(q1, q4, "bag")
                elapsed = time.perf_counter() - started
                stats = client.stats()
        return verdict, elapsed, stats

    def measure():
        bare = first_request(None)
        warm = first_request(ChaseStore(store_path))
        return bare, warm

    (bare_verdict, bare_s, bare_stats), (warm_verdict, warm_s, warm_stats) = (
        benchmark(measure)
    )

    assert bare_verdict["equivalent"] is False
    assert warm_verdict["equivalent"] is False
    assert bare_stats["profile"]["runs"] == 2  # cold restart chased
    assert warm_stats["profile"]["runs"] == 0  # store restart did not
    assert warm_stats["store"]["hits"] >= 2
    record(
        benchmark,
        cold_restart_runs=bare_stats["profile"]["runs"],
        store_restart_runs=warm_stats["profile"]["runs"],
        store_restart_hits=warm_stats["store"]["hits"],
        restart_speedup=round(bare_s / warm_s, 2) if warm_s else float("inf"),
    )


# --------------------------------------------------------------------------- #
# Warm-path tier: the text work one churn cycle does
# --------------------------------------------------------------------------- #
#: Example 4.1's Σ plus a 12-relation key chain: the daemon churn workload's Σ.
_CHURN_RELATIONS = [f"r{i}" for i in range(1, 13)]
_CHURN_SIGMA = "\n".join(
    [
        "p(X,Y) -> s(X,Z) & t(X,V,W)",
        "p(X,Y) -> t(X,Y,W)",
        "p(X,Y) -> r(X)",
        "p(X,Y) -> u(X,Z) & t(X,Y,W)",
        "s(X,Y) & s(X,Z) -> Y = Z",
        "t(X,Y,Z) & t(X,Y,W) -> Z = W",
    ]
    + [f"{rel}(X1,Y2a) & {rel}(X1,Y2b) -> Y2a = Y2b" for rel in _CHURN_RELATIONS]
    + [f"{a}(X1,X2) -> {b}(X2,Y1)" for a, b in zip(_CHURN_RELATIONS, _CHURN_RELATIONS[1:])]
)
_CHURN_BASE = "Q(X0) :- r1(X0, X1)"
_CHURN_BASE2 = "Q(X0) :- r1(X0, X1), r2(X1, X2)"
_CHURN_GROWN = "Q(X0) :- r1(X0, X1), p(X0, Y9)"
_CHURN_DEPENDENCY = "r1(X,Y) -> w(X)"
_CHURN_CYCLES = 4


def _decide(left, right):
    return "decide", {"query": left, "other": right, "semantics": "bag-set"}


def _delta(**params):
    return "apply-delta", dict(params, query=_CHURN_BASE, semantics="bag-set")


def _churn_cycle(k):
    """Cycle *k*: grow the base query, two decides, add a dependency, two
    decides of queries new in this cycle, remove the dependency, the first
    two decides again."""
    return [
        _delta(add_atoms="p(X0, Y9)"),
        _decide(_CHURN_GROWN, _CHURN_BASE),
        _decide(_CHURN_BASE, _CHURN_BASE2),
        _delta(add_dependencies=_CHURN_DEPENDENCY),
        _decide(f"Q(X0) :- r1(X0, X1), v(X0, 'c{k}a')", _CHURN_BASE),
        _decide(f"Q(X0) :- r1(X0, X1), v(X0, 'c{k}b')", _CHURN_BASE2),
        _delta(remove_dependencies=_CHURN_DEPENDENCY),
        _decide(_CHURN_GROWN, _CHURN_BASE),
        _decide(_CHURN_BASE, _CHURN_BASE2),
    ]


def bench_warm_path_counts(benchmark, tmp_path, monkeypatch):
    """Store appends and parses per churn cycle, through ``execute_op``.

    An in-process replay of the daemon churn workload's cycle over a
    :class:`ChaseStore`: every Σ edit invalidates the chase cache, so the
    repeated decides are served off the store.  After two warm-up cycles, a
    cycle appends only its two cold chases' records, restores no store
    record by parsing it again, and parses only its two new query texts.
    Parses are counted on the two module-global ``parse_query`` names the
    serving layer calls; appends are the store's ``writes``.
    """
    parses = {"ops": 0, "store": 0}
    for module, name in ((repro.serve.ops, "ops"), (repro.serve.store, "store")):
        def counting(text, _parse=module.parse_query, _name=name):
            parses[_name] += 1
            return _parse(text)

        monkeypatch.setattr(module, "parse_query", counting)

    store = ChaseStore(tmp_path / "bench-churn-store.jsonl")
    session = Session(
        dependencies=parse_dependencies(
            _CHURN_SIGMA,
            set_valued=["s", "t", *_CHURN_RELATIONS],
        ),
        store=store,
        chase_resumable=True,  # as ``repro serve`` builds its Session
    )
    execute_op(session, *_decide(_CHURN_BASE, _CHURN_BASE2))  # first chases
    # Cycle 0 writes the repeated decides' records; cycle 1 first reads them.
    warm_up = [
        [execute_op(session, op, params) for op, params in _churn_cycle(k)]
        for k in range(2)
    ]

    def cycles():
        before = dict(parses, writes=store.stats()["writes"])
        answers = [
            [execute_op(session, op, params) for op, params in _churn_cycle(k)]
            for k in range(2, 2 + _CHURN_CYCLES)
        ]
        after = dict(parses, writes=store.stats()["writes"])
        return answers, {name: after[name] - before[name] for name in after}

    answers, counts = benchmark.pedantic(cycles, rounds=1, iterations=1)
    store.close()

    def verdicts(cycle):
        return [answer.get("equivalent", answer.get("resumed")) for answer in cycle]

    assert all(verdicts(cycle) == verdicts(warm_up[0]) for cycle in warm_up + answers)
    record(
        benchmark,
        measured_cycles=_CHURN_CYCLES,
        appends_per_cycle=counts["writes"] / _CHURN_CYCLES,
        record_parses_per_cycle=counts["store"] / _CHURN_CYCLES,
        query_parses_per_cycle=counts["ops"] / _CHURN_CYCLES,
        store_hit_rate=round(store.hits / (store.hits + store.misses), 3),
    )


# --------------------------------------------------------------------------- #
# Multi-worker tier (``--workers N``: the process pool behind one acceptor)
# --------------------------------------------------------------------------- #
_POOL_WORKERS = 2

#: Concurrency shape of the scaling tier: clients x requests-per-client.
_SCALE_CLIENTS = 8
_SCALE_REQUESTS = 8
_SCALE_WORKERS = 4
#: The >=2x scaling floor is only meaningful with enough physical cores for
#: 4 engine processes plus the acceptor and the client threads.
_SCALE_MIN_CORES = 6
_SCALE_FLOOR = 2.0


def _distinct_pairs(count):
    """*count* structurally distinct set-equivalent pairs over Example 4.1's
    schema.  A per-pair constant makes every pair its own chase-cache (and
    store) entry, so each request performs real engine work — a disk-store
    load plus the containment checks — instead of an in-memory cache hit."""
    return [
        (
            parse_query(f"Qa(X) :- p(X, 'c{i}'), p(X, Y)"),
            parse_query(f"Qb(X) :- p(X, 'c{i}'), p(X, Y), p(X, Z)"),
        )
        for i in range(count)
    ]


def _seed_store(dependencies, store_path, pairs):
    seeder = Session(dependencies=dependencies, store=ChaseStore(store_path))
    for left, right in pairs:
        assert seeder.decide(left, right, "set").equivalent
    seeder.store.close()


def bench_multiworker_store_warm(benchmark, ex41, tmp_path):
    """A 2-worker pool on a pre-populated store chases nothing, ever.

    Deterministic CI tier for the process pool: the acceptor session never
    chases (it only parses and validates), and every worker's first serve of
    the workload is a disk hit against the shared :class:`ChaseStore` — the
    merged cross-worker profile must report **zero** chase runs."""
    q1, q4 = render_query(ex41.q1), render_query(ex41.q4)
    store_path = tmp_path / "bench-pool-store.jsonl"
    seeder = Session(dependencies=ex41.dependencies, store=ChaseStore(store_path))
    seeder.decide(ex41.q1, ex41.q4, "bag")
    seeder.store.close()

    server = ReproServer(
        Session(dependencies=ex41.dependencies),
        port=0,
        workers=_POOL_WORKERS,
        store=ChaseStore(store_path),
    )
    with server.start_in_thread() as handle:
        with ReproClient(handle.host, handle.port) as client:
            client.decide(q1, q4, "bag")  # the serving worker warms off disk

            def warm_loop():
                for _ in range(_WARM_REQUESTS):
                    verdict = client.decide(q1, q4, "bag")
                return verdict

            verdict = benchmark(warm_loop)
            stats = client.stats()

    assert verdict["equivalent"] is False
    assert stats["profile"]["runs"] == 0  # merged across workers: no chase
    assert stats["store"]["hits"] >= 2
    assert stats["pool"]["workers"] == _POOL_WORKERS
    assert stats["pool"]["crashes"] == 0
    record(
        benchmark,
        workers=stats["pool"]["workers"],
        merged_chase_runs=stats["profile"]["runs"],
        store_hits_total=stats["store"]["hits"],
        requests_total=stats["pool"]["requests_dispatched"],
    )


def _pool_throughput(dependencies, workers, store_path, pairs):
    """Requests/second for *pairs* spread over concurrent clients."""
    server = ReproServer(
        Session(dependencies=dependencies),
        port=0,
        workers=workers,
        store=ChaseStore(store_path) if store_path is not None else None,
    )
    with server.start_in_thread() as handle:
        clients = [
            ReproClient(handle.host, handle.port, timeout=120.0)
            for _ in range(_SCALE_CLIENTS)
        ]
        try:
            barrier = threading.Barrier(_SCALE_CLIENTS + 1)
            failures: list[BaseException] = []

            def run(client, slice_pairs):
                try:
                    barrier.wait()
                    for left, right in slice_pairs:
                        verdict = client.decide(
                            render_query(left), render_query(right), "set"
                        )
                        assert verdict["equivalent"] is True
                except BaseException as exc:  # surfaced after join
                    failures.append(exc)

            threads = [
                threading.Thread(
                    target=run,
                    args=(
                        client,
                        pairs[i * _SCALE_REQUESTS : (i + 1) * _SCALE_REQUESTS],
                    ),
                )
                for i, client in enumerate(clients)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            started = time.perf_counter()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            if failures:
                raise failures[0]
        finally:
            for client in clients:
                client.close()
    return (_SCALE_CLIENTS * _SCALE_REQUESTS) / elapsed


def bench_multiworker_scaling(benchmark, ex41, tmp_path):
    """Warm throughput, 1 engine vs 4: the pool's reason to exist, timed.

    Every request is a distinct pair (per-pair constants), so each one costs
    a real store load plus containment checks inside a worker — work that a
    single serialized engine cannot parallelize.  Excluded from CI's bench
    gate (``-k "not scaling"``): the ratio needs >= ``_SCALE_MIN_CORES``
    physical cores to mean anything, and shared runners have fewer.  On a
    big enough machine the 4-worker pool must clear ``_SCALE_FLOOR``x the
    single-engine warm throughput (target 2.5x); the cold (storeless) ratio
    is recorded for the report but not gated."""
    pairs = _distinct_pairs(_SCALE_CLIENTS * _SCALE_REQUESTS)
    store_path = tmp_path / "bench-scaling-store.jsonl"
    _seed_store(ex41.dependencies, store_path, pairs)

    def measure():
        warm_1 = _pool_throughput(ex41.dependencies, 1, store_path, pairs)
        warm_n = _pool_throughput(
            ex41.dependencies, _SCALE_WORKERS, store_path, pairs
        )
        cold_1 = _pool_throughput(ex41.dependencies, 1, None, pairs)
        cold_n = _pool_throughput(ex41.dependencies, _SCALE_WORKERS, None, pairs)
        return warm_1, warm_n, cold_1, cold_n

    warm_1, warm_n, cold_1, cold_n = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    warm_ratio = warm_n / warm_1
    cold_ratio = cold_n / cold_1
    cores = os.cpu_count() or 1
    gated = cores >= _SCALE_MIN_CORES
    record(
        benchmark,
        workers_compared=_SCALE_WORKERS,
        concurrent_clients=_SCALE_CLIENTS,
        warm_rps_1=round(warm_1, 1),
        warm_rps_n=round(warm_n, 1),
        cold_throughput_ratio=round(cold_ratio, 2),
        cores=cores,
        ratio_gated=gated,
    )
    # The gated ratio is only *recorded* on machines with enough cores for
    # it to mean anything; elsewhere it goes out under an ungated name so
    # the trend gate's optional pin skips it instead of failing.
    if gated:
        record(benchmark, warm_throughput_ratio=round(warm_ratio, 2))
        assert warm_ratio >= _SCALE_FLOOR, (
            f"4-worker warm throughput only {warm_ratio:.2f}x the single "
            f"engine (floor {_SCALE_FLOOR}x, {cores} cores)"
        )
    else:
        record(benchmark, warm_throughput_ratio_ungated=round(warm_ratio, 2))
