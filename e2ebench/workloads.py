"""The four workloads: warm-serve, cold-decide, reformulate, delta-churn.

Each workload function takes the run's :class:`Context` and returns an
:class:`Outcome`: the metrics of the requested kind (end-to-end when
untraced, per-layer when traced), the ops attempted and failed, and lines
for the human-readable report.

The machine the benchmark runs on is shared, and its speed dips for
seconds at a time.  So no end-to-end figure rests on one stretch of time:
each run is cut into many short blocks that do the same work (a cycle of
every op class for the library workloads, an equal slice of time for the
daemon workloads), p50 and ops/s are read from the raw samples of the
quieter half of the blocks, and p99 from every sample (:func:`summarize`).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import checks
import inputs
import layers
from daemon import BenchError, Connection, Daemon, RungResult, encode_request, open_loop, quiet_client

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up is repeated and its median reported, so a noisy spawn is not the number.
SETUP_REPS = 7
#: Time slices per daemon run.
BLOCKS = 16
#: warm-serve: requests kept in flight on its one connection, and the rate of
#: the open-loop window its traced run splits over the layers.
WINDOW = 8
REFERENCE_RATE = 500

MAX_STEPS = 5000


@dataclass
class Context:
    root: str
    out: str
    seed: int
    seconds: float
    trace: bool
    expected: dict[str, Any]
    inputs: inputs.Inputs = field(init=False)
    #: Every daemon started; the runner stops them all, whatever happens.
    daemons: list[Daemon] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.inputs = inputs.Inputs(self.seed)

    def stop_daemons(self) -> None:
        for daemon in self.daemons:
            daemon.stop()

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    lines: list[str] = field(default_factory=list)


@dataclass
class Timed:
    """Latencies (s) of one block, its wall time, and per-request stamps.

    ``stamps`` holds ``(request id, sent, received)`` for the daemon
    workloads, so a traced run can match requests with the daemon's spans.
    """

    latencies: list[float] = field(default_factory=list)
    wall: float = 0.0
    failed: int = 0
    stamps: list[tuple[int, float, float]] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.latencies) / len(self.latencies)


@dataclass
class Summary:
    """The latency and throughput figures of one run."""

    p50_ms: float
    p99_ms: float
    ops_per_s: float
    attempted: int
    failed: int


def summarize(blocks: list[Timed]) -> Summary:
    """p50 and ops/s from the quieter half of *blocks*; p99 from every sample.

    The blocks do the same work, so the half with the lowest mean latency is
    the half the host slowed least; p50 and ops/s are read from the raw
    samples of those blocks.  A tail needs every sample to hold enough
    samples beyond it, so p99 is read over all blocks, and an op that stalls
    now and then moves it.
    """
    kept = sorted(blocks, key=lambda block: block.mean)[: (len(blocks) + 1) // 2]
    quiet = [lat for block in kept for lat in block.latencies]
    every = [lat for block in blocks for lat in block.latencies]
    return Summary(
        1e3 * checks.median(quiet),
        1e3 * checks.quantile(every, 0.99),
        len(quiet) / sum(block.wall for block in kept),
        sum(len(block.latencies) for block in blocks),
        sum(block.failed for block in blocks),
    )


def end_to_end(setup: list[float], summary: Summary, rss_mb: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (checks.median(setup), "s"),
        "p50_ms": (summary.p50_ms, "ms"),
        "p99_ms": (summary.p99_ms, "ms"),
        "ops_per_s": (summary.ops_per_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    return {name: (float(values[name]), unit) for name, (unit, _) in layers.LAYER_METRICS.items()}


def process_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_sigma(ctx: Context, sigma: inputs.Sigma) -> str:
    path = ctx.path(f"sigma-{sigma.name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(sigma.text())
    return path


def traced_overhead(plain: Summary, traced: Summary) -> dict[str, float]:
    return {
        "trace.overhead_p50_ms": traced.p50_ms - plain.p50_ms,
        "trace.overhead_ops_per_s": traced.ops_per_s - plain.ops_per_s,
    }


# =========================================================================== #
# Library workloads: cold-decide and reformulate, through Session
# =========================================================================== #
@dataclass
class LibraryOp:
    label: str
    session: Any
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the answer is right
    results: Callable[[Any], int] = lambda answer: 0  # reformulations returned


def library_setup_s(ctx: Context, name: str) -> float:
    """One set-up of the library workload *name*, in a fresh process.

    A set-up is interpreter start, the library imports, Σ parse, the
    Sessions and their plan warm-up (``setup_once.py``).
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
    command = [sys.executable, os.path.join(HERE, "setup_once.py"), name, str(ctx.seed)]
    started = clock()
    # No timeout: with one, the wait polls and rounds the time to 50 ms.
    subprocess.run(command, cwd=ctx.root, env=env, check=True)
    return clock() - started


def _library(ctx: Context, name: str) -> Outcome:
    """Closed loop, one thread: cycles of every op class in a seeded order.

    Untraced, the :data:`SETUP_REPS` set-ups are spread evenly over the run,
    between cycles, so their median does not rest on one stretch of time.
    """
    import tracing

    sessions, ops = LIBRARY_BUILDS[name](ctx)
    results = [0]
    setup: list[float] = []

    def cycles(seconds: float, tracer: Any = None) -> list[Timed]:
        done: list[Timed] = []
        started = clock()
        while not done or clock() - started < seconds:
            if not ctx.trace and len(setup) * seconds <= SETUP_REPS * (clock() - started):
                setup.append(library_setup_s(ctx, name))
            cycle = Timed()
            for op in ctx.inputs.shuffled(ops):
                op.session.clear_cache()
                if tracer is not None:
                    tracer.set_request(op.label)
                began = clock()
                answer = op.run()
                cycle.latencies.append(clock() - began)
                results[0] += op.results(answer)
                problem = op.check(answer)
                if problem is not None:
                    cycle.failed += 1
                    checks.report_wrong(op.label, problem)
            cycle.wall = sum(cycle.latencies)
            done.append(cycle)
        return done

    if not ctx.trace:
        done = cycles(ctx.seconds)
        summary = summarize(done)
        lines = [
            f"{len(ops)} op classes per cycle, {len(done)} cycles, "
            f"{summary.attempted} ops timed",
            "cycle s " + ", ".join(f"{cycle.wall:.3f}" for cycle in done),
        ]
        metrics = end_to_end(setup, summary, process_rss_mb())
        return Outcome(metrics, summary.attempted, summary.failed, lines)

    plain = summarize(cycles(ctx.seconds / 2))
    results[0] = 0
    tracer = tracing.Tracer()
    before = layers.sum_stats([s.stats() for s in sessions])
    uninstall = tracing.install(tracer)
    try:
        traced = summarize(cycles(ctx.seconds / 2, tracer))
    finally:
        uninstall()
    after = layers.sum_stats([s.stats() for s in sessions])
    tracer.dump(ctx.path("spans.json"))
    extra = traced_overhead(plain, traced)
    if name == "reformulate":
        extra["reformulation.results_per_op"] = results[0] / traced.attempted
    totals = tracer.totals()
    values = layers.layer_metrics(
        totals, layers.stats_delta(before, after), traced.attempted, extra
    )
    lines = layer_report(values, totals) + [
        f"untraced p50 {plain.p50_ms:.3f} ms, {plain.ops_per_s:.3f} ops/s; "
        f"traced p50 {traced.p50_ms:.3f} ms, {traced.ops_per_s:.3f} ops/s",
    ]
    return Outcome(
        per_layer(values), plain.attempted + traced.attempted, plain.failed + traced.failed, lines
    )


def _sigma_session(sigma: inputs.Sigma) -> Any:
    from repro import Session, parse_dependencies
    from repro.chase.plans import PlanCache

    dependencies = parse_dependencies(sigma.text(), set_valued=list(sigma.set_valued))
    return Session(dependencies=dependencies, max_steps=MAX_STEPS, plan_cache=PlanCache())


def _warm_up(session: Any) -> None:
    """Compile Σ's match plans: one trivial chase per semantics."""
    from repro import parse_query

    probe = parse_query("Warm(X) :- warmup_probe(X)")
    for semantics in inputs.SEMANTICS:
        session.chase(probe, semantics)
    session.clear_cache()


def build_cold_decide(ctx: Context) -> tuple[list[Any], list[LibraryOp]]:
    from repro import parse_query

    expected = ctx.expected["cold-decide"]
    sessions: dict[str, Any] = {}
    pairs: dict[str, tuple[Any, Any]] = {}
    for family in inputs.cold_decide_families():
        session = sessions[family.key] = _sigma_session(family.sigma)
        _warm_up(session)
        pairs[family.key] = (
            parse_query(ctx.inputs.text(family.left)),
            parse_query(ctx.inputs.text(family.right)),
        )
    ops = []
    for key, semantics in inputs.cold_decide_ops():
        session, (left, right) = sessions[key], pairs[key]
        ops.append(
            LibraryOp(
                f"{key}/{semantics}", session,
                lambda s=session, a=left, b=right, m=semantics: s.decide(a, b, m),
                lambda verdict, want=expected[key][semantics]: _check_verdict(verdict, want),
            )
        )
    return list(sessions.values()), ops


def _check_verdict(verdict: Any, want: dict[str, Any]) -> str | None:
    got = {
        "equivalent": bool(verdict),
        "left": len(verdict.chased_left.body),
        "right": len(verdict.chased_right.body),
    }
    return None if got == want else f"got {got}, expected {want}"


def build_reformulate(ctx: Context) -> tuple[list[Any], list[LibraryOp]]:
    from repro import parse_query

    expected = ctx.expected["reformulate"]
    sessions = []
    ops = []
    for key, sigma, query in inputs.reformulate_inputs():
        session = _sigma_session(sigma)
        _warm_up(session)
        sessions.append(session)
        parsed = parse_query(ctx.inputs.text(query))
        for semantics in inputs.SEMANTICS:
            ops.append(
                LibraryOp(
                    f"{key}/{semantics}", session,
                    lambda s=session, q=parsed, m=semantics: s.reformulate(q, m),
                    lambda result, want=expected[key][semantics]: _check_reformulations(
                        result, want
                    ),
                    lambda result: len(result.reformulations),
                )
            )
    return sessions, ops


def _check_reformulations(result: Any, want: dict[str, Any]) -> str | None:
    forms = sorted(checks.canonical_form(q.head_terms, q.body) for q in result.reformulations)
    if forms != want["reformulations"]:
        return f"{len(forms)} reformulations, expected {len(want['reformulations'])}"
    if len(result.universal_plan.body) != want["universal_plan"]:
        return f"universal plan of {len(result.universal_plan.body)} atoms"
    return None


LIBRARY_BUILDS: dict[str, Callable[[Context], tuple[list[Any], list[LibraryOp]]]] = {
    "cold-decide": build_cold_decide,
    "reformulate": build_reformulate,
}


# =========================================================================== #
# Daemon workloads: warm-serve and delta-churn, through repro serve
# =========================================================================== #
def _spawn(
    ctx: Context, sigma_file: str, sigma: inputs.Sigma, tag: str, *,
    store: str | None = None, traced: bool = False,
) -> Daemon:
    daemon = Daemon(
        ctx.root, ctx.path("daemon.log"), sigma_file, sigma.set_valued,
        store=store, trace_out=ctx.path(f"spans-{tag}.json") if traced else None,
    )
    ctx.daemons.append(daemon)
    daemon.start()
    return daemon


def _read_trace(daemon: Daemon) -> dict[str, Any]:
    assert daemon.trace_out is not None
    with open(daemon.trace_out, encoding="utf-8") as handle:
        return json.load(handle)


def _daemon_untraced(
    start: Callable[[str], tuple[Daemon, Connection, Any, float]],
    run: Callable[[Connection, float], Timed],
    seconds: float,
) -> tuple[Outcome, list[Timed]]:
    """:data:`BLOCKS` equal slices of *run* on a set-up daemon, then stop it.

    *start* returns ``(daemon, connection, store path, setup seconds)``.
    The first set-up's daemon serves the run; the other set-ups are spread
    evenly between the slices, each daemon stopped once it is up, so the
    median set-up time does not rest on one stretch of time.
    """
    daemon, conn, _, first = start("run")
    setup = [first]
    try:
        blocks = []
        for index in range(BLOCKS):
            if len(setup) < SETUP_REPS and index % (BLOCKS // SETUP_REPS) == 0:
                extra, extra_conn, _, took = start(f"setup{len(setup)}")
                extra_conn.close()
                extra.stop()
                setup.append(took)
            blocks.append(run(conn, seconds / BLOCKS))
        rss = daemon.vm_hwm_mb()
    finally:
        conn.close()
        daemon.stop()
    summary = summarize(blocks)
    lines = [
        "block p50 ms " + ", ".join(f"{1e3 * checks.median(b.latencies):.3f}" for b in blocks),
        "block mean ms " + ", ".join(f"{1e3 * b.mean:.3f}" for b in blocks),
    ]
    outcome = Outcome(end_to_end(setup, summary, rss), summary.attempted, summary.failed, lines)
    return outcome, blocks


def _daemon_traced(
    ctx: Context,
    start: Callable[..., tuple[Any, ...]],
    window: Callable[[Connection, Any], tuple[Timed, list[tuple[int, float, float]], int]],
    extra: Callable[[dict[str, Any], Any], dict[str, float]],
) -> Outcome:
    """A plain daemon, then a traced one, each driven by *window*.

    *start* returns ``(daemon, connection, store path, setup seconds)``.
    *window* returns the timed closed-loop part of its traffic, the stamps
    of the requests to split over the layers, and the requests it sent;
    *extra* adds what only the workload can measure, from the counter delta
    and the store path.
    """
    windows: dict[bool, Summary] = {}
    attempted = failed = 0
    for traced in (False, True):
        daemon, conn, store, _ = start("traced" if traced else "plain", traced)
        try:
            if traced:
                before = conn.call("stats")["result"]
                daemon.signal(signal.SIGUSR1)
                time.sleep(0.2)
            timed, stamps, sent = window(conn, store)
            if traced:
                after = conn.call("stats")["result"]
                delta_stats = layers.stats_delta(before, after)
                more = extra(delta_stats, store)
        finally:
            conn.close()
            daemon.stop()
        windows[traced] = summarize([timed])
        attempted += sent
        failed += timed.failed
    trace = _read_trace(daemon)
    plain, traced_summary = windows[False], windows[True]
    per_request = _request_breakdown(trace["spans"], stamps)
    values = layers.layer_metrics(
        trace["totals"], delta_stats, traced_summary.attempted,
        {
            "serve.wire_us": per_request["wire"],
            "serve.engine_share": per_request["engine"] / per_request["client"],
            **traced_overhead(plain, traced_summary),
            **more,
        },
    )
    lines = layer_report(values, trace["totals"]) + [
        "traced request, mean us: "
        + ", ".join(f"{key} {per_request[key]:.1f}" for key in (
            "client", "decode", "dispatch_hop", "execute_op", "encode", "glue", "wire"
        )),
        f"  client = decode + dispatch_hop + execute_op + encode + glue + wire; "
        f"of execute_op: parse {per_request['parse']:.1f}, engine (Session) "
        f"{per_request['engine']:.1f}, render {per_request['render']:.1f}; "
        f"{int(per_request['matched'])} requests matched with their spans",
        f"untraced p50 {plain.p50_ms:.3f} ms, {plain.ops_per_s:.1f} ops/s; "
        f"traced p50 {traced_summary.p50_ms:.3f} ms, {traced_summary.ops_per_s:.1f} ops/s",
    ]
    return Outcome(per_layer(values), attempted, failed, lines)


def _request_breakdown(
    spans: list[list[Any]], stamps: list[tuple[int, float, float]]
) -> dict[str, float]:
    """Client latency of each traced request split over the server spans.

    ``client`` = send to reply; the server span runs from decode start to
    encode end; ``wire`` is the rest (socket, loop scheduling, queueing
    behind the previous request); ``glue`` is the part of the server span
    no span covers (the event loop between decode, dispatch and encode);
    ``engine`` is the Session's own call (decide or apply_delta).
    """
    by_request: dict[Any, dict[str, list[float]]] = {}
    for _, _, name, start, end, request in spans:
        if request is not None:
            by_request.setdefault(request, {}).setdefault(name, []).extend((start, end))
    sums: dict[str, float] = {}
    count = 0
    for request_id, sent, received in stamps:
        own = by_request.get(request_id)
        if not own or "serve.decode" not in own or "serve.encode" not in own:
            continue

        def dur(name: str) -> float:
            times = own.get(name, [])
            return sum(times[i + 1] - times[i] for i in range(0, len(times), 2))

        server = own["serve.encode"][-1] - own["serve.decode"][0]
        client = received - sent
        parts = {
            "client": client,
            "decode": dur("serve.decode"),
            "dispatch_hop": dur("serve.dispatch") - dur("serve.execute_op"),
            "execute_op": dur("serve.execute_op"),
            "encode": dur("serve.encode"),
            "parse": dur("datalog.parse"),
            "render": dur("datalog.render"),
            "engine": dur("session.decide") + dur("session.apply_delta"),
            "wire": client - server,
        }
        parts["glue"] = server - parts["decode"] - dur("serve.dispatch") - parts["encode"]
        for key, value in parts.items():
            sums[key] = sums.get(key, 0.0) + value
        count += 1
    if not count:
        raise BenchError("no traced request matched its spans")
    means = {key: 1e6 * value / count for key, value in sums.items()}
    means["matched"] = float(count)
    return means


class WarmChecker:
    """Checks decide responses and collects verdicts for Proposition 6.1."""

    def __init__(self, expected: dict[str, Any]):
        self.expected = expected
        self.verdicts: dict[str, dict[str, bool]] = {}

    def __call__(self, pair: str, semantics: str, response: dict[str, Any]) -> bool:
        want = self.expected[pair][semantics]
        if not response.get("ok"):
            return False
        result = response["result"]
        chased = result["chased"]
        self.verdicts.setdefault(pair, {})[semantics] = result["equivalent"]
        return (
            result["equivalent"] == want["equivalent"]
            and checks.atom_count(chased[0]) == want["left"]
            and checks.atom_count(chased[1]) == want["right"]
        )

    def chain_violations(self) -> int:
        count = 0
        for pair, verdicts in self.verdicts.items():
            for broken in checks.proposition_6_1_violations(verdicts):
                checks.report_wrong("proposition 6.1", f"{pair}: {broken}")
                count += 1
        return count


def warm_serve(ctx: Context) -> Outcome:
    """Repeat decide traffic on a warm daemon: every request is a cache hit.

    Untraced, a closed loop keeps :data:`WINDOW` requests in flight, so the
    rate is the connection's capacity.  Traced, each daemon also gets one
    open-loop window at :data:`REFERENCE_RATE`, whose requests do not queue
    behind each other and are split over the layers.
    """
    sigma = inputs.example_4_1_sigma()
    sigma_file = write_sigma(ctx, sigma)
    checker = WarmChecker(ctx.expected["warm-serve"])
    universe: list[tuple[str, str, dict[str, Any]]] = []
    for a, b in inputs.warm_serve_pairs():
        for semantics in inputs.SEMANTICS:
            params = {
                "query": ctx.inputs.text(inputs.EX41_QUERIES[a]),
                "other": ctx.inputs.text(inputs.EX41_QUERIES[b]),
                "semantics": semantics,
            }
            universe.append((f"{a}|{b}", semantics, params))
    next_id = [1_000_000]

    def start(tag: str, traced: bool = False) -> tuple[Daemon, Connection, None, float]:
        began = clock()
        daemon = _spawn(ctx, sigma_file, sigma, tag, traced=traced)
        conn = Connection(daemon.port)
        for pair, semantics, params in universe:
            if not checker(pair, semantics, conn.call("decide", params)):
                raise BenchError(f"warm-up answer wrong for {pair}/{semantics}")
        return daemon, conn, None, clock() - began

    def closed(conn: Connection, seconds: float) -> Timed:
        timed = Timed()
        pending: list[tuple[int, float]] = []
        started = clock()
        while True:
            while len(pending) < WINDOW:
                index = ctx.inputs.rng.randrange(len(universe))
                next_id[0] += 1
                conn.sock.sendall(encode_request(next_id[0], "decide", universe[index][2]))
                pending.append((index, clock()))
            index, sent = pending.pop(0)
            response = json.loads(conn.reader.readline())
            timed.latencies.append(clock() - sent)
            if not checker(universe[index][0], universe[index][1], response):
                timed.failed += 1
            if clock() - started >= seconds:
                break
        for index, _ in pending:
            if not checker(universe[index][0], universe[index][1], json.loads(conn.reader.readline())):
                timed.failed += 1
        timed.wall = clock() - started
        return timed

    def rung(conn: Connection, seconds: float) -> RungResult:
        indexes = ctx.inputs.request_stream(int(REFERENCE_RATE * seconds), len(universe))
        batch = []
        for index in indexes:
            next_id[0] += 1
            batch.append((next_id[0], encode_request(next_id[0], "decide", universe[index][2])))
        return open_loop(
            conn, batch, REFERENCE_RATE,
            lambda i, response: checker(universe[indexes[i]][0], universe[indexes[i]][1], response),
        )

    if not ctx.trace:
        outcome, _ = _daemon_untraced(start, closed, ctx.seconds)
        outcome.failed += checker.chain_violations()
        outcome.lines.insert(0, f"closed loop, {WINDOW} requests in flight, {BLOCKS} blocks")
        return outcome

    rungs: list[RungResult] = []

    def window(conn: Connection, _store: None) -> tuple[Timed, list[tuple[int, float, float]], int]:
        timed = closed(conn, 0.2 * ctx.seconds)
        rungs.append(rung(conn, 0.25 * ctx.seconds))
        reference = rungs[-1]
        timed.failed += reference.failed
        stamps = list(zip(reference.request_ids, reference.sent_at, reference.received_at))
        return timed, stamps, len(timed.latencies) + len(stamps)

    outcome = _daemon_traced(ctx, start, window, lambda delta, store: {})
    outcome.failed += checker.chain_violations()
    reference = rungs[-1]
    outcome.lines.append(
        f"open loop at {REFERENCE_RATE}/s, traced: generator lag p99 "
        f"{1e3 * checks.quantile(reference.lags, 0.99):.3f} ms, "
        f"backlog max {reference.backlog_max}"
    )
    return outcome


# --------------------------------------------------------------------------- #
#: Requests in one delta-churn cycle.
CHURN_OPS = 9


def _seed_store(ctx: Context, sigma: inputs.Sigma, path: str) -> int:
    """Write the pre-seeded store (through the library, outside set-up time)."""
    from repro import Session, parse_dependencies, parse_query
    from repro.serve import ChaseStore

    dependencies = parse_dependencies(sigma.text(), set_valued=list(sigma.set_valued))
    with ChaseStore(path) as store:
        session = Session(dependencies=dependencies, store=store, max_steps=MAX_STEPS)
        for index in range(inputs.CHURN_STORE_ENTRIES):
            query = parse_query(ctx.inputs.text(inputs.churn_seed_query(index)))
            session.chase(query, inputs.CHURN_SEMANTICS)
        return len(store)


def delta_churn(ctx: Context) -> Outcome:
    sigma = inputs.churn_sigma()
    sigma_file = write_sigma(ctx, sigma)
    seeded = ctx.path("store-seed.jsonl")
    if os.path.exists(seeded):
        os.remove(seeded)
    entries = _seed_store(ctx, sigma, seeded)
    want = ctx.expected["delta-churn"]
    semantics = inputs.CHURN_SEMANTICS
    text = ctx.inputs.text
    queries = {name: text(q) for name, q in inputs.churn_queries().items()}
    pred, terms = inputs.CHURN_ATOMS
    grow_atoms = f"{pred}({', '.join(t + ctx.inputs.suffix for t in terms)})"
    Request = tuple[str, dict[str, Any], Callable[[dict[str, Any]], bool]]

    def decide(left: str, right: str, key: str) -> Request:
        def check(response: dict[str, Any]) -> bool:
            if not response.get("ok"):
                return False
            result, expect = response["result"], want[key]
            return (
                result["equivalent"] == expect["equivalent"]
                and checks.atom_count(result["chased"][0]) == expect["left"]
                and checks.atom_count(result["chased"][1]) == expect["right"]
            )

        return "decide", {"query": left, "other": right, "semantics": semantics}, check

    def delta(params: dict[str, Any], key: str) -> Request:
        def check(response: dict[str, Any]) -> bool:
            if not response.get("ok"):
                return False
            result, expect = response["result"], want[key]
            return (
                result["resumed"] == expect["resumed"]
                and result["fallback_reason"] == expect["fallback_reason"]
                and checks.atom_count(result["chased"]) == expect["chased"]
            )

        return "apply-delta", dict(params, query=queries["base"], semantics=semantics), check

    def cycle(k: int) -> list[Request]:
        """The six steps; every constant is new, so step 4 always chases cold."""
        cold_a = text(inputs.churn_cold_query(f"c{ctx.inputs.suffix}{k}a"))
        cold_b = text(inputs.churn_cold_query(f"c{ctx.inputs.suffix}{k}b"))
        return [
            delta({"add_atoms": grow_atoms}, "grow"),
            decide(queries["grown"], queries["base"], "decide_grown_base"),
            decide(queries["base"], queries["base2"], "decide_base_base2"),
            delta({"add_dependencies": inputs.CHURN_DEPENDENCY}, "add_dependency"),
            decide(cold_a, queries["base"], "decide_cold_base"),
            decide(cold_b, queries["base2"], "decide_cold_base2"),
            delta({"remove_dependencies": inputs.CHURN_DEPENDENCY}, "remove_dependency"),
            decide(queries["grown"], queries["base"], "decide_grown_base"),
            decide(queries["base"], queries["base2"], "decide_base_base2"),
        ]

    def start(tag: str, traced: bool = False) -> tuple[Daemon, Connection, str, float]:
        """Spawn on a copy of the seeded store, warm the base queries, run cycle 0."""
        store = ctx.path(f"store-{tag}.jsonl")
        shutil.copyfile(seeded, store)
        began = clock()
        daemon = _spawn(ctx, sigma_file, sigma, tag, store=store, traced=traced)
        conn = Connection(daemon.port)
        warm = [decide(queries["base"], queries["base2"], "decide_base_base2")] + cycle(0)
        for op, params, check in warm:
            if not check(conn.call(op, params)):
                raise BenchError(f"warm-up answer wrong: {op} {params}")
        return daemon, conn, store, clock() - began

    next_cycle = [1]

    def run(conn: Connection, seconds: float) -> Timed:
        """Whole cycles, until *seconds* have passed."""
        timed = Timed()
        started = clock()
        while clock() - started < seconds:
            for op, params, check in cycle(next_cycle[0]):
                began = clock()
                response = conn.call(op, params)
                received = clock()
                timed.latencies.append(received - began)
                timed.stamps.append((conn.last_id, began, received))
                if not check(response):
                    timed.failed += 1
                    checks.report_wrong(op, json.dumps(response)[:300])
            next_cycle[0] += 1
        timed.wall = clock() - started
        return timed

    if not ctx.trace:
        outcome, blocks = _daemon_untraced(start, run, ctx.seconds)
        latencies = [lat for block in blocks for lat in block.latencies]
        steps = [latencies[i::CHURN_OPS] for i in range(CHURN_OPS)]
        outcome.lines[:0] = [
            f"store pre-seeded with {entries} entries; "
            f"{len(latencies) // CHURN_OPS} cycles of {CHURN_OPS} ops in {BLOCKS} blocks",
            "median ms per cycle position: "
            + ", ".join(f"{1e3 * checks.median(step):.2f}" for step in steps),
        ]
        return outcome

    size_before: list[int] = []

    def window(conn: Connection, store: str) -> tuple[Timed, list[tuple[int, float, float]], int]:
        size_before[:] = [os.path.getsize(store)]
        timed = run(conn, ctx.seconds / 2)
        return timed, timed.stamps, len(timed.latencies)

    def store_extra(delta_stats: dict[str, Any], store: str) -> dict[str, float]:
        size_after = os.path.getsize(store)
        writes = delta_stats.get("store", {}).get("writes", 0)
        return {
            "store.bytes_per_write": (size_after - size_before[0]) / writes if writes else 0.0,
            "store.file_bytes_end": float(size_after),
        }

    return _daemon_traced(ctx, start, window, store_extra)


# --------------------------------------------------------------------------- #
def layer_report(values: dict[str, float], totals: dict[str, dict[str, float]]) -> list[str]:
    """Self time per span name, then every per-layer metric by layer."""
    lines = ["self time per span over the traced window:"]
    for name, entry in sorted(totals.items(), key=lambda item: -item[1]["self"]):
        if entry["self"] > 0:
            lines.append(
                f"  {name:28s} self {entry['self'] * 1e3:10.2f} ms  "
                f"total {entry['total'] * 1e3:10.2f} ms  calls {int(entry['calls'])}"
            )
    lines.append("per-layer metrics:")
    layer = ""
    for name, (unit, _) in layers.LAYER_METRICS.items():
        if name.split(".")[0] != layer:
            layer = name.split(".")[0]
            lines.append(f" {layer} (should move {layers.LAYER_MOVES[layer]}):")
        lines.append(f"  {name:34s} {values[name]:14.4f} {unit}")
    return lines


def _as_load_generator(workload: Callable[[Context], Outcome]) -> Callable[[Context], Outcome]:
    """Run a daemon workload with the client's garbage collector paused."""

    def run(ctx: Context) -> Outcome:
        with quiet_client():
            return workload(ctx)

    return run


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "warm-serve": _as_load_generator(warm_serve),
    "cold-decide": lambda ctx: _library(ctx, "cold-decide"),
    "reformulate": lambda ctx: _library(ctx, "reformulate"),
    "delta-churn": _as_load_generator(delta_churn),
}
