"""Command-line interface.

The CLI exposes the library's main entry points so the decision procedures
can be used without writing Python::

    python -m repro chase --query "Q(X) :- p(X,Y)" --dependencies deps.txt \
        --semantics bag --set-valued s,t

    python -m repro equivalence --query "Q1(X) :- ..." --other "Q2(X) :- ..." \
        --dependencies deps.txt --semantics all

    python -m repro reformulate --query "Q(X) :- ..." --dependencies deps.txt \
        --semantics bag-set --show-all

    python -m repro sql --ddl schema.sql \
        --query "SELECT o.oid FROM orders o, customer c WHERE o.cid = c.cid"

    python -m repro batch --pairs pairs.txt --dependencies deps.txt \
        --semantics bag --jobs 4

    python -m repro fuzz --cases 500 --seed 0 --shrink

Every command builds a :class:`~repro.session.Session` around the supplied
dependencies and dispatches through it, so repeated chases within one
invocation are served from the session's cache.

Dependencies are written in the rule notation accepted by
:mod:`repro.datalog` (one dependency per line; ``#`` comments); the
``--dependencies`` / ``--ddl`` / ``--pairs`` arguments accept either a file
path or the literal text.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .datalog import parse_dependencies, parse_query, render_query
from .exceptions import ParseError, ReproError
from .semantics import Semantics
from .session import Session
from .sql import query_to_sql, schema_from_ddl, translate_sql


def _read_text_or_file(value: str) -> str:
    """Return the contents of *value* if it names a file, else *value* itself."""
    path = Path(value)
    try:
        if path.is_file():
            return path.read_text()
    except OSError:
        pass
    return value


def _load_dependencies(args) -> "DependencySet":
    from .dependencies import DependencySet

    set_valued = [name.strip() for name in (args.set_valued or "").split(",") if name.strip()]
    if not args.dependencies:
        return DependencySet([], set_valued)
    text = _read_text_or_file(args.dependencies)
    return parse_dependencies(text, set_valued=set_valued)


def _build_session(args, *, chase_resumable: bool = False) -> Session:
    """One Session per CLI invocation: one chase cache for every decision it makes."""
    return Session(
        dependencies=_load_dependencies(args),
        max_steps=args.max_steps,
        precheck=getattr(args, "precheck", None),
        chase_resumable=chase_resumable,
    )


def _add_dependency_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dependencies",
        help="embedded dependencies: a file path or literal rule-notation text",
    )
    parser.add_argument(
        "--set-valued",
        help="comma-separated relations required to be set valued in every instance",
    )


def _semantics_argument(parser: argparse.ArgumentParser, allow_all: bool = False) -> None:
    choices = ["set", "bag", "bag-set"] + (["all"] if allow_all else [])
    parser.add_argument(
        "--semantics",
        default="bag-set",
        choices=choices,
        help="query-evaluation semantics (default: bag-set, the SQL default)",
    )


def _print_plan_cache_line(session: Session) -> None:
    """One ``--profile`` line for the compiled-plan cache state.

    Reads the unified :meth:`Session.stats` surface — the same dict the
    ``repro serve`` ``stats`` endpoint returns — so the CLI and the service
    can never report different numbers.  The cache is process-wide by
    default, so the counters cover every chase of this CLI invocation
    (per-run compile/reuse deltas are on the profile lines above).
    """
    plans = session.stats()["plan_cache"]
    print(
        f"  plan cache       : {plans['hits']} hits, {plans['misses']} misses, "
        f"{plans['evictions']} evictions"
    )


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def _cmd_chase(args) -> int:
    if (args.add_atoms or args.add_dependencies) and not args.resume:
        print(
            "error: --add-atoms/--add-dependencies require --resume",
            file=sys.stderr,
        )
        return 2
    session = _build_session(args, chase_resumable=args.resume)
    query = parse_query(args.query)
    result = session.chase(query, args.semantics)
    print(render_query(result.query))
    if args.show_steps:
        for record in result.steps:
            print(f"  {record}")
    if args.resume:
        from .chase.incremental import ChaseDelta
        from .datalog import parse_atoms

        deltas = [
            ChaseDelta.atoms(*parse_atoms(_read_text_or_file(text)))
            for text in (args.add_atoms or [])
        ]
        deltas.extend(
            ChaseDelta.dependencies(
                *parse_dependencies(_read_text_or_file(text)).dependencies
            )
            for text in (args.add_dependencies or [])
        )
        current = query
        for number, delta in enumerate(deltas, 1):
            outcome = session.apply_delta(current, delta, args.semantics)
            label = (
                "resumed"
                if outcome.resumed
                else f"cold ({outcome.fallback_reason})"
            )
            print(
                f"# delta {number}: {label}, {outcome.replayed_steps} steps "
                f"replayed, {outcome.new_steps} new steps"
            )
            print(render_query(outcome.result.query))
            if args.show_steps:
                for record in outcome.result.steps[outcome.replayed_steps:]:
                    print(f"  {record}")
            if outcome.checkpoint is not None:
                current = outcome.checkpoint.base_query
            result = outcome.result
    if args.profile and result.profile is not None:
        for line in result.profile.summary_lines():
            print(line)
        _print_plan_cache_line(session)
    return 0


def _cmd_equivalence(args) -> int:
    session = _build_session(args)
    query = parse_query(args.query)
    other = parse_query(args.other)
    if args.semantics == "all":
        verdicts = session.decide_all(query, other)
        equivalent_somewhere = False
        for semantics, verdict in verdicts.items():
            status = "equivalent" if verdict else "not equivalent"
            print(f"{semantics!s:8s}: {status}")
            equivalent_somewhere |= bool(verdict)
        if args.profile:
            for line in session.chase_profile().summary_lines():
                print(line)
            _print_plan_cache_line(session)
        return 0 if equivalent_somewhere else 1
    verdict = session.decide(query, other, args.semantics)
    print("equivalent" if verdict else "not equivalent")
    if args.verbose:
        print(f"  chased left : {verdict.chased_left}")
        print(f"  chased right: {verdict.chased_right}")
    if args.profile:
        for line in session.chase_profile().summary_lines():
            print(line)
        _print_plan_cache_line(session)
    return 0 if verdict else 1


def _cmd_reformulate(args) -> int:
    session = _build_session(args)
    query = parse_query(args.query)
    result = session.reformulate(
        query, args.semantics, check_sigma_minimality=not args.show_all
    )
    print(f"universal plan: {render_query(result.universal_plan)}")
    print(
        f"{result.candidates_examined} candidates examined, "
        f"{result.candidates_chased} chased"
    )
    pool = result.reformulations if args.show_all else result.minimal_reformulations
    label = "equivalent reformulations" if args.show_all else "Σ-minimal reformulations"
    print(f"{len(pool)} {label}:")
    for reformulation in sorted(pool, key=lambda q: len(q.body)):
        print(f"  {render_query(reformulation)}")
    return 0


def _cmd_check(args) -> int:
    import json as json_module

    from .analysis.static import analyze
    from .database import DatabaseInstance

    dependencies = _load_dependencies(args)
    queries = [parse_query(text) for text in (args.query or [])]
    if args.queries:
        for line in _read_text_or_file(args.queries).splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                queries.append(parse_query(line))
    instance = None
    if args.instance:
        payload = json_module.loads(_read_text_or_file(args.instance))
        instance = DatabaseInstance.from_dict(payload)
    report = analyze(
        dependencies,
        queries=queries,
        instance=instance,
        subsumption=not args.no_subsumption,
    )
    if args.format == "json":
        print(json_module.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_table())
    # 0 clean, 1 warnings only, 2 errors — mirrors AnalysisReport.exit_code.
    return report.exit_code()


def _cmd_sql(args) -> int:
    ddl = _read_text_or_file(args.ddl)
    schema, dependencies = schema_from_ddl(ddl)
    session = Session(schema=schema, dependencies=dependencies, max_steps=args.max_steps)
    translated = translate_sql(args.query, schema)
    semantics = Semantics.from_name(args.semantics) if args.semantics else translated.semantics
    if translated.is_aggregate:
        print("aggregate queries are reformulated via their cores; core:", file=sys.stderr)
        print(f"  {translated.query.core()}", file=sys.stderr)
        query = translated.query.core()
    else:
        query = translated.query
    print(f"-- evaluation semantics: {semantics}")
    print(f"-- as conjunctive query: {query}")
    result = session.reformulate(query, semantics, check_sigma_minimality=False)
    print(f"-- {len(result.reformulations)} equivalent reformulations:")
    for reformulation in sorted(result.reformulations, key=lambda q: len(q.body)):
        print(query_to_sql(reformulation, schema, semantics) + ";")
    return 0


def _parse_pairs(text: str) -> list[tuple]:
    """Parse the ``batch`` pair list: one ``Q1 ; Q2`` pair per line."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        left, separator, right = line.partition(";")
        if not separator or not left.strip() or not right.strip():
            raise ParseError(
                f"pairs line {lineno}: expected 'QUERY ; QUERY', got {line!r}"
            )
        pairs.append((parse_query(left.strip()), parse_query(right.strip())))
    return pairs


def _cmd_fuzz(args) -> int:
    from .fuzz import load_corpus, load_corpus_file, replay_cases, run_campaign

    if args.replay:
        replay_path = Path(args.replay)
        if replay_path.is_dir():
            corpus = load_corpus(replay_path)
        else:
            corpus = [load_corpus_file(replay_path)]
        if not corpus:
            print(f"error: no corpus cases under {args.replay}", file=sys.stderr)
            return 2
        for entry in corpus:
            print(f"replaying {entry.name}: {entry.case}")
        result = replay_cases(
            [entry.case for entry in corpus],
            shrink=args.shrink,
            failure_dir=args.failure_dir,
        )
    else:
        result = run_campaign(
            args.seed,
            args.cases,
            jobs=args.jobs,
            shrink=args.shrink,
            failure_dir=args.failure_dir,
        )
    import json as json_module

    from .fuzz import case_to_dict

    for failure in result.failures:
        print(f"FAIL {failure.summary()}")
        for mismatch in failure.report.mismatches:
            print(f"  {mismatch}")
        # The full reproduction JSON goes to the log itself: a CI job's
        # artifacts may be gone when someone reads the failure, the log is not.
        shrunk = failure.shrunk if failure.shrunk is not None else failure.case
        print("  reproduce (save as a corpus .json and --replay it):")
        print(
            "    "
            + json_module.dumps(case_to_dict(shrunk), sort_keys=False)
        )
        if failure.case.seed is not None and failure.case.index is not None:
            print(
                f"  regenerate: repro fuzz --seed {failure.case.seed} "
                f"--cases {failure.case.index + 1}"
            )
    for line in result.summary_lines():
        print(line)
    if result.failure_reports:
        print(
            f"{len(result.failure_reports)} failure reports written under "
            f"{args.failure_dir}"
        )
    return 0 if result.ok else 1


def _cmd_batch(args) -> int:
    session = _build_session(args)
    pairs = _parse_pairs(_read_text_or_file(args.pairs))
    report = session.decide_many(
        pairs, semantics=args.semantics, concurrency=args.jobs
    )
    for item in report:
        q1, q2 = item.input
        label = f"{q1.head_predicate} vs {q2.head_predicate}"
        if item.ok:
            status = "equivalent" if item.result else "not equivalent"
            print(f"[{item.index}] {label}: {status}")
        else:
            print(f"[{item.index}] {label}: error ({item.error_type}: {item.error})")
    print(f"{report.ok_count} decided, {report.error_count} failed")
    return 0 if report.error_count == 0 else 1


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .serve import ChaseStore, ReproServer

    store = ChaseStore(args.store) if args.store else None
    # Resumable: the daemon's apply-delta op stores and resumes checkpoints.
    session = _build_session(args, chase_resumable=True)
    server = ReproServer(
        session,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        max_request_bytes=args.max_request_bytes,
        store=store,
        workers=args.workers,
        max_inflight=args.max_inflight,
    )

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        await server.start()
        # One parseable line on stdout so scripts (and the CI smoke job) can
        # wait for readiness and discover the port when --port 0 was used.
        print(f"repro serve: listening on {server.host}:{server.port}", flush=True)
        print(
            f"repro serve: engine backend {server.backend.kind} "
            f"({args.workers} worker{'s' if args.workers != 1 else ''})",
            flush=True,
        )
        if store is not None:
            entries = store.stats()["entries"]
            print(f"repro serve: chase store {store.path} ({entries} entries)", flush=True)
        serve_task = asyncio.create_task(server.serve_forever())
        stop_task = asyncio.create_task(stop.wait())
        await asyncio.wait({serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED)
        stop_task.cancel()
        serve_task.cancel()
        # serve_forever absorbs the cancellation and closes the store and
        # executor before returning.
        await asyncio.gather(serve_task, return_exceptions=True)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - direct ^C without handler
        pass
    print("repro serve: shut down cleanly", flush=True)
    return 0


def _cmd_client(args) -> int:
    import json as json_module

    from .serve import ClientError, ReproClient

    params: dict = {}
    if args.query is not None:
        params["query"] = args.query
    if args.other is not None:
        params["other"] = args.other
    if args.semantics is not None:
        params["semantics"] = args.semantics
    if args.minimal_only:
        params["minimal_only"] = True
    if args.op == "analyze":
        # The analyze op takes a query *list*; fold the single --query flag in.
        params.pop("query", None)
        if args.query is not None:
            params["queries"] = [args.query]
        if args.dependencies is not None:
            params["dependencies"] = _read_text_or_file(args.dependencies)
        if args.strict:
            params["strict"] = True
    if args.op == "apply-delta":
        if args.add_atoms is not None:
            params["add_atoms"] = _read_text_or_file(args.add_atoms)
        if args.add_dependencies is not None:
            params["add_dependencies"] = _read_text_or_file(args.add_dependencies)
        if args.remove_atoms is not None:
            params["remove_atoms"] = _read_text_or_file(args.remove_atoms)
        if args.remove_dependencies is not None:
            params["remove_dependencies"] = _read_text_or_file(
                args.remove_dependencies
            )
        if args.set_valued:
            params["set_valued"] = [
                name.strip() for name in args.set_valued.split(",") if name.strip()
            ]
    if args.op == "batch":
        if not args.pairs:
            print("error: batch needs --pairs", file=sys.stderr)
            return 2
        params["pairs"] = [
            [left.strip(), right.strip()]
            for left, _, right in (
                line.partition(";")
                for line in _read_text_or_file(args.pairs).splitlines()
                if line.strip() and not line.strip().startswith("#")
            )
        ]
    try:
        with ReproClient(args.host, args.port, timeout=args.timeout) as client:
            response = client.request(args.op, params, check=False)
    except ClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json_module.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Equivalence and reformulation of SQL/conjunctive queries "
        "in presence of embedded dependencies (Chirkova & Genesereth, PODS 2009).",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=2000,
        help="chase step budget (guards against non-terminating dependency sets)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    chase_parser = subparsers.add_parser(
        "chase", help="chase a query with the chase sound for the chosen semantics"
    )
    chase_parser.add_argument("--query", required=True, help="query in rule notation")
    _add_dependency_arguments(chase_parser)
    _semantics_argument(chase_parser)
    chase_parser.add_argument(
        "--show-steps", action="store_true", help="print the applied chase steps"
    )
    chase_parser.add_argument(
        "--profile",
        action="store_true",
        help="print the chase profile (steps by kind, triggers examined, "
        "index hit rate, wall time)",
    )
    chase_parser.add_argument(
        "--resume",
        action="store_true",
        help="capture a resumable checkpoint and apply --add-atoms / "
        "--add-dependencies deltas incrementally instead of rechasing",
    )
    chase_parser.add_argument(
        "--add-atoms",
        action="append",
        metavar="ATOMS",
        help="with --resume: apply one instance delta (a conjunction of "
        "atoms, file or text); repeatable, applied in order",
    )
    chase_parser.add_argument(
        "--add-dependencies",
        action="append",
        metavar="SIGMA",
        help="with --resume: apply one Σ delta (rule-notation dependencies, "
        "file or text); repeatable, applied after the --add-atoms deltas",
    )
    chase_parser.set_defaults(handler=_cmd_chase)

    equivalence_parser = subparsers.add_parser(
        "equivalence", help="decide Σ-equivalence of two queries"
    )
    equivalence_parser.add_argument("--query", required=True)
    equivalence_parser.add_argument("--other", required=True)
    _add_dependency_arguments(equivalence_parser)
    _semantics_argument(equivalence_parser, allow_all=True)
    equivalence_parser.add_argument("--verbose", action="store_true")
    equivalence_parser.add_argument(
        "--profile",
        action="store_true",
        help="print the session's aggregate cold-chase profile",
    )
    equivalence_parser.set_defaults(handler=_cmd_equivalence)

    reformulate_parser = subparsers.add_parser(
        "reformulate", help="enumerate equivalent (Σ-minimal) reformulations"
    )
    reformulate_parser.add_argument("--query", required=True)
    _add_dependency_arguments(reformulate_parser)
    _semantics_argument(reformulate_parser)
    reformulate_parser.add_argument(
        "--show-all",
        action="store_true",
        help="report every equivalent reformulation, not only Σ-minimal ones",
    )
    reformulate_parser.set_defaults(handler=_cmd_reformulate)

    check_parser = subparsers.add_parser(
        "check",
        help="statically analyze Σ (and queries/instance): lint diagnostics "
        "plus a termination certificate or witness cycle — no chase runs",
    )
    _add_dependency_arguments(check_parser)
    check_parser.add_argument(
        "--query",
        action="append",
        help="query in rule notation (repeatable)",
    )
    check_parser.add_argument(
        "--queries",
        help="more queries: a file path or literal text, one query per line",
    )
    check_parser.add_argument(
        "--instance",
        help='database instance JSON (file or text): {"pred": [[values...], ...]}',
    )
    check_parser.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table); json round-trips via "
        "AnalysisReport.from_dict",
    )
    check_parser.add_argument(
        "--no-subsumption",
        action="store_true",
        help="skip the pairwise dependency-subsumption pass (the only "
        "super-linear one)",
    )
    check_parser.set_defaults(handler=_cmd_check)

    sql_parser = subparsers.add_parser(
        "sql", help="reformulate a SQL query against a SQL DDL schema"
    )
    sql_parser.add_argument("--ddl", required=True, help="CREATE TABLE script (file or text)")
    sql_parser.add_argument("--query", required=True, help="the SELECT statement")
    sql_parser.add_argument(
        "--semantics",
        choices=["set", "bag", "bag-set"],
        help="override the semantics inferred from the statement and schema",
    )
    sql_parser.set_defaults(handler=_cmd_sql)

    batch_parser = subparsers.add_parser(
        "batch", help="decide Σ-equivalence for a whole list of query pairs"
    )
    batch_parser.add_argument(
        "--pairs",
        required=True,
        help="pair list (file or text): one 'QUERY ; QUERY' pair per line",
    )
    _add_dependency_arguments(batch_parser)
    _semantics_argument(batch_parser)
    batch_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="decide pairs in N worker processes (default: in-process, shared cache)",
    )
    batch_parser.set_defaults(handler=_cmd_batch)

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing: random queries and Σ, accelerated vs "
        "reference engines, Proposition 6.1, front-end round trips",
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    fuzz_parser.add_argument(
        "--cases", type=int, default=200, help="number of cases (default: 200)"
    )
    fuzz_parser.add_argument(
        "--shrink",
        action="store_true",
        help="greedily 1-minimize every failing case before reporting it",
    )
    fuzz_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="run oracle passes in N worker processes (the first block's "
        "decisions also exercise the batch multiprocessing pipeline)",
    )
    fuzz_parser.add_argument(
        "--replay",
        help="replay a corpus case (JSON file) or a whole corpus directory "
        "instead of generating cases",
    )
    fuzz_parser.add_argument(
        "--failure-dir",
        default="fuzz-failures",
        help="directory for per-failure reproduction JSON (default: fuzz-failures)",
    )
    fuzz_parser.set_defaults(handler=_cmd_fuzz)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived equivalence daemon (newline-delimited JSON "
        "over TCP; one warm Session shared by every client)",
    )
    _add_dependency_arguments(serve_parser)
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=7464,
        help="TCP port; 0 picks a free port and prints it (default: 7464)",
    )
    serve_parser.add_argument(
        "--store",
        help="path of the disk-backed chase-result store (JSONL); restarts "
        "with the same path start warm",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request wall-clock budget in seconds (default: 30)",
    )
    serve_parser.add_argument(
        "--max-request-bytes",
        type=int,
        default=1 << 20,
        help="cap on one request line; larger requests are refused and the "
        "connection closed (default: 1 MiB)",
    )
    serve_parser.add_argument(
        "--precheck",
        choices=["off", "warn", "strict"],
        default=None,
        help="statically analyze Σ at startup; 'strict' refuses an "
        "uncertified Σ, both modes seed chase budgets from the certificate",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="engine worker processes; 1 (default) keeps engine work on a "
        "single thread in this process, N>=2 fans requests out to N "
        "long-lived worker processes sharing the chase store",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="bound on engine requests in flight before new ones are "
        "refused with an 'overloaded' error (workers>=2 only; default: "
        "32 per worker)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    client_parser = subparsers.add_parser(
        "client",
        help="send one request to a running repro serve daemon and print the "
        "JSON response",
    )
    client_parser.add_argument(
        "op",
        choices=[
            "decide",
            "reformulate",
            "batch",
            "analyze",
            "apply-delta",
            "stats",
            "health",
        ],
        help="operation to invoke",
    )
    client_parser.add_argument("--host", default="127.0.0.1")
    client_parser.add_argument("--port", type=int, default=7464)
    client_parser.add_argument(
        "--timeout", type=float, default=60.0, help="socket timeout in seconds"
    )
    client_parser.add_argument("--query", help="query in rule notation")
    client_parser.add_argument("--other", help="second query (decide)")
    client_parser.add_argument(
        "--semantics", choices=["set", "bag", "bag-set"], help="semantics name"
    )
    client_parser.add_argument(
        "--minimal-only",
        action="store_true",
        help="reformulate: also report only the Σ-minimal reformulations",
    )
    client_parser.add_argument(
        "--pairs", help="batch: pair list (file or text), one 'QUERY ; QUERY' per line"
    )
    client_parser.add_argument(
        "--dependencies",
        help="analyze: rule-notation Σ (file or text) to analyze instead of "
        "the server session's Σ",
    )
    client_parser.add_argument(
        "--strict",
        action="store_true",
        help="analyze: answer with a precheck-failed error when the analyzed "
        "Σ has error-severity diagnostics",
    )
    client_parser.add_argument(
        "--add-atoms", help="apply-delta: atoms to add (conjunction text)"
    )
    client_parser.add_argument(
        "--add-dependencies",
        help="apply-delta: dependencies to add to the server's Σ (rule "
        "notation, file or text)",
    )
    client_parser.add_argument(
        "--remove-atoms", help="apply-delta: atoms to remove (conjunction text)"
    )
    client_parser.add_argument(
        "--remove-dependencies",
        help="apply-delta: dependencies to remove from the server's Σ (rule "
        "notation, file or text)",
    )
    client_parser.add_argument(
        "--set-valued",
        help="apply-delta: comma-separated set-valued markers to add",
    )
    client_parser.set_defaults(handler=_cmd_client)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
