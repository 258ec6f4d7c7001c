"""Engine-op execution shared by every serve backend.

The single-thread backend (engine work on the acceptor's executor thread)
and the process-pool backend (N engine worker processes) must run byte-for-
byte the same code per wire op: validate params, call the
:class:`~repro.session.Session`, shape a JSON-able result.  Keeping that
here — module-level functions taking the session explicitly — means a worker
process and the in-process executor cannot drift apart, and the error→code
mapping lives in exactly one place (:func:`error_payload_for`), used by the
acceptor's response path and by the worker loop alike.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from ..chase.incremental import ChaseDelta
from ..chase.steps import ChaseFailedError
from ..core.query import ConjunctiveQuery
from ..datalog.parser import parse_atoms, parse_dependencies, parse_query
from ..datalog.render import render_query
from ..exceptions import (
    ChaseNonTerminationError,
    DeltaRejectedError,
    ParseError,
    PrecheckFailedError,
    ReproError,
    UnknownSemanticsError,
)
from ..session import Session
from .protocol import ProtocolError

__all__ = ["ENGINE_OPS", "execute_op", "error_payload_for"]

#: The CPU-bound ops a backend executes on an engine (thread or worker
#: process); ``stats`` and ``health`` stay on the acceptor.
ENGINE_OPS = ("decide", "reformulate", "batch", "analyze", "apply-delta")

#: Query texts whose parse :func:`_param_query` keeps (least recently used
#: out first).  Small on purpose: a larger memo pins every cold text and
#: its parsed query.
_QUERY_MEMO_SIZE = 64


# --------------------------------------------------------------------------- #
# Param validation helpers.  Every rejection is a ProtocolError with a stable
# code, so both backends answer malformed params identically.
# --------------------------------------------------------------------------- #
def _param_str(params: dict[str, Any], name: str) -> str:
    value = params.get(name)
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(
            "invalid-request", f"params.{name} must be a non-empty string"
        )
    return value


@functools.lru_cache(maxsize=_QUERY_MEMO_SIZE)
def _parsed_query(text: str) -> ConjunctiveQuery:
    """The parse of a request's query text, reused while the text repeats.

    A repeated text gets the same query object back, with its structural
    key already computed for the Session's chase key.  A miss parses through
    the module global ``parse_query``; a :class:`ParseError` is raised,
    never cached.
    """
    return parse_query(text)


def _param_query(params: dict[str, Any], name: str) -> ConjunctiveQuery:
    try:
        return _parsed_query(_param_str(params, name))
    except ParseError as exc:
        raise ProtocolError("parse-error", f"params.{name}: {exc}") from exc


def _param_max_steps(params: dict[str, Any]) -> int | None:
    value = params.get("max_steps")
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ProtocolError(
            "invalid-request", "params.max_steps must be a positive integer"
        )
    return value


def _param_semantics(params: dict[str, Any]) -> str | None:
    """A semantics name, or None for the session's default.

    An unknown name is left to the session, which answers
    ``unknown-semantics``; a value that is no name at all is malformed.
    """
    value = params.get("semantics")
    if value is not None and not isinstance(value, str):
        raise ProtocolError("invalid-request", "params.semantics must be a string")
    return value


def _param_flag(params: dict[str, Any], name: str) -> bool:
    value = params.get(name)
    if value is None:
        return False
    if not isinstance(value, bool):
        raise ProtocolError("invalid-request", f"params.{name} must be true or false")
    return value


def _param_delta(params: dict[str, Any]) -> ChaseDelta:
    def atoms_of(name: str) -> tuple[Any, ...]:
        text = params.get(name)
        if text is None:
            return ()
        if not isinstance(text, str):
            raise ProtocolError("invalid-request", f"params.{name} must be a string")
        try:
            return tuple(parse_atoms(text))
        except ParseError as exc:
            raise ProtocolError("parse-error", f"params.{name}: {exc}") from exc

    def dependencies_of(name: str) -> tuple[Any, ...]:
        text = params.get(name)
        if text is None:
            return ()
        if not isinstance(text, str):
            raise ProtocolError("invalid-request", f"params.{name} must be a string")
        try:
            return tuple(parse_dependencies(text).dependencies)
        except ParseError as exc:
            raise ProtocolError("parse-error", f"params.{name}: {exc}") from exc

    set_valued = params.get("set_valued", [])
    if not isinstance(set_valued, list) or not all(
        isinstance(entry, str) for entry in set_valued
    ):
        raise ProtocolError(
            "invalid-request", "params.set_valued must be a list of strings"
        )
    return ChaseDelta(
        added_atoms=atoms_of("add_atoms"),
        added_dependencies=dependencies_of("add_dependencies"),
        removed_atoms=atoms_of("remove_atoms"),
        removed_dependencies=dependencies_of("remove_dependencies"),
        set_valued=frozenset(set_valued),
    )


# --------------------------------------------------------------------------- #
# Op implementations.  Each takes (session, validated params) and returns a
# JSON-able dict; failures raise and are mapped by error_payload_for.
# --------------------------------------------------------------------------- #
def _op_decide(session: Session, params: dict[str, Any]) -> dict[str, Any]:
    q1 = _param_query(params, "query")
    q2 = _param_query(params, "other")
    semantics = _param_semantics(params)
    verdict = session.decide(q1, q2, semantics, _param_max_steps(params))
    return {
        "equivalent": bool(verdict),
        "semantics": str(verdict.semantics),
        "chased": [render_query(verdict.chased_left), render_query(verdict.chased_right)],
    }


def _op_reformulate(session: Session, params: dict[str, Any]) -> dict[str, Any]:
    query = _param_query(params, "query")
    semantics = _param_semantics(params)
    minimal_only = _param_flag(params, "minimal_only")
    result = session.reformulate(
        query,
        semantics,
        _param_max_steps(params),
        check_sigma_minimality=minimal_only,
    )
    payload: dict[str, Any] = {
        "universal_plan": render_query(result.universal_plan),
        "reformulations": sorted(
            (render_query(q) for q in result.reformulations), key=len
        ),
        "candidates_examined": result.candidates_examined,
        "candidates_chased": result.candidates_chased,
    }
    if minimal_only:
        payload["minimal_reformulations"] = sorted(
            (render_query(q) for q in result.minimal_reformulations), key=len
        )
    return payload


def _op_batch(session: Session, params: dict[str, Any]) -> dict[str, Any]:
    pairs_raw = params.get("pairs")
    if not isinstance(pairs_raw, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in pairs_raw
    ):
        raise ProtocolError(
            "invalid-request",
            "params.pairs must be a list of [query, other] string pairs",
        )
    # Parse failures are per-item (the decide_many contract: one bad input
    # must not sink the batch), so parsing happens item by item here rather
    # than once up front.
    pairs: list[Any] = []
    parse_failures: dict[int, str] = {}
    for index, (left, right) in enumerate(pairs_raw):
        try:
            if not isinstance(left, str) or not isinstance(right, str):
                raise ParseError("pair entries must be strings")
            pairs.append((parse_query(left), parse_query(right)))
        except ParseError as exc:
            parse_failures[index] = str(exc)
            pairs.append(None)
    semantics = _param_semantics(params)
    report = session.decide_many(
        (pair for pair in pairs if pair is not None),
        semantics=semantics,
        max_steps=_param_max_steps(params),
    )
    # Merge engine outcomes back into input order around the parse failures.
    outcomes = iter(report)
    items: list[dict[str, Any]] = []
    for index in range(len(pairs)):
        if index in parse_failures:
            items.append(
                {
                    "index": index,
                    "ok": False,
                    "error": {"code": "parse-error", "message": parse_failures[index]},
                }
            )
            continue
        item = next(outcomes)
        if item.ok:
            items.append({"index": index, "ok": True, "equivalent": bool(item.result)})
        else:
            items.append(
                {
                    "index": index,
                    "ok": False,
                    "error": {"code": "repro-error", "message": item.error or ""},
                }
            )
    ok_count = sum(1 for item in items if item["ok"])
    return {"items": items, "ok_count": ok_count, "error_count": len(items) - ok_count}


def _op_analyze(session: Session, params: dict[str, Any]) -> dict[str, Any]:
    """Static analysis of Σ (the session's, or one sent in params).

    ``params.dependencies`` (rule-notation text) analyzes a caller Σ instead
    of the session's; ``params.queries`` adds query lint; ``params.strict:
    true`` turns error-severity diagnostics into a ``precheck-failed`` error
    response carrying the full report.
    """
    from ..analysis.static import analyze

    if "dependencies" in params:
        text = _param_str(params, "dependencies")
        try:
            dependencies = parse_dependencies(text)
        except ParseError as exc:
            raise ProtocolError("parse-error", f"params.dependencies: {exc}") from exc
    else:
        dependencies = session.dependencies
    queries_raw = params.get("queries", [])
    if not isinstance(queries_raw, list) or not all(
        isinstance(entry, str) for entry in queries_raw
    ):
        raise ProtocolError(
            "invalid-request", "params.queries must be a list of strings"
        )
    try:
        queries = [parse_query(entry) for entry in queries_raw]
    except ParseError as exc:
        raise ProtocolError("parse-error", f"params.queries: {exc}") from exc
    report = analyze(dependencies, queries=queries)
    if params.get("strict") and not report.ok:
        raise PrecheckFailedError(
            "; ".join(d.render_line() for d in report.errors),
            report=report,
        )
    payload = report.as_dict()
    payload["ok"] = report.ok
    payload["summary"] = report.summary()
    return payload


def _op_apply_delta(session: Session, params: dict[str, Any]) -> dict[str, Any]:
    """Apply an instance/Σ delta and chase the new state incrementally.

    ``params.query`` names the base query; ``params.add_atoms`` /
    ``params.remove_atoms`` (conjunction text) edit its body, and
    ``params.add_dependencies`` / ``params.remove_dependencies``
    (rule-notation text, one dependency per line) edit the *session's* Σ.
    ``params.set_valued`` lists additional set-valued markers.  The session
    resumes from a stored checkpoint when it can; a structurally invalid
    delta is answered with a ``delta-rejected`` error carrying the stable
    rejection ``reason``.
    """
    query = _param_query(params, "query")
    delta = _param_delta(params)
    semantics = _param_semantics(params)
    outcome = session.apply_delta(query, delta, semantics, _param_max_steps(params))
    checkpoint = outcome.checkpoint
    return {
        "resumed": outcome.resumed,
        "fallback_reason": outcome.fallback_reason,
        "replayed_steps": outcome.replayed_steps,
        "new_steps": outcome.new_steps,
        "steps_saved": outcome.steps_saved,
        "query": render_query(
            checkpoint.base_query if checkpoint is not None else query
        ),
        "chased": render_query(outcome.result.query),
        "dependencies": len(session.dependencies),
    }


_OP_HANDLERS: dict[str, Callable[[Session, dict[str, Any]], dict[str, Any]]] = {
    "decide": _op_decide,
    "reformulate": _op_reformulate,
    "batch": _op_batch,
    "analyze": _op_analyze,
    "apply-delta": _op_apply_delta,
}


def execute_op(session: Session, op: str, params: dict[str, Any]) -> dict[str, Any]:
    """Run one engine op against *session*; raises on any failure.

    The caller maps exceptions to structured wire errors with
    :func:`error_payload_for`.
    """
    try:
        handler = _OP_HANDLERS[op]
    except KeyError:
        raise ProtocolError("unknown-op", f"not an engine op: {op!r}") from None
    return handler(session, params)


def error_payload_for(exc: BaseException) -> tuple[str, str, dict[str, Any]] | None:
    """Map an engine-op exception to ``(code, message, detail)``, or ``None``.

    ``None`` means the exception is unanticipated: the caller logs it and
    answers ``internal``.  This mapping is the single source of truth for
    both backends — the acceptor's response path and the worker-process loop
    serialize through it, so a client sees the same structured error no
    matter which backend served the request.
    """
    if isinstance(exc, ProtocolError):
        return (exc.code, str(exc), {})
    if isinstance(exc, ChaseNonTerminationError):
        return ("chase-failed", str(exc), {"steps_taken": exc.steps_taken})
    if isinstance(exc, ChaseFailedError):
        # An egd equated two distinct constants: the query is unsatisfiable
        # under Σ, so the chase has no result to decide or reformulate with.
        return ("chase-failed", str(exc), {"reason": "unsatisfiable"})
    if isinstance(exc, DeltaRejectedError):
        return ("delta-rejected", str(exc), {"reason": exc.reason})
    if isinstance(exc, PrecheckFailedError):
        detail: dict[str, Any] = {}
        report = exc.report
        if report is not None and hasattr(report, "as_dict"):
            detail["report"] = report.as_dict()
        return ("precheck-failed", str(exc), detail)
    if isinstance(exc, UnknownSemanticsError):
        return ("unknown-semantics", str(exc), {})
    if isinstance(exc, ParseError):
        return ("parse-error", str(exc), {})
    if isinstance(exc, ReproError):
        # Any other engine-level failure: structured, typed, non-fatal.
        return ("internal", f"{type(exc).__name__}: {exc}", {})
    return None
