"""Wire protocol of the ``repro serve`` daemon.

The daemon speaks newline-delimited JSON over a plain TCP stream: each
request is one JSON object on one line, each response is one JSON object on
one line, and a connection carries any number of request/response exchanges
in order.  The format is deliberately primitive — any language with sockets
and a JSON parser is a client; no HTTP stack, no framing beyond ``\\n``.

Request shape::

    {"op": "decide", "id": 7, "params": {"query": "Q1(X) :- ...",
                                         "other": "Q2(X) :- ...",
                                         "semantics": "bag"}}

``id`` is optional and opaque; it is echoed verbatim on the response so
pipelined clients can match answers to questions.  ``params`` may be omitted
for parameterless operations (``stats``, ``health``).

Response shape::

    {"id": 7, "ok": true,  "result": {...}}
    {"id": 7, "ok": false, "error": {"code": "parse-error", "message": "..."}}

Every failure the server can anticipate is returned as a *structured error
response* with a stable ``code`` from :data:`ERROR_CODES` — a malformed
request, an unknown semantics, a chase that exhausts its budget — and never
terminates the daemon.  The only errors that end the *connection* (not the
server) are transport-level: an oversized request line, whose end the server
cannot even locate, and a closed socket.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..exceptions import ReproError

#: Operations the daemon dispatches on.
OPS = ("decide", "reformulate", "batch", "analyze", "apply-delta", "stats", "health")

#: Default cap on one request line (bytes, newline included).  Generous for
#: query text, small enough that a misbehaving client cannot balloon server
#: memory; ``repro serve --max-request-bytes`` overrides it.
MAX_REQUEST_BYTES = 1 << 20

#: Default per-request wall-clock budget (seconds); ``--timeout`` overrides.
DEFAULT_TIMEOUT = 30.0

#: Stable error codes carried by ``error.code``.  Clients dispatch on these,
#: so they are part of the protocol: add freely, never rename.
ERROR_CODES = (
    "parse-error",  # unparseable JSON, or unparseable query/dependency text
    "invalid-request",  # structurally wrong request (missing op, bad params)
    "unknown-op",  # op not in OPS
    "unknown-semantics",  # semantics name the session cannot dispatch on
    # the chase exhausted its step budget (carries 'steps_taken'), or an egd
    # equated two constants: the query is unsatisfiable (reason 'unsatisfiable')
    "chase-failed",
    "delta-rejected",  # an apply-delta edit is structurally invalid (carries 'reason')
    "precheck-failed",  # the static analyzer refused Σ (strict analyze/precheck)
    "timeout",  # the per-request wall-clock budget ran out
    "request-too-large",  # request line over the size cap (connection closes)
    "overloaded",  # the engine pool's in-flight queue is full; retry later
    "worker-crashed",  # an engine worker process died mid-request (it is respawned)
    "internal",  # anything else; the server stays up
)


class ProtocolError(ReproError):
    """A request the server rejects with a structured error response."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:  # pragma: no cover - developer error
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code


def encode_line(payload: Mapping[str, Any]) -> bytes:
    """Serialize one protocol object to its wire form (JSON + newline)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def ok_response(request_id: Any, result: Mapping[str, Any]) -> dict[str, Any]:
    """A success response echoing *request_id*."""
    return {"id": request_id, "ok": True, "result": dict(result)}


def error_response(
    request_id: Any, code: str, message: str, **detail: Any
) -> dict[str, Any]:
    """A structured error response; ``detail`` keys ride along inside ``error``."""
    if code not in ERROR_CODES:  # pragma: no cover - developer error
        raise ValueError(f"unknown protocol error code {code!r}")
    error: dict[str, Any] = {"code": code, "message": message}
    error.update(detail)
    return {"id": request_id, "ok": False, "error": error}


def parse_request(line: bytes) -> tuple[Any, str, dict[str, Any]]:
    """Decode one request line into ``(id, op, params)``.

    Raises :class:`ProtocolError` — never a bare ``json`` or ``Type`` error —
    so the caller can turn every malformed request into a structured
    response.  The request ``id`` is recovered on a best-effort basis even
    from otherwise-invalid requests, so the error response still correlates.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("parse-error", f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            "invalid-request",
            f"request must be a JSON object, got {type(payload).__name__}",
        )
    request_id = payload.get("id")
    op = payload.get("op")
    if not isinstance(op, str) or not op:
        raise _with_id(
            ProtocolError("invalid-request", "request is missing a string 'op'"),
            request_id,
        )
    if op not in OPS:
        raise _with_id(
            ProtocolError(
                "unknown-op", f"unknown op {op!r}; supported: {', '.join(OPS)}"
            ),
            request_id,
        )
    params = payload.get("params", {})
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise _with_id(
            ProtocolError(
                "invalid-request",
                f"'params' must be a JSON object, got {type(params).__name__}",
            ),
            request_id,
        )
    return request_id, op, params


def _with_id(error: ProtocolError, request_id: Any) -> ProtocolError:
    """Attach the (best-effort recovered) request id to a protocol error."""
    error.request_id = request_id  # type: ignore[attr-defined]
    return error


def request_id_of(error: ProtocolError) -> Any:
    """The request id recovered while parsing, if any (else ``None``)."""
    return getattr(error, "request_id", None)
