"""Span tracing installed from outside the program, at module boundaries.

:func:`install` replaces the public functions named in the per-layer table
with timing wrappers, patching each name where its caller looks it up (a
module global, or a class attribute for methods).  Nothing in ``src/`` is
edited; :func:`install` returns the function that puts every original back.

A span records ``(id, parent id, name, start, end, request id)``.  Spans are
kept in memory, up to a cap, and written out by :meth:`Tracer.dump`; the
per-name totals, self times and call counts are accumulated for every span,
so the cap never changes the reported numbers.  Self time is a span's
duration minus the part covered by its children on the same thread.

Two rules keep the layers comparable with the program's own accounting:

* spans nested in a Definition 4.3 test (``chase.af_test``) are not
  recorded, so the test chases count once, under the test;
* a span nested directly in a span of the same name is not recorded, so a
  kernel call made by another kernel call counts once.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

SPAN_CAP = 100_000

_clock = time.perf_counter


class _Frame:
    __slots__ = ("span_id", "parent", "name", "start", "child", "request")

    def __init__(self, span_id: int, parent: int, name: str, start: float, request: Any):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.child = 0.0
        self.request = request


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.suppress = 0
        self.request: Any = None
        self.acc: dict[str, list[float]] | None = None


class Tracer:
    """Span sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._accumulators: list[dict[str, list[float]]] = []
        self.spans: list[tuple[int, int, str, float, float, Any]] = []
        self.dropped = 0
        #: ``id(params)`` -> request id, so engine-thread spans find their request.
        self.params_request: dict[int, Any] = {}

    # ------------------------------------------------------------------ #
    def set_request(self, request: Any) -> None:
        self._local.request = request

    def enter(self, name: str, request: Any = None) -> _Frame | None:
        local = self._local
        if local.suppress:
            return None
        stack = local.stack
        if stack and stack[-1].name == name:
            return None
        parent = stack[-1].span_id if stack else 0
        frame = _Frame(
            next(self._ids), parent, name, _clock(),
            local.request if request is None else request,
        )
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = _clock()
        stack = self._local.stack
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        self._book(frame, end, duration - frame.child)

    def _acc(self) -> dict[str, list[float]]:
        """This thread's ``name -> [total, self, calls]`` accumulator."""
        local = self._local
        acc = local.acc
        if acc is None:
            acc = local.acc = defaultdict(lambda: [0.0, 0.0, 0])
            with self._lock:
                self._accumulators.append(acc)
        return acc

    def _book(self, frame: _Frame, end: float, self_time: float) -> None:
        entry = self._acc()[frame.name]
        entry[0] += end - frame.start
        entry[1] += self_time
        entry[2] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (frame.span_id, frame.parent, frame.name, frame.start, end, frame.request)
            )
        else:
            self.dropped += 1

    def totals(self) -> dict[str, dict[str, float]]:
        """``name -> {"total", "self", "calls"}`` summed over every thread."""
        merged: dict[str, dict[str, float]] = {}
        with self._lock:
            accumulators = list(self._accumulators)
        for acc in accumulators:
            for name, (total, self_time, calls) in list(acc.items()):
                entry = merged.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
                entry["total"] += total
                entry["self"] += self_time
                entry["calls"] += calls
        return merged

    def bump(self, name: str) -> None:
        """Count one event under *name* (no time)."""
        self._acc()[name][2] += 1

    def reset(self, keep: tuple[str, ...] = ()) -> None:
        """Forget what was recorded so far, except the names in *keep*."""
        with self._lock:
            for acc in self._accumulators:
                for name in [name for name in acc if name not in keep]:
                    del acc[name]
        self.spans = []
        self.dropped = 0

    def dump(self, path: str) -> None:
        """Write totals and spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"totals": self.totals(), "spans": self.spans, "dropped": self.dropped},
                handle,
            )

    # ------------------------------------------------------------------ #
    # Wrapper factories
    # ------------------------------------------------------------------ #
    def function(self, name: str, fn: Callable[..., Any], isolate: bool = False) -> Callable[..., Any]:
        """Time each call; with *isolate*, record nothing beneath the span."""
        enter, exit_, local = self.enter, self.exit, self._local

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name)
            if frame is None:
                return fn(*args, **kwargs)
            if isolate:
                local.suppress += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if isolate:
                    local.suppress -= 1
                exit_(frame)

        return traced

    def generator(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Time every ``next()`` of the generator *fn* returns.

        Each generator created is also counted, as ``<name>.scans``.
        """
        tracer, enter, exit_, local = self, self.enter, self.exit, self._local

        class _Timed:
            __slots__ = ("inner",)

            def __init__(self, inner: Any) -> None:
                self.inner = inner

            def __iter__(self) -> "_Timed":
                return self

            def __next__(self) -> Any:
                frame = enter(name)
                if frame is None:
                    return next(self.inner)
                try:
                    return next(self.inner)
                finally:
                    exit_(frame)

        scans = name + ".scans"

        def traced(*args: Any, **kwargs: Any) -> Any:
            if local.suppress or (local.stack and local.stack[-1].name == name):
                return fn(*args, **kwargs)
            tracer.bump(scans)
            return _Timed(fn(*args, **kwargs))

        return traced

    def coroutine(
        self, name: str, fn: Callable[..., Any], request_of: Callable[..., Any]
    ) -> Callable[..., Any]:
        """An ``async def`` wrapper.

        Other tasks run while it awaits, so its span is booked without a
        parent and without touching the thread's span stack.
        """
        tracer = self

        async def traced(*args: Any, **kwargs: Any) -> Any:
            frame = _Frame(next(tracer._ids), 0, name, _clock(), request_of(*args, **kwargs))
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _clock()
                tracer._book(frame, end, end - frame.start)

        return traced


# --------------------------------------------------------------------------- #
# The patch table
# --------------------------------------------------------------------------- #
_PARSE = "datalog.parse"
_RENDER = "datalog.render"
_MATCH = "core.match"
_STEP = "chase.step_apply"
_INDEX = "chase.index_build"

#: ``(module, attribute, span name)`` for plain functions, by layer.
FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    # datalog, where the serving layer looks it up
    ("repro.serve.ops", "parse_query", _PARSE),
    ("repro.serve.ops", "parse_atoms", _PARSE),
    ("repro.serve.ops", "parse_dependencies", _PARSE),
    ("repro.serve.ops", "render_query", _RENDER),
    ("repro.serve.store", "parse_query", _PARSE),
    ("repro.serve.store", "render_query", _RENDER),
    # equivalence / containment tests, where the strategies look them up
    ("repro.session.strategies", "is_set_equivalent", "equivalence.test"),
    ("repro.session.strategies", "is_bag_equivalent_with_set_enforced", "equivalence.test"),
    ("repro.session.strategies", "is_bag_set_equivalent", "equivalence.test"),
    ("repro.reformulation.cb", "are_isomorphic", "reformulation.isomorphism"),
    # outer chases and the incremental layer
    ("repro.session.strategies", "sound_chase", "chase.sound_chase"),
    ("repro.chase.incremental", "sound_chase", "chase.sound_chase"),
    ("repro.session.engine", "resume_chase", "incremental.resume"),
    # chase step application
    ("repro.chase.sound_chase", "apply_tgd_step", _STEP),
    ("repro.chase.sound_chase", "apply_egd_step", _STEP),
    ("repro.chase.sound_chase", "deduplicate_body", _STEP),
    ("repro.chase.set_chase", "apply_tgd_step", _STEP),
    ("repro.chase.set_chase", "apply_egd_step", _STEP),
    ("repro.chase.set_chase", "deduplicate_body", _STEP),
    ("repro.chase.incremental", "deduplicate_body", _STEP),
    # the match kernel
    ("repro.chase.steps", "has_match_from_binding", _MATCH),
    ("repro.chase.steps", "find_match", _MATCH),
    ("repro.core.homomorphism", "find_match", _MATCH),
)

#: Generators, timed per ``next()``.
GENERATORS: tuple[tuple[str, str, str], ...] = (
    ("repro.chase.sound_chase", "iter_applicable_tgd_bindings", "chase.tgd_search"),
    ("repro.chase.set_chase", "iter_applicable_tgd_bindings", "chase.tgd_search"),
    ("repro.chase.set_chase", "iter_applicable_egd_bindings", "chase.egd_search"),
    ("repro.core.homomorphism", "iter_matches", _MATCH),
)

#: Definition 4.3 tests: recorded, with nothing beneath them.
ISOLATED: tuple[tuple[str, str, str], ...] = (
    ("repro.chase.sound_chase", "is_assignment_fixing_for", "chase.af_test"),
    ("repro.chase.incremental", "is_assignment_fixing_for", "chase.af_test"),
)

#: ``(module, class, method, span name)``.
METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.serve.pool", "ThreadEngineBackend", "dispatch", "serve.dispatch"),
    ("repro.session.engine", "Session", "decide", "session.decide"),
    ("repro.session.engine", "Session", "reformulate", "session.reformulate"),
    ("repro.session.engine", "Session", "apply_delta", "session.apply_delta"),
    ("repro.session.engine", "Session", "_cold_outcome", "incremental.cold_fallback"),
    ("repro.serve.store", "ChaseStore", "__init__", "store.load"),
    ("repro.serve.store", "ChaseStore", "get", "store.get"),
    ("repro.serve.store", "ChaseStore", "put", "store.put"),
)

#: Index builds in the outer chase loops.
INDEX_MODULES = ("repro.chase.sound_chase", "repro.chase.set_chase")


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every boundary in the table; returns the undo function."""
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, replacement: Any) -> None:
        undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def module(name: str) -> Any:
        return importlib.import_module(name)

    for mod, attribute, span in FUNCTIONS:
        owner = module(mod)
        patch(owner, attribute, tracer.function(span, getattr(owner, attribute)))
    for mod, attribute, span in GENERATORS:
        owner = module(mod)
        patch(owner, attribute, tracer.generator(span, getattr(owner, attribute)))
    for mod, attribute, span in ISOLATED:
        owner = module(mod)
        patch(owner, attribute, tracer.function(span, getattr(owner, attribute), isolate=True))
    for mod, cls_name, attribute, span in METHODS:
        cls = getattr(module(mod), cls_name)
        original = cls.__dict__[attribute]
        if span == "serve.dispatch":
            wrapped = tracer.coroutine(
                span, original,
                lambda _self, _op, params: tracer.params_request.get(id(params)),
            )
        else:
            wrapped = tracer.function(span, original)
        patch(cls, attribute, wrapped)
    _install_session_chase(tracer, patch, module("repro.session.engine").Session)
    _install_serve_edges(tracer, patch, module("repro.serve.server"), module("repro.serve.pool"))
    for mod in INDEX_MODULES:
        owner = module(mod)
        patch(owner, "TargetIndex", _traced_index(tracer, owner.TargetIndex))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall


def _install_session_chase(tracer: Tracer, patch: Callable[..., None], session_cls: Any) -> None:
    """``Session.chase``, booked as a hit or a miss of the chase cache."""
    original = session_cls.__dict__["chase"]
    enter, exit_ = tracer.enter, tracer.exit

    def chase(self: Any, *args: Any, **kwargs: Any) -> Any:
        frame = enter("session.chase")
        if frame is None:
            return original(self, *args, **kwargs)
        hits = self.cache.stats.hits
        try:
            return original(self, *args, **kwargs)
        finally:
            if self.cache.stats.hits != hits:
                frame.name = "session.chase.hit"
            exit_(frame)

    patch(session_cls, "chase", chase)


def _install_serve_edges(
    tracer: Tracer, patch: Callable[..., None], server: Any, pool: Any
) -> None:
    """Decode, encode and the engine op, each tagged with its request id."""
    parse_request, encode_line, execute_op = (
        server.parse_request, server.encode_line, pool.execute_op,
    )
    enter, exit_ = tracer.enter, tracer.exit
    params_request = tracer.params_request

    def traced_parse(line: bytes) -> Any:
        frame = enter("serve.decode")
        try:
            result = parse_request(line)
        except BaseException:
            if frame is not None:
                exit_(frame)
            raise
        request_id, _, params = result
        if frame is not None:
            frame.request = request_id  # known only once decoded
            exit_(frame)
        if len(params_request) > 10_000:
            params_request.clear()
        params_request[id(params)] = request_id
        return result

    def traced_encode(payload: Any) -> bytes:
        frame = enter("serve.encode", payload.get("id"))
        try:
            return encode_line(payload)
        finally:
            if frame is not None:
                exit_(frame)

    def traced_execute(session: Any, op: str, params: Any) -> Any:
        request_id = params_request.get(id(params))
        tracer.set_request(request_id)
        frame = enter("serve.execute_op")
        try:
            return execute_op(session, op, params)
        finally:
            if frame is not None:
                exit_(frame)
            tracer.set_request(None)

    patch(server, "parse_request", traced_parse)
    patch(server, "encode_line", traced_encode)
    patch(pool, "execute_op", traced_execute)


def _traced_index(tracer: Tracer, index_cls: Any) -> Any:
    enter, exit_ = tracer.enter, tracer.exit

    class TracedTargetIndex(index_cls):  # type: ignore[misc, valid-type]
        __slots__ = ()

        def __init__(self, atoms: Any) -> None:
            frame = enter(_INDEX)
            if frame is None:
                super().__init__(atoms)
                return
            try:
                super().__init__(atoms)
            finally:
                exit_(frame)

    return TracedTargetIndex
