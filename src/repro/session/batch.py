"""Batch decision pipelines with per-item error capture.

``decide_many`` and ``reformulate_many`` run a whole workload through a
:class:`~repro.session.engine.Session` and return a :class:`BatchReport`:
one :class:`BatchItem` per input, carrying either the result or the error
that input produced (a non-terminating chase on one pair must not sink the
other thousand).

Sequentially, items share the calling session's chase cache — a workload
whose pairs overlap chases each distinct (query, semantics) once.  With
``concurrency=N`` the items are fanned out over N worker processes, each
owning its own session (and cache) initialized once per process; results
stream back in input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Sequence

from ..core.aggregate import AggregateQuery
from ..core.query import ConjunctiveQuery
from ..dependencies.base import DependencySet

_CHUNKSIZE = 8


@dataclass(frozen=True)
class BatchItem:
    """Outcome of one pipeline input: a result or a captured error."""

    index: int
    input: object
    result: object | None = None
    error: str | None = None
    error_type: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def __str__(self) -> str:
        if self.ok:
            return f"[{self.index}] ok: {self.result}"
        return f"[{self.index}] {self.error_type}: {self.error}"


@dataclass
class BatchReport:
    """Structured outcome of a ``decide_many`` / ``reformulate_many`` run."""

    kind: str
    semantics: object
    items: list[BatchItem] = field(default_factory=list)

    @property
    def results(self) -> list:
        """Results of the successful items, in input order."""
        return [item.result for item in self.items if item.ok]

    @property
    def failures(self) -> list[BatchItem]:
        """The items whose processing raised, in input order."""
        return [item for item in self.items if not item.ok]

    @property
    def ok_count(self) -> int:
        return sum(1 for item in self.items if item.ok)

    @property
    def error_count(self) -> int:
        return len(self.items) - self.ok_count

    def raise_on_failure(self) -> "BatchReport":
        """Raise if any item failed; returns self so calls can chain."""
        failures = self.failures
        if failures:
            first = failures[0]
            raise RuntimeError(
                f"{len(failures)}/{len(self.items)} {self.kind} items failed; "
                f"first: item {first.index} raised {first.error_type}: {first.error}"
            )
        return self

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[BatchItem]:
        return iter(self.items)

    def __getitem__(self, index: int) -> BatchItem:
        return self.items[index]

    def __str__(self) -> str:
        return (
            f"BatchReport({self.kind} under {self.semantics}: "
            f"{self.ok_count} ok, {self.error_count} failed)"
        )


# --------------------------------------------------------------------------- #
# Worker-process plumbing.  One Session per process, created by the pool
# initializer; payloads and results must stay picklable.
# --------------------------------------------------------------------------- #
_WORKER_SESSION: Any = None


def _init_worker(
    dependencies: DependencySet,
    max_steps: int,
    intern_snapshot: "list[tuple[str, Hashable]] | None" = None,
    shm_name: str | None = None,
) -> None:
    global _WORKER_SESSION
    from ..core.terms import SharedInternSnapshot, pin_interned_terms
    from .engine import Session

    # Warm the worker's intern tables with the parent's live vocabulary
    # before the first payload arrives, and pin the terms so the weak
    # tables cannot drop them between items.  Under the fork start
    # method the tables are inherited and this is nearly free; under
    # spawn it replaces per-payload re-interning from an empty table.
    # The shared-memory segment is preferred — the parent serialized the
    # snapshot exactly once — with the inline pickle as the fallback for
    # platforms without shared memory (and a missing segment just means a
    # cold start, never a failure).
    pinned = False
    if shm_name is not None:
        try:
            SharedInternSnapshot.attach_and_pin(shm_name)
            pinned = True
        except (FileNotFoundError, OSError):
            pinned = False
    if not pinned and intern_snapshot:
        pin_interned_terms(intern_snapshot)
    _WORKER_SESSION = Session(dependencies=dependencies, max_steps=max_steps)


def _decide_worker(payload):
    index, q1, q2, semantics, max_steps = payload
    try:
        verdict = _WORKER_SESSION.decide(q1, q2, semantics, max_steps)
        return index, verdict, None, None
    except Exception as exc:  # per-item capture: one bad pair must not sink the batch
        return index, None, str(exc), type(exc).__name__


def _reformulate_worker(payload):
    index, query, semantics, max_steps, kwargs = payload
    try:
        result = _WORKER_SESSION.reformulate(query, semantics, max_steps, **kwargs)
        return index, result, None, None
    except Exception as exc:
        return index, None, str(exc), type(exc).__name__


def _run_pool(session, worker, payloads, concurrency: int):
    # The pool lives on the Session (created lazily, reused across calls,
    # torn down on Session.close() or when Σ/max_steps change), so repeated
    # batch calls stop paying process startup plus snapshot re-warm each
    # time; see Session._ensure_batch_pool.
    pool = session._ensure_batch_pool(concurrency)
    yield from pool.map(worker, payloads, chunksize=_CHUNKSIZE)


# --------------------------------------------------------------------------- #
# Public pipelines
# --------------------------------------------------------------------------- #
def _execute_batch(
    session,
    kind: str,
    semantics: object | None,
    max_steps: int | None,
    concurrency: int | None,
    items: list,
    make_payload,
    worker,
    call_in_process,
) -> BatchReport:
    """Shared pipeline: run every item, in-process or fanned out, into a report.

    ``make_payload(index, item, semantics, steps)`` builds the picklable
    worker payload; ``call_in_process(item, semantics, steps)`` is the
    sequential path (sharing the calling session's cache).
    """
    semantics = session._semantics(semantics)
    steps = session.max_steps if max_steps is None else max_steps
    report = BatchReport(kind=kind, semantics=semantics)

    if concurrency is not None and concurrency > 1 and len(items) > 1:
        # Payload construction gets the same per-item capture as execution:
        # one malformed input must not sink the rest of the batch.
        payloads = []
        failed: dict[int, tuple[str, str]] = {}
        for index, item in enumerate(items):
            try:
                payloads.append(make_payload(index, item, semantics, steps))
            except Exception as exc:
                failed[index] = (str(exc), type(exc).__name__)
        outcomes: dict[int, tuple] = {
            index: (result, error, error_type)
            for index, result, error, error_type in _run_pool(
                session, worker, payloads, concurrency
            )
        }
        for index, (error, error_type) in failed.items():
            outcomes[index] = (None, error, error_type)
        for index in range(len(items)):
            result, error, error_type = outcomes[index]
            report.items.append(BatchItem(index, items[index], result, error, error_type))
        return report

    for index, item in enumerate(items):
        try:
            result, error, error_type = call_in_process(item, semantics, steps), None, None
        except Exception as exc:
            result, error, error_type = None, str(exc), type(exc).__name__
        report.items.append(BatchItem(index, item, result, error, error_type))
    return report


def decide_many(
    session,
    pairs: Iterable[Sequence[ConjunctiveQuery]],
    semantics: object | None = None,
    max_steps: int | None = None,
    concurrency: int | None = None,
) -> BatchReport:
    """Decide ``Q1 ≡Σ,X Q2`` for every pair, capturing per-item errors."""
    # Items are materialized as-is: indexing into a malformed "pair" happens
    # inside the per-item capture, so one bad input fails only its own item.
    return _execute_batch(
        session,
        "decide",
        semantics,
        max_steps,
        concurrency,
        list(pairs),
        make_payload=lambda index, pair, semantics, steps: (
            index, pair[0], pair[1], semantics, steps
        ),
        worker=_decide_worker,
        call_in_process=lambda pair, semantics, steps: session.decide(
            pair[0], pair[1], semantics, steps
        ),
    )


def reformulate_many(
    session,
    queries: Iterable[ConjunctiveQuery],
    semantics: object | None = None,
    max_steps: int | None = None,
    concurrency: int | None = None,
    **kwargs,
) -> BatchReport:
    """Run the semantics' C&B variant on every query, capturing per-item errors.

    Aggregate queries choose their own semantics from the aggregate function
    (Theorem 6.3): when the caller did not ask for a semantics, the resolved
    session default is not forced onto them; an *explicitly* requested
    semantics keeps the direct API's contract and fails those items with
    :class:`~repro.exceptions.SemanticsError`.
    """
    explicit = semantics is not None

    def _semantics_for(query, resolved):
        if isinstance(query, AggregateQuery) and not explicit:
            return None
        return resolved

    return _execute_batch(
        session,
        "reformulate",
        semantics,
        max_steps,
        concurrency,
        list(queries),
        make_payload=lambda index, query, semantics, steps: (
            index, query, _semantics_for(query, semantics), steps, kwargs
        ),
        worker=_reformulate_worker,
        call_in_process=lambda query, semantics, steps: session.reformulate(
            query, _semantics_for(query, semantics), steps, **kwargs
        ),
    )
