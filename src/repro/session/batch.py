"""Batch decision pipelines with per-item error capture.

``decide_many`` and ``reformulate_many`` run a whole workload through a
:class:`~repro.session.engine.Session` and return a :class:`BatchReport`:
one :class:`BatchItem` per input, carrying either the result or the error
that input produced (a non-terminating chase on one pair must not sink the
other thousand).

Sequentially, items share the calling session's chase cache — a workload
whose pairs overlap chases each distinct (query, semantics) once.  With
``concurrency=N`` the items are fanned out over N worker processes, each
owning its own session (and cache) built from a :class:`WorkerSpec` of the
calling session; results come back in input order.  The worker processes
and the shared-memory intern snapshot that warms them are started for one
call and gone when it returns, so a Session owns no processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Iterator, Sequence

from ..core.aggregate import AggregateQuery
from ..core.query import ConjunctiveQuery
from ..dependencies.base import DependencySet
from ..semantics import Semantics

if TYPE_CHECKING:
    from ..core.terms import SharedInternSnapshot
    from .engine import ChaseResultStore, Session

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
# Engine workers.  One WorkerSpec boots every engine worker process: the
# concurrent batch's (below) and the serve daemon's
# (:func:`repro.serve.pool._worker_main`).  Payloads and results must stay
# picklable.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkerSpec:
    """What an engine worker needs to answer as its parent Session would.

    Picklable: the spec travels to each worker when it starts.  Nothing
    else a Session holds changes an answer.
    """

    dependencies: DependencySet
    max_steps: int
    default_semantics: Semantics
    precheck: str = "off"
    cache_size: int = 4096
    store_path: str | None = None
    shm_name: str | None = None
    #: Inline snapshot fallback for platforms without shared memory.
    intern_snapshot: "tuple[tuple[str, Hashable], ...] | None" = None

    @classmethod
    def of(cls, session: "Session", store_path: str | None = None) -> "WorkerSpec":
        """The spec of a worker that answers as *session* does."""
        return cls(
            dependencies=session.dependencies,
            max_steps=session.max_steps,
            default_semantics=session.default_semantics,
            precheck=session.precheck,
            cache_size=session.cache.maxsize,
            store_path=store_path,
        )

    def published(self) -> "tuple[WorkerSpec, SharedInternSnapshot | None]":
        """This spec carrying the live intern snapshot, and the segment holding it.

        The snapshot is serialized once into shared memory, which every
        worker (and every respawn) attaches; where that fails, it travels
        inline in the spec and the segment is ``None``.  The caller owns the
        segment and destroys it once its workers are gone.
        """
        from ..core.terms import SharedInternSnapshot, export_interned_terms

        try:
            shm = SharedInternSnapshot.create()
        except Exception:
            return replace(self, intern_snapshot=tuple(export_interned_terms())), None
        return replace(self, shm_name=shm.name), shm

    def session(
        self, store: "ChaseResultStore | None" = None, *, chase_resumable: bool = False
    ) -> "tuple[Session, int]":
        """Pin the published snapshot, then build the worker's Session.

        Returns the Session and the number of terms pinned.  Pinning warms
        the worker's intern tables with the parent's vocabulary before the
        first payload arrives, and keeps the weak tables from dropping those
        terms between items.  Under the fork start method the tables are
        inherited and this is nearly free; under spawn it replaces
        re-interning from an empty table.  A missing segment (the parent
        already shut down) means a cold start, never a failure.
        """
        from ..core.terms import SharedInternSnapshot, pin_interned_terms
        from .engine import Session

        pinned = 0
        if self.shm_name is not None:
            try:
                pinned = SharedInternSnapshot.attach_and_pin(self.shm_name)
            except OSError:
                pinned = 0
        if not pinned and self.intern_snapshot:
            pinned = pin_interned_terms(self.intern_snapshot)
        session = Session(
            dependencies=self.dependencies,
            default_semantics=self.default_semantics,
            max_steps=self.max_steps,
            cache_size=self.cache_size,
            store=store,
            precheck=self.precheck,
            chase_resumable=chase_resumable,
        )
        return session, pinned


#: The Session of a batch worker process, built once by the pool initializer.
_WORKER_SESSION: Any = None


def _init_worker(spec: WorkerSpec) -> None:
    global _WORKER_SESSION
    _WORKER_SESSION, _ = spec.session()


def _decide_item(session, pair, semantics, steps):
    return session.decide(pair[0], pair[1], semantics, steps)


def _reformulate_item(session, query, semantics, steps, explicit, kwargs):
    # Aggregate queries choose their own semantics (Theorem 6.3) unless the
    # caller asked for one: the resolved session default is not forced on them.
    if isinstance(query, AggregateQuery) and not explicit:
        semantics = None
    return session.reformulate(query, semantics, steps, **kwargs)


def _run_item(item_function, session, args) -> tuple:
    """``(result, error, error_type)`` of one item, on *session*."""
    try:
        return item_function(session, *args), None, None
    except Exception as exc:  # per-item capture: one bad input must not sink the batch
        return None, str(exc), type(exc).__name__


def _run_item_in_worker(item_function, args) -> tuple:
    return _run_item(item_function, _WORKER_SESSION, args)


def _run_in_workers(session, item_function, calls: list, concurrency: int) -> list:
    """Run every call on *concurrency* worker processes started for this call.

    The pool and the published intern snapshot live for this call only:
    both are gone when it returns, whether its items succeeded or raised.
    """
    from concurrent.futures import ProcessPoolExecutor

    spec, shm = WorkerSpec.of(session).published()
    try:
        with ProcessPoolExecutor(
            max_workers=concurrency, initializer=_init_worker, initargs=(spec,)
        ) as pool:
            return list(
                pool.map(
                    partial(_run_item_in_worker, item_function),
                    calls,
                    chunksize=_CHUNKSIZE,
                )
            )
    finally:
        if shm is not None:
            shm.destroy()


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
    item_function,
    *extra,
) -> BatchReport:
    """Shared pipeline: run every item, in process or fanned out, into a report.

    ``item_function(session, item, semantics, steps, *extra)`` runs one item,
    on the calling session (sharing its cache) or on a worker's.
    """
    semantics = session._semantics(semantics)
    steps = session.max_steps if max_steps is None else max_steps
    calls = [(item, semantics, steps, *extra) for item in items]
    if concurrency is not None and concurrency > 1 and len(items) > 1:
        outcomes = _run_in_workers(session, item_function, calls, concurrency)
    else:
        outcomes = [_run_item(item_function, session, args) for args in calls]
    report = BatchReport(kind=kind, semantics=semantics)
    for index, (item, outcome) in enumerate(zip(items, outcomes)):
        report.items.append(BatchItem(index, item, *outcome))
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
        session, "decide", semantics, max_steps, concurrency, list(pairs), _decide_item
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
    return _execute_batch(
        session,
        "reformulate",
        semantics,
        max_steps,
        concurrency,
        list(queries),
        _reformulate_item,
        semantics is not None,
        kwargs,
    )
