"""Coverage for the multiprocessing path of :mod:`repro.session.batch`.

The in-process pipeline is exercised throughout ``tests/test_session.py``;
these tests pin down the fan-out path: input-order results, per-item error
capture inside workers, chase-cache isolation between the parent session
and the worker processes, and the batch's lifecycle: its workers and its
shared-memory intern snapshot live for one call.
"""

from __future__ import annotations

import itertools
import multiprocessing
from multiprocessing import shared_memory

import pytest

from repro import Session, parse_aggregate_query, parse_dependencies, parse_query
from repro.core.terms import SharedInternSnapshot
from repro.dependencies.base import DependencySet
from repro.semantics import Semantics
from repro.session.batch import WorkerSpec

SIGMA = """
p(X,Y) -> t(X,Y,W)
t(X,Y,Z) & t(X,Y,W) -> Z = W
"""


@pytest.fixture()
def sigma():
    return parse_dependencies(SIGMA, set_valued=["t"])


@pytest.fixture()
def pairs():
    q = parse_query
    return [
        (q("Q1(X) :- p(X,Y)"), q("Q2(X) :- p(X,Y), t(X,Y,W)")),  # equivalent
        (q("Q1(X) :- p(X,Y)"), q("Q3(X) :- p(X,Y), p(X,Z)")),
        (q("Q1(X) :- t(X,Y,Z)"), q("Q4(X) :- t(X,Y,Z), t(X,Y,W)")),
        (q("Q1(X) :- p(X,Y)"), q("Q5(X,Y) :- p(X,Y)")),  # different heads
        (q("Q1(X) :- p(X,Y), t(X,Y,W)"), q("Q6(X) :- p(X,Y)")),
        (q("Q1(X) :- r(X)"), q("Q7(X) :- r(X)")),
    ]


class TestOrderingAndParity:
    def test_results_stream_back_in_input_order(self, sigma, pairs):
        session = Session(dependencies=sigma)
        report = session.decide_many(pairs, semantics="bag", concurrency=2)
        assert [item.index for item in report] == list(range(len(pairs)))
        assert all(item.ok for item in report)

    def test_worker_verdicts_match_in_process_verdicts(self, sigma, pairs):
        concurrent = Session(dependencies=sigma).decide_many(
            pairs, semantics="bag", concurrency=2
        )
        sequential = Session(dependencies=sigma).decide_many(
            pairs, semantics="bag"
        )
        assert [bool(item.result) for item in concurrent] == [
            bool(item.result) for item in sequential
        ]

    def test_input_objects_are_preserved_on_items(self, sigma, pairs):
        report = Session(dependencies=sigma).decide_many(
            pairs, semantics="bag-set", concurrency=2
        )
        assert [item.input for item in report] == pairs


class TestErrorCapture:
    def test_worker_errors_are_captured_per_item(self, sigma, pairs):
        # A one-step budget makes every pair that needs a chase step fail
        # inside the worker with ChaseNonTerminationError; the no-op pair
        # over r/1 still decides fine.
        session = Session(dependencies=sigma, max_steps=1)
        report = session.decide_many(pairs, semantics="bag-set", concurrency=2)
        assert len(report) == len(pairs)
        failing = [item for item in report if not item.ok]
        assert failing, "expected the tight budget to fail some pairs"
        assert all(
            item.error_type == "ChaseNonTerminationError" for item in failing
        )
        last = report[len(pairs) - 1]  # (r(X), r(X)): no chase step needed
        assert last.ok and bool(last.result)

    def test_malformed_payloads_fail_only_their_item(self, sigma, pairs):
        bad_input = [pairs[0], None, pairs[1]]
        report = Session(dependencies=sigma).decide_many(
            bad_input, semantics="bag", concurrency=2
        )
        assert [item.ok for item in report] == [True, False, True]
        assert report[1].error_type == "TypeError"

    def test_reformulate_many_concurrency_captures_semantics_errors(self, sigma):
        # An explicitly requested semantics is an error for aggregate
        # queries (they pick their own, Theorem 6.3) — captured per item in
        # the worker, not raised out of the batch.
        queries = [
            parse_query("Q1(X) :- p(X,Y)"),
            parse_aggregate_query("Q(X, sum(Y)) :- p(X,Y)"),
        ]
        report = Session(dependencies=sigma).reformulate_many(
            queries, semantics="bag-set", concurrency=2
        )
        assert report[0].ok
        assert not report[1].ok
        assert report[1].error_type == "SemanticsError"

    def test_raise_on_failure_names_the_first_failure(self, sigma, pairs):
        session = Session(dependencies=sigma, max_steps=1)
        report = session.decide_many(pairs, semantics="bag", concurrency=2)
        with pytest.raises(RuntimeError, match="ChaseNonTerminationError"):
            report.raise_on_failure()


class TestCacheIsolation:
    def test_worker_chases_do_not_touch_the_parent_cache(self, sigma, pairs):
        session = Session(dependencies=sigma)
        before = session.cache_stats()
        report = session.decide_many(pairs, semantics="bag", concurrency=2)
        assert all(item.ok for item in report)
        after = session.cache_stats()
        assert (after.hits, after.misses, after.size) == (
            before.hits,
            before.misses,
            before.size,
        )

    def test_in_process_run_populates_the_shared_cache(self, sigma, pairs):
        session = Session(dependencies=sigma)
        session.decide_many(pairs, semantics="bag")
        first = session.cache_stats()
        assert first.misses > 0 and first.size > 0
        session.decide_many(pairs, semantics="bag")
        second = session.cache_stats()
        assert second.hits > first.hits  # warm rerun is served from cache
        assert second.misses == first.misses

    def test_workers_decide_identically_despite_cold_caches(self, sigma, pairs):
        # Every worker process builds its own Session: verdicts must not
        # depend on whether a chase came from a warm or a cold cache.
        warm = Session(dependencies=sigma)
        warm.decide_many(pairs, semantics="bag")  # warm the parent cache
        warm_report = warm.decide_many(pairs, semantics="bag")
        cold_report = Session(dependencies=sigma).decide_many(
            pairs, semantics="bag", concurrency=2
        )
        assert [bool(item.result) for item in warm_report] == [
            bool(item.result) for item in cold_report
        ]


class TestConcurrencyGuards:
    def test_single_item_batches_stay_in_process(self, sigma, pairs):
        # One item never pays for a pool: the shared cache sees the chases.
        session = Session(dependencies=sigma)
        report = session.decide_many(pairs[:1], semantics="bag", concurrency=4)
        assert report[0].ok
        assert session.cache_stats().misses > 0


class TestBatchLifecycle:
    """A concurrent batch starts its worker processes and publishes its
    intern snapshot for one call; both are gone when the call returns."""

    @pytest.mark.parametrize("max_steps", [None, 1], ids=["clean", "items-raise"])
    def test_workers_exit_and_the_segment_is_unlinked(
        self, sigma, pairs, monkeypatch, max_steps
    ):
        published = []
        create = SharedInternSnapshot.create.__func__

        def recording_create(cls, snapshot=None):
            segment = create(cls, snapshot)
            published.append(segment.name)
            return segment

        monkeypatch.setattr(
            SharedInternSnapshot, "create", classmethod(recording_create)
        )
        before = set(multiprocessing.active_children())
        # The session stays referenced: the call itself, not garbage
        # collection of its session, must have stopped the workers.
        session = Session(dependencies=sigma)
        report = session.decide_many(
            pairs, semantics="bag", max_steps=max_steps, concurrency=2
        )
        assert len(report) == len(pairs)
        if max_steps is None:
            assert report.error_count == 0
        else:
            assert {item.error_type for item in report.failures} == {
                "ChaseNonTerminationError"
            }
        assert set(multiprocessing.active_children()) <= before
        assert len(published) == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=published[0])
        # The session itself is untouched and keeps deciding in process.
        assert session.decide(pairs[0][0], pairs[0][1], "bag").equivalent

    def test_batch_after_sigma_change_uses_new_sigma(self, sigma, pairs):
        session = Session(dependencies=sigma)
        session.decide_many(pairs, semantics="bag", concurrency=2)
        session.set_dependencies(parse_dependencies("p(X,Y) -> q(Y)"))
        q = parse_query
        new_pairs = [(q("Q(X) :- p(X,Y)"), q("Q(X) :- p(X,Y), q(Y)"))] * 2
        report = session.decide_many(new_pairs, semantics="set", concurrency=2)
        # Under the old Σ nothing derives q, so only the new Σ makes these equivalent.
        assert [bool(item.result) for item in report] == [True, True]


class TestWorkerSpec:
    def test_a_worker_session_keeps_the_parent_settings(self, ex41):
        # Σ without its set-valued markers: the schema adds them back.
        parent = Session(
            ex41.schema,
            DependencySet(ex41.dependencies.dependencies),
            cache_size=64,
            default_semantics="bag",
            max_steps=500,
            precheck="warn",
        )
        worker, _ = WorkerSpec.of(parent).session()
        assert worker.dependencies.set_valued_predicates == frozenset({"s", "t"})
        assert worker.dependencies.set_valued_predicates == (
            parent.dependencies.set_valued_predicates
        )
        assert list(worker.dependencies) == list(parent.dependencies)
        assert worker.max_steps == 500
        assert worker.default_semantics is Semantics.BAG
        assert worker.precheck == "warn"
        assert worker.cache.maxsize == 64
        queries = [ex41.q1, ex41.q2, ex41.q3, ex41.q4]
        for semantics in ("set", "bag", "bag-set"):
            for q1, q2 in itertools.combinations(queries, 2):
                assert bool(worker.decide(q1, q2, semantics)) == bool(
                    parent.decide(q1, q2, semantics)
                ), (semantics, q1, q2)
