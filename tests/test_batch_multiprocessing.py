"""Coverage for the multiprocessing path of :mod:`repro.session.batch`.

The in-process pipeline is exercised throughout ``tests/test_session.py``;
these tests pin down the fan-out path: input-order results, per-item error
capture inside workers *and* during payload construction, and chase-cache
isolation between the parent session and the worker processes.
"""

from __future__ import annotations

import pytest

from repro import Session, parse_aggregate_query, parse_dependencies, parse_query

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


class TestPoolReuse:
    """The Session-held worker pool: spawned once, reused across batches,
    torn down on Σ change and on close()."""

    def test_pool_is_reused_across_batch_calls(self, sigma, pairs):
        session = Session(dependencies=sigma)
        session.decide_many(pairs, semantics="bag", concurrency=2)
        first_pool = session._batch_pool
        assert first_pool is not None
        session.decide_many(pairs, semantics="bag-set", concurrency=2)
        assert session._batch_pool is first_pool
        assert session.stats()["batch_pool"] == {
            "workers": 2,
            "pools_created": 1,
        }
        session.close()

    def test_pool_is_rebuilt_on_concurrency_change(self, sigma, pairs):
        session = Session(dependencies=sigma)
        session.decide_many(pairs, semantics="bag", concurrency=2)
        first_pool = session._batch_pool
        session.decide_many(pairs, semantics="bag", concurrency=3)
        assert session._batch_pool is not first_pool
        assert session.stats()["batch_pool"]["pools_created"] == 2
        session.close()

    def test_pool_is_rebuilt_on_sigma_change(self, sigma, pairs):
        session = Session(dependencies=sigma)
        session.decide_many(pairs, semantics="bag", concurrency=2)
        first_pool = session._batch_pool
        session.set_dependencies(parse_dependencies("p(X,Y) -> q(Y)"))
        q = parse_query
        new_pairs = [(q("Q(X) :- p(X,Y)"), q("Q(X) :- p(X,Y), q(Y)"))] * 2
        report = session.decide_many(new_pairs, semantics="set", concurrency=2)
        assert all(item.ok for item in report)
        assert session._batch_pool is not first_pool
        assert session.stats()["batch_pool"]["pools_created"] == 2
        session.close()

    def test_close_tears_the_pool_down(self, sigma, pairs):
        session = Session(dependencies=sigma)
        session.decide_many(pairs, semantics="bag", concurrency=2)
        assert session._batch_pool is not None
        had_shm = session._batch_shm
        session.close()
        assert session._batch_pool is None
        assert session._batch_pool_key is None
        assert session._batch_shm is None
        if had_shm is not None:
            # The shared-memory intern snapshot was unlinked with the pool.
            import multiprocessing.shared_memory as shm_mod

            with pytest.raises(FileNotFoundError):
                shm_mod.SharedMemory(name=had_shm.name)

    def test_close_is_idempotent_and_session_still_decides(self, sigma, pairs):
        session = Session(dependencies=sigma)
        session.decide_many(pairs, semantics="bag", concurrency=2)
        session.close()
        session.close()
        # In-process work is unaffected by pool teardown...
        assert session.decide(pairs[0][0], pairs[0][1], "bag").equivalent
        # ...and a new batch simply builds a fresh pool.
        report = session.decide_many(pairs, semantics="bag", concurrency=2)
        assert all(item.ok for item in report)
        assert session.stats()["batch_pool"]["pools_created"] == 2
        session.close()
