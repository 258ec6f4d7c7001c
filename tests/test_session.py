"""Tests for the unified Session engine: semantics dispatch, chase-result
caching, batch pipelines, and the functional entry points over it."""

from __future__ import annotations

import pytest

import repro.session.strategies as strategies_module
from repro import (
    SemanticsError,
    Session,
    UnknownSemanticsError,
    parse_dependencies,
    parse_query,
)
from repro.equivalence import decide_all, decide_equivalence
from repro.equivalence.decision import EquivalenceVerdict
from repro.semantics import Semantics
from repro.session import BatchReport, assert_proposition_6_1


@pytest.fixture()
def session41(ex41) -> Session:
    return Session(dependencies=ex41.dependencies)


# --------------------------------------------------------------------------- #
# Semantics dispatch
# --------------------------------------------------------------------------- #
class TestRegistryDispatch:
    def test_builtin_names(self):
        names = strategies_module.NAMES
        assert names == ("bag", "bag-set", "set")
        assert [strategies_module.resolve(name) for name in names] == [
            Semantics.BAG, Semantics.BAG_SET, Semantics.SET
        ]

    @pytest.mark.parametrize(
        "spelling", ["bag-set", "bag_set", "bagset", "bs", "BAG-SET", Semantics.BAG_SET]
    )
    def test_aliases_resolve_to_bag_set(self, spelling):
        assert strategies_module.resolve(spelling) is Semantics.BAG_SET

    def test_example_4_1_matrix_through_session(self, ex41, session41):
        # The Example 4.1 verdict matrix (Qi vs Q4) dispatched by name.
        expected = {
            ("Q1", "set"): True, ("Q1", "bag-set"): False, ("Q1", "bag"): False,
            ("Q2", "set"): True, ("Q2", "bag-set"): True, ("Q2", "bag"): False,
            ("Q3", "set"): True, ("Q3", "bag-set"): True, ("Q3", "bag"): True,
        }
        queries = {"Q1": ex41.q1, "Q2": ex41.q2, "Q3": ex41.q3}
        for (name, semantics), expected_verdict in expected.items():
            verdict = session41.decide(queries[name], ex41.q4, semantics)
            assert bool(verdict) is expected_verdict, (name, semantics)

    def test_unknown_semantics_raises(self, ex41, session41):
        with pytest.raises(UnknownSemanticsError) as excinfo:
            session41.decide(ex41.q1, ex41.q4, semantics="probabilistic")
        message = str(excinfo.value)
        assert "probabilistic" in message
        assert "bag-set" in message  # the error lists what *is* registered
        assert excinfo.value.known == ("bag", "bag-set", "set")

    def test_unknown_semantics_is_repro_and_key_error(self, ex41, session41):
        from repro import ReproError

        with pytest.raises(ReproError):
            session41.chase(ex41.q4, semantics="no-such")
        with pytest.raises(KeyError):
            session41.chase(ex41.q4, semantics="no-such")

    def test_unknown_default_semantics_raises_at_construction(self, ex41):
        with pytest.raises(UnknownSemanticsError) as excinfo:
            Session(dependencies=ex41.dependencies, default_semantics="prob")
        assert excinfo.value.known == ("bag", "bag-set", "set")
        session = Session(dependencies=ex41.dependencies, default_semantics="bs")
        assert session.default_semantics is Semantics.BAG_SET

    def test_non_string_semantics_is_refused(self, ex41, session41):
        with pytest.raises(SemanticsError, match="Semantics member or a name"):
            session41.decide(ex41.q1, ex41.q4, semantics=3)

    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_dispatch_looks_up_chase_and_tests_at_call_time(
        self, monkeypatch, ex41, semantics
    ):
        # e2ebench/tracing.py wraps these four names on the strategies
        # module; dispatch that bound them at import would bypass it.
        tests = {
            Semantics.SET: "is_set_equivalent",
            Semantics.BAG: "is_bag_equivalent_with_set_enforced",
            Semantics.BAG_SET: "is_bag_set_equivalent",
        }
        counts: dict[str, int] = {}
        for name in ("sound_chase", *tests.values()):
            real = getattr(strategies_module, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(strategies_module, name, counting)

        Session(dependencies=ex41.dependencies).decide(ex41.q1, ex41.q4, semantics)
        assert counts == {"sound_chase": 2, tests[semantics]: 1}

        counts.clear()
        # Outside rule 5's regime (the fd's determinant leaves out the tgd's
        # universal Y), so the verdict table chases 2, 2 and 11 of the
        # candidates under set, bag and bag-set semantics.
        sigma = parse_dependencies("p(X,Y) -> r(X,Y,Z)\nr(X,Y1,Z1) & r(X,Y2,Z2) -> Z1 = Z2")
        query = parse_query("Q(X) :- p(X,Y), p(X,Y2)")
        result = Session(dependencies=sigma).reformulate(query, semantics)
        assert result.candidates_chased == {
            Semantics.SET: 2, Semantics.BAG: 2, Semantics.BAG_SET: 11
        }[semantics]
        assert set(counts) == {"sound_chase", tests[semantics]}
        assert counts[tests[semantics]] >= result.candidates_chased


# --------------------------------------------------------------------------- #
# Chase-result cache
# --------------------------------------------------------------------------- #
class TestChaseCache:
    def test_hit_and_miss_counters(self, ex41, session41):
        session41.decide(ex41.q1, ex41.q4, "bag")
        stats = session41.cache_stats()
        assert (stats.hits, stats.misses) == (0, 2)
        session41.decide(ex41.q1, ex41.q4, "bag")
        stats = session41.cache_stats()
        assert (stats.hits, stats.misses) == (2, 2)
        assert stats.hit_rate == 0.5

    def test_warm_decide_skips_sound_chase_entirely(self, ex41, session41, monkeypatch):
        cold = session41.decide(ex41.q1, ex41.q4, "bag")

        def exploding_chase(*args, **kwargs):
            raise AssertionError("sound_chase must not run on a warm cache")

        monkeypatch.setattr(strategies_module, "sound_chase", exploding_chase)
        warm = session41.decide(ex41.q1, ex41.q4, "bag")
        assert warm.equivalent is cold.equivalent
        assert warm.chased_left == cold.chased_left

    def test_semantics_and_max_steps_are_part_of_the_key(self, ex41, session41):
        session41.chase(ex41.q4, "bag")
        session41.chase(ex41.q4, "bag-set")
        assert session41.cache_stats().misses == 2  # different semantics: no sharing
        session41.chase(ex41.q4, "bag", max_steps=77)
        assert session41.cache_stats().misses == 3  # different budget: no sharing
        session41.chase(ex41.q4, "bag")
        assert session41.cache_stats().hits == 1

    def test_alpha_variant_queries_share_an_entry(self, session41, ex41):
        variant = parse_query("Q4(A) :- p(A,B)")
        session41.chase(ex41.q4, "bag")
        result = session41.chase(variant, "bag")
        stats = session41.cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert result.semantics is Semantics.BAG

    def test_sigma_change_invalidates(self, ex41, session41):
        q1, q4 = ex41.q1, ex41.q4
        assert bool(session41.decide(q1, q4, "set")) is True
        assert len(session41.cache) == 2

        # Dropping Σ entirely flips the set-semantics verdict — and must not
        # be answered from the stale cache.
        session41.dependencies = ()
        assert len(session41.cache) == 0
        assert session41.cache_stats().invalidations == 1
        assert bool(session41.decide(q1, q4, "set")) is False

        session41.set_dependencies(ex41.dependencies)
        assert bool(session41.decide(q1, q4, "set")) is True

    def test_clear_cache(self, ex41, session41):
        session41.chase(ex41.q4, "bag")
        session41.clear_cache()
        assert len(session41.cache) == 0

    def test_cached_falsy_values_are_hits_not_misses(self):
        # Regression: get() used to return None on a miss, so a legitimately
        # cached falsy value was indistinguishable from a miss — it was
        # recomputed by the caller and the lookup double-counted as a miss.
        from repro.session.cache import MISSING, ChaseCache

        cache = ChaseCache(maxsize=8)
        for key, falsy in (("a", None), ("b", False), ("c", 0), ("d", [])):
            cache.put(key, falsy)
        for key, falsy in (("a", None), ("b", False), ("c", 0), ("d", [])):
            value = cache.get(key)
            assert value is not MISSING
            assert value == falsy
        stats = cache.stats
        assert (stats.hits, stats.misses) == (4, 0)
        assert cache.get("absent") is MISSING
        assert cache.stats.misses == 1

    def test_missing_sentinel_is_identity_checked(self):
        from repro.session.cache import MISSING, ChaseCache

        cache = ChaseCache(maxsize=2)
        # The sentinel is falsy-agnostic: it is its own type, not None.
        assert MISSING is not None
        assert cache.get("nope") is MISSING

    def test_session_profile_aggregates_cold_chases_only(self, ex41, session41):
        cold = session41.chase(ex41.q4, "bag")
        profile = session41.chase_profile()
        assert profile.runs == 1
        assert profile.steps == cold.step_count
        session41.chase(ex41.q4, "bag")  # warm: served from cache
        assert session41.chase_profile().runs == 1
        session41.chase(ex41.q4, "bag-set")  # cold again under other semantics
        after = session41.chase_profile()
        assert after.runs == 2
        assert after.wall_time >= profile.wall_time

    def test_session_holds_the_given_sigma(self, ex41):
        """Σ is a value, so the session and its checkpoints hold the
        caller's own set; to change Σ, set a new one."""
        from repro.chase.incremental import chase_with_checkpoint

        sigma = ex41.dependencies
        session = Session(dependencies=sigma)
        assert session.dependencies is sigma and session.dependencies == sigma
        # A schema whose markers Σ already carries adds nothing either.
        assert Session(schema=ex41.schema, dependencies=sigma).dependencies is sigma
        assert chase_with_checkpoint(ex41.q4, sigma)[1].sigma is sigma
        with pytest.raises(AttributeError):
            session.dependencies.dependencies.append(sigma.tgds()[0])
        session.chase(ex41.q4, "bag")
        smaller = sigma.without(sigma.tgds()[0])
        session.set_dependencies(smaller)
        assert session.dependencies is smaller
        assert session.cache_stats().invalidations == 1
        assert len(sigma) == len(smaller) + 1

    def test_every_chase_books_one_key_build(self, ex41):
        """Warm or cold, each chase builds one key and books its time: the
        traced benchmark's session.key_build_us is read off these."""
        session = Session(dependencies=ex41.dependencies)
        for query, semantics in ((ex41.q4, "bag"), (ex41.q4, "bag"), (ex41.q1, "set")):
            before = session.chase_profile()
            session.chase(query, semantics)
            after = session.chase_profile()
            assert after.cache_keys_built == before.cache_keys_built + 1
            assert after.key_build_time > before.key_build_time
        assert session.cache_stats().hits == 1

    def test_lru_eviction_bound(self, ex41):
        session = Session(dependencies=ex41.dependencies, cache_size=2)
        session.chase(ex41.q1, "bag")
        session.chase(ex41.q2, "bag")
        session.chase(ex41.q3, "bag")
        stats = session.cache_stats()
        assert stats.size == 2
        assert stats.evictions == 1

    def test_positional_sigma_is_rejected(self, ex41):
        # Session(sigma) would silently bind Σ to the schema slot and decide
        # under an empty dependency set.
        from repro import SchemaError

        with pytest.raises(SchemaError, match="dependencies="):
            Session(ex41.dependencies)

    def test_unknown_semantics_error_pickles_intact(self):
        import pickle

        error = UnknownSemanticsError("prob", ("set", "bag"))
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.name == "prob" and clone.known == ("set", "bag")

    def test_schema_set_valued_markers_are_folded_into_sigma(self, ex41):
        bare_sigma = parse_dependencies("p(X,Y) -> t(X,Y,W)\nt(X,Y,Z) & t(X,Y,W) -> Z = W")
        assert not bare_sigma.set_valued_predicates
        session = Session(schema=ex41.schema, dependencies=bare_sigma)
        assert session.dependencies.set_valued_predicates == frozenset({"s", "t"})


# --------------------------------------------------------------------------- #
# decide_all and Proposition 6.1
# --------------------------------------------------------------------------- #
class TestDecideAll:
    def test_each_query_chased_once_per_semantics(self, ex41, session41):
        session41.decide_all(ex41.q1, ex41.q4)
        stats = session41.cache_stats()
        assert stats.misses == 6  # 2 queries x 3 semantics, nothing re-chased
        session41.decide_all(ex41.q1, ex41.q4)
        assert session41.cache_stats().misses == 6  # warm rerun chases nothing

    def test_verdicts_match_example_4_1(self, ex41, session41):
        verdicts = session41.decide_all(ex41.q1, ex41.q4)
        assert {str(k): bool(v) for k, v in verdicts.items()} == {
            "bag": False, "bag-set": False, "set": True,
        }

    def test_module_level_decide_all_matches(self, ex41):
        verdicts = decide_all(ex41.q1, ex41.q4, ex41.dependencies)
        assert {str(k): bool(v) for k, v in verdicts.items()} == {
            "bag": False, "bag-set": False, "set": True,
        }

    def test_decide_equivalence_delegates(self, ex41, session41):
        verdict = decide_equivalence(ex41.q1, ex41.q4, ex41.dependencies, "bag")
        assert verdict.semantics is Semantics.BAG
        assert verdict.equivalent is session41.decide(ex41.q1, ex41.q4, "bag").equivalent

    def test_proposition_6_1_chain_is_asserted(self, ex41):
        q = ex41.q4

        def verdict(semantics, equivalent):
            return EquivalenceVerdict(equivalent, semantics, q, q)

        # bag ⇒ bag-set violated:
        with pytest.raises(AssertionError):
            assert_proposition_6_1({
                Semantics.BAG: verdict(Semantics.BAG, True),
                Semantics.BAG_SET: verdict(Semantics.BAG_SET, False),
                Semantics.SET: verdict(Semantics.SET, True),
            })
        # bag-set ⇒ set violated:
        with pytest.raises(AssertionError):
            assert_proposition_6_1({
                Semantics.BAG: verdict(Semantics.BAG, False),
                Semantics.BAG_SET: verdict(Semantics.BAG_SET, True),
                Semantics.SET: verdict(Semantics.SET, False),
            })
        # A legal triple passes.
        assert_proposition_6_1({
            Semantics.BAG: verdict(Semantics.BAG, False),
            Semantics.BAG_SET: verdict(Semantics.BAG_SET, True),
            Semantics.SET: verdict(Semantics.SET, True),
        })


# --------------------------------------------------------------------------- #
# Batch pipelines
# --------------------------------------------------------------------------- #
class TestBatchPipelines:
    def test_decide_many_verdicts_in_order(self, ex41, session41):
        pairs = [(ex41.q1, ex41.q4), (ex41.q3, ex41.q4), (ex41.q2, ex41.q4)]
        report = session41.decide_many(pairs, semantics="bag")
        assert isinstance(report, BatchReport)
        assert [bool(item.result) for item in report] == [False, True, False]
        assert report.ok_count == 3 and report.error_count == 0
        assert [item.index for item in report] == [0, 1, 2]
        # 4 distinct queries -> 4 chases, not 6.
        assert session41.cache_stats().misses == 4

    def test_decide_many_error_capture(self, ex41, session41):
        pairs = [(ex41.q3, ex41.q4), (ex41.q1, ex41.q4)]
        report = session41.decide_many(pairs, semantics="bag", max_steps=1)
        assert report.error_count == 2
        failure = report.failures[0]
        assert failure.error_type == "ChaseNonTerminationError"
        assert "1 steps" in failure.error
        with pytest.raises(RuntimeError, match="ChaseNonTerminationError"):
            report.raise_on_failure()

    def test_decide_many_mixes_errors_and_results(self, ex41, session41):
        # Per-item budgets are not supported; build the mix from two batches
        # instead: one failing item must not poison the session for good ones.
        bad = session41.decide_many([(ex41.q1, ex41.q4)], semantics="bag", max_steps=1)
        good = session41.decide_many([(ex41.q3, ex41.q4)], semantics="bag")
        assert bad.error_count == 1 and good.ok_count == 1
        assert bool(good[0].result) is True

    def test_decide_many_concurrency_matches_sequential(self, ex41, session41):
        pairs = [
            (ex41.q1, ex41.q4), (ex41.q2, ex41.q4),
            (ex41.q3, ex41.q4), (ex41.q3, ex41.q5),
        ]
        sequential = session41.decide_many(pairs, semantics="bag")
        concurrent = session41.decide_many(pairs, semantics="bag", concurrency=2)
        assert [bool(i.result) for i in concurrent] == [bool(i.result) for i in sequential]
        assert concurrent.error_count == 0

    def test_reformulate_many(self, ex41, session41):
        report = session41.reformulate_many(
            [ex41.q4, ex41.q3], semantics="bag", check_sigma_minimality=False
        )
        assert report.ok_count == 2
        q4_result, q3_result = report.results
        assert q4_result.contains_isomorphic(ex41.q3)
        assert q3_result.contains_isomorphic(ex41.q4)

    def test_empty_batch(self, session41):
        report = session41.decide_many([], semantics="bag")
        assert len(report) == 0 and report.ok_count == 0

    def test_malformed_item_is_captured_in_both_modes(self, ex41, session41):
        # A 1-tuple "pair" and a bare query must become per-item errors, not
        # sink the batch — sequentially and concurrently alike.
        pairs = [(ex41.q3, ex41.q4), (ex41.q1,), ex41.q2]
        for concurrency in (None, 2):
            report = session41.decide_many(pairs, semantics="bag", concurrency=concurrency)
            assert [item.ok for item in report] == [True, False, False], concurrency
            assert bool(report[0].result) is True
            assert report[1].error_type == "IndexError"
            assert report[2].error_type == "TypeError"

    def test_reformulate_many_handles_aggregate_queries(self, session41):
        from repro import parse_aggregate_query

        aggregate = parse_aggregate_query("Q(X, sum(Y)) :- p(X,Y)")
        report = session41.reformulate_many([aggregate])
        assert report.ok_count == 1
        assert report.results[0].core_result.semantics is Semantics.BAG_SET

    def test_reformulate_many_explicit_semantics_fails_aggregates(self, session41):
        # The direct API rejects an explicit semantics for aggregates; the
        # batch keeps that contract via per-item error capture.
        from repro import parse_aggregate_query

        aggregate = parse_aggregate_query("Q(X, sum(Y)) :- p(X,Y)")
        report = session41.reformulate_many([aggregate], semantics="set")
        assert report.error_count == 1
        assert report.failures[0].error_type == "SemanticsError"


# --------------------------------------------------------------------------- #
# Engine misuse guards
# --------------------------------------------------------------------------- #
class TestEngineGuards:
    def test_chase_and_backchase_rejects_mismatched_engine_sigma(self, ex41, session41):
        from repro import ReformulationError
        from repro.reformulation import chase_and_backchase

        with pytest.raises(ReformulationError, match="differs"):
            chase_and_backchase(ex41.q4, (), "bag", engine=session41)

    def test_reformulate_rejects_explicit_semantics_for_aggregates(self, session41):
        from repro import parse_aggregate_query

        aggregate = parse_aggregate_query("Q(X, sum(Y)) :- p(X,Y)")
        with pytest.raises(SemanticsError, match="aggregate"):
            session41.reformulate(aggregate, "set")
        # Without a semantics argument the Theorem 6.3 dispatch applies.
        result = session41.reformulate(aggregate)
        assert result.core_result.semantics is Semantics.BAG_SET

