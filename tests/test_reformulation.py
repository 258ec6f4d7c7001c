"""Tests for candidate enumeration, Σ-minimality, and the C&B family of
reformulation algorithms (Section 6.3, Appendix A)."""

from __future__ import annotations

import time

import pytest

import repro.reformulation.cb as cb_module
from repro.chase.set_chase import DEFAULT_MAX_STEPS
from repro.core import are_isomorphic
from repro.datalog import parse_aggregate_query, parse_dependencies, parse_query
from repro.equivalence import decide_equivalence
from repro.exceptions import ReproError
from repro.fuzz.generator import generate_cases
from repro.paperlib import chain_workload, example_4_1, orders_workload, star_workload
from repro.reformulation import (
    chase_and_backchase,
    count_subquery_candidates,
    is_sigma_minimal,
    is_sigma_minimal_aggregate,
    iter_subqueries,
    max_min_c_and_b,
    naive_bag_c_and_b,
    reformulate_aggregate_query,
    sum_count_c_and_b,
)
from repro.semantics import Semantics
from repro.session import BUILTIN_STRATEGIES, SemanticsStrategy, Session


def _reformulate(query, dependencies, semantics, **options):
    """Session.reformulate's C&B result for *query* under *dependencies*."""
    return Session(dependencies=dependencies).reformulate(query, semantics, **options)


class TestCandidates:
    def test_only_safe_subqueries(self):
        plan = parse_query("Q(X,Y) :- p(X,Z), r(Z,Y), s(Z)")
        candidates = list(iter_subqueries(plan))
        for candidate in candidates:
            covered = {v for atom in candidate.body for v in atom.variables()}
            assert set(plan.head_variables()) <= covered
        # {p, r}, {p, r, s} are the only safe subsets.
        assert len(candidates) == 2

    def test_sizes_increase(self):
        plan = parse_query("Q(X) :- p(X,Y), r(X), s(X)")
        sizes = [len(c.body) for c in iter_subqueries(plan)]
        assert sizes == sorted(sizes)
        assert sizes[0] == 1 and sizes[-1] == 3

    def test_exclude_full_and_max_size(self):
        plan = parse_query("Q(X) :- p(X,Y), r(X), s(X)")
        assert all(
            len(c.body) < 3 for c in iter_subqueries(plan, include_full=False)
        )
        assert all(len(c.body) <= 2 for c in iter_subqueries(plan, max_size=2))

    def test_count_candidates(self):
        plan = parse_query("Q(X) :- p(X,Y), r(X), s(X)")
        assert count_subquery_candidates(plan) == 7


class TestSigmaMinimality:
    def test_single_atom_query_minimal(self, ex41):
        assert is_sigma_minimal(ex41.q4, ex41.dependencies, Semantics.BAG)

    def test_q3_not_sigma_minimal_under_bag(self, ex41):
        # Dropping s or t from Q3 keeps bag equivalence under Σ (the chase
        # regenerates them), so Q3 is not Σ-minimal.
        assert not is_sigma_minimal(ex41.q3, ex41.dependencies, Semantics.BAG)

    def test_q1_not_sigma_minimal_under_set(self, ex41):
        assert not is_sigma_minimal(ex41.q1, ex41.dependencies, Semantics.SET)

    def test_minimal_without_dependencies(self):
        query = parse_query("Q(X) :- p(X,Y), r(Y)")
        assert is_sigma_minimal(query, [], Semantics.SET)
        redundant = parse_query("Q(X) :- p(X,Y), p(X,Z)")
        assert not is_sigma_minimal(redundant, [], Semantics.SET)

    @pytest.mark.parametrize("atoms", (6, 8))
    def test_redundant_star_stops_at_the_identity(self, atoms):
        # n same-predicate atoms sharing only the head variable have nⁿ
        # endomorphisms; dropping one atom under the identity already
        # answers, so none of them may be enumerated first.
        query = parse_query(
            "Q(X) :- " + ", ".join(f"e(X,Y{i})" for i in range(atoms))
        )
        started = time.perf_counter()
        assert not is_sigma_minimal(query, [], Semantics.SET)
        assert time.perf_counter() - started < 1.0

    def test_aggregate_minimality_uses_core(self, ex41):
        minimal = parse_aggregate_query("Q(X, max(Y)) :- p(X,Y)")
        redundant = parse_aggregate_query("Q(X, max(Y)) :- p(X,Y), r(X)")
        assert is_sigma_minimal_aggregate(minimal, ex41.dependencies)
        assert not is_sigma_minimal_aggregate(redundant, ex41.dependencies)


class TestCBOnExample41:
    def test_set_cb_reformulation_space(self, ex41):
        result = _reformulate(ex41.q4, ex41.dependencies, "set", check_sigma_minimality=False)
        # All four of the paper's queries are equivalent reformulations under set semantics.
        for query in (ex41.q1, ex41.q2, ex41.q3, ex41.q4):
            assert result.contains_isomorphic(query)

    def test_bag_cb_excludes_q1_and_q2(self, ex41):
        result = _reformulate(ex41.q4, ex41.dependencies, "bag", check_sigma_minimality=False)
        assert result.contains_isomorphic(ex41.q3)
        assert result.contains_isomorphic(ex41.q4)
        assert not result.contains_isomorphic(ex41.q1)
        assert not result.contains_isomorphic(ex41.q2)

    def test_bag_set_cb_excludes_q1_keeps_q2(self, ex41):
        result = _reformulate(ex41.q4, ex41.dependencies, "bag-set", check_sigma_minimality=False)
        assert result.contains_isomorphic(ex41.q2)
        assert result.contains_isomorphic(ex41.q3)
        assert not result.contains_isomorphic(ex41.q1)

    def test_every_output_is_equivalent(self, ex41):
        for semantics in ("set", "bag", "bag-set"):
            result = _reformulate(
                ex41.q4, ex41.dependencies, semantics, check_sigma_minimality=False
            )
            for reformulation in result.reformulations:
                assert decide_equivalence(
                    reformulation, ex41.q4, ex41.dependencies, semantics
                ).equivalent

    def test_minimal_reformulations_are_sigma_minimal(self, ex41):
        result = _reformulate(ex41.q4, ex41.dependencies, "bag")
        assert result.minimal_reformulations
        for reformulation in result.minimal_reformulations:
            assert is_sigma_minimal(reformulation, ex41.dependencies, Semantics.BAG)

    def test_naive_bag_cb_is_unsound(self, ex41):
        # Section 4.1: the naive extension accepts reformulations that are not
        # bag equivalent to the input query.
        naive = naive_bag_c_and_b(ex41.q4, ex41.dependencies)
        unsound = [
            query
            for query in naive.reformulations
            if not decide_equivalence(query, ex41.q4, ex41.dependencies, "bag")
        ]
        assert unsound, "the naive algorithm should accept unsound reformulations"
        # The sound Bag-C&B accepts none of those.
        sound = _reformulate(ex41.q4, ex41.dependencies, "bag", check_sigma_minimality=False)
        for query in sound.reformulations:
            assert decide_equivalence(query, ex41.q4, ex41.dependencies, "bag")

    def test_result_reporting(self, ex41):
        result = _reformulate(ex41.q4, ex41.dependencies, "bag")
        assert result.candidates_examined > 0
        assert len(result) == len(result.minimal_reformulations)
        assert "universal plan" in str(result)
        assert list(iter(result)) == result.minimal_reformulations


class TestCBOnWorkloads:
    def test_orders_set_cb_removes_foreign_key_joins(self, orders):
        result = _reformulate(
            orders.query, orders.dependencies, "set", check_sigma_minimality=False
        )
        bodies = sorted(len(q.body) for q in result.reformulations)
        # The single-subgoal orders-only query is an equivalent reformulation.
        assert bodies[0] == 1
        single = next(q for q in result.reformulations if len(q.body) == 1)
        assert single.body[0].predicate == "orders"

    def test_orders_bag_cb_also_removes_joins(self, orders):
        # customer and product are set valued with keys, so the lookups are
        # multiplicity preserving and may be dropped under bag semantics too.
        result = _reformulate(
            orders.query, orders.dependencies, "bag", check_sigma_minimality=False
        )
        assert any(len(q.body) == 1 for q in result.reformulations)

    def test_chain_workload_cb_shortens_query(self, chain3):
        result = _reformulate(
            chain3.query, chain3.dependencies, "set", check_sigma_minimality=False
        )
        assert any(len(q.body) < len(chain3.query.body) for q in result.reformulations)

    def test_chase_and_backchase_generic_entry(self, orders):
        result = chase_and_backchase(
            orders.query, orders.dependencies, Semantics.BAG_SET,
            check_sigma_minimality=False,
        )
        assert result.semantics is Semantics.BAG_SET
        assert result.reformulations


class TestAggregateCB:
    def test_max_min_cb(self, ex41):
        query = parse_aggregate_query("Q(X, max(Y)) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)")
        result = max_min_c_and_b(query, ex41.dependencies, check_sigma_minimality=False)
        # The core can be reformulated down to p(X,Y) alone under set semantics.
        assert any(len(q.body) == 1 for q in result.reformulations)
        assert all(q.aggregate == query.aggregate for q in result.reformulations)

    def test_sum_count_cb(self, ex41):
        query = parse_aggregate_query("Q(X, sum(Y)) :- p(X,Y), t(X,Y,W), s(X,Z), r(X)")
        result = sum_count_c_and_b(query, ex41.dependencies, check_sigma_minimality=False)
        assert any(len(q.body) == 1 for q in result.reformulations)
        # Every output is equivalent as an aggregate query under Σ.
        from repro.equivalence import equivalent_aggregate_queries_under_dependencies

        for reformulation in result.reformulations:
            assert equivalent_aggregate_queries_under_dependencies(
                reformulation, query, ex41.dependencies
            )

    def test_dispatch_by_function(self, ex41):
        sum_query = parse_aggregate_query("Q(X, sum(Y)) :- p(X,Y), t(X,Y,W)")
        max_query = parse_aggregate_query("Q(X, max(Y)) :- p(X,Y), t(X,Y,W)")
        assert reformulate_aggregate_query(
            sum_query, ex41.dependencies
        ).core_result.semantics is Semantics.BAG_SET
        assert reformulate_aggregate_query(
            max_query, ex41.dependencies
        ).core_result.semantics is Semantics.SET

    def test_result_reporting(self, ex41):
        query = parse_aggregate_query("Q(X, min(Y)) :- p(X,Y), t(X,Y,W)")
        result = max_min_c_and_b(query, ex41.dependencies)
        assert len(result) == len(result.minimal_reformulations)
        assert "aggregate reformulation" in str(result)


class TestSigmaMinimize:
    """Greedy Σ-minimization (the subgoal-removal half of Definition 3.1)."""

    def test_q1_minimizes_to_q4_under_set_semantics(self, ex41):
        from repro.reformulation import sigma_minimize

        minimized = sigma_minimize(ex41.q1, ex41.dependencies, Semantics.SET)
        assert are_isomorphic(minimized, ex41.q4)

    def test_q3_minimizes_to_q4_under_bag_semantics(self, ex41):
        from repro.reformulation import sigma_minimize

        minimized = sigma_minimize(ex41.q3, ex41.dependencies, Semantics.BAG)
        assert are_isomorphic(minimized, ex41.q4)

    def test_q1_keeps_u_and_r_under_bag_set_semantics(self, ex41):
        from repro.reformulation import sigma_minimize

        minimized = sigma_minimize(ex41.q1, ex41.dependencies, Semantics.BAG_SET)
        # The u-subgoal cannot be dropped (its multiplicity contribution is
        # unconstrained), so the minimized query still mentions u.
        assert "u" in minimized.predicates()
        assert decide_equivalence(
            minimized, ex41.q1, ex41.dependencies, "bag-set"
        ).equivalent

    def test_minimized_query_is_sigma_minimal(self, ex41):
        from repro.reformulation import sigma_minimize

        minimized = sigma_minimize(ex41.q2, ex41.dependencies, Semantics.BAG_SET)
        assert is_sigma_minimal(minimized, ex41.dependencies, Semantics.BAG_SET)

    def test_no_dependencies_reduces_to_classical_minimization(self):
        from repro.core import minimize
        from repro.reformulation import sigma_minimize

        query = parse_query("Q(X) :- p(X,Y), p(X,Z), r(Y)")
        assert are_isomorphic(sigma_minimize(query, [], Semantics.SET), minimize(query))


# --------------------------------------------------------------------------- #
# The backchase verdict table (chase-free rules for the built-in strategies)
# --------------------------------------------------------------------------- #
SEMANTICS = ("set", "bag", "bag-set")


class _ExhaustiveStrategy(SemanticsStrategy):
    """A third-party strategy wrapping a built-in one.

    Its C&B takes the chase-every-candidate path, so it is the reference the
    verdict table is compared against.  It keeps the wrapped strategy's name
    and cache token, so a session built with it can share chase-cache
    entries with a built-in session.
    """

    def __init__(self, inner: SemanticsStrategy):
        self.inner = inner
        self.name = inner.name

    def cache_token(self):
        return self.inner.cache_token()

    def chase(self, query, dependencies, max_steps=DEFAULT_MAX_STEPS):
        return self.inner.chase(query, dependencies, max_steps)

    def chase_with_plans(self, query, dependencies, max_steps, plan_cache):
        return self.inner.chase_with_plans(query, dependencies, max_steps, plan_cache)

    def equivalent_chased(self, chased1, chased2, dependencies):
        return self.inner.equivalent_chased(chased1, chased2, dependencies)


def _exhaustive_session(dependencies, max_steps=DEFAULT_MAX_STEPS, cache=None):
    session = Session(dependencies=dependencies, max_steps=max_steps, cache=cache)
    for strategy in BUILTIN_STRATEGIES:
        session.register_semantics(_ExhaustiveStrategy(strategy()), replace=True)
    return session


def _outcome(session, query, semantics, **kwargs):
    try:
        result = session.reformulate(query, semantics, **kwargs)
    except ReproError as error:
        return type(error).__name__
    return (
        result.universal_plan,
        result.reformulations,
        result.minimal_reformulations,
        result.candidates_examined,
    )


def _differences(dependencies, queries, max_steps=DEFAULT_MAX_STEPS, **kwargs):
    """Every (query, semantics) whose built-in C&B differs from the exhaustive one.

    The two sessions share one chase cache, cleared before each query, so
    the exhaustive run chases only what the built-in run skipped.
    """
    fast = Session(dependencies=dependencies, max_steps=max_steps)
    exhaustive = _exhaustive_session(dependencies, max_steps, cache=fast.cache)
    differences = []
    for query in queries:
        for semantics in SEMANTICS:
            fast.clear_cache()
            got = _outcome(fast, query, semantics, **kwargs)
            expected = _outcome(exhaustive, query, semantics, **kwargs)
            if got != expected:
                differences.append((str(query), semantics, got, expected))
    return differences


def _paper_inputs():
    ex41 = example_4_1()
    yield "example-4.1", ex41.dependencies, [
        ex41.q1, ex41.q2, ex41.q3, ex41.q4, ex41.q5, ex41.q7, ex41.q8,
    ]
    for workload in (orders_workload(), chain_workload(5), chain_workload(6), star_workload(6)):
        yield workload.name, workload.dependencies, [workload.query]


def _spy(monkeypatch, session, method):
    """Record the first argument of every call to *session*.<method>."""
    calls = []
    original = getattr(session, method)

    def recording(query, *args, **kwargs):
        calls.append(query)
        return original(query, *args, **kwargs)

    monkeypatch.setattr(session, method, recording)
    return calls


class TestVerdictTableDifferential:
    """The chase-free rules change no output of C&B."""

    @pytest.mark.parametrize(
        "dependencies, queries",
        [pytest.param(d, q, id=name) for name, d, q in _paper_inputs()],
    )
    def test_paper_workloads(self, dependencies, queries):
        assert _differences(dependencies, queries) == []

    def test_seed0_fuzz_campaign(self):
        cases = generate_cases(0, 300)
        differences = []
        for block in range(0, len(cases), 10):
            group = cases[block:block + 10]
            queries = [q for case in group for q in (case.query, case.other)]
            differences += _differences(
                group[0].dependencies, queries, max_steps=group[0].max_steps
            )
        assert differences == []

    def test_max_candidate_size_is_respected(self):
        star = star_workload(6)
        assert _differences(star.dependencies, [star.query], max_candidate_size=2) == []
        result = Session(dependencies=star.dependencies).reformulate(
            star.query, "set", max_candidate_size=2
        )
        assert result.candidates_examined == 7 + 21
        assert len(result.reformulations) == 7
        assert all(len(q.body) <= 2 for q in result.reformulations)


class TestVerdictTableRules:
    def test_refutation_skips_star_candidates_without_hub(self, monkeypatch):
        star = star_workload(6)
        session = Session(dependencies=star.dependencies)
        chased = _spy(monkeypatch, session, "chase")
        result = session.reformulate(star.query, "bag", check_sigma_minimality=False)
        # 127 candidates; the 63 without hub cannot regain it, every spoke
        # tgd needs hub in its premise.
        assert result.candidates_examined == 127
        assert result.candidates_chased == 64
        assert all("hub" in query.predicates() for query in chased)
        stats = session.cache_stats()
        assert stats.hits + stats.misses == 1 + 64

    @pytest.mark.parametrize(
        "workload, semantics, chased, reformulations",
        [
            ("star6", "set", 1, 64),
            ("star6", "bag", 64, 64),
            ("star6", "bag-set", 64, 64),
            ("chain6", "set", 1, 32),
            ("chain6", "bag", 32, 6),
            ("chain6", "bag-set", 32, 6),
        ],
    )
    def test_upward_closure_only_under_set_semantics(
        self, monkeypatch, workload, semantics, chased, reformulations
    ):
        built = star_workload(6) if workload == "star6" else chain_workload(6)
        session = Session(dependencies=built.dependencies)
        decided = _spy(monkeypatch, session, "decide")
        result = session.reformulate(built.query, semantics)
        assert result.candidates_chased == chased
        assert len(result.reformulations) == reformulations
        # Every Σ-minimality probe here drops an atom under the identity, so
        # the table answers all of them: no decide, no further chase lookup.
        assert decided == []
        stats = session.cache_stats()
        assert stats.hits + stats.misses == 1 + chased

    def test_probes_outside_the_plan_fall_back_to_decide(self, monkeypatch):
        # Collapsing Y, Z, W yields shortened queries with a repeated
        # e(X,Y), which is no sub-multiset of the plan's body.
        query = parse_query("Q(X) :- e(X,Y), e(X,Z), e(X,W)")
        session = Session(dependencies=[])
        decided = _spy(monkeypatch, session, "decide")
        result = session.reformulate(query, "bag")
        assert result.minimal_reformulations == [query]
        assert decided
        assert all(
            len(set(shortened.body)) < len(shortened.body) for shortened in decided
        )
        assert _differences([], [query]) == []

    def test_third_party_strategy_chases_every_candidate(self, monkeypatch):
        star = star_workload(6)
        session = _exhaustive_session(star.dependencies)
        decided = _spy(monkeypatch, session, "decide")
        result = session.reformulate(star.query, "bag")
        assert result.candidates_chased == result.candidates_examined == 127
        assert decided

    def test_isomorphism_dedup_compares_within_buckets(self, monkeypatch):
        calls = []

        def counting(q1, q2):
            calls.append((q1, q2))
            return are_isomorphic(q1, q2)

        monkeypatch.setattr(cb_module, "are_isomorphic", counting)
        star = star_workload(6)
        result = Session(dependencies=star.dependencies).reformulate(star.query, "set")
        # 64 reformulations, no two with the same predicates.
        assert len(result.reformulations) == 64
        assert calls == []
        query = parse_query("Q(X) :- e(X,Y), e(X,Z)")
        result = Session(dependencies=[]).reformulate(query, "set")
        assert len(calls) == 1
        assert len(result.reformulations) == 2
