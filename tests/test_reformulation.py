"""Tests for candidate enumeration, Σ-minimality, and the C&B family of
reformulation algorithms (Section 6.3, Appendix A)."""

from __future__ import annotations

import random
import time
from itertools import chain, product

import pytest

import repro.reformulation.cb as cb_module
from repro.chase.set_chase import DEFAULT_MAX_STEPS
from repro.chase.steps import ChaseFailedError
from repro.core import are_isomorphic
from repro.core.minimization import drop_atom_if_safe
from repro.datalog import parse_aggregate_query, parse_dependencies, parse_query
from repro.dependencies import DependencySet
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
from repro.reformulation.reference import chase_and_backchase_reference
from repro.semantics import Semantics
from repro.session import Session


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
# The backchase verdict table (chase-free rules)
# --------------------------------------------------------------------------- #
SEMANTICS = ("set", "bag", "bag-set")


def _outcome(reformulate, query, semantics, **kwargs):
    try:
        result = reformulate(query, semantics, **kwargs)
    except ReproError as error:
        return type(error).__name__
    return (
        result.universal_plan,
        result.reformulations,
        result.minimal_reformulations,
        result.candidates_examined,
    )


def _differences(dependencies, queries, max_steps=DEFAULT_MAX_STEPS, **kwargs):
    """Every (query, semantics) whose C&B differs from the chase-every-candidate reference.

    Both run on one session, whose chase cache is cleared before each query,
    so the reference chases only what C&B skipped.
    """
    session = Session(dependencies=dependencies, max_steps=max_steps)

    def reference(query, semantics, **options):
        return chase_and_backchase_reference(session, query, semantics, **options)

    differences = []
    for query in queries:
        for semantics in SEMANTICS:
            session.clear_cache()
            got = _outcome(session.reformulate, query, semantics, **kwargs)
            expected = _outcome(reference, query, semantics, **kwargs)
            if got != expected:
                differences.append((str(query), semantics, got, expected))
    return differences


def _campaign(seed, max_plan_atoms=None):
    """The differences over the first 300 fuzz cases of *seed*, and the queries compared.

    A query whose chase fails under some semantics is kept: its error kind
    is compared.
    """
    cases = generate_cases(seed, 300)
    differences = []
    kept = 0
    for block in range(0, len(cases), 10):
        group = cases[block:block + 10]
        dependencies, max_steps = group[0].dependencies, group[0].max_steps
        queries = [q for case in group for q in (case.query, case.other)]
        if max_plan_atoms is not None:
            session = Session(dependencies=dependencies, max_steps=max_steps)
            queries = [
                q for q in queries
                if _largest_plan(session, q) <= max_plan_atoms
            ]
        kept += len(queries)
        differences += _differences(dependencies, queries, max_steps=max_steps)
    return differences, kept


def _largest_plan(session, query):
    try:
        return max(len(session.chase(query, semantics).query.body) for semantics in SEMANTICS)
    except ReproError:
        return 0


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
        differences, kept = _campaign(0)
        assert (differences, kept) == ([], 600)

    def test_seed1_fuzz_campaign(self):
        # The exhaustive reference chases every one of U's 2^|U| - 1
        # candidates, so queries whose universal plan has more than 8 atoms
        # under some semantics are left out.
        differences, kept = _campaign(1, max_plan_atoms=8)
        assert (differences, kept) == ([], 579)

    @pytest.mark.nightly
    @pytest.mark.parametrize("seed, kept", [(2, 600), (3, 591), (4, 592), (5, 600)])
    def test_fuzz_campaign_at_the_8_atom_cap(self, seed, kept):
        assert _campaign(seed, max_plan_atoms=8) == ([], kept)

    def test_max_candidate_size_is_respected(self):
        star = star_workload(6)
        assert _differences(star.dependencies, [star.query], max_candidate_size=2) == []
        result = Session(dependencies=star.dependencies).reformulate(
            star.query, "set", max_candidate_size=2
        )
        assert result.candidates_examined == 7 + 21
        assert len(result.reformulations) == 7
        assert all(len(q.body) <= 2 for q in result.reformulations)


def _star6_with_a_constant():
    """star6 with one more tgd, which mentions a constant.

    A constant in Σ fails gate 2 of the assignment-fixing rule, so under bag
    and bag-set semantics no spoke tgd is sound in every state and rule 4
    accepts nothing; the new tgd's premise predicates are not in U, so it
    changes no chase of a candidate.
    """
    star = star_workload(6)
    return DependencySet(
        [*star.dependencies, *parse_dependencies("p(X,Y) & w(X) -> f(X, 1)")],
        set_valued_predicates=star.dependencies.set_valued_predicates,
    ), star.query


class TestVerdictTableRules:
    def test_refutation_skips_star_candidates_without_hub(self, monkeypatch):
        star = star_workload(6)
        session = Session(dependencies=star.dependencies)
        chased = _spy(monkeypatch, session, "chase")
        result = session.reformulate(star.query, "bag", check_sigma_minimality=False)
        # 127 candidates; the 63 without hub cannot regain it, every spoke
        # tgd needs hub in its premise, and the 64 with it rebuild U by
        # spoke steps (rule 4).
        assert result.candidates_examined == 127
        assert result.candidates_chased == 0
        assert all("hub" in query.predicates() for query in chased)
        stats = session.cache_stats()
        assert stats.hits + stats.misses == 1 + 0

    @pytest.mark.parametrize("semantics", ("bag", "bag-set"))
    def test_refutation_alone_when_a_constant_gates_rederivation_off(
        self, monkeypatch, semantics
    ):
        sigma, query = _star6_with_a_constant()
        session = Session(dependencies=sigma)
        chased = _spy(monkeypatch, session, "chase")
        result = session.reformulate(query, semantics, check_sigma_minimality=False)
        # The 64 candidates with hub are chased, but for the full body: that
        # is U itself, which rule 4 accepts after no step.
        assert result.candidates_examined == 127
        assert result.candidates_chased == 63
        assert all("hub" in candidate.predicates() for candidate in chased)
        assert len(result.universal_plan.body) == 7
        assert all(len(candidate.body) < 7 for candidate in chased)
        assert len(result.reformulations) == 64
        stats = session.cache_stats()
        assert stats.hits + stats.misses == 1 + 63
        assert _differences(sigma, [query]) == []

    def test_upward_closure_settles_supersets_of_a_chased_acceptance(self, monkeypatch):
        # No tgd, so rule 4 accepts only the full body: each singleton is
        # chased and accepted under set semantics, and the pairs contain one.
        query = parse_query("Q(X) :- e(X,Y), e(X,Z), e(X,W)")
        session = Session(dependencies=[])
        chased = _spy(monkeypatch, session, "chase")
        result = session.reformulate(query, "set", check_sigma_minimality=False)
        assert (result.candidates_examined, result.candidates_chased) == (7, 3)
        assert [len(q.body) for q in chased] == [3, 1, 1, 1]
        assert len(result.reformulations) == 3
        # Bag semantics has no upward closure: the pairs are chased too.
        result = session.reformulate(query, "bag", check_sigma_minimality=False)
        assert (result.candidates_examined, result.candidates_chased) == (7, 6)

    @pytest.mark.parametrize(
        "workload, semantics, chased, reformulations",
        [
            ("star6", "set", 0, 64),
            ("star6", "bag", 0, 64),
            ("star6", "bag-set", 0, 64),
            ("chain6", "set", 0, 32),
            ("chain6", "bag", 0, 6),
            ("chain6", "bag-set", 0, 6),
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

    def test_rederivation_needs_distinct_existential_images(self):
        # The chase step of p(X) -> q(X,Z1,Z2) on p(X) adds q(X,Z1,Z2), two
        # fresh variables, so it cannot rebuild q(X,V,V): Q(X) :- p(X) is no
        # reformulation, though sending Z1 and Z2 onto V would reach U.
        sigma = parse_dependencies("p(X) -> q(X,Z1,Z2)")
        query = parse_query("Q(X) :- p(X), q(X,V,V)")
        result = Session(dependencies=sigma).reformulate(query, "set")
        assert result.universal_plan == query
        assert result.reformulations == [query]
        assert result.candidates_chased == 1
        assert _differences(sigma, [query]) == []

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
        # The reference C&B: every candidate chased, every probe decided.
        star = star_workload(6)
        session = Session(dependencies=star.dependencies)
        chased = _spy(monkeypatch, session, "chase")
        decided = _spy(monkeypatch, session, "decide")
        result = chase_and_backchase_reference(session, star.query, "bag")
        assert result.candidates_chased == result.candidates_examined == 127
        assert len(chased) >= 1 + 127
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


def _keyed(text, set_valued):
    return DependencySet(parse_dependencies(text).dependencies, set_valued_predicates=set_valued)


class TestRuleFiveRegime:
    """Each regime condition of rule 5 that a counterexample shows necessary.

    The inputs fall outside the regime, so their candidates are chased.
    Every relation a tgd concludes is set valued, so that the tgds are sound
    in every state under bag as well as bag-set semantics.
    """

    @pytest.mark.parametrize("semantics", ("bag", "bag-set"))
    def test_one_conclusion_atom(self, semantics):
        # (b): the chase of a(X), b(X) adds r, s and r, t with two fresh
        # variables, and the key on r merges them, so the result is U.  A
        # guided step needs its existential image fresh, and after either
        # tgd's step the other's image W_1 is not, so rule 4's closure
        # cannot rebuild U.
        sigma = _keyed(
            """
            a(X) -> r(X,Z) & s(X,Z)
            b(X) -> r(X,W) & t(X,W)
            r(X,Y1) & r(X,Y2) -> Y1 = Y2
            s(X,Y1) & s(X,Y2) -> Y1 = Y2
            t(X,Y1) & t(X,Y2) -> Y1 = Y2
            """,
            ["r", "s", "t"],
        )
        query = parse_query("Q(X) :- a(X), b(X)")
        result = Session(dependencies=sigma).reformulate(query, semantics)
        assert len(result.reformulations) == 8
        assert result.candidates_chased > 0
        assert _differences(sigma, [query]) == []

    @pytest.mark.parametrize("semantics", ("bag", "bag-set"))
    @pytest.mark.parametrize(
        "second_tgd, text, count",
        [
            # U holds p twice, so each candidate with a p atom is chased
            # whatever the regime.
            pytest.param("", "Q(X) :- p(X,Y), p(X,Y2)", 3, id="p-twice"),
            # p and q once each: the regime alone keeps rule 5 off p, q.
            pytest.param(
                "q(X,Y) -> r(X,Y,Z)", "Q(X) :- p(X,Y), q(X,Y2)", 4, id="p-and-q"
            ),
        ],
    )
    def test_fd_determinants_hold_the_universal_positions(
        self, semantics, second_tgd, text, count
    ):
        # (c): the fd's determinant X leaves out the tgds' universal Y, so
        # the chase of the two premise atoms equates the two fresh Z's,
        # which no guided step can do.
        sigma = _keyed(
            f"""
            p(X,Y) -> r(X,Y,Z)
            {second_tgd}
            r(X,Y1,Z1) & r(X,Y2,Z2) -> Z1 = Z2
            """,
            ["r"],
        )
        query = parse_query(text)
        result = Session(dependencies=sigma).reformulate(query, semantics)
        assert len(result.reformulations) == count
        assert result.candidates_chased > 0
        assert _differences(sigma, [query]) == []

    def test_random_key_foreign_key_schemas(self, monkeypatch):
        # The fuzz campaigns draw from three predicates, so their universal
        # plans repeat predicates and rule 5 settles almost none of their
        # candidates; these schemas put every candidate in its reach.
        failed_closures = []
        rederives = cb_module._VerdictTable._rederives

        def spy(table, mask):
            reached = rederives(table, mask)
            if not reached:
                failed_closures.append(mask)
            return reached

        monkeypatch.setattr(cb_module._VerdictTable, "_rederives", spy)
        rng = random.Random(0)
        differences, refuted = [], 0
        for _ in range(100):
            sigma, query = _key_foreign_key_case(rng)
            differences += _differences(sigma, [query])
            for semantics in ("bag", "bag-set"):
                failed_closures.clear()
                result = Session(dependencies=sigma).reformulate(query, semantics)
                assert result.candidates_chased == 0
                refuted += len(failed_closures)
        # No candidate is chased, so every failed closure is a rule-5
        # refutation.
        assert (differences, refuted) == ([], 1856)

    @pytest.mark.parametrize("semantics", ("bag", "bag-set"))
    def test_one_closure_per_candidate_when_predicates_repeat(self, monkeypatch, semantics):
        # Σ = ∅ puts the query in the regime, but every candidate repeats e,
        # so rule 5 settles none of them: each costs rule 4's one closure
        # and is chased.  A k-atom candidate has up to 8^k head-fixing maps
        # into U, and rule 5 searches none of them.
        query = parse_query("Q(X) :- " + ", ".join(f"e(X,Y{i})" for i in range(1, 9)))
        closures = []
        rederives = cb_module._VerdictTable._rederives
        monkeypatch.setattr(
            cb_module._VerdictTable,
            "_rederives",
            lambda table, mask: closures.append(mask) or rederives(table, mask),
        )
        result = Session(dependencies=[]).reformulate(
            query, semantics, check_sigma_minimality=False
        )
        assert (result.candidates_examined, result.candidates_chased) == (255, 254)
        assert sorted(closures) == list(range(1, 256))
        assert len(result.reformulations) == 1


def _key_foreign_key_case(rng):
    """A random schema in rule 5's regime, and a query over it.

    Relations r0 … r{n-1} of arity 2 or 3 are set valued and keyed on their
    first position.  Each r_j with j > 0 is the target of one foreign key,
    from a non-key position of an earlier relation, so U repeats no
    predicate.  The query starts at r0 and follows foreign keys at random;
    its non-key positions take fresh variables, or now and then one already
    used.
    """
    n = rng.randint(4, 6)
    arity = [rng.choice((2, 3)) for _ in range(n)]
    lines = []
    for i in range(n):
        for p in range(1, arity[i]):
            left = ["K"] + [f"A{q}" if q != p else "V1" for q in range(1, arity[i])]
            right = ["K"] + [f"B{q}" if q != p else "V2" for q in range(1, arity[i])]
            lines.append(f"r{i}({','.join(left)}) & r{i}({','.join(right)}) -> V1 = V2")
    foreign_keys = {}
    for j in range(1, n):
        i = rng.randrange(j)
        p = rng.randrange(1, arity[i])
        source = ",".join(f"X{q}" for q in range(arity[i]))
        target = ",".join([f"X{p}"] + [f"Z{q}" for q in range(1, arity[j])])
        lines.append(f"r{i}({source}) -> r{j}({target})")
        foreign_keys.setdefault(i, []).append((p, j))
    sigma = _keyed("\n".join(lines), [f"r{i}" for i in range(n)])
    fresh = (f"Y{k}" for k in range(100))
    body = {0: ["X"] + [next(fresh) for _ in range(1, arity[0])]}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for p, j in foreign_keys.get(i, ()):
            if rng.random() < 0.5:
                used = [term for terms in body.values() for term in terms]
                body[j] = [body[i][p]] + [
                    rng.choice(used) if rng.random() < 0.2 else next(fresh)
                    for _ in range(1, arity[j])
                ]
                frontier.append(j)
    atoms = ", ".join(f"r{i}({','.join(terms)})" for i, terms in body.items())
    return sigma, parse_query(f"Q(X) :- {atoms}")


def _exhaustively_sigma_minimal(session, query, semantics):
    """Definition 3.1 by brute force, for queries with at most 5 variables.

    Every map from the query's variables to its variables that fixes the
    head variables is applied, the identity first, each atom of the result
    is dropped in turn, and every safe shortened query, once per renaming,
    is decided against the query.
    A merge can make a shortened query unsatisfiable under Σ (its chase
    fails); it then returns nothing on every instance, so it is not
    equivalent to the query, whose own chase succeeded.
    """
    variables = query.all_variables()
    head = set(query.head_variables())
    free = [variable for variable in variables if variable not in head]
    seen = set()
    for images in chain([free], product(variables, repeat=len(free))):
        substituted = query.substitute(dict(zip(free, images)))
        for index in range(len(substituted.body)):
            shortened = drop_atom_if_safe(substituted, index)
            if shortened is None or shortened.structural_key() in seen:
                continue
            seen.add(shortened.structural_key())
            try:
                equivalent = session.decide(shortened, query, semantics)
            except ChaseFailedError:
                continue
            if equivalent:
                return False
    return True


def _definition_3_1_disagreements(dependencies, queries, max_steps=DEFAULT_MAX_STEPS):
    """Reformulations whose C&B minimality verdict differs from the brute force.

    Returns the disagreements and the number of reformulations checked;
    those with more than 5 variables are skipped.
    """
    session = Session(dependencies=dependencies, max_steps=max_steps)
    disagreements = []
    checked = 0
    for query in queries:
        for semantics in SEMANTICS:
            try:
                result = session.reformulate(query, semantics)
            except ReproError:
                continue
            minimal = {id(candidate) for candidate in result.minimal_reformulations}
            for candidate in result.reformulations:
                if len(candidate.all_variables()) > 5:
                    continue
                checked += 1
                expected = _exhaustively_sigma_minimal(session, candidate, semantics)
                if (id(candidate) in minimal) != expected:
                    disagreements.append((str(candidate), semantics, expected))
    return disagreements, checked


class TestDefinition31Reference:
    """C&B's Σ-minimality filter against an exhaustive Definition 3.1."""

    @pytest.mark.parametrize(
        "dependencies, queries",
        [pytest.param(d, q, id=name) for name, d, q in _paper_inputs()],
    )
    def test_paper_workloads(self, dependencies, queries):
        disagreements, checked = _definition_3_1_disagreements(dependencies, queries)
        assert disagreements == []
        assert checked

    def test_seed0_fuzz_campaign(self):
        cases = generate_cases(0, 300)
        disagreements, checked = [], 0
        for block in range(0, len(cases), 10):
            group = cases[block:block + 10]
            found, count = _definition_3_1_disagreements(
                group[0].dependencies,
                [q for case in group for q in (case.query, case.other)],
                group[0].max_steps,
            )
            disagreements += found
            checked += count
        assert (disagreements, checked) == ([], 3123)

    def test_reference_finds_an_egd_merge_the_endomorphisms_miss(self):
        # The documented gap of is_sigma_minimal: Z ↦ Y is no endomorphism
        # of Q, but under the key it merges the two r atoms.
        sigma = parse_dependencies("r(X,Y) & r(X,Z) -> Y = Z")
        query = parse_query("Q(X) :- r(X,Y), r(X,Z), s(Y), t(Z)")
        session = Session(dependencies=sigma)
        for semantics in ("set", "bag-set"):
            assert is_sigma_minimal(query, sigma, semantics)
            assert not _exhaustively_sigma_minimal(session, query, semantics)
