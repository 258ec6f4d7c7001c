"""Tests for the Σ-aware equivalence tests (Theorems 2.2, 6.1, 6.2, 6.3,
Propositions 6.1/6.2) and the decision façade."""

from __future__ import annotations

import pytest

from repro.datalog import parse_aggregate_query, parse_dependencies, parse_query
from repro.equivalence import (
    contained_under_dependencies_set,
    decide_all,
    decide_equivalence,
    equivalent_aggregate_queries,
    equivalent_aggregate_queries_under_dependencies,
    equivalent_under_dependencies,
)
from repro.semantics import Semantics
from repro.session import Session


def _decide(q1, q2, dependencies, semantics):
    """Session.decide's verdict on one pair under *dependencies*."""
    return Session(dependencies=dependencies).decide(q1, q2, semantics).equivalent


class TestSetEquivalenceUnderDependencies:
    def test_example_4_1_q1_equiv_q4_set(self, ex41):
        assert _decide(ex41.q1, ex41.q4, ex41.dependencies, "set")

    def test_all_example_4_1_queries_set_equivalent(self, ex41):
        for query in (ex41.q2, ex41.q3):
            assert _decide(query, ex41.q4, ex41.dependencies, "set")

    def test_without_dependencies_not_equivalent(self, ex41):
        assert not _decide(ex41.q1, ex41.q4, [], "set")

    def test_containment_under_dependencies(self, ex41):
        assert contained_under_dependencies_set(ex41.q4, ex41.q1, ex41.dependencies)
        assert contained_under_dependencies_set(ex41.q1, ex41.q4, ex41.dependencies)

    def test_inequivalent_queries_stay_inequivalent(self, ex41):
        other = parse_query("Q(X) :- r(X)")
        assert not _decide(other, ex41.q4, ex41.dependencies, "set")


class TestBagEquivalenceUnderDependencies:
    def test_example_4_1_headline_result(self, ex41):
        # Q1 ≡Σ,S Q4 (above) but NOT ≡Σ,B and NOT ≡Σ,BS.
        assert not _decide(ex41.q1, ex41.q4, ex41.dependencies, "bag")
        assert not _decide(ex41.q1, ex41.q4, ex41.dependencies, "bag-set")

    def test_q3_bag_equivalent_to_q4(self, ex41):
        assert _decide(ex41.q3, ex41.q4, ex41.dependencies, "bag")

    def test_q2_bag_set_but_not_bag_equivalent_to_q4(self, ex41):
        assert _decide(ex41.q2, ex41.q4, ex41.dependencies, "bag-set")
        assert not _decide(ex41.q2, ex41.q4, ex41.dependencies, "bag")

    def test_example_4_9_q5_bag_equivalent_to_q3(self, ex41):
        # The duplicate s-subgoal is harmless because S is set enforced.
        assert _decide(ex41.q5, ex41.q3, ex41.dependencies, "bag")
        assert _decide(ex41.q5, ex41.q4, ex41.dependencies, "bag")

    def test_q7_not_bag_equivalent_to_q8(self, ex41):
        # Duplicate r-subgoal over a relation that may be a bag.
        assert not _decide(ex41.q7, ex41.q8, ex41.dependencies, "bag")
        assert _decide(ex41.q7, ex41.q8, ex41.dependencies, "bag-set")

    def test_proposition_6_1_implications(self, ex41):
        pairs = [
            (ex41.q1, ex41.q4),
            (ex41.q2, ex41.q4),
            (ex41.q3, ex41.q4),
            (ex41.q5, ex41.q3),
            (ex41.q7, ex41.q8),
        ]
        for q1, q2 in pairs:
            bag = _decide(q1, q2, ex41.dependencies, "bag")
            bag_set = _decide(q1, q2, ex41.dependencies, "bag-set")
            set_eq = _decide(q1, q2, ex41.dependencies, "set")
            assert not bag or bag_set
            assert not bag_set or set_eq

    def test_generic_dispatch(self, ex41):
        assert equivalent_under_dependencies(
            ex41.q3, ex41.q4, ex41.dependencies, "bag"
        )
        assert not equivalent_under_dependencies(
            ex41.q1, ex41.q4, ex41.dependencies, Semantics.BAG
        )

    def test_example_4_6_modified_chase_result_not_equivalent(self, ex46):
        # Example 4.6: Q' (the single extra t-subgoal) is NOT equivalent to Q
        # under Σ for bag or bag-set semantics; Q'' (Example 4.8) IS.
        assert not _decide(ex46.query, ex46.query_modified_chase, ex46.dependencies, "bag-set")
        assert not _decide(ex46.query, ex46.query_modified_chase, ex46.dependencies, "bag")
        assert _decide(ex46.query, ex46.query_traditional_chase, ex46.dependencies, "bag-set")
        assert _decide(ex46.query, ex46.query_traditional_chase, ex46.dependencies, "bag")

    def test_example_e_1_chase_result_not_bag_equivalent(self, exE1):
        assert not _decide(exE1.query, exE1.chased_query, exE1.dependencies, "bag")
        assert _decide(exE1.query, exE1.chased_query, exE1.dependencies, "bag-set")

    def test_example_e_2_chase_result_not_bag_set_equivalent(self, exE2):
        assert not _decide(exE2.query, exE2.chased_query, exE2.dependencies, "bag-set")
        assert _decide(exE2.query, exE2.chased_query, exE2.dependencies, "set")


class TestDecisionFacade:
    def test_verdict_carries_evidence(self, ex41):
        verdict = decide_equivalence(ex41.q1, ex41.q4, ex41.dependencies, "bag")
        assert not verdict
        assert verdict.semantics is Semantics.BAG
        assert verdict.chased_left.body and verdict.chased_right.body
        assert "≢" in str(verdict)

    def test_decide_all_implication_chain(self, ex41):
        verdicts = decide_all(ex41.q2, ex41.q4, ex41.dependencies)
        assert not verdicts[Semantics.BAG].equivalent
        assert verdicts[Semantics.BAG_SET].equivalent
        assert verdicts[Semantics.SET].equivalent

    def test_no_dependencies_defaults(self):
        q1 = parse_query("Q(X) :- p(X,Y)")
        q2 = parse_query("Q(A) :- p(A,B)")
        assert decide_equivalence(q1, q2).equivalent

    def test_string_semantics_accepted(self, ex41):
        assert decide_equivalence(ex41.q3, ex41.q4, ex41.dependencies, "bag").equivalent


class TestAggregateEquivalence:
    sigma = parse_dependencies(
        """
        p(X,Y) -> t(X,Y,W)
        t(X,Y,Z) & t(X,Y,W) -> Z = W
        """,
        set_valued=["t"],
    )

    def test_dependency_free_sum_requires_bag_set_equivalence(self):
        q1 = parse_aggregate_query("Q(X, sum(Y)) :- r(X,Y)")
        q2 = parse_aggregate_query("Q(X, sum(Y)) :- r(X,Y), r(X,Y)")
        q3 = parse_aggregate_query("Q(X, sum(Y)) :- r(X,Y), r(X,Z)")
        assert equivalent_aggregate_queries(q1, q2)  # duplicate atom collapses
        assert not equivalent_aggregate_queries(q1, q3)

    def test_dependency_free_max_requires_only_set_equivalence(self):
        q1 = parse_aggregate_query("Q(X, max(Y)) :- r(X,Y)")
        q3 = parse_aggregate_query("Q(X, max(Y)) :- r(X,Y), r(X,Z)")
        assert equivalent_aggregate_queries(q1, q3)

    def test_incompatible_queries_never_equivalent(self):
        q1 = parse_aggregate_query("Q(X, sum(Y)) :- r(X,Y)")
        q2 = parse_aggregate_query("Q(X, count(Y)) :- r(X,Y)")
        assert not equivalent_aggregate_queries(q1, q2)
        assert not equivalent_aggregate_queries_under_dependencies(q1, q2, self.sigma)

    def test_sum_queries_under_dependencies(self):
        # The t-lookup is forced by the tgd and pinned by the key, so adding it
        # preserves sum-equivalence (bag-set equivalence of cores).
        q1 = parse_aggregate_query("Q(X, sum(Y)) :- p(X,Y)")
        q2 = parse_aggregate_query("Q(X, sum(Y)) :- p(X,Y), t(X,Y,W)")
        assert equivalent_aggregate_queries_under_dependencies(q1, q2, self.sigma)
        assert not equivalent_aggregate_queries(q1, q2)

    def test_max_queries_under_dependencies_example_4_1(self, ex41):
        q_max_1 = parse_aggregate_query("Q(X, max(Y)) :- p(X,Y)")
        q_max_2 = parse_aggregate_query(
            "Q(X, max(Y)) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)"
        )
        assert equivalent_aggregate_queries_under_dependencies(
            q_max_1, q_max_2, ex41.dependencies
        )

    def test_count_queries_under_dependencies_example_4_1(self, ex41):
        q_count_1 = parse_aggregate_query("Q(X, count(Y)) :- p(X,Y)")
        q_count_2 = parse_aggregate_query(
            "Q(X, count(Y)) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)"
        )
        # The core equivalence fails under bag-set semantics (u-subgoal), so
        # the count-queries are not equivalent — unlike the max-queries above.
        assert not equivalent_aggregate_queries_under_dependencies(
            q_count_1, q_count_2, ex41.dependencies
        )
        q_count_3 = parse_aggregate_query(
            "Q(X, count(Y)) :- p(X,Y), t(X,Y,W), s(X,Z), r(X)"
        )
        assert equivalent_aggregate_queries_under_dependencies(
            q_count_1, q_count_3, ex41.dependencies
        )
