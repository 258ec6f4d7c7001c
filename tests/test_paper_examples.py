"""Integration tests: every claim of the paper's worked examples.

These tests are the executable counterpart of EXPERIMENTS.md — each test
asserts one of the claims the paper makes in its examples, and the few
places where the implementation's verdict differs from the printed example
(Examples 4.3/4.7, see EXPERIMENTS.md) are asserted explicitly as such.
"""

from __future__ import annotations

import pytest

from repro.chase import (
    bag_chase,
    bag_set_chase,
    is_assignment_fixing,
    set_chase,
)
from repro.core import are_isomorphic, is_set_equivalent
from repro.database import satisfies, satisfies_all
from repro.dependencies import is_key_based_tgd, is_regularized, regularize_tgd
from repro.equivalence import decide_equivalence
from repro.evaluation import Bag, evaluate
from repro.paperlib import PAPER_EXAMPLES
from repro.semantics import Semantics
from repro.session import Session


def _dependency(dependencies, name):
    return next(d for d in dependencies if d.name == name)


def _decide(q1, q2, dependencies, semantics):
    """Session.decide's verdict on one pair under *dependencies*."""
    return Session(dependencies=dependencies).decide(q1, q2, semantics).equivalent


class TestExample41Claims:
    """Example 4.1 plus Examples 4.4, 4.5, 4.9, D.1, D.2."""

    def test_counterexample_database_satisfies_sigma(self, ex41):
        assert satisfies_all(ex41.counterexample, ex41.dependencies)

    def test_q1_equivalent_to_q4_under_set_semantics(self, ex41):
        assert _decide(ex41.q1, ex41.q4, ex41.dependencies, "set")

    def test_q1_not_equivalent_without_dependencies(self, ex41):
        assert not is_set_equivalent(ex41.q1, ex41.q4)

    def test_naive_bag_test_accepts_the_pair(self, ex41):
        # (Q1)Σ,S ≡B (Q4)Σ,S in the dependency-free sense used by the naive
        # algorithm (both chase results are set-equivalent; the naive test
        # compares them with the bag test of Theorem 2.1 after chasing).
        chased_q1 = set_chase(ex41.q1, ex41.dependencies).query
        chased_q4 = set_chase(ex41.q4, ex41.dependencies).query
        assert is_set_equivalent(chased_q1, chased_q4)

    def test_bag_inequivalence_witnessed_by_database(self, ex41):
        assert evaluate(ex41.q4, ex41.counterexample, "bag") == Bag([(1,)])
        assert evaluate(ex41.q1, ex41.counterexample, "bag") == Bag([(1,), (1,)])
        assert not _decide(ex41.q1, ex41.q4, ex41.dependencies, "bag")

    def test_bag_set_inequivalence(self, ex41):
        assert ex41.counterexample.is_set_valued()
        assert evaluate(ex41.q1, ex41.counterexample, "bag-set") != evaluate(
            ex41.q4, ex41.counterexample, "bag-set"
        )
        assert not _decide(ex41.q1, ex41.q4, ex41.dependencies, "bag-set")

    def test_sound_chase_results_are_q3_q2_q1(self, ex41):
        assert are_isomorphic(bag_chase(ex41.q4, ex41.dependencies).query, ex41.q3)
        assert are_isomorphic(bag_set_chase(ex41.q4, ex41.dependencies).query, ex41.q2)
        assert is_set_equivalent(set_chase(ex41.q4, ex41.dependencies).query, ex41.q1)

    def test_example_4_4_sigma4_not_regularized_and_not_key_based(self, ex41):
        sigma4 = _dependency(ex41.dependencies, "sigma4")
        assert not is_regularized(sigma4)
        assert not is_key_based_tgd(sigma4, ex41.dependencies)
        assert not is_key_based_tgd(sigma4, ex41.dependencies_without_sigma2)

    def test_example_4_4_q3_equivalent_to_q4_without_sigma2(self, ex41):
        sigma_prime = ex41.dependencies_without_sigma2
        assert _decide(ex41.q3, ex41.q4, sigma_prime, "bag")
        assert _decide(ex41.q3, ex41.q4, sigma_prime, "bag-set")

    def test_example_4_5_whole_sigma4_application_is_unsound(self, ex41):
        # Applying the non-regularized σ4 in its entirety yields
        # Q4'(X) :- p(X,Y), t(X,Y,W), u(X,Z), which is not equivalent to Q4.
        from repro.datalog import parse_query

        q4_prime = parse_query("Qp(X) :- p(X,Y), t(X,Y,W), u(X,Z)")
        sigma_prime = ex41.dependencies_without_sigma2
        assert not _decide(q4_prime, ex41.q4, sigma_prime, "bag-set")
        # The paper's counterexample database for this claim:
        from repro.database import DatabaseInstance

        database = DatabaseInstance.from_dict(
            {"p": [(1, 2)], "t": [(1, 2, 3)], "u": [(1, 4), (1, 5)], "r": [], "s": []},
            ex41.schema,
        )
        assert evaluate(ex41.q4, database, "bag-set") == Bag([(1,)])
        assert evaluate(q4_prime, database, "bag-set") == Bag([(1,), (1,)])

    def test_example_4_9_and_d_1(self, ex41):
        # Not bag equivalent in general...
        assert evaluate(ex41.q3, ex41.counterexample_d1, "bag") != evaluate(
            ex41.q5, ex41.counterexample_d1, "bag"
        )
        # ...but bag equivalent on databases where S is a set (Theorem 4.2).
        assert _decide(ex41.q3, ex41.q5, ex41.dependencies, "bag")

    def test_example_d_2_q7_vs_q8(self, ex41):
        from repro.database import DatabaseInstance

        # Build the Lemma D.1-style counterexample with m = 5 copies of R's tuple.
        database = DatabaseInstance.from_dict(
            {"p": [(1, 2)], "r": [(1,)] * 5, "s": [], "t": [], "u": []}, ex41.schema
        )
        assert evaluate(ex41.q7, database, "bag").multiplicity((1,)) == 25
        assert evaluate(ex41.q8, database, "bag").multiplicity((1,)) == 5
        assert not _decide(ex41.q7, ex41.q8, ex41.dependencies, "bag")


class TestExample42And51:
    def test_sigma1_is_assignment_fixing(self, ex42):
        sigma1 = _dependency(ex42.dependencies, "sigma1")
        assert is_regularized(sigma1)
        assert is_assignment_fixing(ex42.query, sigma1, ex42.dependencies)

    def test_example_5_1_sigma4_assignment_fixing_for_q_prime(self, ex43):
        sigma4 = _dependency(ex43.dependencies, "sigma4")
        assert is_assignment_fixing(ex43.query_prime, sigma4, ex43.dependencies)


class TestExample43And47Deviation:
    """The printed Examples 4.3 / 4.7 are internally inconsistent; these tests
    document what the implementation (and a careful reading) actually gives."""

    def test_counterexample_database_violates_sigma5(self, ex43):
        sigma5 = _dependency(ex43.dependencies_47, "sigma5")
        assert not satisfies(ex43.counterexample_47, sigma5)
        assert not satisfies_all(ex43.counterexample_47, ex43.dependencies_47)

    def test_sigma4_is_assignment_fixing_after_full_chase(self, ex43):
        sigma4 = _dependency(ex43.dependencies, "sigma4")
        assert is_assignment_fixing(ex43.query, sigma4, ex43.dependencies)
        assert is_assignment_fixing(ex43.query, sigma4, ex43.dependencies_47)

    def test_chase_step_with_sigma4_is_in_fact_sound(self, ex43):
        # Q''(X) :- p(X,Y), r(X,Z), s(Z,W), s(X,T) is equivalent to Q under Σ'
        # for bag-set semantics (the egds pin the witnesses down uniquely).
        assert _decide(ex43.query, ex43.chased_query_47, ex43.dependencies_47, "bag-set")


class TestExample46And48:
    def test_nu1_regularized_assignment_fixing_not_key_based(self, ex46):
        nu1 = _dependency(ex46.dependencies, "nu1")
        assert is_regularized(nu1)
        assert is_assignment_fixing(ex46.query, nu1, ex46.dependencies)
        assert not is_key_based_tgd(nu1, ex46.dependencies)

    def test_modified_chase_result_is_unsound(self, ex46):
        assert satisfies_all(ex46.counterexample, ex46.dependencies)
        assert evaluate(ex46.query, ex46.counterexample, "bag-set") == Bag([(1,), (1,)])
        assert evaluate(ex46.query_modified_chase, ex46.counterexample, "bag-set") == Bag(
            [(1,)]
        )

    def test_traditional_chase_result_is_sound(self, ex46):
        assert are_isomorphic(
            bag_set_chase(ex46.query, ex46.dependencies).query,
            ex46.query_traditional_chase,
        )
        assert _decide(ex46.query, ex46.query_traditional_chase, ex46.dependencies, "bag")


class TestExamplesE1E2:
    def test_e1_key_based_step_unsound_over_bag_valued_relation(self, exE1):
        assert satisfies_all(exE1.counterexample, exE1.dependencies)
        assert not exE1.counterexample.is_set_valued(["p"])
        assert evaluate(exE1.query, exE1.counterexample, "bag") == Bag([("a",)])
        assert evaluate(exE1.chased_query, exE1.counterexample, "bag") == Bag(
            [("a",), ("a",)]
        )
        assert not decide_equivalence(
            exE1.query, exE1.chased_query, exE1.dependencies, "bag"
        ).equivalent

    def test_e2_non_key_based_step_unsound_under_bag_set(self, exE2):
        assert satisfies_all(exE2.counterexample, exE2.dependencies)
        assert exE2.counterexample.is_set_valued()
        assert evaluate(exE2.query, exE2.counterexample, "bag-set") == Bag([("a",)])
        assert evaluate(exE2.chased_query, exE2.counterexample, "bag-set") == Bag(
            [("a",), ("a",)]
        )
        assert not decide_equivalence(
            exE2.query, exE2.chased_query, exE2.dependencies, "bag-set"
        ).equivalent


class TestExampleRegistry:
    def test_all_examples_constructible(self):
        for name, constructor in PAPER_EXAMPLES.items():
            example = constructor()
            assert example is not None, name
