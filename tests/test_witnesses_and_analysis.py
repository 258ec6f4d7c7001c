"""Tests for counterexample witnesses and the reporting helpers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    chase_statistics,
    equivalence_matrix,
    equivalence_matrix_table,
    reformulation_table,
    render_table,
)
from repro.chase import bag_chase, set_chase
from repro.database import satisfies_all
from repro.datalog import parse_query
from repro.equivalence import decide_equivalence
from repro.evaluation import evaluate
from repro.reformulation import bag_c_and_b
from repro.semantics import Semantics
from repro.witnesses import (
    find_counterexample,
    lemma_d1_counterexample,
)


class TestLemmaD1Construction:
    def test_example_d_2_style_pair(self, ex41):
        # Q7 has two r-subgoals, Q8 one; R is not set enforced.
        database = lemma_d1_counterexample(ex41.q7, ex41.q8, {"s", "t"})
        assert database is not None
        left = evaluate(ex41.q7, database, "bag")
        right = evaluate(ex41.q8, database, "bag")
        assert left != right

    def test_no_construction_when_counts_match(self, ex41):
        assert lemma_d1_counterexample(ex41.q3, ex41.q3, {"s", "t"}) is None

    def test_duplicates_over_set_enforced_relations_ignored(self, ex41):
        # Q5 differs from Q3 only on the duplicated s-subgoal; with S set
        # enforced the construction does not apply.
        assert lemma_d1_counterexample(ex41.q5, ex41.q3, {"s", "t"}) is None
        # Without the set-enforcement marker it does, and it separates them.
        database = lemma_d1_counterexample(ex41.q5, ex41.q3, set())
        assert database is not None
        assert evaluate(ex41.q5, database, "bag") != evaluate(ex41.q3, database, "bag")


class TestFindCounterexample:
    def test_example_4_1_q1_vs_q4_bag(self, ex41):
        witness = find_counterexample(ex41.q1, ex41.q4, ex41.dependencies, "bag")
        assert witness is not None
        assert satisfies_all(witness.database, ex41.dependencies)
        assert witness.left_answer != witness.right_answer
        assert "counterexample" in str(witness)

    def test_example_4_1_q1_vs_q4_bag_set(self, ex41):
        witness = find_counterexample(ex41.q1, ex41.q4, ex41.dependencies, "bag-set")
        assert witness is not None
        assert witness.database.is_set_valued()
        assert evaluate(ex41.q1, witness.database, "bag-set") != evaluate(
            ex41.q4, witness.database, "bag-set"
        )

    def test_example_e_1_bag_witness(self, exE1):
        witness = find_counterexample(
            exE1.query, exE1.chased_query, exE1.dependencies, "bag"
        )
        assert witness is not None
        assert not decide_equivalence(
            exE1.query, exE1.chased_query, exE1.dependencies, "bag"
        ).equivalent

    def test_example_e_2_bag_set_witness(self, exE2):
        witness = find_counterexample(
            exE2.query, exE2.chased_query, exE2.dependencies, "bag-set"
        )
        assert witness is not None

    def test_equivalent_pair_yields_no_witness(self, ex41):
        assert (
            find_counterexample(ex41.q3, ex41.q4, ex41.dependencies, "bag") is None
        )

    def test_witness_consistent_with_decision_procedure(self, ex41):
        # Soundness of the search: a witness exists only for inequivalent pairs.
        pairs = [(ex41.q1, ex41.q4), (ex41.q2, ex41.q4), (ex41.q3, ex41.q4)]
        for q_left, q_right in pairs:
            for semantics in ("bag", "bag-set"):
                witness = find_counterexample(
                    q_left, q_right, ex41.dependencies, semantics
                )
                equivalent = decide_equivalence(
                    q_left, q_right, ex41.dependencies, semantics
                ).equivalent
                if witness is not None:
                    assert not equivalent


class TestReporting:
    def test_render_table_alignment(self):
        table = render_table(["a", "bbbb"], [["x", 1], ["yyy", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a ")
        assert all("|" in line for line in (lines[0], lines[2], lines[3]))

    def test_render_table_without_rows(self):
        assert "metric" in render_table(["metric", "value"], [])

    def test_chase_statistics(self, ex41):
        result = bag_chase(ex41.q4, ex41.dependencies)
        stats = chase_statistics(result, ex41.q4)
        assert stats.total_steps == result.step_count
        assert stats.tgd_steps + stats.egd_steps == stats.total_steps
        assert stats.initial_body_size == 1
        assert stats.final_body_size == len(result.query.body)
        assert "total steps" in stats.as_table()

    def test_chase_statistics_without_original(self, ex41):
        result = set_chase(ex41.q4, ex41.dependencies)
        stats = chase_statistics(result)
        assert stats.final_body_size == len(result.query.body)
        assert stats.initial_body_size <= stats.final_body_size

    def test_equivalence_matrix_example_4_1(self, ex41):
        queries = {"Q1": ex41.q1, "Q2": ex41.q2, "Q3": ex41.q3, "Q4": ex41.q4}
        matrix = equivalence_matrix(queries, ex41.dependencies, Semantics.BAG)
        assert matrix[("Q3", "Q4")] is True
        assert matrix[("Q1", "Q4")] is False
        assert matrix[("Q4", "Q1")] is False
        assert matrix[("Q2", "Q2")] is True
        table = equivalence_matrix_table(queries, ex41.dependencies, Semantics.BAG)
        assert "✓" in table and "✗" in table

    def test_reformulation_table(self, ex41):
        result = bag_c_and_b(ex41.q4, ex41.dependencies, check_sigma_minimality=False)
        table = reformulation_table(result)
        assert "reformulations of Q4" in table
        assert f"{result.candidates_chased} chased" in table
        assert "#subgoals" in table
        assert str(len(result.reformulations)) in table
