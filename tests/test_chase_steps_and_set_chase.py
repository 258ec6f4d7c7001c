"""Tests for individual chase steps and the set-semantics chase (Section 2.4)."""

from __future__ import annotations

import pytest

from repro.chase import (
    ChaseFailedError,
    apply_egd_step,
    apply_tgd_step,
    is_egd_applicable,
    is_tgd_applicable,
    iter_applicable_egd_homomorphisms,
    iter_applicable_tgd_homomorphisms,
    set_chase,
    set_chase_terminates,
)
from repro.chase.steps import conclusion_instantiation, deduplicate_body
from repro.core.terms import Constant, Variable
from repro.database import canonical_database, satisfies_all
from repro.datalog import parse_dependencies, parse_egd, parse_query, parse_tgd
from repro.exceptions import ChaseNonTerminationError


class TestTgdSteps:
    def test_applicability_requires_missing_conclusion(self):
        tgd = parse_tgd("p(X,Y) -> s(X,Z)")
        missing = parse_query("Q(X) :- p(X,Y)")
        present = parse_query("Q(X) :- p(X,Y), s(X,W)")
        assert is_tgd_applicable(missing, tgd)
        assert not is_tgd_applicable(present, tgd)

    def test_not_applicable_without_premise_match(self):
        tgd = parse_tgd("p(X,Y) -> s(X,Z)")
        query = parse_query("Q(X) :- r(X,Y)")
        assert not is_tgd_applicable(query, tgd)

    def test_apply_adds_instantiated_conclusion(self):
        tgd = parse_tgd("p(X,Y) -> s(X,Z)")
        query = parse_query("Q(X) :- p(X,Y)")
        hom = next(iter_applicable_tgd_homomorphisms(query, tgd))
        chased, record = apply_tgd_step(query, tgd, hom)
        assert len(chased.body) == 2
        assert chased.body[1].predicate == "s"
        # The existential position got a fresh variable distinct from X, Y.
        fresh = chased.body[1].terms[1]
        assert fresh not in (Variable("X"), Variable("Y"))
        assert record.kind == "tgd" and len(record.added_atoms) == 1

    def test_fresh_variables_avoid_used_names(self):
        tgd = parse_tgd("p(X,Y) -> s(X,Z)")
        query = parse_query("Q(X) :- p(X,Y)")
        hom = next(iter_applicable_tgd_homomorphisms(query, tgd))
        used = {"X", "Y", "Z", "Z_1"}
        atoms, fresh = conclusion_instantiation(query, tgd, hom, used)
        assert all(v.name not in {"X", "Y", "Z", "Z_1"} or v.name in used for v in fresh.values())
        assert fresh[Variable("Z")].name in used  # recorded back into the used set

    @pytest.mark.parametrize(
        "used",
        [{"X", "Y", "W"}, {"X", "Y", "W", "Z_1", "V_1", "V_3"}, {"X", "Y", "W", "Z_2"}],
    )
    def test_compiled_step_equals_the_plain_step(self, used):
        """With a plan, fresh names are checked against the used set and the
        tgd's names only; given a used set covering the query, the step adds
        the same atoms, records the same step, and grows the set alike."""
        from repro.chase.plans import TGDPlan

        tgd = parse_tgd("p(X,Y) -> s(X,Z,V) & u(V,Y,Z)")
        query = parse_query("Q(X) :- p(X,Y), w(Y,W)")
        hom = next(iter_applicable_tgd_homomorphisms(query, tgd))
        plain_used, compiled_used = set(used), set(used)
        plain, plain_record = apply_tgd_step(query, tgd, hom, plain_used)
        compiled, compiled_record = apply_tgd_step(
            query, tgd, hom, compiled_used, plan=TGDPlan(tgd)
        )
        assert compiled == plain
        assert str(compiled_record) == str(plain_record)
        assert compiled_record.homomorphism == plain_record.homomorphism
        assert compiled_used == plain_used
        # Without a used set the plan falls back to the query's own names.
        alone, _ = apply_tgd_step(query, tgd, hom, plan=TGDPlan(tgd))
        assert alone == apply_tgd_step(query, tgd, hom)[0]

    def test_full_tgd_application(self):
        tgd = parse_tgd("p(X,Y) -> r(X)")
        query = parse_query("Q(X) :- p(X,Y)")
        hom = next(iter_applicable_tgd_homomorphisms(query, tgd))
        chased, _ = apply_tgd_step(query, tgd, hom)
        assert chased.body[-1].terms == (Variable("X"),)

    def test_multiple_homomorphisms(self):
        tgd = parse_tgd("p(X,Y) -> r(X)")
        query = parse_query("Q(X) :- p(X,Y), p(Y,Z)")
        homs = list(iter_applicable_tgd_homomorphisms(query, tgd))
        assert len(homs) == 2


class TestEgdSteps:
    def test_applicability_and_application(self):
        egd = parse_egd("s(X,Y) & s(X,Z) -> Y = Z")
        query = parse_query("Q(X) :- s(X,A), s(X,B), r(A)")
        assert is_egd_applicable(query, egd)
        hom, left, right = next(iter_applicable_egd_homomorphisms(query, egd))
        chased, record = apply_egd_step(query, egd, hom, left, right)
        # A and B identified everywhere, including in r(A).
        assert len(set(chased.body)) == 2
        assert record.kind == "egd" and record.substitution

    def test_variable_constant_identification(self):
        egd = parse_egd("s(X,Y) & s(X,Z) -> Y = Z")
        query = parse_query("Q(X) :- s(X,A), s(X,3)")
        hom, left, right = next(iter_applicable_egd_homomorphisms(query, egd))
        chased, _ = apply_egd_step(query, egd, hom, left, right)
        variables = {v for atom in chased.body for v in atom.variables()}
        assert Variable("A") not in variables

    def test_constant_constant_conflict_fails(self):
        egd = parse_egd("s(X,Y) & s(X,Z) -> Y = Z")
        query = parse_query("Q(X) :- s(X,1), s(X,2)")
        hom, left, right = next(iter_applicable_egd_homomorphisms(query, egd))
        with pytest.raises(ChaseFailedError):
            apply_egd_step(query, egd, hom, left, right)

    def test_not_applicable_when_already_equal(self):
        egd = parse_egd("s(X,Y) & s(X,Z) -> Y = Z")
        query = parse_query("Q(X) :- s(X,A), r(A)")
        assert not is_egd_applicable(query, egd)

    def test_deduplicate_body_respects_predicate_filter(self):
        query = parse_query("Q(X) :- p(X,Y), p(X,Y), s(X,Y), s(X,Y)")
        assert len(deduplicate_body(query).body) == 2
        assert len(deduplicate_body(query, {"s"}).body) == 3


class TestSetChase:
    def test_terminal_result_satisfies_dependencies(self, ex41):
        result = set_chase(ex41.q4, ex41.dependencies)
        assert result.terminated
        canonical = canonical_database(result.query).instance
        assert satisfies_all(canonical, ex41.dependencies, check_set_valuedness=False)

    def test_chase_of_terminal_query_is_noop(self, ex41):
        result = set_chase(ex41.q1, ex41.dependencies)
        assert result.step_count == 0
        assert result.query == ex41.q1

    def test_example_4_1_set_chase_equivalent_to_q1(self, ex41):
        from repro.core import is_set_equivalent

        result = set_chase(ex41.q4, ex41.dependencies)
        assert is_set_equivalent(result.query, ex41.q1)

    def test_egd_only_chase(self):
        sigma = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z")
        query = parse_query("Q(X) :- s(X,A), s(X,B), s(X,C)")
        result = set_chase(query, sigma)
        assert len(result.query.body) == 1

    def test_inclusion_dependency_chain(self):
        sigma = parse_dependencies("""
            r1(X,Y) -> r2(Y,Z)
            r2(X,Y) -> r3(Y,Z)
        """)
        query = parse_query("Q(X) :- r1(X,Y)")
        result = set_chase(query, sigma)
        assert result.query.predicate_counts() == {"r1": 1, "r2": 1, "r3": 1}

    def test_non_terminating_chase_raises(self):
        sigma = parse_dependencies("e(X,Y) -> e(Y,Z)")
        query = parse_query("Q(X) :- e(X,Y)")
        with pytest.raises(ChaseNonTerminationError):
            set_chase(query, sigma, max_steps=25)
        assert not set_chase_terminates(query, sigma, max_steps=25)

    def test_result_records_steps(self, ex41):
        result = set_chase(ex41.q4, ex41.dependencies)
        assert result.step_count == len(result.steps) > 0
        assert all(record.kind in ("tgd", "egd") for record in result.steps)

    def test_determinism(self, ex41):
        first = set_chase(ex41.q4, ex41.dependencies)
        second = set_chase(ex41.q4, ex41.dependencies)
        assert first.query == second.query

    def test_regularize_flag_preserves_equivalence(self, ex41):
        # Proposition 4.1: chasing with the regularized Σ, as set_chase
        # always does, agrees up to equivalence with chasing Σ as written.
        from repro.chase.reference import set_chase_reference
        from repro.core import is_set_equivalent

        with_reg = set_chase(ex41.q4, ex41.dependencies)
        without_reg = set_chase_reference(ex41.q4, ex41.dependencies, regularize=False)
        assert is_set_equivalent(with_reg.query, without_reg.query)
