"""Edge-case and failure-injection tests across the library.

These exercise the corners the happy-path tests do not: chase failure on
constant conflicts, non-terminating dependency sets surfacing through the
higher-level APIs, queries with constants and repeated head terms, missing
relations, and degenerate inputs.
"""

from __future__ import annotations

import pytest

from repro.chase import ChaseFailedError, bag_chase, set_chase, sound_chase
from repro.chase.incremental import ChaseDelta, chase_with_checkpoint, resume_chase
from repro.core import is_bag_equivalent, is_set_equivalent
from repro.database import DatabaseInstance, canonical_database
from repro.datalog import parse_dependencies, parse_query
from repro.equivalence import decide_equivalence
from repro.evaluation import Bag, evaluate
from repro.exceptions import ChaseNonTerminationError
from repro.reformulation import is_sigma_minimal
from repro.semantics import Semantics
from repro.session import Session


class TestChaseFailure:
    def test_egd_forcing_distinct_constants_fails_set_chase(self):
        sigma = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z")
        query = parse_query("Q(X) :- s(X,1), s(X,2)")
        with pytest.raises(ChaseFailedError):
            set_chase(query, sigma)

    def test_egd_failure_also_surfaces_in_sound_chase(self):
        sigma = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z", set_valued=["s"])
        query = parse_query("Q(X) :- s(X,1), s(X,2)")
        with pytest.raises(ChaseFailedError):
            sound_chase(query, sigma, Semantics.BAG)

    def test_constants_that_agree_do_not_fail(self):
        sigma = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z")
        query = parse_query("Q(X) :- s(X,1), s(X,Y)")
        result = set_chase(query, sigma)
        # Y is identified with the constant 1.
        assert len(result.query.body) == 1
        assert result.query.body[0].is_ground() is False  # X still a variable


class TestNonTermination:
    sigma = parse_dependencies("e(X,Y) -> e(Y,Z)")

    def test_equivalence_test_reports_non_termination(self):
        q1 = parse_query("Q(X) :- e(X,Y)")
        q2 = parse_query("Q(X) :- e(X,Y), e(Y,Z)")
        with pytest.raises(ChaseNonTerminationError):
            Session(dependencies=self.sigma, max_steps=30).decide(q1, q2, "set")

    def test_reformulation_reports_non_termination(self):
        query = parse_query("Q(X) :- e(X,Y)")
        with pytest.raises(ChaseNonTerminationError):
            Session(dependencies=self.sigma, max_steps=30).reformulate(query, "set")

    @pytest.mark.parametrize("entry", ("cold", "resume"))
    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_every_entry_reports_the_steps_taken(self, semantics, entry):
        # An infinite e-chain.  The key egd makes the tgd key determined, so
        # the bag and bag-set chases fire it without a Definition 4.3 test
        # chase (which would itself exhaust the budget); e is set valued for
        # Theorem 4.1.  The resume reaches the chain through a delta atom.
        sigma = parse_dependencies(
            "e(X,Y) -> e(Y,Z)\ne(X,Y) & e(X,W) -> Y = W", set_valued=["e"]
        )
        with pytest.raises(ChaseNonTerminationError) as excinfo:
            if entry == "cold":
                sound_chase(parse_query("Q(X) :- e(X,Y)"), sigma, semantics, max_steps=25)
            else:
                base = parse_query("Q(X) :- r(X)")
                _, checkpoint = chase_with_checkpoint(base, sigma, semantics, max_steps=25)
                resume_chase(checkpoint, ChaseDelta.atoms(*parse_query("Q(X) :- e(X,Y)").body))
        # Every round of the budget applied one step.
        assert excinfo.value.steps_taken == 25

    def test_budget_is_configurable(self):
        # A terminating set is unaffected by a generous budget.
        sigma = parse_dependencies("e(X,Y) -> f(Y)")
        query = parse_query("Q(X) :- e(X,Y)")
        assert set_chase(query, sigma, max_steps=10).terminated


class TestConstantsAndHeads:
    def test_query_with_constant_head_term(self):
        sigma = parse_dependencies("p(X,Y) -> r(X)")
        query = parse_query("Q(X, 5) :- p(X,Y)")
        chased = set_chase(query, sigma).query
        assert chased.head_terms[1].value == 5  # type: ignore[union-attr]

    def test_repeated_head_variable(self):
        q1 = parse_query("Q(X, X) :- p(X,Y)")
        q2 = parse_query("Q(A, A) :- p(A,B)")
        q3 = parse_query("Q(A, B) :- p(A,B)")
        assert is_bag_equivalent(q1, q2)
        assert not is_set_equivalent(q1, q3)

    def test_constants_in_dependencies(self):
        sigma = parse_dependencies("p(X, 1) -> special(X)")
        matching = parse_query("Q(X) :- p(X, 1)")
        not_matching = parse_query("Q(X) :- p(X, 2)")
        assert "special" in set_chase(matching, sigma).query.predicates()
        assert "special" not in set_chase(not_matching, sigma).query.predicates()

    def test_evaluation_with_constants_in_query(self):
        instance = DatabaseInstance.from_dict({"p": [(1, "a"), (2, "b")]})
        query = parse_query("Q(X) :- p(X, 'a')")
        assert evaluate(query, instance, "set") == Bag([(1,)])

    def test_canonical_database_of_fully_ground_query(self):
        query = parse_query("Q(1) :- p(1, 2)")
        canonical = canonical_database(query)
        assert canonical.instance.relation("p").multiplicity((1, 2)) == 1
        assert canonical.head_tuple() == (1,)


class TestDegenerateInputs:
    def test_single_atom_query_reformulation(self):
        sigma = parse_dependencies("p(X,Y) -> r(X)")
        query = parse_query("Q(X) :- p(X,Y)")
        result = Session(dependencies=sigma).reformulate(
            query, "set", check_sigma_minimality=False
        )
        assert result.contains_isomorphic(query)

    def test_empty_dependency_set(self):
        query = parse_query("Q(X) :- p(X,Y), p(X,Z)")
        verdict = decide_equivalence(query, parse_query("Q(A) :- p(A,B)"), [], "set")
        assert verdict.equivalent
        assert is_sigma_minimal(parse_query("Q(A) :- p(A,B)"), [], "set")

    def test_dependency_over_predicate_not_in_query(self, ex41):
        sigma = parse_dependencies("unrelated(X) -> alsounrelated(X)")
        chased = set_chase(ex41.q4, sigma)
        assert chased.step_count == 0

    def test_bag_chase_without_set_valued_relations_is_conservative(self):
        # No relation is declared set valued: no tgd may fire under bag semantics.
        sigma = parse_dependencies("""
            p(X,Y) -> r(X)
            p(X,Y) -> t(X,Z)
        """)
        query = parse_query("Q(X) :- p(X,Y)")
        assert bag_chase(query, sigma).query == query

    def test_evaluation_on_empty_instance(self):
        from repro.schema import DatabaseSchema

        schema = DatabaseSchema.from_arities({"p": 2})
        instance = DatabaseInstance.from_dict({}, schema)
        query = parse_query("Q(X) :- p(X,Y)")
        assert evaluate(query, instance, "bag").cardinality == 0

    def test_decide_equivalence_same_query_object(self, ex41):
        assert decide_equivalence(ex41.q4, ex41.q4, ex41.dependencies, "bag").equivalent
