"""Tests for tgd regularization (Def. 4.1), weak acyclicity, key-based tgds,
and the tuple-ID / set-enforcing framework (Appendix C)."""

from __future__ import annotations

import pytest

from repro.chase import compare_with_key_based
from repro.core.atoms import Atom
from repro.database import DatabaseInstance, satisfies, satisfies_all
from repro.datalog import parse_dependencies, parse_egd, parse_query, parse_tgd
from repro.dependencies import (
    DependencySet,
    TGD,
    augment_schema_with_tuple_ids,
    classify_dependency,
    dependency_set_with_tuple_ids,
    detect_set_enforcing_predicates,
    dependency_graph,
    egd_as_positional_fd,
    extract_positional_fds,
    is_key_based_tgd,
    is_regularized,
    is_regularized_set,
    is_set_enforcing_egd,
    is_superkey_positions,
    is_weakly_acyclic,
    regularize,
    regularize_tgd,
    set_enforcing_egd,
    special_edges_on_cycles,
    tid_projection_query,
)
from repro.paperlib import example_4_1, h_family
from repro.schema import DatabaseSchema


class TestRegularization:
    def test_single_atom_conclusion_is_regularized(self):
        assert is_regularized(parse_tgd("p(X,Y) -> s(X,Z)"))

    def test_example_4_1_sigma1_not_regularized(self):
        sigma1 = parse_tgd("p(X,Y) -> s(X,Z) & t(X,V,W)")
        assert not is_regularized(sigma1)
        parts = regularize_tgd(sigma1)
        assert len(parts) == 2
        assert {a.predicate for part in parts for a in part.conclusion} == {"s", "t"}
        assert all(is_regularized(part) for part in parts)

    def test_example_4_2_sigma1_regularized(self):
        sigma1 = parse_tgd("p(X,Y) -> r(X,Z) & s(Z,W)")
        assert is_regularized(sigma1)
        assert regularize_tgd(sigma1) == [sigma1]

    def test_shared_existential_chain_stays_together(self):
        tgd = parse_tgd("p(X) -> r(X,Z) & s(Z,W) & t(W,V)")
        assert is_regularized(tgd)

    def test_mixed_components(self):
        tgd = parse_tgd("p(X) -> r(X,Z) & s(Z,W) & u(X,V)")
        parts = regularize_tgd(tgd)
        assert len(parts) == 2
        sizes = sorted(len(part.conclusion) for part in parts)
        assert sizes == [1, 2]

    def test_regularize_set_keeps_egds_and_markers(self, ex41):
        regularized = regularize(ex41.dependencies)
        assert regularized.set_valued_predicates == ex41.dependencies.set_valued_predicates
        assert len(regularized.egds()) == len(ex41.dependencies.egds())
        assert is_regularized_set(regularized)
        assert not is_regularized_set(ex41.dependencies)

    def test_full_tgd_with_two_atoms_splits(self):
        tgd = parse_tgd("p(X,Y) -> r(X) & u(X,Y)")
        assert not is_regularized(tgd)
        assert len(regularize_tgd(tgd)) == 2


class TestWeakAcyclicity:
    def test_paper_examples_are_weakly_acyclic(self, ex41, ex42, ex43, ex46):
        for example in (ex41, ex42, ex43, ex46):
            assert is_weakly_acyclic(example.dependencies)

    def test_h_family_is_weakly_acyclic(self):
        assert is_weakly_acyclic(h_family(4).dependencies)

    def test_self_referential_existential_cycle_detected(self):
        sigma = parse_dependencies("e(X,Y) -> e(Y,Z)")
        assert not is_weakly_acyclic(sigma)
        assert special_edges_on_cycles(sigma)

    def test_full_tgd_cycle_is_weakly_acyclic(self):
        sigma = parse_dependencies("""
            e(X,Y) -> f(Y,X)
            f(X,Y) -> e(Y,X)
        """)
        assert is_weakly_acyclic(sigma)

    def test_two_step_existential_cycle_detected(self):
        sigma = parse_dependencies("""
            a(X) -> b(X,Z)
            b(X,Y) -> a(Y)
        """)
        assert not is_weakly_acyclic(sigma)

    def test_egds_do_not_create_edges(self):
        sigma = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z")
        assert dependency_graph(sigma).number_of_edges() == 0
        assert is_weakly_acyclic(sigma)


class TestKeyBasedClassification:
    def test_egd_as_positional_fd(self):
        egd = parse_egd("s(X,Y) & s(X,Z) -> Y = Z")
        assert egd_as_positional_fd(egd) == ("s", (frozenset({0}), 1))
        non_fd = parse_egd("s(X,Y) & r(X,Z) -> Y = Z")
        assert egd_as_positional_fd(non_fd) is None

    def test_extract_positional_fds(self, ex41):
        fds = extract_positional_fds(list(ex41.dependencies))
        assert (frozenset({0}), 1) in fds[("s", 2)]
        assert (frozenset({0, 1}), 2) in fds[("t", 3)]

    def test_is_superkey_positions(self, ex41):
        deps = list(ex41.dependencies)
        assert is_superkey_positions("s", 2, [0], deps)
        assert is_superkey_positions("t", 3, [0, 1], deps)
        assert not is_superkey_positions("t", 3, [0], deps)
        assert not is_superkey_positions("u", 2, [0], deps)

    def test_key_based_tgds_in_example_4_1(self, ex41):
        by_name = {d.name: d for d in ex41.dependencies}
        # σ2: conclusion t(X,Y,W), universal positions {0,1} form the key of T,
        # and T is set valued -> key based.
        assert is_key_based_tgd(by_name["sigma2"], ex41.dependencies)
        # σ3: conclusion r(X); R is not set valued -> not key based.
        assert not is_key_based_tgd(by_name["sigma3"], ex41.dependencies)
        # σ4: the u-atom is not key based.
        assert not is_key_based_tgd(by_name["sigma4"], ex41.dependencies)

    def test_example_4_6_nu1_not_key_based(self, ex46):
        nu1 = next(d for d in ex46.dependencies if d.name == "nu1")
        assert not is_key_based_tgd(nu1, ex46.dependencies)

    def test_fd_with_dont_care_positions(self):
        egd = parse_egd("t(X,Y,Z,A) & t(X,Y,W,B) -> Z = W")
        assert egd_as_positional_fd(egd) == ("t", (frozenset({0, 1}), 2))

    @pytest.mark.parametrize(
        "text",
        [
            # A constant in the premise: only tuples with `a` in the middle.
            "r(X,a,Y1) & r(X,a,Y2) -> Y1 = Y2",
            # A repeated variable: only tuples whose first two values agree.
            "r(X,X,Y1) & r(X,X,Y2) -> Y1 = Y2",
            # A variable shared across different positions.
            "r(X,Y,Z1) & r(Y,X,Z2) -> Z1 = Z2",
        ],
    )
    def test_conditional_fds_are_not_fds(self, text):
        """Such a premise matches only some pairs agreeing on the determinant,
        so the egd must not count towards a key."""
        egd = parse_egd(text)
        assert egd_as_positional_fd(egd) is None
        assert extract_positional_fds([egd]) == {}
        assert classify_dependency(egd) == "egd"

    @pytest.mark.parametrize(
        "egd_text",
        ["r(X,a,Y1) & r(X,a,Y2) -> Y1 = Y2", "r(X,X,Y1) & r(X,X,Y2) -> Y1 = Y2"],
    )
    def test_key_based_implies_assignment_fixing(self, egd_text):
        """The regression: these egds used to read as {0,1} -> 2, so the tgd
        below was classified key based although it is not assignment fixing."""
        sigma = parse_dependencies(
            f"p(X,Z) -> r(X,Z,W)\n{egd_text}", set_valued=["r"]
        )
        tgd = sigma.tgds()[0]
        assert not is_superkey_positions("r", 3, [0, 1], sigma)
        query = parse_query("Q(X) :- p(X,Z)")
        assert compare_with_key_based(query, tgd, sigma) == {
            "assignment_fixing": False,
            "key_based": False,
        }

    def test_key_is_per_arity(self):
        """An fd of r/3 says nothing about atoms of an overloaded r/2."""
        sigma = parse_dependencies(
            "p(X) -> r(X,W)\nr(X,Y1,Z) & r(X,Y2,V) -> Y1 = Y2", set_valued=["r"]
        )
        assert is_superkey_positions("r", 3, [0, 2], sigma)
        assert not is_superkey_positions("r", 2, [0], sigma)
        assert not is_key_based_tgd(sigma.tgds()[0], sigma)


class TestTupleIds:
    def test_augment_schema(self):
        schema = DatabaseSchema.from_arities({"p": 2, "r": 1})
        augmented = augment_schema_with_tuple_ids(schema)
        assert augmented.arity("p") == 3
        assert augmented.relation("p").attribute_names[-1] == "tid"

    def test_set_enforcing_egd_shape_and_detection(self):
        egd = set_enforcing_egd("p", 2)
        assert is_set_enforcing_egd(egd) == "p"
        assert detect_set_enforcing_predicates([egd]) == {"p"}
        # An ordinary key egd is not set enforcing.
        key = parse_egd("p(X,Y,T) & p(X,Z,S) -> Y = Z")
        assert is_set_enforcing_egd(key) is None

    def test_set_enforcing_egd_forces_duplicate_free_projection(self):
        egd = set_enforcing_egd("p", 2)
        # Augmented relation: two tuples with equal payload, distinct tids.
        bad = DatabaseInstance.from_dict({"p": [(1, 2, "t1"), (1, 2, "t2")]})
        good = DatabaseInstance.from_dict({"p": [(1, 2, "t1"), (1, 3, "t2")]})
        assert not satisfies(bad, egd)
        assert satisfies(good, egd)

    def test_tid_projection_query_shape(self):
        query = tid_projection_query("p", 2)
        assert len(query.head_terms) == 2
        assert query.body[0].arity == 3

    def test_dependency_set_with_tuple_ids(self, ex41):
        materialised = dependency_set_with_tuple_ids(ex41.dependencies, ex41.schema)
        added = [d for d in materialised if is_set_enforcing_egd(d)]
        assert {is_set_enforcing_egd(d) for d in added} == {"s", "t"}
        assert len(materialised) == len(ex41.dependencies) + 2
