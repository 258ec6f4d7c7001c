"""Unit tests for repro.core.query (ConjunctiveQuery)."""

from __future__ import annotations

import pytest

from repro.core.atoms import Atom
from repro.core.query import ConjunctiveQuery, cq
from repro.core.terms import Constant, Variable
from repro.exceptions import QueryError


def make_query() -> ConjunctiveQuery:
    return cq("Q", ["X"], Atom("p", ["X", "Y"]), Atom("s", ["X", "Z"]))


class TestConstructionAndSafety:
    def test_basic_construction(self):
        query = make_query()
        assert query.head_predicate == "Q"
        assert query.head_terms == (Variable("X"),)
        assert len(query.body) == 2

    def test_empty_body_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery("Q", ["X"], [])

    def test_unsafe_head_rejected(self):
        with pytest.raises(QueryError):
            cq("Q", ["W"], Atom("p", ["X", "Y"]))

    def test_constant_in_head_allowed(self):
        query = cq("Q", ["X", 7], Atom("p", ["X", "Y"]))
        assert query.head_terms[1] == Constant(7)


class TestAccessors:
    def test_head_and_body_variables(self):
        query = make_query()
        assert query.head_variables() == [Variable("X")]
        assert query.body_variables() == [Variable("X"), Variable("Y"), Variable("Z")]
        assert query.existential_variables() == [Variable("Y"), Variable("Z")]

    def test_all_variables_and_constants(self):
        query = cq("Q", ["X"], Atom("p", ["X", 1]), Atom("r", ["a"]))
        assert query.all_variables() == [Variable("X")]
        assert query.constants() == [Constant(1), Constant("a")]

    def test_predicates_and_counts(self):
        query = cq("Q", ["X"], Atom("p", ["X"]), Atom("p", ["X"]), Atom("r", ["X"]))
        assert query.predicates() == {"p", "r"}
        assert query.predicate_counts() == {"p": 2, "r": 1}

    def test_head_atom(self):
        assert make_query().head_atom == Atom("Q", ["X"])


class TestTransformations:
    def test_canonical_representation_drops_duplicates(self):
        query = cq("Q", ["X"], Atom("p", ["X", "Y"]), Atom("p", ["X", "Y"]))
        assert len(query.canonical_representation().body) == 1

    def test_canonical_representation_keeps_distinct_atoms(self):
        query = cq("Q", ["X"], Atom("p", ["X", "Y"]), Atom("p", ["X", "Z"]))
        assert len(query.canonical_representation().body) == 2

    def test_drop_duplicates_for_selected_predicates_only(self):
        query = cq(
            "Q",
            ["X"],
            Atom("p", ["X"]),
            Atom("p", ["X"]),
            Atom("s", ["X"]),
            Atom("s", ["X"]),
        )
        reduced = query.drop_duplicates_for(["s"])
        assert reduced.predicate_counts() == {"p": 2, "s": 1}

    def test_substitute(self):
        query = make_query().substitute({Variable("Y"): Constant(3)})
        assert Atom("p", ["X", 3]) in query.body

    def test_rename_variables(self):
        renamed = make_query().rename_variables({Variable("X"): Variable("A")})
        assert renamed.head_terms == (Variable("A"),)

    def test_freshen_produces_disjoint_copy(self):
        query = make_query()
        fresh, renaming = query.freshen()
        assert set(fresh.all_variables()).isdisjoint(query.all_variables())
        assert set(renaming) == set(query.all_variables())

    def test_with_body_and_add_atoms(self):
        query = make_query()
        extended = query.add_atoms([Atom("r", ["X"])])
        assert len(extended.body) == 3
        shrunk = query.with_body(query.body[:1])
        assert len(shrunk.body) == 1

    def test_drop_atom_at(self):
        query = make_query()
        dropped = query.drop_atom_at(1)
        assert dropped.body == (Atom("p", ["X", "Y"]),)
        with pytest.raises(QueryError):
            query.drop_atom_at(5)


class TestNormalForm:
    def test_normal_form_invariant_under_renaming(self):
        query = make_query()
        renamed = query.rename_variables(
            {Variable("X"): Variable("A"), Variable("Y"): Variable("B"), Variable("Z"): Variable("C")}
        )
        assert query.normal_form() == renamed.normal_form()
        assert query.structural_key() == renamed.structural_key()

    def test_normal_form_is_idempotent(self):
        query = cq("Q", ["X"], Atom("s", ["X", "Z"]), Atom("p", ["X", "Y"]))
        assert query.normal_form().normal_form() == query.normal_form()

    def test_distinct_queries_have_distinct_keys(self):
        q1 = cq("Q", ["X"], Atom("p", ["X", "Y"]))
        q2 = cq("Q", ["X"], Atom("p", ["X", "X"]))
        assert q1.structural_key() != q2.structural_key()

    def test_str_round_trip_shape(self):
        assert str(make_query()) == "Q(X) :- p(X, Y), s(X, Z)"


class TestMemosDoNotKeepTheQueryAlive:
    """A memo whose derived form is the query itself holds no reference cycle.

    With the cyclic collector off, a query must die with its last reference
    even after a memo returned the query itself: the Session's weak-keyed
    chase-key memo, and the key counts it reports, would otherwise depend
    on when the collector runs.
    """

    @staticmethod
    def _freed_once_dropped(build, derive) -> bool:
        import gc
        import weakref

        enabled = gc.isenabled()
        gc.disable()
        try:
            subject = build()
            assert derive(subject) is subject
            ref = weakref.ref(subject)
            del subject
            return ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_canonical_representation_without_duplicates(self):
        assert self._freed_once_dropped(
            make_query, lambda query: query.canonical_representation()
        )

    def test_set_valued_deduplication_that_drops_nothing(self):
        assert self._freed_once_dropped(
            make_query, lambda query: query.drop_duplicates_for({"p", "s"})
        )

    def test_normal_form_of_a_normal_form(self):
        def build():
            return make_query().normal_form()

        assert self._freed_once_dropped(build, lambda nf: nf.normal_form())
