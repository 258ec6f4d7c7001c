"""Interning / hash-consing invariants of the core representation.

The interned core (``repro.core.terms`` / ``atoms`` / ``query``) promises:

* equality ⇔ identity for interned terms within one process;
* hashes identical to the frozen-dataclass representation it replaced,
  computed once and cached;
* pickling re-interns, so terms survive the ``decide_many`` multiprocessing
  round trip as canonical singletons;
* derived forms (structural key, canonical representation, dedup) are
  computed once per query object — asserted here through the profile
  counters — and chase-cache keys are built from the memoized structural
  key, never recomputing it;
* the refactor is behaviour-preserving, pinned by a seeded 300-case
  differential fuzz campaign against the frozen reference engines.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.atoms import Atom, EqualityAtom, signature_id
from repro.core.query import CANONICALIZATION_STATS, cq
from repro.core.terms import (
    INTERN_STATS,
    Constant,
    Variable,
    intern_table_sizes,
    term_from_value,
)
from repro.fuzz.runner import run_campaign
from repro.paperlib.examples import example_4_1
from repro.semantics import Semantics
from repro.session import Session


class TestTermInterning:
    def test_equality_is_identity_for_variables(self):
        assert Variable("X") is Variable("X")
        assert Variable("X") == Variable("X")
        assert Variable("X") is not Variable("Y")

    def test_equality_is_identity_for_constants(self):
        assert Constant(1) is Constant(1)
        assert Constant("a") is Constant("a")
        assert Constant(1) is not Constant("1")

    def test_terms_coerced_through_atoms_are_interned(self):
        atom = Atom("p", ["X", "a", 3])
        assert atom.terms[0] is Variable("X")
        assert atom.terms[1] is Constant("a")
        assert atom.terms[2] is Constant(3)

    def test_term_from_value_returns_singletons(self):
        assert term_from_value("X") is Variable("X")
        assert term_from_value("abc") is Constant("abc")

    def test_hash_is_stable_and_cached(self):
        var = Variable("X_hash_stability")
        assert hash(var) == hash(var) == hash(Variable("X_hash_stability"))
        const = Constant("c_hash_stability")
        assert hash(const) == hash(Constant("c_hash_stability"))

    def test_uids_are_distinct_and_stable(self):
        a, b = Variable("UidA"), Constant("uid_b")
        assert a.uid != b.uid
        assert Variable("UidA").uid == a.uid

    def test_variables_and_constants_never_compare_equal(self):
        assert Variable("X") != Constant("X")
        assert Constant("X") != Variable("X")

    def test_terms_are_immutable(self):
        with pytest.raises(AttributeError):
            Variable("X").name = "Y"
        with pytest.raises(AttributeError):
            Constant(1).value = 2

    def test_intern_stats_count_hits_and_misses(self):
        before = INTERN_STATS.snapshot()
        # Hold the first construction: the weak tables drop an interned term
        # as soon as its last strong reference dies, so an unreferenced
        # first construction would make the second a miss again.
        keep = Variable("BrandNewInternStatVariable")
        again = Variable("BrandNewInternStatVariable")
        assert again is keep
        hits, misses = INTERN_STATS.snapshot()
        assert misses - before[1] == 1
        assert hits - before[0] == 1

    def test_intern_table_sizes_reports_both_tables(self):
        variables_before, constants_before = intern_table_sizes()
        keep_variable = Variable("BrandNewTableSizeVariable")
        keep_constant = Constant("brand-new-table-size-constant")
        variables_after, constants_after = intern_table_sizes()
        assert variables_after == variables_before + 1
        assert constants_after == constants_before + 1
        del keep_variable, keep_constant


class TestAtomPrecomputation:
    def test_signature_and_sig_id(self):
        atom = Atom("p", ["X", "Y"])
        assert atom.signature == ("p", 2)
        assert atom.sig_id == signature_id("p", 2)
        assert Atom("p", ["A", "B"]).sig_id == atom.sig_id
        assert Atom("p", ["A"]).sig_id != atom.sig_id  # arity distinguishes

    def test_term_ids_match_terms(self):
        atom = Atom("p", ["X", 1])
        assert atom.term_ids == (Variable("X").uid, Constant(1).uid)

    def test_atoms_are_immutable(self):
        with pytest.raises(AttributeError):
            Atom("p", ["X"]).predicate = "q"
        with pytest.raises(AttributeError):
            EqualityAtom("X", "Y").left = Variable("Z")

    def test_atom_hash_matches_value_equality(self):
        assert hash(Atom("p", ["X", 1])) == hash(Atom("p", ["X", 1]))
        assert Atom("p", ["X", 1]) == Atom("p", ["X", 1])


class TestQueryMemoization:
    def test_structural_key_is_computed_once_per_object(self):
        query = cq("Q", ["X"], Atom("p", ["X", "Y"]))
        before = CANONICALIZATION_STATS.snapshot()
        first = query.structural_key()
        second = query.structural_key()
        hits, misses = CANONICALIZATION_STATS.snapshot()
        assert first is second  # the very same tuple object
        assert misses - before[1] == 1
        assert hits - before[0] == 1

    def test_alpha_variants_share_structural_keys(self):
        q1 = cq("Q", ["X"], Atom("p", ["X", "Y"]))
        q2 = cq("Q", ["A"], Atom("p", ["A", "B"]))
        assert q1.structural_key() == q2.structural_key()

    def test_canonical_representation_memoized_and_identity_when_duplicate_free(self):
        query = cq("Q", ["X"], Atom("p", ["X", "Y"]))
        assert query.canonical_representation() is query
        duplicated = cq("Q", ["X"], Atom("p", ["X", "Y"]), Atom("p", ["X", "Y"]))
        canonical = duplicated.canonical_representation()
        assert canonical is duplicated.canonical_representation()
        assert len(canonical.body) == 1

    def test_drop_duplicates_memoized_per_predicate_set(self):
        query = cq("Q", ["X"], Atom("p", ["X", "Y"]), Atom("p", ["X", "Y"]))
        reduced = query.drop_duplicates_for({"p"})
        assert reduced is query.drop_duplicates_for(frozenset({"p"}))
        assert query.drop_duplicates_for({"r"}) is query  # nothing droppable

    def test_queries_are_immutable(self):
        query = cq("Q", ["X"], Atom("p", ["X", "Y"]))
        with pytest.raises(AttributeError):
            query.head_predicate = "R"

    def test_normal_form_is_idempotent_and_memoized(self):
        query = cq("Q", ["X"], Atom("p", ["X", "Y"]))
        nf = query.normal_form()
        assert nf.normal_form() is nf
        assert query.normal_form() is nf


class TestPickleRoundTrip:
    def test_terms_reintern_on_unpickle(self):
        for term in (Variable("PickleVar"), Constant("pickle-const"), Constant(17)):
            clone = pickle.loads(pickle.dumps(term))
            assert clone is term

    def test_atoms_and_queries_roundtrip_with_interned_terms(self):
        query = cq("Q", ["X", 1], Atom("p", ["X", "Y"]), Atom("r", ["Y", "abc"]))
        clone = pickle.loads(pickle.dumps(query))
        assert clone == query
        for original, copied in zip(query.body, clone.body):
            for term_a, term_b in zip(original.terms, copied.terms):
                assert term_a is term_b

    def test_equality_atom_roundtrip(self):
        eq = EqualityAtom("X", 3)
        clone = pickle.loads(pickle.dumps(eq))
        assert clone == eq
        assert clone.left is eq.left and clone.right is eq.right


class TestSessionKeyReuse:
    """Chase-cache keys reuse each query's memoized structural key and a Σ
    part computed once per Σ."""

    def test_structural_keys_not_recomputed_on_warm_decides(self):
        ex41 = example_4_1()
        session = Session(dependencies=ex41.dependencies)
        session.decide(ex41.q1, ex41.q4, "bag")
        before = CANONICALIZATION_STATS.snapshot()
        for _ in range(5):
            session.decide(ex41.q1, ex41.q4, "bag")
        hits, misses = CANONICALIZATION_STATS.snapshot()
        # Warm decides build their keys from the memoized structural keys:
        # nothing is recomputed.
        assert misses == before[1]

    def test_changing_sigma_resets_key_memo(self):
        """set_dependencies drops the Σ part it memoized, so keys follow Σ."""
        ex41 = example_4_1()
        session = Session(dependencies=ex41.dependencies)

        def key():
            return session._chase_key(ex41.q1, Semantics.BAG, session.max_steps)

        before = key()
        session.set_dependencies(list(ex41.dependencies)[:-1])
        assert key() != before
        session.set_dependencies(ex41.dependencies)
        assert key() == before


class TestMultiprocessingRoundTrip:
    """Satellite: pickle/unpickle re-interns across a decide_many --jobs 2 run."""

    def test_decide_many_with_two_jobs_matches_serial(self):
        ex41 = example_4_1()
        pairs = [(ex41.q1, ex41.q4), (ex41.q3, ex41.q4), (ex41.q1, ex41.q2)]
        session = Session(dependencies=ex41.dependencies)
        serial = session.decide_many(pairs, semantics="bag")
        parallel = Session(dependencies=ex41.dependencies).decide_many(
            pairs, semantics="bag", concurrency=2
        )
        assert [bool(item.result) for item in serial] == [
            bool(item.result) for item in parallel
        ]
        # Verdict queries crossed two process boundaries; their terms must be
        # the parent process's canonical singletons again.
        for item in parallel:
            for chased in (item.result.chased_left, item.result.chased_right):
                for atom in chased.body:
                    for term in atom.terms:
                        assert term_from_value(term) is term
                        if isinstance(term, Variable):
                            assert Variable(term.name) is term
                        else:
                            assert Constant(term.value) is term


class TestReviewRegressions:
    def test_ground_atoms_pass_existing_constants_through(self):
        from repro.database.instance import DatabaseInstance

        instance = DatabaseInstance.from_dict({"p": [(Constant(1), 2)]})
        (atom,) = instance.ground_atoms()
        assert atom.terms == (Constant(1), Constant(2))  # no double wrapping

    def test_dependency_set_refuses_mutation(self):
        """Σ is a value: its fingerprint is memoized, so nothing may change
        the set it was computed over."""
        from dataclasses import FrozenInstanceError

        from repro.dependencies.base import DependencySet

        source = example_4_1().dependencies
        sigma = DependencySet(list(source.dependencies), source.set_valued_predicates)
        first = sigma.fingerprint
        assert sigma.fingerprint is first  # warm access returns the memo
        with pytest.raises(FrozenInstanceError):
            sigma.dependencies = list(source.dependencies)
        with pytest.raises(FrozenInstanceError):
            sigma.set_valued_predicates = frozenset({"brand_new_marker"})
        with pytest.raises(AttributeError):
            sigma.dependencies.append(sigma.dependencies[0])
        with pytest.raises(TypeError):
            sigma.dependencies[0] = sigma.dependencies[-1]
        assert not hasattr(sigma, "add")
        assert sigma == source and sigma.fingerprint is first
        # Order matters for the chase: a reordered set is another value.
        reordered = DependencySet(reversed(source.dependencies), source.set_valued_predicates)
        assert reordered.fingerprint != first


class TestDifferentialPin:
    """Satellite: 300 seeded cases comparing new core vs frozen references."""

    def test_seeded_300_case_campaign_is_clean(self):
        result = run_campaign(0, 300)
        assert result.ok, [failure.summary() for failure in result.failures]
        assert result.cases == 300


class TestWeakInterning:
    """The intern tables are weak: live terms are canonical, dead ones pruned.

    Satellite of the uid-kernel PR (ROADMAP: intern-table pruning): a
    long-lived server on an unbounded constant vocabulary must not grow the
    tables without bound, while the equality-falls-back-to-value guarantee
    and the equality ⇒ identity fast path stay intact for live terms.
    """

    def test_tables_prune_dead_terms(self):
        import gc

        variables_before, constants_before = intern_table_sizes()
        held = [Variable(f"WeakIntern{i}") for i in range(50)]
        held += [Constant(f"weak-intern-{i}") for i in range(50)]
        variables_live, constants_live = intern_table_sizes()
        assert variables_live >= variables_before + 50
        assert constants_live >= constants_before + 50
        del held
        gc.collect()
        variables_after, constants_after = intern_table_sizes()
        assert variables_after <= variables_live - 50
        assert constants_after <= constants_live - 50

    def test_live_terms_stay_canonical_singletons(self):
        keep = Variable("WeakInternCanonical")
        assert Variable("WeakInternCanonical") is keep
        keep_constant = Constant("weak-intern-canonical")
        assert Constant("weak-intern-canonical") is keep_constant

    def test_reinterned_name_gets_fresh_uid_but_same_hash_and_equality(self):
        import gc

        first = Variable("WeakInternReborn")
        first_uid, first_hash = first.uid, hash(first)
        del first
        gc.collect()
        reborn = Variable("WeakInternReborn")
        # A new singleton: uid is fresh (uids are never reused), but the
        # value-based hash and equality semantics are unchanged.
        assert reborn.uid != first_uid
        assert hash(reborn) == first_hash
        assert reborn == Variable("WeakInternReborn")

    def test_uid_keyed_structures_keep_their_terms_alive(self):
        """A uid embedded in an index implies its term is strongly held."""
        import gc

        from repro.core.homomorphism import TargetIndex
        from repro.core.plan import MatchPlan

        atoms = [Atom("weak_intern_p", [Variable("WeakInternHeld"), Constant("weak-held")])]
        plan = MatchPlan(atoms)
        index = TargetIndex(atoms)
        del atoms
        gc.collect()
        # The plan/index's atoms pin the terms, so the interned singletons
        # (and therefore the uids in codes and postings) are still valid.
        assert Variable("WeakInternHeld") is plan.atoms[0].terms[0]
        assert Variable("WeakInternHeld").uid == plan.atoms[0].term_ids[0]
        assert index.atoms[0].terms[1] is Constant("weak-held")

    def test_equality_falls_back_to_value_for_uninterned_twins(self):
        # An exotic construction path (bypassing __new__'s intern lookup)
        # still compares equal by value — the documented guarantee that
        # makes stale references safe.
        twin = object.__new__(Variable)
        object.__setattr__(twin, "name", "WeakInternTwin")
        object.__setattr__(twin, "uid", -1)
        object.__setattr__(twin, "_hash", hash(("WeakInternTwin",)))
        canonical = Variable("WeakInternTwin")
        assert twin is not canonical
        assert twin == canonical and canonical == twin
        assert hash(twin) == hash(canonical)

    def test_pickle_reinterns_after_original_died(self):
        import gc

        payload = pickle.dumps(Constant("weak-intern-pickled"))
        gc.collect()  # the original may already be dead
        loaded = pickle.loads(payload)
        assert loaded is Constant("weak-intern-pickled")
        assert loaded.value == "weak-intern-pickled"
