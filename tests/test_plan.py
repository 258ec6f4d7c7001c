"""Unit tests for the compiled match-plan layer.

Covers plan compilation (slot assignment, constants, self-joins, repeated
variables), the int kernel's agreement with the frozen reference backtracker
when plans and indexes are reused, the per-Σ plan cache (keying, Σ-change
invalidation, LRU bound), the profile counters the chase drivers record, and
the Session-level plumbing.
"""

from __future__ import annotations

import random

import pytest

from repro.core.atoms import Atom, EqualityAtom
from repro.core.homomorphism import TargetIndex, find_match, iter_matches
from repro.core.plan import MatchPlan
from repro.core.query import ConjunctiveQuery
from repro.core.reference import iter_homomorphisms_reference
from repro.core.terms import Constant, Variable
from repro.chase import sound_chase
from repro.chase.plans import EGDPlan, PlanCache, SigmaPlans, TGDPlan, default_plan_cache
from repro.dependencies.base import EGD, TGD, DependencySet
from repro.evaluation.assignments import iter_satisfying_assignments
from repro.database.instance import DatabaseInstance
from repro.paperlib import example_4_1
from repro.semantics import Semantics
from repro.session import Session

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestMatchPlanCompilation:
    def test_slots_assigned_in_first_occurrence_order(self):
        plan = MatchPlan([Atom("p", [Y, X]), Atom("q", [Z, Y])])
        assert plan.slot_vars == (Y, X, Z)
        assert plan.slot_of == {Y.uid: 0, X.uid: 1, Z.uid: 2}
        assert plan.codes == ((0, 1), (2, 0))

    def test_constants_encode_their_uid(self):
        one = Constant(1)
        plan = MatchPlan([Atom("p", [X, one])])
        assert plan.codes == ((0, ~one.uid),)
        # Decoding round-trips.
        assert ~plan.codes[0][1] == one.uid

    def test_repeated_variable_within_atom_shares_one_slot(self):
        plan = MatchPlan([Atom("p", [X, X, Y])])
        assert plan.slot_vars == (X, Y)
        assert plan.codes == ((0, 0, 1),)

    def test_self_join_atoms_share_slots_across_atoms(self):
        plan = MatchPlan([Atom("p", [X, Y]), Atom("p", [Y, X])])
        assert plan.slot_vars == (X, Y)
        assert plan.codes == ((0, 1), (1, 0))
        assert plan.sig_ids[0] == plan.sig_ids[1]

    def test_sig_ids_and_max_arity(self):
        plan = MatchPlan([Atom("p", [X]), Atom("q", [X, Y, Z])])
        assert plan.sig_ids == (Atom("p", [X]).sig_id, Atom("q", [X, Y, Z]).sig_id)
        assert plan.max_arity == 3
        assert plan.n_atoms == len(plan) == 2
        assert plan.n_slots == 3

    def test_plan_is_immutable(self):
        plan = MatchPlan([Atom("p", [X])])
        with pytest.raises(AttributeError):
            plan.codes = ()

    def test_empty_source_compiles(self):
        plan = MatchPlan([])
        assert plan.n_atoms == 0 and plan.n_slots == 0

    def test_body_plan_memoized_per_query(self):
        query = ConjunctiveQuery("Q", [X], [Atom("p", [X, Y])])
        assert query.body_plan() is query.body_plan()
        assert query.body_plan().atoms == query.body


def _random_atoms(rng, count, constant_bias):
    variables = [Variable(f"PX{i}") for i in range(5)]
    constants = [Constant(value) for value in (0, 1, "pa")]
    atoms = []
    for _ in range(count):
        predicate = rng.choice(("p", "q", "r"))
        arity = rng.randint(1, 3)
        terms = [
            rng.choice(constants) if rng.random() < constant_bias else rng.choice(variables)
            for _ in range(arity)
        ]
        atoms.append(Atom(predicate, terms))
    return atoms


class TestKernelAgainstReference:
    @pytest.mark.parametrize("seed", range(60))
    def test_reused_plan_and_index_match_reference(self, seed):
        """One compiled plan + one index, probed repeatedly, stays exact."""
        rng = random.Random(0xF1A7 + seed)
        source = _random_atoms(rng, rng.randint(1, 4), rng.choice((0.0, 0.3)))
        plan = MatchPlan(source)
        for _ in range(3):
            target = _random_atoms(rng, rng.randint(1, 6), rng.choice((0.0, 0.3)))
            index = TargetIndex(target)
            expected = list(iter_homomorphisms_reference(source, target))
            for _ in range(2):  # the same (plan, index) pair is reusable
                assert list(iter_matches(plan, index)) == expected

    def test_fixed_mapping_prebinds_slots(self):
        source = [Atom("p", [X, Y])]
        target = [Atom("p", [Variable("A"), Variable("B")]), Atom("p", [Variable("A"), Variable("C")])]
        plan = MatchPlan(source)
        index = TargetIndex(target)
        fixed = {Y: Variable("C")}
        expected = list(iter_homomorphisms_reference(source, target, fixed))
        assert list(iter_matches(plan, index, fixed)) == expected
        assert find_match(plan, index, fixed) == expected[0]

    def test_fixed_constant_must_be_identity(self):
        plan = MatchPlan([Atom("p", [X])])
        index = TargetIndex([Atom("p", [X])])
        assert list(iter_matches(plan, index, {Constant(1): Constant(2)})) == []

    def test_fixed_key_not_in_source_is_carried_through(self):
        plan = MatchPlan([Atom("p", [X])])
        index = TargetIndex([Atom("p", [Y])])
        extra = Variable("NotInSource")
        matches = list(iter_matches(plan, index, {extra: Y}))
        assert matches == [{extra: Y, X: Y}]

    def test_kernel_counts_searches_on_the_index(self):
        plan = MatchPlan([Atom("p", [X])])
        index = TargetIndex([Atom("p", [Y])])
        assert index.searches == 0
        list(iter_matches(plan, index))
        find_match(plan, index)
        assert index.searches == 2


class TestSigmaPlans:
    def _sigma(self):
        tgd = TGD([Atom("p", [X, Y])], [Atom("t", [X, Y, Z])], name="t1")
        egd = EGD([Atom("t", [X, Y, Z]), Atom("t", [X, Y, Variable("W")])],
                  EqualityAtom(Z, Variable("W")), name="e1")
        return DependencySet([tgd, egd], set_valued_predicates=["t"])

    def test_split_and_plans_align(self):
        plans = SigmaPlans(self._sigma())
        assert len(plans.tgd_plans) == len(plans.tgds)
        assert len(plans.egd_plans) == len(plans.egds)
        assert all(isinstance(p, TGDPlan) for p in plans.tgd_plans)
        assert all(isinstance(p, EGDPlan) for p in plans.egd_plans)
        for tgd, plan in zip(plans.tgds, plans.tgd_plans):
            assert plan.premise.atoms == tgd.premise
            assert plan.conclusion.atoms == tgd.conclusion
            assert plan.premise_predicates == {a.predicate for a in tgd.premise}

    def test_trigger_maps_cover_premise_predicates(self):
        plans = SigmaPlans(self._sigma())
        assert set(plans.egd_trigger_map) == {"t"}
        assert plans.egd_trigger_map["t"] == (0,)
        assert set(plans.tgd_trigger_map) == {"p"}

    def test_cache_hit_on_same_sigma(self):
        cache = PlanCache()
        sigma = self._sigma()
        first = cache.plans_for(sigma)
        assert cache.plans_for(sigma) is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_new_sigma_gets_fresh_plans(self):
        """A new Σ → new fingerprint → fresh plans, never stale ones."""
        cache = PlanCache()
        sigma = self._sigma()
        first = cache.plans_for(sigma)
        grown = DependencySet(
            sigma.dependencies + (TGD([Atom("p", [X, Y])], [Atom("r", [X])], name="t2"),),
            sigma.set_valued_predicates,
        )
        second = cache.plans_for(grown)
        assert second is not first
        assert len(second.tgds) == len(first.tgds) + 1
        assert cache.misses == 2

    def test_keys_are_memoized_values(self):
        """Each set computes its keys once; equal sets have equal keys with
        equal hashes, and other content gives other keys."""
        import pickle

        sigma = self._sigma()
        key = sigma.plan_key
        fingerprint = sigma.fingerprint
        assert sigma.plan_key is key and sigma.fingerprint is fingerprint
        copy = DependencySet(list(sigma.dependencies), sigma.set_valued_predicates)
        assert copy.plan_key == key and hash(copy.plan_key) == hash(key)
        assert copy.fingerprint == fingerprint
        assert hash(copy.fingerprint) == hash(fingerprint)
        assert copy == sigma and hash(copy) == hash(sigma)
        grown = DependencySet(
            sigma.dependencies + (TGD([Atom("p", [X, Y])], [Atom("r", [X])], name="t2"),),
            sigma.set_valued_predicates,
        )
        assert grown.plan_key != key
        assert DependencySet(sigma.dependencies).plan_key != key
        # A pickled key rehashes in the receiving process.
        assert pickle.loads(pickle.dumps(key)) == key
        # A pickled set (WorkerSpec ships Σ to worker processes) keeps them.
        for shipped in (sigma, self._sigma()):
            clone = pickle.loads(pickle.dumps(shipped))
            assert clone == sigma
            assert clone.plan_key == key and hash(clone.plan_key) == hash(key)
            assert clone.fingerprint == fingerprint

    def test_cache_distinguishes_dependency_names(self):
        """Step records print dependency names, so names must split entries."""
        cache = PlanCache()
        tgd_a = TGD([Atom("p", [X, Y])], [Atom("r", [X])], name="a")
        tgd_b = TGD([Atom("p", [X, Y])], [Atom("r", [X])], name="b")
        plans_a = cache.plans_for(DependencySet([tgd_a]))
        plans_b = cache.plans_for(DependencySet([tgd_b]))
        assert plans_a is not plans_b
        assert plans_a.tgds[0].name == "a" and plans_b.tgds[0].name == "b"

    def test_cache_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        sigmas = [
            DependencySet([TGD([Atom("p", [X, Y])], [Atom(f"r{i}", [X])])])
            for i in range(3)
        ]
        plans = [cache.plans_for(s) for s in sigmas]
        assert cache.evictions == 1
        # The oldest entry was evicted; re-requesting recompiles.
        assert cache.plans_for(sigmas[0]) is not plans[0]
        # The most recent entry is still cached.
        assert cache.plans_for(sigmas[2]) is plans[2]

    def test_plain_sequences_are_accepted(self):
        cache = PlanCache()
        tgd = TGD([Atom("p", [X, Y])], [Atom("r", [X])])
        plans = cache.plans_for([tgd])
        assert plans.tgds and not plans.egds


class TestChaseProfilePlanCounters:
    def test_cold_chase_records_plan_compile_then_reuse(self):
        ex41 = example_4_1()
        cache = PlanCache()
        first = sound_chase(
            ex41.q1, ex41.dependencies, Semantics.BAG_SET, plan_cache=cache
        )
        assert first.profile is not None
        assert first.profile.plans_compiled >= 1
        assert first.profile.kernel_searches > 0
        second = sound_chase(
            ex41.q2, ex41.dependencies, Semantics.BAG_SET, plan_cache=cache
        )
        assert second.profile is not None
        assert second.profile.plans_reused >= 1
        # Re-chasing q2 finds every plan set — the outer Σ's and the nested
        # Definition 4.3 test chases' — already compiled.
        third = sound_chase(
            ex41.q2, ex41.dependencies, Semantics.BAG_SET, plan_cache=cache
        )
        assert third.profile is not None
        assert third.profile.plans_compiled == 0
        assert third.profile.plans_reused >= 1

    def test_profile_summary_mentions_plans_and_kernel(self):
        ex41 = example_4_1()
        result = sound_chase(
            ex41.q1, ex41.dependencies, Semantics.BAG_SET, plan_cache=PlanCache()
        )
        summary = "\n".join(result.profile.summary_lines())
        assert "match plans" in summary
        assert "kernel searches" in summary


class TestSessionPlanCache:
    def test_session_uses_default_process_cache(self):
        session = Session(dependencies=example_4_1().dependencies)
        assert session.plan_cache is default_plan_cache()

    def test_session_threads_injected_cache_into_chases(self):
        ex41 = example_4_1()
        cache = PlanCache()
        session = Session(dependencies=ex41.dependencies, plan_cache=cache)
        session.chase(ex41.q1, "bag-set")
        session.chase(ex41.q2, "bag-set")
        hits, misses, _ = session.plan_cache_stats()
        assert misses >= 1
        # Every plan set (outer Σ and the nested Definition 4.3 chases') is
        # now compiled; a fresh query under the same Σ only reuses.
        session.clear_cache()
        session.chase(ex41.q2, "bag-set")
        hits_after, misses_after, _ = session.plan_cache_stats()
        assert misses_after == misses
        assert hits_after > hits

    def test_set_dependencies_leads_to_fresh_plans(self):
        ex41 = example_4_1()
        cache = PlanCache()
        session = Session(dependencies=ex41.dependencies, plan_cache=cache)
        session.chase(ex41.q1, "bag-set")
        misses_before = cache.misses
        session.set_dependencies(
            DependencySet([TGD([Atom("p", [X, Y])], [Atom("r", [X])])])
        )
        session.chase(ex41.q1, "bag-set")
        assert cache.misses > misses_before


class TestEvaluationPlanPath:
    def test_explicit_plan_matches_default(self):
        instance = DatabaseInstance.from_dict(
            {"p": [(1, 2), (2, 3), (1, 3)], "q": [(3,), (2,)]}
        )
        atoms = [Atom("p", [X, Y]), Atom("q", [Y])]
        default = list(iter_satisfying_assignments(atoms, instance))
        planned = list(
            iter_satisfying_assignments(atoms, instance, plan=MatchPlan(atoms))
        )
        assert planned == default
        assert default  # the fixture joins to something

    def test_repeated_variable_join(self):
        instance = DatabaseInstance.from_dict({"p": [(1, 1), (1, 2), (2, 2)]})
        atoms = [Atom("p", [X, X])]
        rows = list(iter_satisfying_assignments(atoms, instance))
        assert rows == [{X: 1}, {X: 2}]

    def test_constant_positions_filter(self):
        instance = DatabaseInstance.from_dict({"p": [(1, 2), (2, 2), (1, 3)]})
        atoms = [Atom("p", [Constant(1), Y])]
        rows = list(iter_satisfying_assignments(atoms, instance))
        assert rows == [{Y: 2}, {Y: 3}]
