"""The chase-free Definition 4.3 rule for key-determined tgds.

:class:`repro.chase.plans.AssignmentFixingRule` answers "assignment fixing"
without the test chase when every conclusion atom is keyed by its universal
positions, Σ has no constant, and the query's constants sit only in atoms
no premise of Σ mentions.  These tests pin the rule on Example 4.1 and the
chain fixture, exercise each gate, and run a seeded differential campaign:
wherever the forced test chase terminates, the rule agrees with it, and the
sound chase applies exactly the reference engine's steps.  They also pin
the memo of tested verdicts each compiled Σ keeps: its key, its scope and
its bound.  A test that counts test chases runs on a fresh
:class:`~repro.chase.plans.PlanCache`, because the process-wide one carries
verdicts from one test into the next.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.chase import (
    PlanCache,
    default_plan_cache,
    is_assignment_fixing_for,
    iter_applicable_tgd_homomorphisms,
    sound_chase,
)
from repro.chase import assignment_fixing
from repro.chase import plans as chase_plans
from repro.chase.assignment_fixing import VERDICT_MEMO_SIZE
from repro.chase.profile import ChaseProfile
from repro.chase.reference import _is_assignment_fixing_for, sound_chase_reference
from repro.chase.steps import ChaseFailedError
from repro.cli import main
from repro.core.atoms import Atom
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.datalog import parse_dependencies, parse_query, render_dependency
from repro.dependencies import DependencySet, TGD, is_weakly_acyclic, key_egds
from repro.exceptions import ChaseNonTerminationError
from repro.paperlib import chain_workload, orders_workload, star_workload
from repro.semantics import Semantics
from repro.session import Session

SOUND_SEMANTICS = (Semantics.BAG, Semantics.BAG_SET)
CAMPAIGN_CASES = 320
MAX_STEPS = 300


def _rule(dependencies):
    return default_plan_cache().plans_for(dependencies).assignment_fixing_rule()


def _regularized_tgds(dependencies) -> dict[str, TGD]:
    return {tgd.name: tgd for tgd in default_plan_cache().plans_for(dependencies).tgds}


# --------------------------------------------------------------------------- #
# Example 4.1 and the chain fixture
# --------------------------------------------------------------------------- #
class TestExample41:
    def test_which_components_skip_the_chase(self, ex41):
        rule = _rule(ex41.dependencies)
        tgds = _regularized_tgds(ex41.dependencies)
        # σ1 = p(X,Y) -> s(X,Z) & t(X,V,W) regularizes into its s and t parts.
        assert tgds["sigma1_a"].conclusion[0].predicate == "s"
        assert tgds["sigma4_a"].conclusion[0].predicate == "u"
        for name in ("sigma2", "sigma1_a", "sigma4_b"):
            assert rule.is_key_determined(tgds[name]), name
            assert rule.decides(ex41.q4, tgds[name]), name
        # t(X,V,W): {0} is not a key of t; u(X,Z): u has no key at all.
        for name in ("sigma1_b", "sigma4_a"):
            assert not rule.is_key_determined(tgds[name]), name
            assert not rule.decides(ex41.q4, tgds[name]), name

    @pytest.mark.parametrize(
        "semantics, tests, static",
        [(Semantics.BAG_SET, 2, 2), (Semantics.BAG, 1, 2)],
    )
    def test_profile_counts(self, ex41, semantics, tests, static):
        """σ2 and σ1's s part are decided by the rule; σ1's t part is chased
        under both semantics, σ4's u part only under bag-set (u is not set
        valued, so Theorem 4.1 rules it out under bag before any test)."""
        result = sound_chase(ex41.q4, ex41.dependencies, semantics, plan_cache=PlanCache())
        reference = sound_chase_reference(ex41.q4, ex41.dependencies, semantics)
        assert (result.query, result.steps) == (reference.query, reference.steps)
        assert result.profile.assignment_fixing_tests == tests
        assert result.profile.assignment_fixing_static == static
        assert result.profile.assignment_fixing_cache_hits == 0

    def test_session_stats_and_cli_profile(self, ex41, capsys, monkeypatch):
        session = Session(dependencies=ex41.dependencies, plan_cache=PlanCache())
        session.decide(ex41.q4, ex41.q2, "bag-set")
        profile = session.stats()["profile"]
        assert profile["assignment_fixing_static"] == 2
        assert profile["assignment_fixing_tests"] == 3

        # The CLI's Session serves its plans from the process-wide cache.
        monkeypatch.setattr(chase_plans, "_DEFAULT_PLAN_CACHE", PlanCache())
        code = main([
            "chase",
            "--query", "Q4(X) :- p(X,Y)",
            "--dependencies", "\n".join(map(render_dependency, ex41.dependencies)),
            "--set-valued", "s,t",
            "--semantics", "bag-set",
            "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "assignment-fixing: 2 test chases, 0 memo hits, 2 decided without a chase" in out


class TestChainFixture:
    @pytest.mark.parametrize("semantics", SOUND_SEMANTICS)
    def test_every_inclusion_step_is_decided_statically(self, semantics):
        chain = chain_workload(6)
        prefix = chain.query.with_body(chain.query.body[:1])
        result = sound_chase(prefix, chain.dependencies, semantics)
        reference = sound_chase_reference(prefix, chain.dependencies, semantics)
        assert (result.query, result.steps) == (reference.query, reference.steps)
        assert result.profile.tgd_steps == 5
        assert result.profile.assignment_fixing_static == 5
        assert result.profile.assignment_fixing_tests == 0


# --------------------------------------------------------------------------- #
# The gates
# --------------------------------------------------------------------------- #
KEYED_SIGMA = """
p(X,Y) -> s(X,Z)
s(X,Y) & s(X,Z) -> Y = Z
"""


class TestGates:
    def test_constant_in_sigma_disables_the_rule(self):
        sigma = parse_dependencies(KEYED_SIGMA + "p(X,Y) -> f(X, 1)\n")
        rule = _rule(sigma)
        tgd = sigma.tgds()[0]
        assert not rule.constant_free
        assert rule.is_key_determined(tgd)
        assert not rule.decides(parse_query("Q(X) :- p(X,Y)"), tgd)

    def test_query_constant_in_an_inert_atom_is_allowed(self):
        sigma = parse_dependencies(KEYED_SIGMA)
        tgd = sigma.tgds()[0]
        assert _rule(sigma).decides(parse_query("Q(X) :- p(X,Y), w(Y, 7)"), tgd)
        # Head constants never enter a trigger.
        assert _rule(sigma).decides(parse_query("Q(X, 3) :- p(X,Y)"), tgd)

    @pytest.mark.parametrize(
        "text", ["Q(X) :- p(X, 7)", "Q(X) :- p(X,Y), s(Y, 7)", "Q(X) :- p(X,Y), s(7, Y)"]
    )
    def test_query_constant_in_a_premise_predicate_disables_the_rule(self, text):
        sigma = parse_dependencies(KEYED_SIGMA)
        assert not _rule(sigma).decides(parse_query(text), sigma.tgds()[0])

    def test_constant_clash_still_fails_the_test_chase(self):
        """Gate 3 exists for this: the s-copies' witnesses are equated with
        the constants 1 and 2, so the test chase fails instead of
        answering True."""
        sigma = parse_dependencies(KEYED_SIGMA + "s(X,Y) & c(X,V) -> Y = V\n")
        query = parse_query("Q(X) :- p(X,Y), c(X, 1), c(X, 2)")
        tgd = sigma.tgds()[0]
        assert not _rule(sigma).decides(query, tgd)
        (hom,) = iter_applicable_tgd_homomorphisms(query, tgd)
        with pytest.raises(ChaseFailedError):
            is_assignment_fixing_for(query, tgd, hom, sigma)
        with pytest.raises(ChaseFailedError):
            _is_assignment_fixing_for(query, tgd, hom, list(sigma), 100)

    def test_tgd_from_outside_sigma_needs_constant_free_triggers(self):
        """A tgd whose premise Σ never mentions can map into constants that
        gate 3 does not see; the rule leaves such a tgd to the test chase."""
        sigma = parse_dependencies(
            "r(X,Y,Z) & r(X,Y,W) -> Z = W\nr(X,Y,Z) & c(X) -> X = Y\nr(X,Y,Z) -> c(X)"
        )
        foreign = parse_dependencies("p(X,Y) -> r(X,Y,Z)").tgds()[0]
        query = parse_query("Q(A) :- p(1, 2), a(A)")
        assert not _rule(sigma).is_key_determined(foreign)
        (hom,) = iter_applicable_tgd_homomorphisms(query, foreign)
        with pytest.raises(ChaseFailedError):
            is_assignment_fixing_for(query, foreign, hom, sigma)
        with pytest.raises(ChaseFailedError):
            _is_assignment_fixing_for(query, foreign, hom, list(sigma), 100)

    @pytest.mark.parametrize(
        "extra, text",
        [
            # A constant in an atom whose predicate a premise mentions.
            ("", "Q(X) :- p(X,Y), p(X, 7)"),
            # A constant in Σ (the keyed tgd itself stays constant free).
            ("p(X,Y) & w(X) -> f(X, 1)\n", "Q(X) :- p(X,Y)"),
        ],
    )
    @pytest.mark.parametrize("semantics", SOUND_SEMANTICS)
    def test_failed_gates_still_run_the_test_chase(self, extra, text, semantics):
        """The sound chase decides gates 2 and 3 once per run: when either
        fails on the start state, every trigger of the keyed tgd still goes
        through the Definition 4.3 test chase, and the steps are the
        reference engine's."""
        sigma = DependencySet(
            parse_dependencies(KEYED_SIGMA + extra).dependencies, ["s", "f"]
        )
        query = parse_query(text)
        result = sound_chase(query, sigma, semantics, plan_cache=PlanCache())
        reference = sound_chase_reference(query, sigma, semantics)
        assert [str(step) for step in result.steps] == [
            str(step) for step in reference.steps
        ]
        assert result.query == reference.query
        assert result.profile.tgd_steps > 0
        assert result.profile.assignment_fixing_tests > 0
        assert result.profile.assignment_fixing_static == 0

    def test_classification_is_built_once_per_compiled_sigma(self):
        sigma = parse_dependencies(KEYED_SIGMA)
        plans = default_plan_cache().plans_for(sigma)
        assert plans.assignment_fixing_rule() is plans.assignment_fixing_rule()


# --------------------------------------------------------------------------- #
# The verdict memo of a compiled Σ
# --------------------------------------------------------------------------- #
#: A key on s that binds only where ok(X, 1) holds: no rule decides the tgd
#: (the egd is no fd, and Σ holds a constant), so every trigger is tested.
GUARDED_SIGMA = """
p(X,Y) -> s(X,Z)
s(X,Y) & s(X,Z) & ok(X, 1) -> Y = Z
"""


class TestVerdictMemo:
    @staticmethod
    def _ask(cache, text, max_steps=MAX_STEPS, trigger=0):
        """Definition 4.3 on one trigger of GUARDED_SIGMA's tgd: (verdict, profile)."""
        sigma = parse_dependencies(GUARDED_SIGMA)
        query = parse_query(text)
        tgd = sigma.tgds()[0]
        hom = list(iter_applicable_tgd_homomorphisms(query, tgd))[trigger]
        profile = ChaseProfile()
        verdict = is_assignment_fixing_for(
            query, tgd, hom, sigma, max_steps, profile=profile, plan_cache=cache
        )
        assert verdict == _is_assignment_fixing_for(query, tgd, hom, list(sigma), max_steps)
        return verdict, (profile.assignment_fixing_tests, profile.assignment_fixing_cache_hits)

    @staticmethod
    def _verdicts(cache):
        return cache.plans_for(parse_dependencies(GUARDED_SIGMA)).verdicts

    def test_a_fresh_plan_cache_starts_empty(self):
        assert len(self._verdicts(PlanCache())) == 0

    def test_an_alpha_variant_hits(self):
        cache = PlanCache()
        assert self._ask(cache, "Q(A) :- p(A,B), ok(A, 1)") == (True, (1, 0))
        assert self._ask(cache, "Q(U) :- p(U,V), ok(U, 1)") == (True, (0, 1))
        assert len(self._verdicts(cache)) == 1

    def test_a_constant_and_a_variable_at_one_position_differ(self):
        cache = PlanCache()
        assert self._ask(cache, "Q(A) :- p(A,B), ok(A, 1)") == (True, (1, 0))
        assert self._ask(cache, "Q(A) :- p(A,B), ok(A, C)") == (False, (1, 0))
        assert len(self._verdicts(cache)) == 2

    def test_frontier_images_are_part_of_the_key(self):
        cache = PlanCache()
        text = "Q(A) :- p(A,B), p(C,D), ok(A, 1)"
        assert self._ask(cache, text, trigger=0) == (True, (1, 0))
        assert self._ask(cache, text, trigger=1) == (False, (1, 0))
        assert self._ask(cache, text, trigger=0) == (True, (0, 1))

    def test_the_step_budget_is_part_of_the_key(self):
        """One round applies the egd and the next finds the fixpoint, so a
        budget of 1 exhausts where a larger one answers True."""
        cache = PlanCache()
        text = "Q(A) :- p(A,B), ok(A, 1)"
        assert self._ask(cache, text, max_steps=2) == (True, (1, 0))
        sigma = parse_dependencies(GUARDED_SIGMA)
        query = parse_query(text)
        (hom,) = iter_applicable_tgd_homomorphisms(query, sigma.tgds()[0])
        with pytest.raises(ChaseNonTerminationError):
            is_assignment_fixing_for(query, sigma.tgds()[0], hom, sigma, 1, plan_cache=cache)
        assert len(self._verdicts(cache)) == 1

    def test_invalidate_and_eviction_drop_the_verdicts(self):
        text = "Q(A) :- p(A,B), ok(A, 1)"
        cache = PlanCache()
        self._ask(cache, text)
        cache.invalidate()
        assert len(self._verdicts(cache)) == 0
        assert self._ask(cache, text) == (True, (1, 0))

        cache = PlanCache(maxsize=1)
        self._ask(cache, text)
        cache.plans_for(parse_dependencies(KEYED_SIGMA))
        assert cache.evictions >= 1
        assert self._ask(cache, text) == (True, (1, 0))

    def test_the_bound_holds_least_recently_used_first_out(self):
        cache = PlanCache()
        text = "Q(A) :- p(A,B), ok(A, 1)"
        for budget in range(2, VERDICT_MEMO_SIZE + 4):
            self._ask(cache, text, max_steps=budget)
        assert len(self._verdicts(cache)) == VERDICT_MEMO_SIZE
        # Budgets 2 and 3 are out; a hit makes 4 the most recently used, so
        # asking 2 again evicts 5.
        assert self._ask(cache, text, max_steps=4) == (True, (0, 1))
        assert self._ask(cache, text, max_steps=2) == (True, (1, 0))
        assert self._ask(cache, text, max_steps=4) == (True, (0, 1))
        assert self._ask(cache, text, max_steps=5) == (True, (1, 0))
        assert len(self._verdicts(cache)) == VERDICT_MEMO_SIZE

    def test_threads_share_one_memo(self, monkeypatch):
        """Four threads ask eight verdicts of a four-entry memo, switching
        often: hits race evictions, and every answer stays right."""
        monkeypatch.setattr(assignment_fixing, "VERDICT_MEMO_SIZE", 4)
        cache = PlanCache()
        sigma = parse_dependencies(GUARDED_SIGMA)
        query = parse_query("Q(A) :- p(A,B), ok(A, 1)")
        tgd = sigma.tgds()[0]
        (hom,) = iter_applicable_tgd_homomorphisms(query, tgd)
        answers: list[bool] = []
        errors: list[BaseException] = []

        def ask(seed):
            rng = random.Random(seed)
            try:
                for _ in range(2500):
                    budget = rng.randrange(2, 10)
                    answers.append(
                        is_assignment_fixing_for(query, tgd, hom, sigma, budget, plan_cache=cache)
                    )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert answers == [True] * 10000
        assert len(self._verdicts(cache)) <= 4


# --------------------------------------------------------------------------- #
# Seeded differential campaign
# --------------------------------------------------------------------------- #
def _random_sigma(rng: random.Random) -> tuple[DependencySet, dict[str, int]]:
    """Random fd-keyed Σ: keyed relations, tgds into them, some multi-atom."""
    arities = {f"q{i}": rng.randint(1, 3) for i in range(5)}
    names = list(arities)
    dependencies = []
    for name, arity in arities.items():
        if arity >= 2 and rng.random() < 0.7:
            key = sorted(rng.sample(range(arity), rng.randint(1, arity - 1)))
            dependencies.extend(key_egds(name, arity, key, name_prefix=f"key_{name}"))
    pool = [Variable(v) for v in "XYZUVW"]
    for index in range(rng.randint(1, 4)):
        premise = []
        for _ in range(rng.randint(1, 2)):
            name = rng.choice(names)
            premise.append(Atom(name, [rng.choice(pool[:3]) for _ in range(arities[name])]))
        universal = sorted({v for atom in premise for v in atom.variables()}, key=str)
        existential = [Variable(f"E{index}{k}") for k in range(2)]
        conclusion = []
        for _ in range(rng.randint(1, 2)):
            name = rng.choice(names)
            conclusion.append(
                Atom(name, [rng.choice(universal + existential) for _ in range(arities[name])])
            )
        dependencies.append(TGD(premise, conclusion, name=f"tgd{index}"))
    return DependencySet(dependencies), arities


def _random_query(rng: random.Random, arities: dict[str, int]) -> ConjunctiveQuery:
    pool = [Variable(v) for v in ("A", "B", "C", "D")]
    body = []
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(list(arities))
        body.append(Atom(name, [rng.choice(pool) for _ in range(arities[name])]))
    return ConjunctiveQuery("Q", [next(body[0].variables(), Constant(0))], body)


def _shaped_case(rng: random.Random, shape: str):
    if shape == "chain":
        workload = chain_workload(rng.randint(3, 6))
    elif shape == "star":
        workload = star_workload(rng.randint(2, 5), rng.randint(0, 2))
    else:
        workload = orders_workload()
    body = list(workload.query.body)
    chosen = [atom for atom in body if rng.random() < 0.6] or body[:1]
    head = [next(chosen[0].variables())]
    return ConjunctiveQuery("Q", head, chosen), workload.dependencies


def _multi_atom_case(rng: random.Random):
    """Conclusions whose atoms share an existential, keyed or not."""
    keyed = rng.random() < 0.7
    sigma = parse_dependencies(
        """
        p(X,Y) -> r(X,Z) & s(X,Z,W)
        p(X,Y) -> r(Y,Z) & u(Z,W)
        r(X,Y) & r(X,Z) -> Y = Z
        """
        + ("s(X,Y,Z) & s(X,V,W) -> Y = V\ns(X,Y,Z) & s(X,V,W) -> Z = W\n" if keyed else "")
        + ("u(X,Y) & u(X,Z) -> Y = Z\n" if rng.random() < 0.5 else "")
    )
    query = parse_query(
        rng.choice(
            [
                "Q(X) :- p(X,Y)",
                "Q(X) :- p(X,Y), r(X,Z)",
                "Q(X) :- p(X,Y), p(Y,X)",
                "Q(X) :- p(X,X), u(X,Y)",
            ]
        )
    )
    return query, sigma


def _with_constants(rng: random.Random, query, sigma):
    """Sometimes add a constant: in an inert atom, in an atom some premise
    mentions, or (gate 2) in a conclusion of Σ."""
    roll = rng.random()
    variable = next(query.body[0].variables(), Constant(0))
    if roll < 0.2:
        query = query.add_atoms([Atom("inert", [variable, Constant(rng.choice([1, 2]))])])
    elif roll < 0.4:
        atom = rng.choice(query.body)
        if atom.arity:
            position = rng.randrange(atom.arity)
            terms = list(atom.terms)
            terms[position] = Constant(rng.choice([1, 2]))
            query = query.add_atoms([Atom(atom.predicate, terms)])
    elif roll < 0.5:
        premise = query.body[0]
        flagged = TGD([premise], [Atom("flag", [*premise.terms[:1], Constant(1)])], "flag")
        sigma = DependencySet([*sigma, flagged], sigma.set_valued_predicates)
    return query, sigma


def _campaign_case(seed: int):
    rng = random.Random(seed)
    shape = ("chain", "star", "orders", "random", "random", "multi")[seed % 6]
    if shape == "random":
        while True:
            sigma, arities = _random_sigma(rng)
            if is_weakly_acyclic(sigma):
                break
        query = _random_query(rng, arities)
    elif shape == "multi":
        query, sigma = _multi_atom_case(rng)
    else:
        query, sigma = _shaped_case(rng, shape)
    query, sigma = _with_constants(rng, query, sigma)
    set_valued = {atom.predicate for dep in sigma.tgds() for atom in dep.conclusion}
    if rng.random() < 0.5:
        set_valued = {p for p in set_valued if rng.random() < 0.7}
    return shape, query, DependencySet(list(sigma), set_valued)


def _forced_verdict(query, tgd, hom, items):
    """The reference engine's Definition 4.3 verdict, test chase and all."""
    try:
        return _is_assignment_fixing_for(query, tgd, hom, items, MAX_STEPS)
    except ChaseNonTerminationError:
        return "budget"
    except ChaseFailedError:
        return "failed"


def _outcome(chase, query, sigma, semantics):
    try:
        result = chase(query, sigma, semantics, MAX_STEPS)
    except ChaseNonTerminationError:
        return "budget", None
    except ChaseFailedError:
        return "failed", None
    return "terminated", result


class TestDifferentialCampaign:
    def test_rule_agrees_with_the_test_chase_and_the_reference(self):
        tallies = {"decided": 0, "declined_keyed": 0, "chased": 0, "chases": 0}
        shapes: set[str] = set()
        for seed in range(CAMPAIGN_CASES):
            shape, query, sigma = _campaign_case(seed)
            shapes.add(shape)
            plans = default_plan_cache().plans_for(sigma)
            rule = plans.assignment_fixing_rule()
            items = plans.dependency_set()
            for tgd in plans.tgds:
                if tgd.is_full():
                    continue
                for hom in iter_applicable_tgd_homomorphisms(query, tgd):
                    forced = _forced_verdict(query, tgd, hom, list(plans.items))
                    if rule.decides(query, tgd):
                        tallies["decided"] += 1
                        assert forced in (True, "budget"), (seed, str(tgd), forced)
                        continue
                    tallies["declined_keyed" if rule.is_key_determined(tgd) else "chased"] += 1
                    if forced in ("budget", "failed"):
                        continue
                    assert is_assignment_fixing_for(query, tgd, hom, items, MAX_STEPS) == forced
            for semantics in SOUND_SEMANTICS:
                fast = _outcome(sound_chase, query, sigma, semantics)
                slow = _outcome(sound_chase_reference, query, sigma, semantics)
                assert fast[0] == slow[0], (seed, semantics, fast[0], slow[0])
                if fast[1] is not None:
                    assert fast[1].query == slow[1].query, (seed, semantics)
                    assert fast[1].steps == slow[1].steps, (seed, semantics)
                    tallies["chases"] += 1
        assert CAMPAIGN_CASES >= 300
        assert shapes == {"chain", "star", "orders", "random", "multi"}
        # The rule decided a real share of the triggers, and the gates sent
        # some key-determined triggers back to the test chase.
        assert tallies["decided"] >= 200
        assert tallies["declined_keyed"] >= 20
        assert tallies["chased"] >= 50
        assert tallies["chases"] >= 500

    def test_every_case_twice_on_one_plan_cache(self):
        """The second chase of each case finds every tested verdict in the
        compiled Σ's memo and still applies exactly the reference's steps."""
        cache = PlanCache()
        hits = 0
        for seed in range(CAMPAIGN_CASES):
            _, query, sigma = _campaign_case(seed)
            for semantics in SOUND_SEMANTICS:
                slow = _outcome(sound_chase_reference, query, sigma, semantics)
                runs = [
                    _outcome(
                        lambda *args: sound_chase(*args, plan_cache=cache),
                        query, sigma, semantics,
                    )
                    for _ in range(2)
                ]
                for outcome, result in runs:
                    assert outcome == slow[0], (seed, semantics, outcome, slow[0])
                    if result is not None:
                        assert (result.query, result.steps) == (
                            slow[1].query, slow[1].steps
                        ), (seed, semantics)
                first, second = (result for _, result in runs)
                if first is None:
                    continue
                assert second.profile.assignment_fixing_tests == 0, (seed, semantics)
                assert second.profile.assignment_fixing_cache_hits == (
                    first.profile.assignment_fixing_tests
                    + first.profile.assignment_fixing_cache_hits
                ), (seed, semantics)
                hits += second.profile.assignment_fixing_cache_hits
        assert hits >= 100
