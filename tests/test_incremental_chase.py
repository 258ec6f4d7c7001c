"""Tests for the incremental chase (src/repro/chase/incremental.py).

Covers the checkpoint round trip, monotone resume vs cold equivalence
(Example 4.1 deltas plus a seeded 300-case campaign through the fuzz
oracle's incremental leg), the non-monotone / name-collision fallbacks, the
Session ``apply_delta`` integration (cache write-through, stats counters,
strict-precheck atomicity), the serve wire path (``apply-delta`` op and the
``delta-rejected`` error code), and the incremental view maintainer.
"""

from __future__ import annotations

import json

import pytest

from repro.chase import sound_chase
from repro.chase.incremental import (
    ChaseCheckpoint,
    ChaseDelta,
    ResumableChase,
    chase_with_checkpoint,
    has_applicable_step,
    resume_chase,
    validate_delta,
)
from repro.core import are_isomorphic, is_set_equivalent
from repro.core.bag_equivalence import is_bag_set_equivalent
from repro.datalog import parse_dependencies, parse_dependency, parse_query, render_query
from repro.datalog.parser import parse_atoms
from repro.dependencies import DependencySet
from repro.exceptions import DeltaRejectedError, PrecheckFailedError
from repro.semantics import Semantics
from repro.serve import ReproClient, ReproServer, ServerError
from repro.session import Session
from repro.session.engine import CHECKPOINT_CACHE_SIZE
from repro.views import IncrementalViewRewriter, ViewDefinition, ViewSet, rewrite_query_using_views

ALL_SEMANTICS = (Semantics.SET, Semantics.BAG_SET, Semantics.BAG)


def _atoms(text: str):
    return tuple(parse_atoms(text))


def _delta_atoms(text: str) -> ChaseDelta:
    return ChaseDelta.atoms(*parse_atoms(text))


# --------------------------------------------------------------------------- #
class TestChaseDelta:
    def test_empty_and_monotone(self):
        assert ChaseDelta().is_empty
        delta = _delta_atoms("p(X, Y)")
        assert not delta.is_empty
        assert delta.is_monotone
        removal = ChaseDelta(removed_atoms=_atoms("p(X, Y)"))
        assert not removal.is_monotone

    def test_validate_rejects_empty(self, ex41):
        with pytest.raises(DeltaRejectedError) as excinfo:
            validate_delta(ex41.q4, ex41.dependencies, ChaseDelta())
        assert excinfo.value.reason == "empty-delta"

    def test_validate_rejects_unknown_removals(self, ex41):
        with pytest.raises(DeltaRejectedError) as excinfo:
            validate_delta(
                ex41.q4,
                ex41.dependencies,
                ChaseDelta(removed_atoms=_atoms("zzz(X)")),
            )
        assert excinfo.value.reason == "unknown-atom"
        with pytest.raises(DeltaRejectedError) as excinfo:
            validate_delta(
                ex41.q4,
                ex41.dependencies,
                ChaseDelta(
                    removed_dependencies=tuple(
                        parse_dependency("q(X) -> q2(X)", "nope")
                    )
                ),
            )
        assert excinfo.value.reason == "unknown-dependency"

    def test_validate_rejects_arity_conflicts(self, ex41):
        with pytest.raises(DeltaRejectedError) as excinfo:
            validate_delta(ex41.q4, ex41.dependencies, _delta_atoms("p(X)"))
        assert excinfo.value.reason == "arity-conflict"

    def test_unsafe_removal_rejected(self, ex41):
        _, checkpoint = chase_with_checkpoint(
            ex41.q4, ex41.dependencies, Semantics.SET
        )
        # Removing the only atom binding the head variable is rejected and
        # does not fall back to a cold chase.
        with pytest.raises(DeltaRejectedError) as excinfo:
            resume_chase(
                checkpoint, ChaseDelta(removed_atoms=tuple(ex41.q4.body))
            )
        assert excinfo.value.reason == "unsafe-removal"


# --------------------------------------------------------------------------- #
class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_json_round_trip_preserves_state(self, ex41, semantics):
        _, checkpoint = chase_with_checkpoint(
            ex41.q3, ex41.dependencies, semantics
        )
        payload = json.loads(json.dumps(checkpoint.as_dict()))
        clone = ChaseCheckpoint.from_dict(payload)
        assert clone.base_query == checkpoint.base_query
        assert clone.result.query == checkpoint.result.query
        assert clone.semantics == checkpoint.semantics
        assert clone.max_steps == checkpoint.max_steps
        assert clone.used_names == checkpoint.used_names
        assert clone.egd_clean == checkpoint.egd_clean
        assert clone.tgd_clean == checkpoint.tgd_clean
        # Records are compared by rendered form: dependency equality is
        # identity-based, so the parsed twins are structurally equal twins.
        assert [str(s) for s in clone.result.steps] == [
            str(s) for s in checkpoint.result.steps
        ]

    def test_clone_is_resumable(self):
        """A parsed-back checkpoint replays the bag-set record path."""
        deps = parse_dependencies("e(X, Y) -> f(X, Y)")
        _, checkpoint = chase_with_checkpoint(
            parse_query("Q(X) :- e(X, Y)"), deps, Semantics.BAG_SET
        )
        clone = ChaseCheckpoint.from_dict(
            json.loads(json.dumps(checkpoint.as_dict()))
        )
        delta = _delta_atoms("e(X, Y2)")
        original = resume_chase(checkpoint, delta)
        replayed = resume_chase(clone, delta)
        assert original.resumed and replayed.resumed
        assert str(original.result.query) == str(replayed.result.query)
        assert original.new_steps == replayed.new_steps == 1


# --------------------------------------------------------------------------- #
class TestResumeVsCold:
    """Example 4.1 grown delta by delta, resumed vs cold, all semantics."""

    #: Q4 grown to Q1 one subgoal at a time (the Example 4.1 ladder).
    LADDER = ["t(X, Y, W)", "s(X, Z)", "r(X)", "u(X, U)"]

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_ladder_equivalent_to_cold(self, ex41, semantics):
        """Every ladder state: fixpoint + Σ-equivalence, resumed or not.

        Under set semantics every delta resumes.  Under bag / bag-set the
        ladder atoms extend recorded trigger conclusions, so the replay
        validation correctly abandons some steps and falls back cold — the
        outcome must be equivalent either way, and the fallback reason must
        be one of the replay-validation slugs.
        """
        _, checkpoint = chase_with_checkpoint(
            ex41.q4, ex41.dependencies, semantics
        )
        session = Session(dependencies=ex41.dependencies)
        strategy = session.strategy_for(semantics)
        for text in self.LADDER:
            outcome = resume_chase(checkpoint, _delta_atoms(text))
            if semantics is Semantics.SET:
                assert outcome.resumed, outcome.fallback_reason
            elif not outcome.resumed:
                assert outcome.fallback_reason.startswith("replay-"), (
                    outcome.fallback_reason
                )
            checkpoint = outcome.checkpoint
            cold = sound_chase(
                checkpoint.base_query, ex41.dependencies, semantics
            )
            # The resumed terminal state is a genuine fixpoint...
            assert not has_applicable_step(
                outcome.result.query, ex41.dependencies, semantics
            )
            # ... and Σ-equivalent to the cold chase of the same state.
            assert strategy.equivalent_chased(
                outcome.result.query, cold.query, ex41.dependencies
            )

    @pytest.mark.parametrize("semantics", (Semantics.BAG, Semantics.BAG_SET))
    def test_full_tgd_replay_resumes(self, semantics):
        """Record replay succeeds when deltas leave recorded triggers valid."""
        from repro.paperlib import clique_workload

        workload = clique_workload(5)
        base = workload.query.with_body(workload.query.body[:-1])
        added = workload.query.body[-1]
        _, checkpoint = chase_with_checkpoint(
            base, workload.dependencies, semantics
        )
        outcome = resume_chase(checkpoint, ChaseDelta.atoms(added))
        assert outcome.resumed, outcome.fallback_reason
        assert outcome.replayed_steps == checkpoint.result.step_count
        assert outcome.new_steps > 0
        cold = sound_chase(
            outcome.checkpoint.base_query, workload.dependencies, semantics
        )
        assert is_bag_set_equivalent(outcome.result.query, cold.query)

    @pytest.mark.parametrize("semantics", (Semantics.BAG, Semantics.BAG_SET))
    def test_profile_counts_the_replay_work(self, semantics):
        """The replay re-checks the recorded non-full tgd step by Definition
        4.3 (here settled by the key-determined rule); the resumed run's
        profile counts that work, as its wall time covers it.  The
        continuation itself finds nothing to do."""
        sigma = parse_dependencies(
            "p(X,Y) -> t(X,Y,W)\nt(X,Y,Z) & t(X,Y,W) -> Z = W", set_valued=["t"]
        )
        result, checkpoint = chase_with_checkpoint(
            parse_query("Q(X) :- p(X,Y)"), sigma, semantics
        )
        assert [step.kind for step in result.steps] == ["tgd"]
        outcome = resume_chase(checkpoint, _delta_atoms("r(X)"))
        assert outcome.resumed, outcome.fallback_reason
        assert (outcome.replayed_steps, outcome.new_steps) == (1, 0)
        profile = outcome.result.profile
        assert (
            profile.assignment_fixing_tests
            + profile.assignment_fixing_static
            + profile.assignment_fixing_cache_hits
        ) >= 1

    def test_final_state_matches_q1_chase(self, ex41):
        _, checkpoint = chase_with_checkpoint(
            ex41.q4, ex41.dependencies, Semantics.SET
        )
        for text in self.LADDER:
            checkpoint = resume_chase(checkpoint, _delta_atoms(text)).checkpoint
        assert are_isomorphic(checkpoint.base_query, ex41.q1) or is_set_equivalent(
            sound_chase(checkpoint.base_query, ex41.dependencies, Semantics.SET).query,
            sound_chase(ex41.q1, ex41.dependencies, Semantics.SET).query,
        )

    def test_sigma_delta_resumes(self, ex41):
        base_sigma = DependencySet(
            [d for d in ex41.dependencies if d.name != "sigma4"],
            ex41.dependencies.set_valued_predicates,
        )
        sigma4 = next(d for d in ex41.dependencies if d.name == "sigma4")
        _, checkpoint = chase_with_checkpoint(ex41.q1, base_sigma, Semantics.SET)
        outcome = resume_chase(checkpoint, ChaseDelta.dependencies(sigma4))
        assert outcome.resumed
        cold = sound_chase(ex41.q1, outcome.checkpoint.sigma, Semantics.SET)
        assert is_set_equivalent(outcome.result.query, cold.query)

    def test_steps_saved_accounting(self, ex41):
        result, checkpoint = chase_with_checkpoint(
            ex41.q4, ex41.dependencies, Semantics.SET
        )
        outcome = resume_chase(checkpoint, _delta_atoms("u(X, U)"))
        assert outcome.resumed
        assert outcome.replayed_steps == result.step_count
        assert outcome.steps_saved == result.step_count
        assert outcome.result.step_count == outcome.replayed_steps + outcome.new_steps


class TestFallbacks:
    def test_non_monotone_delta_falls_back_cold(self, ex41):
        _, checkpoint = chase_with_checkpoint(
            ex41.q3, ex41.dependencies, Semantics.SET
        )
        removable = checkpoint.base_query.body[1]  # t(...): X stays bound via p
        outcome = resume_chase(checkpoint, ChaseDelta(removed_atoms=(removable,)))
        assert not outcome.resumed
        assert outcome.fallback_reason == "non-monotone-delta"
        assert outcome.replayed_steps == 0
        # The fallback still produces a usable checkpoint for later deltas.
        follow_up = resume_chase(outcome.checkpoint, _delta_atoms("r(X)"))
        assert follow_up.resumed

    def test_name_collision_falls_back_cold(self, ex41):
        _, checkpoint = chase_with_checkpoint(
            ex41.q4, ex41.dependencies, Semantics.SET
        )
        generated = sorted(checkpoint.chase_generated_names())
        assert generated, "expected the chase to invent labeled nulls"
        collision = parse_query(
            f"Q(X) :- p(X, {generated[0]})"
        ).body  # reuse a chase-invented name in the delta
        outcome = resume_chase(checkpoint, ChaseDelta.atoms(*collision))
        assert not outcome.resumed
        assert outcome.fallback_reason == "name-collision"

    def test_replay_sees_atoms_of_earlier_replayed_steps(self):
        """The bag replay grows one body index across its tgd records.  Here
        the delta atom s(Y) together with q(X,Y), which the first replayed
        record adds, satisfies the second record's conclusion, so that
        record is no longer a chase step and the resume must go cold."""
        sigma = parse_dependencies(
            "p(X,Y) -> q(X,Y)\n"
            "t(X) -> q(X,Z) & s(Z)\n"
            "q(X,Y) & q(X,W) -> Y = W\n"
        )
        query = parse_query("Q(X) :- p(X,Y), t(X)")
        result, checkpoint = chase_with_checkpoint(query, sigma, Semantics.BAG_SET)
        assert [step.kind for step in result.steps] == ["tgd", "tgd", "egd"]
        outcome = resume_chase(checkpoint, _delta_atoms("s(Y)"))
        assert not outcome.resumed
        assert outcome.fallback_reason == "replay-trigger-invalid"

    def test_sigma_removal_falls_back_cold(self, ex41):
        _, checkpoint = chase_with_checkpoint(
            ex41.q1, ex41.dependencies, Semantics.SET
        )
        sigma3 = next(d for d in ex41.dependencies if d.name == "sigma3")
        outcome = resume_chase(
            checkpoint, ChaseDelta(removed_dependencies=(sigma3,))
        )
        assert not outcome.resumed
        assert outcome.fallback_reason == "non-monotone-delta"
        assert len(outcome.checkpoint.sigma) == len(ex41.dependencies) - 1


# --------------------------------------------------------------------------- #
class TestSeededCampaign:
    def test_300_generated_cases_pass_the_incremental_leg(self):
        """The fuzz oracle's incremental-resume leg over 300 seeded cases."""
        from repro.fuzz.generator import generate_case
        from repro.fuzz.oracle import CaseReport, _check_incremental_resume

        mismatches = []
        for index in range(300):
            case = generate_case(7, index)
            report = CaseReport(case=case)
            _check_incremental_resume(case, report)
            mismatches.extend(str(m) for m in report.mismatches)
        assert not mismatches, mismatches[:5]

    def test_used_names_cover_the_query_at_every_driver_entry(self, monkeypatch):
        """The loop applies tgd steps through compiled plans, which check
        fresh names against the run's used-name set alone; that is exact only
        while the set holds every variable of the current query.  Spy on the
        one loop over the campaign and record which entry reached it: a cold
        run (called from repro.chase.set_chase) or a resume (called from
        repro.chase.incremental), under set or sound semantics."""
        import inspect
        from importlib import import_module

        from repro.fuzz.generator import generate_case
        from repro.fuzz.oracle import CaseReport, _check_incremental_resume

        entries: dict[tuple[str, str], int] = {}

        def spy(module, entry):
            original = module._drive_chase
            signature = inspect.signature(original)

            def checked(*args, **kwargs):
                arguments = signature.bind(*args, **kwargs).arguments
                current, used_names = arguments["current"], arguments["used_names"]
                missing = current.variable_names() - used_names
                assert not missing, f"{entry}: {sorted(missing)}"
                kind = "set" if arguments["profile"].semantics == "set" else "sound"
                key = (entry, kind)
                entries[key] = entries.get(key, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, "_drive_chase", checked)

        # The package re-exports functions named like these modules.
        spy(import_module("repro.chase.set_chase"), "cold")
        spy(import_module("repro.chase.incremental"), "resume")
        for index in range(120):
            case = generate_case(7, index)
            _check_incremental_resume(case, CaseReport(case=case))
        assert set(entries) == {
            ("cold", "set"),
            ("cold", "sound"),
            ("resume", "set"),
            ("resume", "sound"),
        }


# --------------------------------------------------------------------------- #
class TestResumableChase:
    def test_lazy_run_and_stats(self, ex41):
        chase = ResumableChase(ex41.q4, ex41.dependencies, Semantics.SET)
        stats = chase.stats()
        assert stats["cold_runs"] == 0
        first = chase.run()
        assert chase.run() is first  # memoized
        chase.apply(_delta_atoms("t(X, Y, W)"))
        stats = chase.stats()
        assert stats["cold_runs"] == 1
        assert stats["deltas_applied"] == 1
        assert stats["resumed_runs"] == 1


# --------------------------------------------------------------------------- #
class TestSessionApplyDelta:
    def test_resume_after_session_chase(self, ex41):
        session = Session(dependencies=ex41.dependencies, chase_resumable=True)
        session.chase(ex41.q4, "set")  # cold run captures a checkpoint
        outcome = session.apply_delta(
            ex41.q4, _delta_atoms("t(X, Y, W)"), "set"
        )
        assert outcome.resumed
        stats = session.stats()["incremental"]
        assert stats["resumable"] is True
        assert stats["deltas_applied"] == 1
        assert stats["resumed_runs"] == 1
        assert stats["steps_saved"] > 0

    def test_no_checkpoint_goes_cold(self, ex41):
        session = Session(dependencies=ex41.dependencies, chase_resumable=True)
        outcome = session.apply_delta(
            ex41.q4, _delta_atoms("t(X, Y, W)"), "bag-set"
        )
        assert not outcome.resumed
        assert outcome.fallback_reason == "no-checkpoint"
        assert session.stats()["incremental"]["cold_runs"] == 1

    def test_result_is_cached_for_later_chases(self, ex41):
        session = Session(dependencies=ex41.dependencies, chase_resumable=True)
        session.chase(ex41.q4, "set")
        outcome = session.apply_delta(ex41.q4, _delta_atoms("t(X, Y, W)"), "set")
        new_query = outcome.checkpoint.base_query
        hits_before = session.stats()["chase_cache"]["hits"]
        cached = session.chase(new_query, "set")
        assert cached is outcome.result
        assert session.stats()["chase_cache"]["hits"] == hits_before + 1

    def test_rejected_delta_counted_and_reraised(self, ex41):
        session = Session(dependencies=ex41.dependencies, chase_resumable=True)
        with pytest.raises(DeltaRejectedError):
            session.apply_delta(ex41.q4, ChaseDelta(), "set")
        assert session.stats()["incremental"]["deltas_rejected"] == 1

    def test_strict_precheck_keeps_session_intact(self, ex41):
        session = Session(
            dependencies=ex41.dependencies,
            chase_resumable=True,
            precheck="strict",
        )
        cyclic = parse_dependency("s(X, Y) -> s(Y, Z)", "cyclic")
        before = len(session.dependencies)
        with pytest.raises(PrecheckFailedError):
            session.apply_delta(
                ex41.q4, ChaseDelta.dependencies(*cyclic), "set"
            )
        assert len(session.dependencies) == before

    def test_sigma_catchup_after_session_sigma_grew(self, ex41):
        """A checkpoint taken under old Σ resumes after Σ grew elsewhere."""
        session = Session(dependencies=ex41.dependencies, chase_resumable=True)
        session.chase(ex41.q4, "set")
        extra = parse_dependency("u(X, Y) -> r(X)", "late")
        session.apply_delta(ex41.q2, ChaseDelta.dependencies(*extra), "set")
        # Q4's checkpoint predates the Σ growth; apply_delta folds the
        # missing suffix into the delta instead of going cold.
        outcome = session.apply_delta(ex41.q4, _delta_atoms("u(X, U)"), "set")
        assert outcome.resumed, outcome.fallback_reason

    def test_checkpoint_cache_has_its_own_bound(self, ex41):
        """The checkpoint LRU is bounded by its constant, not by cache_size."""
        session = Session(dependencies=ex41.dependencies, chase_resumable=True)
        assert session.cache.maxsize > CHECKPOINT_CACHE_SIZE
        queries = [parse_query(f"Q(X) :- p(X, Y), r({i})") for i in range(300)]
        for query in queries:
            session.chase(query, "bag-set")
        incremental = session.stats()["incremental"]
        assert incremental["checkpoints"] <= CHECKPOINT_CACHE_SIZE
        assert session.cache_stats().size == len(queries)
        outcome = session.apply_delta(queries[-1], _delta_atoms("u(X, U)"), "bag-set")
        assert outcome.resumed, outcome.fallback_reason
        # The oldest checkpoint was evicted: a delta on it runs cold.
        outcome = session.apply_delta(queries[0], _delta_atoms("u(X, U)"), "bag-set")
        assert outcome.fallback_reason == "no-checkpoint"


# --------------------------------------------------------------------------- #
@pytest.fixture()
def resumable_server(ex41):
    server = ReproServer(
        Session(dependencies=ex41.dependencies, chase_resumable=True), port=0
    )
    with server.start_in_thread() as handle:
        yield handle


@pytest.fixture()
def resumable_client(resumable_server):
    with ReproClient(resumable_server.host, resumable_server.port) as client:
        yield client


class TestServeApplyDelta:
    def test_cold_then_resumed_over_the_wire(self, resumable_client, ex41):
        query = render_query(ex41.q4)
        first = resumable_client.apply_delta(
            query, add_atoms="t(X, Y, W)", semantics="set"
        )
        assert first["resumed"] is False
        assert first["fallback_reason"] == "no-checkpoint"
        second = resumable_client.apply_delta(
            first["query"], add_atoms="s(X, Z)", semantics="set"
        )
        assert second["resumed"] is True
        assert second["replayed_steps"] > 0

    def test_sigma_delta_over_the_wire(self, resumable_client, ex41):
        query = render_query(ex41.q4)
        resumable_client.apply_delta(query, add_atoms="r(X)", semantics="set")
        result = resumable_client.apply_delta(
            "Q4(X) :- p(X, Y), r(X)",
            add_dependencies="u(X, Y) -> r(X)",
            semantics="set",
        )
        assert result["resumed"] is True
        assert result["dependencies"] == len(ex41.dependencies) + 1

    def test_delta_rejected_error_code(self, resumable_client, ex41):
        with pytest.raises(ServerError) as excinfo:
            resumable_client.apply_delta(
                render_query(ex41.q4), add_atoms="p(X)", semantics="set"
            )
        assert excinfo.value.code == "delta-rejected"
        assert excinfo.value.error["reason"] == "arity-conflict"

    def test_stats_carry_incremental_section(self, resumable_client):
        stats = resumable_client.stats()
        assert stats["incremental"]["resumable"] is True


# --------------------------------------------------------------------------- #
class TestIncrementalViewRewriter:
    @pytest.fixture()
    def setup(self):
        views = ViewSet(
            [
                ViewDefinition(
                    "v_oc",
                    parse_query("V(O, C) :- orders(O, C, P), customer(C, N)"),
                ),
                ViewDefinition(
                    "v_orders",
                    parse_query("V(O, C) :- orders(O, C, P)"),
                    distinct=True,
                ),
            ]
        )
        dependencies = parse_dependencies(
            """
            orders(O, C, P) -> customer(C, N)
            customer(C, N1) & customer(C, N2) -> N1 = N2
            """,
            set_valued=["customer"],
        )
        query = parse_query("Q(O, C) :- orders(O, C, P), customer(C, N)")
        return query, views, dependencies

    def test_matches_cold_rewriting(self, setup):
        query, views, dependencies = setup
        maintainer = IncrementalViewRewriter(query, views, dependencies)
        incremental = maintainer.rewrite()
        cold = rewrite_query_using_views(query, views, dependencies)
        assert len(incremental.rewritings) == len(cold.rewritings)
        for rewriting in incremental.rewritings:
            assert any(
                are_isomorphic(rewriting, other) for other in cold.rewritings
            )

    def test_atom_delta_resumes_and_matches_cold(self, setup):
        query, views, dependencies = setup
        maintainer = IncrementalViewRewriter(query, views, dependencies)
        maintainer.rewrite()
        result = maintainer.add_atoms(parse_atoms("customer(C, N2)"))
        assert maintainer.stats()["resumed_runs"] == 1
        cold = rewrite_query_using_views(maintainer.query, views, dependencies)
        assert len(result.rewritings) == len(cold.rewritings)

    def test_dependency_delta_resumes(self, setup):
        query, views, dependencies = setup
        maintainer = IncrementalViewRewriter(query, views, dependencies)
        maintainer.rewrite()
        extra = parse_dependency("customer(C, N) -> region(C, R)", "extra")
        result = maintainer.add_dependencies(extra)
        assert maintainer.stats()["resumed_runs"] == 1
        assert len(maintainer.dependencies) == len(dependencies) + 1
        cold = rewrite_query_using_views(
            maintainer.query, views, maintainer.dependencies
        )
        assert len(result.rewritings) == len(cold.rewritings)

    def test_view_predicates_rejected_in_deltas(self, setup):
        from repro.exceptions import ReformulationError

        query, views, dependencies = setup
        maintainer = IncrementalViewRewriter(query, views, dependencies)
        with pytest.raises(ReformulationError):
            maintainer.add_atoms(parse_atoms("v_oc(O, C)"))
