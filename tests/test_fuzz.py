"""Tests for the fuzz subsystem: generator, oracle, shrinker, corpus, CLI.

The differential campaigns themselves run in CI (``repro fuzz --cases 150
--seed 0`` as a deterministic smoke step, a 5k-case nightly soak); the tests
here pin the machinery *around* those campaigns — determinism, generated-Σ
invariants, shape coverage, that the oracle actually catches an injected
engine divergence, 1-minimality of shrinking, and corpus round trips.
"""

from __future__ import annotations

import json

import pytest

from repro.chase.sound_chase import sound_chase
from repro.core.atoms import Atom
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.dependencies.base import EGD, TGD, DependencySet
from repro.dependencies.regularize import is_regularized_set
from repro.dependencies.weak_acyclicity import is_weakly_acyclic
from repro.cli import main
from repro.fuzz import (
    FuzzCase,
    GeneratorConfig,
    case_from_dict,
    case_to_dict,
    generate_case,
    generate_cases,
    run_campaign,
    run_oracle,
    shrink_case,
    with_max_steps,
)
from repro.fuzz.corpus import CorpusError, load_corpus_file, save_case
from repro.semantics import Semantics


class TestGenerator:
    def test_same_seed_same_cases(self):
        for index in (0, 7, 23):
            first = generate_case(11, index)
            second = generate_case(11, index)
            assert first.query == second.query
            assert first.other == second.other
            assert list(first.dependencies) == list(second.dependencies)
            assert (
                first.dependencies.set_valued_predicates
                == second.dependencies.set_valued_predicates
            )

    def test_different_seeds_differ(self):
        cases_a = generate_cases(0, 20)
        cases_b = generate_cases(1, 20)
        assert any(
            a.query != b.query or a.other != b.other
            for a, b in zip(cases_a, cases_b)
        )

    def test_sigma_blocks_share_dependencies(self):
        config = GeneratorConfig(sigma_block_size=5)
        block = [generate_case(3, index, config) for index in range(5)]
        outside = generate_case(3, 5, config)
        assert all(
            list(case.dependencies) == list(block[0].dependencies)
            for case in block
        )
        # The next block redraws Σ (vocabulary or dependencies change).
        assert list(outside.dependencies) != list(block[0].dependencies) or (
            outside.dependencies.set_valued_predicates
            != block[0].dependencies.set_valued_predicates
            or outside.arities() != block[0].arities()
        )

    def test_generated_sigma_is_regularized_and_weakly_acyclic(self):
        for case in generate_cases(5, 60):
            assert is_regularized_set(case.dependencies)
            assert is_weakly_acyclic(case.dependencies)

    def test_generated_queries_are_safe_and_arity_consistent(self):
        for case in generate_cases(2, 60):
            assert case.query.body and case.other.body
            assert case.has_consistent_arities()
            assert 1 <= len(case.query.head_terms)

    def test_shape_coverage(self):
        """The generator must keep producing the rare shapes it exists for."""
        cases = generate_cases(0, 300)
        self_join = constant_in_query = repeated_var_in_atom = False
        conclusion_constant = has_egd = has_set_valued = duplicate_mutation = False
        for case in cases:
            predicates = [atom.predicate for atom in case.query.body]
            self_join |= len(predicates) != len(set(predicates))
            constant_in_query |= any(
                isinstance(t, Constant)
                for atom in case.query.body
                for t in atom.terms
            )
            repeated_var_in_atom |= any(
                len([t for t in atom.terms if t == v]) > 1
                for atom in case.query.body
                for v in atom.variables()
            )
            for dependency in case.dependencies:
                if isinstance(dependency, TGD):
                    conclusion_constant |= any(
                        isinstance(t, Constant)
                        for atom in dependency.conclusion
                        for t in atom.terms
                    )
                has_egd |= isinstance(dependency, EGD)
            has_set_valued |= bool(case.dependencies.set_valued_predicates)
            duplicate_mutation |= len(case.other.body) == len(case.query.body) + 1 and (
                case.other.body[-1] in case.query.body
            )
        assert self_join and constant_in_query and repeated_var_in_atom
        assert conclusion_constant and has_egd and has_set_valued
        assert duplicate_mutation

    def test_with_max_steps(self):
        case = generate_case(0, 0)
        tightened = with_max_steps(case, 3)
        assert tightened.max_steps == 3 and tightened.query == case.query

    def test_generate_block_matches_per_case_generation(self):
        from repro.fuzz import generate_block

        config = GeneratorConfig(sigma_block_size=4)
        block = generate_block(6, 1, config, stop=7)
        assert [case.index for case in block] == [4, 5, 6]
        for case in block:
            assert case == generate_case(6, case.index, config)

    def test_sigma_block_size_zero_means_fresh_sigma_per_case(self):
        config = GeneratorConfig(sigma_block_size=0)
        case = generate_case(0, 5, config)  # must not ZeroDivisionError
        assert case.index == 5
        assert run_campaign(0, 3, config).ok


class TestOracle:
    def test_generated_cases_pass(self):
        for case in generate_cases(9, 25):
            report = run_oracle(case)
            assert report.ok, f"{case}: {report.failed_checks()}"

    def test_catches_injected_chase_divergence(self, monkeypatch):
        """A reference engine returning a different terminal query must trip
        the chase differential (and the verdict recomputation with it)."""
        import repro.fuzz.oracle as oracle_module

        def broken_reference(query, dependencies, semantics, max_steps):
            result = sound_chase(query, dependencies, semantics, max_steps)
            sabotaged = result.query.add_atoms(
                [Atom("sabotage", [Variable("Zz")])]
            )
            result.query = sabotaged
            return result

        monkeypatch.setattr(
            oracle_module, "sound_chase_reference", broken_reference
        )
        report = run_oracle(generate_case(0, 0))
        assert not report.ok
        assert any(
            check.startswith("chase-differential")
            for check in report.failed_checks()
        )

    def test_catches_injected_homomorphism_divergence(self, monkeypatch):
        import repro.fuzz.oracle as oracle_module

        monkeypatch.setattr(
            oracle_module, "iter_homomorphisms_reference", lambda *a, **k: iter(())
        )
        case = FuzzCase(
            query=ConjunctiveQuery("Q", [Variable("X")], [Atom("p", [Variable("X")])]),
            other=ConjunctiveQuery("Q2", [Variable("Y")], [Atom("p", [Variable("Y")])]),
            dependencies=DependencySet(),
        )
        report = run_oracle(case)
        assert "homomorphism-differential" in report.failed_checks()

    def test_chase_failure_outcomes_agree(self):
        """Both engines raise ChaseFailedError on the constant-clash corpus
        shape; the oracle records agreement, not a mismatch."""
        case = case_from_dict(
            {
                "query": "Q(X) :- p(X, 0), p(X, 1)",
                "other": "Q2(X) :- p(X, 0)",
                "dependencies": ["p(K, A) & p(K, B) -> A = B"],
            }
        )
        report = run_oracle(case)
        assert report.ok
        assert report.verdicts == {}  # no verdict survives a failed chase

    def test_budget_exhaustion_agreement(self):
        """With a one-step budget both engines run out identically; the case
        passes but is flagged as budget-exhausted."""
        case = case_from_dict(
            {
                "query": "Q(X) :- p(X, Y)",
                "other": "Q2(X) :- p(X, Y), t(X, Y, W)",
                "dependencies": [
                    "p(X, Y) -> t(X, Y, W)",
                    "t(X, Y, Z) & t(X, Y, W) -> Z = W",
                ],
                "set_valued": ["t"],
                "max_steps": 1,
            }
        )
        report = run_oracle(case)
        assert report.ok
        assert report.budget_exhausted

    #: The accelerated chase decides the key-determined ``a -> k`` test
    #: without a chase; the reference's nested test chase runs the ten
    #: ``b`` tgds and exhausts a 5-step budget.
    NESTED_BUDGET_CASE = {
        "query": "Q(X) :- a(X), b0(X, Y)",
        "other": "Q(X) :- a(X), b0(X, Y)",
        "dependencies": [
            "a(X) -> k(X, Z)",
            "k(X, Y1) & k(X, Y2) -> Y1 = Y2",
            *(f"b{i}(X, Y) -> b{i + 1}(Y, W)" for i in range(10)),
        ],
        "set_valued": ["k"],
        "max_steps": 5,
    }

    def test_nested_budget_difference_is_permitted(self):
        from repro.chase.reference import sound_chase_reference
        from repro.exceptions import ChaseNonTerminationError
        from repro.fuzz.oracle import CaseReport, _compare_chases

        case = case_from_dict(self.NESTED_BUDGET_CASE)
        fast = sound_chase(case.query, case.dependencies, "bag", case.max_steps)
        assert fast.step_count == 1
        assert fast.profile.assignment_fixing_static == 1
        with pytest.raises(ChaseNonTerminationError):
            sound_chase_reference(case.query, case.dependencies, "bag", case.max_steps)
        slow = sound_chase_reference(case.query, case.dependencies, "bag", 20)
        assert (slow.query, slow.steps) == (fast.query, fast.steps)

        report = CaseReport(case=case)
        outcomes = _compare_chases(case, report)
        assert report.mismatches == []
        assert report.budget_exhausted
        assert outcomes[("query", Semantics.BAG)][0] == "terminated"
        assert run_oracle(case).ok

    def test_only_the_nested_budget_difference_is_permitted(self, monkeypatch):
        """A reference that still runs out of budget on the retry, or that
        terminates differently, is a mismatch."""
        import repro.fuzz.oracle as oracle_module

        case = case_from_dict(self.NESTED_BUDGET_CASE)
        monkeypatch.setattr(oracle_module, "REFERENCE_RETRY_FACTOR", 1)
        report = oracle_module.CaseReport(case=case)
        oracle_module._compare_chases(case, report)
        assert [m.check for m in report.mismatches] == ["chase-differential[bag]"] * 2

        reference = oracle_module.sound_chase_reference

        def diverging_retry(query, dependencies, semantics, max_steps):
            result = reference(query, dependencies, semantics, max_steps)
            result.steps = []
            return result

        monkeypatch.setattr(oracle_module, "REFERENCE_RETRY_FACTOR", 10)
        monkeypatch.setattr(oracle_module, "sound_chase_reference", diverging_retry)
        report = oracle_module.CaseReport(case=case)
        oracle_module._compare_chases(case, report)
        assert report.mismatches
        assert all("10x the budget" in m.detail for m in report.mismatches)


class TestShrink:
    def test_greedy_shrink_is_one_minimal(self):
        x, y = Variable("X"), Variable("Y")
        case = FuzzCase(
            query=ConjunctiveQuery(
                "Q",
                [x],
                [Atom("bad", [x]), Atom("p", [x, y]), Atom("r", [y, y])],
            ),
            other=ConjunctiveQuery(
                "Q2", [x], [Atom("p", [x, y]), Atom("r", [y, y])]
            ),
            dependencies=DependencySet(
                [TGD([Atom("p", [x, y])], [Atom("r", [y, y])], name="t1")],
                ["p"],
            ),
            seed=7,
            index=3,
        )

        def still_fails(candidate: FuzzCase) -> bool:
            return any(atom.predicate == "bad" for atom in candidate.query.body)

        shrunk = shrink_case(case, "chase-differential[bag]", still_fails=still_fails)
        assert [atom.predicate for atom in shrunk.query.body] == ["bad"]
        assert len(shrunk.other.body) == 1  # irrelevant partner minimized too
        assert len(shrunk.dependencies) == 0
        assert not shrunk.dependencies.set_valued_predicates
        assert "shrunk" in shrunk.origin
        # (seed, index) no longer regenerates this content — a serialized
        # shrunk case must not advertise generator coordinates.
        assert shrunk.seed is None and shrunk.index is None

    def test_shrink_respects_head_safety(self):
        x, y = Variable("X"), Variable("Y")
        case = FuzzCase(
            query=ConjunctiveQuery(
                "Q", [x, y], [Atom("bad", [x]), Atom("p", [y])]
            ),
            other=ConjunctiveQuery("Q2", [x], [Atom("bad", [x])]),
            dependencies=DependencySet(),
        )

        def still_fails(candidate: FuzzCase) -> bool:
            return any(atom.predicate == "bad" for atom in candidate.query.body)

        shrunk = shrink_case(case, "whatever", still_fails=still_fails)
        # p(Y) cannot be deleted: head variable Y would be orphaned.
        assert [atom.predicate for atom in shrunk.query.body] == ["bad", "p"]


class TestCorpusSerialization:
    def test_round_trip(self):
        case = generate_case(4, 13)
        payload = case_to_dict(case, name="n", description="d")
        rebuilt = case_from_dict(payload)
        assert rebuilt.query == case.query
        assert rebuilt.other == case.other
        assert rebuilt.max_steps == case.max_steps
        assert rebuilt.seed == 4 and rebuilt.index == 13
        assert (
            rebuilt.dependencies.set_valued_predicates
            == case.dependencies.set_valued_predicates
        )
        # Dependency names are not rendered; compare structurally.
        assert [
            (d.premise, getattr(d, "conclusion", getattr(d, "equalities", None)))
            for d in rebuilt.dependencies
        ] == [
            (d.premise, getattr(d, "conclusion", getattr(d, "equalities", None)))
            for d in case.dependencies
        ]

    def test_save_and_load_file(self, tmp_path):
        case = generate_case(0, 2)
        path = save_case(case, tmp_path / "case.json", name="roundtrip")
        loaded = load_corpus_file(path)
        assert loaded.name == "roundtrip"
        assert loaded.case.query == case.query
        assert run_oracle(loaded.case).ok

    def test_malformed_corpus_file_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"query": "not a query"}))
        with pytest.raises(CorpusError):
            load_corpus_file(path)

    def test_missing_fields_raise(self):
        with pytest.raises(CorpusError):
            case_from_dict({"query": "Q(X) :- p(X)"})


class TestCampaign:
    def test_small_campaign_passes_and_counts_verdicts(self):
        result = run_campaign(0, 40)
        assert result.ok and result.passed == 40
        assert sum(result.verdict_counts.values()) > 0
        assert any(key.endswith("=eq") for key in result.verdict_counts)
        assert any(key.endswith("=ne") for key in result.verdict_counts)

    def test_jobs_fan_out_matches_serial_campaign(self):
        """--jobs parallelizes both the decisions and the oracle passes;
        the outcome must be byte-for-byte the serial outcome."""
        serial = run_campaign(0, 24)
        parallel = run_campaign(0, 24, jobs=2)
        assert parallel.ok and serial.ok
        assert parallel.passed == serial.passed
        assert parallel.verdict_counts == serial.verdict_counts
        assert parallel.budget_exhausted == serial.budget_exhausted
        # The parity above must come from the workers, not from a silent
        # fall-back to the serial path after a broken pool.
        assert parallel.oracle_pool_fallbacks == 0

    def test_broken_oracle_pool_is_counted_not_hidden(self, monkeypatch):
        import repro.fuzz.runner as runner_module

        class ExplodingPool:
            def map(self, *args, **kwargs):
                raise RuntimeError("unpicklable payload")

            def shutdown(self):
                pass

        class FakeExecutorFactory:
            def __call__(self, max_workers=None):
                return ExplodingPool()

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", FakeExecutorFactory()
        )
        result = run_campaign(0, 12, jobs=2)
        # The broken executor also takes out the first block's decide_many
        # pipeline (same pool class) — those cases fail as batch-pipeline —
        # but the campaign completes: later blocks decide in-process and
        # every oracle pass falls back to the serial path, counted.
        assert result.oracle_pool_fallbacks > 0
        assert result.passed > 0
        assert all(
            failure.report.failed_checks() == ["batch-pipeline"]
            for failure in result.failures
        )
        assert any("WARNING" in line for line in result.summary_lines())

    def test_failure_reports_are_written(self, monkeypatch, tmp_path):
        """An injected engine divergence must surface as a failure with a
        reproduction file naming the exact seed and case index."""
        import repro.fuzz.oracle as oracle_module

        def broken_reference(query, dependencies, semantics, max_steps):
            result = sound_chase(query, dependencies, semantics, max_steps)
            result.query = result.query.add_atoms(
                [Atom("sabotage", [Variable("Zz")])]
            )
            return result

        monkeypatch.setattr(
            oracle_module, "sound_chase_reference", broken_reference
        )
        result = run_campaign(0, 3, failure_dir=tmp_path)
        assert result.failed == 3
        reports = sorted(tmp_path.glob("*.json"))
        assert len(reports) == 3
        payload = json.loads(reports[0].read_text())
        assert payload["seed"] == 0 and "query" in payload

    def test_oracle_crash_fails_one_case_not_the_campaign(
        self, monkeypatch, tmp_path
    ):
        """An unexpected exception inside the oracle must fail that case
        (with a written reproduction) and let the rest of the campaign run —
        losing a 5k-soak find to a crash would defeat the subsystem."""
        import repro.fuzz.runner as runner_module
        from repro.fuzz.oracle import run_oracle as real_run_oracle

        def crashes_on_case_one(case, **kwargs):
            if case.index == 1:
                raise KeyError("engine exploded")
            return real_run_oracle(case, **kwargs)

        monkeypatch.setattr(runner_module, "run_oracle", crashes_on_case_one)
        result = run_campaign(0, 4, shrink=True, failure_dir=tmp_path)
        assert result.passed == 3 and result.failed == 1
        failure = result.failures[0]
        assert failure.report.failed_checks() == ["oracle-crash"]
        assert "KeyError" in failure.report.mismatches[0].detail
        assert failure.shrunk is None  # crash probes are not re-run
        assert result.failure_reports == sorted(tmp_path.glob("*.json"))
        assert result.failure_reports[0].name == "seed0_case1.json"

    def test_replay_failure_reports_strip_the_json_suffix(
        self, monkeypatch, tmp_path
    ):
        import repro.fuzz.runner as runner_module
        from repro.fuzz import replay_cases
        from repro.fuzz.corpus import load_corpus_file
        from repro.fuzz.oracle import CaseReport, OracleMismatch

        (tmp_path / "one.json").write_text(
            json.dumps(
                {
                    "name": "one",
                    "description": "handmade: no seed/index metadata",
                    "query": "Q(X) :- p(X, Y)",
                    "other": "Q2(X) :- p(X, Y)",
                    "dependencies": [],
                }
            )
        )
        entry = load_corpus_file(tmp_path / "one.json")

        def always_fails(case, **kwargs):
            return CaseReport(
                case=case,
                mismatches=[OracleMismatch("sql-roundtrip", "boom")],
            )

        monkeypatch.setattr(runner_module, "run_oracle", always_fails)
        out = tmp_path / "out"
        result = replay_cases([entry.case], failure_dir=out)
        assert result.failed == 1
        assert [path.name for path in result.failure_reports] == ["one.json"]

    def test_pipeline_crash_fails_cases_without_bogus_artifacts(
        self, monkeypatch, tmp_path
    ):
        """A decide_many crash must fail the block's cases, but the cases
        themselves replay clean — so no shrink probes run and no misleading
        per-case reproduction files are written."""
        import repro.fuzz.runner as runner_module

        def exploding_block_verdicts(session, block, jobs):
            raise RuntimeError("worker pool fell over")

        monkeypatch.setattr(
            runner_module, "_block_verdicts", exploding_block_verdicts
        )
        result = run_campaign(0, 2, shrink=True, failure_dir=tmp_path)
        assert result.failed == 2
        assert all(
            failure.report.failed_checks() == ["batch-pipeline"]
            and failure.shrunk is None
            for failure in result.failures
        )
        assert list(tmp_path.glob("*.json")) == []


class TestFuzzCli:
    def test_fuzz_command_smoke(self, capsys):
        code = main(["fuzz", "--cases", "8", "--seed", "0"])
        output = capsys.readouterr().out
        assert code == 0
        assert "8 cases" in output and "8 passed" in output

    def test_fuzz_replay_directory(self, capsys, tmp_path):
        save_case(generate_case(0, 1), tmp_path / "one.json", name="one")
        code = main(["fuzz", "--replay", str(tmp_path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "replaying one" in output and "1 passed" in output

    def test_fuzz_replay_empty_directory(self, capsys, tmp_path):
        code = main(["fuzz", "--replay", str(tmp_path)])
        assert code == 2
        assert "no corpus cases" in capsys.readouterr().err

    def test_fuzz_replay_missing_path_reports_error(self, capsys, tmp_path):
        code = main(["fuzz", "--replay", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_fuzz_reports_failures_with_exit_code(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.fuzz.runner as runner_module
        from repro.fuzz.oracle import CaseReport, OracleMismatch

        def always_fails(case, **kwargs):
            return CaseReport(
                case=case,
                mismatches=[OracleMismatch("chase-differential[bag]", "boom")],
            )

        monkeypatch.setattr(runner_module, "run_oracle", always_fails)
        code = main(
            [
                "fuzz",
                "--cases",
                "2",
                "--seed",
                "5",
                "--failure-dir",
                str(tmp_path),
            ]
        )
        output = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in output and "chase-differential[bag]: boom" in output
        assert "regenerate: repro fuzz --seed 5" in output
        assert sorted(tmp_path.glob("*.json"))
