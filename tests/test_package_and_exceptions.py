"""Package-level tests: public API surface, exception hierarchy, semantics enum."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import (
    ChaseError,
    ChaseNonTerminationError,
    DependencyError,
    EvaluationError,
    ParseError,
    QueryError,
    ReformulationError,
    ReproError,
    SchemaError,
    TranslationError,
)
from repro.semantics import Semantics


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} is exported but missing"

    def test_key_entry_points_present(self):
        for name in (
            "parse_query",
            "parse_dependencies",
            "decide_equivalence",
            "sound_chase",
            "Session",
            "schema_from_ddl",
            "translate_sql",
            "rewrite_query_using_views",
            "find_counterexample",
        ):
            assert name in repro.__all__

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.chase
        import repro.core
        import repro.database
        import repro.datalog
        import repro.dependencies
        import repro.equivalence
        import repro.evaluation
        import repro.paperlib
        import repro.reformulation
        import repro.schema
        import repro.sql
        import repro.views
        import repro.witnesses

        assert repro.analysis and repro.witnesses


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for error_type in (
            QueryError,
            SchemaError,
            DependencyError,
            ChaseError,
            ChaseNonTerminationError,
            ParseError,
            TranslationError,
            EvaluationError,
            ReformulationError,
        ):
            assert issubclass(error_type, ReproError)

    def test_non_termination_error_carries_step_count(self):
        error = ChaseNonTerminationError("budget exhausted", steps_taken=42)
        assert error.steps_taken == 42
        assert isinstance(error, ChaseError)

    def test_parse_error_position(self):
        error = ParseError("bad token", position=7)
        assert error.position == 7

    def test_single_except_clause_catches_everything(self):
        from repro import parse_query

        with pytest.raises(ReproError):
            parse_query("garbage ::::")


class TestSemanticsEnum:
    def test_string_rendering(self):
        assert str(Semantics.BAG) == "bag"
        assert str(Semantics.BAG_SET) == "bag-set"
        assert str(Semantics.SET) == "set"

    def test_round_trip_through_names(self):
        for semantics in Semantics:
            assert Semantics.from_name(str(semantics)) is semantics

    def test_alias_spellings(self):
        assert Semantics.from_name("BS") is Semantics.BAG_SET
        assert Semantics.from_name("bag_set") is Semantics.BAG_SET
        assert Semantics.from_name("B") is Semantics.BAG
        assert Semantics.from_name("s") is Semantics.SET
