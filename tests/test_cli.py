"""Tests for the command-line interface (python -m repro ...)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

DEPENDENCIES = """
p(X,Y) -> t(X,Y,W)
p(X,Y) -> r(X)
t(X,Y,Z) & t(X,Y,W) -> Z = W
"""

DDL = """
CREATE TABLE customer (cid INT PRIMARY KEY, cname TEXT);
CREATE TABLE orders (oid INT, cid INT,
                     FOREIGN KEY (cid) REFERENCES customer (cid));
"""


@pytest.fixture()
def deps_file(tmp_path):
    path = tmp_path / "deps.txt"
    path.write_text(DEPENDENCIES)
    return str(path)


@pytest.fixture()
def ddl_file(tmp_path):
    path = tmp_path / "schema.sql"
    path.write_text(DDL)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_chase_arguments(self):
        args = build_parser().parse_args(
            ["chase", "--query", "Q(X) :- p(X,Y)", "--semantics", "bag"]
        )
        assert args.command == "chase" and args.semantics == "bag"


class TestChaseCommand:
    def test_chase_from_file(self, capsys, deps_file):
        code = main(
            [
                "chase",
                "--query",
                "Q(X) :- p(X,Y)",
                "--dependencies",
                deps_file,
                "--set-valued",
                "t",
                "--semantics",
                "bag",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "t(" in output and "r(" not in output  # r is not set valued

    def test_chase_inline_dependencies_with_steps(self, capsys):
        code = main(
            [
                "chase",
                "--query",
                "Q(X) :- p(X,Y)",
                "--dependencies",
                DEPENDENCIES,
                "--semantics",
                "bag-set",
                "--show-steps",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "tgd step" in output
        assert "r(X)" in output  # bag-set chase applies the full tgd

    def test_chase_without_dependencies(self, capsys):
        code = main(["chase", "--query", "Q(X) :- p(X,Y)", "--semantics", "set"])
        assert code == 0
        assert "p(X, Y)" in capsys.readouterr().out


class TestEquivalenceCommand:
    def test_equivalent_pair(self, capsys, deps_file):
        code = main(
            [
                "equivalence",
                "--query",
                "Q(X) :- p(X,Y)",
                "--other",
                "Q2(X) :- p(X,Y), t(X,Y,W)",
                "--dependencies",
                deps_file,
                "--set-valued",
                "t",
                "--semantics",
                "bag",
                "--verbose",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert output.startswith("equivalent")
        assert "chased left" in output

    def test_inequivalent_pair_exit_code(self, capsys, deps_file):
        code = main(
            [
                "equivalence",
                "--query",
                "Q(X) :- p(X,Y)",
                "--other",
                "Q2(X) :- p(X,Y), r(X)",
                "--dependencies",
                deps_file,
                "--semantics",
                "bag",
            ]
        )
        assert code == 1
        assert "not equivalent" in capsys.readouterr().out

    def test_all_semantics(self, capsys, deps_file):
        code = main(
            [
                "equivalence",
                "--query",
                "Q(X) :- p(X,Y)",
                "--other",
                "Q2(X) :- p(X,Y), r(X)",
                "--dependencies",
                deps_file,
                "--semantics",
                "all",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0  # equivalent under at least one semantics (set / bag-set)
        assert "bag" in output and "set" in output

    def test_parse_error_reported(self, capsys):
        code = main(
            [
                "equivalence",
                "--query",
                "not a query",
                "--other",
                "Q(X) :- p(X,Y)",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestReformulateCommand:
    def test_minimal_reformulations(self, capsys, deps_file):
        code = main(
            [
                "reformulate",
                "--query",
                "Q(X) :- p(X,Y), t(X,Y,W), r(X)",
                "--dependencies",
                deps_file,
                "--set-valued",
                "t",
                "--semantics",
                "bag-set",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "universal plan" in output
        assert "7 candidates examined, 0 chased" in output
        assert "Σ-minimal" in output
        assert "Q(X) :- p(X, Y)" in output

    def test_show_all(self, capsys, deps_file):
        code = main(
            [
                "reformulate",
                "--query",
                "Q(X) :- p(X,Y), t(X,Y,W)",
                "--dependencies",
                deps_file,
                "--set-valued",
                "t",
                "--semantics",
                "bag",
                "--show-all",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "equivalent reformulations" in output


class TestBatchCommand:
    def test_batch_decides_pairs(self, capsys, deps_file):
        code = main(
            [
                "batch",
                "--pairs",
                "Q1(X) :- p(X,Y) ; Q2(X) :- p(X,Y), t(X,Y,W)\n"
                "Q1(X) :- p(X,Y) ; Q3(X) :- p(X,Y), r(X)",
                "--dependencies",
                deps_file,
                "--set-valued",
                "t",
                "--semantics",
                "bag",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "[0] Q1 vs Q2: equivalent" in output
        assert "[1] Q1 vs Q3: not equivalent" in output
        assert "2 decided, 0 failed" in output

    @pytest.mark.parametrize(
        "line", ["Q1(X) :- p(X,Y)", "; Q1(X) :- p(X,Y)", "Q1(X) :- p(X,Y) ;"]
    )
    def test_batch_malformed_pair_line(self, capsys, line):
        code = main(["batch", "--pairs", line])
        assert code == 2
        assert "pairs line 1" in capsys.readouterr().err

    def test_batch_jobs(self, capsys, deps_file):
        code = main(
            [
                "batch",
                "--pairs",
                "Q1(X) :- p(X,Y) ; Q2(X) :- p(X,Y), t(X,Y,W)\n"
                "Q1(X) :- p(X,Y) ; Q3(X) :- p(X,Y), r(X)",
                "--dependencies",
                deps_file,
                "--set-valued",
                "t",
                "--semantics",
                "bag",
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        assert "2 decided, 0 failed" in capsys.readouterr().out


class TestSqlCommand:
    def test_sql_pipeline(self, capsys, ddl_file):
        code = main(
            [
                "sql",
                "--ddl",
                ddl_file,
                "--query",
                "SELECT o.oid FROM orders o, customer c WHERE o.cid = c.cid",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "evaluation semantics: bag" in output
        assert "SELECT t1.oid FROM orders t1;" in output

    def test_sql_inline_ddl_and_semantics_override(self, capsys):
        code = main(
            [
                "sql",
                "--ddl",
                DDL,
                "--query",
                "SELECT o.oid FROM orders o, customer c WHERE o.cid = c.cid",
                "--semantics",
                "set",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "evaluation semantics: set" in output
        assert "SELECT DISTINCT" in output
