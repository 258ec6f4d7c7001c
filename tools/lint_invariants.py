#!/usr/bin/env python
"""Codebase invariant linter for the ``repro`` source tree.

The core term representation is hash-consed: ``Variable``, ``Constant``,
``Atom`` and ``EqualityAtom`` intern their instances so identity equals
equality and precomputed signatures stay sound.  Those guarantees are easy
to break from a distance — a subclass that skips the intern table, a
``__new__`` call that allocates around it, an ``object.__setattr__`` that
mutates a "frozen" instance — and such breakage surfaces far from its
cause, as a wrong chase result rather than a crash.  This linter makes the
invariants explicit and machine-checked:

* **R1 interned-subclass** — nothing outside ``core/terms.py`` and
  ``core/atoms.py`` may subclass an interned class.
* **R2 intern-bypass** — nothing outside those files may call
  ``Variable.__new__`` / ``Constant.__new__`` / ``Atom.__new__`` /
  ``EqualityAtom.__new__`` (or allocate them via ``object.__new__``).
* **R3 frozen-escape** — ``object.__setattr__`` / ``object.__delattr__``
  (the only way to mutate a frozen dataclass) are allowed only in the
  modules that legitimately build frozen objects field-by-field.
* **R4 frozen-drift** — ``core/reference.py``, ``chase/reference.py`` and
  ``reformulation/reference.py`` are differential-testing oracles and must
  never change silently; their content checksums are pinned here.
* **R5 forbidden-import** — ``networkx`` was removed as a dependency; no
  module under ``src/repro`` may import it again.
* **R6 process-start** — ``ProcessPoolExecutor`` and any ``multiprocessing``
  import other than ``shared_memory`` are allowed only in the modules that
  own a worker pool: the batch (``session/batch.py``), the serve daemon
  (``serve/pool.py``) and the fuzz campaign's oracle (``fuzz/runner.py``).
  Engine workers boot from one spec; a fourth pool would grow its own.

Run as ``python tools/lint_invariants.py`` from the repository root (CI
does); exits 1 if any invariant is violated.  The ``lint_paths`` function
is the testable API.
"""

from __future__ import annotations

import ast
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

#: Classes whose construction must go through the intern tables.
INTERNED_CLASSES = frozenset({"Variable", "Constant", "Atom", "EqualityAtom"})

#: The only modules allowed to subclass or allocate interned classes.
INTERNED_HOME = frozenset(
    {
        "src/repro/core/terms.py",
        "src/repro/core/atoms.py",
    }
)

#: Modules that legitimately use ``object.__setattr__``/``__delattr__`` to
#: initialise frozen dataclasses field-by-field.
FROZEN_MUTATORS = frozenset(
    {
        "src/repro/core/terms.py",
        "src/repro/core/atoms.py",
        "src/repro/core/query.py",
        "src/repro/core/plan.py",
        "src/repro/core/aggregate.py",
        "src/repro/dependencies/base.py",
        "src/repro/schema/keys.py",
    }
)

#: Frozen differential-testing oracles: path -> pinned sha256 of contents.
#: Recompute deliberately (``sha256sum <path>``) when a change to a
#: reference engine is intended, and say so in the commit message.
FROZEN_CHECKSUMS = {
    "src/repro/core/reference.py": (
        "766a72d481452dcaf1d3a74c2aab180e78bf8a5d3098c7b07b1086283a523216"
    ),
    "src/repro/chase/reference.py": (
        "7b44a996a59791d333b7efce1ef5980ca02e30150e95ddbfc325c872136a8031"
    ),
    "src/repro/reformulation/reference.py": (
        "312138fb881fec7b6228730ba272f04f5f705e18783dab89ba1b96e84f9b0ed7"
    ),
}

#: Imports banned under ``src/repro`` (removed third-party dependencies).
FORBIDDEN_IMPORTS = frozenset({"networkx"})

#: The only modules that may start worker processes (R6).
PROCESS_STARTERS = frozenset(
    {
        "src/repro/session/batch.py",
        "src/repro/serve/pool.py",
        "src/repro/fuzz/runner.py",
    }
)


@dataclass(frozen=True)
class Finding:
    """One invariant violation: ``rule`` is stable, ``where`` is clickable."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _base_name(node: ast.expr) -> str | None:
    """The trailing identifier of a base-class expression, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _InvariantVisitor(ast.NodeVisitor):
    def __init__(self, rel_path: str, findings: list[Finding]):
        self.rel_path = rel_path
        self.findings = findings
        self.in_interned_home = rel_path in INTERNED_HOME
        self.may_mutate_frozen = rel_path in FROZEN_MUTATORS
        self.may_start_processes = rel_path in PROCESS_STARTERS

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(Finding(rule, self.rel_path, line, message))

    def _flag_process_start(self, node: ast.AST, what: str) -> None:
        if not self.may_start_processes:
            self._flag(
                "process-start",
                node,
                f"{what} starts worker processes; only "
                + ", ".join(sorted(PROCESS_STARTERS))
                + " may",
            )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self.in_interned_home:
            for base in node.bases:
                name = _base_name(base)
                if name in INTERNED_CLASSES:
                    self._flag(
                        "interned-subclass",
                        base,
                        f"class {node.name} subclasses interned class {name}; "
                        "subclasses escape the intern table and break "
                        "identity-is-equality",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self.in_interned_home:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "__new__":
                owner = _base_name(func.value)
                if owner in INTERNED_CLASSES:
                    self._flag(
                        "intern-bypass",
                        node,
                        f"{owner}.__new__ allocates around the intern table",
                    )
                elif owner == "object" and node.args:
                    target = _base_name(node.args[0])
                    if target in INTERNED_CLASSES:
                        self._flag(
                            "intern-bypass",
                            node,
                            f"object.__new__({target}) allocates around the "
                            "intern table",
                        )
        if not self.may_mutate_frozen:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("__setattr__", "__delattr__")
                and _base_name(func.value) == "object"
            ):
                self._flag(
                    "frozen-escape",
                    node,
                    f"object.{func.attr} mutates frozen instances; only "
                    "allowlisted constructor modules may do this",
                )
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".", 1)[0]
            if root in FORBIDDEN_IMPORTS:
                self._flag(
                    "forbidden-import",
                    node,
                    f"import of removed dependency {root!r}",
                )
            if root == "multiprocessing" and alias.name != "multiprocessing.shared_memory":
                self._flag_process_start(node, f"import {alias.name}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        root = module.split(".", 1)[0]
        if node.level == 0 and root in FORBIDDEN_IMPORTS:
            self._flag(
                "forbidden-import",
                node,
                f"import of removed dependency {root!r}",
            )
        if node.level == 0:
            for alias in node.names:
                imported = f"{module}.{alias.name}"
                if root == "multiprocessing" and "multiprocessing.shared_memory" not in (
                    module,
                    imported,
                ):
                    self._flag_process_start(node, f"import of {imported}")
                elif alias.name == "ProcessPoolExecutor":
                    self._flag_process_start(node, "ProcessPoolExecutor")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "ProcessPoolExecutor":
            self._flag_process_start(node, "ProcessPoolExecutor")
        self.generic_visit(node)


def lint_paths(
    root: Path,
    *,
    frozen_checksums: dict[str, str] | None = None,
) -> list[Finding]:
    """Lint every Python file under ``root / src/repro``; return findings.

    *frozen_checksums* overrides :data:`FROZEN_CHECKSUMS` (tests pass ``{}``
    to exercise the AST rules against synthetic trees that have no frozen
    files).
    """
    checksums = FROZEN_CHECKSUMS if frozen_checksums is None else frozen_checksums
    findings: list[Finding] = []
    source_root = root / "src" / "repro"
    for path in sorted(source_root.rglob("*.py")):
        rel_path = path.relative_to(root).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel_path)
        except SyntaxError as exc:
            findings.append(
                Finding("syntax-error", rel_path, exc.lineno or 0, str(exc.msg))
            )
            continue
        _InvariantVisitor(rel_path, findings).visit(tree)
    for rel_path, expected in sorted(checksums.items()):
        path = root / rel_path
        if not path.exists():
            findings.append(
                Finding("frozen-drift", rel_path, 0, "pinned frozen file is missing")
            )
            continue
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
        if actual != expected:
            findings.append(
                Finding(
                    "frozen-drift",
                    rel_path,
                    0,
                    f"content checksum {actual[:12]}… does not match the pin "
                    f"{expected[:12]}…; reference engines are frozen oracles — "
                    "if the change is intended, update FROZEN_CHECKSUMS "
                    "deliberately",
                )
            )
    return findings


def main(argv: list[str] | None = None) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    findings = lint_paths(root)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"lint_invariants: {len(findings)} violation(s)")
        return 1
    print("lint_invariants: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
