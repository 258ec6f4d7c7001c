"""The codebase invariant linter (tools/lint_invariants.py).

The linter itself is gated into CI; these tests pin its behaviour: the
real tree must be clean, each rule must fire on a synthetic violation, and
the frozen-reference checksum must both hold and detect drift.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint_invariants", REPO_ROOT / "tools" / "lint_invariants.py"
)
lint_invariants = importlib.util.module_from_spec(_spec)
# Registered before exec: @dataclass resolves its module via sys.modules.
sys.modules["lint_invariants"] = lint_invariants
_spec.loader.exec_module(lint_invariants)


def _tree(tmp_path: Path, source: str, name: str = "offender.py") -> Path:
    module = tmp_path / "src" / "repro" / name
    module.parent.mkdir(parents=True, exist_ok=True)
    module.write_text(source)
    return tmp_path


def _rules(findings):
    return sorted({finding.rule for finding in findings})


def test_repository_tree_is_clean():
    findings = lint_invariants.lint_paths(REPO_ROOT)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_frozen_checksums_cover_both_reference_engines():
    pins = lint_invariants.FROZEN_CHECKSUMS
    assert set(pins) == {
        "src/repro/core/reference.py",
        "src/repro/chase/reference.py",
        "src/repro/reformulation/reference.py",
    }
    for rel_path, expected in pins.items():
        actual = hashlib.sha256((REPO_ROOT / rel_path).read_bytes()).hexdigest()
        assert actual == expected, f"{rel_path} drifted from its pin"


def test_detects_interned_subclass(tmp_path):
    root = _tree(
        tmp_path,
        "from repro.core.terms import Variable\n"
        "class Sneaky(Variable):\n"
        "    pass\n",
    )
    findings = lint_invariants.lint_paths(root, frozen_checksums={})
    assert _rules(findings) == ["interned-subclass"]


def test_detects_intern_bypass(tmp_path):
    root = _tree(
        tmp_path,
        "from repro.core.terms import Constant\n"
        "c = Constant.__new__(Constant)\n"
        "d = object.__new__(Constant)\n",
    )
    findings = lint_invariants.lint_paths(root, frozen_checksums={})
    assert _rules(findings) == ["intern-bypass"]
    assert len(findings) == 2


def test_detects_frozen_escape(tmp_path):
    root = _tree(
        tmp_path,
        "class Holder:\n"
        "    def __init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n",
    )
    findings = lint_invariants.lint_paths(root, frozen_checksums={})
    assert _rules(findings) == ["frozen-escape"]


def test_frozen_escape_allowed_in_allowlisted_module(tmp_path):
    root = _tree(
        tmp_path,
        "class Holder:\n"
        "    def __init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n",
        name="core/terms.py",
    )
    assert lint_invariants.lint_paths(root, frozen_checksums={}) == []


def test_detects_forbidden_import(tmp_path):
    root = _tree(
        tmp_path,
        "import networkx\nfrom networkx import MultiDiGraph\n",
    )
    findings = lint_invariants.lint_paths(root, frozen_checksums={})
    assert _rules(findings) == ["forbidden-import"]
    assert len(findings) == 2


def test_detects_process_start_outside_the_pool_modules(tmp_path):
    source = (
        "import multiprocessing\n"
        "import concurrent.futures\n"
        "from multiprocessing import Process, shared_memory\n"
        "from multiprocessing.shared_memory import SharedMemory\n"
        "from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor\n"
        "pool = concurrent.futures.ProcessPoolExecutor(2)\n"
    )
    findings = lint_invariants.lint_paths(_tree(tmp_path, source), frozen_checksums={})
    assert _rules(findings) == ["process-start"]
    assert [finding.line for finding in findings] == [1, 3, 5, 6]
    allowed = _tree(tmp_path, source, name="session/batch.py")
    assert [
        finding.path for finding in lint_invariants.lint_paths(allowed, frozen_checksums={})
    ] == ["src/repro/offender.py"] * 4


def test_relative_imports_are_not_flagged(tmp_path):
    root = _tree(tmp_path, "from . import base\nfrom .base import TGD\n")
    assert lint_invariants.lint_paths(root, frozen_checksums={}) == []


def test_detects_frozen_drift(tmp_path):
    root = _tree(tmp_path, "x = 1\n", name="frozen.py")
    findings = lint_invariants.lint_paths(
        root, frozen_checksums={"src/repro/frozen.py": "0" * 64}
    )
    assert _rules(findings) == ["frozen-drift"]
    missing = lint_invariants.lint_paths(
        root, frozen_checksums={"src/repro/gone.py": "0" * 64}
    )
    assert _rules(missing) == ["frozen-drift"]


def test_syntax_errors_are_reported_not_raised(tmp_path):
    root = _tree(tmp_path, "def broken(:\n")
    findings = lint_invariants.lint_paths(root, frozen_checksums={})
    assert _rules(findings) == ["syntax-error"]


def test_main_exit_codes(tmp_path, capsys):
    assert lint_invariants.main([str(REPO_ROOT)]) == 0
    assert "all invariants hold" in capsys.readouterr().out
    root = _tree(tmp_path, "import networkx\n")
    # main() checks the real FROZEN_CHECKSUMS against this synthetic tree,
    # where the pinned files do not exist — both rule families fire.
    assert lint_invariants.main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "forbidden-import" in out and "frozen-drift" in out
