"""Set up one library workload in a fresh process, then exit.

Usage: ``python e2ebench/setup_once.py WORKLOAD SEED`` (``cold-decide`` or
``reformulate``).  ``run.py`` times this whole process, several times per
run, as the workload's ``setup_s``: interpreter start, the library imports,
Σ parse, the Sessions and their plan warm-up.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    root = os.path.dirname(HERE)
    ctx = workloads.Context(root, root, seed, 0.0, False, checks.load_expected())
    workloads.LIBRARY_BUILDS[name](ctx)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
