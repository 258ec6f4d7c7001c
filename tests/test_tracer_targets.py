"""The benchmark tracer's patch targets exist and the program calls them.

``e2ebench/tracing.py`` wraps program functions by module and name, where
their callers look them up.  A target that was renamed or dropped makes
``install`` raise; one the program bypasses (bound at import time, or no
longer called) records no span, and its layer silently reads 0.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.chase.incremental import ChaseDelta
from repro.datalog.parser import parse_atoms
from repro.session import Session

_spec = importlib.util.spec_from_file_location(
    "e2ebench_tracing", Path(__file__).parent.parent / "e2ebench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_session_and_incremental_spans_are_recorded(ex41):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        session = Session(dependencies=ex41.dependencies, chase_resumable=True)
        delta = ChaseDelta.atoms(*parse_atoms("t(X, Y, W)"))
        session.chase(ex41.q4, "set")
        resumed = session.apply_delta(ex41.q4, delta, "set")
        cold = session.apply_delta(ex41.q1, delta, "set")
    finally:
        uninstall()
    assert resumed.resumed
    assert cold.fallback_reason == "no-checkpoint"
    totals = tracer.totals()
    for span in (
        "session.chase",
        "session.apply_delta",
        "incremental.resume",
        "incremental.cold_fallback",
    ):
        assert totals.get(span, {}).get("calls", 0) >= 1, span
