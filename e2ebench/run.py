"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 e2ebench/run.py --workload cold-decide --seed 1 --seconds 15 --trace 0

Workloads: ``warm-serve``, ``cold-decide``, ``reformulate``, ``delta-churn``.
``BENCHMARK.json`` keeps ``reformulate`` and ``delta-churn`` and says why
each was chosen; the other two run by name.  With ``--trace 0`` the
run measures the end-to-end metrics with no tracing installed; with
``--trace 1`` it runs half the time untraced and half traced, and reports the
per-layer metrics, including the tracing overhead.  Every answer is checked
against ``expected.json``; a wrong answer counts as a failed op and is
printed to stderr.

The report goes to stdout, and its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
(Σ files, the chase store, daemon log, spans) go to ``.e2ebench-out/`` under
the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"e2ebench: no program source at {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("e2ebench: --seconds must be positive", file=sys.stderr)
        return 2
    # A terminated run still stops the daemons it started (see below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = os.path.join(ROOT, ".e2ebench-out", args.workload)
    os.makedirs(out, exist_ok=True)
    ctx = workloads.Context(
        ROOT, out, args.seed, args.seconds, bool(args.trace), checks.load_expected()
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except Exception:  # noqa: BLE001 - any failure means no result line
        traceback.print_exc()
        return 1
    finally:
        ctx.stop_daemons()

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in outcome.lines:
        print(line)
    print(f"error_ratio {outcome.failed / outcome.attempted:.6f} "
          f"({outcome.failed} of {outcome.attempted} ops failed or wrong)")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
