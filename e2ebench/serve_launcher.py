"""Start ``repro serve`` for the benchmark, optionally with span tracing.

Usage: ``python e2ebench/serve_launcher.py [--trace-out PATH] SERVE-ARGS...``

Without ``--trace-out`` this is exactly ``repro serve SERVE-ARGS``.  With it,
the tracing wrappers of :mod:`tracing` are installed before the daemon
starts, ``SIGUSR1`` clears what they recorded except the store load (the
benchmark sends it at the start of its timed window), and the spans are
written to PATH when the daemon shuts down.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    if argv[:1] != ["--trace-out"]:
        return cli_main(["serve", *argv])
    import tracing

    trace_out, argv = argv[1], argv[2:]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.reset(keep=("store.load",)))
    try:
        return cli_main(["serve", *argv])
    finally:
        uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
