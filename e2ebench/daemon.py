"""The ``repro serve`` daemon as a subprocess, and the clients that drive it.

Client timestamps use :func:`time.perf_counter`, which on Linux reads the
system-wide monotonic clock, so they compare directly with the span times
the traced daemon records.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "serve_launcher.py")
READY_TIMEOUT = 120.0
CLIENT_SWITCH_INTERVAL = 0.0002  # s; the interpreter's default is 0.005


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@contextlib.contextmanager
def quiet_client() -> Iterator[None]:
    """Keep the load generator's own pauses out of the latencies it measures.

    No garbage collection while it runs, and a short interpreter switch
    interval, so the sending thread gets the interpreter lock back promptly
    from the reading thread when a request falls due.
    """
    interval = sys.getswitchinterval()
    gc.collect()
    gc.disable()
    sys.setswitchinterval(CLIENT_SWITCH_INTERVAL)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
        gc.enable()


class Daemon:
    """One ``repro serve --workers 1`` process on a free port."""

    def __init__(
        self,
        root: str,
        log_path: str,
        sigma_file: str,
        set_valued: tuple[str, ...],
        *,
        store: str | None = None,
        trace_out: str | None = None,
    ):
        self.root = root
        self.log_path = log_path
        self.trace_out = trace_out
        args = [sys.executable, LAUNCHER]
        if trace_out is not None:
            args += ["--trace-out", trace_out]
        args += [
            "--dependencies", sigma_file,
            "--set-valued", ",".join(set_valued),
            "--port", "0",
            "--workers", "1",
            "--timeout", "120",
        ]
        if store is not None:
            args += ["--store", store]
        self.args = args
        self.proc: subprocess.Popen[bytes] | None = None
        self.port = 0

    def start(self) -> None:
        """Spawn and wait for the ``listening on host:port`` line."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.args, cwd=self.root, env=env,
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
            )
        assert self.proc.stdout is not None
        deadline = clock() + READY_TIMEOUT
        buffer = b""
        while b"\n" not in buffer or b"listening on" not in buffer:
            if self.proc.poll() is not None or clock() > deadline:
                self.stop()
                raise BenchError(f"daemon did not start; see {self.log_path}")
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                buffer += chunk
        for line in buffer.decode().splitlines():
            if "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1])

    def vm_hwm_mb(self) -> float:
        """Peak resident set of the daemon (``VmHWM``), in MB."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def signal(self, signum: int) -> None:
        assert self.proc is not None
        self.proc.send_signal(signum)

    def stop(self) -> None:
        """SIGTERM, wait for the clean shutdown (spans are written then)."""
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        finally:
            if proc.stdout is not None:
                proc.stdout.close()


class Connection:
    """One NDJSON connection; requests are pipelined in order."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.last_id = 0  # id of the last request sent by call()

    def call(self, op: str, params: dict[str, Any] | None = None) -> dict[str, Any]:
        self.last_id += 1
        request = {"op": op, "id": self.last_id, "params": params or {}}
        self.sock.sendall(json.dumps(request, separators=(",", ":")).encode() + b"\n")
        response = json.loads(self.reader.readline())
        if response.get("id") != self.last_id:
            raise BenchError(f"response id {response.get('id')} for request {self.last_id}")
        return response

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def encode_request(request_id: int, op: str, params: dict[str, Any]) -> bytes:
    return json.dumps(
        {"op": op, "id": request_id, "params": params}, separators=(",", ":")
    ).encode() + b"\n"


@dataclass
class RungResult:
    """One open-loop window at a fixed rate."""

    rate: float
    latencies: list[float] = field(default_factory=list)  # s, from due time
    lags: list[float] = field(default_factory=list)  # s, send minus due
    backlog_max: int = 0
    failed: int = 0
    request_ids: list[int] = field(default_factory=list)
    sent_at: list[float] = field(default_factory=list)
    received_at: list[float] = field(default_factory=list)


def open_loop(
    conn: Connection,
    requests: list[tuple[int, bytes]],
    rate: float,
    check: Callable[[int, dict[str, Any]], bool],
    drain_timeout: float = 60.0,
) -> RungResult:
    """Send *requests* at *rate* per second regardless of replies.

    Two threads: this one reads replies, a second one sends on schedule.
    Each latency is timed from when its request was due, so a stall also
    delays every request queued behind it.
    """
    count = len(requests)
    result = RungResult(rate)
    start = clock() + 0.02
    due = [start + index / rate for index in range(count)]
    sent = [0.0] * count
    received = [0]
    send_error: list[BaseException] = []

    def sender() -> None:
        sock = conn.sock
        try:
            for index in range(count):
                delay = due[index] - clock()
                if delay > 0:
                    time.sleep(delay)
                now = clock()
                sent[index] = now
                backlog = index - received[0]
                if backlog > result.backlog_max:
                    result.backlog_max = backlog
                sock.sendall(requests[index][1])
        except BaseException as exc:  # reported by the reading thread
            send_error.append(exc)

    thread = threading.Thread(target=sender, name="bench-sender", daemon=True)
    thread.start()
    deadline = due[-1] + drain_timeout
    reader = conn.reader
    lines: list[bytes] = []
    received_at = result.received_at
    # Only read and stamp while the sender runs; answers are checked after.
    for index in range(count):
        line = reader.readline()
        now = clock()
        if not line or now > deadline:
            raise BenchError("daemon stopped answering")
        received[0] = index + 1
        lines.append(line)
        received_at.append(now)
    thread.join(timeout=drain_timeout)
    if send_error:
        raise BenchError(f"sending failed: {send_error[0]!r}")
    for index, line in enumerate(lines):
        request_id = requests[index][0]
        try:
            response = json.loads(line)
            good = response.get("id") == request_id and check(index, response)
        except (ValueError, KeyError, TypeError):
            good = False
        if not good:
            result.failed += 1
            print(f"wrong answer to request {request_id}: {line[:300]!r}", file=sys.stderr)
        result.request_ids.append(request_id)
    result.latencies = [received_at[index] - due[index] for index in range(count)]
    result.lags = [sent[index] - due[index] for index in range(count)]
    result.sent_at = sent
    return result
