"""The serve workload: a TCP server child and a closed-loop client.

The server is the program's own ``espunct serve --listen`` in a child
process.  The client is this process: one thread multiplexing a fixed
number of connections with ``selectors``, each sending its next request
only after the previous response line has arrived (a closed loop).
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 10.0


class ServerProcess:
    """``espunct serve --model M --listen 127.0.0.1:0`` in a child process."""

    def __init__(self, root: Path, model_path: Path, cpus: set[int] | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "espunct.cli", "serve", "--model", str(model_path),
             "--listen", "127.0.0.1:0"],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = self._listening_line()
            self.startup_s = time.perf_counter() - started
            if cpus is not None:
                # Handler threads start later, so they inherit this affinity.
                os.sched_setaffinity(self.proc.pid, cpus)
        except BaseException:
            self.stop()
            raise
        self.port = int(line.rsplit(":", 1)[1])

    def _listening_line(self) -> str:
        deadline = time.monotonic() + _START_TIMEOUT_S
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stderr, selectors.EVENT_READ)
        try:
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stderr.readline()
                if not line:
                    raise RuntimeError(f"server exited with {self.proc.wait()} before listening")
                if line.startswith("listening on "):
                    return line.strip()
        finally:
            sel.close()
        raise RuntimeError("server did not start listening in time")

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory (VmHWM), read while it runs."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        # SIGTERM rather than SIGINT: a process started in the background
        # by a shell inherits SIGINT as ignored, and the server has no
        # state worth a graceful shutdown.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


def check_response(line: bytes, request_id: str, expected: tuple[str, list[str]]) -> str | None:
    """None when the response line carries the expected text and labels
    for this request, else what is wrong with it."""
    try:
        obj = json.loads(line)
    except ValueError:
        return "response is not JSON"
    if not isinstance(obj, dict):
        return "response is not an object"
    if "error" in obj:
        return f"error response {obj.get('error')}: {obj.get('message')}"
    if obj.get("id") != request_id:
        return f"response id {obj.get('id')!r} for request {request_id!r}"
    text, labels = expected
    if obj.get("text") != text or obj.get("labels") != labels:
        return f"response to {request_id} differs from in-process restore"
    return None


@dataclass
class LoopResult:
    # Latencies of the measured phase, one list per closed_loop call.
    segments: list[list[float]] = field(default_factory=list)
    measured_s: float = 0.0
    sent: int = 0  # every request answered, warm-up included
    failures: list[str] = field(default_factory=list)
    # request index -> labels of a correct response to it
    answers: dict[int, list[str]] = field(default_factory=dict)


class _Conn:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer = b""
        self.pending: tuple[int, str, float] | None = None  # index, id, send time


def closed_loop(
    port: int,
    texts: list[str],
    expected: list[tuple[str, list[str]]],
    connections: int,
    warmup_s: float,
    seconds: float,
    result: LoopResult,
) -> None:
    """Drive the server for warmup_s unmeasured and then seconds measured,
    adding to result.

    Requests cycle through texts.  Every response is checked against
    expected; latency runs from the send to the complete response line.
    """
    latencies: list[float] = []
    result.segments.append(latencies)
    sel = selectors.DefaultSelector()
    conns = [_Conn(port) for _ in range(connections)]
    next_index = 0
    t_begin = time.perf_counter()
    measure_from = t_begin + warmup_s
    stop_at = measure_from + seconds

    def send(conn: _Conn) -> None:
        nonlocal next_index
        index = next_index % len(texts)
        request_id = f"r{next_index}"
        next_index += 1
        payload = json.dumps({"id": request_id, "text": texts[index]}, ensure_ascii=False)
        conn.pending = (index, request_id, time.perf_counter())
        conn.sock.sendall(payload.encode("utf-8") + b"\n")

    try:
        for conn in conns:
            sel.register(conn.sock, selectors.EVENT_READ, conn)
            send(conn)
        open_conns = len(conns)
        while open_conns:
            events = sel.select(timeout=_START_TIMEOUT_S)
            if not events:
                result.failures.append("no response within the timeout")
                break
            for key, _ in events:
                conn: _Conn = key.data
                chunk = conn.sock.recv(65536)
                if not chunk:
                    result.failures.append("server closed a connection")
                    sel.unregister(conn.sock)
                    open_conns -= 1
                    continue
                conn.buffer += chunk
                if b"\n" not in conn.buffer:
                    continue
                line, conn.buffer = conn.buffer.split(b"\n", 1)
                now = time.perf_counter()
                index, request_id, sent_at = conn.pending
                result.sent += 1
                if sent_at >= measure_from:
                    latencies.append((now - sent_at) * 1000.0)
                problem = check_response(line, request_id, expected[index])
                if problem:
                    result.failures.append(problem)
                else:
                    result.answers.setdefault(index, expected[index][1])
                if now < stop_at:
                    send(conn)
                else:
                    sel.unregister(conn.sock)
                    open_conns -= 1
        result.measured_s += time.perf_counter() - measure_from
    finally:
        sel.close()
        for conn in conns:
            conn.sock.close()
