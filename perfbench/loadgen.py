"""The resident server as a child process, and the open-loop load generator.

The generator is one process with at most ``nproc`` worker threads, each
holding one connection at a time.  Requests follow a schedule of due times
fixed before the run; a request is timed from when it was due, so a stall
also charges the wait it imposes on the requests behind it, and how late the
generator sent each request is recorded beside it.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Sequence
from urllib.parse import urlparse


@dataclass
class Request:
    due: float
    kind: str  # "search" or "ingest"
    path: str
    payload: dict[str, Any]
    #: Filled in by the generator.
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from when the request was due until its answer arrived."""
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def post(url: str, path: str, payload: Any, *, timeout: float = 120.0) -> tuple[int, bytes]:
    parsed = urlparse(url)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=timeout)
    try:
        body = json.dumps(payload).encode("utf-8")
        connection.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class ServerProcess:
    """``python -m repro serve`` (or the traced launcher) as a child process."""

    def __init__(self, command: Sequence[str], *, env: dict[str, str], cwd: str, log_path: str) -> None:
        self.started = time.perf_counter()
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            list(command), cwd=cwd, env=env,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self.url = ""
        self._drain: threading.Thread | None = None

    def wait_ready(self, timeout: float = 120.0) -> str:
        """Block until the server prints its ``SERVING <url>`` line."""
        deadline = time.monotonic() + timeout
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with code {self.process.wait()} before serving")
            text = line.decode("utf-8", "replace").strip()
            if text.startswith("SERVING "):
                self.url = text.split(" ", 1)[1]
                self._drain = threading.Thread(target=self._discard_stdout, daemon=True)
                self._drain.start()
                return self.url
        raise RuntimeError("server did not report readiness in time")

    def _discard_stdout(self) -> None:
        assert self.process.stdout is not None
        for _ in self.process.stdout:
            pass

    def _proc(self, name: str) -> str:
        with open(f"/proc/{self.process.pid}/{name}") as handle:
            return handle.read()

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self._proc("status"))

    def cpu_seconds(self) -> float:
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime, all threads
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, wait, and kill only if the server ignores it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        if self._drain is not None:
            self._drain.join(timeout=5)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()
        return code


def vm_hwm_mb(status_text: str) -> float:
    """Peak resident set (``VmHWM``) in MiB from a ``/proc/<pid>/status`` text."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")


def run_open_loop(url: str, schedule: Sequence[Request], *, connections: int) -> None:
    """Send every request at its due time, on at most ``connections`` at once.

    Due times in ``schedule`` are offsets in seconds; they are rebased in
    place onto ``time.perf_counter()``.  Writes go out one at a time (a
    single writer), so the server applies them in the order they were sent.
    """
    items = sorted(schedule, key=lambda item: item.due)
    origin = time.perf_counter() + 0.05
    for item in items:
        item.due += origin
    cursor = iter(items)
    cursor_lock = threading.Lock()
    writer = threading.Lock()

    def worker() -> None:
        while True:
            with cursor_lock:
                item = next(cursor, None)
            if item is None:
                return
            delay = item.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            with writer if item.kind == "ingest" else nullcontext():
                item.sent = time.perf_counter()
                try:
                    item.status, item.body = post(url, item.path, item.payload)
                except OSError as exc:
                    item.error = f"{type(exc).__name__}: {exc}"
                item.done = time.perf_counter()

    threads = [threading.Thread(target=worker) for _ in range(max(1, connections))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
