"""Launching servers and talking to them the way a client does.

:class:`Fleet` starts ``python -m repro serve ...`` processes (or, for
a traced pass, ``serve_child.py``, which runs the same CLI with the span
wrappers installed), times launch to ready, and stops every process it
started.  :class:`Client` is a stdlib keep-alive HTTP/1.1 connection
with default socket options that counts its (re)connects, so a run can
prove it never fell back to one connection per request.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

from inputs import child_env

_LISTENING = re.compile(r"listening on http://([^:/\s]+):(\d+)")
READY_TIMEOUT_S = 120.0


class Server:
    """One launched server process."""

    def __init__(self, process: subprocess.Popen, args: list[str], spans: Path | None):
        self.process = process
        self.args = args
        self.spans = spans
        self.host: str | None = None
        self.port: int | None = None
        self.ready_s: float | None = None
        self._launched = perf_counter()
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _read_stdout(self) -> None:
        # Drains the pipe for the process's whole life, so a chatty
        # server can never block on a full pipe.
        for line in self.process.stdout:
            match = _LISTENING.search(line)
            if match and not self._listening.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._listening.set()

    def wait_ready(self) -> float:
        """Block until the server answers ``GET /healthz``; returns launch-to-ready seconds."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not self._listening.wait(0.05):
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}: {self.args}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not listening after {READY_TIMEOUT_S}s: {self.args}")
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"/healthz answered {response.status}")
        finally:
            connection.close()
        self.ready_s = perf_counter() - self._launched
        return self.ready_s


class Fleet:
    """Starts server processes and guarantees they are all stopped."""

    def __init__(self, root: Path, rundir: Path, traced: bool) -> None:
        self.root = root
        self.rundir = rundir
        self.traced = traced
        self.servers: list[Server] = []

    def start(self, args: list[str]) -> Server:
        """Launch without waiting (see :meth:`Server.wait_ready`)."""
        spans = None
        if self.traced:
            spans = self.rundir / f"spans-{len(self.servers)}.json"
            command = [sys.executable, str(Path(__file__).with_name("serve_child.py")), str(spans)]
        else:
            command = [sys.executable, "-m", "repro"]
        process = subprocess.Popen(
            command + args,
            cwd=self.root,
            env=child_env(self.root),
            stdout=subprocess.PIPE,
            text=True,
        )
        server = Server(process, args, spans)
        self.servers.append(server)
        return server

    def launch(self, args: list[str]) -> Server:
        server = self.start(args)
        server.wait_ready()
        return server

    def stop(self, server: Server, timeout: float = 30.0) -> None:
        """Ctrl-C the server (a clean exit, which also flushes its spans)."""
        if server.process.poll() is None:
            server.process.send_signal(signal.SIGINT)
            try:
                server.process.wait(timeout)
            except subprocess.TimeoutExpired:
                server.process.kill()
                server.process.wait()
        server._reader.join(5)

    def kill(self, server: Server) -> None:
        """SIGKILL, after flushing a traced server's spans via SIGUSR1."""
        if server.spans is not None:
            before = server.spans.stat().st_mtime_ns if server.spans.exists() else None
            server.process.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if server.spans.exists() and server.spans.stat().st_mtime_ns != before:
                    break
                time.sleep(0.02)
        server.process.kill()
        server.process.wait()
        server._reader.join(5)

    def close(self) -> None:
        for server in self.servers:
            self.stop(server)

    def span_files(self) -> list[Path]:
        return [s.spans for s in self.servers if s.spans is not None and s.spans.exists()]


class CountingConnection(http.client.HTTPConnection):
    """``http.client`` keep-alive connection that counts socket opens."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.connects = 0

    def connect(self) -> None:
        self.connects += 1
        super().connect()


class Client:
    """One keep-alive connection to a server; records every POST round trip."""

    def __init__(self, server: Server) -> None:
        self.connection = CountingConnection(server.host, server.port, timeout=120)
        self.requests = 0
        #: ``(start, end)`` perf_counter pairs, one per POST.
        self.posts: list[tuple[float, float]] = []

    def post(self, path: str, payload: dict) -> tuple[int, dict, float, float]:
        body = json.dumps(payload).encode("utf-8")
        started = perf_counter()
        self.connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        data = response.read()
        ended = perf_counter()
        self.requests += 1
        self.posts.append((started, ended))
        return response.status, json.loads(data), started, ended

    def get(self, path: str) -> dict:
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        data = response.read()
        self.requests += 1
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(data)

    @property
    def connects(self) -> int:
        return self.connection.connects

    def close(self) -> None:
        self.connection.close()
