"""Shared helpers for the end-to-end scenarios: real ``repro`` processes.

Each scenario drives ``python -m repro`` subprocesses over real sockets
from a pytest test, so it runs the same locally and in CI.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
READY = re.compile(r"listening on (http://\S+)")


def cli_env() -> dict:
    """The environment a ``repro`` subprocess runs in (source tree first)."""
    return {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def run_cli(*args, env):
    subprocess.run(
        [sys.executable, "-m", "repro", *args], check=True, env=env,
        stdout=subprocess.DEVNULL,
    )


def boot_server(args, env):
    """Start one server process; returns ``(proc, url)`` once it's ready."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    for line in proc.stdout:
        match = READY.search(line)
        if match:
            return proc, match.group(1)
    proc.wait(timeout=5)
    raise AssertionError(
        f"server exited (rc={proc.returncode}) before printing its ready line"
    )


def stop_server(proc) -> None:
    """Terminate a server (kill it if it lingers) and close its pipe."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    proc.stdout.close()


def post(base, path, payload, timeout=30):
    request = urllib.request.Request(
        f"{base}{path}", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return json.loads(resp.read())


def get(base, path, timeout=30):
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as resp:
        return resp.read().decode()
