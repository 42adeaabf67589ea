"""``setup.py`` metadata: the name and the version the package reports."""

import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_setup_reports_name_and_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.split() == ["repro", repro.__version__]
