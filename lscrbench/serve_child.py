"""A traced server: install the span wrappers, then run ``repro.cli.main``.

Usage: ``python lscrbench/serve_child.py SPANS_JSON serve ARGS...``

The server is the same code path as ``python -m repro serve ARGS...``;
only the wrappers from :mod:`spans` are added.  Spans are written to
``SPANS_JSON`` when the server exits and whenever the process receives
SIGUSR1 (so a server that is about to be SIGKILLed can be flushed
first).
"""

from __future__ import annotations

import signal
import sys

from spans import Recorder, install


def main(argv: list[str]) -> int:
    path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(path))
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
