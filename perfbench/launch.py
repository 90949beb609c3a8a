"""Start ``repro serve`` with or without the benchmark's layer wrappers.

    python3 perfbench/launch.py [--spans FILE] serve --port 0 ...

Without ``--spans`` this is exactly ``python -m repro serve ...``.  With
it, :func:`spans.install` wraps the layers' public functions first, and
the recorded spans are written to FILE on SIGUSR1 and when the server
exits, so the traced and untraced servers differ only by the wrappers.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path = Path(argv[1])
        argv = argv[2:]
    from repro import cli

    if spans_path is None:
        return cli.main(argv)

    import spans

    recorder = spans.install(spans.Recorder())
    signal.signal(
        signal.SIGUSR1, lambda signum, frame: recorder.dump(spans_path)
    )
    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
