"""Shared plumbing: paths, host fingerprint, statistics, server processes.

Everything here runs in the load-generating process.  The program under
test is imported from ``src/`` of the checkout the benchmark sits in;
nothing is installed.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, dead server)."""


def require_program() -> None:
    """Put ``src/`` on the import path, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC}/repro; run the benchmark from "
            "the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def host_fingerprint() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample.

    Callers report p99 over samples of 1000 or more, so at least ten
    samples lie beyond it; they print the sample count beside it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median of a sample."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(mid) if mid else math.inf,
    }


def rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    text = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+) kB", text, re.M)
    if match is None:
        raise BenchError(f"no VmHWM for process {pid}")
    return int(match.group(1)) / 1024.0


def process_cpu_s(pid: int) -> float:
    """CPU seconds a live process has run, summed over its threads.

    Reads the process's CPU-time clock (Linux encodes another process's
    clock id as ``(~pid << 3) | CPUCLOCK_SCHED``).
    """
    return time.clock_gettime(((~pid) << 3) | 2)


def children_cpu_s() -> float:
    """CPU seconds of this process's children that have been reaped."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def own_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Scratch space inside the checkout
# ----------------------------------------------------------------------
@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory under ``perfbench/out``, removed on exit."""
    path = OUT_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# The server as its own process
# ----------------------------------------------------------------------
_BANNER = re.compile(r"ease\.ml service listening on (\S+)")
_TOKEN = re.compile(r"tenant (\S+): (\S+)")


class ServerProcess:
    """``repro serve`` started through ``launch.py``.

    Only deployment flags are passed (port, tenants, state directory),
    so a change to any other default is measured, not masked.  With
    ``spans`` set, the launcher wraps the layers' public functions and
    writes the recorded spans to that file on SIGUSR1 and at exit.
    """

    def __init__(
        self,
        tenants: Sequence[str],
        *,
        state_dir: Optional[Path] = None,
        spans: Optional[Path] = None,
        log: Optional[Path] = None,
    ) -> None:
        self.spans = spans
        argv = [sys.executable, str(BENCH_DIR / "launch.py")]
        if spans is not None:
            argv += ["--spans", str(spans)]
        argv += ["serve", "--port", "0"]
        for name in tenants:
            argv += ["--tenant", name]
        if state_dir is not None:
            argv += ["--state-dir", str(state_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env.pop("PYTHONSTARTUP", None)
        self._log = open(log or os.devnull, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=str(ROOT),
            text=True,
        )
        self.url: Optional[str] = None
        self.tokens: Dict[str, str] = {}
        self._drain: Optional[threading.Thread] = None

    def wait_ready(self, timeout: float = 120.0) -> "ServerProcess":
        """Read the banner: URL and tenant tokens."""
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            match = _BANNER.match(line)
            if match:
                self.url = match.group(1)
            match = _TOKEN.match(line)
            if match:
                self.tokens[match.group(1)] = match.group(2)
            if line.startswith("press Ctrl-C"):
                break
            if time.monotonic() > deadline:
                break
        if self.url is None:
            code = self.proc.poll()
            self.stop()
            raise BenchError(f"server did not start (exit code {code})")
        # Keep the pipe drained so a chatty server never blocks on it.
        self._drain = threading.Thread(
            target=self._discard, args=(self.proc.stdout,), daemon=True
        )
        self._drain.start()
        return self

    @staticmethod
    def _discard(stream) -> None:
        for _ in stream:
            pass

    def rss_mb(self) -> float:
        return rss_mb_of(self.proc.pid)

    def cpu_s(self) -> float:
        """CPU seconds the server has run; 0 once it is reaped, when
        :func:`children_cpu_s` counts them instead."""
        if self.proc.returncode is not None:
            return 0.0
        try:
            return process_cpu_s(self.proc.pid)
        except OSError:
            return 0.0

    def dump_spans(self, timeout: float = 60.0) -> None:
        """Ask a traced server to write its spans; wait for the file."""
        if self.spans is None:
            return
        self.spans.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.spans.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError("traced server wrote no spans")
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL: the crash the durable path must survive."""
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def stop(self, timeout: float = 20.0) -> None:
        """SIGINT (the server's clean shutdown), SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=5.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class Servers:
    """Every server a run starts; all are stopped on the way out."""

    def __init__(self) -> None:
        self.live: List[ServerProcess] = []

    def start(self, *args, **kwargs) -> ServerProcess:
        server = ServerProcess(*args, **kwargs)
        self.live.append(server)
        return server.wait_ready()

    def cpu_s(self) -> float:
        """The benchmark's clock: CPU seconds run by this process, its
        reaped children and its live servers.

        Every time the service workloads report is read off this clock
        (see "Clocks" in README.md): it advances only while the
        benchmark's own processes run, so a host that steals or shares
        its cores slows the wall clock but not this one.
        """
        return (time.process_time() + children_cpu_s()
                + sum(server.cpu_s() for server in self.live))

    def thread_cpu_s(self) -> float:
        """One caller's clock: CPU seconds of the calling thread and of
        the live servers, which includes whatever the server ran while
        the caller waited on it."""
        return time.thread_time() + sum(
            server.cpu_s() for server in self.live
        )

    def stop_all(self) -> None:
        for server in self.live:
            server.stop()
        self.live.clear()

    def __enter__(self) -> "Servers":
        return self

    def __exit__(self, *exc) -> None:
        self.stop_all()


def read_json(path: Path) -> Dict:
    return json.loads(Path(path).read_text())


def write_json(path: Path, document: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)


class Outcome:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        #: End-to-end metric values by name.
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        #: Failed correctness checks, one line each.
        self.problems: List[str] = []
        #: Facts worth printing (sample counts, hit share, ...).
        self.facts: Dict[str, object] = {}
        #: Per-layer metric values and table (traced runs only).
        self.layers: Dict[str, float] = {}
        self.table = ""
        #: Traced runs: span documents, the measured window, the
        #: client's (requests, seconds) in it, and a restarted server's
        #: document (its replay).
        self.documents: List[Dict] = []
        self.window = (0.0, 0.0)
        self.client = (0, 0.0)
        self.replay: Optional[Dict] = None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)
