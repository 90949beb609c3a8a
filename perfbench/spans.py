"""Per-layer tracing from outside the program.

:func:`install` wraps public functions of each layer (gateway, infer
plane, platform, ml, core, gp, runtime, persist, obs) so that every
call records a span — name, start, end, parent — in memory.  Nothing in
``src/`` changes: the wrappers are installed by the benchmark's own
code (``launch.py`` for the server, ``wl_select.py`` in process), and a
target that no longer exists is reported as absent instead of failing
the run.

:func:`layer_metrics` turns recorded spans into the per-layer metrics
and the per-layer table (calls, total, self time, median per call).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Span record layout: [id, name, start, end, parent, extra].
ID, NAME, START, END, PARENT, EXTRA = range(6)

#: Request types that only read (anything else that is not infer
#: counts as a write).
READ_REQUESTS = frozenset(
    {
        "AppStatusRequest", "JobStatusRequest", "ListJobsRequest",
        "ListAppsRequest", "RefineRequest", "EventsRequest",
        "ServerInfoRequest",
    }
)


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.absent: List[str] = []
        self.runtimes: Dict[int, Any] = {}
        self.oracles: Dict[int, Any] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(
        self,
        name: str,
        fn: Callable,
        extra: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> Callable:
        """A timed span per call; ``extra(args, result)`` annotates it."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            info = extra(args, result) if extra is not None else None
            spans.append([sid, name, start, end, parent, info])
            return result

        return wrapper

    def counted(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable[[tuple], Any]] = None,
    ) -> Callable:
        """A zero-length span: counts calls without timing them."""
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = before(args) if before is not None else None
            now = clock()
            spans.append([0, name, now, now, -1, info])
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> Dict[str, Any]:
        """Spans plus the layer counters read off captured objects."""
        return {
            "spans": list(self.spans),
            "absent": list(self.absent),
            "preemptions": sum(
                int(rt.preemption_count)
                for rt in list(self.runtimes.values())
            ),
            "stalled_picks": sum(
                int(oracle.stalled_picks)
                for oracle in list(self.oracles.values())
            ),
        }

    def dump(self, path: Path) -> None:
        """Write :meth:`snapshot` as JSON, atomically."""
        tmp = Path(str(path) + ".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------
def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if parts[-1] not in vars(owner):
        raise AttributeError(path)
    return owner, parts[-1], getattr(owner, parts[-1])


def _patch(recorder, label, module_name, path, make) -> None:
    try:
        owner, attr, original = _resolve(module_name, path)
    except (ImportError, AttributeError):
        recorder.absent.append(label)
        return
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, (staticmethod, classmethod)):
        recorder.absent.append(label)
        return
    wrapper = make(original)
    setattr(owner, attr, wrapper)
    if inspect.ismodule(owner):
        # Rebind names other modules imported with ``from m import f``.
        for other in list(sys.modules.values()):
            if (
                other is not None
                and getattr(other, "__name__", "").startswith("repro")
                and getattr(other, attr, None) is original
            ):
                setattr(other, attr, wrapper)


def _rows(index: int):
    return lambda args, result: int(len(args[index]))


def _classes_defining(module_names: Sequence[str], base, method: str):
    found = []
    for name in module_names:
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (
                cls.__module__ == module.__name__
                and issubclass(cls, base)
                and method in vars(cls)
            ):
                found.append(cls)
    return found


def install(recorder: Recorder) -> Recorder:
    """Wrap every layer's public entry points; returns ``recorder``."""
    r = recorder

    def capture(store):
        # Keep the instance so its counters can be read at dump time.
        def extra(args, result):
            store[id(args[0])] = args[0]

        return extra

    def timed(name, extra=None):
        return lambda fn: r.timed(name, fn, extra=extra)

    def counted(name, before=None):
        return lambda fn: r.counted(name, fn, before=before)

    plan = [
        ("gateway.handle", "repro.service.gateway", "ServiceGateway.handle",
         timed("gateway.handle",
               extra=lambda a, res: type(a[1]).__name__)),
        ("infer.predict", "repro.infer.plane", "InferPlane.predict",
         timed("infer.predict", extra=_rows(2))),
        ("infer.cache_lookup", "repro.infer.cache", "PredictionCache.lookup",
         timed("infer.cache_lookup",
               extra=lambda a, res: [int(len(a[3])), int(len(res[0]))])),
        ("infer.cache_store", "repro.infer.cache", "PredictionCache.store",
         timed("infer.cache_store")),
        ("platform.infer_rows", "repro.platform.server",
         "EaseMLApp.infer_rows", timed("platform.infer_rows",
                                       extra=_rows(1))),
        ("platform.feed", "repro.platform.server", "EaseMLApp.feed",
         timed("platform.feed")),
        ("core.select", "repro.core.model_picking", "GPUCBPicker.select",
         timed("core.select")),
        ("core.absorb", "repro.runtime.oracle", "AsyncClusterOracle.absorb",
         timed("core.absorb", extra=capture(r.oracles))),
        ("core.step", "repro.core.multitenant", "MultiTenantScheduler.step",
         timed("core.step")),
        ("gp.update", "repro.gp.regression", "FiniteArmGP.update",
         timed("gp.update")),
        ("runtime.step", "repro.runtime.kernel", "ClusterRuntime.step",
         timed("runtime.step", extra=capture(r.runtimes))),
        ("persist.append", "repro.persist.journal", "Journal.append",
         timed("persist.append",
               extra=lambda a, res: len(res.to_line()) + 1)),
        ("persist.commit", "repro.persist.journal", "Journal.commit",
         timed("persist.commit")),
        ("persist.fsync", "os", "fsync", timed("persist.fsync")),
        ("persist.snapshot", "repro.persist.store", "StateStore.snapshot",
         timed("persist.snapshot")),
        ("persist.open_gateway", "repro.persist.recovery", "open_gateway",
         timed("persist.open_gateway")),
        ("obs.trace_finish", "repro.obs.tracing", "Tracer.finish",
         counted("obs.trace_finish", before=lambda a: len(
             getattr(getattr(a[1], "trace", None), "spans", None) or ()))),
    ]
    for label, module_name, path, make in plan:
        _patch(r, label, module_name, path, make)
    for cls_name, method in (
        ("Counter", "inc"), ("Gauge", "set"), ("Gauge", "inc"),
        ("Gauge", "dec"), ("Histogram", "observe"),
    ):
        _patch(r, f"obs.instrument:{cls_name}.{method}", "repro.obs.metrics",
               f"{cls_name}.{method}", counted("obs.instrument"))

    # Layers with many implementations: every estimator's fit/predict
    # and every user picker's pick.
    ml_modules = [
        "repro.ml.forest", "repro.ml.linear", "repro.ml.mlp",
        "repro.ml.naive_bayes", "repro.ml.neighbors", "repro.ml.svm",
        "repro.ml.tree",
    ]
    try:
        from repro.ml.base import Estimator
        from repro.core.user_picking import UserPicker
    except ImportError:
        r.absent += ["ml.fit", "ml.predict", "core.pick"]
        return r
    for method, name in (("fit", "ml.fit"), ("predict", "ml.predict")):
        classes = _classes_defining(ml_modules, Estimator, method)
        if not classes:
            r.absent.append(name)
        for cls in classes:
            _patch(r, f"{name}:{cls.__name__}", cls.__module__,
                   f"{cls.__name__}.{method}", timed(name))
    pickers = _classes_defining(
        ["repro.core.user_picking"], UserPicker, "pick"
    )
    if not pickers:
        r.absent.append("core.pick")
    for cls in pickers:
        _patch(r, f"core.pick:{cls.__name__}", cls.__module__,
               f"{cls.__name__}.pick", timed("core.pick"))
    return r


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
#: Per-layer metrics in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("http.requests", "count"),
    ("http.self_ms", "ms"),
    ("gateway.handle_ms.infer", "ms"),
    ("gateway.handle_ms.read", "ms"),
    ("gateway.handle_ms.write", "ms"),
    ("infer.predict_ms", "ms"),
    ("infer.wait_ms", "ms"),
    ("infer.cache_hit_ratio", "fraction"),
    ("infer.rows_per_flush", "rows"),
    ("infer.requests_per_flush", "count"),
    ("platform.infer_rows_ms", "ms"),
    ("platform.feed_ms", "ms"),
    ("ml.fits", "count"),
    ("ml.fit_ms", "ms"),
    ("ml.predict_ms", "ms"),
    ("core.steps", "count"),
    ("core.pick_us", "us"),
    ("core.select_us", "us"),
    ("gp.updates", "count"),
    ("gp.update_us", "us"),
    ("runtime.advance_us", "us"),
    ("runtime.preemptions", "count"),
    ("runtime.stalled_picks", "count"),
    ("persist.appends", "count"),
    ("persist.commits", "count"),
    ("persist.commit_ms", "ms"),
    ("persist.records_per_commit", "records"),
    ("persist.bytes_per_record", "bytes"),
    ("persist.snapshots", "count"),
    ("persist.snapshot_ms", "ms"),
    ("persist.replay_s", "s"),
    ("obs.instrument_calls_per_request", "calls"),
    ("obs.spans_per_request", "spans"),
)


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class _Source:
    """One process's spans, indexed for self-time and window queries."""

    def __init__(self, document: Dict[str, Any], window) -> None:
        lo, hi = window
        self.all = document["spans"]
        self.spans = [s for s in self.all if lo <= s[START] <= hi]
        self.by_id = {s[ID]: s for s in self.all if s[ID]}
        self.children: Dict[int, List[list]] = defaultdict(list)
        for s in self.all:
            if s[PARENT] > 0:
                self.children[s[PARENT]].append(s)

    def self_time(self, span: list) -> float:
        covered = sum(
            c[END] - c[START] for c in self.children.get(span[ID], ())
        )
        return (span[END] - span[START]) - covered

    def parent_name(self, span: list) -> Optional[str]:
        parent = self.by_id.get(span[PARENT])
        return None if parent is None else parent[NAME]


def layer_metrics(
    documents: Sequence[Dict[str, Any]],
    window,
    *,
    client_requests: int = 0,
    client_seconds: float = 0.0,
    replay: Optional[Dict[str, Any]] = None,
):
    """Per-layer metric values and table rows for spans in ``window``.

    ``documents`` are :meth:`Recorder.dump` payloads (one per process);
    ``window`` is a ``(start, end)`` pair of ``perf_counter`` readings,
    which share one clock across processes on this platform.
    ``replay`` is the document of a restarted server, whose
    ``open_gateway`` span is the recovery replay.
    """
    sources = [_Source(doc, window) for doc in documents]
    by_name: Dict[str, List[tuple]] = defaultdict(list)
    for source in sources:
        for s in source.spans:
            by_name[s[NAME]].append((source, s))

    def durations(name, keep=None):
        return [
            s[END] - s[START]
            for source, s in by_name.get(name, ())
            if keep is None or keep(source, s)
        ]

    def top_level(prefix):
        return lambda source, s: not (
            source.parent_name(s) or ""
        ).startswith(prefix)

    m: Dict[str, float] = {}
    handles = by_name.get("gateway.handle", [])
    handle_seconds = sum(s[END] - s[START] for _, s in handles)
    m["http.requests"] = float(client_requests)
    m["http.self_ms"] = (
        1e3 * (client_seconds - handle_seconds) / client_requests
        if client_requests and handles
        else 0.0
    )
    kinds = {"infer": [], "read": [], "write": []}
    for _, s in handles:
        rtype = s[EXTRA] or ""
        kind = (
            "infer" if rtype == "InferRequest"
            else "read" if rtype in READ_REQUESTS else "write"
        )
        kinds[kind].append(s[END] - s[START])
    for kind, values in kinds.items():
        m[f"gateway.handle_ms.{kind}"] = 1e3 * _median(values)

    predicts = by_name.get("infer.predict", [])
    m["infer.predict_ms"] = 1e3 * _median(
        [s[END] - s[START] for _, s in predicts]
    )
    waits, requests_with_misses = [], 0
    for source, s in predicts:
        inner = 0.0
        missed = True
        for child in source.children.get(s[ID], ()):
            if child[NAME] in (
                "infer.cache_lookup", "infer.cache_store",
                "platform.infer_rows",
            ):
                inner += child[END] - child[START]
            if child[NAME] == "infer.cache_lookup" and child[EXTRA]:
                rows, hits = child[EXTRA]
                missed = hits < rows
        waits.append((s[END] - s[START]) - inner)
        requests_with_misses += int(missed)
    m["infer.wait_ms"] = 1e3 * _median(waits)
    lookups = [s[EXTRA] for _, s in by_name.get("infer.cache_lookup", [])]
    looked = sum(rows for rows, _ in lookups)
    m["infer.cache_hit_ratio"] = (
        sum(hits for _, hits in lookups) / looked if looked else 0.0
    )
    flushes = by_name.get("platform.infer_rows", [])
    m["infer.rows_per_flush"] = (
        sum(s[EXTRA] for _, s in flushes) / len(flushes) if flushes else 0.0
    )
    m["infer.requests_per_flush"] = (
        requests_with_misses / len(flushes) if flushes else 0.0
    )
    m["platform.infer_rows_ms"] = 1e3 * _median(
        durations("platform.infer_rows")
    )
    m["platform.feed_ms"] = 1e3 * _median(durations("platform.feed"))

    fits = durations("ml.fit", top_level("ml."))
    m["ml.fits"] = float(len(fits))
    m["ml.fit_ms"] = 1e3 * sum(fits)
    m["ml.predict_ms"] = 1e3 * _median(
        durations("ml.predict", top_level("ml."))
    )

    m["core.steps"] = float(
        len(by_name.get("core.absorb", [])) + len(by_name.get("core.step", []))
    )
    m["core.pick_us"] = 1e6 * _median(
        durations("core.pick", top_level("core.pick"))
    )
    m["core.select_us"] = 1e6 * _median(durations("core.select"))
    updates = durations("gp.update")
    m["gp.updates"] = float(len(updates))
    m["gp.update_us"] = 1e6 * _median(updates)
    m["runtime.advance_us"] = 1e6 * _median(durations("runtime.step"))
    m["runtime.preemptions"] = float(
        sum(doc.get("preemptions", 0) for doc in documents)
    )
    m["runtime.stalled_picks"] = float(
        sum(doc.get("stalled_picks", 0) for doc in documents)
    )

    appends = by_name.get("persist.append", [])
    m["persist.appends"] = float(len(appends))
    commits = durations(
        "persist.fsync",
        lambda source, s: source.parent_name(s)
        in ("persist.append", "persist.commit"),
    )
    m["persist.commits"] = float(len(commits))
    m["persist.commit_ms"] = 1e3 * _median(commits)
    m["persist.records_per_commit"] = (
        len(appends) / len(commits) if commits else 0.0
    )
    m["persist.bytes_per_record"] = (
        sum(s[EXTRA] or 0 for _, s in appends) / len(appends)
        if appends else 0.0
    )
    snapshots = durations("persist.snapshot")
    m["persist.snapshots"] = float(len(snapshots))
    m["persist.snapshot_ms"] = 1e3 * _median(snapshots)
    m["persist.replay_s"] = 0.0
    if replay is not None:
        opens = [
            s[END] - s[START]
            for s in replay["spans"]
            if s[NAME] == "persist.open_gateway"
        ]
        m["persist.replay_s"] = opens[-1] if opens else 0.0

    n_requests = len(handles)
    instruments = len(by_name.get("obs.instrument", []))
    m["obs.instrument_calls_per_request"] = (
        instruments / n_requests if n_requests else 0.0
    )
    finishes = by_name.get("obs.trace_finish", [])
    m["obs.spans_per_request"] = (
        sum(s[EXTRA] or 0 for _, s in finishes) / len(finishes)
        if finishes else 0.0
    )

    # The table: one row per span name.
    rows = []
    for name in sorted(by_name):
        pairs = by_name[name]
        total = sum(s[END] - s[START] for _, s in pairs)
        own = sum(source.self_time(s) for source, s in pairs)
        rows.append(
            [name, len(pairs), 1e3 * total, 1e3 * own,
             1e3 * _median([s[END] - s[START] for _, s in pairs])]
        )
    absent = sorted({a for doc in documents for a in doc.get("absent", ())})
    return m, rows, absent


def render_table(rows, absent, title: str) -> str:
    header = ["span", "calls", "total ms", "self ms", "median ms"]
    body = [
        [name, str(calls), f"{total:.1f}", f"{own:.1f}", f"{mid:.4f}"]
        for name, calls, total, own, mid in rows
    ]
    body += [[name, "absent", "", "", ""] for name in absent]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) if body
        else len(header[i])
        for i in range(len(header))
    ]
    lines = [title]
    for row in [header] + body:
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)
