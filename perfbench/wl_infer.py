"""``infer``: read-only serving over HTTP, with a known cache-hit share.

Set-up: a server process with four tenants, each owning one app that
is fed and trained in a fixed order, then the hot pools are sent once
so the prediction cache holds them.  Measured phase: one connection,
closed loop, sending ``infer_batch`` requests of 256 rows for the four
tenants in turn, each with its own tenant's token — 128 rows drawn
from the tenant's hot pool (256 rows per tenant, 1024 in all, below
the 4096-row default cache) and 128 fresh rows never sent before.
Every 25th request is a bulk request of 2048 rows, half hot and half
fresh likewise; the p99 falls among these.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

import common
import svc

HOT_ROWS = 256
HOT_PER_REQUEST = 128
FRESH_PER_REQUEST = 128
#: Every BULK_EVERY-th request is BULK_SCALE times as large (same hot
#: and fresh halves), so the serving tail is the program's own bulk
#: requests, not the host's bursts of stolen CPU time.
BULK_EVERY = 25
BULK_SCALE = 8
SETUP_JOBS_EACH = 12
SETUPS = 3


def check_predictions(predictions: np.ndarray) -> bool:
    """Every prediction is one of the declared class labels."""
    return bool(
        predictions.size
        and np.all((predictions >= 0) & (predictions < svc.N_CLASSES))
    )


def hot_mismatches(requests, reference: Dict[int, np.ndarray],
                   version: Dict[int, str]) -> int:
    """Hot rows answered differently from their first answer.

    ``requests`` holds ``(tenant, hot_indices, hot_predictions,
    model_version)``; under one model version a hot row must get the
    same label every time, from the cache or not.
    """
    bad = 0
    for tenant, idx, labels, model_version in requests:
        if model_version != version[tenant]:
            bad += len(idx)
            continue
        bad += int(np.sum(reference[tenant][idx] != labels))
    return bad


def _setup(servers, tasks, seed, spans):
    """Start, onboard, train, warm; returns (server, client, facts)."""
    done = svc.Onboarded()
    started = servers.cpu_s()
    server = servers.start(svc.tenant_names(), spans=spans)
    client = svc.Client(server.url, server.tokens, servers.thread_cpu_s)
    client.call(0, "info")
    done.boot_s = servers.cpu_s() - started
    svc.onboard(client, tasks, SETUP_JOBS_EACH, done)
    hot, reference, version = {}, {}, {}
    for t, task in enumerate(tasks):
        rng = np.random.default_rng([seed, 1, t])
        hot[t] = task.sample(rng, HOT_ROWS)[0]
        labels, versions = svc.predict_all(client, t, hot[t])
        reference[t] = labels
        version[t] = versions.pop()
    setup_s = servers.cpu_s() - started
    return server, client, done, setup_s, hot, reference, version


def run(seed: int, seconds: float, spans_path=None) -> common.Outcome:
    out = common.Outcome()
    tasks = svc.tasks()
    setups: List[float] = []
    boots: List[float] = []
    acks: List[float] = []
    turnarounds: List[float] = []
    train_s, train_jobs = 0.0, 0
    with svc.quiet_load_generator(), common.Servers() as servers:
        for i in range(SETUPS):
            last = i == SETUPS - 1
            server, client, done, setup_s, hot, reference, version = _setup(
                servers, tasks, seed, spans_path if last else None
            )
            setups.append(setup_s)
            boots.append(done.boot_s)
            acks += done.ack_s
            turnarounds += done.turnaround_s
            train_s += done.train_s
            train_jobs += done.jobs
            if not last:
                client.close()
                servers.live.remove(server)
                server.stop()
        for t in hot:
            out.check(check_predictions(reference[t]),
                      f"invalid label in tenant {t}'s hot-pool answers")

        # Measured phase: one closed-loop connection for every tenant.
        latencies: List[float] = []
        walls: List[float] = []
        requests: List[tuple] = []  # hot-row answers to check
        invalid = failures = 0
        rng = np.random.default_rng([seed, 2])
        start, start_cpu = time.perf_counter(), servers.cpu_s()
        deadline = start + seconds
        i = n_rows = 0
        while time.perf_counter() < deadline:
            t = i % svc.N_TENANTS
            scale = BULK_SCALE if i % BULK_EVERY == BULK_EVERY - 1 else 1
            i += 1
            idx = rng.integers(0, HOT_ROWS, scale * HOT_PER_REQUEST)
            fresh = tasks[t].sample(rng, scale * FRESH_PER_REQUEST)[0]
            rows = np.vstack([hot[t][idx], fresh])
            try:
                response, elapsed = client.call(
                    t, "infer_batch", svc.app_name(t), rows.tolist()
                )
            except Exception:  # noqa: BLE001 - counted, not fatal
                failures += 1
                continue
            latencies.append(elapsed)
            walls.append(client.wall)
            n_rows += len(rows)
            labels = np.asarray(response.predictions, dtype=np.int64)
            if len(labels) != len(rows) or not check_predictions(labels):
                invalid += 1
                continue
            requests.append(
                (t, idx, labels[:len(idx)], response.model_version)
            )
        end, end_cpu = time.perf_counter(), servers.cpu_s()
        window = (start, end)

        n_requests = len(latencies)
        out.check(invalid == 0, f"{invalid} responses had invalid labels")
        bad = hot_mismatches(requests, reference, version)
        out.check(bad == 0, f"{bad} hot-row answers changed under one "
                  "model version")

        _, accuracy, regret, majority = svc.score_held_out(client, tasks)
        out.check(accuracy > majority,
                  f"accuracy {accuracy:.4f} is not above the majority-class "
                  f"share {majority:.4f}")
        rss = server.rss_mb()
        client.close()
        documents = []
        if spans_path is not None:
            server.dump_spans()
            documents.append(common.read_json(spans_path))
        servers.stop_all()

    out.attempted = n_requests + failures
    out.failed = failures
    out.metrics = {
        "setup_s": common.median(setups),
        "rows_per_s": n_rows / (end_cpu - start_cpu),
        "p50_ms": 1e3 * common.median(latencies),
        "p99_ms": 1e3 * common.percentile(latencies, 99.0),
        "ack_ms": 1e3 * common.median(acks),
        "jobs_per_s": train_jobs / train_s,
        "turnaround_ms": 1e3 * common.median(turnarounds),
        "recovery_s": common.median(boots),
        "accuracy": accuracy,
        "regret": regret,
        "rss_mb": rss,
    }
    out.facts = {
        "requests": n_requests,
        "rows_per_request": HOT_PER_REQUEST + FRESH_PER_REQUEST,
        "bulk_requests": f"1 in {BULK_EVERY}, {BULK_SCALE}x the rows",
        "hot_rows_total": HOT_ROWS * svc.N_TENANTS,
        "setup_jobs": train_jobs,
        "setup_feeds": len(acks),
        "majority_share": majority,
        "wall_rows_per_s": round(n_rows / (end - start), 1),
        "wall_p50_ms": round(1e3 * common.median(walls), 3),
        "wall_p99_ms": round(1e3 * common.percentile(walls, 99.0), 3),
    }
    if documents:
        out.documents = documents
        out.window = window
        out.client = (n_requests, sum(walls))
    return out
