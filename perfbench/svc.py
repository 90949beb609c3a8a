"""Inputs and client plumbing shared by the service workloads.

Tenant data sets are fixed: each tenant owns one app whose task is a
3-class Gaussian-blob problem in 4 dimensions, drawn once from
``DATA_SEED`` (like the paper's fixed data sets).  The workload seed
drives the traffic instead: hot pools, fresh inference rows, and the
rows the writer feeds.  Because training reads the split taken at
admission, the same candidates are fitted in the same order on every
run, so the training work does not depend on the seed.

The blobs are isotropic with equal class priors, so the Bayes-optimal
classifier is "nearest class centre"; the benchmark scores served
models against it without asking the program.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

#: Seed of the fixed tenant data sets (not the workload seed).
DATA_SEED = 20180801
N_TENANTS = 4
N_FEATURES = 4
N_CLASSES = 3
#: Labelled rows fed to each app at onboarding, in feeds of this size.
ONBOARD_ROWS = 120
ONBOARD_CHUNK = 10
#: Fixed held-out rows per tenant, scored after the measured phase.
HELD_OUT_ROWS = 600
SEPARATION = 1.6
PROGRAM = (
    "{input: {[Tensor[%d]], []}, output: {[Tensor[%d]], []}}"
    % (N_FEATURES, N_CLASSES)
)


def tenant_names() -> List[str]:
    return [f"tenant{i}" for i in range(N_TENANTS)]


def app_name(tenant: int) -> str:
    return f"app{tenant}"


class Task:
    """One tenant's fixed classification problem."""

    def __init__(self, index: int) -> None:
        rng = np.random.default_rng([DATA_SEED, index])
        self.centers = rng.normal(0.0, SEPARATION, (N_CLASSES, N_FEATURES))
        self.onboard = self.sample(rng, ONBOARD_ROWS)
        self.held_out = self.sample(rng, HELD_OUT_ROWS)

    def sample(self, rng: np.random.Generator, n: int):
        labels = rng.integers(0, N_CLASSES, n)
        rows = self.centers[labels] + rng.normal(0.0, 1.0, (n, N_FEATURES))
        return rows, labels

    def bayes(self, rows: np.ndarray) -> np.ndarray:
        """The Bayes-optimal labels: the nearest class centre."""
        d = ((rows[:, None, :] - self.centers[None, :, :]) ** 2).sum(-1)
        return np.argmin(d, axis=1)


def tasks() -> List[Task]:
    return [Task(i) for i in range(N_TENANTS)]


@contextlib.contextmanager
def quiet_load_generator():
    """Keep the load generator's own pauses out of measured latencies.

    For the whole of a service workload's run, this process runs no
    garbage collection and hands the interpreter lock between its
    threads every 0.1 ms instead of every 5 ms, so a caller whose reply
    has arrived is not left waiting behind the other caller's work.
    The server process keeps its defaults.
    """
    interval = sys.getswitchinterval()
    gc.collect()
    gc.disable()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
        gc.enable()


class Client:
    """One keep-alive connection shared by every tenant.

    Each call carries its own tenant's bearer token; the SDK reads
    ``token`` per request, so switching it routes the next call.
    """

    def __init__(self, url: str, tokens: Dict[str, str],
                 clock: Callable[[], float]) -> None:
        from repro.service.client import EaseMLClient

        self.sdk = EaseMLClient(url, "", timeout=120.0)
        self.tokens = [tokens[name] for name in tenant_names()]
        #: The caller's clock (``common.Servers.thread_cpu_s``).
        self.clock = clock
        self.requests = 0
        #: Wall seconds: in all calls, and in the last one.
        self.seconds = 0.0
        self.wall = 0.0

    def call(self, tenant: int, verb: str, *args, **kwargs):
        """Run one SDK verb as ``tenant``; returns (response, seconds
        on the caller's clock)."""
        self.sdk.token = self.tokens[tenant]
        started, wall = self.clock(), time.perf_counter()
        response = getattr(self.sdk, verb)(*args, **kwargs)
        self.wall = time.perf_counter() - wall
        elapsed = self.clock() - started
        self.requests += 1
        self.seconds += self.wall
        return response, elapsed

    def close(self) -> None:
        self.sdk.close()


@dataclass
class Onboarded:
    """What set-up acknowledged, per tenant."""

    boot_s: float = 0.0
    ack_s: List[float] = field(default_factory=list)
    turnaround_s: List[float] = field(default_factory=list)
    train_s: float = 0.0
    jobs: int = 0
    example_ids: Dict[int, List[int]] = field(default_factory=dict)


def onboard(client: Client, task_list: Sequence[Task], jobs_each: int,
            result: Onboarded) -> None:
    """Register, feed and train every app in a fixed order."""
    for t, task in enumerate(task_list):
        client.call(t, "register_app", app_name(t), PROGRAM)
        rows, labels = task.onboard
        ids: List[int] = []
        for lo in range(0, len(rows), ONBOARD_CHUNK):
            response, seconds = client.call(
                t, "feed", app_name(t), rows[lo:lo + ONBOARD_CHUNK].tolist(),
                [int(v) for v in labels[lo:lo + ONBOARD_CHUNK]],
            )
            result.ack_s.append(seconds)
            ids.extend(response.example_ids)
        result.example_ids[t] = ids
    started = client.clock()
    for _ in range(jobs_each):
        for t in range(len(task_list)):
            status, seconds = train_one(client, t)
            if status.state != "finished":
                raise RuntimeError(
                    f"set-up job for {app_name(t)} ended {status.state}"
                )
            result.turnaround_s.append(seconds)
            result.jobs += 1
    result.train_s += client.clock() - started


def train_one(client: Client, tenant: int):
    """Submit one job and wait for it; returns (status, turnaround)."""
    started = client.clock()
    (handle,), _ = client.call(tenant, "submit_training", app_name(tenant), 1)
    status, _ = client.call(tenant, "wait", handle.job_id, timeout=120.0)
    return status, client.clock() - started


def predict_all(client: Client, tenant: int, rows: np.ndarray,
                chunk: int = 200):
    """Predictions for many rows; returns (labels, model_versions)."""
    out, versions = [], set()
    for lo in range(0, len(rows), chunk):
        response, _ = client.call(
            tenant, "infer_batch", app_name(tenant),
            rows[lo:lo + chunk].tolist(),
        )
        out.extend(response.predictions)
        versions.add(response.model_version)
    return np.asarray(out, dtype=np.int64), versions


def score_held_out(client: Client, task_list: Sequence[Task]):
    """Held-out predictions, accuracy and regret against Bayes.

    Returns ``(predictions, accuracy, regret, majority_share)`` where
    regret is the mean over tenants of (Bayes-optimal accuracy - served
    accuracy) on the same rows.
    """
    predictions, correct, total, gaps, majority = [], 0, 0, [], 0
    for t, task in enumerate(task_list):
        rows, labels = task.held_out
        labels_hat, _ = predict_all(client, t, rows)
        predictions.append(labels_hat)
        hits = int(np.sum(labels_hat == labels))
        correct += hits
        total += len(labels)
        bayes = float(np.mean(task.bayes(rows) == labels))
        gaps.append(bayes - hits / len(labels))
        majority += int(np.bincount(labels, minlength=N_CLASSES).max())
    return predictions, correct / total, float(np.mean(gaps)), majority / total
