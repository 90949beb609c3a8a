"""``select``: the paper's multi-tenant model selection, in process.

Set-up: the 179CLASSIFIER quality/cost matrix (121 data sets x 179
models) is split by the workload seed into 20 tenants and 101 held-out
users; the held-out users build the GP prior
(``experiments.build_prior``), and eight seeded membership traces say
when each tenant arrives and departs.  Measured phase: episodes of
HYBRID user picking over cost-aware GP-UCB dispatching 300 jobs
onto an 8-GPU simulated pool with ``partition`` placement through
``AsyncClusterOracle.run_concurrent``, cycling over the eight traces
until the time is up.  No HTTP, no journal, no fits.

The benchmark supplies the trainer (a replay of the quality matrix with
observation noise), which also timestamps each dispatch; completions
are timestamped through the oracle's ``on_absorb`` hook.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Sequence

import numpy as np

import common
from repro.core.beta import TheoremBeta
from repro.core.model_picking import GPUCBPicker
from repro.core.multitenant import MultiTenantScheduler
from repro.core.user_picking import HybridPicker
from repro.datasets.classifier179 import load_179classifier
from repro.engine.cluster import GPUPool
from repro.engine.trainer import Trainer
from repro.experiments.protocol import ExperimentConfig, build_prior
from repro.runtime.oracle import AsyncClusterOracle
from repro.runtime.placement import make_placement
from repro.runtime.workload import WorkloadGenerator

N_TENANTS = 20
N_GPUS = 8
JOBS = 300
#: Jobs of episode 0 replayed through the frozen seed stack.
PARITY_PREFIX = 120
#: Distinct episode inputs; episode e reuses the inputs of e mod this.
TRACES = 8
SETUPS = 5
SPLIT_SEED = 2018
NOISE = 0.01
#: Membership trace: tenants arrive with their first trace job and
#: leave DEPARTURE after their last (simulated time units).
TRACE_JOBS = 120
TRACE_RATE = 200.0
DEPARTURE = 0.6
#: Scheduler state rebuilt from history this many times for
#: ``recovery_s`` (their median is reported).
REBUILDS = 20
#: Every time this workload reports is CPU time of this process (see
#: "Clocks" in README.md); only the measured phase's length is wall.
CLOCK = time.process_time


class ReplayTrainer(Trainer):
    """Quality-matrix replay with noise; timestamps every dispatch."""

    def __init__(self, quality: np.ndarray, cost: np.ndarray,
                 seed) -> None:
        self.quality = quality
        self.cost = cost
        self.rng = np.random.default_rng(seed)
        #: (CPU clock, user, model) per dispatch, in job-id order.
        self.dispatches: List[tuple] = []

    @property
    def n_users(self) -> int:
        return self.quality.shape[0]

    def n_models(self, user: int) -> int:
        return self.quality.shape[1]

    def expected_costs(self, user: int) -> np.ndarray:
        return self.cost[user].copy()

    def train(self, user: int, model: int):
        self.dispatches.append((CLOCK(), user, model))
        reward = float(np.clip(
            self.quality[user, model] + NOISE * self.rng.normal(), 0.0, 1.0
        ))
        return reward, float(self.cost[user, model])


class Setup:
    """Everything an episode needs, built from the workload seed."""

    def __init__(self, seed: int) -> None:
        full = load_179classifier(seed=0)
        # The split of data sets into tenants and prior users is fixed
        # (like the paper's test users); the seed drives the traces.
        order = np.random.default_rng(SPLIT_SEED).permutation(full.n_users)
        self.tenants = sorted(int(u) for u in order[:N_TENANTS])
        held_out = sorted(int(u) for u in order[N_TENANTS:])
        self.dataset = full.subset_users(self.tenants)
        self.config = ExperimentConfig(cost_aware=True)
        self.cov, self.mean, self.gp_noise = build_prior(
            full.quality[held_out], self.config, seed=seed
        )
        self.traces = [
            WorkloadGenerator.from_dataset(
                self.dataset, arrival="poisson", rate=TRACE_RATE,
                departure_delay=DEPARTURE,
                seed=np.random.default_rng([seed, 6, e]),
            ).generate(TRACE_JOBS).membership()
            for e in range(TRACES)
        ]


def _picker_factory(setup: Setup, legacy, seed, admissions):
    def make(user: int):
        started = CLOCK()
        costs = setup.dataset.cost[user]
        beta = TheoremBeta(
            setup.dataset.n_models, setup.config.delta,
            c_star=float(np.max(costs)), n_users=setup.dataset.n_users,
        )
        if legacy is not None:
            picker = legacy.LegacyGPUCBPicker(
                setup.cov, beta, costs, noise=setup.gp_noise,
                prior_mean=setup.mean, seed=seed,
            )
        else:
            picker = GPUCBPicker(
                setup.cov, beta, costs, noise=setup.gp_noise,
                prior_mean=setup.mean, seed=seed,
            )
        admissions.append(CLOCK() - started)
        return picker

    return make


def episode(setup: Setup, seed: int, e: int, jobs: int, *, legacy=None,
            split: int = PARITY_PREFIX):
    """Run one episode; returns a dict of its outputs."""
    k = e % TRACES
    picker_seed = int(np.random.default_rng([seed, 7, k]).integers(2**31))
    trainer = ReplayTrainer(
        setup.dataset.quality, setup.dataset.cost, [seed, 8, k]
    )
    oracle = AsyncClusterOracle(
        trainer, GPUPool(N_GPUS, scaling_efficiency=0.9),
        make_placement("partition"),
    )
    absorbed: List[tuple] = []
    oracle.on_absorb(
        lambda job: absorbed.append((CLOCK(), job.job_id))
    )
    user_picker = (
        legacy.LegacyHybridPicker(s=setup.config.hybrid_s, seed=picker_seed)
        if legacy is not None
        else HybridPicker(s=setup.config.hybrid_s, seed=picker_seed)
    )
    scheduler = MultiTenantScheduler(oracle, {}, user_picker)
    admissions: List[float] = []
    factory = _picker_factory(setup, legacy, picker_seed, admissions)
    oracle.run_concurrent(
        scheduler, max_jobs=min(split, jobs),
        arrivals=setup.traces[k], picker_factory=factory,
    )
    if jobs > split:
        oracle.run_concurrent(
            scheduler, max_jobs=jobs - split, picker_factory=factory
        )
    finished = {job.job_id for job in oracle.finished_jobs()}
    arrived = [
        u for u in range(setup.dataset.n_users)
        if scheduler.tenants.is_known(u)
    ]
    return {
        "trace": k,
        "records": list(scheduler.records),
        "scheduler": scheduler,
        "dispatches": trainer.dispatches,
        "absorbed": absorbed,
        "finished": finished,
        "admissions": admissions,
        "arrived": arrived,
        "best_observed": {
            u: float(scheduler.tenants[u].best_observed) for u in arrived
        },
    }


def decisions(records) -> List[tuple]:
    return [(r.t, r.user, r.arm) for r in records]


def parity_problem(new_records, legacy_records) -> str:
    """'' when the first PARITY_PREFIX decisions are bit-identical."""
    new = decisions(new_records)[:PARITY_PREFIX]
    old = decisions(legacy_records)[:PARITY_PREFIX]
    if len(new) < PARITY_PREFIX or len(old) < PARITY_PREFIX:
        return (f"parity prefix too short: {len(new)} new, {len(old)} "
                "seed-stack decisions")
    for i, (a, b) in enumerate(zip(new, old)):
        if a != b:
            return (f"decision {i} differs from the frozen seed stack: "
                    f"(t, user, arm) {a} vs {b}")
    return ""


def losses(quality: np.ndarray, records, arrived: Sequence[int]):
    """Per-tenant loss curves and final losses from true qualities.

    A tenant's loss is its best true quality minus the best true
    quality among its completed jobs (its full best before any job).
    """
    best = quality.max(axis=1)
    found: Dict[int, float] = {u: 0.0 for u in arrived}
    curves: Dict[int, List[float]] = {u: [] for u in arrived}
    for r in records:
        found[r.user] = max(found.get(r.user, 0.0),
                            float(quality[r.user, r.arm]))
        curves.setdefault(r.user, []).append(best[r.user] - found[r.user])
    final = {u: float(best[u] - found[u]) for u in found}
    return curves, final


def episode_problems(result, quality) -> List[str]:
    """Properties every episode must have."""
    problems = []
    records = result["records"]
    ids = [r.t for r in records]
    if ids != list(range(1, len(records) + 1)):
        problems.append("step records are not numbered 1..n")
    if len(records) != len(result["finished"]):
        problems.append(
            f"{len(records)} records for {len(result['finished'])} "
            "finished jobs"
        )
    picks = {(u, m) for _, u, m in result["dispatches"]}
    for r in records:
        if (r.user, r.arm) not in picks:
            problems.append(f"record {r.t} reports an undispatched job")
            break
    # The scheduler's running best must be the best reward it absorbed:
    # a tenant's loss, as the scheduler sees it, never rises.
    best_reward: Dict[int, float] = {}
    for r in records:
        best_reward[r.user] = max(best_reward.get(r.user, 0.0), r.reward)
    for user, value in result["best_observed"].items():
        if value != best_reward.get(user, 0.0):
            problems.append(
                f"tenant {user}: scheduler's best observed {value} is not "
                f"the best absorbed reward {best_reward.get(user, 0.0)}"
            )
    return problems


def _latencies(result):
    """Decision latency (completion -> next dispatch) and job
    turnaround (dispatch -> absorbed), in seconds."""
    dispatch_times = [d[0] for d in result["dispatches"]]
    absorbed = result["absorbed"]
    turnaround = [t - dispatch_times[j] for t, j in absorbed]
    decision, a = [], 0
    last_dispatch = -1.0
    for when in dispatch_times:
        latest = None
        while a < len(absorbed) and absorbed[a][0] <= when:
            latest = absorbed[a][0]
            a += 1
        if latest is not None and latest > last_dispatch:
            decision.append(when - latest)
        last_dispatch = when
    return decision, turnaround


def rebuild(setup: Setup, result) -> List[str]:
    """Rebuild every tenant's model picker from its completed jobs.

    The recovery path of a restarted scheduler: replay observations in
    completion order into fresh pickers.  Returns problems: a rebuilt
    picker must pick what the live one picks next.
    """
    problems = []
    factory = _picker_factory(setup, None, 0, [])
    fresh: Dict[int, object] = {}
    for r in result["records"]:
        picker = fresh.get(r.user)
        if picker is None:
            picker = fresh[r.user] = factory(r.user)
        picker.observe(r.arm, r.reward)
    scheduler = result["scheduler"]
    for user, picker in fresh.items():
        live = scheduler.tenants[user].picker
        if picker.select().arm != live.select().arm:
            problems.append(f"tenant {user}'s rebuilt picker disagrees")
    return problems


def _legacy_module():
    from common import ROOT

    path = str(ROOT / "benchmarks")
    if path not in sys.path:
        sys.path.insert(0, path)
    import legacy_decision

    return legacy_decision


def _timed_setup(seed: int) -> float:
    """CPU seconds from process start to a built :class:`Setup`, in a
    fresh interpreter."""
    started = common.children_cpu_s()
    subprocess.run(
        [sys.executable, __file__, str(seed)], check=True,
        env=dict(os.environ, PYTHONPATH=str(common.SRC)),
        stdout=subprocess.DEVNULL,
    )
    return common.children_cpu_s() - started


def run(seed: int, seconds: float, spans_path=None) -> common.Outcome:
    out = common.Outcome()
    setups = [_timed_setup(seed) for _ in range(SETUPS)]
    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.install(spans.Recorder())
    setup = Setup(seed)
    quality = setup.dataset.quality

    first: List[dict] = []  # full results of the first pass of traces
    repeats: Dict[int, List[tuple]] = {}
    decision, turnaround, admissions = [], [], []
    jobs = dispatched = 0
    start, start_cpu = time.perf_counter(), CLOCK()
    deadline = start + seconds
    e = 0
    while e < TRACES or time.perf_counter() < deadline:
        result = episode(setup, seed, e, JOBS)
        out.problems += episode_problems(result, quality)
        d, t = _latencies(result)
        decision += d
        turnaround += t
        admissions += result["admissions"]
        jobs += len(result["records"])
        dispatched += len(result["dispatches"])
        if e < TRACES:
            first.append(result)
        elif decisions(result["records"]) != decisions(
            first[result["trace"]]["records"]
        ):
            repeats.setdefault(result["trace"], []).append(e)
        e += 1
    end, end_cpu = time.perf_counter(), CLOCK()
    for trace, episodes in sorted(repeats.items()):
        out.problems.append(
            f"episodes {episodes} on trace {trace} did not repeat its "
            "decisions"
        )

    legacy = episode(setup, seed, 0, PARITY_PREFIX,
                     legacy=_legacy_module())
    problem = parity_problem(first[0]["records"], legacy["records"])
    out.check(not problem, problem)

    best = quality.max(axis=1)
    gaps, found = [], []
    for result in first:
        _, final = losses(quality, result["records"], result["arrived"])
        gaps += list(final.values())
        found += [best[u] - gap for u, gap in final.items()]

    rebuild_s = []
    for _ in range(REBUILDS):
        started = CLOCK()
        problems = []
        for result in first:
            problems += rebuild(setup, result)
        rebuild_s.append(CLOCK() - started)
    out.problems += sorted(set(problems))

    out.attempted = dispatched
    out.metrics = {
        "setup_s": common.median(setups),
        "rows_per_s": dispatched / (end_cpu - start_cpu),
        "p50_ms": 1e3 * common.median(decision),
        "p99_ms": 1e3 * common.percentile(decision, 99.0),
        "ack_ms": 1e3 * common.median(admissions),
        "jobs_per_s": jobs / (end_cpu - start_cpu),
        "turnaround_ms": 1e3 * common.median(turnaround),
        "recovery_s": common.median(rebuild_s),
        "accuracy": float(np.mean(found)),
        "regret": float(np.mean(gaps)),
        "rss_mb": common.own_rss_mb(),
    }
    out.facts = {
        "episodes": e,
        "jobs": jobs,
        "decisions_timed": len(decision),
        "tenants": N_TENANTS,
        "models": int(quality.shape[1]),
        "parity_prefix": PARITY_PREFIX,
        "wall_jobs_per_s": round(jobs / (end - start), 1),
    }
    if recorder is not None:
        out.documents = [recorder.snapshot()]
        out.window = (start, end)
    return out


if __name__ == "__main__":
    # Set-up alone, in a fresh interpreter: what ``setup_s`` times.
    Setup(int(sys.argv[1]))
