"""``control``: durable writes beside reads, then a crash and recovery.

Set-up: a server on a fresh ``--state-dir`` (default journal settings)
with four tenants, each app fed and trained in a fixed order.  Measured
phase: one connection runs a fixed script of writer cycles — feed four
labelled rows, disable one of them, submit one training job and wait
for it — over the tenants in a fixed order, while a second connection
reads until the script ends, alternating ``infer_batch`` on fresh rows
with ``app_status``.  The server is then SIGKILLed and restarted on the
same state directory, three times, and everything acknowledged must be
there each time.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import numpy as np

import common
import svc

SETUP_JOBS_EACH = 2
SETUPS = 3
FEED_ROWS = 4
READ_ROWS = 16
#: Writer cycles per measured second asked for (the script is fixed by
#: ``--seconds`` alone, never by how fast the program runs).
CYCLES_PER_SECOND = 40
#: Kill-and-restart cycles; ``recovery_s`` is their median.
RESTARTS = 3


class Ledger:
    """What the server acknowledged, to check after the restart."""

    def __init__(self, onboarded: Dict[int, List[int]]) -> None:
        self.examples = {t: list(ids) for t, ids in onboarded.items()}
        self.disabled: Dict[int, set] = {t: set() for t in onboarded}
        #: job id -> (tenant, candidate, accuracy)
        self.jobs: Dict[str, tuple] = {}

    def expected(self, tenant: int):
        total = len(self.examples[tenant])
        return total, total - len(self.disabled[tenant])


def recovery_problems(client, ledger: Ledger) -> List[str]:
    """Acknowledged examples and job handles the server lost."""
    problems = []
    for t in ledger.examples:
        status, _ = client.call(t, "app_status", svc.app_name(t))
        total, enabled = ledger.expected(t)
        if (status.n_examples, status.n_enabled) != (total, enabled):
            problems.append(
                f"{svc.app_name(t)}: {status.n_examples} examples "
                f"({status.n_enabled} enabled) after restart, "
                f"acknowledged {total} ({enabled} enabled)"
            )
            continue
        listing, _ = client.call(t, "refine", svc.app_name(t))
        flags = dict(listing.examples)
        for example_id in ledger.examples[t]:
            want = example_id not in ledger.disabled[t]
            if flags.get(example_id) is not want:
                problems.append(
                    f"{svc.app_name(t)}: example {example_id} is "
                    f"{flags.get(example_id)}, acknowledged {want}"
                )
    for job_id, (t, candidate, accuracy) in ledger.jobs.items():
        status, _ = client.call(t, "job_status", job_id)
        if (status.state, status.candidate, status.accuracy) != (
            "finished", candidate, accuracy
        ):
            problems.append(
                f"job {job_id}: {status.state} {status.candidate} "
                f"{status.accuracy} after restart, acknowledged finished "
                f"{candidate} {accuracy}"
            )
    return problems


def _setup(servers, tasks, spans, state_dir):
    done = svc.Onboarded()
    started = servers.cpu_s()
    server = servers.start(
        svc.tenant_names(), state_dir=state_dir, spans=spans
    )
    client = svc.Client(server.url, server.tokens, servers.thread_cpu_s)
    client.call(0, "info")
    done.boot_s = servers.cpu_s() - started
    svc.onboard(client, tasks, SETUP_JOBS_EACH, done)
    return server, client, done, servers.cpu_s() - started


def run(seed: int, seconds: float, spans_path=None) -> common.Outcome:
    out = common.Outcome()
    tasks = svc.tasks()
    cycles = max(svc.N_TENANTS, round(CYCLES_PER_SECOND * seconds))
    setups: List[float] = []
    with svc.quiet_load_generator(), common.scratch_dir("control") as work, \
            common.Servers() as servers:
        for i in range(SETUPS):
            last = i == SETUPS - 1
            state_dir = work / f"state{i}"
            server, writer, done, setup_s = _setup(
                servers, tasks, spans_path if last else None, state_dir
            )
            setups.append(setup_s)
            if not last:
                writer.close()
                servers.live.remove(server)
                server.stop()
        ledger = Ledger(done.example_ids)
        reader = svc.Client(server.url, server.tokens, servers.thread_cpu_s)

        acks: List[float] = []
        turnarounds: List[float] = []
        read_latencies: List[float] = []  # infer_batch only
        all_reads: List[float] = []  # every request of the reader
        all_walls: List[float] = []  # the same, on the wall clock
        read_rows = [0]
        failures = [0, 0]
        invalid = [0]
        writer_done = threading.Event()
        # Script start, writer end, reader end: wall and CPU clock.
        span = [0.0, 0.0, 0.0]
        cpu = [0.0, 0.0, 0.0]

        def write_script() -> None:
            rng = np.random.default_rng([seed, 3])
            span[0], cpu[0] = time.perf_counter(), servers.cpu_s()
            try:
                for c in range(cycles):
                    t = c % svc.N_TENANTS
                    app = svc.app_name(t)
                    rows, labels = tasks[t].sample(rng, FEED_ROWS)
                    try:
                        fed, seconds_ = writer.call(
                            t, "feed", app, rows.tolist(),
                            [int(v) for v in labels],
                        )
                        acks.append(seconds_)
                        ledger.examples[t].extend(fed.example_ids)
                        victim = fed.example_ids[0]
                        toggled, seconds_ = writer.call(
                            t, "set_example_enabled", app, victim, False
                        )
                        acks.append(seconds_)
                        if not toggled.enabled:
                            ledger.disabled[t].add(victim)
                        status, turnaround = svc.train_one(writer, t)
                    except Exception:  # noqa: BLE001 - counted
                        failures[0] += 1
                        continue
                    turnarounds.append(turnaround)
                    ledger.jobs[status.job_id] = (
                        t, status.candidate, status.accuracy
                    )
                    if status.state != "finished":
                        out.problems.append(
                            f"writer job {status.job_id} ended "
                            f"{status.state}"
                        )
            finally:
                span[1], cpu[1] = time.perf_counter(), servers.cpu_s()
                writer_done.set()

        def read_loop() -> None:
            rng = np.random.default_rng([seed, 4])
            j = 0
            while not writer_done.is_set():
                t = (j // 2) % svc.N_TENANTS
                app = svc.app_name(t)
                try:
                    if j % 2 == 0:
                        rows = tasks[t].sample(rng, READ_ROWS)[0]
                        response, elapsed = reader.call(
                            t, "infer_batch", app, rows.tolist()
                        )
                        labels = np.asarray(response.predictions)
                        if len(labels) != READ_ROWS or not np.all(
                            (labels >= 0) & (labels < svc.N_CLASSES)
                        ):
                            invalid[0] += 1
                        read_latencies.append(elapsed)
                        read_rows[0] += READ_ROWS
                    else:
                        _, elapsed = reader.call(t, "app_status", app)
                    all_reads.append(elapsed)
                    all_walls.append(reader.wall)
                except Exception:  # noqa: BLE001 - counted
                    failures[1] += 1
                j += 1
            span[2], cpu[2] = time.perf_counter(), servers.cpu_s()

        base = (writer.requests + reader.requests,
                writer.seconds + reader.seconds)
        threads = [threading.Thread(target=write_script),
                   threading.Thread(target=read_loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        script_s = span[1] - span[0]
        client_window = (
            writer.requests + reader.requests - base[0],
            writer.seconds + reader.seconds - base[1],
        )
        out.check(invalid[0] == 0,
                  f"{invalid[0]} reads returned invalid labels")
        out.check(len(turnarounds) == cycles,
                  f"{cycles - len(turnarounds)} writer cycles failed")

        before, accuracy, regret, majority = svc.score_held_out(
            writer, tasks
        )
        out.check(accuracy > majority,
                  f"accuracy {accuracy:.4f} is not above the majority-class "
                  f"share {majority:.4f}")
        rss = server.rss_mb()
        documents = []
        if spans_path is not None:
            server.dump_spans()
            documents.append(common.read_json(spans_path))
        writer.close()
        reader.close()

        # Crash, restart on the same state directory, and read back
        # everything that was acknowledged; RESTARTS times.
        recoveries = []
        for _ in range(RESTARTS):
            killed = servers.cpu_s()
            server.kill()
            servers.live.remove(server)
            server = servers.start(
                svc.tenant_names(), state_dir=state_dir, spans=spans_path
            )
            client = svc.Client(server.url, server.tokens,
                                servers.thread_cpu_s)
            lost = recovery_problems(client, ledger)
            recoveries.append(servers.cpu_s() - killed)
            out.problems += lost
            after = [
                svc.predict_all(client, t, task.held_out[0])[0]
                for t, task in enumerate(tasks)
            ]
            changed = sum(
                int(np.sum(a != b)) for a, b in zip(before, after)
            )
            out.check(changed == 0, f"{changed} held-out predictions "
                      "changed across a restart")
            rss = max(rss, server.rss_mb())
            client.close()
        if spans_path is not None:
            server.dump_spans()
            out.replay = common.read_json(spans_path)
        servers.stop_all()

    reads = len(all_reads)
    out.attempted = cycles + reads + failures[1]
    out.failed = failures[0] + failures[1]
    out.metrics = {
        "setup_s": common.median(setups),
        "rows_per_s": read_rows[0] / (cpu[2] - cpu[0]),
        "p50_ms": 1e3 * common.median(read_latencies),
        "p99_ms": 1e3 * common.percentile(all_reads, 99.0),
        "ack_ms": 1e3 * common.median(acks),
        "jobs_per_s": len(turnarounds) / (cpu[1] - cpu[0]),
        "turnaround_ms": 1e3 * common.median(turnarounds),
        "recovery_s": common.median(recoveries),
        "accuracy": accuracy,
        "regret": regret,
        "rss_mb": rss,
    }
    out.facts = {
        "writer_cycles": cycles,
        "script_s": round(script_s, 3),
        "wall_jobs_per_s": round(len(turnarounds) / script_s, 2),
        "wall_p99_ms": round(1e3 * common.percentile(all_walls, 99.0), 3),
        "reads": reads,
        "acked_mutations": len(acks),
        "jobs_acknowledged": len(ledger.jobs),
        "majority_share": majority,
    }
    if documents:
        out.documents = documents
        out.window = (span[0], span[1])
        out.client = client_window
    return out
