"""Steadiness: repeat every workload and compare sets of runs to bounds.

    python3 perfbench/steady.py [--runs 10] [--traced]

Two sets of ``--runs`` runs of every workload, each run ``run.py
--trace 0`` for ``run_seconds`` from ``BENCHMARK.json`` with its own
seed.  For every workload and end-to-end metric this prints each set's
median, quartiles and spread ((q3 - q1) / median, as
``statistics.quantiles(n=4)`` gives the quartiles) next to the metric's
bound.  It exits 1 when a spread exceeds its bound, when the two sets'
medians differ by more than the bound, or when the share of failed
operations differs between the sets.  ``--traced`` ends with one
traced run per workload, which prints the per-layer table and the
tracing overhead against these runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common

RUN = Path(__file__).resolve().parent / "run.py"
SETS = 2
#: Set s, run i uses seed SEED_BASE + 1000 * s + i.
SEED_BASE = 1000


def one_run(workload: str, seed: int, seconds: float, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(common.ROOT),
    )
    if proc.returncode != 0:
        raise common.BenchError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    if trace:
        print(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    common.require_program()
    print(f"host: {json.dumps(common.host_fingerprint(), sort_keys=True)}")

    # results[set][workload] -> list of run documents
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    for s in range(SETS):
        for i in range(args.runs):
            for workload in workloads:
                seed = SEED_BASE + 1000 * s + i
                doc = one_run(workload, seed, seconds)
                results[s][workload].append(doc)
                print(f"set {s + 1} run {i + 1} {workload} seed {seed}: "
                      f"correct {doc['correct']}, attempted "
                      f"{doc['attempted']}, failed {doc['failed']}",
                      flush=True)

    failures = []
    summary = {}
    for workload in workloads:
        print(f"\n== {workload} ({SETS} sets x {args.runs} runs, "
              f"{seconds:g} s each)")
        print(f"{'metric':14s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for s in range(SETS):
            docs = results[s][workload]
            if not all(doc["correct"] for doc in docs):
                failures.append(f"{workload} set {s + 1}: a run was "
                                "not correct")
        shares = {
            round(sum(d["failed"] for d in results[s][workload])
                  / sum(d["attempted"] for d in results[s][workload]), 12)
            for s in range(SETS)
        }
        if len(shares) > 1:
            failures.append(f"{workload}: failed share differs between "
                            f"sets: {sorted(shares)}")
        for metric in metrics:
            name = metric["name"]
            medians = []
            for s in range(SETS):
                values = [
                    doc["metrics"][name]["value"]
                    for doc in results[s][workload]
                ]
                stats = common.spread(values)
                medians.append(stats["median"])
                summary.setdefault(workload, {}).setdefault(name, []).append(
                    stats
                )
                flag = ""
                if stats["spread"] > metric["bound"]:
                    flag = "  SPREAD > BOUND"
                    failures.append(f"{workload} {name}: spread "
                                    f"{stats['spread']:.3f} > bound "
                                    f"{metric['bound']}")
                elif stats["spread"] > metric["bound"] / 3:
                    flag = "  (spread > bound/3)"
                print(f"{name:14s} {s + 1:3d} {stats['median']:12.5f} "
                      f"{stats['q1']:12.5f} {stats['q3']:12.5f} "
                      f"{stats['spread']:7.3f} {metric['bound']:6.3f}"
                      f"{flag}")
            moved = abs(medians[1] - medians[0]) / abs(medians[0])
            if moved > metric["bound"]:
                failures.append(
                    f"{workload} {name}: the set medians differ by "
                    f"{moved:.3f} > bound {metric['bound']}"
                )

    common.write_json(common.OUT_DIR / "steady.json", {
        "host": common.host_fingerprint(),
        "runs": args.runs,
        "sets": SETS,
        "seconds": seconds,
        "summary": summary,
        "failures": failures,
    })
    if args.traced:
        for workload in workloads:
            one_run(workload, SEED_BASE + 999, seconds, trace=1)
    print()
    if failures:
        for failure in failures:
            print(f"NOT STEADY: {failure}")
        return 1
    print("steady: every spread and median shift is within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
