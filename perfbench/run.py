"""The repository benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload infer|control|select \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions, prints the per-layer table, and reports the
per-layer metrics plus the tracing overhead against the untraced runs
recorded in ``perfbench/out/results``.  Every run prints the host, the
seed and its operation counts, writes its result file there, and ends
with a JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common

#: End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "ack_ms": "ms",
    "jobs_per_s": "jobs/s",
    "turnaround_ms": "ms",
    "recovery_s": "s",
    "accuracy": "fraction",
    "regret": "loss",
    "rss_mb": "MB",
}

WORKLOADS = ("infer", "control", "select")
RESULTS = common.OUT_DIR / "results"


def _workload(name: str):
    if name == "infer":
        import wl_infer as module
    elif name == "control":
        import wl_control as module
    else:
        import wl_select as module
    return module


def _layers(outcome, workload):
    import spans

    values, rows, absent = spans.layer_metrics(
        outcome.documents,
        outcome.window,
        client_requests=outcome.client[0],
        client_seconds=outcome.client[1],
        replay=outcome.replay,
    )
    title = f"per-layer spans, workload {workload} (measured window)"
    return values, spans.render_table(rows, absent, title), absent


def _overhead(workload: str, traced: dict) -> list:
    """Traced end-to-end values against the untraced runs on record."""
    runs = []
    for path in sorted(RESULTS.glob(f"{workload}-seed*-trace0.json")):
        runs.append(common.read_json(path)["end_to_end"])
    lines = []
    if not runs:
        return [f"tracing overhead: no untraced {workload} run on record "
                f"in {RESULTS}; run with --trace 0 first"]
    lines.append(f"tracing overhead against {len(runs)} untraced run(s):")
    for name in ("rows_per_s", "p50_ms", "jobs_per_s", "turnaround_ms",
                 "ack_ms"):
        base = common.median([run[name] for run in runs])
        if base:
            change = 100.0 * (traced[name] - base) / base
            lines.append(
                f"  {name:14s} untraced {base:12.4f}  traced "
                f"{traced[name]:12.4f}  change {change:+7.1f}%"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_program()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    host = common.host_fingerprint()
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s measured, trace {args.trace}")
    module = _workload(args.workload)
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = None
    if args.trace:
        spans_path = common.OUT_DIR / f"spans-{args.workload}-{time.time_ns()}.json"
    try:
        outcome = module.run(args.seed, args.seconds, spans_path)
    finally:
        if spans_path is not None:
            spans_path.unlink(missing_ok=True)

    print(f"operations: attempted {outcome.attempted}, "
          f"failed {outcome.failed}")
    for key, value in sorted(outcome.facts.items()):
        print(f"  {key}: {value}")
    for name, value in outcome.metrics.items():
        print(f"  {name:14s} {value:14.6f} {END_TO_END[name]}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome.problems
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": correct,
        "problems": outcome.problems,
        "facts": outcome.facts,
        "end_to_end": outcome.metrics,
    }
    if args.trace:
        values, table, absent = _layers(outcome, args.workload)
        print(table)
        overhead = _overhead(args.workload, outcome.metrics)
        print("\n".join(overhead))
        document.update(per_layer=values, absent=absent,
                        overhead=overhead)
        import spans

        units = dict(spans.LAYER_METRICS)
        metrics = {
            name: {"value": values[name], "unit": units[name]}
            for name, _ in spans.LAYER_METRICS
        }
    else:
        metrics = {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    common.write_json(
        RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        document,
    )
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
