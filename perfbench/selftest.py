"""The benchmark's own tests: short workloads and checks that fire.

    python3 -m pytest perfbench/selftest.py -q

Each workload runs a short version end to end against the program in
``src/``; each correctness check is shown to fire on a corrupted
answer (a flipped prediction, a dropped acknowledged example, an
altered pick).  The file is not named ``test_*.py`` on purpose: the
repository's tier-1 suite does not start servers.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

import common

common.require_program()

import run  # noqa: E402
import spans  # noqa: E402
import svc  # noqa: E402
import wl_control  # noqa: E402
import wl_infer  # noqa: E402
import wl_select  # noqa: E402


def _complete(outcome):
    assert outcome.problems == []
    assert set(outcome.metrics) == set(run.END_TO_END)
    for name, value in outcome.metrics.items():
        assert value > 0, name
    assert outcome.attempted > 0 and outcome.failed == 0


# ----------------------------------------------------------------------
# Short end-to-end runs
# ----------------------------------------------------------------------
def test_infer_short_run():
    _complete(wl_infer.run(seed=3, seconds=1.0))


def test_control_short_run():
    _complete(wl_control.run(seed=3, seconds=0.5))


def test_select_short_run():
    _complete(wl_select.run(seed=3, seconds=0.5))


def test_select_traced_run_fills_its_layers(tmp_path):
    outcome = wl_select.run(seed=3, seconds=0.5,
                            spans_path=tmp_path / "spans.json")
    values, rows, absent = spans.layer_metrics(
        outcome.documents, outcome.window
    )
    assert set(values) == {name for name, _ in spans.LAYER_METRICS}
    for name in ("core.steps", "core.select_us", "gp.updates",
                 "runtime.advance_us"):
        assert values[name] > 0, name
    assert absent == []


# ----------------------------------------------------------------------
# Checks fire on corrupted answers
# ----------------------------------------------------------------------
def test_flipped_prediction_is_caught():
    reference = {0: np.array([0, 1, 2, 1])}
    version = {0: "job-00001"}
    idx = np.array([0, 2, 3])
    good = [(0, idx, reference[0][idx].copy(), "job-00001")]
    assert wl_infer.hot_mismatches(good, reference, version) == 0
    flipped = reference[0][idx].copy()
    flipped[1] = (flipped[1] + 1) % svc.N_CLASSES
    bad = [(0, idx, flipped, "job-00001")]
    assert wl_infer.hot_mismatches(bad, reference, version) == 1
    assert not wl_infer.check_predictions(np.array([0, 1, svc.N_CLASSES]))
    assert wl_infer.check_predictions(np.array([0, 1, 2]))


class _StubClient:
    """Answers like a restarted server that holds ``examples``."""

    def __init__(self, examples, disabled, jobs):
        self.examples, self.disabled, self.jobs = examples, disabled, jobs

    def call(self, tenant, verb, *args):
        ids = self.examples[tenant]
        if verb == "app_status":
            off = len(self.disabled[tenant])
            return SimpleNamespace(n_examples=len(ids),
                                   n_enabled=len(ids) - off), 0.0
        if verb == "refine":
            return SimpleNamespace(examples=tuple(
                (i, i not in self.disabled[tenant]) for i in ids)), 0.0
        state, candidate, accuracy = self.jobs[args[0]]
        return SimpleNamespace(state=state, candidate=candidate,
                               accuracy=accuracy), 0.0


def test_dropped_acknowledged_example_is_caught():
    ledger = wl_control.Ledger({0: [0, 1, 2, 3]})
    ledger.disabled[0].add(2)
    ledger.jobs["job-00000"] = (0, "ridge", 0.9)
    jobs = {"job-00000": ("finished", "ridge", 0.9)}
    intact = _StubClient({0: [0, 1, 2, 3]}, {0: {2}}, jobs)
    assert wl_control.recovery_problems(intact, ledger) == []
    dropped = _StubClient({0: [0, 1, 2]}, {0: {2}}, jobs)
    assert wl_control.recovery_problems(dropped, ledger)
    toggled_back = _StubClient({0: [0, 1, 2, 3]}, {0: set()}, jobs)
    assert wl_control.recovery_problems(toggled_back, ledger)
    lost_job = _StubClient({0: [0, 1, 2, 3]}, {0: {2}},
                           {"job-00000": ("cancelled", "ridge", None)})
    assert wl_control.recovery_problems(lost_job, ledger)


@pytest.fixture(scope="module")
def select_episode():
    setup = wl_select.Setup(3)
    return setup, wl_select.episode(setup, 3, 0, wl_select.PARITY_PREFIX)


def test_altered_pick_is_caught(select_episode):
    setup, result = select_episode
    records = result["records"]
    legacy = wl_select.episode(setup, 3, 0, wl_select.PARITY_PREFIX,
                               legacy=wl_select._legacy_module())
    assert wl_select.parity_problem(records, legacy["records"]) == ""
    altered = list(records)
    altered[7] = dataclasses.replace(
        altered[7], arm=(altered[7].arm + 1) % setup.dataset.n_models
    )
    assert wl_select.parity_problem(altered, legacy["records"])


def test_forged_record_is_caught(select_episode):
    setup, result = select_episode
    quality = setup.dataset.quality
    assert wl_select.episode_problems(result, quality) == []
    # A completion for a (tenant, model) pair that was never dispatched.
    records = list(result["records"])
    victim = records[3]
    never = next(
        arm for arm in range(setup.dataset.n_models)
        if all((u, m) != (victim.user, arm)
               for _, u, m in result["dispatches"])
    )
    records[3] = dataclasses.replace(victim, arm=never)
    assert wl_select.episode_problems(dict(result, records=records),
                                      quality)


def test_lost_best_observation_is_caught(select_episode):
    setup, result = select_episode
    quality = setup.dataset.quality
    curves, _ = wl_select.losses(quality, result["records"],
                                 result["arrived"])
    assert all(
        all(b <= a for a, b in zip(c, c[1:])) for c in curves.values()
    )
    # The scheduler forgetting its best reward is a loss that rose.
    user = result["records"][0].user
    forgot = dict(result["best_observed"])
    forgot[user] -= 0.01
    assert wl_select.episode_problems(
        dict(result, best_observed=forgot), quality
    )


def test_benchmark_json_matches_the_code():
    document = json.loads(
        (common.ROOT / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in document["workloads"]] == list(
        run.WORKLOADS
    )
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == (
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in document["per_layer"]] == (
        list(spans.LAYER_METRICS)
    )
