"""Self-tests of the serving benchmark.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json

import numpy as np
import pytest

from perfbench import run, tracing
from perfbench.workloads import (
    IMAGE_POOL,
    RESNET_ATOL,
    WORKLOADS,
    make_images,
    round_config,
)
from repro.serve.loadgen import plan_requests

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_same_seed_same_schedule():
    for workload in WORKLOADS.values():
        first = plan_requests(round_config(workload, 7, 3), IMAGE_POOL)
        assert plan_requests(round_config(workload, 7, 3), IMAGE_POOL) == first
        assert plan_requests(round_config(workload, 8, 3), IMAGE_POOL) != first
        assert plan_requests(round_config(workload, 7, 4), IMAGE_POOL) != first
    small = WORKLOADS["small"]
    assert np.array_equal(make_images(small, 16, 7), make_images(small, 16, 7))


@pytest.fixture(scope="module")
def small_run():
    """A short timed phase on ``small`` with every answer kept."""
    workload = WORKLOADS["small"]
    images = make_images(workload, IMAGE_POOL, 0)
    setup = run.cold_setup(workload)
    try:
        phase = run.timed_phase(setup.server, workload, images, 0, 0.2)
    finally:
        setup.server.close()
    return phase, run.reference_logits(setup.deployed, images)


def test_served_answers_pass_the_replay(small_run):
    phase, reference = small_run
    check = run.check_responses(phase.responses, reference, exact=True, atol=0.0)
    counts = run.phase_counts(phase, check)
    assert counts["sent"] == sum(count for *_, count in phase.responses) > 0
    assert counts["failed"] == counts["mismatched"] == 0
    assert check.correct_rows == sum(rows * count for _, rows, _, count in phase.responses)


def test_corrupted_response_counts_as_failed(small_run):
    phase, reference = small_run
    offset, rows, logits, count = phase.responses[3]
    bad = np.array(logits)
    bad[0, 0] += 1e-12
    corrupted = list(phase.responses)
    corrupted[3] = (offset, rows, bad, 1)
    check = run.check_responses(corrupted, reference, exact=True, atol=0.0)
    assert check.mismatched == 1
    served_rows = sum(r * c for _, r, _, c in phase.responses)
    assert check.correct_rows == served_rows - rows * count
    line = run.result_line({"trace": 0, "counts": run.phase_counts(phase, check),
                            "metrics": dict.fromkeys(run.END_TO_END, 1.0)})
    assert line["correct"] is False and line["failed"] == 1


def test_recorder_keeps_each_distinct_answer_once():
    class Echo:
        def submit(self, images, deadline_ms=None, timeout=None):
            return images.sum(axis=(1, 2, 3))[:, None] * answer

    pool = np.arange(4 * 1 * 2 * 2, dtype=np.float64).reshape(4, 1, 2, 2)
    recorder = run.ResponseRecorder(Echo(), pool)
    answer = 1.0
    for _ in range(3):
        recorder.submit(pool[1:3])
    recorder.submit(pool[0:1])
    answer = 2.0
    recorder.submit(pool[1:3])
    assert sorted((o, r, c) for o, r, _, c in recorder.responses) == [
        (0, 1, 1), (1, 2, 1), (1, 2, 3)]


def test_tolerant_check_bounds_deviation_and_argmax():
    reference = np.array([[0.0, 1.0, 0.5], [2.0, 0.0, 1.0]])
    near = reference + RESNET_ATOL / 2
    far = reference + np.array([[0.0, 0.0, 1e-6], [0.0, 0.0, 0.0]])
    flipped = reference[:, [1, 0, 2]]
    responses = [(0, 2, near, 1), (0, 2, far, 1), (0, 2, flipped, 2), (1, 1, reference[1:2], 3)]
    check = run.check_responses(responses, reference, exact=False, atol=RESNET_ATOL)
    assert check.mismatched == 3
    assert check.correct_rows == 2 + 3


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_each_workload(name):
    workload = dataclasses.replace(WORKLOADS[name], setup_samples=1)
    report = run.run_untraced(workload, seed=0, seconds=0.2)
    assert report["counts"]["failed"] == 0
    line = run.result_line(report)
    assert line["correct"] and line["attempted"] > 0 and line["failed"] == 0
    assert list(line["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name, runs, idle", [
    ("small", ["serve.batcher.form_ms", "runtime.plan.step.01-conv2d-int.ms",
               "serve.pool.padded_row_share"], ["nn.graph.run_ms", "serve.procpool.spawn_s"]),
    ("process", ["serve.procpool.roundtrip_ms", "serve.shm.bytes_per_batch",
                 "serve.procpool.spawn_s"], ["runtime.plan.run_ms"]),
    ("resnet", ["nn.graph.run_ms", "runtime.engine.graph_runs"], ["runtime.plan.run_ms"]),
])
def test_traced_smoke(name, runs, idle, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    report = run.run_traced(WORKLOADS[name], seed=0, seconds=0.2)
    line = run.result_line(report)
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == list(run.PER_LAYER)
    metrics = report["metrics"]
    assert all(metrics[m] > 0 for m in runs + ["core.deployment.deploy_s", "serve.queue.wait_ms"])
    assert all(metrics[m] == 0 for m in idle)
    assert report["slowest_request"]["spans"]
    spans = (tmp_path / f"{name}-seed0-spans.jsonl").read_text().splitlines()
    assert all({"span_id", "parent_id", "name", "start", "end"} <= set(json.loads(line))
               for line in spans)
    assert any("requests" in json.loads(line)["attributes"] for line in spans)


def test_instrument_restores_entry_points():
    before = {(owner, method): vars(owner)[method]
              for owner, method, _, _ in tracing.ENTRY_POINTS}
    with tracing.instrument(tracing.new_tracer()):
        assert all(vars(owner)[method] is not original
                   for (owner, method), original in before.items())
    assert all(vars(owner)[method] is original for (owner, method), original in before.items())


def test_exits_nonzero_without_the_program(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
