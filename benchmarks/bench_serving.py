"""Benchmarks of the traffic-scale serving layer (``repro.serve``).

Measures what the subsystem exists for: sustained multi-caller
throughput.  A deterministic closed-loop load (seeded through
``snc/seeding``, so every run offers the identical request sequence) is
offered to a :class:`~repro.serve.server.ModelServer` over quantized
LeNet at several worker counts; throughput and p50/p99 latency land in
``BENCH_PR4.json``.

Headline assertions (run even under ``--benchmark-disable`` so the CI
smoke job exercises them):

* the 4-worker server sustains ≥ 2× the single-caller *graph executor*
  throughput at batch 128 (the PR-4 acceptance bar), and
* every logit row the server returns is bit-exact against direct
  :meth:`~repro.runtime.engine.InferenceEngine.run` on the same rows.

PR 10 adds a process-pool sweep (1/2/4 spawned workers, shared-memory
tensors) recorded to ``BENCH_PR10.json`` with per-worker scaling
efficiency and the host's ``available_cores``; its ≥ 2.5× acceptance
bar vs the 1-worker threaded server is enforced only on hosts with at
least 4 cores — a starved runner records honest numbers instead of a
meaningless failure.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.perf_report import record
from repro.core.deployment import (
    DeploymentConfig,
    deploy_model,
    make_inference_engine,
    make_model_server,
)
from repro.datasets.mnist_like import generate_mnist_like
from repro.models import LeNet
from repro.nn.tensor import Tensor, no_grad
from repro.serve import LoadGenConfig, ServeConfig, run_load
from repro.serve.loadgen import plan_requests

REPORT = "BENCH_PR4.json"
REPORT_PR10 = "BENCH_PR10.json"
# PR-10 acceptance bar: 4 process workers vs the 1-worker threaded
# server, enforced only where the host can physically scale (≥ 4 cores).
MIN_PROCESS_SPEEDUP = 2.5
BATCH = 128
POOL = 256  # image pool the load generator slices requests from
# Acceptance bar: the 4-worker server vs the single-caller graph
# executor.  The single-caller int engine alone is ~3.2x, so this floor
# holds even when worker threads buy little on a saturated runner.
MIN_SPEEDUP_VS_GRAPH = 2.0

LOAD = LoadGenConfig(
    clients=12, requests_per_client=25, min_rows=32, max_rows=128, seed=0,
)


@pytest.fixture(scope="module")
def images():
    return generate_mnist_like(POOL, seed=0).images


@pytest.fixture(scope="module")
def deployed(images):
    model = LeNet(rng=np.random.default_rng(0))
    model.eval()
    net, _ = deploy_model(
        model,
        DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8),
        images[:32],
    )
    return net


def _single_caller_rows_per_s(fn, rows, reps=20):
    fn()
    fn()  # warm caches / buffer pools
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return rows / float(np.median(times))


def _serve(deployed, images, workers, load=LOAD):
    server = make_model_server(
        deployed,
        ServeConfig(workers=workers, batch_size=BATCH),
        warmup_images=images[:2],
    )
    try:
        report = run_load(server, images, load)
        stats = server.stats()
    finally:
        server.close()
    return report, stats


def test_server_throughput_vs_single_caller(deployed, images):
    """The acceptance study: worker sweep vs single-caller baselines."""
    batch = images[:BATCH]
    with no_grad():
        graph_rps = _single_caller_rows_per_s(
            lambda: deployed(Tensor(np.asarray(batch, dtype=np.float64))).data,
            BATCH,
        )
    engine = make_inference_engine(deployed)
    engine_rps = _single_caller_rows_per_s(lambda: engine.run(batch), BATCH)
    record("serving", "single_caller", {
        "batch": BATCH,
        "graph_rows_per_s": graph_rps,
        "engine_rows_per_s": engine_rps,
        "engine_speedup_vs_graph": engine_rps / graph_rps,
    }, report=REPORT)

    results = {}
    for workers in (1, 2, 4):
        report, stats = _serve(deployed, images, workers)
        assert report.requests_failed == 0
        assert report.requests_ok == LOAD.clients * LOAD.requests_per_client
        payload = report.to_dict()
        payload.pop("request_log", None)  # per-point summary, not samples
        payload["speedup_vs_graph"] = report.throughput_rows_per_s / graph_rps
        payload["mean_batch_rows"] = stats["mean_batch_rows"]
        results[workers] = payload
        record("serving", f"server_{workers}w", payload, report=REPORT)

    speedup = results[4]["speedup_vs_graph"]
    assert speedup >= MIN_SPEEDUP_VS_GRAPH, (
        f"4-worker server only {speedup:.2f}x the single-caller graph executor"
    )


def test_process_pool_scaling(deployed, images):
    """Process-pool sweep (PR 10): 1/2/4 spawned workers vs threads.

    Each point offers the identical seeded closed-loop load to a
    ``pool="process"`` server and checks the run was clean: no failed
    requests, no worker restarts, every shared-memory lease recycled.
    ``available_cores`` is stamped into every payload so numbers from a
    starved host are never mistaken for the real scaling curve.
    """
    load = LoadGenConfig(clients=8, requests_per_client=12,
                         min_rows=32, max_rows=128, seed=0)
    available_cores = os.cpu_count() or 1
    thread_report, _ = _serve(deployed, images, workers=1, load=load)
    thread_rps = thread_report.throughput_rows_per_s

    results = {}
    for workers in (1, 2, 4):
        server = make_model_server(
            deployed,
            ServeConfig(workers=workers, batch_size=BATCH, pool="process"),
            warmup_images=images[:2],
        )
        try:
            report = run_load(server, images, load)
            stats = server.stats()
        finally:
            server.close()
        assert report.requests_failed == 0
        assert report.requests_ok == load.clients * load.requests_per_client
        assert sum(r["restarts"] for r in stats["replicas"]) == 0
        assert stats["shm"]["leases_outstanding"] == 0
        payload = report.to_dict()
        payload.pop("request_log", None)  # per-point summary, not samples
        payload["workers"] = workers
        payload["available_cores"] = available_cores
        payload["speedup_vs_1w_thread"] = (
            report.throughput_rows_per_s / thread_rps
        )
        results[workers] = payload
        record("serving", f"process_{workers}w", payload, report=REPORT_PR10)

    base_rps = results[1]["throughput_rows_per_s"]
    summary = {
        "available_cores": available_cores,
        "thread_1w_rows_per_s": thread_rps,
        "process_rows_per_s": {
            f"{w}w": results[w]["throughput_rows_per_s"] for w in results
        },
        # Ideal scaling is efficiency 1.0: N workers serving N× the
        # 1-process throughput.  On a core-starved host these collapse
        # toward 1/N — that is the honest number, not a bug.
        "scaling_efficiency": {
            f"{w}w": results[w]["throughput_rows_per_s"] / (w * base_rps)
            for w in results
        },
        "speedup_4w_vs_1w_thread": results[4]["speedup_vs_1w_thread"],
        "acceptance_bar": MIN_PROCESS_SPEEDUP,
        "bar_enforced": available_cores >= 4,
    }
    record("serving", "process_pool_sweep", summary, report=REPORT_PR10)
    if available_cores >= 4:
        assert summary["speedup_4w_vs_1w_thread"] >= MIN_PROCESS_SPEEDUP, (
            f"4 process workers only "
            f"{summary['speedup_4w_vs_1w_thread']:.2f}x the 1-worker "
            f"threaded server on a {available_cores}-core host"
        )


def test_served_logits_bit_exact(deployed, images):
    """Every served row equals direct InferenceEngine.run on that row."""
    load = LoadGenConfig(clients=4, requests_per_client=6,
                         min_rows=8, max_rows=64, seed=7)
    schedule = plan_requests(load, len(images))
    server = make_model_server(
        deployed, ServeConfig(workers=4, batch_size=BATCH),
        warmup_images=images[:2],
    )
    try:
        payloads = [images[o : o + r] for plan in schedule for (o, r) in plan]
        served = server.submit_many(payloads)
    finally:
        server.close()
    reference = make_inference_engine(deployed)
    exact = all(
        np.array_equal(out, reference.run(payload))
        for out, payload in zip(served, payloads)
    )
    record("serving", "bit_exactness", {
        "requests": len(payloads),
        "rows": int(sum(len(p) for p in payloads)),
        "bit_exact_vs_engine_run": bool(exact),
    }, report=REPORT)
    assert exact
