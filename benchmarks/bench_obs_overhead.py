#!/usr/bin/env python3
"""Telemetry overhead: serve throughput with observability off vs on.

The observability layer's performance contract (PR 5 acceptance bar) is
that full instrumentation — engine spans, per-step histograms, queue
gauges, replica spans, latency histograms — costs at most **5%** of
serve throughput.  This script measures it the way the claim is stated:
the same deterministic closed-loop load (``repro.serve.loadgen``) is
offered to two otherwise identical :class:`ModelServer` stacks, one with
``telemetry=None`` and one with a live :class:`~repro.obs.Telemetry`.

Trials are *interleaved* (off, on, off, on, …) so drift on a shared
runner — thermal throttling, noisy neighbours — hits both arms equally,
and the comparison uses medians.  Results land in ``BENCH_PR5.json``
under ``observability/overhead``.

Usage::

    python benchmarks/bench_obs_overhead.py          # full (5 trials/arm)
    python benchmarks/bench_obs_overhead.py --quick  # CI smoke (2 trials/arm)

Exits nonzero when the measured overhead exceeds the bar.
"""

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np

# Runnable directly (`python benchmarks/bench_obs_overhead.py`): the repo
# root is not on sys.path then, only the script's own directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.perf_report import record  # noqa: E402
from repro.core.deployment import (
    DeploymentConfig,
    deploy_model,
    make_model_server,
)
from repro.datasets.mnist_like import generate_mnist_like
from repro.models import LeNet
from repro.obs import Telemetry
from repro.serve import LoadGenConfig, ServeConfig, run_load

REPORT = "BENCH_PR5.json"
#: Acceptance bar: telemetry-on throughput within 5% of telemetry-off.
MAX_OVERHEAD_FRACTION = 0.05
#: Slack added on --quick runs: two trials per arm cannot average out
#: scheduler noise, so CI only guards against egregious regressions.
QUICK_EXTRA_SLACK = 0.10

SERVE = ServeConfig(workers=4, batch_size=128)
LOAD = LoadGenConfig(
    clients=8, requests_per_client=20, min_rows=32, max_rows=128, seed=0,
)


def _deploy(pool_size=256):
    images = generate_mnist_like(pool_size, seed=0).images
    model = LeNet(rng=np.random.default_rng(0))
    model.eval()
    deployed, _ = deploy_model(
        model,
        DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8),
        images[:32],
    )
    return deployed, images


def _one_trial(deployed, images, instrumented: bool) -> float:
    """Rows/s for one full load run against a fresh server stack."""
    telemetry = Telemetry() if instrumented else None
    server = make_model_server(
        deployed, SERVE, warmup_images=images[:2], telemetry=telemetry,
    )
    try:
        report = run_load(server, images, LOAD)
    finally:
        server.close()
    if report.requests_failed:
        raise RuntimeError(f"{report.requests_failed} requests failed")
    return report.throughput_rows_per_s


def measure(trials: int) -> dict:
    """Interleaved off/on trials; medians + overhead fraction."""
    deployed, images = _deploy()
    _one_trial(deployed, images, instrumented=False)  # warm caches/pools
    off, on = [], []
    for index in range(trials):
        # Alternate which arm runs first so monotone drift (thermal
        # throttling, background load ramping) cancels across pairs.
        order = (False, True) if index % 2 == 0 else (True, False)
        for instrumented in order:
            rate = _one_trial(deployed, images, instrumented)
            (on if instrumented else off).append(rate)
        print(f"trial {index + 1}/{trials}: "
              f"off={off[-1]:.0f} rows/s  on={on[-1]:.0f} rows/s")
    off_median = statistics.median(off)
    on_median = statistics.median(on)
    overhead = 1.0 - on_median / off_median
    return {
        "trials_per_arm": trials,
        "serve_workers": SERVE.workers,
        "serve_batch_size": SERVE.batch_size,
        "load_clients": LOAD.clients,
        "load_requests_per_client": LOAD.requests_per_client,
        "telemetry_off_rows_per_s": off_median,
        "telemetry_on_rows_per_s": on_median,
        "telemetry_off_trials": off,
        "telemetry_on_trials": on,
        "overhead_fraction": overhead,
        "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
    }


def main(argv=None) -> int:
    """Run the interleaved comparison, record it, enforce the bar."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2 trials per arm with extra slack (CI smoke)")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per arm (default: 5, or 2 with --quick)")
    args = parser.parse_args(argv)
    trials = args.trials or (2 if args.quick else 5)

    payload = measure(trials)
    bar = MAX_OVERHEAD_FRACTION + (QUICK_EXTRA_SLACK if args.quick else 0.0)
    payload["quick"] = bool(args.quick)
    payload["enforced_bar"] = bar
    payload["passed"] = payload["overhead_fraction"] <= bar
    path = record("observability", "overhead", payload, report=REPORT)

    print(f"\ntelemetry off: {payload['telemetry_off_rows_per_s']:.0f} rows/s")
    print(f"telemetry on:  {payload['telemetry_on_rows_per_s']:.0f} rows/s")
    print(f"overhead:      {payload['overhead_fraction']:+.2%} "
          f"(bar {bar:.0%})")
    print(f"recorded to {path}")
    if not payload["passed"]:
        print("FAIL: telemetry overhead exceeds the bar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
