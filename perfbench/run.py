"""Serving benchmark: one workload and one seed in, one JSON result line out.

Run from the repository root::

    python3 perfbench/run.py --workload small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload small --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` builds the server with spans around every layer's entry
points, serves the same requests once untraced and once traced, and
reports per-layer metrics plus the tracing overhead.  Either way the last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; a human-readable report precedes it, and the full report
(plus, when traced, every span) is written under ``.perfbench/``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads and inherited by worker and
# probe processes: with default OpenBLAS threading, ResNet throughput
# spread over 61-92 rows/s between runs, against 65-68 with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# Measure this checkout's program, never an installed copy of it.
if not (ROOT / "src" / "repro").is_dir():
    raise ImportError(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}")
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core.deployment import (  # noqa: E402
    deploy_model,
    make_inference_engine,
    make_model_server,
)
from repro.serve import run_load  # noqa: E402

from perfbench import tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    BUCKETS,
    IMAGE_POOL,
    RESNET_ATOL,
    TAIL_PERCENTILE,
    WORKLOADS,
    deployment_config,
    make_images,
    round_config,
    setup_inputs,
)

#: Seconds a probe process may take to report its set-up time.
PROBE_TIMEOUT_S = 120
#: ``prctl`` option that makes a process the reaper of its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "throughput_rows_per_s": "rows/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Steps of LeNet's int plan, as ``<index>-<kind>``.
LENET_STEPS = ("00-input-quant-int", "01-conv2d-int", "02-conv2d-int", "03-flatten",
               "04-linear-int", "05-dequant", "06-linear")
#: Per-layer metrics (``--trace 1``), name -> unit.
PER_LAYER = {
    "serve.queue.wait_ms": "ms",
    "serve.batcher.form_ms": "ms",
    "serve.batcher.rows_per_batch": "rows",
    "serve.batcher.requests_per_batch": "count",
    "serve.batcher.scatter_ms": "ms",
    "serve.pool.busy_ms": "ms",
    "serve.pool.padded_row_share": "share",
    "serve.procpool.roundtrip_ms": "ms",
    "serve.shm.bytes_per_batch": "bytes",
    "serve.procpool.restarts": "count",
    "runtime.engine.run_ms": "ms",
    "runtime.engine.retraces": "count",
    "runtime.engine.graph_runs": "count",
    "runtime.engine.overhead_ms": "ms",
    "runtime.plan.run_ms": "ms",
    **{f"runtime.plan.step.{step}.ms": "ms" for step in LENET_STEPS},
    "runtime.plan.step_sum_share": "share",
    "nn.graph.run_ms": "ms",
    "core.deployment.deploy_s": "s",
    "runtime.plan.trace_s": "s",
    "runtime.plan.warm_s": "s",
    "serve.procpool.spawn_s": "s",
    "runtime.plan.pool_mb": "MB",
    "trace.overhead_share": "share",
}


# ---------------------------------------------------------------------------
# Host: warm-up, speed reference, provenance, memory
# ---------------------------------------------------------------------------

def host_loop() -> float:
    """Seconds for a fixed numpy workload that touches nothing of the program."""
    a = np.random.default_rng(12345).standard_normal((160, 160))
    start = time.perf_counter()
    for _ in range(60):
        a = np.tanh(a @ a * (1.0 / 160))
    return time.perf_counter() - start


def host_warmup() -> float:
    """Spin :func:`host_loop` past a fresh process's slow first ~0.1 s of
    compute, then return the host-speed reference (median of 3, ms)."""
    for _ in range(6):
        host_loop()
    return host_reference()


def host_reference() -> float:
    """The host-speed reference figure in ms (median of 3 loops)."""
    return statistics.median(host_loop() for _ in range(3)) * 1e3


def _openblas_threads() -> Optional[int]:
    """The thread count OpenBLAS reports, when numpy links OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def provenance() -> dict:
    """Where and with what the run was made."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "available_cores": (len(os.sched_getaffinity(0))
                            if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _vm_hwm_kb(pid) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(worker_pids: Sequence[Optional[int]] = ()) -> float:
    """High-water resident memory of this process plus live worker processes."""
    own = _vm_hwm_kb("self")
    if own is None:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = [_vm_hwm_kb(pid) for pid in worker_pids if pid is not None]
    return (own + sum(kb for kb in workers if kb)) * 1024 / 1e6


# ---------------------------------------------------------------------------
# Set-up, timed phase, correctness replay
# ---------------------------------------------------------------------------

def _untraced_call(name, fn, args, kwargs, describe=None):
    return fn(*args, **kwargs)


@dataclass
class Setup:
    server: object
    deployed: object
    setup_s: float


def cold_setup(workload, tracer=None) -> Setup:
    """The cold path a user pays before steady serving, timed as ``setup_s``:
    ``deploy_model``, ``make_model_server``, then every bucket through
    every replica via ``server.pool.warmup``."""
    call = functools.partial(tracing.call, tracer) if tracer is not None else _untraced_call
    model, calibration, warm = setup_inputs(workload)
    start = time.perf_counter()
    deployed, _ = call("core.deployment.deploy_model", deploy_model,
                       (model, deployment_config(workload), calibration), {})
    server = call("core.deployment.make_model_server", make_model_server,
                  (deployed, workload.serve_config), {})
    try:
        for rows in BUCKETS:
            call("serve.pool.warmup", server.pool.warmup, (warm[:rows],), {})
    except BaseException:
        server.close()
        raise
    return Setup(server, deployed, time.perf_counter() - start)


class ResponseRecorder:
    """Stands in for the server in ``run_load`` and keeps every distinct answer.

    Requests are row slices of one image pool, keyed by ``(offset, rows)``.
    An answer equal to one already kept for its key only bumps that
    answer's count, so the memory held for the replay check stays bounded
    by the distinct answers instead of growing with every request served
    (which would leak into ``peak_rss_mb``).
    """

    def __init__(self, server, images: np.ndarray, tracer=None) -> None:
        self.server = server
        self.tracer = tracer
        self._kept: Dict[tuple, List[list]] = {}
        self._lock = threading.Lock()
        self._base = images.__array_interface__["data"][0]
        self._row_bytes = images[0].nbytes

    def submit(self, images: np.ndarray, deadline_ms=None, timeout=None) -> np.ndarray:
        kwargs = {"deadline_ms": deadline_ms, "timeout": timeout}
        if self.tracer is None:
            logits = self.server.submit(images, **kwargs)
        else:
            logits = tracing.call(self.tracer, "client.request", self.server.submit,
                                  (images,), kwargs, lambda a, r: ((), {"rows": len(images)}))
        offset = (images.__array_interface__["data"][0] - self._base) // self._row_bytes
        with self._lock:
            kept = self._kept.setdefault((offset, len(images)), [])
            for entry in kept:
                if np.array_equal(entry[0], logits):
                    entry[1] += 1
                    break
            else:
                kept.append([logits, 1])
        return logits

    @property
    def responses(self) -> List[tuple]:
        """``(offset, rows, logits, times served)`` per distinct answer."""
        return [(offset, rows, logits, count)
                for (offset, rows), kept in self._kept.items() for logits, count in kept]


@dataclass
class Phase:
    reports: list
    responses: List[tuple]

    @property
    def wall_s(self) -> float:
        return sum(report.wall_s for report in self.reports)

    def count(self, field: str) -> int:
        return sum(getattr(report, field) for report in self.reports)

    @property
    def latencies_s(self) -> np.ndarray:
        return np.concatenate([report.latencies_s for report in self.reports])


def timed_phase(server, workload, images: np.ndarray, seed: int, seconds: float) -> Phase:
    """Closed-loop ``run_load`` rounds until ``seconds`` have passed."""
    recorder = ResponseRecorder(server, images)
    reports = []
    start = time.perf_counter()
    while not reports or time.perf_counter() - start < seconds:
        reports.append(run_load(recorder, images, round_config(workload, seed, len(reports))))
    return Phase(reports, recorder.responses)


def reference_logits(deployed, images: np.ndarray) -> np.ndarray:
    """Every pool row through a fresh ``make_inference_engine(deployed)``,
    in 128-row batches."""
    engine = make_inference_engine(deployed)
    return np.concatenate([engine.run(images[i:i + 128]) for i in range(0, len(images), 128)])


@dataclass
class Check:
    mismatched: int
    correct_rows: int
    max_deviation: float


def check_responses(responses: Sequence[tuple], reference: np.ndarray, exact: bool,
                    atol: float) -> Check:
    """Compare each served answer with the fresh engine's logits for its rows.

    ``responses`` holds ``(offset, rows, logits, times served)``.
    ``exact``: ``np.array_equal``.  Otherwise the argmax must agree and no
    logit may deviate by more than ``atol``.
    """
    mismatched = correct_rows = 0
    max_deviation = 0.0
    for offset, rows, logits, count in responses:
        expected = reference[offset:offset + rows]
        if np.shape(logits) != expected.shape:
            mismatched += count
            continue
        deviation = float(np.max(np.abs(logits - expected)))
        max_deviation = max(max_deviation, deviation)
        if exact:
            ok = np.array_equal(logits, expected)
        else:
            ok = deviation <= atol and np.array_equal(
                np.argmax(logits, axis=1), np.argmax(expected, axis=1))
        if ok:
            correct_rows += rows * count
        else:
            mismatched += count
    return Check(mismatched, correct_rows, max_deviation)


def phase_counts(phase: Phase, check: Check) -> dict:
    """Requests sent, answered correctly, rejected and failed in one phase."""
    sent = phase.count("requests_sent")
    ok = phase.count("requests_ok") - check.mismatched
    return {
        "sent": sent,
        "ok": ok,
        "rejected": phase.count("requests_rejected") + phase.count("requests_deadline_expired"),
        "failed": phase.count("requests_failed") + check.mismatched,
        "mismatched": check.mismatched,
        "max_deviation": check.max_deviation,
    }


def probe_setup_s(workload_name: str) -> float:
    """One cold set-up in a fresh process (``--setup-probe``), in seconds.

    The probe runs in a process group of its own; whatever way this call
    ends, the group is killed and the probe reaped, so no worker it
    spawned can outlive it.
    """
    probe = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = probe.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        try:
            os.killpg(probe.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        probe.communicate()
    if probe.returncode != 0:
        raise subprocess.CalledProcessError(probe.returncode, probe.args, out, err)
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def become_subreaper() -> None:
    """Have orphaned descendants (a probe's workers, a resource tracker)
    re-parented to this process, so :func:`reap_children` can end them."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: orphans go to init instead
        pass


def _child_pids() -> List[int]:
    me, children = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            children.append(int(entry.name))
    return children


def reap_children() -> None:
    """Kill and wait for every child process still left, so none outlives
    the run on any path out of it."""
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker process, if this
    process started one (the process pool's shared memory does).  Left to
    itself it outlives the benchmark and ends as an unreaped orphan."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def _worker_pids(server) -> list:
    worker_pids = getattr(server.pool, "worker_pids", None)
    return worker_pids() if worker_pids is not None else []


def run_untraced(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics with nothing instrumented."""
    report = {"workload": workload.name, "seed": seed, "trace": 0,
              "host": provenance(), "host_ref_before_ms": host_warmup()}
    images = make_images(workload, IMAGE_POOL, seed)
    setup = cold_setup(workload)
    try:
        phase = timed_phase(setup.server, workload, images, seed, seconds)
        rss = peak_rss_mb(_worker_pids(setup.server))
    finally:
        setup.server.close()
    report["host_ref_after_ms"] = host_reference()
    check = check_responses(phase.responses, reference_logits(setup.deployed, images),
                            workload.exact, RESNET_ATOL)
    setups = [setup.setup_s] + [probe_setup_s(workload.name)
                                for _ in range(workload.setup_samples - 1)]
    latencies = phase.latencies_s
    tail = float(np.percentile(latencies, TAIL_PERCENTILE))
    report.update({
        "counts": phase_counts(phase, check),
        "setup_samples_s": setups,
        "tail_percentile": TAIL_PERCENTILE,
        "latency_samples": int(latencies.size),
        "tail_samples_beyond": int(np.sum(latencies > tail)),
        "latency_percentiles_ms": {
            f"p{q:g}": float(np.percentile(latencies, q)) * 1e3
            for q in (50, 90, 95, 98, 99, 99.5, 99.9)},
        "rounds": [{"wall_s": r.wall_s, "rows": r.rows_served, "requests": r.requests_ok,
                    "p50_ms": r.latency_ms(50)} for r in phase.reports],
        "metrics": {
            "throughput_rows_per_s": check.correct_rows / phase.wall_s,
            "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        },
    })
    return report


def _engine_counters(server) -> Dict[str, int]:
    replicas = getattr(server.pool, "replicas", [])
    return {
        "runtime.engine.retraces": sum(r.engine.stats.retraces for r in replicas),
        "runtime.engine.graph_runs": sum(r.engine.stats.graph_runs for r in replicas),
    }


@dataclass
class TracedPhases:
    untraced: Phase
    traced: Phase
    #: ``(start, end)`` of each traced round, on the tracer's clock.
    windows: List[tuple]
    #: Engine counter increments during the traced rounds.
    counters: Dict[str, int]


def interleaved_phases(server, workload, images: np.ndarray, seed: int, seconds: float,
                       tracer) -> TracedPhases:
    """Untraced and traced rounds in turn until ``seconds`` have passed.

    Round pair ``k`` serves the schedule of round ``k`` once each way, in
    the order untraced-traced for even ``k`` and traced-untraced for odd
    ``k``, so host-speed drift falls on both sides alike.  The entry
    points are instrumented only while a traced round runs.
    """
    plain = ResponseRecorder(server, images)
    traced = ResponseRecorder(server, images, tracer)
    reports: Dict[bool, list] = {False: [], True: []}
    windows: List[tuple] = []
    counters = dict.fromkeys(_engine_counters(server), 0)
    start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - start < seconds:
        config = round_config(workload, seed, pair)
        for on in ((False, True) if pair % 2 == 0 else (True, False)):
            if not on:
                reports[False].append(run_load(plain, images, config))
                continue
            before = _engine_counters(server)
            with tracing.instrument(tracer):
                opened = tracer.clock()
                reports[True].append(run_load(traced, images, config))
                windows.append((opened, tracer.clock()))
            after = _engine_counters(server)
            counters = {name: counters[name] + after[name] - before[name] for name in after}
        pair += 1
    return TracedPhases(Phase(reports[False], plain.responses),
                        Phase(reports[True], traced.responses), windows, counters)


def run_traced(workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics from rounds served traced, interleaved with the same
    rounds served untraced for the tracing overhead."""
    report = {"workload": workload.name, "seed": seed, "trace": 1,
              "host": provenance(), "host_ref_before_ms": host_warmup()}
    images = make_images(workload, IMAGE_POOL, seed)
    setup_tracer, serve_tracer = tracing.new_tracer(), tracing.new_tracer()
    with tracing.instrument(setup_tracer):
        setup = cold_setup(workload, setup_tracer)
    server = setup.server
    try:
        phases = interleaved_phases(server, workload, images, seed, seconds, serve_tracer)
        pool_bytes = sum(r.engine.runtime_stats().get("pool_bytes", 0)
                         for r in getattr(server.pool, "replicas", []))
        restarts = sum(r.get("restarts", 0) for r in server.pool.stats().replicas)
    finally:
        server.close()
    report["host_ref_after_ms"] = host_reference()
    reference = reference_logits(setup.deployed, images)
    sides = (phases.untraced, phases.traced)
    checks = [check_responses(p.responses, reference, workload.exact, RESNET_ATOL)
              for p in sides]
    rates = [check.correct_rows / p.wall_s for p, check in zip(sides, checks)]
    # Worker threads blocked in a wrapped call when a traced round ends
    # finish it during the next untraced round; keep only whole spans.
    serve_spans = tracing.within(serve_tracer.spans(), phases.windows)
    setup_spans = setup_tracer.spans()

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    measured = {
        **tracing.serve_metrics(serve_spans),
        **tracing.setup_metrics(setup_spans),
        **phases.counters,
        "serve.procpool.restarts": restarts,
        "runtime.plan.pool_mb": pool_bytes / 1e6,
        "trace.overhead_share": 1.0 - rates[1] / rates[0],
    }
    metrics.update({name: value for name, value in measured.items() if name in metrics})

    slowest = max((s for s in serve_spans if s.name == "client.request"),
                  key=lambda s: s.duration)
    request = tracing.request_of(serve_spans, slowest)
    report.update({
        "counts": {"untraced": phase_counts(phases.untraced, checks[0]),
                   "traced": phase_counts(phases.traced, checks[1])},
        "throughput_untraced_rows_per_s": rates[0],
        "throughput_traced_rows_per_s": rates[1],
        "setup_layers": tracing.layer_table(setup_spans),
        "serve_layers": tracing.layer_table(serve_spans),
        "unlisted_layer_metrics": {k: v for k, v in measured.items() if k not in metrics},
        "slowest_request": {
            "request": request,
            "ms": slowest.duration * 1e3,
            "spans": (tracing.explain_request(serve_spans, request)
                      if request is not None else []),
        },
        "metrics": metrics,
    })
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{seed}"
    tracing.write(serve_spans, f"{stem}-spans.jsonl")
    tracing.write(setup_spans, f"{stem}-setup-spans.jsonl")
    return report


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print("host " + json.dumps(report["host"]))
    print(f"host reference: {report['host_ref_before_ms']:.2f} ms before, "
          f"{report['host_ref_after_ms']:.2f} ms after")
    print("requests " + json.dumps(report["counts"]))
    if report["trace"]:
        print(f"throughput untraced {report['throughput_untraced_rows_per_s']:.1f} rows/s, "
              f"traced {report['throughput_traced_rows_per_s']:.1f} rows/s")
        print("\nsetup layers\n" + tracing.format_table(report["setup_layers"]))
        print("\nserving layers\n" + tracing.format_table(report["serve_layers"]))
        slow = report["slowest_request"]
        print(f"\nslowest request {slow['request']}: {slow['ms']:.3f} ms")
        print("\n".join(slow["spans"]))
    else:
        print(f"latency samples {report['latency_samples']}, tail p{report['tail_percentile']:g} "
              f"with {report['tail_samples_beyond']} beyond; setup samples "
              + ", ".join(f"{s:.3f}" for s in report["setup_samples_s"]))
    for name, value in report["metrics"].items():
        print(f"  {name:<44} {value:.6g}")


def result_line(report: dict) -> dict:
    """The last line of output: correctness, request counts and metrics."""
    phases = list(report["counts"].values()) if report["trace"] else [report["counts"]]
    units = PER_LAYER if report["trace"] else END_TO_END
    return {
        "correct": all(p["mismatched"] == 0 for p in phases),
        "attempted": sum(p["sent"] for p in phases),
        "failed": sum(p["sent"] - p["ok"] for p in phases),
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    become_subreaper()
    try:
        return _run(args)
    finally:
        stop_resource_tracker()
        reap_children()


def _run(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        host_warmup()
        setup = cold_setup(workload)
        setup.server.close()
        print(json.dumps({"setup_s": setup.setup_s}))
        return 0

    if args.trace:
        report = run_traced(workload, args.seed, args.seconds)
    else:
        report = run_untraced(workload, args.seed, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    _print_report(report)
    print(json.dumps(result_line(report)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
