"""Command-line interface: regenerate any of the paper's tables/figures.

Examples::

    python -m repro.cli table5
    python -m repro.cli table2 --models lenet --bits 4 3 --fast
    python -m repro.cli fig1a
    python -m repro.cli healthcheck --fault-rate 0.01 --remediate --fast
    python -m repro.cli list

Training-backed commands cache trained models under ``.bench_cache`` (same
cache the benchmark harness uses), so repeated invocations are fast.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis import experiments as E
from repro.analysis.tables import render_dict_table, render_histogram

COMMANDS = (
    "table1", "table2", "table3", "table4", "table5",
    "fig1a", "fig1b", "fig3", "fig4",
    "breakdown", "programming", "irdrop", "healthcheck", "plan", "check",
    "serve-bench", "stream-bench", "metrics", "run", "list",
)


def run_flow(args: argparse.Namespace) -> tuple:
    """The ``repro run`` command: execute a named pipeline on the DAG runner.

    ``repro run <pipeline>`` builds one of the named pipelines
    (:data:`repro.flow.pipelines.PIPELINES`), attaches a checkpoint store
    under ``--run-dir`` (resume is the default — re-running after a crash
    skips completed steps), a retry policy (``--retries``), and a JSONL
    failsink (``--failsink``).  Returns ``(output, exit_code)`` — nonzero
    when a step exhausted its attempts.
    """
    from repro.flow import CheckpointStore, Failsink, FlowRunner, RetryPolicy, StepFailed
    from repro.flow.pipelines import PIPELINES, build_named_pipeline

    if args.target is None:
        return (
            "repro run: name a pipeline: " + ", ".join(sorted(PIPELINES)),
            2,
        )
    if args.retries < 0:
        raise SystemExit(f"repro run: --retries must be >= 0, got {args.retries}")
    try:
        pipeline, summarize = build_named_pipeline(
            args.target, fast=args.fast, seed=args.seed
        )
    except ValueError as error:
        return f"repro run: {error}", 2

    run_dir = args.run_dir or os.path.join(".flow_runs", args.target)
    store = CheckpointStore(run_dir)
    failsink = Failsink(path=args.failsink or store.failsink_path())
    runner = FlowRunner(
        store=store,
        retry=RetryPolicy(max_attempts=args.retries + 1),
        failsink=failsink,
        seed=args.seed,
    )
    force: object = False
    if args.force is not None:
        force = True if not args.force else set(args.force)
    failed_step = None
    try:
        result = runner.run(pipeline, resume=not args.no_resume, force=force)
    except StepFailed as error:
        failed_step = error
        result = None
    finally:
        failsink.close()

    lines = [f"pipeline {pipeline.name} (run dir: {run_dir})"]
    if result is not None:
        rows = [
            {"step": r.name, "status": r.status, "attempts": r.attempts,
             "duration_s": round(r.duration_s, 3)}
            for r in result.steps.values()
        ]
        lines.append(render_dict_table(
            rows, ["step", "status", "attempts", "duration_s"], title="steps"))
        lines.append(failsink.summary())
        lines.append("")
        lines.append(summarize(result))
        return "\n".join(lines), 0
    lines.append(f"FAILED: {failed_step}")
    lines.append(failsink.summary())
    lines.append("completed steps keep their checkpoints; re-run to resume")
    return "\n".join(lines), 1


def run_metrics(args: argparse.Namespace) -> str:
    """The ``repro metrics`` command: exercise the stack and export telemetry.

    Deploys the first requested model, serves one instrumented batch
    through a :class:`~repro.serve.server.ModelServer`, measures spike
    activity on the hardware twin, and exports the populated registry as
    JSON (default) or Prometheus text.  The JSON export is round-tripped
    through :func:`repro.obs.from_json` before printing, so a successful
    run certifies the export parses and carries engine, serve, and snc
    families.
    """
    import numpy as np

    from repro import datasets
    from repro.core.deployment import DeploymentConfig, deploy_model, make_model_server
    from repro.models.registry import MODEL_DATASET, build_model
    from repro.obs import Telemetry, from_json, to_prometheus
    from repro.serve import ServeConfig
    from repro.snc.system import SpikingSystemConfig, build_spiking_system

    model_name = args.models[0]
    bits = args.bits[0]
    if not 1 <= bits <= 16:
        raise SystemExit(f"repro metrics: --bits must be in [1, 16], got {bits}")
    telemetry = Telemetry()
    maker = (
        datasets.mnist_like
        if MODEL_DATASET[model_name] == "mnist-like"
        else datasets.cifar_like
    )
    train_set, _ = maker(train_size=32, test_size=8, seed=args.seed)
    images = train_set.images
    model = build_model(model_name, rng=np.random.default_rng(args.seed))
    model.eval()
    deployed, _ = deploy_model(
        model,
        DeploymentConfig(signal_bits=bits, weight_bits=bits, input_bits=8),
        images[:16],
    )
    server = make_model_server(
        deployed,
        ServeConfig(workers=1, batch_size=8),
        warmup_images=images[:2],
        telemetry=telemetry,
    )
    try:
        server.submit(images[:8])
    finally:
        server.close()
    system = build_spiking_system(
        model,
        SpikingSystemConfig(signal_bits=bits, weight_bits=bits, seed=args.seed),
        images[:16],
    )
    system.attach_telemetry(telemetry)
    system.spike_statistics(images[:8])

    document = telemetry.export_json()
    snapshot = from_json(document)  # certifies the export round-trips
    names = snapshot.names()
    for prefix in ("engine_", "serve_", "snc_"):
        if not any(name.startswith(prefix) for name in names):
            raise SystemExit(
                f"repro metrics: export is missing {prefix}* families"
            )
    if args.format == "prometheus":
        output = to_prometheus(snapshot)
    else:
        output = document
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
        return (
            f"wrote {len(names)} metric families "
            f"({args.format}) to {args.output}"
        )
    return output


def run_serve_bench(args: argparse.Namespace) -> str:
    """The ``repro serve-bench`` command: micro-benchmark the serving layer.

    Deploys a quantized model (random weights — serving throughput does
    not depend on training), then offers a deterministic closed-loop
    load to a :class:`~repro.serve.server.ModelServer` at each requested
    worker count and reports throughput and latency percentiles next to
    the single-caller engine and graph-executor baselines.
    """
    import time as _time

    import numpy as np

    from repro import datasets
    from repro.core.deployment import (
        DeploymentConfig, deploy_model, make_inference_engine, make_model_server,
    )
    from repro.models.registry import MODEL_DATASET, build_model
    from repro.nn.tensor import Tensor, no_grad
    from repro.obs import Telemetry, to_prometheus
    from repro.serve import LoadGenConfig, ServeConfig, run_load

    telemetry = Telemetry() if args.metrics else None
    if any(w < 1 for w in args.workers):
        raise SystemExit(
            f"repro serve-bench: --workers must all be >= 1, got {args.workers}"
        )
    model_name = args.models[0]
    bits = args.bits[0]
    if args.quick:
        pool_size, batch_size, clients, requests = 64, 32, 2, 6
        workers_list = [1, 2]
    else:
        pool_size, batch_size, clients, requests = 256, 128, 8, 24
        workers_list = sorted(set(args.workers))
    maker = (
        datasets.mnist_like
        if MODEL_DATASET[model_name] == "mnist-like"
        else datasets.cifar_like
    )
    train_set, _ = maker(train_size=pool_size, test_size=16, seed=args.seed)
    images = train_set.images
    model = build_model(model_name, rng=np.random.default_rng(args.seed))
    model.eval()
    deployed, _ = deploy_model(
        model,
        DeploymentConfig(signal_bits=bits, weight_bits=bits, input_bits=8),
        images[:32],
    )

    def timed_rows_per_s(fn, rows: int, reps: int = 5) -> float:
        fn()  # warm up
        times = []
        for _ in range(reps):
            start = _time.perf_counter()
            fn()
            times.append(_time.perf_counter() - start)
        return rows / float(np.median(times))

    batch = images[:batch_size]
    with no_grad():
        graph_rps = timed_rows_per_s(
            lambda: deployed(Tensor(np.asarray(batch, dtype=np.float64))).data,
            len(batch),
        )
    engine = make_inference_engine(deployed, telemetry=telemetry,
                                   int_path=args.int_path)
    engine_rps = timed_rows_per_s(lambda: engine.run(batch), len(batch))

    load = LoadGenConfig(
        clients=clients, requests_per_client=requests,
        min_rows=max(batch_size // 8, 1), max_rows=max(batch_size // 2, 1),
        seed=args.seed,
    )
    rows = [
        {"config": "graph 1-caller", "rows_per_s": round(graph_rps, 1),
         "p50_ms": "-", "p99_ms": "-"},
        {"config": "engine 1-caller", "rows_per_s": round(engine_rps, 1),
         "p50_ms": "-", "p99_ms": "-"},
    ]
    pool = getattr(args, "pool", "thread")
    for workers in workers_list:
        server = make_model_server(
            deployed,
            ServeConfig(workers=workers, batch_size=batch_size, pool=pool),
            warmup_images=images[:2],
            telemetry=telemetry,
        )
        try:
            report = run_load(server, images, load)
        finally:
            server.close()
        rows.append({
            "config": f"server {workers}w"
                      + (" (proc)" if pool == "process" else ""),
            "rows_per_s": round(report.throughput_rows_per_s, 1),
            "p50_ms": round(report.latency_ms(50), 2),
            "p99_ms": round(report.latency_ms(99), 2),
        })
    title = (
        f"Serving throughput — {model_name} M=N={bits}, batch {batch_size}, "
        f"{clients} closed-loop clients, {pool} pool"
    )
    output = render_dict_table(rows, ["config", "rows_per_s", "p50_ms", "p99_ms"],
                               title=title)
    if telemetry is not None:
        output += "\n\n--- metrics (Prometheus text) ---\n"
        output += to_prometheus(telemetry.registry)
    return output


def run_stream_bench(args: argparse.Namespace) -> str:
    """The ``repro stream-bench`` command: benchmark event-stream serving.

    Builds a quantized spiking system (random weights — streaming
    throughput does not depend on training), statically verifies the
    windowing configuration (QT7xx), then offers deterministic
    event-stream traffic to a :class:`~repro.serve.stream.
    StreamingServer` at each requested worker count.  Reports served
    windows/s and whole-session latency percentiles next to the
    simulated SNC pipeline rate, and ends with a determinism audit:
    one stream served through a session must be bit-exact against a
    direct engine replay with the canonical window grouping.
    """
    import numpy as np

    from repro.check import check_temporal
    from repro.datasets.event_stream import generate_event_streams
    from repro.models.registry import build_model, get_spec
    from repro.serve.loadgen import StreamLoadConfig, run_stream_load
    from repro.serve.stream import StreamConfig, StreamingServer
    from repro.snc.system import SpikingSystemConfig, build_spiking_system
    from repro.snc.temporal import (
        TemporalConfig, replay_frames, stream_timing, stream_to_frames,
    )

    model_name = args.models[0]
    if model_name != "lenet":
        raise SystemExit(
            "repro stream-bench: event streams are single-channel 28x28; "
            "only lenet consumes them (got --models "
            f"{model_name})"
        )
    bits = args.bits[0]
    if any(w < 1 for w in args.workers):
        raise SystemExit(
            f"repro stream-bench: --workers must all be >= 1, got {args.workers}"
        )
    if args.quick:
        clients, per_client, workers_list = 2, 3, [1, 2]
    else:
        clients, per_client, workers_list = 4, 8, sorted(set(args.workers))
    temporal = TemporalConfig(signal_bits=bits)
    spec = get_spec(model_name)
    streams = generate_event_streams(6, seed=args.seed).streams

    gate = check_temporal(
        temporal.window_us, temporal.stride_us, temporal.signal_bits,
        input_bits=bits, streams=streams, spec=spec,
    )
    if gate.has_errors:
        raise SystemExit(gate.summary())

    model = build_model(model_name, rng=np.random.default_rng(args.seed))
    model.eval()
    system = build_spiking_system(
        model,
        SpikingSystemConfig(signal_bits=bits, weight_bits=bits,
                            input_bits=bits, signal_gain="auto"),
        stream_to_frames(streams[0], temporal),
    )

    timing = stream_timing(spec, temporal, total_windows=64)
    rows = [{
        "config": "simulated SNC pipeline",
        "windows_per_s": round(timing.windows_per_second, 1),
        "session_p50_ms": "-", "session_p99_ms": "-",
    }]
    load = StreamLoadConfig(clients=clients, streams_per_client=per_client,
                            seed=args.seed)
    for workers in workers_list:
        with StreamingServer.for_system(
            system, StreamConfig(temporal=temporal), workers=workers
        ) as streaming:
            report = run_stream_load(streaming, load)
        if report.streams_failed:
            raise SystemExit(
                f"repro stream-bench: {report.streams_failed} session(s) failed"
            )
        rows.append({
            "config": f"sessions {workers}w",
            "windows_per_s": round(report.windows_per_second, 1),
            "session_p50_ms": round(report.latency_ms(50), 2),
            "session_p99_ms": round(report.latency_ms(99), 2),
        })

    with StreamingServer.for_system(
        system, StreamConfig(temporal=temporal), workers=1
    ) as streaming:
        served = streaming.serve_stream(streams[0])
    expected = replay_frames(
        system.engine(), stream_to_frames(streams[0], temporal),
        temporal.batch_windows,
    )
    exact = bool(np.array_equal(served.per_window_logits, expected))
    title = (
        f"Streaming sessions — {model_name} M=N={bits}, window "
        f"{temporal.window_us}µs / stride {temporal.stride_us}µs, "
        f"batch_windows {temporal.batch_windows}, {clients} clients"
    )
    output = render_dict_table(
        rows, ["config", "windows_per_s", "session_p50_ms", "session_p99_ms"],
        title=title,
    )
    output += (
        "\nsession vs direct replay: "
        + ("bit-exact" if exact else "MISMATCH")
        + f" ({served.total_windows} windows)"
    )
    if not exact:
        raise SystemExit(output)
    return output


def _render_check_reports(reports: list, args: argparse.Namespace) -> tuple:
    """Render CheckReports as text or JSON; exit code 1 on any error."""
    import json

    failed = any(report.has_errors for report in reports)
    if args.json:
        output = json.dumps([report.to_dict() for report in reports], indent=2)
    else:
        output = "\n\n".join(report.summary(verbose=args.verbose) for report in reports)
        total_errors = sum(len(report.errors) for report in reports)
        output += (
            f"\n\nchecked {len(reports)} target(s): "
            + ("FAIL" if failed else "OK")
            + f" ({total_errors} error(s) total)"
        )
    return output, (1 if failed else 0)


def _fallback_reason(engine) -> str:
    """Why an engine serves from the graph: precheck rule ids or the
    compile error."""
    report = engine.check_report
    if report is not None and report.has_errors:
        rules = sorted({diag.rule for diag in report.errors})
        return f"precheck {', '.join(rules)} ({len(report.errors)} error(s))"
    return engine.plan_error or "unknown"


#: Row counts ``check --plans`` replays before verifying: odd and even, a
#: growing and a shrinking step, so the pool holds views laid out for
#: several batch sizes at once.
PLAN_CHECK_ROWS = (1, 3, 2)


def _check_plans(args: argparse.Namespace) -> tuple:
    """``repro check --plans``: statically verify compiled execution plans.

    Deploys each model at each bit width, compiles a plan under both
    integer-path variants (``int``: multiply requantize, ``shift``: pow2
    shift requantize), replays it at 1, 3 and 2 rows, and runs the PL6xx
    plan verifier on the compiled IR.  The engine's own post-compile gate
    is disabled here so findings surface in the report (and the exit
    code) instead of being silently swallowed by graph fallback.  Every
    model must compile in the ``int`` variant: a graph fallback there is a
    PL600 error naming the reason.  A ``shift`` fallback (ResNet's
    off-grid pow2 scales) gets an empty OK report whose note names the
    reason — the graph executor needs no plan proof.
    """
    import numpy as np

    from repro.check import CheckReport
    from repro.check.plancheck import PlanCheckConfig, check_plan
    from repro.core.deployment import DeploymentConfig, deploy_model
    from repro.models.registry import build_model, get_spec
    from repro.runtime.engine import EngineConfig, InferenceEngine

    variants = (("int", "auto"), ("shift", "shift"))
    config = PlanCheckConfig(suppress=tuple(args.suppress))
    reports = []
    for model_name in args.models:
        spec = get_spec(model_name)
        rng = np.random.default_rng(args.seed)
        sample = rng.uniform(0.0, 1.0, size=(3, *spec.input_shape))
        for bits in args.bits:
            for variant, int_path in variants:
                target = f"{model_name} plan (M=N={bits}, {variant})"
                model = build_model(model_name, rng=np.random.default_rng(args.seed))
                model.eval()
                deployed, _ = deploy_model(
                    model,
                    DeploymentConfig(signal_bits=bits, weight_bits=bits,
                                     static_check="off"),
                )
                engine = InferenceEngine(
                    deployed, EngineConfig(plan_check=False, int_path=int_path)
                )
                # Several row counts, so PL602/PL605 audit the arena views
                # and owned prefix views laid out for each of them.
                for rows in PLAN_CHECK_ROWS:
                    engine.run(sample[:rows])
                if engine.plan is not None:
                    reports.append(check_plan(engine.plan, config=config,
                                              target=target))
                    continue
                reason = _fallback_reason(engine)
                if variant != "int":
                    reports.append(CheckReport(
                        f"{target}: graph fallback ({reason})"))
                    continue
                report = CheckReport(target)
                report.add(
                    "PL600", "error", "<plan>",
                    f"the int variant does not compile ({reason}); the engine "
                    "would serve every request from the graph executor",
                    reason=reason,
                )
                reports.append(report.suppressed(config.suppress))
    return _render_check_reports(reports, args)


def run_check(args: argparse.Namespace) -> tuple:
    """The ``repro check`` command: static deployment verification.

    Returns ``(output, exit_code)`` — nonzero when any checked target has
    an error-severity diagnostic, so CI can gate on it.  With ``--plans``
    the compiled execution plans are verified instead of the specs.
    """
    from repro.check import CheckConfig, check_module, check_spec
    from repro.models.registry import get_spec

    if args.plans:
        return _check_plans(args)

    config = CheckConfig(
        max_crossbars=args.max_crossbars,
        suppress=tuple(args.suppress),
    )
    reports = []
    for model_name in args.models:
        spec = get_spec(model_name)
        for bits in args.bits:
            reports.append(check_spec(spec, signal_bits=bits, weight_bits=bits,
                                      config=config))
        if args.deep:
            import numpy as np

            from repro.core.deployment import DeploymentConfig, deploy_model
            from repro.models.registry import build_model

            model = build_model(model_name, rng=np.random.default_rng(args.seed))
            model.eval()
            for bits in args.bits:
                deployed, _ = deploy_model(
                    model,
                    DeploymentConfig(signal_bits=bits, weight_bits=bits,
                                     static_check="off"),
                )
                reports.append(check_module(
                    deployed, input_shape=spec.input_shape, config=config,
                    target=f"{model_name} (deployed, M=N={bits})",
                ))
    return _render_check_reports(reports, args)


def _settings(args: argparse.Namespace) -> E.ExperimentSettings:
    return E.FAST_SETTINGS if args.fast else E.ExperimentSettings()


def _models(args: argparse.Namespace):
    return tuple(args.models)


def _bits(args: argparse.Namespace):
    return tuple(args.bits)


def run_command(args: argparse.Namespace) -> str:
    """Execute one CLI command and return its rendered output."""
    if args.command == "list":
        return "\n".join(COMMANDS[:-1])

    if args.command == "check":
        return run_check(args)[0]

    if args.command == "run":
        return run_flow(args)[0]

    if args.command == "serve-bench":
        return run_serve_bench(args)

    if args.command == "stream-bench":
        return run_stream_bench(args)

    if args.command == "metrics":
        return run_metrics(args)

    if args.command == "table1":
        rows = E.table1_ideal_accuracy(_settings(args))
        for row in rows:
            row["measured_ideal_acc"] = round(row["measured_ideal_acc"], 2)
        return render_dict_table(
            rows,
            ["model", "dataset", "conv_layers", "fc_layers",
             "paper_weights", "paper_ideal_acc", "measured_ideal_acc"],
            title="Table 1",
        )

    if args.command == "table2":
        outcomes = E.table2_neuron_convergence(_settings(args), _bits(args), _models(args))
        return render_dict_table(
            [o.row() for o in outcomes],
            ["model", "bits", "without", "with", "recovered", "drop", "ideal"],
            title="Table 2: Neuron Convergence",
        )

    if args.command == "table3":
        outcomes = E.table3_weight_clustering(_settings(args), _bits(args), _models(args))
        return render_dict_table(
            [o.row() for o in outcomes],
            ["model", "bits", "without", "with", "recovered", "drop", "ideal"],
            title="Table 3: Weight Clustering",
        )

    if args.command == "table4":
        results = E.table4_combined(_settings(args), _bits(args), _models(args))
        rows = []
        for model, entry in results.items():
            rows.append({"model": model, "bits": "dyn-8",
                         "with": round(entry["dynamic8"], 2),
                         "ideal": round(entry["ideal"], 2)})
            rows.extend(o.row() for o in entry["outcomes"])
        return render_dict_table(
            rows,
            ["model", "bits", "without", "with", "recovered", "drop", "ideal"],
            title="Table 4: combined quantization",
        )

    if args.command == "table5":
        rows = E.table5_system()
        for row in rows:
            for key in ("speed_mhz", "energy_uj", "area_mm2"):
                row[key] = round(row[key], 2)
            row["speedup"] = round(row["speedup"], 1)
            row["energy_saving"] = round(row["energy_saving"] * 100, 1)
            row["area_saving"] = round(row["area_saving"] * 100, 1)
        return render_dict_table(
            rows,
            ["model", "bits", "speed_mhz", "speedup", "energy_uj",
             "energy_saving", "area_mm2", "area_saving"],
            title="Table 5: SNC system evaluation",
        )

    if args.command == "fig1a":
        rows = E.fig1a_speed_vs_precision()
        for row in rows:
            row["speed_mhz"] = round(row["speed_mhz"], 2)
        return render_dict_table(rows, ["bits", "speed_mhz"], title="Fig 1a")

    if args.command == "fig1b":
        rows = E.fig1b_accuracy_loss(_settings(args))
        for row in rows:
            row["neuron_loss"] = round(row["neuron_loss"], 2)
            row["weight_loss"] = round(row["weight_loss"], 2)
        return render_dict_table(
            rows, ["bits", "neuron_loss", "weight_loss"], title="Fig 1b"
        )

    if args.command == "fig3":
        curves = E.fig3_regularizer_forms()
        rows = []
        o = curves["o"]
        for i in range(0, len(o), max(len(o) // 12, 1)):
            rows.append(
                {"o": round(float(o[i]), 2),
                 "l1": round(float(curves["l1"][i]), 3),
                 "truncated_l1": round(float(curves["truncated_l1"][i]), 3),
                 "proposed": round(float(curves["proposed"][i]), 3)}
            )
        return render_dict_table(
            rows, ["o", "l1", "truncated_l1", "proposed"], title="Fig 3 (M=2)"
        )

    if args.command == "fig4":
        distributions = E.fig4_signal_distributions(_settings(args))
        return "\n\n".join(
            render_histogram(values, bins=20, title=f"--- {name} ---")
            for name, values in distributions.items()
        )

    if args.command == "breakdown":
        from repro.models.registry import get_spec
        from repro.snc.cost import layer_breakdown

        rows = []
        for model in args.models:
            for entry in layer_breakdown(get_spec(model), args.bits[0]):
                entry = dict(entry)
                entry["model"] = model
                entry["energy_uj"] = round(entry["energy_uj"], 3)
                entry["area_mm2"] = round(entry["area_mm2"], 3)
                entry["output_events"] = round(entry["output_events"])
                rows.append(entry)
        return render_dict_table(
            rows,
            ["model", "index", "kind", "rows", "cols", "crossbars",
             "output_events", "energy_uj", "area_mm2"],
            title=f"Per-layer cost breakdown at M={args.bits[0]}",
        )

    if args.command == "programming":
        from repro.models.registry import get_spec
        from repro.snc.programming import programming_cost

        rows = []
        for model in args.models:
            for bits in args.bits:
                cost = programming_cost(get_spec(model), bits)
                rows.append(
                    {"model": model, "bits": bits,
                     "pulses_per_device": round(cost.pulses_per_device, 1),
                     "time_ms": round(cost.time_ms, 3),
                     "energy_uj": round(cost.energy_uj, 2)}
                )
        return render_dict_table(
            rows, ["model", "bits", "pulses_per_device", "time_ms", "energy_uj"],
            title="Programming (write) cost",
        )

    if args.command == "healthcheck":
        if not 0.0 <= args.fault_rate <= 1.0:
            raise SystemExit(
                f"repro healthcheck: --fault-rate must be in [0, 1], got {args.fault_rate}"
            )
        if args.variation < 0.0:
            raise SystemExit(
                f"repro healthcheck: --variation must be >= 0, got {args.variation}"
            )
        result = E.healthcheck_study(
            _settings(args),
            model=args.models[0],
            bits=args.bits[0],
            fault_rate=args.fault_rate,
            variation_sigma=args.variation,
            spare_fraction=args.spare_fraction,
            seed=args.seed,
            remediate=args.remediate,
        )
        lines = [
            f"Self-healing healthcheck — {result['model']} at "
            f"{result['bits']}-bit, fault rate {args.fault_rate:.1%}, "
            f"variation σ={args.variation:.2f}, seed {args.seed}",
            "",
        ]
        fault_report = result["fault_report"]
        if fault_report is not None:
            lines.append(
                f"Injected faults: {fault_report.stuck_sa0} SA0 + "
                f"{fault_report.stuck_sa1} SA1 of {fault_report.total_devices} devices"
            )
        lines.append(result["health"].summary())
        lines.append(
            f"Hardware accuracy {result['accuracy']:.1%} "
            f"(software twin {result['software_accuracy']:.1%})"
        )
        if args.remediate:
            lines.append("")
            lines.append(result["remediation"].summary())
            lines.append(result["health_after"].summary())
            lines.append(f"Hardware accuracy after repair: {result['accuracy_after']:.1%}")
        return "\n".join(lines)

    if args.command == "plan":
        import numpy as np

        from repro import datasets
        from repro.core.deployment import DeploymentConfig, deploy_model, make_inference_engine
        from repro.models.registry import MODEL_DATASET, build_model

        sections = []
        for model_name in args.models:
            maker = (
                datasets.mnist_like
                if MODEL_DATASET[model_name] == "mnist-like"
                else datasets.cifar_like
            )
            train_set, test_set = maker(train_size=64, test_size=16, seed=args.seed)
            model = build_model(model_name, rng=np.random.default_rng(args.seed))
            model.eval()
            deployed, _ = deploy_model(
                model,
                DeploymentConfig(
                    signal_bits=args.bits[0],
                    weight_bits=args.bits[0],
                    input_bits=8,
                    signal_gain=E.MODEL_SIGNAL_GAIN[model_name],
                ),
                train_set.images[:32],
            )
            engine = make_inference_engine(deployed, int_path=args.int_path)
            engine.run(test_set.images[:8])
            stats = engine.runtime_stats()
            sections.append(
                f"=== {model_name} (M=N={args.bits[0]}, input 8-bit) ===\n"
                f"{engine.describe()}\n"
                f"backend={stats['backend']} "
                f"int_steps={stats.get('int_steps', 0)} "
                f"pool_bytes={stats.get('pool_bytes', 0)}"
            )
        return "\n\n".join(sections)

    if args.command == "irdrop":
        from repro.snc.irdrop import ir_drop_error_vs_size

        rows = [
            {"size": size, "relative_error_pct": round(error * 100, 3)}
            for size, error in ir_drop_error_vs_size([8, 16, 32, 64, 128])
        ]
        return render_dict_table(
            rows, ["size", "relative_error_pct"],
            title="Worst-corner IR-drop error vs crossbar size",
        )

    raise SystemExit(f"unknown command {args.command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures from Liu & Liu, DAC 2018.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "target", nargs="?", default=None,
        help="pipeline name for the run command (quantization, sweep, yield)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="use the small/fast experiment settings (less faithful)",
    )
    parser.add_argument(
        "--models", nargs="+", default=["lenet", "alexnet", "resnet"],
        choices=["lenet", "alexnet", "resnet"],
    )
    parser.add_argument("--bits", nargs="+", type=int, default=[5, 4, 3])

    healthcheck = parser.add_argument_group("healthcheck options")
    healthcheck.add_argument(
        "--fault-rate", type=float, default=0.01,
        help="stuck-at fault rate to inject before probing (0 = pristine chip)",
    )
    healthcheck.add_argument(
        "--variation", type=float, default=0.0,
        help="memristor programming variation σ at deployment time",
    )
    healthcheck.add_argument(
        "--spare-fraction", type=float, default=0.1,
        help="fraction of crossbars provisioned as spares for remediation",
    )
    healthcheck.add_argument(
        "--seed", type=int, default=0,
        help="seed for fault injection, probing, and repair pulse noise",
    )
    healthcheck.add_argument(
        "--remediate", action="store_true",
        help="run the tiered repair ladder after diagnosis and re-probe",
    )

    engine = parser.add_argument_group("engine options (plan, serve-bench)")
    engine.add_argument(
        "--int-path", choices=["auto", "off", "shift"], default="auto",
        help="integer fast path: auto (multiply requantize), off (float "
             "plans), or shift (snap scales to the pow2 grid and requantize "
             "with arithmetic right shifts — multiplier-less MACs)",
    )

    serve = parser.add_argument_group("serve-bench / stream-bench options")
    serve.add_argument(
        "--workers", nargs="+", type=int, default=[1, 4],
        help="replica counts to benchmark (one server run per count)",
    )
    serve.add_argument(
        "--pool", choices=["thread", "process"], default="thread",
        help="replica pool backend for serve-bench: worker threads "
             "sharing the deployed module, or spawned worker processes "
             "fed through shared-memory tensors",
    )
    serve.add_argument(
        "--quick", action="store_true",
        help="tiny model/load for CI smoke runs (seconds, not minutes)",
    )
    serve.add_argument(
        "--metrics", action="store_true",
        help="instrument the bench with telemetry and append the "
             "Prometheus export to the output",
    )

    metrics = parser.add_argument_group("metrics options")
    metrics.add_argument(
        "--format", choices=["json", "prometheus"], default="json",
        help="export format for the metrics command",
    )
    metrics.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the export to PATH instead of stdout",
    )

    flow = parser.add_argument_group("run options")
    flow.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="checkpoint directory (default .flow_runs/<pipeline>)",
    )
    flow.add_argument(
        "--no-resume", action="store_true",
        help="ignore existing checkpoints and re-execute every step",
    )
    flow.add_argument(
        "--force", nargs="*", default=None, metavar="STEP",
        help="invalidate checkpoints before running: bare --force drops "
             "all, --force s1 s2 drops just those steps",
    )
    flow.add_argument(
        "--retries", type=int, default=2,
        help="retries per step on transient failures (attempts = retries+1)",
    )
    flow.add_argument(
        "--failsink", default=None, metavar="PATH",
        help="JSONL file for per-item failure records "
             "(default <run-dir>/failsink.jsonl)",
    )

    check = parser.add_argument_group("check options")
    check.add_argument(
        "--json", action="store_true",
        help="emit the check reports as JSON instead of text",
    )
    check.add_argument(
        "--verbose", action="store_true",
        help="include per-layer analysis facts in the text report",
    )
    check.add_argument(
        "--suppress", nargs="*", default=[], metavar="RULE",
        help="rule ids to drop from the reports (e.g. QS202 QI401)",
    )
    check.add_argument(
        "--max-crossbars", type=int, default=None,
        help="total crossbar-tile budget for the QC501 feasibility rule",
    )
    check.add_argument(
        "--deep", action="store_true",
        help="also deploy each model (random weights) and run the full "
             "abstract interpretation, not just the spec check",
    )
    check.add_argument(
        "--plans", action="store_true",
        help="deploy and trace each model and statically verify the "
             "compiled execution plans (PL6xx rules) for both int "
             "variants: int and shift",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        output, code = run_check(args)
        print(output)
        return code
    if args.command == "run":
        output, code = run_flow(args)
        print(output)
        return code
    print(run_command(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
