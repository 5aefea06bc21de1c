"""The inference engine: compiled plans with a guarded graph fallback.

:class:`InferenceEngine` wraps a trained/deployed :class:`~repro.nn.modules.
Module` for serving.  On first use it traces the module into an
:class:`~repro.runtime.plan.ExecutionPlan` (fused kernels, pooled buffers,
and — for quantized networks — the integer fast path); every later call
replays the flat plan with zero autograd overhead.  Three guarantees:

- **equivalence** — at trace time the plan's output is checked against the
  graph executor on the trace batch; a deviating plan is rejected and the
  engine serves from the graph instead.  Float64 plans mirror the graph's
  operations bit for bit; the integer fast path is exact in its integer
  arithmetic and agrees with the graph to tie-breaking precision.
- **freshness** — before each run the plan compares the traced structure
  and weight snapshots against the live module (remediation reprogramming,
  re-quantization, or module surgery all mutate them) and re-traces
  automatically when anything changed.
- **graceful degradation** — anything the compiler cannot lower (unknown
  module classes, training-mode layers) falls back to the graph executor;
  the engine never refuses to serve.

Dtype policy: ``EngineConfig.dtype`` (float32 by default, for serving
throughput) applies to pure-float plans; plans that activate the integer
fast path run their scalar tails in float64 so results stay comparable to
the graph at full precision.  Pass ``dtype=np.float64`` for bit-identical
float plans (what `SpikingSystem` and the analysis eval loops use).

Observability: :attr:`InferenceEngine.stats` counters are backed by a
private thread-safe :class:`~repro.obs.metrics.MetricsRegistry`, so
engines shared across serve replicas never lose increments.  Passing a
:class:`~repro.obs.Telemetry` additionally mirrors the counters into the
shared registry (labelled by model, aggregated across engines), records
run-latency histograms, emits ``engine.run``/``engine.graph_run`` spans,
and times each plan step by op class — all through the telemetry's
injected clock; with telemetry off the serving path reads no clock at
all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.modules import Module
from repro.nn.tensor import Tensor, no_grad
from repro.obs import Telemetry
from repro.obs.metrics import Counter, MetricsRegistry
from repro.runtime.plan import ExecutionPlan, PlanError, compile_plan


@dataclass
class EngineConfig:
    """How to compile and run inference plans.

    Attributes
    ----------
    dtype:
        Compute dtype for pure-float plans (float32 default for serving;
        float64 reproduces the graph executor bit for bit).
    int_path:
        ``"auto"`` (default) activates the integer fast path whenever the
        network carries clustered N-bit weights and M-bit signal
        quantizers; ``"off"`` forces all-float plans; ``"shift"`` is the
        multiplier-less ``engine_shift`` variant — before tracing, the
        module's per-layer scales are snapped to the power-of-two grid
        (:func:`repro.core.pow2.snap_scales_pow2` — this mutates the
        module and in general perturbs its logits, see
        ``docs/performance.md``), so every requantize runs as an
        arithmetic right shift with no multiplier.
    verify_on_trace:
        Check the compiled plan against the graph executor on the trace
        batch before trusting it (cheap; runs once per trace).
    static_check:
        Run the static verifier (:mod:`repro.check`) on the module before
        the first trace.  Error-severity findings mean the plan compiler's
        assumptions do not hold, so the engine degrades to the graph
        executor (it never refuses to serve) and records the report in
        :attr:`InferenceEngine.check_report`.
    plan_check:
        Run the static *plan* verifier (:mod:`repro.check.plancheck`,
        rules PL601–PL605) on every freshly compiled plan before trusting
        it.  The pre-trace check proves module-level invariants; this one
        proves the compiled artifact — accumulator bounds, copy-program
        aliasing, layout/dtype handoffs, shift feasibility, replay
        purity.  Error findings drop the plan and degrade to graph-only
        serving, recorded as ``plancheck_errors``; the report lands in
        :attr:`InferenceEngine.plan_report` and merges into
        :attr:`InferenceEngine.check_report` when one exists.
    check_staleness:
        Compare weight snapshots before each run and re-trace on mismatch.
    trace_batch:
        Number of samples from the first batch used for tracing.
    batch_size:
        Default micro-batch for :meth:`InferenceEngine.infer_batched`.
    """

    dtype: type = np.float32
    int_path: str = "auto"
    verify_on_trace: bool = True
    static_check: bool = True
    plan_check: bool = True
    check_staleness: bool = True
    trace_batch: int = 2
    batch_size: int = 256

    def __post_init__(self) -> None:
        if self.int_path not in ("auto", "off", "shift"):
            raise ValueError(
                f"int_path must be 'auto', 'off', or 'shift', got {self.int_path!r}"
            )
        if self.trace_batch < 1:
            raise ValueError(f"trace_batch must be >= 1, got {self.trace_batch}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


class EngineStats:
    """Operational counters of one engine (scraped into runtime stats).

    Each field is a thread-safe registry counter read back as an ``int``
    property, so engines shared across serve replicas or guard threads
    never lose increments (a plain ``stats.runs += 1`` drops updates when
    two threads interleave between the read and the write).  The backing
    registry is private to the engine; fleet-wide aggregation happens in
    the shared :class:`~repro.obs.Telemetry` registry instead.
    """

    FIELDS = {
        "runs": "Batches served from a compiled plan",
        "graph_runs": "Batches served by the graph executor",
        "retraces": "Plans dropped as stale and re-traced",
        "trace_failures": "Trace attempts rejected with PlanError",
        "precheck_errors": "Static-check errors that forced graph-only mode",
        "plancheck_errors": "Plan-verifier errors that forced graph-only mode",
    }

    def __init__(self) -> None:
        self._registry = MetricsRegistry()
        self._counters = {
            name: self._registry.counter(f"engine_{name}_total", help=text)
            for name, text in self.FIELDS.items()
        }

    def counter(self, name: str) -> Counter:
        """The live backing counter for ``name`` (one of :attr:`FIELDS`)."""
        return self._counters[name]

    def inc(self, name: str, amount: float = 1) -> None:
        """Increment one counter (thread-safe)."""
        self._counters[name].inc(amount)

    @property
    def runs(self) -> int:
        return int(self._counters["runs"].value)

    @property
    def graph_runs(self) -> int:
        return int(self._counters["graph_runs"].value)

    @property
    def retraces(self) -> int:
        return int(self._counters["retraces"].value)

    @property
    def trace_failures(self) -> int:
        return int(self._counters["trace_failures"].value)

    @property
    def precheck_errors(self) -> int:
        return int(self._counters["precheck_errors"].value)

    @property
    def plancheck_errors(self) -> int:
        return int(self._counters["plancheck_errors"].value)


def _model_label(module: Module) -> str:
    """Telemetry label for a served module.

    Deployed networks arrive wrapped (input quantizer + network body);
    the body's class name — ``LeNet``, not ``_PrependInput`` — is the
    series label operators will look for.
    """
    inner = getattr(module, "network", None)
    if isinstance(inner, Module):
        return type(inner).__name__
    return type(module).__name__


class InferenceEngine:
    """Serve inference for one module through compiled execution plans."""

    def __init__(self, module: Module, config: Optional[EngineConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.module = module
        self.config = config or EngineConfig()
        self.stats = EngineStats()
        self.telemetry = telemetry
        self._model_name = _model_label(module)
        # Mirror counters in the shared registry, labelled by model so
        # replicas of the same deployment aggregate into one series.
        self._mirror = (
            {
                name: telemetry.registry.counter(
                    f"engine_{name}_total", help=text, model=self._model_name
                )
                for name, text in EngineStats.FIELDS.items()
            }
            if telemetry is not None
            else None
        )
        self._plan: Optional[ExecutionPlan] = None
        self._graph_only = False
        self.check_report = None  # repro.check.CheckReport after first trace
        self.plan_report = None   # plan-verifier CheckReport after each compile
        self.plan_error: Optional[str] = None  # why the last compile failed

    def _count(self, name: str, amount: float = 1) -> None:
        self.stats.inc(name, amount)
        if self._mirror is not None:
            self._mirror[name].inc(amount)

    # -- serving ------------------------------------------------------------
    def run(self, images: np.ndarray) -> np.ndarray:
        """Run one batch; returns logits ``(batch, classes)`` (owned copy)."""
        images = np.asarray(images, dtype=np.float64)
        plan = self._ensure_plan(images)
        if plan is None:
            return self._graph_run(images)
        self._count("runs")
        if self.telemetry is None:
            return np.array(plan.run(images))
        return self._plan_run_observed(plan, images)

    def _plan_run_observed(self, plan: ExecutionPlan, images: np.ndarray) -> np.ndarray:
        """Plan replay with spans, per-step timings, and latency histograms."""
        telemetry = self.telemetry
        if plan.uses_int_path:
            backend = "shift" if self.config.int_path == "shift" else "int"
        else:
            backend = plan.dtype.name
        start = telemetry.clock()
        out = np.array(plan.run_timed(images, telemetry, model=self._model_name))
        end = telemetry.clock()
        telemetry.tracer.record(
            "engine.run", start, end,
            model=self._model_name, rows=len(images), backend=backend,
        )
        telemetry.registry.histogram(
            "engine_run_seconds", help="Wall time of one engine batch",
            model=self._model_name, backend=backend,
        ).observe(end - start)
        telemetry.registry.counter(
            "engine_rows_total", help="Input rows served by engines",
            model=self._model_name,
        ).inc(len(images))
        return out

    def infer_batched(self, images: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Stream ``images`` through the plan in micro-batches."""
        if batch_size is None:
            batch_size = self.config.batch_size
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        outputs = [
            self.run(images[start : start + batch_size])
            for start in range(0, len(images), batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def predict(self, images: np.ndarray) -> np.ndarray:
        return self.run(images).argmax(axis=1)

    # -- plan lifecycle -----------------------------------------------------
    def _ensure_plan(self, images: np.ndarray) -> Optional[ExecutionPlan]:
        if self._graph_only:
            return None
        if (
            self._plan is not None
            and self.config.check_staleness
            and self._plan.is_stale()
        ):
            self._plan = None
            self._count("retraces")
        if self._plan is None:
            sample = images[: self.config.trace_batch]
            if self.config.int_path == "shift" and not self._snap_pow2():
                return None
            if not self._precheck(sample):
                return None
            try:
                plan = compile_plan(self.module, sample, self.config)
            except PlanError as exc:
                self.plan_error = str(exc)
                self._count("trace_failures")
                self._graph_only = True
                return None
            if not self._postcheck(plan):
                return None
            self._plan = plan
        return self._plan

    def _snap_pow2(self) -> bool:
        """Snap the module's scales onto the power-of-two grid (shift mode).

        Runs before every (re-)trace and is idempotent, so a module already
        on the grid is untouched.  Mutates weight scales and activation
        gains in place — the graph executor of this module then computes
        the *snapped* network, which is what shift-mode conformance
        compares against.  An unsnappable module (a layer whose requantize
        shift would be negative) degrades to graph-only serving.
        """
        from repro.core.pow2 import snap_scales_pow2

        try:
            snap_scales_pow2(self.module)
        except ValueError as exc:
            self.plan_error = str(exc)
            self._count("trace_failures")
            self._graph_only = True
            return False
        return True

    def _precheck(self, sample: np.ndarray) -> bool:
        """Statically verify the module before the first trace.

        Errors mean the plan compiler's invariants (uniform quantizers,
        on-grid weights, consistent shapes) do not hold — serve from the
        graph executor instead of trusting a compiled plan.  Runs before
        every (re-)trace, so freshness matches the plan's.
        """
        if not self.config.static_check:
            return True
        # Lazy import: repro.check pulls in model/deployment modules the
        # engine itself never needs.
        from repro.check import CheckConfig, check_module

        self.check_report = check_module(
            self.module, input_shape=tuple(sample.shape[1:]),
            config=CheckConfig(
                require_pow2_scales=(self.config.int_path == "shift")
            ),
            target=f"engine:{type(self.module).__name__}",
        )
        if self.check_report.has_errors:
            self._count("precheck_errors", len(self.check_report.errors))
            self._graph_only = True
            return False
        return True

    def _postcheck(self, plan: ExecutionPlan) -> bool:
        """Statically verify the compiled plan IR before trusting it.

        The pre-trace check proves module-level invariants; this one
        proves the *compiled artifact* — accumulator bounds (PL601),
        copy-program aliasing (PL602), layout/dtype handoffs (PL603),
        shift feasibility (PL604), replay purity (PL605).  Error findings
        mean the plan must not run: the engine refuses it and falls back
        to the graph executor, recording the count in
        ``plancheck_errors`` and the report in :attr:`plan_report` (also
        merged into :attr:`check_report` when the precheck produced one).
        """
        if not self.config.plan_check:
            return True
        # Lazy import, mirroring _precheck: repro.check is optional here.
        from repro.check.plancheck import check_plan

        report = check_plan(plan, target=f"engine-plan:{type(self.module).__name__}")
        self.plan_report = report
        if self.check_report is not None:
            self.check_report.extend(report)
        if report.has_errors:
            self._count("plancheck_errors", len(report.errors))
            self._graph_only = True
            return False
        return True

    def invalidate(self) -> None:
        """Drop the current plan (next run re-traces)."""
        self._plan = None

    def _graph_run(self, images: np.ndarray) -> np.ndarray:
        self._count("graph_runs")
        telemetry = self.telemetry
        if telemetry is None:
            with no_grad():
                return self.module(Tensor(images)).data
        start = telemetry.clock()
        with no_grad():
            out = self.module(Tensor(images)).data
        end = telemetry.clock()
        telemetry.tracer.record(
            "engine.graph_run", start, end,
            model=self._model_name, rows=len(images),
        )
        telemetry.registry.histogram(
            "engine_run_seconds", help="Wall time of one engine batch",
            model=self._model_name, backend="graph",
        ).observe(end - start)
        return out

    # -- observability ------------------------------------------------------
    @property
    def plan(self) -> Optional[ExecutionPlan]:
        return self._plan

    @property
    def active_backend(self) -> str:
        """``graph`` | ``untraced`` | ``int`` | ``shift`` | ``float32`` | ``float64``."""
        if self._graph_only:
            return "graph"
        if self._plan is None:
            return "untraced"
        if self._plan.uses_int_path:
            return "shift" if self.config.int_path == "shift" else "int"
        return self._plan.dtype.name

    def describe(self) -> str:
        if self._plan is not None:
            return self._plan.describe()
        return f"InferenceEngine(backend={self.active_backend}, not yet traced)"

    def runtime_stats(self) -> dict:
        stats = {
            "backend": self.active_backend,
            "runs": self.stats.runs,
            "graph_runs": self.stats.graph_runs,
            "retraces": self.stats.retraces,
            "trace_failures": self.stats.trace_failures,
        }
        if self.stats.precheck_errors:
            stats["precheck_errors"] = self.stats.precheck_errors
        if self.stats.plancheck_errors:
            stats["plancheck_errors"] = self.stats.plancheck_errors
        if self._plan is not None:
            stats["steps"] = len(self._plan.steps)
            stats["int_steps"] = self._plan.int_steps
            stats["pool_bytes"] = self._plan.pool.nbytes
        return stats
