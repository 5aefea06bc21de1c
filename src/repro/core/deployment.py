"""Turn a trained float network into its quantized, deployable twin.

This is the software model of "deploying the DNN on the SNC": inter-layer
signals become M-bit fixed integers (every ReLU gains a quantizer — the
IFC + counter pair in hardware) and weights become N-bit fixed-point values
(the crossbar conductance states).  The original model is never mutated;
deployment clones it first.

Also implements the comparison baseline of Tables 4–5: Gysel et al.'s 8-bit
*dynamic* fixed point [23], where every layer carries its own calibrated
fractional length for both weights and activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from repro.core import quantizers as Q
from repro.core.modules import InputQuantizer, QuantizedActivation, calibrate_input_quantizer
from repro.core.surgery import clone_module, fold_batchnorm, replace_modules, weight_bearing_modules
from repro.core.weight_clustering import (
    ModelClusteringReport,
    apply_weight_clustering,
    naive_weight_quantization,
)
from repro.nn.modules import Module, ReLU
from repro.nn.tensor import Tensor, no_grad


@dataclass
class DeploymentConfig:
    """How to quantize a trained network for the SNC.

    Attributes
    ----------
    signal_bits:
        M — inter-layer signal width; ``None`` keeps signals in float
        (used by Table 3, which quantizes weights only).
    weight_bits:
        N — weight width; ``None`` keeps weights in float (used by
        Table 2, which quantizes signals only).
    weight_mode:
        ``"clustered"`` (the proposed Weight Clustering), ``"naive"``
        (fixed Eq. 6 grid, the "w/o" arm), ``"naive_range"`` (range-snapped
        grid without Lloyd iterations — ablation), or ``"none"``.
    clustering_scope:
        ``"per_layer"`` or ``"global"`` scale sharing for clustering.
    fold_bn:
        Fold batchnorm into convolutions before weight quantization
        (required for crossbar deployment; harmless otherwise).
    include_bias:
        Quantize biases onto the layer grid too.
    input_bits:
        If set, also quantize network *inputs* (full SNC deployment, where
        images enter as spike trains).  Requires calibration images.
    static_check:
        Gate deployment on the static verifier (:mod:`repro.check`):
        ``"error"`` (default) refuses to return a network with any
        error-severity diagnostic (:class:`DeploymentCheckError`);
        ``"warn"`` records the report but never refuses; ``"off"``
        skips the check entirely.
    signal_gain:
        IFC conversion gain, uniform across the whole network: spike count
        = ``round(gain · signal)``.  ``1.0`` (default) is the paper's
        literal scheme — appropriate for networks whose training let the
        activations grow to integer scale (LeNet/AlexNet here).  ``"auto"``
        calibrates one network-wide gain from calibration images so the
        largest observed signal uses the full window — necessary for
        batchnorm networks (ResNet), whose normalization pins activations
        to O(1) scale regardless of training.  Still a single hardware
        constant (the IFC threshold scale), so the paper's "uniform values
        in all layers" property is preserved.
    """

    signal_bits: Optional[int] = 4
    weight_bits: Optional[int] = 4
    weight_mode: str = "clustered"
    clustering_scope: str = "per_layer"
    fold_bn: bool = True
    include_bias: bool = True
    input_bits: Optional[int] = None
    signal_gain: Union[float, str] = 1.0
    static_check: str = "error"

    def __post_init__(self) -> None:
        valid = ("clustered", "naive", "naive_range", "none")
        if self.weight_mode not in valid:
            raise ValueError(f"weight_mode must be one of {valid}, got {self.weight_mode!r}")
        if self.static_check not in ("off", "warn", "error"):
            raise ValueError(
                f"static_check must be 'off', 'warn' or 'error', got {self.static_check!r}"
            )
        if isinstance(self.signal_gain, str):
            if self.signal_gain != "auto":
                raise ValueError(
                    f"signal_gain must be a positive float or 'auto', got {self.signal_gain!r}"
                )
        elif self.signal_gain <= 0:
            raise ValueError(f"signal_gain must be positive, got {self.signal_gain}")


@dataclass
class DeploymentInfo:
    """What happened during deployment (for reports and tests)."""

    quantized_activations: int = 0
    folded_batchnorms: int = 0
    clustering: Optional[ModelClusteringReport] = None
    dynamic_formats: Dict[str, Q.DynamicFixedPointFormat] = field(default_factory=dict)
    signal_gain: float = 1.0
    check_report: Optional[object] = None  # repro.check.CheckReport


class DeploymentCheckError(RuntimeError):
    """The static verifier refused the deployment; ``.report`` has why."""

    def __init__(self, report) -> None:
        super().__init__(
            "static check refused deployment:\n" + report.summary()
        )
        self.report = report


def calibrate_signal_gain(
    model: Module,
    calibration_images: np.ndarray,
    bits: int,
    percentile: float = 99.9,
) -> float:
    """Pick the single network-wide IFC gain from observed signal ranges.

    Runs one forward pass, taps every ReLU, and maps the ``percentile`` of
    all positive signal values (pooled across layers — the gain must be
    uniform) onto the top of the spike window ``2^M − 1``.  Values above
    the percentile saturate, trading a little clipping for resolution.
    """
    relus = [m for m in model.modules() if isinstance(m, ReLU)]
    if not relus:
        raise ValueError("model has no ReLU activations to calibrate against")
    captured = []

    def record(module, inputs, output) -> None:
        captured.append(output.data.ravel())

    removers = [module.register_forward_hook(record) for module in relus]
    try:
        with no_grad():
            model(Tensor(calibration_images))
    finally:
        for remover in removers:
            remover()
    values = np.concatenate(captured)
    positive = values[values > 0]
    if positive.size == 0:
        return 1.0
    top = float(np.percentile(positive, percentile))
    if top <= 0:
        return 1.0
    return (2 ** bits - 1) / top


def deploy_model(
    model: Module,
    config: DeploymentConfig,
    calibration_images: Optional[np.ndarray] = None,
) -> tuple:
    """Clone ``model`` and quantize it per ``config``.

    Returns ``(deployed_model, DeploymentInfo)``.  The deployed model is in
    eval mode.
    """
    deployed = clone_module(model)
    deployed.eval()
    info = DeploymentInfo()

    if config.fold_bn:
        info.folded_batchnorms = fold_batchnorm(deployed)

    if config.weight_bits is not None and config.weight_mode != "none":
        if config.weight_mode == "clustered":
            info.clustering = apply_weight_clustering(
                deployed,
                config.weight_bits,
                scope=config.clustering_scope,
                include_bias=config.include_bias,
            )
        elif config.weight_mode == "naive":
            info.clustering = naive_weight_quantization(
                deployed, config.weight_bits, include_bias=config.include_bias,
                scale_mode="fixed",
            )
        else:  # naive_range
            info.clustering = naive_weight_quantization(
                deployed, config.weight_bits, include_bias=config.include_bias,
                scale_mode="range",
            )

    if config.signal_bits is not None:
        bits = config.signal_bits
        gain = config.signal_gain
        if gain == "auto":
            if calibration_images is None:
                raise ValueError("signal_gain='auto' requires calibration_images")
            gain = calibrate_signal_gain(deployed, calibration_images, bits)
        info.signal_gain = float(gain)
        info.quantized_activations = replace_modules(
            deployed,
            predicate=lambda m: isinstance(m, ReLU),
            factory=lambda old: QuantizedActivation(old, bits, gain=float(gain)),
        )

    if config.input_bits is not None:
        if calibration_images is None:
            raise ValueError("input_bits requires calibration_images")
        quantizer = calibrate_input_quantizer(calibration_images, config.input_bits)
        deployed = _PrependInput(quantizer, deployed)

    if config.static_check != "off":
        # Lazy import: repro.check interprets the module types defined here.
        from repro.check import check_module

        input_shape = (
            tuple(calibration_images.shape[1:]) if calibration_images is not None else None
        )
        report = check_module(
            deployed, input_shape=input_shape,
            target=f"deploy:{type(model).__name__}",
        )
        info.check_report = report
        if config.static_check == "error" and report.has_errors:
            raise DeploymentCheckError(report)

    return deployed, info


def make_fallback_reference(software: Module) -> Module:
    """A frozen copy of the quantized software twin for fallback serving.

    The guard runtime (:mod:`repro.runtime.guard`) must be able to serve
    from the software model even while diagnosis/remediation mutate the
    deployed network, so it gets its own eval-mode clone with all forward
    hooks dropped — bit-exact with the original twin by construction.
    """
    twin = clone_module(software)
    twin.eval()
    return twin


def make_inference_engine(deployed: Module, telemetry=None, **config_overrides):
    """A compiled :class:`~repro.runtime.engine.InferenceEngine` for a
    deployed model — the serving front end for batch inference.

    On quantized deployments (``weight_mode="clustered"``/``"naive"`` with
    signal quantizers) the engine's integer fast path engages
    automatically; keyword overrides are forwarded to
    :class:`~repro.runtime.engine.EngineConfig` (e.g. ``dtype=np.float64``
    for bit-identical float plans, ``int_path="off"`` to force them).
    ``telemetry`` (a :class:`repro.obs.Telemetry`) turns on run spans,
    latency histograms, and registry-mirrored counters.
    """
    # Lazy import: repro.runtime depends on this module.
    from repro.runtime.engine import EngineConfig, InferenceEngine

    return InferenceEngine(deployed, EngineConfig(**config_overrides),
                           telemetry=telemetry)


def make_model_server(
    deployed: Module,
    serve_config=None,
    warmup_images: Optional[np.ndarray] = None,
    fallback=None,
    health_probe=None,
    telemetry=None,
    **engine_overrides,
):
    """A :class:`~repro.serve.server.ModelServer` over ``deployed`` — the
    serving front end for *concurrent* traffic.

    Each replica gets its own engine via :func:`make_inference_engine`
    (plans and buffer pools are per-replica); ``engine_overrides`` are
    forwarded to every replica's :class:`~repro.runtime.engine.
    EngineConfig`.  Pass ``warmup_images`` to trace all plans before the
    first request, and ``serve_config`` (a :class:`~repro.serve.server.
    ServeConfig`) to tune workers / batch size / queue bound.  See
    ``docs/serving.md`` for the architecture and tuning guide.
    ``telemetry`` (a :class:`repro.obs.Telemetry`) instruments
    the queue, batcher, replicas, and every replica engine.

    With ``serve_config.pool == "process"`` the replicas become worker
    *processes*: the deployed module is pickled into a
    :class:`~repro.serve.procpool.WorkerSpec` so every worker rebuilds
    and traces its own engine, and request tensors travel through
    shared memory instead of the GIL (see docs/serving.md, "Process
    pool").  Worker engines run untelemetered; the parent-side queue,
    batcher, and pool carry all serving metrics.
    """
    # Lazy import: repro.serve sits above this module.
    from repro.serve import ModelServer

    worker_spec = None
    if serve_config is not None and getattr(serve_config, "pool", "thread") == "process":
        from repro.serve.procpool import WorkerSpec

        worker_spec = WorkerSpec.for_module(
            deployed,
            batch_rows=serve_config.batch_size,
            **engine_overrides,
        )
    return ModelServer(
        engine_factory=lambda: make_inference_engine(
            deployed, telemetry=telemetry, **engine_overrides
        ),
        config=serve_config,
        fallback=fallback,
        health_probe=health_probe,
        warmup_images=warmup_images,
        telemetry=telemetry,
        worker_spec=worker_spec,
    )


class _PrependInput(Module):
    """Run an input quantizer before the wrapped network."""

    def __init__(self, input_quantizer: InputQuantizer, network: Module) -> None:
        super().__init__()
        self.input_quantizer = input_quantizer
        self.network = network

    def forward(self, x: Tensor) -> Tensor:
        return self.network(self.input_quantizer(x))


# ---------------------------------------------------------------------------
# Gysel et al. [23] — 8-bit dynamic fixed point baseline
# ---------------------------------------------------------------------------

class DynamicQuantizedActivation(Module):
    """ReLU followed by per-layer dynamic fixed point quantization."""

    def __init__(self, inner: Module, fmt: Q.DynamicFixedPointFormat) -> None:
        super().__init__()
        self.inner = inner
        self.fmt = fmt

    def forward(self, x: Tensor) -> Tensor:
        out = self.inner(x)
        quantized = Q.quantize_dynamic_fixed_point(out.data, self.fmt)

        def backward(grad) -> None:
            if out.requires_grad:
                inside = (out.data >= self.fmt.min_value) & (out.data <= self.fmt.max_value)
                out._accumulate(grad * inside)

        return Tensor._make(quantized, (out,), backward)

    def __repr__(self) -> str:
        return f"DynamicQuantizedActivation(bits={self.fmt.bits}, fl={self.fmt.fractional_bits})"


def deploy_dynamic_fixed_point(
    model: Module,
    calibration_images: np.ndarray,
    bits: int = 8,
    fold_bn: bool = True,
) -> tuple:
    """Deploy with Gysel-style 8-bit dynamic fixed point everywhere.

    Per layer: weights get a format fitted to their own range; activations
    get a format fitted to ranges observed on ``calibration_images``.  This
    is the "[23]" baseline row of Tables 4 and 5.
    """
    deployed = clone_module(model)
    deployed.eval()
    info = DeploymentInfo()
    if fold_bn:
        info.folded_batchnorms = fold_batchnorm(deployed)

    # Weights: per-layer fitted formats.
    for name, module in weight_bearing_modules(deployed):
        fmt = Q.fit_dynamic_fixed_point(module.weight.data, bits)
        module.weight.data[...] = Q.quantize_dynamic_fixed_point(module.weight.data, fmt)
        info.dynamic_formats[f"{name}.weight"] = fmt
        if module.bias is not None:
            bias_fmt = Q.fit_dynamic_fixed_point(module.bias.data, bits)
            module.bias.data[...] = Q.quantize_dynamic_fixed_point(module.bias.data, bias_fmt)
            info.dynamic_formats[f"{name}.bias"] = bias_fmt

    # Activations: calibrate ranges with one forward pass, then wrap.
    relus = [
        (name, module)
        for name, module in deployed.named_modules()
        if isinstance(module, ReLU)
    ]
    peaks: Dict[int, float] = {}

    def record_peak(module, inputs, output) -> None:
        peaks[id(module)] = max(peaks.get(id(module), 0.0), float(output.data.max()))

    removers = [module.register_forward_hook(record_peak) for _, module in relus]
    with no_grad():
        deployed(Tensor(calibration_images))
    for remover in removers:
        remover()

    formats = {
        id(module): Q.fit_dynamic_fixed_point(
            np.array([peaks.get(id(module), 1.0)]), bits
        )
        for _, module in relus
    }
    info.quantized_activations = replace_modules(
        deployed,
        predicate=lambda m: isinstance(m, ReLU),
        factory=lambda old: DynamicQuantizedActivation(old, formats[id(old)]),
    )
    for (name, module) in relus:
        info.dynamic_formats[f"{name}.act"] = formats[id(module)]
    return deployed, info
