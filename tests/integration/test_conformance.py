"""Differential conformance: graph vs engine vs server, telemetry off/on.

The observability layer's contract is that instrumentation is *inert on
outputs*: enabling telemetry may record anything it likes, but the
logits a caller receives must be bit-for-bit the ones an uninstrumented
run produces.  This suite locks that down for every registered model
spec, across all three serving paths:

1. the autograd **graph executor** (reference semantics),
2. ``InferenceEngine.run`` (compiled plan replay, float64 policy),
3. ``ModelServer`` (admission → micro-batching → replica pool).

Each path is exercised with telemetry off AND on, and the engine is
exercised in all three plan variants: ``float64`` (integer fast path
off), ``int`` (fused uint8 GEMM with multiply requantize), and ``shift``
(scales snapped to the pow2 grid, requantize by arithmetic right shift).
The float and int variants must reproduce the graph executor's logits
bit-for-bit (``np.array_equal`` — no tolerances).  The shift variant
computes a *different* network — snapping perturbs the weight grids — so
its reference is the graph executor of the snapped module, and the
guarantee is exact argmax agreement plus replay determinism (the shifted
requantize can land on the other side of a float64 floor boundary for a
handful of activations; see ``docs/performance.md``).  Models are built
at a reduced width multiplier so the full matrix stays fast; the
arithmetic paths exercised are identical to full-width deployments.
"""

import copy

import numpy as np
import pytest

from repro import datasets
from repro.core.deployment import (
    DeploymentConfig,
    deploy_model,
    make_inference_engine,
    make_model_server,
)
from repro.models.registry import MODEL_DATASET, available_models, build_model
from repro.nn.tensor import Tensor, no_grad
from repro.obs import Telemetry
from repro.serve import ServeConfig

BATCH_ROWS = 8
SIGNAL_BITS = 4

#: (model, variant) cells the engine serves from the graph executor, by
#: its never-refuse-to-serve contract: ResNet's pow2 snap leaves requantize
#: scales off the grid (the precheck's QS220), so shift mode cannot compile.
#: The graph must still match the reference exactly.
GRAPH_CELLS = {("resnet", "shift")}


@pytest.fixture(scope="module", params=available_models())
def deployment(request):
    """One deployed model spec + its reference (graph-executor) logits."""
    name = request.param
    maker = (
        datasets.mnist_like
        if MODEL_DATASET[name] == "mnist-like"
        else datasets.cifar_like
    )
    train_set, _ = maker(train_size=16, test_size=4, seed=0)
    images = np.asarray(train_set.images[:BATCH_ROWS], dtype=np.float64)
    model = build_model(name, width_multiplier=0.25, rng=np.random.default_rng(0))
    model.eval()
    deployed, _ = deploy_model(
        model,
        DeploymentConfig(signal_bits=SIGNAL_BITS, weight_bits=SIGNAL_BITS,
                         input_bits=8),
        images,
    )
    with no_grad():
        reference = deployed(Tensor(images)).data
    return name, deployed, images, reference


def _telemetry(enabled: bool):
    return Telemetry() if enabled else None


@pytest.mark.parametrize("observed", [False, True], ids=["telemetry-off", "telemetry-on"])
class TestConformance:
    @pytest.mark.parametrize("variant", ["float64", "int", "shift"])
    def test_engine_matches_graph(self, deployment, observed, variant):
        name, deployed, images, reference = deployment
        telemetry = _telemetry(observed)
        if variant == "shift":
            # Snapping mutates weight scales in place; keep the shared
            # module-scoped deployment pristine for the other variants.
            deployed = copy.deepcopy(deployed)
        engine = make_inference_engine(
            deployed, telemetry=telemetry, dtype=np.float64,
            int_path={"float64": "off", "int": "auto", "shift": "shift"}[variant],
        )
        logits = engine.run(images)
        expected_backend = "graph" if (name, variant) in GRAPH_CELLS else variant
        assert engine.active_backend == expected_backend, (
            f"{name}: expected the {expected_backend} backend, engine "
            f"reports {engine.active_backend}"
        )
        if variant == "shift":
            # The engine snapped its module; the snapped graph is the
            # reference, and the contract is argmax-exactness.
            with no_grad():
                reference = deployed(Tensor(images)).data
            assert np.array_equal(
                np.argmax(logits, axis=1), np.argmax(reference, axis=1)
            ), (
                f"{name}: shift engine changes predictions vs the snapped "
                f"graph with telemetry {'on' if observed else 'off'}"
            )
        else:
            assert np.array_equal(logits, reference), (
                f"{name}: engine ({engine.active_backend}) deviates from the "
                f"graph executor with telemetry {'on' if observed else 'off'}"
            )
        # Replays must be deterministic, instrumented or not.
        assert np.array_equal(engine.run(images), logits)
        if observed:
            names = telemetry.registry.names()
            assert any(n.startswith("engine_") for n in names)

    def test_server_matches_graph(self, deployment, observed):
        name, deployed, images, reference = deployment
        telemetry = _telemetry(observed)
        server = make_model_server(
            deployed,
            ServeConfig(workers=2, batch_size=BATCH_ROWS),
            warmup_images=images[:2],
            telemetry=telemetry,
            dtype=np.float64,
        )
        try:
            served = server.submit(images)
            # Split submissions take the coalescing + scatter path.
            split = server.submit_many([images[:3], images[3:]])
        finally:
            server.close()
        assert np.array_equal(served, reference), (
            f"{name}: served logits deviate from the graph executor with "
            f"telemetry {'on' if observed else 'off'}"
        )
        assert np.array_equal(np.concatenate(split, axis=0), reference)
        if observed:
            names = telemetry.registry.names()
            assert any(n.startswith("serve_") for n in names)
            assert any(n.startswith("engine_") for n in names)


def test_instrumented_outputs_equal_uninstrumented(deployment):
    """The two telemetry modes are compared directly, not just via the graph."""
    _, deployed, images, _ = deployment
    plain = make_inference_engine(deployed, dtype=np.float64).run(images)
    observed = make_inference_engine(
        deployed, telemetry=Telemetry(), dtype=np.float64
    ).run(images)
    assert np.array_equal(plain, observed)
