"""Cross-process conformance: process-pool server vs direct engine replay.

The process pool's whole claim is that moving a replica into a worker
process — pickled module spec, re-traced plan, tensors through shared
memory, logits back through a ring — changes *nothing* about the bytes a
caller receives.  This suite locks that down for every registered model
spec × both integer-path variants × telemetry off/on:

- ``int``    — fused uint8 GEMM fast path (``int_path="auto"``),
- ``shift``  — pow2-snapped scales, requantize by arithmetic shift.

The reference is a *direct* in-process engine replay built from an
identical clone with identical config.  The shift variant snaps its
weight grids at trace time; snapping is deterministic, so two engines
snapped from clones of the same deployment must still agree bit-for-bit
— full ``np.array_equal``, no argmax weakening needed.  Cells the plan
compiler cannot serve (``GRAPH_CELLS``) degrade to the graph executor
inside the worker and must *still* match exactly.

Every case also proves the transport drains clean: no shared-memory
segment outlives the server's close.
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
from repro.obs import Telemetry
from repro.serve import ServeConfig
from repro.serve.shm import active_segment_names

BATCH_ROWS = 8
SIGNAL_BITS = 4

#: engine-config overrides per kernel variant (dtype pinned to float64 so
#: plans replay the policy the thread conformance suite uses).
VARIANTS = {
    "int": dict(int_path="auto"),
    "shift": dict(int_path="shift"),
}

#: (model, variant) cells whose engines serve from the graph executor,
#: which must still be bit-exact: ResNet's pow2 snap leaves requantize
#: scales off the grid (shift).
GRAPH_CELLS = {("resnet", "shift")}


@pytest.fixture(scope="module", params=available_models())
def deployment(request):
    """One deployed model spec plus request images (module-scoped: the
    deployment is immutable here — every consumer clones before tracing)."""
    name = request.param
    maker = (
        datasets.mnist_like
        if MODEL_DATASET[name] == "mnist-like"
        else datasets.cifar_like
    )
    train_set, _ = maker(train_size=16, test_size=4, seed=0)
    images = np.asarray(train_set.images[:BATCH_ROWS], dtype=np.float64)
    model = build_model(name, width_multiplier=0.25,
                        rng=np.random.default_rng(0))
    model.eval()
    deployed, _ = deploy_model(
        model,
        DeploymentConfig(signal_bits=SIGNAL_BITS, weight_bits=SIGNAL_BITS,
                         input_bits=8),
        images,
    )
    return name, deployed, images


@pytest.mark.parametrize("observed", [False, True],
                         ids=["telemetry-off", "telemetry-on"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_process_server_matches_direct_engine(deployment, variant, observed):
    name, deployed, images = deployment
    overrides = dict(VARIANTS[variant], dtype=np.float64)
    # The shift engine snaps its module's scales at trace time; every
    # engine here gets its own clone so the shared fixture stays pristine
    # and the worker/reference snappings start from identical bytes.
    reference_engine = make_inference_engine(
        copy.deepcopy(deployed), **overrides)
    reference = reference_engine.run(images)
    expected_backend = "graph" if (name, variant) in GRAPH_CELLS else variant
    assert reference_engine.active_backend == expected_backend

    baseline = set(active_segment_names())
    telemetry = Telemetry() if observed else None
    server = make_model_server(
        copy.deepcopy(deployed),
        ServeConfig(workers=1, batch_size=BATCH_ROWS, pool="process"),
        warmup_images=images[:2],
        telemetry=telemetry,
        **overrides,
    )
    try:
        served = server.submit(images, timeout=120.0)
        # Split submissions exercise the coalescing + scatter path.
        split = server.submit_many([images[:3], images[3:]], timeout=120.0)
    finally:
        server.close()
    assert np.array_equal(served, reference), (
        f"{name}/{variant}: process-served logits deviate from direct "
        f"engine replay with telemetry {'on' if observed else 'off'}"
    )
    assert np.array_equal(np.concatenate(split, axis=0), reference), (
        f"{name}/{variant}: scattered logits deviate from direct replay"
    )
    assert set(active_segment_names()) <= baseline, (
        f"{name}/{variant}: shared-memory segments leaked past close()"
    )
    if observed:
        names = telemetry.registry.names()
        assert any(n.startswith("serve_") for n in names)
        assert "serve_shm_bytes_in_flight" in names
        assert "serve_pool_processes" in names
