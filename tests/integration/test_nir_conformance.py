"""Differential conformance for the NIR interchange round-trip.

``tests/snc/test_nir.py`` proves the graph executor of a re-imported
model matches the original; this suite raises the bar to the serving
paths.  For every registered model spec, the model is exported to the
NIR archive, re-imported, and then run through the compiled
:class:`InferenceEngine` and the :class:`ModelServer` — each with
telemetry off AND on — and every path must reproduce the *original*
deployment's graph-executor logits bit for bit (``np.array_equal``, no
tolerances).  That is the interchange contract: an archive is a complete
substitute for the deployment it came from, not an approximation of it.
"""

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
from repro.snc.nir import export_nir, import_nir, to_nir, validate_nir

BATCH_ROWS = 8
SIGNAL_BITS = 4


@pytest.fixture(scope="module", params=available_models())
def roundtrip(request, tmp_path_factory):
    """(name, images, reference logits, re-imported module) per model spec."""
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
                         input_bits=8, signal_gain="auto"),
        images,
    )
    with no_grad():
        reference = deployed(Tensor(images)).data
    path = str(tmp_path_factory.mktemp("nir") / f"{name}.nir.npz")
    graph = export_nir(deployed, path, model=name)
    assert validate_nir(graph).ok
    return name, images, reference, import_nir(path)


def _telemetry(enabled: bool):
    return Telemetry() if enabled else None


@pytest.mark.parametrize("observed", [False, True],
                         ids=["telemetry-off", "telemetry-on"])
class TestNIRConformance:
    def test_reimported_engine_matches_original(self, roundtrip, observed):
        name, images, reference, rebuilt = roundtrip
        telemetry = _telemetry(observed)
        engine = make_inference_engine(
            rebuilt, telemetry=telemetry, dtype=np.float64
        )
        logits = engine.run(images)
        assert np.array_equal(logits, reference), (
            f"{name}: engine over the re-imported model deviates from the "
            f"original deployment with telemetry {'on' if observed else 'off'}"
        )
        assert np.array_equal(engine.run(images), logits)
        if observed:
            assert any(
                n.startswith("engine_") for n in telemetry.registry.names()
            )

    def test_reimported_server_matches_original(self, roundtrip, observed):
        name, images, reference, rebuilt = roundtrip
        telemetry = _telemetry(observed)
        server = make_model_server(
            rebuilt,
            ServeConfig(workers=2, batch_size=BATCH_ROWS),
            warmup_images=images[:2],
            telemetry=telemetry,
            dtype=np.float64,
        )
        try:
            served = server.submit(images)
        finally:
            server.close()
        assert np.array_equal(served, reference), (
            f"{name}: served logits over the re-imported model deviate from "
            f"the original with telemetry {'on' if observed else 'off'}"
        )


def test_reexport_of_reimport_is_identical(roundtrip):
    """Second-generation archives carry exactly the same graph + arrays."""
    name, _, _, rebuilt = roundtrip
    second = to_nir(rebuilt, model=name)
    original = to_nir(rebuilt, model=name)
    assert second.meta() == original.meta()
    for key in original.arrays:
        np.testing.assert_array_equal(second.arrays[key], original.arrays[key])
