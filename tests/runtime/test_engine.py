"""Tests for the compiled inference engine (repro.runtime.engine)."""

import numpy as np
import pytest

from repro.core.deployment import (
    DeploymentConfig,
    deploy_dynamic_fixed_point,
    deploy_model,
    make_inference_engine,
)
from repro.datasets.mnist_like import generate_mnist_like
from repro.models import LeNet
from repro.models.alexnet import AlexNetCifar
from repro.nn.tensor import Tensor, no_grad
from repro.runtime.engine import EngineConfig, InferenceEngine
from repro.snc.faults import inject_faults_into_network
from repro.snc.system import SpikingSystemConfig, build_spiking_system


@pytest.fixture(scope="module")
def images():
    return generate_mnist_like(80, seed=0).images


@pytest.fixture(scope="module")
def deployed_lenet(images):
    model = LeNet(rng=np.random.default_rng(0))
    model.eval()
    deployed, _ = deploy_model(
        model,
        DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8),
        images[:32],
    )
    return deployed


def graph_logits(module, batch):
    with no_grad():
        return module(Tensor(batch)).data


class TestIntegerFastPath:
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 128])
    def test_lenet_bit_exact_across_batch_sizes(self, deployed_lenet, images, batch_size):
        engine = InferenceEngine(deployed_lenet)
        # 128 rows fill one whole batch tile of the fused conv kernel.
        extra = generate_mnist_like(48, seed=1).images
        batch = np.concatenate([images, extra])[:batch_size]
        out = engine.run(batch)
        assert engine.active_backend == "int"
        np.testing.assert_array_equal(out, graph_logits(deployed_lenet, batch))

    def test_alexnet_style_bit_exact(self, images):
        model = AlexNetCifar(width_multiplier=0.25, rng=np.random.default_rng(1))
        model.eval()
        rgb = np.random.default_rng(1).normal(size=(48, 3, 32, 32)) * 0.3
        deployed, _ = deploy_model(
            model,
            DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8),
            rgb[:32],
        )
        engine = InferenceEngine(deployed)
        out = engine.run(rgb[:12])
        assert engine.active_backend == "int"
        np.testing.assert_array_equal(out, graph_logits(deployed, rgb[:12]))

    def test_int_path_off_forces_float_plan(self, deployed_lenet, images):
        engine = InferenceEngine(
            deployed_lenet, EngineConfig(dtype=np.float64, int_path="off")
        )
        out = engine.run(images[:8])
        assert engine.active_backend == "float64"
        np.testing.assert_array_equal(out, graph_logits(deployed_lenet, images[:8]))


class TestFloatBackend:
    def test_float32_accuracy_matches_float64(self, deployed_lenet, images):
        fast = InferenceEngine(
            deployed_lenet, EngineConfig(dtype=np.float32, int_path="off")
        )
        exact = InferenceEngine(
            deployed_lenet, EngineConfig(dtype=np.float64, int_path="off")
        )
        batch = images[:48]
        out32 = fast.run(batch)
        out64 = exact.run(batch)
        assert fast.active_backend == "float32"
        np.testing.assert_allclose(out32, out64, rtol=1e-4, atol=1e-4)
        assert (out32.argmax(axis=1) == out64.argmax(axis=1)).mean() > 0.95

    def test_dynamic_fixed_point_deployment(self, images):
        model = LeNet(rng=np.random.default_rng(2))
        model.eval()
        deployed, _ = deploy_dynamic_fixed_point(model, images[:32], bits=8)
        engine = InferenceEngine(deployed, EngineConfig(dtype=np.float64))
        out = engine.run(images[:8])
        np.testing.assert_array_equal(out, graph_logits(deployed, images[:8]))


class TestLifecycle:
    def test_retrace_on_weight_mutation(self, images):
        model = LeNet(rng=np.random.default_rng(3))
        model.eval()
        engine = InferenceEngine(model, EngineConfig(dtype=np.float64))
        engine.run(images[:4])
        model.fc2.weight.data *= 1.5
        out = engine.run(images[:4])
        assert engine.stats.retraces == 1
        np.testing.assert_array_equal(out, graph_logits(model, images[:4]))

    def test_invalidate_drops_plan(self, images):
        model = LeNet(rng=np.random.default_rng(4))
        model.eval()
        engine = InferenceEngine(model, EngineConfig(dtype=np.float64))
        engine.run(images[:4])
        assert engine.plan is not None
        engine.invalidate()
        assert engine.plan is None
        engine.run(images[:4])
        assert engine.plan is not None

    def test_batched_streaming_matches_single_run(self, deployed_lenet, images):
        engine = InferenceEngine(deployed_lenet)
        streamed = engine.infer_batched(images[:50], batch_size=16)
        np.testing.assert_array_equal(streamed, engine.run(images[:50]))

    def test_predict(self, deployed_lenet, images):
        engine = InferenceEngine(deployed_lenet)
        preds = engine.predict(images[:8])
        assert preds.shape == (8,)
        np.testing.assert_array_equal(
            preds, graph_logits(deployed_lenet, images[:8]).argmax(axis=1)
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(int_path="maybe")
        with pytest.raises(ValueError):
            EngineConfig(trace_batch=0)
        with pytest.raises(ValueError):
            EngineConfig(batch_size=0)

    def test_runtime_stats_keys(self, deployed_lenet, images):
        engine = InferenceEngine(deployed_lenet)
        engine.run(images[:4])
        stats = engine.runtime_stats()
        assert stats["backend"] == "int"
        assert stats["runs"] == 1
        assert stats["steps"] > 0 and stats["int_steps"] == 3
        assert stats["pool_bytes"] > 0


class TestHardwareIntegration:
    @pytest.fixture(scope="class")
    def system(self, images):
        model = LeNet(rng=np.random.default_rng(5))
        config = SpikingSystemConfig(signal_bits=4, weight_bits=4, input_bits=8)
        return build_spiking_system(model, config, images[:40])

    def test_spiking_plan_bit_identical(self, system, images):
        engine = system.engine()
        out = engine.run(images[:12])
        assert engine.active_backend == "float64"
        with no_grad():
            ref = system.network(Tensor(images[:12])).data
        np.testing.assert_array_equal(out, ref)

    def test_fault_injection_needs_no_retrace(self, system, images):
        engine = system.engine()
        engine.run(images[:8])
        retraces_before = engine.stats.retraces
        inject_faults_into_network(system.network, 0.05, seed=7)
        out = engine.run(images[:8])
        # Crossbar steps read the live arrays: same plan, new conductances.
        assert engine.stats.retraces == retraces_before
        with no_grad():
            ref = system.network(Tensor(images[:8])).data
        np.testing.assert_array_equal(out, ref)

    def test_verify_equivalence_through_engines(self, images):
        model = LeNet(rng=np.random.default_rng(6))
        config = SpikingSystemConfig(signal_bits=4, weight_bits=4, input_bits=8)
        system = build_spiking_system(model, config, images[:40])
        assert system.verify_equivalence(images[:10])

    def test_guard_fallback_serves_from_twin_engine(self, images):
        model = LeNet(rng=np.random.default_rng(7))
        config = SpikingSystemConfig(signal_bits=4, weight_bits=4, input_bits=8)
        system = build_spiking_system(model, config, images[:40])
        guard = system.guarded()
        guard.counters.fallback_engaged = True
        out = guard.infer(images[:8])
        np.testing.assert_array_equal(out, graph_logits(guard.software_twin, images[:8]))
        assert guard.runtime_stats()["twin_engine"]["runs"] == 1


def test_make_inference_engine_helper(deployed_lenet, images):
    engine = make_inference_engine(deployed_lenet, dtype=np.float64)
    out = engine.run(images[:6])
    assert engine.active_backend == "int"
    np.testing.assert_array_equal(out, graph_logits(deployed_lenet, images[:6]))
