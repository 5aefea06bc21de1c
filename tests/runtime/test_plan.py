"""Tests for execution-plan compilation (repro.runtime.plan)."""

import numpy as np
import pytest

from repro.core.deployment import DeploymentConfig, deploy_model
from repro.core.modules import InputQuantizer, QuantizedActivation
from repro.datasets.cifar_like import generate_cifar_like
from repro.datasets.mnist_like import generate_mnist_like
from repro.models import LeNet
from repro.models.resnet import ResNetCifar
from repro.nn import functional as F
from repro.nn import modules as nn
from repro.nn.tensor import Tensor, no_grad
from repro.runtime.engine import EngineConfig
from repro.runtime.plan import (
    BufferPool,
    GlobalAvgPoolStep,
    PlanError,
    _walk,
    compile_plan,
)


@pytest.fixture(scope="module")
def images():
    return generate_mnist_like(48, seed=0).images


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


@pytest.fixture(scope="module")
def rgb():
    return generate_cifar_like(24, seed=0).images


def _small_resnet(seed=0):
    """ResNet-CIFAR at width 0.125, one block per stage: identity joins
    in the first stage, projection joins after every stride-2 stage."""
    model = ResNetCifar(width_multiplier=0.125, blocks_per_stage=(2, 1, 1, 1),
                        rng=np.random.default_rng(seed))
    model.eval()
    return model


@pytest.fixture(scope="module")
def deployed_resnet(rgb):
    deployed, _ = deploy_model(
        _small_resnet(),
        DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8,
                         signal_gain="auto"),
        rgb[:16],
    )
    return deployed


class TestWalk:
    def test_walks_leaves_in_dataflow_order(self, deployed_lenet):
        items, leaves = _walk(deployed_lenet)
        names = [type(m).__name__ for m in items]
        assert names[0] == "InputQuantizer"
        assert "Conv2d" in names and "Linear" in names
        assert not any(isinstance(m, (nn.Identity, nn.Dropout)) for m in items)
        assert all(m in leaves for m in items)

    def test_residual_topology_compiles(self, deployed_resnet, rgb):
        plan = compile_plan(deployed_resnet, rgb[:2], EngineConfig())
        joins = [getattr(step, "join", None) for step in plan.steps]
        assert "identity" in joins and "projection" in joins
        np.testing.assert_array_equal(
            plan.run(np.asarray(rgb[:8], dtype=np.float64)),
            graph_logits(deployed_resnet, rgb[:8]))

    def test_rejects_opaque_module(self):
        class Opaque(nn.Module):
            def forward(self, x):
                return x

        with pytest.raises(PlanError):
            compile_plan(Opaque(), np.zeros((1, 4)), EngineConfig())


class TestResidualJoins:
    def test_identity_join_adds_block_input_counts(self, deployed_resnet, rgb):
        plan = compile_plan(deployed_resnet, rgb[:2], EngineConfig())
        step = next(s for s in plan.steps if getattr(s, "join", None) == "identity")
        # The join step reads the block input — a value held across the
        # body — as its second slot.
        assert len(step.inputs) == 2 and step.inputs[0] != step.inputs[1]
        got = plan.run(np.asarray(rgb[:12], dtype=np.float64))
        np.testing.assert_array_equal(got, graph_logits(deployed_resnet, rgb[:12]))

    def test_projection_join_consumes_unfloored_affine_sum(self, deployed_resnet, rgb):
        plan = compile_plan(deployed_resnet, rgb[:2], EngineConfig())
        joins = [s for s in plan.steps if getattr(s, "join", None) == "projection"]
        assert len(joins) == 3
        for step in joins:
            producer = next(s for s in plan.steps if s.output == step.inputs[1]
                            and s.index < step.index and getattr(s, "partial", None))
            assert producer.partial.gain == step.counts_rep.gain
            assert producer.out_dtype == np.float64
        assert plan.int_steps == sum(isinstance(m, nn.Conv2d) for m in
                                     _walk(deployed_resnet)[1]) - 1  # stem runs float
        got = plan.run(np.asarray(rgb[:16], dtype=np.float64))
        np.testing.assert_array_equal(got, graph_logits(deployed_resnet, rgb[:16]))

    def test_float_join_without_int_path(self, deployed_resnet, rgb):
        config = EngineConfig(dtype=np.float64, int_path="off")
        plan = compile_plan(deployed_resnet, rgb[:2], config)
        assert not plan.uses_int_path
        assert [s.kind for s in plan.steps].count("join") == 5
        got = plan.run(np.asarray(rgb[:8], dtype=np.float64))
        np.testing.assert_array_equal(got, graph_logits(deployed_resnet, rgb[:8]))

    def test_float_join_on_mismatched_gains(self, rgb):
        deployed, _ = deploy_model(
            _small_resnet(),
            DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8),
            rgb[:16],
        )
        # The first block's input is counted at the stem's gain; give the
        # block's output quantizer another gain, so its input counts are
        # no longer output counts and the join must run in float64 — as
        # must the second block's, whose input is now counted at that gain.
        block = deployed.network.stages[0]
        assert isinstance(block.relu2, QuantizedActivation)
        block.relu2.gain = 2.0 * float(block.relu2.gain)
        plan = compile_plan(deployed, rgb[:2], EngineConfig())
        assert [s.kind for s in plan.steps].count("join") == 2
        joins = [getattr(s, "join", None) for s in plan.steps]
        assert joins.count("identity") == 0 and joins.count("projection") == 3
        got = plan.run(np.asarray(rgb[:8], dtype=np.float64))
        np.testing.assert_array_equal(got, graph_logits(deployed, rgb[:8]))


class TestArena:
    def test_pool_holds_one_step_of_scratch_plus_outputs(self, deployed_resnet, rgb):
        plan = compile_plan(deployed_resnet, rgb[:2], EngineConfig())
        batch = np.asarray(np.concatenate([rgb] * 6), dtype=np.float64)
        # A run that outgrows the arena serves its scratch from temporaries
        # and regrows at its end; the second pass lays every view out.
        for _ in range(2):
            for rows in (8, 16, 32, 64, 128):
                plan.run(batch[:rows])
        records = plan.pool.records()
        groups: dict = {}
        for key, _, _, buf, scratch, rows in records:
            if scratch:
                group = (key[0] if isinstance(key, tuple) else key, rows)
                groups[group] = groups.get(group, 0) + buf.nbytes
        largest = max(groups.values())
        # One backing per owned key, sized for its largest view.
        owned: dict = {}
        for key, _, _, buf, scratch, _ in records:
            if not scratch:
                owned[key] = max(owned.get(key, 0), buf.nbytes)
        outputs = sum(owned.values())
        slack = BufferPool.ALIGN * len(records)
        assert plan.pool.nbytes <= largest + outputs + slack
        # Without sharing, every step's scratch would be resident at once.
        assert sum(groups.values()) > 4 * plan.pool.arena.nbytes

    def test_rows_below_the_largest_run_allocate_nothing(self, deployed_resnet, rgb):
        plan = compile_plan(deployed_resnet, rgb[:2], EngineConfig())
        batch = np.asarray(np.concatenate([rgb] * 6)[:128], dtype=np.float64)
        plan.run(batch)  # sizes the arena and every owned backing
        nbytes = plan.pool.nbytes
        for rows in range(1, 128):
            plan.run(batch[:rows])
            assert plan.pool.nbytes == nbytes, f"pool grew at {rows} rows"

    def test_arena_views_keep_identity_across_runs(self, deployed_resnet, rgb):
        plan = compile_plan(deployed_resnet, rgb[:2], EngineConfig())
        batch = np.asarray(rgb[:8], dtype=np.float64)
        plan.run(batch)  # outgrows the trace-sized arena: regrows at its end
        plan.run(batch)
        arena = plan.pool.arena
        before = {id(buf) for *_, buf, _, _ in plan.pool.records()}
        plan.run(batch)
        assert plan.pool.arena is arena
        assert {id(buf) for *_, buf, _, _ in plan.pool.records()} == before

    def test_growth_rebuilds_views_without_changing_results(self, deployed_resnet, rgb):
        plan = compile_plan(deployed_resnet, rgb[:2], EngineConfig())
        small = np.asarray(rgb[:4], dtype=np.float64)
        first = plan.run(small).copy()
        size = plan.pool.arena.nbytes
        plan.run(np.asarray(rgb, dtype=np.float64))
        assert plan.pool.arena.nbytes > size
        np.testing.assert_array_equal(plan.run(small), first)


class TestCompile:
    def test_int_plan_structure(self, deployed_lenet, images):
        plan = compile_plan(deployed_lenet, images[:2], EngineConfig())
        kinds = [step.kind for step in plan.steps]
        # Input quantizer emits counts; convs/hidden linear run as fused
        # integer GEMMs; the unquantized classifier tail runs float after
        # an explicit dequantize.
        assert kinds[0] == "input-quant-int"
        assert kinds.count("conv2d-int") == 2
        assert kinds.count("linear-int") == 1
        assert kinds[-2:] == ["dequant", "linear"]
        assert plan.uses_int_path and plan.int_steps == 3
        assert plan.dtype == np.float64

    def test_int_plan_carries_small_dtypes(self, deployed_lenet, images):
        plan = compile_plan(deployed_lenet, images[:2], EngineConfig())
        x = np.asarray(images[:2], dtype=np.float64)
        seen = []
        for step in plan.steps:
            x = step.run(x, plan.pool)
            seen.append(x.dtype)
        # Counts travel as uint8 between quantized layers.
        assert np.dtype(np.uint8) in seen
        assert seen[-1] == np.dtype(np.float64)

    def test_int_plan_bit_identical_to_graph(self, deployed_lenet, images):
        plan = compile_plan(deployed_lenet, images[:2], EngineConfig())
        got = plan.run(np.asarray(images[:16], dtype=np.float64))
        np.testing.assert_array_equal(got, graph_logits(deployed_lenet, images[:16]))

    def test_float64_plan_bit_identical_to_graph(self, deployed_lenet, images):
        config = EngineConfig(dtype=np.float64, int_path="off")
        plan = compile_plan(deployed_lenet, images[:2], config)
        assert not plan.uses_int_path
        got = plan.run(np.asarray(images[:16], dtype=np.float64))
        np.testing.assert_array_equal(got, graph_logits(deployed_lenet, images[:16]))

    def test_float32_plan_close_to_graph(self, deployed_lenet, images):
        config = EngineConfig(dtype=np.float32, int_path="off")
        plan = compile_plan(deployed_lenet, images[:2], config)
        assert plan.dtype == np.float32
        got = plan.run(np.asarray(images[:16], dtype=np.float64))
        ref = graph_logits(deployed_lenet, images[:16])
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-4)

    def test_unquantized_model_compiles_to_float_plan(self, images):
        model = LeNet(rng=np.random.default_rng(1))
        model.eval()
        plan = compile_plan(model, images[:2], EngineConfig(dtype=np.float64))
        assert not plan.uses_int_path
        got = plan.run(np.asarray(images[:8], dtype=np.float64))
        np.testing.assert_array_equal(got, graph_logits(model, images[:8]))

    def test_training_mode_dropout_rejected(self, images):
        model = nn.Sequential(
            nn.Flatten(), nn.Dropout(0.5), nn.Linear(784, 10, rng=np.random.default_rng(0))
        )
        model.train()
        with pytest.raises(PlanError):
            compile_plan(model, images[:2], EngineConfig())

    def test_buffer_pool_stops_allocating(self, deployed_lenet, images):
        plan = compile_plan(deployed_lenet, images[:2], EngineConfig())
        batch = np.asarray(images[:8], dtype=np.float64)
        plan.run(batch)
        buffers_after_first = len(plan.pool)
        for _ in range(3):
            plan.run(batch)
        assert len(plan.pool) == buffers_after_first


class TestStaleness:
    def test_fresh_plan_not_stale(self, deployed_lenet, images):
        plan = compile_plan(deployed_lenet, images[:2], EngineConfig())
        assert not plan.is_stale()

    def test_weight_mutation_stales(self, images):
        model = LeNet(rng=np.random.default_rng(2))
        model.eval()
        plan = compile_plan(model, images[:2], EngineConfig(dtype=np.float64))
        model.conv1.weight.data[0, 0, 0, 0] += 1.0
        assert plan.is_stale()

    def test_quantizer_toggle_stales(self, deployed_lenet, images):
        plan = compile_plan(deployed_lenet, images[:2], EngineConfig())
        quantizer = deployed_lenet.network.relu1  # QuantizedActivation after deploy
        quantizer.enabled = False
        try:
            assert plan.is_stale()
        finally:
            quantizer.enabled = True


def test_buffer_pool_reuses_by_key_shape_dtype():
    pool = BufferPool()
    a = pool.get("k", (4, 4), np.float64)
    assert pool.get("k", (4, 4), np.float64) is a
    assert pool.get("k", (4, 4), np.float32) is not a
    assert pool.get("k", (4, 5), np.float64) is not a
    assert pool.nbytes > 0


def test_global_avg_pool_step_is_layout_independent():
    rng = np.random.default_rng(0)
    # Channel-last strides, as a batch-last activation restored to NCHW.
    strided = rng.normal(size=(3, 4, 4, 16)).transpose(0, 3, 1, 2)
    contiguous = np.ascontiguousarray(strided)
    step = GlobalAvgPoolStep(0, np.float64)
    for x in (contiguous, strided):
        with no_grad():
            reference = F.global_avg_pool2d(Tensor(x)).data
        got = step.run(x, BufferPool()).copy()
        assert got.tobytes() == reference.tobytes()
    with no_grad():
        a = F.global_avg_pool2d(Tensor(strided)).data
        b = F.global_avg_pool2d(Tensor(contiguous)).data
    assert a.tobytes() == b.tobytes()


def test_input_quantizer_alone_compiles():
    plan = compile_plan(InputQuantizer(8, offset=0.0, gain=255.0),
                        np.zeros((1, 4)), EngineConfig(dtype=np.float64))
    assert [s.kind for s in plan.steps] == ["input-quant"]
