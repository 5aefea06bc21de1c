"""Tests for the static plan verifier (repro.check.plancheck).

Covers the clean pass on real traced plans (all three integer variants),
one seeded defect per PL6xx rule — each must be rejected with *that*
rule id — the soundness of the PL601 accumulator bound against concrete
worst-case data, and the engine's refuse-or-fallback post-trace gate.
"""

import numpy as np
import pytest

from repro.check import CheckReport, PlanCheckConfig, accumulator_bound, check_plan
from repro.core.deployment import DeploymentConfig, deploy_model
from repro.datasets.cifar_like import generate_cifar_like
from repro.datasets.mnist_like import generate_mnist_like
from repro.models import LeNet
from repro.models.resnet import ResNetCifar
from repro.runtime.engine import EngineConfig, InferenceEngine
from repro.runtime.plan import CountsRep

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


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


@pytest.fixture(scope="module")
def resnet_case():
    rgb = generate_cifar_like(16, seed=0).images
    model = ResNetCifar(width_multiplier=0.125, blocks_per_stage=(2, 1, 1, 1),
                        rng=np.random.default_rng(0))
    model.eval()
    deployed, _ = deploy_model(
        model,
        DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8,
                         signal_gain="auto"),
        rgb,
    )
    return deployed, rgb


def _join_steps(plan, kind):
    return [step for step in plan.steps if getattr(step, "join", None) == kind]


def _producer(plan, step):
    """The step that last wrote the join's shortcut slot before it."""
    return [s for s in plan.steps[: step.index] if s.output == step.inputs[1]][-1]


def _traced_engine(deployed, images, **overrides):
    """An engine with a freshly traced plan (plan gate off: tests seed
    defects into the plan afterwards and run the verifier directly)."""
    engine = InferenceEngine(deployed, EngineConfig(plan_check=False, **overrides))
    # The first run outgrows the trace-sized scratch arena and regrows it
    # at its end; the second replays from the arena, as serving does.
    engine.run(images[:8])
    engine.run(images[:8])
    assert engine.plan is not None
    return engine


def _int_conv_steps(plan):
    return [step for step in plan.steps if hasattr(step, "codes_t")
            and step.kind == "conv2d-int"]


class TestCleanPlans:
    @pytest.mark.parametrize("overrides", [
        {"int_path": "auto"},
        {"int_path": "shift"},
    ], ids=["int", "shift"])
    def test_traced_lenet_plan_verifies(self, deployed_lenet, images, overrides):
        engine = _traced_engine(deployed_lenet, images, **overrides)
        report = check_plan(engine.plan)
        assert report.ok and len(report) == 0, report.summary()

    def test_float_plan_verifies(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images,
                                int_path="off", dtype=np.float64)
        report = check_plan(engine.plan)
        assert report.ok and len(report) == 0, report.summary()

    def test_suppression_config(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images)
        step = _int_conv_steps(engine.plan)[0]
        step.codes_t = step.codes_t * 4096.0
        report = check_plan(engine.plan, config=PlanCheckConfig(suppress=("PL601",)))
        assert report.by_rule("PL601") == []


class TestSeededDefects:
    def test_oversized_codes_fire_pl601(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images)
        step = _int_conv_steps(engine.plan)[0]
        # Inflate the codebook until the worst-case accumulator no longer
        # fits the float32 carrier's exact-integer window.
        step.codes_t = step.codes_t * 4096.0
        report = check_plan(engine.plan)
        assert report.has_errors
        assert report.by_rule("PL601"), report.summary()

    def test_aliasing_copy_program_fires_pl602(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images)
        step = next(s for s in _int_conv_steps(engine.plan) if s._programs)
        rows, (sbuf, cols, tcols, blocks) = next(iter(step._programs.items()))
        s0, s1, cbuf, pairs = blocks[0]
        dst, _src = pairs[0]
        corrupt = [(s0, s1, cbuf, [(dst, dst)])] + list(blocks[1:])
        step._programs[rows] = (sbuf, cols, tcols, corrupt)
        report = check_plan(engine.plan)
        assert report.by_rule("PL602"), report.summary()

    def test_shared_pooled_buffer_fires_pl602(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images)
        plan = engine.plan
        convs = _int_conv_steps(plan)
        assert len(convs) >= 2
        donor, thief = convs[0], convs[1]
        buf = next(b for (key, shape, dtype, b, *_) in plan.pool.records()
                   if key == (donor.index, "src"))
        plan.pool._buffers[((thief.index, "src"), buf.shape, buf.dtype)] = buf
        report = check_plan(plan)
        assert report.by_rule("PL602"), report.summary()

    def test_output_aliasing_arena_fires_pl602(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images)
        plan = engine.plan
        step = _int_conv_steps(plan)[0]
        pool = plan.pool
        full_key = next(k for k in pool._buffers if k[0] == (step.index, "out"))
        _, shape, dtype = full_key
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        # The step's output, moved onto the scratch arena: the next step's
        # scratch would overwrite it before its consumer reads it.
        pool._buffers[full_key] = pool.arena[:nbytes].view(dtype).reshape(shape)
        report = check_plan(plan)
        assert report.by_rule("PL602"), report.summary()
        assert any("scratch arena" in d.message for d in report.by_rule("PL602"))

    def test_clean_plan_shares_the_arena_across_steps(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images)
        ir = engine.plan.summarize()
        owners = {buf.owner for buf in ir.buffers if buf.base == ir.arena}
        assert len(owners) > 1
        assert all(buf.scratch for buf in ir.buffers if buf.base == ir.arena)
        assert check_plan(engine.plan).ok

    def test_clean_plan_views_one_output_at_several_row_counts(self, deployed_lenet,
                                                                images):
        engine = _traced_engine(deployed_lenet, images)
        for rows in (1, 3, 2):
            engine.run(images[:rows])
        ir = engine.plan.summarize()
        # Each owned workspace hands out prefix views of one backing, one
        # per row count; they share bytes by design and must verify clean.
        shapes: dict = {}
        for buf in ir.buffers:
            if not buf.scratch:
                shapes.setdefault((buf.owner, buf.tag, buf.base), set()).add(buf.shape)
        assert any(len(seen) >= 3 for seen in shapes.values())
        assert check_plan(engine.plan).ok

    def test_two_owned_keys_sharing_bytes_fire_pl602(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images)
        plan = engine.plan
        pool = plan.pool
        first, second = _int_conv_steps(plan)[:2]
        donor = next(k for k in pool._buffers if k[0] == (first.index, "out"))
        thief = next(k for k in pool._buffers if k[0] == (second.index, "out"))
        _, shape, dtype = thief
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        # The second conv's output placed on the first conv's backing: the
        # second would overwrite its own input while reading it.
        backing = pool._backings[donor[0]]
        pool._buffers[thief] = backing[:nbytes].view(dtype).reshape(shape)
        report = check_plan(plan)
        assert any("multiple workspaces" in d.message
                   for d in report.by_rule("PL602")), report.summary()

    def test_undeclared_scratch_view_fires_pl605(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images)
        step = _int_conv_steps(engine.plan)[0]
        # "src" stays a declared workspace but is no longer declared dead
        # once the step returns, so its arena view is an unclaimed share.
        step.scratch = step.scratch - {"src"}
        report = check_plan(engine.plan)
        assert report.by_rule("PL605"), report.summary()

    def test_dtype_lie_fires_pl603(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images)
        step = _int_conv_steps(engine.plan)[0]
        # Claim float64 workspaces while the pooled buffers stay float32.
        step.carrier = np.dtype(np.float64)
        report = check_plan(engine.plan)
        assert report.by_rule("PL603"), report.summary()

    def test_off_grid_scale_fires_pl604(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images, int_path="shift")
        step = _int_conv_steps(engine.plan)[0]
        step.q_scale = step.q_scale * 1.5
        report = check_plan(engine.plan)
        assert report.by_rule("PL604"), report.summary()

    def test_rogue_pool_entry_fires_pl605(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images)
        plan = engine.plan
        plan.pool._buffers[((99, "rogue"), (4,), np.dtype(np.float64))] = (
            np.empty(4)
        )
        report = check_plan(plan)
        assert report.by_rule("PL605"), report.summary()

    def test_undeclared_workspace_tag_fires_pl605(self, deployed_lenet, images):
        engine = _traced_engine(deployed_lenet, images)
        plan = engine.plan
        step = _int_conv_steps(plan)[0]
        plan.pool._buffers[((step.index, "bogus"), (4,), np.dtype(np.float32))] = (
            np.empty(4, dtype=np.float32)
        )
        report = check_plan(plan)
        assert report.by_rule("PL605"), report.summary()


class TestResidualPlans:
    def test_traced_resnet_plan_verifies(self, resnet_case):
        engine = _traced_engine(*resnet_case)
        assert _join_steps(engine.plan, "identity")
        assert _join_steps(engine.plan, "projection")
        report = check_plan(engine.plan)
        assert report.ok and len(report) == 0, report.summary()

    def test_join_layout_mismatch_fires_pl603(self, resnet_case):
        engine = _traced_engine(*resnet_case)
        step = _join_steps(engine.plan, "identity")[-1]
        step.skip_layout = "batch"  # claims a batch-major shortcut
        report = check_plan(engine.plan)
        assert any("layouts" in d.message for d in report.by_rule("PL603")), \
            report.summary()

    def test_join_counts_window_mismatch_fires_pl603(self, resnet_case):
        engine = _traced_engine(*resnet_case)
        step = _join_steps(engine.plan, "projection")[0]
        producer = _producer(engine.plan, step)
        gain = producer.partial.gain
        producer.partial = CountsRep(gain, 0.0, 7, "act")  # a 3-bit window
        report = check_plan(engine.plan)
        assert any("projection join" in d.message for d in report.by_rule("PL603")), \
            report.summary()

    def test_join_gain_mismatch_fires_pl603(self, resnet_case):
        engine = _traced_engine(*resnet_case)
        step = _join_steps(engine.plan, "identity")[-1]
        producer = _producer(engine.plan, step)
        rep = producer.counts_rep
        producer.counts_rep = CountsRep(2.0 * rep.gain, 0.0, rep.top, "act")
        report = check_plan(engine.plan)
        assert any("gain" in d.message for d in report.by_rule("PL603")), \
            report.summary()


class TestAccumulatorBoundSoundness:
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 64),
        oc=st.integers(1, 8),
        bits=st.integers(2, 8),
        m=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_concrete_accumulator_never_exceeds_bound(self, seed, k, oc, bits, m):
        # The proved bound must dominate |x @ codes.T| for every integer
        # input in [0, top] — sample adversarially dense random instances.
        rng = np.random.default_rng(seed)
        half = 2 ** (bits - 1)
        codes = rng.integers(-half, half + 1, size=(oc, k)).astype(np.float64)
        top = 2 ** m - 1
        bound = accumulator_bound(codes, top)
        x = rng.integers(0, top + 1, size=(32, k)).astype(np.float64)
        assert np.abs(x @ codes.T).max(initial=0.0) <= bound + 1e-9
        # Tightness: feeding top where a code row is positive and zero
        # elsewhere attains the positive half of the proved bound.
        attained = max(
            (float((np.where(codes[i] > 0, top, 0.0) * codes[i]).sum())
             for i in range(oc)),
            default=0.0,
        )
        assert attained <= bound + 1e-9


class TestEnginePlanGate:
    def test_rejected_plan_falls_back_to_graph(self, deployed_lenet, images,
                                               monkeypatch):
        import repro.check.plancheck as plancheck

        def rejecting_check_plan(plan, config=None, target=None):
            report = CheckReport(target or "seeded")
            report.add("PL601", "error", "step0:int_conv", "seeded overflow")
            return report

        monkeypatch.setattr(plancheck, "check_plan", rejecting_check_plan)
        engine = InferenceEngine(deployed_lenet)
        out = engine.run(images[:6])
        assert engine.active_backend == "graph"
        assert engine.plan is None
        assert engine.stats.plancheck_errors == 1
        assert engine.plan_report is not None and engine.plan_report.has_errors
        assert engine.runtime_stats()["plancheck_errors"] == 1
        # The request is still served — from the graph executor.
        clean = InferenceEngine(deployed_lenet, EngineConfig(plan_check=False))
        np.testing.assert_array_equal(out, clean._graph_run(images[:6]))

    def test_clean_plan_passes_gate(self, deployed_lenet, images):
        engine = InferenceEngine(deployed_lenet)
        engine.run(images[:6])
        assert engine.active_backend == "int"
        assert engine.plan_report is not None and engine.plan_report.ok
        assert engine.stats.plancheck_errors == 0
        assert "plancheck_errors" not in engine.runtime_stats()

    def test_gate_can_be_disabled(self, deployed_lenet, images):
        engine = InferenceEngine(deployed_lenet, EngineConfig(plan_check=False))
        engine.run(images[:6])
        assert engine.plan is not None
        assert engine.plan_report is None
