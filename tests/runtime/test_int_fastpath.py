"""The fused integer fast path and its multiplier-less shift variant.

Covers the PR-level contracts that `test_plan.py` does not:

- ``shift_requantize`` is *exactly* the multiply-based requantize whenever
  the scale sits on the power-of-two grid — proven against an
  arbitrary-precision (``fractions.Fraction``) reference over the full
  uint8-counts accumulator range with per-channel shifts.
- ``describe()`` reports the dtypes that actually flow through the GEMM
  (the honest-labels satellite): the stated carrier is the real dtype of
  the weight operand, and the stated counts dtypes are the real dtypes of
  the buffers the plan produces.
- Engine-level variant semantics: ``int_path`` validation, the shift backend
  label, and graceful graph degradation when snapping is impossible.
"""

import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import (
    DeploymentConfig,
    deploy_model,
    make_inference_engine,
)
from repro.core.pow2 import snap_scales_pow2
from repro.core.weight_clustering import _stamp_grid
from repro.datasets.mnist_like import generate_mnist_like
from repro.models import LeNet
from repro.nn.modules import Conv2d
from repro.nn.tensor import Tensor, no_grad
from repro.runtime.engine import EngineConfig
from repro.runtime.plan import compile_plan, shift_requantize


@pytest.fixture(scope="module")
def images():
    return generate_mnist_like(48, seed=0).images


def _deploy(images):
    model = LeNet(rng=np.random.default_rng(0))
    model.eval()
    deployed, _ = deploy_model(
        model,
        DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8),
        images[:32],
    )
    return deployed


@pytest.fixture(scope="module")
def deployed_lenet(images):
    return _deploy(images)


def graph_logits(module, batch):
    with no_grad():
        return module(Tensor(batch)).data


# ---------------------------------------------------------------------------
# shift_requantize == multiply requantize (exact, property-based)
# ---------------------------------------------------------------------------

@st.composite
def requantize_case(draw):
    channels = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 12))
    top = draw(st.sampled_from([15, 31, 255]))
    # Per-channel shifts over the grid the engine actually emits.
    shifts = np.array(
        draw(st.lists(st.integers(0, 24), min_size=channels, max_size=channels)),
        dtype=np.int64,
    )
    # Accumulators spanning the full uint8-counts × int8-codes range:
    # K taps of counts in [0, 255] against codes in [-128, 127].
    bound = 64 * 255 * 128
    acc = np.array(
        draw(
            st.lists(
                st.lists(st.integers(-bound, bound), min_size=channels,
                         max_size=channels),
                min_size=rows, max_size=rows,
            )
        ),
        dtype=np.int64,
    )
    # Arbitrary folded offsets (bias·gain + ½ in production) — any float.
    q_offset = np.array(
        draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=channels, max_size=channels,
            )
        ),
        dtype=np.float64,
    )
    return acc, shifts, q_offset, top


class TestShiftRequantize:
    @given(requantize_case())
    @settings(max_examples=60, deadline=None)
    def test_matches_multiply_requantize_exactly(self, case):
        """clip((acc + ⌊q_offset·2^s⌋) >> s) == clip(⌊2^-s·acc + q_offset⌋).

        The right side is evaluated in arbitrary precision: the engine's
        shift epilogue must agree with the *mathematical* multiply
        requantize for every pow2-grid scale, not merely with a float64
        evaluation of it.
        """
        acc, shifts, q_offset, top = case
        offsets = np.floor(q_offset * np.exp2(shifts)).astype(np.int64)
        out = np.empty(acc.shape, dtype=np.uint8 if top <= 255 else np.uint16)
        shift_requantize(acc.copy(), shifts[np.newaxis, :],
                         offsets[np.newaxis, :], top, out)
        for i in range(acc.shape[0]):
            for j in range(acc.shape[1]):
                q_scale = Fraction(1, 2 ** int(shifts[j]))
                exact = q_scale * acc[i, j] + Fraction(q_offset[j])
                want = min(max(exact.numerator // exact.denominator, 0), top)
                assert out[i, j] == want, (
                    f"acc={acc[i, j]} shift={shifts[j]} "
                    f"q_offset={q_offset[j]!r}: shift path gave {out[i, j]}, "
                    f"exact multiply requantize gives {want}"
                )

    def test_full_uint8_single_tap_sweep(self):
        """Deterministic exhaustive sweep: every uint8 count, one weight."""
        counts = np.arange(256, dtype=np.int64)
        for code in (-128, -1, 1, 127):
            for shift in (0, 3, 7):
                acc = counts * code
                offsets = np.full_like(acc, 5)
                out = np.empty(acc.shape, dtype=np.uint8)
                shift_requantize(acc.copy(), shift, offsets, 255, out)
                want = np.clip((counts * code + 5) >> shift, 0, 255)
                np.testing.assert_array_equal(out, want)


# ---------------------------------------------------------------------------
# describe() honesty: stated dtypes are the dtypes actually used
# ---------------------------------------------------------------------------

class TestDescribeHonesty:
    def test_labels_match_real_gemm_operands_and_buffers(self, deployed_lenet, images):
        plan = compile_plan(deployed_lenet, images[:2], EngineConfig())
        text = plan.describe()
        int_steps = [s for s in plan.steps if hasattr(s, "_gemm_label")]
        assert len(int_steps) == 3
        for step in int_steps:
            label = step._gemm_label()
            assert label in text
            # The stated carrier is the dtype of the real weight operand.
            assert step.codes_t.dtype == step.carrier
            assert step.carrier.name in label
            assert step.in_dtype.name in label
            assert step.code_dtype.name in label
        # The stated counts dtypes are the dtypes the plan really produces:
        # replay step by step and compare each output to its producer's claim.
        x = images[:2]
        for step in plan.steps:
            x = step.run(x, plan.pool)
            if hasattr(step, "out_dtype"):
                assert x.dtype == step.out_dtype, (
                    f"step {step.index} ({step.kind}) describes itself as "
                    f"emitting {step.out_dtype} but produced {x.dtype}"
                )

    def test_shift_mode_reports_accumulator_and_shift(self, images):
        deployed = _deploy(images)
        snap_scales_pow2(deployed)
        plan = compile_plan(deployed, images[:2],
                            EngineConfig(int_path="shift"))
        text = plan.describe()
        int_steps = [s for s in plan.steps if hasattr(s, "_gemm_label")]
        for step in int_steps:
            assert step.shift is not None
            assert f"acc={step.acc_int_dtype.name} >>{step.shift}" in text


# ---------------------------------------------------------------------------
# Engine-level variant semantics
# ---------------------------------------------------------------------------

class TestEngineVariants:
    def test_rejects_invalid_kernel_and_path_combinations(self):
        with pytest.raises(ValueError):
            EngineConfig(int_path="pow2")

    def test_shift_backend_label_and_argmax(self, images):
        deployed = _deploy(images)
        engine = make_inference_engine(deployed, dtype=np.float64, int_path="shift")
        # 128 rows fill one whole batch tile of the fused conv kernel; this
        # is the batch whose argmax BENCH_PR7.json's engine_shift entry
        # records.
        full = generate_mnist_like(160, seed=0).images[:128]
        for batch in (images[:16], full):
            logits = engine.run(batch)
            assert engine.active_backend == "shift"
            # The engine snapped its module in place: the snapped graph is
            # the conformance reference, and predictions must agree exactly.
            reference = graph_logits(deployed, np.asarray(batch, dtype=np.float64))
            np.testing.assert_array_equal(
                np.argmax(logits, axis=1), np.argmax(reference, axis=1)
            )

    def test_unsnappable_module_degrades_to_graph(self, images):
        deployed = copy.deepcopy(_deploy(images))
        # Force an off-range shift: a huge weight scale makes q_scale > 1,
        # which would need a *left* shift the engine refuses to prove.
        conv = next(m for m in deployed.modules() if isinstance(m, Conv2d))
        _stamp_grid(conv, 1e9, conv._grid_bits)
        engine = make_inference_engine(deployed, dtype=np.float64, int_path="shift")
        logits = engine.run(images[:8])
        assert engine.active_backend == "graph"
        np.testing.assert_array_equal(
            logits, graph_logits(deployed, np.asarray(images[:8], dtype=np.float64))
        )
