"""Unit + property tests for the quantization primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import quantizers as Q

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=8),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)


class TestSignalQuantizer:
    def test_levels(self):
        assert Q.signal_levels(4) == 16
        assert Q.signal_levels(8) == 256

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            Q.signal_levels(0)
        with pytest.raises(ValueError):
            Q.quantize_signals(np.zeros(2), 0)

    def test_rounding(self):
        out = Q.quantize_signals(np.array([0.4, 0.6, 2.5, 3.49]), 4)
        np.testing.assert_allclose(out, [0, 1, 3, 3])

    def test_saturation_at_top(self):
        out = Q.quantize_signals(np.array([100.0, 15.2, 14.9]), 4)
        np.testing.assert_allclose(out, [15, 15, 15])

    def test_negative_clamps_to_zero(self):
        np.testing.assert_allclose(Q.quantize_signals(np.array([-3.0]), 4), [0])

    @given(finite_arrays, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_range_property(self, values, bits):
        out = Q.quantize_signals(values, bits)
        assert out.min() >= 0
        assert out.max() <= 2 ** bits - 1

    @given(finite_arrays, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values, bits):
        once = Q.quantize_signals(values, bits)
        np.testing.assert_allclose(Q.quantize_signals(once, bits), once)

    @given(finite_arrays, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_outputs_are_integers(self, values, bits):
        out = Q.quantize_signals(values, bits)
        np.testing.assert_allclose(out, np.rint(out))

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=10),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, values, bits):
        ordered = np.sort(np.array(values))
        out = Q.quantize_signals(ordered, bits)
        assert np.all(np.diff(out) >= 0)

    def test_in_range_integers_are_fixed_points(self):
        values = np.arange(16, dtype=float)
        np.testing.assert_allclose(Q.quantize_signals(values, 4), values)

    def test_error_bounded_by_half_in_range(self, rng):
        values = rng.uniform(0, 15, size=100)
        out = Q.quantize_signals(values, 4)
        assert np.abs(out - values).max() <= 0.5 + 1e-12

    def test_signal_quantization_error(self):
        assert Q.signal_quantization_error(np.array([1.0, 2.0]), 4) == 0.0
        assert Q.signal_quantization_error(np.array([1.3]), 4) > 0.0


class TestWeightGrid:
    def test_grid_contents(self):
        grid = Q.weight_grid(2)
        np.testing.assert_allclose(grid, [-0.5, -0.25, 0.0, 0.25, 0.5])

    def test_grid_size(self):
        assert len(Q.weight_grid(4)) == 2 ** 4 + 1

    def test_grid_scaling(self):
        np.testing.assert_allclose(Q.weight_grid(2, scale=2.0), [-1, -0.5, 0, 0.5, 1])

    def test_grid_symmetric(self):
        grid = Q.weight_grid(5)
        np.testing.assert_allclose(grid, -grid[::-1])


class TestWeightQuantizer:
    def test_zero_preserved(self):
        np.testing.assert_allclose(Q.quantize_weights_fixed_point(np.zeros(3), 4), 0.0)

    def test_saturation(self):
        out = Q.quantize_weights_fixed_point(np.array([10.0, -10.0]), 4)
        np.testing.assert_allclose(out, [0.5, -0.5])

    def test_grid_spacing(self):
        out = Q.quantize_weights_fixed_point(np.array([0.1, 0.11]), 3)
        # 3-bit spacing is 1/8 = 0.125
        np.testing.assert_allclose(out, [0.125, 0.125])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Q.quantize_weights_fixed_point(np.zeros(2), 0)
        with pytest.raises(ValueError):
            Q.quantize_weights_fixed_point(np.zeros(2), 4, scale=0.0)

    @given(finite_arrays, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_outputs_on_grid(self, values, bits):
        out = Q.quantize_weights_fixed_point(values, bits)
        codes = out * (2 ** bits)
        np.testing.assert_allclose(codes, np.rint(codes), atol=1e-9)
        assert np.abs(out).max() <= 0.5 + 1e-12

    @given(finite_arrays, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values, bits):
        once = Q.quantize_weights_fixed_point(values, bits)
        np.testing.assert_allclose(Q.quantize_weights_fixed_point(once, bits), once)

    def test_error_within_half_step_in_range(self, rng):
        values = rng.uniform(-0.5, 0.5, size=200)
        out = Q.quantize_weights_fixed_point(values, 4)
        assert np.abs(out - values).max() <= 0.5 / 16 + 1e-12

    def test_weight_quantization_error_zero_on_grid(self):
        grid = Q.weight_grid(4)
        assert Q.weight_quantization_error(grid, 4) == 0.0


class TestDynamicFixedPoint:
    def test_format_properties(self):
        fmt = Q.DynamicFixedPointFormat(bits=8, fractional_bits=4)
        assert fmt.step == 1 / 16
        assert fmt.max_value == 127 / 16
        assert fmt.min_value == -128 / 16

    def test_fit_covers_peak(self, rng):
        values = rng.normal(size=100) * 3
        fmt = Q.fit_dynamic_fixed_point(values, bits=8)
        assert fmt.max_value >= np.abs(values).max() * 0.5  # peak fits up to rounding

    def test_fit_small_values_gets_fine_grid(self):
        fmt = Q.fit_dynamic_fixed_point(np.array([0.01, -0.02]), bits=8)
        assert fmt.fractional_bits >= 8  # IL is negative for tiny ranges

    def test_fit_zero_array(self):
        fmt = Q.fit_dynamic_fixed_point(np.zeros(4), bits=8)
        assert fmt.fractional_bits == 7

    def test_fit_invalid_bits(self):
        with pytest.raises(ValueError):
            Q.fit_dynamic_fixed_point(np.ones(2), bits=1)

    def test_fit_subnormal_peak_keeps_step_nonzero(self):
        values = np.array([5e-324, 0.0])
        fmt = Q.fit_dynamic_fixed_point(values, bits=8)
        assert fmt.step > 0
        np.testing.assert_array_equal(Q.quantize_dynamic(values, bits=8), [0.0, 0.0])

    def test_quantize_saturates(self):
        fmt = Q.DynamicFixedPointFormat(bits=4, fractional_bits=2)
        out = Q.quantize_dynamic_fixed_point(np.array([100.0, -100.0]), fmt)
        np.testing.assert_allclose(out, [7 / 4, -8 / 4])

    def test_8bit_dynamic_accuracy(self, rng):
        """At 8 bits the relative error on typical data is small (Gysel's point)."""
        values = rng.normal(size=1000)
        out = Q.quantize_dynamic(values, bits=8)
        relative = np.abs(out - values).mean() / np.abs(values).mean()
        assert relative < 0.02

    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_quantize_dynamic_idempotent(self, values):
        once = Q.quantize_dynamic(values, bits=8)
        np.testing.assert_allclose(Q.quantize_dynamic(once, bits=8), once, atol=1e-12)

    def test_per_layer_formats_differ(self, rng):
        """The dynamic scheme's defining property: ranges adapt per tensor."""
        small = Q.fit_dynamic_fixed_point(rng.normal(size=50) * 0.01)
        large = Q.fit_dynamic_fixed_point(rng.normal(size=50) * 100.0)
        assert small.fractional_bits != large.fractional_bits
