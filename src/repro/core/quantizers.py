"""Quantizers for inter-layer signals and weights.

Three schemes appear in the paper:

1. **Fixed-integer signals** (Sec. 3.1): an M-bit inter-layer signal is a
   spike count, i.e. a plain non-negative integer.  Every layer uses the
   *same* range ``[0, 2^M − 1]`` — this uniformity is the point (dynamic
   ranges would need per-layer spike-window hardware).  Quantization is
   rounding plus saturation; no scale factor exists, because a spike count
   has no exponent.

2. **Fixed-point weights** (Sec. 3.2): an N-bit weight lies on the linear
   grid ``D / 2^N`` with ``D ∈ {0, ±1, …, ±(2^(N−1) − 1), ±2^(N−1)}``
   (Eq. 6), i.e. spacing ``2^-N`` and magnitude at most ``1/2``.  The naive
   ("w/o") quantizer rounds onto this fixed grid; the Weight Clustering
   solver in :mod:`repro.core.weight_clustering` instead *optimizes* the
   grid scale (the paper's Eq. 6 with the ``N ≥ log2(max|D|/max|W|)``
   constraint chooses how the grid covers the weight range).

3. **Dynamic fixed point** (Gysel et al. [23], the paper's baseline): each
   layer gets its own fractional length chosen from its data range —
   accurate at 8 bits but exactly the per-layer nonuniformity the paper
   argues is hostile to spiking hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def signal_levels(bits: int) -> int:
    """Number of representable spike counts for M-bit signals: ``2^M``."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return 2 ** bits


def quantize_signals(values: np.ndarray, bits: int) -> np.ndarray:
    """Quantize non-negative inter-layer signals to M-bit fixed integers.

    ``round`` then saturate to ``[0, 2^M − 1]`` (the spike window can carry
    at most ``2^M − 1`` spikes).  Negative inputs clamp to zero — signals
    are post-ReLU spike rates.

    Rounding is ``floor(x + ½)`` (half always rounds up), matching the IFC
    hardware exactly: an integrate-and-fire neuron pre-charged with half a
    threshold fires ``⌊q/θ + ½⌋`` times — see :mod:`repro.snc.ifc`.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    top = signal_levels(bits) - 1
    return np.clip(np.floor(values + 0.5), 0, top)


def signal_quantization_error(values: np.ndarray, bits: int) -> float:
    """Mean squared error introduced by :func:`quantize_signals`."""
    return float(np.mean((quantize_signals(values, bits) - np.maximum(values, 0)) ** 2))


def weight_grid(bits: int, scale: float = 1.0) -> np.ndarray:
    """The N-bit fixed-point codebook ``scale · k / 2^N`` for integer k.

    ``k`` ranges over ``{-2^(N-1), …, -1, 0, 1, …, 2^(N-1)}`` — the
    symmetric completion of the paper's set (Eq. 6 writes the positive
    endpoint only; symmetry is implied by the ± notation).
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    half = 2 ** (bits - 1)
    ks = np.arange(-half, half + 1)
    return scale * ks / float(2 ** bits)


def quantize_weights_fixed_point(
    weights: np.ndarray, bits: int, scale: float = 1.0
) -> np.ndarray:
    """Round weights onto the fixed-point grid (the "w/o clustering" path).

    With ``scale=1`` this is the paper's literal grid: spacing ``2^-N``,
    saturation at ``±1/2``.  Weight Clustering passes an optimized scale.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    denom = float(2 ** bits)
    half = 2 ** (bits - 1)
    codes = np.clip(np.rint(weights / scale * denom), -half, half)
    return scale * codes / denom


def weight_quantization_error(weights: np.ndarray, bits: int, scale: float = 1.0) -> float:
    """Mean squared error of :func:`quantize_weights_fixed_point`."""
    return float(np.mean((quantize_weights_fixed_point(weights, bits, scale) - weights) ** 2))


@dataclass(frozen=True)
class DynamicFixedPointFormat:
    """A per-tensor dynamic fixed point format (Gysel et al. [23]).

    ``bits`` total width including sign; ``fractional_bits`` chosen so that
    the largest magnitude in the calibration data just fits.
    """

    bits: int
    fractional_bits: int

    @property
    def step(self) -> float:
        return 2.0 ** (-self.fractional_bits)

    @property
    def max_value(self) -> float:
        return (2 ** (self.bits - 1) - 1) * self.step

    @property
    def min_value(self) -> float:
        return -(2 ** (self.bits - 1)) * self.step


# The finest grid whose step 2^-FL is still a normal float64.
_MAX_FRACTIONAL_BITS = 1022


def fit_dynamic_fixed_point(values: np.ndarray, bits: int = 8) -> DynamicFixedPointFormat:
    """Choose the fractional length covering ``max(|values|)``.

    Integer length ``IL = ceil(log2(max|v|)) + 1`` (one bit for sign),
    fractional length ``FL = bits − IL`` — Ristretto's rule.
    """
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    if peak <= 0:
        return DynamicFixedPointFormat(bits=bits, fractional_bits=bits - 1)
    integer_length = int(np.ceil(np.log2(peak))) + 1
    fmt = DynamicFixedPointFormat(bits=bits, fractional_bits=bits - integer_length)
    if fmt.max_value < peak:
        # Peaks exactly at a power of two exceed (2^(bits−1)−1)·step; widen
        # by one integer bit so the format genuinely covers the range.
        fmt = DynamicFixedPointFormat(bits=bits, fractional_bits=bits - integer_length - 1)
    if fmt.fractional_bits > _MAX_FRACTIONAL_BITS:
        # Subnormal peaks would ask for a step below the smallest normal
        # double (2^-1022), which underflows to 0; such values round to 0.
        fmt = DynamicFixedPointFormat(bits=bits, fractional_bits=_MAX_FRACTIONAL_BITS)
    return fmt


def quantize_dynamic_fixed_point(
    values: np.ndarray, fmt: DynamicFixedPointFormat
) -> np.ndarray:
    """Round onto the format's grid and saturate at its range."""
    scaled = np.rint(values / fmt.step)
    low = -(2 ** (fmt.bits - 1))
    high = 2 ** (fmt.bits - 1) - 1
    return np.clip(scaled, low, high) * fmt.step


def quantize_dynamic(values: np.ndarray, bits: int = 8) -> np.ndarray:
    """Convenience: fit a format on ``values`` then quantize them."""
    return quantize_dynamic_fixed_point(values, fit_dynamic_fixed_point(values, bits))
