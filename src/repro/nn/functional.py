"""Differentiable neural-network operations.

All functions take and return :class:`repro.nn.tensor.Tensor` objects and
register backward closures on the autograd graph.  The layout convention is
``(batch, channels, height, width)`` for images, matching the paper's
convolutional notation (filters ``K_j^i`` of size ``s×s`` and depth ``d``).

Convolution is implemented with im2col + one large matmul, which is the only
way to make numpy training tractable on a single CPU core; the im2col matrix
is also exactly the crossbar input layout used by :mod:`repro.snc.mapping`
(Figure 2 of the paper unrolls a convolution the same way).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.nn.tensor import Tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return (int(value[0]), int(value[1]))


# ---------------------------------------------------------------------------
# Elementwise
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    out_data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0))

    return Tensor._make(out_data, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with configurable negative slope."""
    out_data = np.where(x.data > 0, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.where(x.data > 0, 1.0, negative_slope))

    return Tensor._make(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data ** 2))

    return Tensor._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept units by ``1/(1-p)`` during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``.

    ``x`` is ``(batch, in_features)``, ``weight`` is
    ``(out_features, in_features)`` — the Torch convention the paper's
    networks were written in.

    Row-invariant: each row is its own ``(1, K) @ (K, N)`` product, so a
    row's output does not depend on how many rows share the call (one
    ``(B, K)`` GEMM lets BLAS pick a different kernel, and rounding, per
    row count).  The compiled plan's float linear step computes the same
    stacked product, keeping graph and plan bit-identical at every batch
    size.
    """
    w = weight.data
    out_data = np.matmul(x.data[..., None, :], w.T)[..., 0, :]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ w)
        if weight.requires_grad:
            rows = x.data.reshape(-1, w.shape[1])
            weight._accumulate((rows.T @ grad.reshape(-1, w.shape[0])).T)

    out = Tensor._make(out_data, (x, weight), backward)
    if bias is not None:
        out = out + bias
    return out


# ---------------------------------------------------------------------------
# Convolution (im2col)
# ---------------------------------------------------------------------------

def _im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unroll image patches into rows.

    Returns ``(cols, (out_h, out_w))`` where ``cols`` has shape
    ``(batch * out_h * out_w, channels * kh * kw)``.
    """
    batch, channels, height, width = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]  # (B, C, out_h, out_w, kh, kw)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch * out_h * out_w, channels * kh * kw
    )
    return np.ascontiguousarray(cols), (out_h, out_w)


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add column gradients back into image layout (inverse of im2col)."""
    batch, channels, height, width = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = out_hw
    padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw))
    cols6 = cols.reshape(batch, out_h, out_w, channels, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    # Loop only over the (small) kernel footprint; each slice add is vectorized.
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += cols6[
                :, :, :, :, i, j
            ]
    if ph or pw:
        return padded[:, :, ph : ph + height, pw : pw + width]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation (the usual DNN "convolution").

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, height, width)``.
    weight:
        Filters of shape ``(out_channels, in_channels, kh, kw)``.
    bias:
        Optional per-output-channel bias of shape ``(out_channels,)``.
    stride, padding:
        Int or (h, w) pair.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    batch = x.shape[0]
    out_channels, in_channels, kh, kw = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {in_channels}"
        )

    cols, (out_h, out_w) = _im2col(x.data, (kh, kw), stride, padding)
    w_mat = weight.data.reshape(out_channels, -1)
    out_mat = cols @ w_mat.T  # (B*out_h*out_w, out_channels)
    out_data = out_mat.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1, 1)

    x_shape = x.shape

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((grad_mat.T @ cols).reshape(weight.shape))
        if x.requires_grad:
            dcols = grad_mat @ w_mat
            x._accumulate(
                _col2im(dcols, x_shape, (kh, kw), stride, padding, (out_h, out_w))
            )

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def max_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling.  ``stride`` defaults to ``kernel`` (non-overlapping)."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    batch, channels, height, width = x.shape
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1

    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    flat = windows.reshape(batch, channels, out_h, out_w, kh * kw)
    argmax = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # Recover (row, col) of each max inside its window, flatten to a
        # raveled index into the input, and scatter-add with bincount —
        # one C-level histogram pass instead of np.indices + np.add.at
        # (which materializes four index arrays and dispatches per-element).
        ki, kj = np.divmod(argmax, kw)
        rows = np.arange(out_h).reshape(1, 1, -1, 1) * sh + ki
        cols_ = np.arange(out_w).reshape(1, 1, 1, -1) * sw + kj
        plane = (
            np.arange(batch).reshape(-1, 1, 1, 1) * channels
            + np.arange(channels).reshape(1, -1, 1, 1)
        ) * (height * width)
        flat = (plane + rows * width + cols_).ravel()
        dx = np.bincount(
            flat, weights=grad.ravel(), minlength=batch * channels * height * width
        )
        x._accumulate(dx.reshape(x.shape))

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling.  ``stride`` defaults to ``kernel``."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    batch, channels, height, width = x.shape
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1

    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    out_data = windows.mean(axis=(-2, -1))
    scale = 1.0 / (kh * kw)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        g = grad * scale
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += g
        x._accumulate(dx)

    return Tensor._make(out_data, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(batch, channels)``.

    Reduces a C-contiguous ``(B, C, H·W)`` copy in the ``sum · (1/count)``
    form of :meth:`Tensor.mean`, so the result does not depend on the
    input's memory layout (numpy sums a strided array in memory order,
    which rounds differently).
    """
    batch, channels, height, width = x.shape
    scale = 1.0 / (height * width)
    flat = np.ascontiguousarray(x.data).reshape(batch, channels, height * width)
    out_data = flat.sum(axis=2) * scale

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.broadcast_to((grad * scale)[:, :, None, None], x.shape))

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel axis of ``(B, C, H, W)`` or ``(B, C)``.

    ``running_mean``/``running_var`` are plain arrays mutated in place during
    training (exponential moving average with the given ``momentum``).
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got {x.ndim}-D")

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        count = x.data.size // x.data.shape[1]
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        unbiased = var * count / max(count - 1, 1)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean.reshape(shape)) * inv_std.reshape(shape)
    out_data = gamma.data.reshape(shape) * x_hat + beta.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=axes))
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=axes))
        if not x.requires_grad:
            return
        g = grad * gamma.data.reshape(shape)
        if training:
            count = x.data.size // x.data.shape[1]
            sum_g = g.sum(axis=axes, keepdims=True)
            sum_gx = (g * x_hat).sum(axis=axes, keepdims=True)
            inv = inv_std.reshape(shape)
            dx = inv * (g - sum_g / count - x_hat * sum_gx / count)
        else:
            dx = g * inv_std.reshape(shape)
        x._accumulate(dx)

    return Tensor._make(out_data, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# Softmax / losses support
# ---------------------------------------------------------------------------

def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            softmax_vals = np.exp(out_data)
            x._accumulate(grad - softmax_vals * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - inner))

    return Tensor._make(out_data, (x,), backward)


def flatten(x: Tensor) -> Tensor:
    """Collapse all non-batch dimensions: ``(B, ...) → (B, prod(...))``."""
    return x.reshape(x.shape[0], -1)


def pad2d(x: Tensor, padding: IntPair) -> Tensor:
    """Zero-pad the two spatial dimensions of a 4-D tensor."""
    ph, pw = _pair(padding)
    out_data = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            h, w = x.shape[2], x.shape[3]
            x._accumulate(grad[:, :, ph : ph + h, pw : pw + w])

    return Tensor._make(out_data, (x,), backward)
