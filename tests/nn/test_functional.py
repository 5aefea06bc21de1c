"""Gradient and behaviour tests for repro.nn.functional."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.conftest import check_gradients


class TestRelu:
    def test_forward(self):
        out = F.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_gradient(self, rng):
        check_gradients(F.relu, [rng.normal(size=(4, 5)) + 0.1])

    def test_gradient_zero_below(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        F.relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])


class TestLeakyRelu:
    def test_forward(self):
        out = F.leaky_relu(Tensor([-10.0, 10.0]), negative_slope=0.1)
        np.testing.assert_allclose(out.data, [-1.0, 10.0])

    def test_gradient(self, rng):
        check_gradients(
            lambda x: F.leaky_relu(x, 0.2), [rng.normal(size=(6,)) + 0.05]
        )


class TestSigmoidTanh:
    def test_sigmoid_range(self, rng):
        out = F.sigmoid(Tensor(rng.normal(size=(10,)) * 5))
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_sigmoid_gradient(self, rng):
        check_gradients(F.sigmoid, [rng.normal(size=(5,))])

    def test_tanh_gradient(self, rng):
        check_gradients(F.tanh, [rng.normal(size=(5,))])


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10,)))
        out = F.dropout(x, p=0.5, training=False)
        assert out is x

    def test_zero_p_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10,)))
        assert F.dropout(x, p=0.0, training=True) is x

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), p=1.5, training=True)

    def test_scaling_preserves_expectation(self, rng):
        x = Tensor(np.ones(100_00))
        out = F.dropout(x, p=0.3, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_gradient_matches_mask(self, rng):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = F.dropout(x, p=0.5, training=True, rng=rng)
        out.sum().backward()
        # Gradient is the same mask applied in forward.
        np.testing.assert_allclose(x.grad, out.data)


class TestLinear:
    def test_shapes(self, rng):
        x = Tensor(rng.normal(size=(8, 3)))
        w = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(rng.normal(size=(5,)))
        assert F.linear(x, w, b).shape == (8, 5)

    def test_gradient(self, rng):
        check_gradients(
            F.linear,
            [rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), rng.normal(size=(2,))],
        )

    def test_no_bias(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        w = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_allclose(F.linear(x, w).data, x.data @ w.data.T)


    def test_rows_do_not_depend_on_batch_mates(self, rng):
        """Row-invariance: a row's output is bitwise the same alone as in a
        batch (one (B, K) GEMM would let BLAS round per row count)."""
        x = Tensor(rng.normal(size=(64, 400)))
        w = Tensor(rng.normal(size=(120, 400)))
        b = Tensor(rng.normal(size=(120,)))
        full = F.linear(x, w, b).data
        for i in range(len(full)):
            alone = F.linear(Tensor(x.data[i : i + 1]), w, b).data[0]
            assert np.array_equal(full[i], alone), f"row {i}"
        for rows in (2, 3, 7, 9, 17):
            assert np.array_equal(F.linear(Tensor(x.data[:rows]), w, b).data, full[:rows])

    def test_gradient_without_batch_axis(self, rng):
        check_gradients(F.linear, [rng.normal(size=(3,)), rng.normal(size=(2, 3))])


class TestConv2d:
    def test_output_shape_basic(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        assert F.conv2d(x, w).shape == (2, 4, 6, 6)

    def test_output_shape_padding(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        assert F.conv2d(x, w, padding=1).shape == (2, 4, 8, 8)

    def test_output_shape_stride(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 9, 9)))
        w = Tensor(rng.normal(size=(2, 1, 3, 3)))
        assert F.conv2d(x, w, stride=2).shape == (1, 2, 4, 4)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        w = Tensor(rng.normal(size=(1, 3, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_against_direct_convolution(self, rng):
        """Compare im2col result with a naive loop implementation."""
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1).data

        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.zeros((2, 4, 6, 6))
        for n in range(2):
            for f in range(4):
                for i in range(6):
                    for j in range(6):
                        patch = xp[n, :, i : i + 3, j : j + 3]
                        expected[n, f, i, j] = (patch * w[f]).sum() + b[f]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_gradient_x_w_b(self, rng):
        check_gradients(
            lambda x, w, b: F.conv2d(x, w, b, stride=1, padding=1),
            [
                rng.normal(size=(2, 2, 5, 5)),
                rng.normal(size=(3, 2, 3, 3)),
                rng.normal(size=(3,)),
            ],
        )

    def test_gradient_stride2(self, rng):
        check_gradients(
            lambda x, w: F.conv2d(x, w, stride=2),
            [rng.normal(size=(1, 2, 7, 7)), rng.normal(size=(2, 2, 3, 3))],
        )

    def test_gradient_5x5_kernel(self, rng):
        check_gradients(
            lambda x, w: F.conv2d(x, w, padding=2),
            [rng.normal(size=(1, 1, 7, 7)), rng.normal(size=(2, 1, 5, 5))],
        )

    def test_1x1_convolution(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(5, 3, 1, 1))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        expected = np.einsum("nchw,fc->nfhw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out, expected, atol=1e-10)


class TestPooling:
    def test_max_pool_forward(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient(self, rng):
        check_gradients(
            lambda x: F.max_pool2d(x, 2),
            # Small noise keeps maxima unique so numerical grad is stable.
            [rng.normal(size=(2, 2, 4, 4)) * 10],
        )

    def test_max_pool_overlapping_stride(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        assert F.max_pool2d(x, 3, stride=1).shape == (1, 1, 3, 3)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (2, 1)])
    def test_max_pool_backward_matches_scatter_reference(self, rng, kernel, stride):
        """The bincount scatter must equal a per-window np.add.at reference."""
        x_data = rng.normal(size=(3, 4, 7, 7))
        upstream = rng.normal(size=F.max_pool2d(Tensor(x_data), kernel, stride).shape)

        x = Tensor(x_data, requires_grad=True)
        out = F.max_pool2d(x, kernel, stride)
        out.backward(upstream)

        expected = np.zeros_like(x_data)
        b_n, c_n, oh, ow = out.shape
        for b in range(b_n):
            for c in range(c_n):
                for i in range(oh):
                    for j in range(ow):
                        window = x_data[b, c, i * stride : i * stride + kernel,
                                        j * stride : j * stride + kernel]
                        ki, kj = np.unravel_index(np.argmax(window), window.shape)
                        expected[b, c, i * stride + ki, j * stride + kj] += upstream[b, c, i, j]
        np.testing.assert_allclose(x.grad, expected, atol=1e-12)

    def test_avg_pool_forward(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient(self, rng):
        check_gradients(lambda x: F.avg_pool2d(x, 2), [rng.normal(size=(2, 2, 4, 4))])

    def test_avg_pool_gradient_overlap(self, rng):
        check_gradients(
            lambda x: F.avg_pool2d(x, 2, stride=1), [rng.normal(size=(1, 1, 4, 4))]
        )

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))

    def test_global_avg_pool_gradient(self, rng):
        check_gradients(F.global_avg_pool2d, [rng.normal(size=(2, 3, 4, 4))])


class TestBatchNorm:
    def _setup(self, rng, shape=(8, 3, 4, 4)):
        x = Tensor(rng.normal(size=shape) * 2 + 1, requires_grad=True)
        gamma = Tensor(np.ones(shape[1]), requires_grad=True)
        beta = Tensor(np.zeros(shape[1]), requires_grad=True)
        running_mean = np.zeros(shape[1])
        running_var = np.ones(shape[1])
        return x, gamma, beta, running_mean, running_var

    def test_training_normalizes(self, rng):
        x, gamma, beta, rm, rv = self._setup(rng)
        out = F.batch_norm(x, gamma, beta, rm, rv, training=True)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, np.zeros(3), atol=1e-10)
        np.testing.assert_allclose(var, np.ones(3), atol=1e-3)

    def test_running_stats_updated(self, rng):
        x, gamma, beta, rm, rv = self._setup(rng)
        F.batch_norm(x, gamma, beta, rm, rv, training=True, momentum=1.0)
        np.testing.assert_allclose(rm, x.data.mean(axis=(0, 2, 3)))

    def test_eval_uses_running_stats(self, rng):
        x, gamma, beta, rm, rv = self._setup(rng)
        rm[:] = 1.0
        rv[:] = 4.0
        out = F.batch_norm(x, gamma, beta, rm, rv, training=False)
        np.testing.assert_allclose(out.data, (x.data - 1.0) / np.sqrt(4.0 + 1e-5))

    def test_2d_input(self, rng):
        x, gamma, beta, rm, rv = self._setup(rng, shape=(16, 3))
        out = F.batch_norm(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(3), atol=1e-10)

    def test_3d_input_raises(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        with pytest.raises(ValueError):
            F.batch_norm(
                x, Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3), True
            )

    def test_gradient_training_mode(self, rng):
        rm = np.zeros(2)
        rv = np.ones(2)

        def fn(x, gamma, beta):
            return F.batch_norm(
                x, gamma, beta, rm.copy(), rv.copy(), training=True
            )

        check_gradients(
            fn,
            [rng.normal(size=(6, 2, 3, 3)), np.array([1.3, 0.7]), np.array([0.1, -0.2])],
            atol=1e-4,
        )

    def test_gradient_eval_mode(self, rng):
        rm = np.array([0.5, -0.5])
        rv = np.array([2.0, 3.0])

        def fn(x, gamma, beta):
            return F.batch_norm(x, gamma, beta, rm, rv, training=False)

        check_gradients(
            fn,
            [rng.normal(size=(4, 2, 2, 2)), np.array([1.3, 0.7]), np.array([0.1, -0.2])],
        )


class TestSoftmax:
    def test_softmax_sums_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(5, 7))))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5))

    def test_softmax_stability(self):
        out = F.softmax(Tensor([[1000.0, 1001.0]]))
        assert np.all(np.isfinite(out.data))

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(3, 4))
        ls = F.log_softmax(Tensor(x)).data
        np.testing.assert_allclose(ls, np.log(F.softmax(Tensor(x)).data), atol=1e-12)

    def test_softmax_gradient(self, rng):
        weights = Tensor(rng.normal(size=(3, 4)))
        check_gradients(lambda x: F.softmax(x) * weights, [rng.normal(size=(3, 4))])

    def test_log_softmax_gradient(self, rng):
        weights = Tensor(rng.normal(size=(3, 4)))
        check_gradients(lambda x: F.log_softmax(x) * weights, [rng.normal(size=(3, 4))])


class TestPadFlatten:
    def test_flatten(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        assert F.flatten(x).shape == (2, 48)

    def test_pad2d_shape(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 3, 3)))
        assert F.pad2d(x, 2).shape == (1, 1, 7, 7)

    def test_pad2d_gradient(self, rng):
        check_gradients(lambda x: F.pad2d(x, 1) * 2, [rng.normal(size=(1, 2, 3, 3))])
