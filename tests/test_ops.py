"""Layer primitive tests: hand values, shape contracts, and gradient checks."""

import numpy as np
import pytest

from helpers import loop_conv2d, loop_maxpool2d
from msml import ops
from msml.errors import DimensionError
from msml.gradcheck import TOLERANCES, check_case


class TestAffine:
    def test_identity_weight(self):
        out, _ = ops.affine_forward(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_hand_matmul(self):
        out, _ = ops.affine_forward(np.array([[1.0, 1.0]]), np.array([[2.0, 3.0], [4.0, 5.0]]), np.ones(2))
        np.testing.assert_array_equal(out, [[7.0, 9.0]])

    def test_bias_grad_of_sum_is_ones(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=5)
        _, cache = ops.affine_forward(x, w, b)
        _, _, db = ops.affine_backward(np.ones((4, 5)), cache)
        np.testing.assert_array_equal(db, np.full(5, 4.0))

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\)"):
            ops.affine_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))


class TestConv2d:
    """Same-padded, stride-1 cross-correlation with odd square kernels."""

    def test_scaling_kernel(self):
        x = np.ones((1, 1, 3, 3))
        k = np.full((1, 1, 1, 1), 2.0)
        out, _ = ops.conv2d_forward(x, k)
        np.testing.assert_array_equal(out, np.full((1, 1, 3, 3), 2.0))

    def test_hand_cross_correlation(self):
        # centre and bottom-right taps: out[i, j] = x[i, j] + x[i + 1, j + 1], zero outside
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = k[0, 0, 2, 2] = 1.0
        out, _ = ops.conv2d_forward(x, k)
        np.testing.assert_array_equal(out, [[[[5.0, 2.0], [3.0, 4.0]]]])

    def test_same_padding_shape(self):
        out, _ = ops.conv2d_forward(np.zeros((1, 1, 32, 32)), np.zeros((4, 1, 3, 3)))
        assert out.shape == (1, 4, 32, 32)

    # kernel size 2 * radius + 1 on an (6 + extra) x (5 + extra) input, so
    # every case has one even and one odd extent
    @pytest.mark.parametrize("radius,extra", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_loop_oracle(self, radius, extra):
        rng = np.random.default_rng([radius, extra])
        k = 2 * radius + 1
        x = rng.normal(size=(2, 3, 6 + extra, 5 + extra))
        kernel = rng.normal(size=(4, 3, k, k))
        out, _ = ops.conv2d_forward(x, kernel)
        np.testing.assert_allclose(out, loop_conv2d(x, kernel, 1, radius), atol=1e-12)

    def test_one_by_one_kernel_equals_channel_affine(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 5, 4, 4))
        k = rng.normal(size=(3, 5, 1, 1))
        out, _ = ops.conv2d_forward(x, k)
        # per-pixel affine map across channels
        expected = np.einsum("nchw,oc->nohw", x, k[:, :, 0, 0])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_kernel_too_large(self):
        # same padding fits any kernel to a nonempty input; an empty one is too small
        with pytest.raises(DimensionError):
            ops.conv2d_forward(np.zeros((1, 1, 0, 4)), np.zeros((1, 1, 5, 5)))

    @pytest.mark.parametrize("kh,kw", [(2, 2), (4, 4), (3, 1), (1, 3)])
    def test_even_or_non_square_kernel_rejected(self, kh, kw):
        with pytest.raises(DimensionError, match="odd square kernel"):
            ops.conv2d_forward(np.zeros((1, 1, 6, 6)), np.zeros((1, 1, kh, kw)))

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_kernel_grad_same_without_input_grad(self, k):
        rng = np.random.default_rng(k)
        out, cache = ops.conv2d_forward(rng.normal(size=(3, 2, 7, 6)), rng.normal(size=(4, 2, k, k)))
        dout = rng.normal(size=out.shape)
        # the kernel-only backward leaves the cache whole; the full one then writes over its columns
        no_dx, dk_only = ops.conv2d_backward(dout, cache, input_grad=False)
        dx, dk = ops.conv2d_backward(dout, cache)
        assert dx.shape == (3, 2, 7, 6) and no_dx is None
        assert dk_only.tobytes() == dk.tobytes()


def _loop_pool_grad(x, dout):
    """Scatter ``dout`` to the oracle's first-maximum cells."""
    _, source = loop_maxpool2d(x, 2, 2)
    dx = np.zeros_like(x)
    for idx in np.ndindex(dout.shape):
        r, q = source[idx]
        dx[idx[0], idx[1], r, q] += dout[idx]
    return dx


class TestMaxPool:
    """2x2 windows with stride 2."""

    def test_basic(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out, _ = ops.maxpool2d_forward(x)
        np.testing.assert_array_equal(out, [[[[4.0]]]])

    def test_gradient_routes_to_argmax(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        _, cache = ops.maxpool2d_forward(x)
        dx = ops.maxpool2d_backward(np.ones((1, 1, 1, 1)), cache)
        np.testing.assert_array_equal(dx, [[[[0.0, 0.0], [0.0, 1.0]]]])

    def test_tie_routes_to_first_index(self):
        x = np.ones((1, 1, 4, 4))
        _, cache = ops.maxpool2d_forward(x)
        dx = ops.maxpool2d_backward(np.ones((1, 1, 2, 2)), cache)
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, ::2, ::2] = 1.0
        np.testing.assert_array_equal(dx, expected)

    def test_one_nonzero_per_window(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 8, 8))
        out, cache = ops.maxpool2d_forward(x)
        dx = ops.maxpool2d_backward(np.ones_like(out), cache)
        counts = dx.reshape(2, 3, 4, 2, 4, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 3, 16, 4)
        assert ((counts != 0).sum(axis=-1) == 1).all()

    def test_window_too_large(self):
        with pytest.raises(DimensionError):
            ops.maxpool2d_forward(np.zeros((1, 1, 1, 4)))

    def test_odd_last_row_and_column_dropped(self):
        x = np.arange(25.0).reshape(1, 1, 5, 5)
        out, cache = ops.maxpool2d_forward(x)
        np.testing.assert_array_equal(out, [[[[6.0, 8.0], [16.0, 18.0]]]])
        dx = ops.maxpool2d_backward(np.ones_like(out), cache)
        assert not dx[..., 4, :].any() and not dx[..., :, 4].any()

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("h,w", [(4, 6), (5, 7), (6, 5), (3, 3), (8, 8)])
    def test_matches_loop_oracle(self, h, w, ties):
        rng = np.random.default_rng([h, w])
        x = rng.normal(size=(2, 3, h, w))
        if ties:
            x = np.round(x)  # few distinct values, so most windows tie
        out, cache = ops.maxpool2d_forward(x)
        expected, _ = loop_maxpool2d(x, 2, 2)
        np.testing.assert_array_equal(out, expected)
        dout = rng.normal(size=out.shape)
        np.testing.assert_array_equal(ops.maxpool2d_backward(dout, cache), _loop_pool_grad(x, dout))


class TestRelu:
    def test_values(self):
        out, _ = ops.relu_forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_subgradient_mask(self):
        _, mask = ops.relu_forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(ops.relu_backward(np.ones(3), mask), [0.0, 0.0, 1.0])

    def test_positive_identity(self):
        x = np.array([0.5, 3.0, 7.1])
        out, _ = ops.relu_forward(x)
        np.testing.assert_array_equal(out, x)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 5))
        once, _ = ops.relu_forward(x)
        twice, _ = ops.relu_forward(once)
        np.testing.assert_array_equal(once, twice)


def _batch_last(a):
    """The same values as ``a`` (NCHW), with the batch axis innermost in memory."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestMemoryOrder:
    """Every backbone op gives the same bits on NCHW-contiguous input and on the
    same values in batch-last memory, the order the backbone runs in."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv2d(self, k):
        rng = np.random.default_rng(k)
        x, kernel = rng.normal(size=(5, 3, 7, 6)), rng.normal(size=(4, 3, k, k))
        out, cache = ops.conv2d_forward(x, kernel)
        out_bl, cache_bl = ops.conv2d_forward(_batch_last(x), kernel)
        assert _same_bits(out, out_bl)
        dout = rng.normal(size=out.shape)
        dx, dk = ops.conv2d_backward(dout, cache)
        dx_bl, dk_bl = ops.conv2d_backward(_batch_last(dout), cache_bl)
        assert _same_bits(dx, dx_bl) and _same_bits(dk, dk_bl)

    def test_maxpool2d(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 3, 7, 6))
        x[:, :, 0, 1] = x[:, :, 0, 0]  # ties
        out, cache = ops.maxpool2d_forward(x)
        out_bl, cache_bl = ops.maxpool2d_forward(_batch_last(x))
        assert _same_bits(out, out_bl)
        dout = rng.normal(size=out.shape)
        dx_bl = ops.maxpool2d_backward(_batch_last(dout), cache_bl)
        assert _same_bits(ops.maxpool2d_backward(dout, cache), dx_bl)
        assert dx_bl.transpose(1, 2, 3, 0).flags.c_contiguous  # the layout is kept

    def test_relu(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3, 4, 4))
        out, mask = ops.relu_forward(x)
        out_bl, mask_bl = ops.relu_forward(_batch_last(x))
        assert _same_bits(out, out_bl)
        dout = rng.normal(size=x.shape)
        assert _same_bits(ops.relu_backward(dout, mask), ops.relu_backward(_batch_last(dout), mask_bl))


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out, _ = ops.dropout_forward(x, 0.0, True, 1)
        np.testing.assert_array_equal(out, x)

    def test_eval_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out, cache = ops.dropout_forward(x, 0.5, False, 1)
        np.testing.assert_array_equal(out, x)
        assert cache is None

    def test_unbiased_mean_over_many_draws(self):
        # inverted dropout: E[out] == input; Monte-Carlo over 10^4 masks
        x = np.full(8, 2.0)
        acc = np.zeros_like(x)
        draws = 10_000
        for s in range(draws):
            out, _ = ops.dropout_forward(x, 0.5, True, [42, s])
            acc += out
        np.testing.assert_allclose(acc / draws, x, rtol=0.05)

    def test_identity_passes_return_their_input(self):
        x = np.arange(6.0).reshape(2, 3)
        for rate, training in ((0.5, False), (0.0, True)):
            out, cache = ops.dropout_forward(x, rate, training, 1)
            assert out is x and cache is None
        assert ops.dropout_backward(x, None) is x

    def test_gradient_uses_same_mask(self):
        x = np.arange(12.0).reshape(3, 4) + 1.0
        out, cache = ops.dropout_forward(x, 0.5, True, 7)
        dx = ops.dropout_backward(np.ones_like(x), cache)
        np.testing.assert_array_equal((out != 0), (dx != 0))


class TestSigmoid:
    def test_zero(self):
        assert ops.sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturation_no_overflow(self):
        out = ops.sigmoid(np.array([1000.0, -1000.0]))
        assert abs(out[0] - 1.0) < 1e-12
        assert abs(out[1]) < 1e-12
        assert np.isfinite(out).all()


class TestGradients:
    """Central finite differences on the gradcheck draws, 20 per op."""

    @pytest.mark.parametrize("seed", range(20))
    def test_affine(self, seed):
        assert check_case("layers", "affine", seed) <= TOLERANCES["affine"]

    @pytest.mark.parametrize("seed", range(20))
    def test_conv2d(self, seed):
        assert check_case("layers", "conv2d", seed) <= TOLERANCES["conv2d"]

    @pytest.mark.parametrize("seed", range(20))
    def test_maxpool(self, seed):
        assert check_case("layers", "maxpool2d", seed) <= TOLERANCES["maxpool2d"]

    @pytest.mark.parametrize("seed", range(20))
    def test_relu_dropout_sigmoid(self, seed):
        assert check_case("layers", "relu", seed) <= TOLERANCES["relu"]
        assert check_case("layers", "dropout", seed) <= TOLERANCES["dropout"]
