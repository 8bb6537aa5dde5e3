import numpy as np
import pytest

from conftest import matmul
from fer_forge.gradcheck import fd_gradient, relative_error
from fer_forge.tensor import (
    ShapeError,
    conv2d,
    conv2d_backward,
    maxpool_argmax,
    maxpool_backward,
)
from tensor_oracle import conv2d_forward, conv2d_forward_direct, maxpool_forward


def pool_oracle(x):
    """Per-window max via nested loops."""
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2), dtype=x.dtype)
    for ci in range(c):
        for oy in range(h // 2):
            for ox in range(w // 2):
                out[ci, oy, ox] = x[ci, 2 * oy : 2 * oy + 2, 2 * ox : 2 * ox + 2].max()
    return out


class TestConvGeometry:
    """Stride 1, no padding: the output is (H - kh + 1, W - kw + 1)."""

    def test_output_dim_formula_holds_for_constructed_convs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            size = int(rng.integers(k, 12))
            x = rng.standard_normal((1, size, size)).astype(np.float32)
            kernels = rng.standard_normal((2, 1, k, k)).astype(np.float32)
            out = conv2d_forward(x, kernels, np.zeros(2, np.float32))
            expected = size - k + 1
            assert out.shape == (2, expected, expected)

    @pytest.mark.parametrize("kwargs", [
        {"kernel_h": 0, "kernel_w": 3},
        {"kernel_h": 3, "kernel_w": 0},
        {"kernel_h": 3, "kernel_w": 6},
    ])
    def test_invalid_geometry_rejected(self, kwargs):
        x = np.zeros((1, 5, 5, 1), np.float32)
        kernels = np.zeros((2, 1, kwargs["kernel_h"], kwargs["kernel_w"]), np.float32)
        with pytest.raises(ShapeError, match="does not fit"):
            conv2d(x, kernels, np.zeros(2, np.float32))
        with pytest.raises(ShapeError, match="does not fit"):
            conv2d_backward(x, kernels, np.zeros((1, 1, 1, 2), np.float32))

    def test_too_small_input_rejected(self):
        with pytest.raises(ShapeError, match="3x3 kernel does not fit a 2x2 input"):
            conv2d(np.zeros((1, 2, 2, 1), np.float32), np.zeros((1, 1, 3, 3), np.float32),
                   np.zeros(1, np.float32))


class TestConv2DForward:
    def test_5x5_with_3x3_kernel_gives_3x3(self):
        x = np.random.default_rng(1).random((1, 5, 5), dtype=np.float32)
        kernels = np.random.default_rng(2).random((1, 1, 3, 3), dtype=np.float32)
        out = conv2d_forward(x, kernels, np.zeros(1, np.float32))
        assert out.shape == (1, 3, 3)

    def test_all_ones_window_sums(self):
        x = np.ones((1, 5, 5), dtype=np.float32)
        kernels = np.ones((1, 1, 3, 3), dtype=np.float32)
        out = conv2d_forward(x, kernels, np.zeros(1, np.float32))
        assert np.array_equal(out, np.full((1, 3, 3), 9.0, dtype=np.float32))

    def test_zero_kernel_annihilates(self):
        x = np.random.default_rng(3).random((2, 6, 6), dtype=np.float32)
        kernels = np.zeros((3, 2, 3, 3), dtype=np.float32)
        out = conv2d_forward(x, kernels, np.zeros(3, np.float32))
        assert np.array_equal(out, np.zeros((3, 4, 4), dtype=np.float32))

    def test_matches_oracle_and_direct_path(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = int(rng.integers(1, 3))
            size = int(rng.integers(5, 17))
            c_out = int(rng.integers(1, 4))
            x = rng.standard_normal((c, size, size)).astype(np.float32)
            kernels = rng.standard_normal((c_out, c, 3, 3)).astype(np.float32)
            bias = rng.standard_normal(c_out).astype(np.float32)
            fast = conv2d_forward(x, kernels, bias)
            direct = conv2d_forward_direct(x, kernels, bias)
            scale = max(1.0, float(np.abs(direct).max()))
            assert np.abs(fast - direct).max() < 1e-6 * scale

    def test_batch_equals_stacked_singles(self):
        rng = np.random.default_rng(6)
        xb = rng.standard_normal((3, 2, 7, 7)).astype(np.float32)
        kernels = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        batched = conv2d_forward(xb, kernels, bias)
        singles = np.stack([conv2d_forward(xb[i], kernels, bias) for i in range(3)])
        assert np.allclose(batched, singles, atol=1e-6)

    def test_channel_mismatch_names_axes(self):
        x = np.zeros((2, 5, 5), dtype=np.float32)
        kernels = np.zeros((1, 3, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError, match="channel"):
            conv2d_forward(x, kernels, np.zeros(1, np.float32))

    def test_bias_mismatch_rejected(self):
        x = np.zeros((1, 5, 5), dtype=np.float32)
        kernels = np.zeros((2, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError, match="bias"):
            conv2d_forward(x, kernels, np.zeros(3, np.float32))


class TestConv2DBackward:
    def test_zero_grad_out_zeroes_everything(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 6, 6, 2)).astype(np.float32)
        kernels = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        grad_out = np.zeros((1, 4, 4, 3), np.float32)
        gx, gk, gb = conv2d_backward(x, kernels, grad_out)
        assert not gx.any() and not gk.any() and not gb.any()

    def test_1x1_kernel_grad_is_input_weighted_sum(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 4, 4, 1))
        kernels = rng.standard_normal((1, 1, 1, 1))
        grad_out = rng.standard_normal((1, 4, 4, 1))
        _, gk, gb = conv2d_backward(x, kernels, grad_out)
        assert np.isclose(gk[0, 0, 0, 0], np.sum(x * grad_out))
        assert np.isclose(gb[0], grad_out.sum())

    def test_finite_differences_random_instance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 6, 6, 1))
        kernels = rng.standard_normal((2, 1, 3, 3))
        bias = rng.standard_normal(2)
        proj = rng.standard_normal((1, 4, 4, 2))

        def loss():
            return float(np.sum(conv2d(x, kernels, bias) * proj))

        gx, gk, gb = conv2d_backward(x, kernels, proj)
        assert relative_error(gx, fd_gradient(loss, x)) < 1e-5
        assert relative_error(gk, fd_gradient(loss, kernels)) < 1e-5
        assert relative_error(gb, fd_gradient(loss, bias)) < 1e-5

    @pytest.mark.parametrize("c_in", [1, 16])  # the patch-matrix and the per-tap path
    def test_without_input_grad_same_parameter_grads(self, c_in):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 8, 8, c_in)).astype(np.float32)
        kernels = rng.standard_normal((4, c_in, 3, 3)).astype(np.float32)
        grad_out = rng.standard_normal((2, 6, 6, 4)).astype(np.float32)
        _, gk, gb = conv2d_backward(x, kernels, grad_out)
        gx, gk_only, gb_only = conv2d_backward(x, kernels, grad_out, input_grad=False)
        assert gx is None
        assert np.array_equal(gk, gk_only) and np.array_equal(gb, gb_only)

    def test_grad_out_shape_mismatch_rejected(self):
        x = np.zeros((1, 6, 6, 1), dtype=np.float32)
        kernels = np.zeros((1, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError, match="grad_out"):
            conv2d_backward(x, kernels, np.zeros((1, 3, 3, 1), np.float32))


class TestConvChannelsLast:
    """``conv2d`` itself: [N,H,W,C] in, [N,oh,ow,C_out] out, against the NCHW oracle."""

    @pytest.mark.parametrize("c_in,grow", [(1, 0), (2, 1), (8, 0), (9, 1)])
    def test_matches_direct_through_a_transpose(self, c_in, grow):
        # ``grow`` adds that many rows and columns on each side of an 8x7 input
        rng = np.random.default_rng(50 + c_in)
        x = rng.standard_normal((2, 8 + 2 * grow, 7 + 2 * grow, c_in)).astype(np.float32)
        kernels = rng.standard_normal((4, c_in, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        out = conv2d(x, kernels, bias)
        direct = conv2d_forward_direct(x.transpose(0, 3, 1, 2), kernels, bias)
        assert out.flags.c_contiguous and out.dtype == np.float32
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(out - direct.transpose(0, 2, 3, 1)).max() < 1e-6 * scale

    def test_unbatched_input_rejected(self):
        kernels = np.zeros((1, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError, match=r"\[N,H,W,C\]"):
            conv2d(np.zeros((5, 5, 2), np.float32), kernels, np.zeros(1, np.float32))


class TestConvTapPath:
    """C_in * kh * kw above the patch-matrix switch: the per-tap GEMM kernels."""

    @pytest.mark.parametrize("c_in,grow", [(8, 0), (16, 1), (9, 1), (12, 2)])
    def test_forward_matches_direct_on_batches(self, c_in, grow):
        # ``grow`` adds that many rows and columns on each side of a 9x8 input
        rng = np.random.default_rng(20 + c_in)
        x = rng.standard_normal((3, c_in, 9 + 2 * grow, 8 + 2 * grow)).astype(np.float32)
        kernels = rng.standard_normal((5, c_in, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(5).astype(np.float32)
        fast = conv2d_forward(x, kernels, bias)
        direct = conv2d_forward_direct(x, kernels, bias)
        assert fast.shape == direct.shape and fast.dtype == np.float32
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(fast - direct).max() < 1e-6 * scale
        singles = np.stack([conv2d_forward(x[i], kernels, bias) for i in range(3)])
        assert np.array_equal(singles, fast)

    @pytest.mark.parametrize("grow", [0, 1])
    def test_finite_differences_batch(self, grow):
        # ``grow`` adds that many rows and columns on each side of a 7x6 input
        rng = np.random.default_rng(31 + grow)
        x = rng.standard_normal((2, 7 + 2 * grow, 6 + 2 * grow, 10))
        kernels = rng.standard_normal((3, 10, 3, 3))
        bias = rng.standard_normal(3)
        proj = rng.standard_normal(conv2d(x, kernels, bias).shape)

        def loss():
            return float(np.sum(conv2d(x, kernels, bias) * proj))

        gx, gk, gb = conv2d_backward(x, kernels, proj)
        assert gx.dtype == gk.dtype == np.float64
        assert relative_error(gx, fd_gradient(loss, x)) < 1e-5
        assert relative_error(gk, fd_gradient(loss, kernels)) < 1e-5
        assert relative_error(gb, fd_gradient(loss, bias)) < 1e-5

    def test_float32_backward_matches_float64(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((4, 10, 10, 32))
        kernels = rng.standard_normal((16, 32, 3, 3))
        grad_out = rng.standard_normal((4, 8, 8, 16))
        exact = conv2d_backward(x, kernels, grad_out)
        single = conv2d_backward(
            x.astype(np.float32), kernels.astype(np.float32), grad_out.astype(np.float32)
        )
        for a, b in zip(exact, single):
            assert b.dtype == np.float32
            assert relative_error(b.astype(np.float64), a) < 1e-5


class TestMaxPool:
    def test_single_window(self):
        out, _ = maxpool_forward(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert np.array_equal(out, [[[4.0]]])

    def test_4x4_halves_to_2x2(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out, _ = maxpool_forward(x)
        assert out.shape == (1, 2, 2)
        assert np.array_equal(out, [[[5.0, 7.0], [13.0, 15.0]]])

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 8, 8)).astype(np.float32)
        out, _ = maxpool_forward(x)
        assert np.array_equal(out, pool_oracle(x))

    def test_odd_dims_truncate(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 5, 7)).astype(np.float32)
        out, _ = maxpool_forward(x)
        assert out.shape == (2, 2, 3)
        assert np.array_equal(out, pool_oracle(x[:, :4, :6]))

    def test_backward_routes_to_argmax(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        _, index_map = maxpool_argmax(x)
        grad = maxpool_backward(index_map, np.full((1, 1, 1, 1), 5.0))
        assert np.array_equal(grad[..., 0], [[[0.0, 0.0], [0.0, 5.0]]])

    def test_backward_zero_grad(self):
        rng = np.random.default_rng(13)
        _, index_map = maxpool_argmax(rng.standard_normal((1, 6, 6, 2)))
        grad = maxpool_backward(index_map, np.zeros((1, 3, 3, 2)))
        assert not grad.any()

    def test_finite_differences(self):
        x = np.random.default_rng(14).standard_normal((1, 6, 6, 1))

        def loss():
            return float(maxpool_argmax(x)[0].sum())

        _, index_map = maxpool_argmax(x)
        analytic = maxpool_backward(index_map, np.ones((1, 3, 3, 1)))
        assert relative_error(analytic, fd_gradient(loss, x)) < 1e-6

    def test_ties_route_to_first_in_raster_order(self):
        # relu zeros tie whole windows; the earliest element takes the gradient
        x = np.maximum(np.array([[-1.0, -2.0, 0.0, 3.0], [0.0, -4.0, 3.0, 1.0]]), 0)
        out, index_map = maxpool_argmax(x.reshape(1, 2, 4, 1))
        assert np.array_equal(out[..., 0], [[[0.0, 3.0]]])
        grad = maxpool_backward(index_map, np.array([2.0, 5.0]).reshape(1, 1, 2, 1))
        assert np.array_equal(grad[..., 0], [[[2.0, 0.0, 0.0, 5.0], [0.0, 0.0, 0.0, 0.0]]])

    def test_ties_in_batch_match_loop_argmax(self):
        rng = np.random.default_rng(17)
        x = np.maximum(rng.integers(-2, 3, (3, 6, 7, 2)).astype(np.float32), 0)
        out, index_map = maxpool_argmax(x)
        grad = maxpool_backward(index_map, np.ones_like(out))
        expected = np.zeros_like(x)
        for b, oy, ox, c in np.ndindex(out.shape):
            window = x[b, 2 * oy : 2 * oy + 2, 2 * ox : 2 * ox + 2, c].ravel()
            k = int(np.argmax(window))  # first maximum in raster order
            expected[b, 2 * oy + k // 2, 2 * ox + k % 2, c] = 1.0
        assert np.array_equal(grad, expected)

    def test_ones_grad_sums_to_window_count(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 8, 10, 3))
        out, index_map = maxpool_argmax(x)
        grad = maxpool_backward(index_map, np.ones_like(out))
        assert grad.sum() == out.size

    def test_nchw_entry_is_the_channels_last_kernel_transposed(self):
        x = np.random.default_rng(18).standard_normal((2, 3, 6, 8)).astype(np.float32)
        out, index_map = maxpool_forward(x)
        nhwc_out, nhwc_map = maxpool_argmax(x.transpose(0, 2, 3, 1))
        assert np.array_equal(out, nhwc_out.transpose(0, 3, 1, 2))
        assert np.array_equal(index_map.winners, nhwc_map.winners)


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(16).standard_normal((2, 2))
        assert np.allclose(matmul(np.eye(2), a), a)

    def test_hand_arithmetic(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
        assert np.array_equal(out, [[17.0], [39.0]])

    def test_ones_counting(self):
        k = 9
        out = matmul(np.ones((1, k)), np.ones((k, 1)))
        assert np.array_equal(out, [[float(k)]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match="inner axes"):
            matmul(np.ones((2, 3)), np.ones((4, 2)))
