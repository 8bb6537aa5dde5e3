import logging
import math

import numpy as np
import pytest

from fer_forge import layers as L
from fer_forge.gradcheck import check_layer_detailed, fd_gradient, relative_error
from fer_forge.layers import LayerSpec, cross_entropy_loss
from fer_forge.models import Network
from fer_forge.tensor import ShapeError


def forward(layer, x, train=False, seed=0):
    """``layer.forward``; a training dropout keeps the units of a mask drawn from ``seed``."""
    if train and layer.kind == "dropout":
        return layer.forward(x, True, keep=layer.keep_mask(x.shape, np.random.default_rng(seed)))
    return layer.forward(x, train)


def dense_with(weights, bias):
    layer = L.Dense(weights.shape[1])
    layer.params = [weights, bias]
    return layer


class TestReLU:
    def test_examples(self):
        assert np.array_equal(forward(L.ReLU(), np.array([[-1.0, 0.0, 2.0]])), [[0.0, 0.0, 2.0]])
        assert not forward(L.ReLU(), np.array([[-3.0, -0.5, -1e-9]])).any()

    def test_backward_subgradient(self):
        layer = L.ReLU()
        forward(layer, np.array([[-1.0, 2.0]]), train=True)
        assert np.array_equal(layer.backward(np.array([[5.0, 7.0]])), [[0.0, 7.0]])

    def test_zero_input_gets_zero_gradient(self):
        layer = L.ReLU()
        forward(layer, np.array([[0.0]]), train=True)
        assert np.array_equal(layer.backward(np.array([[3.0]])), [[0.0]])


class TestSoftmax:
    def test_uniform_over_seven_zeros(self):
        out = forward(L.Softmax(), np.zeros((1, 7)))
        assert np.allclose(out, 1.0 / 7.0)

    def test_large_symmetric_logits_stable(self):
        out = forward(L.Softmax(), np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, [[0.5, 0.5]])
        assert np.isfinite(out).all()

    def test_closed_form_quarter_three_quarters(self):
        out = forward(L.Softmax(), np.array([[0.0, math.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]])

    def test_sums_to_one_and_open_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = forward(L.Softmax(), rng.normal(0, 5, size=(1, 7)))
            assert abs(out.sum() - 1.0) < 1e-6
            assert ((out > 0) & (out < 1)).all()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            forward(L.Softmax(), np.array([[1.0, np.nan]]))


class TestDense:
    def test_identity_weights(self):
        x = np.array([[1.0, -2.0, 3.0]])
        assert np.array_equal(forward(dense_with(np.eye(3), np.zeros(3)), x), x)

    def test_hand_arithmetic(self):
        layer = dense_with(np.array([[1.0], [1.0]]), np.array([3.0]))
        assert np.array_equal(forward(layer, np.array([[1.0, 2.0]])), [[6.0]])

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5))
        w = rng.standard_normal((5, 3))
        b = rng.standard_normal(3)
        proj = rng.standard_normal((2, 3))
        layer = dense_with(w, b)

        def loss():
            return float(np.sum(forward(layer, x) * proj))

        forward(layer, x, train=True)
        gx = layer.backward(proj)
        gw, gb = layer.grads
        assert relative_error(gx, fd_gradient(loss, x)) < 1e-6
        assert relative_error(gw, fd_gradient(loss, w)) < 1e-6
        assert relative_error(gb, fd_gradient(loss, b)) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward(dense_with(np.zeros((5, 2)), np.zeros(2)), np.zeros((1, 4)))


class TestDropout:
    def test_rate_zero_identity_both_modes(self):
        x = np.random.default_rng(2).random((1, 100))
        for train in (True, False):
            layer = L.Dropout(0.0)
            assert np.array_equal(forward(layer, x, train), x)
            assert layer._cache is None

    def test_infer_mode_is_identity(self):
        x = np.random.default_rng(3).random((1, 50))
        layer = L.Dropout(0.7)
        assert forward(layer, x) is x
        assert layer._cache is None

    def test_expectation_preserved(self):
        x = np.ones((1, 10_000))
        out = forward(L.Dropout(0.5), x, train=True, seed=42)
        assert abs(out.mean() - 1.0) < 0.05

    def test_survivors_scaled(self):
        x = np.ones((1, 1000))
        layer = L.Dropout(0.25)
        out = forward(layer, x, train=True, seed=7)
        kept = out[out != 0]
        assert np.allclose(kept, 1.0 / 0.75)
        keep, scale = layer._cache
        assert keep.dtype == bool and np.array_equal(out, keep * scale)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bool_mask_gives_the_float_mask_products_bit_for_bit(self, dtype):
        # the float mask keep / (1 - rate), signed zeros included
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 3, 5, 2)).astype(dtype)
        grad = rng.standard_normal(x.shape).astype(dtype)
        layer = L.Dropout(0.2)
        keep = layer.keep_mask(x.shape, np.random.default_rng(12))
        float_mask = keep.astype(dtype, order="C") / (1.0 - 0.2)
        out = forward(layer, x, train=True, seed=12)
        assert out.dtype == dtype and out.tobytes() == (x * float_mask).tobytes()
        assert layer.backward(grad).tobytes() == (grad * float_mask).tobytes()
        assert np.signbit(out[~keep]).any()

    def test_training_forward_without_a_mask_raises(self):
        x = np.ones((2, 5))
        with pytest.raises(TypeError):
            L.Dropout(0.5).forward(x, True)
        assert L.Dropout(0.0).forward(x, True) is x  # rate 0 needs no mask

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            L.Dropout(1.0)

    def test_image_batch_drops_the_units_of_a_channels_first_draw(self):
        # the mask is drawn in [N,C,H,W] order: the same seed on the
        # channels-last batch zeroes the units of that draw
        x = np.random.default_rng(8).random((3, 2, 5, 4)) + 1.0  # [N,C,H,W], no zeros
        keep = np.random.default_rng(9).random(x.shape) >= 0.4
        layer = L.Dropout(0.4)
        out = forward(layer, x.transpose(0, 2, 3, 1), train=True, seed=9)
        assert out.shape == layer._cache[0].shape == (3, 5, 4, 2) and out.flags.c_contiguous
        assert np.array_equal(out.transpose(0, 3, 1, 2) != 0, keep)
        assert np.array_equal(out.transpose(0, 3, 1, 2), x * (keep / 0.6))


class TestFlatten:
    """Channels-last batches flatten to rows in [C,H,W] order, the model file's order."""

    def test_architecture_length(self):
        x = np.zeros((2, 7, 7, 256))
        assert forward(L.Flatten(), x).shape == (2, 12544)

    def test_degenerate(self):
        assert forward(L.Flatten(), np.ones((1, 1, 1, 1))).shape == (1, 1)

    def test_round_trip(self):
        layer = L.Flatten()
        x = np.random.default_rng(4).random((2, 4, 5, 3))
        out = forward(layer, x, train=True)
        assert np.array_equal(layer.backward(out), x)

    def test_row_major_order(self):
        x = np.arange(24).reshape(1, 2, 3, 4)  # [C,H,W] order: arange of the NCHW batch
        out = forward(L.Flatten(), x.transpose(0, 2, 3, 1))
        assert np.array_equal(out, np.arange(24).reshape(1, 24))


def one_dense_network(l2_penalty):
    """Flatten -> dense(7) -> softmax on 1x2x2 images, weights 0.5, bias 0."""
    net = Network([LayerSpec("flatten"), LayerSpec("dense", {"units": 7, "l2_penalty": l2_penalty}),
                   LayerSpec("softmax")], input_shape=(1, 2, 2))
    net.layers[1].params[0][...] = 0.5
    return net


class TestCrossEntropy:
    def test_certain_prediction_zero_loss(self):
        probs = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        target = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert cross_entropy_loss(probs, target) == 0.0

    def test_uniform_probs_ln7(self):
        probs = np.full(7, 1.0 / 7.0)
        target = np.zeros(7)
        target[3] = 1.0
        assert abs(cross_entropy_loss(probs, target) - math.log(7.0)) < 1e-9

    def test_l2_term_hand_arithmetic(self):
        # equal logits give uniform probabilities (-log p = ln 7); sum(W^2) = 28 * 0.25 = 7
        net = one_dense_network(0.001)
        x = np.random.default_rng(0).random((2, 1, 2, 2)).astype(np.float32)
        target = np.eye(7, dtype=np.float32)[[1, 4]]
        loss, probs = net.loss_and_grad(x, target)
        assert loss == cross_entropy_loss(probs, target) + 0.001 * 7.0
        assert abs(loss - (math.log(7.0) + 0.007)) < 1e-6

    def test_degenerate_prob_clamped_and_logged(self, caplog):
        probs = np.array([1.0, 0.0])
        target = np.array([0.0, 1.0])
        with caplog.at_level(logging.WARNING):
            loss = cross_entropy_loss(probs, target)
        assert np.isfinite(loss)
        assert abs(loss - -math.log(1e-12)) < 1e-6
        assert "clamped" in caplog.text

    def test_batch_mean(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        target = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = (-math.log(0.5) - math.log(0.75)) / 2.0
        # 2-class rows are fine: the loss only reads the true-class column
        assert abs(cross_entropy_loss(probs, target) - expected) < 1e-12


class TestFusedSoftmaxXent:
    def test_fused_equals_chained_jacobian(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            layer = L.Softmax()
            probs = forward(layer, rng.normal(0, 2, size=(1, 7)), train=True)
            target = np.zeros((1, 7))
            target[0, rng.integers(0, 7)] = 1.0
            # d(-log p_true)/d probs chained through the softmax Jacobian
            chained = layer.backward(-target / probs)
            assert np.abs(chained - (probs - target)).max() < 1e-6

    def test_fused_matches_finite_differences(self):
        # the network's loss and parameter gradients, L2 term included, in float64
        net = one_dense_network(0.001)
        net.layers[1].params = [np.random.default_rng(6).normal(0, 1, (4, 7)), np.zeros(7)]
        x = np.random.default_rng(7).random((2, 1, 2, 2))
        target = np.eye(7)[[2, 5]]

        def loss():
            return net.loss_and_grad(x, target)[0]

        loss()
        for analytic, param in zip(net.gradients(), net.parameters()):
            assert relative_error(analytic, fd_gradient(loss, param)) < 1e-6


class TestAllLayerKindsFiniteDifferences:
    """The module's main test surface: every backward vs central differences."""

    CASES = [  # per-sample input shapes: (H,W,C) images, (D,) features
        (LayerSpec("conv2d", {"filters": 4, "kernel_size": 3}), (8, 8, 2)),
        (LayerSpec("conv2d", {"filters": 3, "kernel_size": 3}), (6, 6, 2)),
        (LayerSpec("maxpool2d"), (6, 6, 2)),
        (LayerSpec("relu"), (5, 5, 2)),
        (LayerSpec("dense", {"units": 6}), (9,)),
        (LayerSpec("dense", {"units": 4, "l2_penalty": 0.001}), (7,)),
        (LayerSpec("dropout", {"rate": 0.3}), (5, 5, 2)),
        (LayerSpec("flatten"), (3, 4, 2)),
        (LayerSpec("softmax"), (7,)),
        (LayerSpec("conv2d", {"filters": 3, "kernel_size": 3}), (7, 7, 9)),
    ]

    @pytest.mark.parametrize(
        "spec,in_shape", CASES, ids=[f"{s.kind}-{i}" for i, (s, _) in enumerate(CASES)]
    )
    def test_backward_matches_fd(self, spec, in_shape):
        err, _ = check_layer_detailed(spec.materialize(), in_shape, seed=1234)
        assert err < 1e-5

    def test_l2_gradient_is_two_lambda_w(self):
        w = np.random.default_rng(7).standard_normal((4, 3))
        layer = dense_with(w, np.zeros(3))
        layer.l2_penalty = 0.001
        numeric = fd_gradient(layer.penalty, w)
        assert relative_error(2.0 * 0.001 * w, numeric) < 1e-6


class TestRetainedCaches:
    """Training keeps what backward needs and no patch matrix; inference keeps nothing."""

    def _built(self, spec, in_shape):
        layer = spec.materialize()
        layer.build(in_shape, np.random.default_rng(0))
        return layer

    def test_conv_keeps_only_its_input_when_training(self):
        layer = self._built(LayerSpec("conv2d", {"filters": 8}), (6, 6, 16))
        x = np.random.default_rng(1).standard_normal((2, 6, 6, 16)).astype(np.float32)
        layer.forward(x, True)
        assert layer._cache is x
        layer.forward(x, False)
        assert layer._cache is None

    def test_pool_keeps_one_byte_per_window_when_training(self):
        layer = self._built(LayerSpec("maxpool2d"), (6, 8, 3))
        x = np.random.default_rng(2).standard_normal((2, 6, 8, 3)).astype(np.float32)
        out = layer.forward(x, True)
        assert layer._cache.winners.nbytes == out.size
        assert np.array_equal(layer.forward(x, False), out)
        assert layer._cache is None

    def test_relu_keeps_a_bool_mask_not_its_input(self):
        layer = self._built(LayerSpec("relu"), (4, 4, 3))
        x = np.random.default_rng(4).standard_normal((2, 4, 4, 3)).astype(np.float32)
        out = layer.forward(x, True)
        assert layer._cache.dtype == bool and np.array_equal(layer._cache, out > 0)
        grad = np.random.default_rng(5).standard_normal(x.shape).astype(np.float32)
        assert np.array_equal(layer.backward(grad), grad * (x > 0))

    KINDS = {  # every layer kind with a per-sample input shape it accepts
        "conv2d": ({"filters": 4}, (5, 5, 2)),
        "maxpool2d": ({}, (4, 4, 2)),
        "relu": ({}, (3, 3, 2)),
        "dense": ({"units": 5}, (6,)),
        "dropout": ({"rate": 0.5}, (6,)),
        "flatten": ({}, (3, 3, 2)),
        "softmax": ({}, (6,)),
    }

    def test_table_covers_every_layer_kind(self):
        assert set(self.KINDS) == set(L.LAYER_KINDS)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_inference_keeps_nothing_and_training_still_backpropagates(self, kind):
        hyper, in_shape = self.KINDS[kind]
        layer = self._built(LayerSpec(kind, hyper), in_shape)
        x = np.random.default_rng(3).standard_normal((2, *in_shape)).astype(np.float32)
        out = forward(layer, x, train=True)
        inferred = forward(layer, x)
        assert layer._cache is None
        if kind != "dropout":  # dropout's training output is masked
            assert np.array_equal(inferred, out)
        out = forward(layer, x, train=True)
        assert layer.backward(np.ones_like(out)).shape == x.shape


class TestLayerSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown layer kind"):
            LayerSpec("attention").materialize()

    def test_invalid_hyperparams_rejected(self):
        with pytest.raises(ValueError):
            L.Dropout(1.5)
        with pytest.raises(ValueError):
            L.Dense(0)
        with pytest.raises(ValueError):
            L.Conv2D(0)
        with pytest.raises(ValueError):
            L.Dense(4, l2_penalty=-1.0)
