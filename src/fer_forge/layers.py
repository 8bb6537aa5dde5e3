"""Layer forward/backward passes and the categorical cross-entropy loss.

Each Layer class holds its own math, its parameters and a per-forward
cache, so networks can run a backward pass without an autodiff graph.
Layers take [N,H,W,C] or [N,D] batches and ``build`` per-sample shapes. All
backward passes are checked against central finite differences in the
test suite.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from . import blas
from .tensor import (
    ShapeError,
    conv2d,
    conv2d_backward,
    maxpool,
    maxpool_argmax,
    maxpool_backward,
)

log = logging.getLogger(__name__)


def cross_entropy_loss(probs: np.ndarray, target_onehot: np.ndarray) -> float:
    """Categorical cross-entropy -log p[true].

    ``probs`` must come from a softmax; a batch is averaged. Probabilities
    at the true class are clamped at 1e-12 before the log.
    """
    if probs.shape != target_onehot.shape:
        raise ShapeError(f"probs {probs.shape} and targets {target_onehot.shape} disagree")
    true_p = (probs * target_onehot).sum(axis=-1)
    degenerate = true_p <= 0
    if degenerate.any():
        log.warning("clamped %d degenerate probabilities before log", int(degenerate.sum()))
        true_p = np.maximum(true_p, 1e-12)
    return float(-np.log(true_p).mean())


class Layer:
    """Base layer: parameters, their gradients and a per-forward cache.

    ``grads`` holds the parameter gradients the last ``backward`` computed
    and is empty before the first. ``backward`` returns the gradient at the
    layer's input; a layer with parameters skips it, returning None, when
    called with ``input_grad=False``. ``_cache`` holds what ``backward`` needs
    from a training forward; a forward with ``train=False`` leaves it None.
    """

    kind = "layer"

    def __init__(self):
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []
        self._cache = None

    def build(self, in_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        return in_shape

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def penalty(self) -> float:
        """This layer's term of the training loss beyond the cross-entropy."""
        return 0.0


def _uniform(rng: np.random.Generator | None, shape, fan: int) -> np.ndarray:
    """Uniform float32 in +-sqrt(6 / fan); without ``rng``, a stand-in that allocates nothing."""
    if rng is None:
        return np.broadcast_to(np.float32(0), shape)
    limit = np.sqrt(6.0 / fan)
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class Conv2D(Layer):
    """A stride-1, unpadded convolution; ``padding`` is only the 0 every saved arch records."""

    kind = "conv2d"

    def __init__(self, filters: int, kernel_size: int = 3, padding: int = 0):
        super().__init__()
        if filters < 1:
            raise ValueError(f"filter count must be >= 1, got {filters}")
        if kernel_size < 1:
            raise ValueError(f"kernel size must be >= 1, got {kernel_size}")
        if padding != 0:
            raise ValueError(f"convolutions are unpadded: padding must be 0, got {padding}")
        self.filters = filters
        self.kernel_size = kernel_size

    def build(self, in_shape, rng):
        if len(in_shape) != 3:
            raise ShapeError(f"conv2d expects (H,W,C) input, got {in_shape}")
        h, w, c = in_shape
        k = self.kernel_size
        if k > min(h, w):
            raise ShapeError(f"{k}x{k} kernel does not fit a {h}x{w} input")
        kernels = _uniform(rng, (self.filters, c, k, k), c * k * k)
        bias = np.zeros(self.filters, dtype=np.float32)
        self.params = [kernels, bias]
        return (h - k + 1, w - k + 1, self.filters)

    def forward(self, x, train):
        self._cache = x if train else None
        return conv2d(x, self.params[0], self.params[1])

    def backward(self, grad, input_grad=True):
        self.grads = []  # the last step's gradients go first, lowering the step's peak memory
        grad_x, *self.grads = conv2d_backward(self._cache, self.params[0], grad, input_grad)
        return grad_x


class MaxPool2D(Layer):
    kind = "maxpool2d"

    def build(self, in_shape, rng):
        if len(in_shape) != 3:
            raise ShapeError(f"maxpool2d expects (H,W,C) input, got {in_shape}")
        h, w, c = in_shape
        if h < 2 or w < 2:
            raise ShapeError(f"maxpool2d needs spatial dims >= 2, got {in_shape}")
        return (h // 2, w // 2, c)

    def forward(self, x, train):
        if not train:
            self._cache = None
            return maxpool(x)
        out, self._cache = maxpool_argmax(x)
        return out

    def backward(self, grad):
        return maxpool_backward(self._cache, grad)


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, train):
        out = np.maximum(x, 0)
        # a bool mask, a quarter of the output's bytes: out = relu(x) is > 0 exactly
        # where x is, and the subgradient at 0 is 0
        self._cache = out > 0 if train else None
        return out

    def backward(self, grad):
        return grad * self._cache


class Dense(Layer):
    kind = "dense"

    def __init__(self, units: int, l2_penalty: float = 0.0, init: str = "he"):
        super().__init__()
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        if l2_penalty < 0:
            raise ValueError(f"l2 penalty must be >= 0, got {l2_penalty}")
        if init not in ("he", "glorot"):
            raise ValueError(f"init must be 'he' or 'glorot', got {init!r}")
        self.units = units
        self.l2_penalty = l2_penalty
        self.init = init

    def build(self, in_shape, rng):
        if len(in_shape) != 1:
            raise ShapeError(f"dense expects flattened input, got {in_shape}")
        d = in_shape[0]
        weights = _uniform(rng, (d, self.units), d + self.units if self.init == "glorot" else d)
        bias = np.zeros(self.units, dtype=np.float32)
        self.params = [weights, bias]
        return (self.units,)

    def forward(self, x, train):
        weights, bias = self.params
        if x.shape[-1] != weights.shape[0]:
            raise ShapeError(
                f"dense input axis ({x.shape[-1]}) does not match weight rows ({weights.shape[0]})"
            )
        self._cache = x if train else None
        if not train:
            return x @ weights + bias
        out = np.empty((len(x), self.units), np.result_type(x, weights, bias))
        _each_column_block(len(x), weights.shape,
                           lambda cols, _: np.matmul(x, weights[:, cols], out=out[:, cols]))
        out += bias
        return out

    def backward(self, grad, input_grad=True):
        # the last step's gradients go first and the input gradient is made last, which
        # lowers the peak memory of a training step
        self.grads = []
        x, weights = self._cache, self.params[0]
        grad_w = np.empty(weights.shape, np.result_type(x, grad))
        grad_x = np.empty(x.shape, np.result_type(grad, weights)) if input_grad else None

        def block(cols, rows):
            np.matmul(x.T, grad[:, cols], out=grad_w[:, cols])
            if self.l2_penalty:
                grad_w[:, cols] += 2.0 * self.l2_penalty * weights[:, cols]
            if input_grad:  # by input column: a one-row block of the batch would run as gemv
                np.matmul(grad, weights[rows].T, out=grad_x[:, rows])

        _each_column_block(len(x), weights.shape, block)
        self.grads = [grad_w, grad.sum(axis=0)]
        return grad_x

    def penalty(self):
        """l2_penalty * sum(W^2), summed in float64; 0.0 without reading W when unpenalized."""
        if not self.l2_penalty:
            return 0.0
        return self.l2_penalty * float(np.sum(np.square(self.params[0], dtype=np.float64)))


def _each_column_block(rows, shape, work):
    """``work(cols, ins)`` on each lane: its blocks of the units and of the D inputs of
    a [D,units] weight, cut at multiples of 64, where the whole product's kernel tails
    fall. One lane per 64 units; one below ``models.SHARD_IMAGES`` rows, where OpenBLAS's
    small-matrix kernel would sum a block in another order."""
    from .models import SHARD_IMAGES  # here: models imports this module
    d, units = shape
    lanes = blas.lane_count(units // 64) if rows >= SHARD_IMAGES else 1

    def cut(size, j):
        return size if j == lanes else 64 * (size // 64 * j // lanes)

    blas.each_lane(lanes, lambda j: work(slice(cut(units, j), cut(units, j + 1)),
                                         slice(cut(d, j), cut(d, j + 1))))


class Dropout(Layer):
    kind = "dropout"

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0,1), got {rate}")
        self.rate = rate

    def keep_mask(self, shape, rng):
        """The bool keep mask of a training forward on a batch of ``shape``; None at rate 0.

        An image batch's mask is drawn in [N,C,H,W] order, so the layout does
        not change which units a seed drops.
        """
        if self.rate == 0.0:
            return None
        draw = (shape[0], shape[-1], *shape[1:-1])
        return np.moveaxis(rng.random(draw), 1, -1) >= self.rate

    def forward(self, x, train, keep=None):
        """Inverted dropout: zero with probability ``rate``, scale survivors by 1/(1-rate).

        Inference mode is the identity, so training-time expectations match
        inference activations. A training forward at a nonzero rate keeps the
        units of ``keep``, the mask ``keep_mask`` drew for this batch. The
        cache holds the mask and the survivor scale, and is None in inference
        mode.
        """
        if not train or self.rate == 0.0:
            self._cache = None
            return x
        # 1/(1-rate) rounded in the input's dtype, so x * keep * scale is bit for bit
        # x * (keep / (1 - rate)) in that dtype, signed zeros included
        scale = np.ones((), x.dtype) / (1.0 - self.rate)
        self._cache = keep, scale
        out = np.multiply(x, keep, out=np.empty(x.shape, x.dtype))
        out *= scale
        return out

    def backward(self, grad):
        if self._cache is None:
            return grad
        keep, scale = self._cache
        out = grad * keep
        out *= scale
        return out


class Flatten(Layer):
    kind = "flatten"

    def build(self, in_shape, rng):
        if len(in_shape) != 3:
            raise ShapeError(f"flatten expects (H,W,C) input, got {in_shape}")
        return (int(np.prod(in_shape)),)

    def forward(self, x, train):
        """Each sample of an [N,H,W,C] batch as a row in [C,H,W] order, as dense weights expect."""
        self._cache = x.shape if train else None
        return x.transpose(0, 3, 1, 2).reshape(x.shape[0], -1)

    def backward(self, grad):
        n, h, w, c = self._cache
        return grad.reshape(n, c, h, w).transpose(0, 2, 3, 1)


class Softmax(Layer):
    kind = "softmax"

    def build(self, in_shape, rng):
        if len(in_shape) != 1:
            raise ShapeError(f"softmax expects a vector input, got {in_shape}")
        return in_shape

    def forward(self, x, train):
        """Row-wise softmax with max-subtraction for overflow safety."""
        if not np.all(np.isfinite(x)):
            raise ValueError("softmax input contains non-finite values")
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=-1, keepdims=True)
        self._cache = probs if train else None
        return probs

    def backward(self, grad):
        """Jacobian-vector product of softmax: p * (g - <g, p>)."""
        probs = self._cache
        inner = (grad * probs).sum(axis=-1, keepdims=True)
        return probs * (grad - inner)


LAYER_KINDS = {
    cls.kind: cls for cls in (Conv2D, MaxPool2D, ReLU, Dense, Dropout, Flatten, Softmax)
}


@dataclass
class LayerSpec:
    """Declarative layer description; ``materialize`` builds the Layer."""

    kind: str
    hyper: dict = field(default_factory=dict)

    def materialize(self) -> Layer:
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        return LAYER_KINDS[self.kind](**self.hyper)
