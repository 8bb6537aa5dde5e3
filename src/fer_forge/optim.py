"""SGD, RMSProp and Adam with an inverse-time learning-rate schedule.

All three share the schedule lr_t = lr / (1 + decay * t), where t is the
global update count (first update sees t = 1). The moment constants are
fixed at the usual framework defaults: Adam beta1=0.9 / beta2=0.999,
RMSProp rho=0.9, epsilon 1e-7. SGD is the plain step lr_t * grad.
"""

from dataclasses import dataclass

import numpy as np

from . import blas

KINDS = ("sgd", "rmsprop", "adam")
RHO = 0.9
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-7
BLOCK = 1 << 15  # elements a step updates at a time: 128 KB of float32 stays in cache


@dataclass
class OptimizerConfig:
    kind: str
    learning_rate: float
    decay: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"optimizer kind must be one of {KINDS}, got {self.kind!r}")
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.decay < 0:
            raise ValueError(f"decay must be >= 0, got {self.decay}")


def schedule_lr(cfg: OptimizerConfig, t: int) -> float:
    return cfg.learning_rate / (1.0 + cfg.decay * t)


class Optimizer:
    """Updates a parameter list in place, one ``step`` per batch.

    Holds the update count and only the moments its rule reads: Adam keeps
    first and second moments, RMSProp the second, SGD none.
    """

    def __init__(self, cfg: OptimizerConfig, params: list[np.ndarray]):
        self.cfg = cfg
        self.params = params
        self.t = 0
        self.m = [np.zeros_like(p) for p in params] if cfg.kind == "adam" else []
        self.v = [np.zeros_like(p) for p in params] if cfg.kind != "sgd" else []

    def step(self, grads: list[np.ndarray]):
        """One update of every parameter from its gradient, which shares its dtype.

        Each lane of ``blas.each_lane`` takes one run of the parameters' blocks of
        ``BLOCK`` elements. A block runs the operations of the textbook expressions in
        their order, each writing into one of the lane's two scratch blocks.
        """
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        self.t += 1
        lr = schedule_lr(self.cfg, self.t)
        # views, but of a gradient that is a transpose (a tap conv's kernels), a copy
        flat = [(w.reshape(-1, copy=False), g.reshape(-1),
                 *(s[i].reshape(-1, copy=False) for s in (self.v, self.m) if s))
                for i, (w, g) in enumerate(zip(self.params, grads))]
        blocks = [[x[lo:lo + BLOCK] for x in arrays] for arrays in flat
                  for lo in range(0, arrays[0].size, BLOCK)]
        nbytes = max((block[0].nbytes for block in blocks), default=0)
        blas.single_thread()
        lanes = blas.lane_count(len(blocks))

        def run(j):
            scratch = (np.empty(nbytes, np.uint8), np.empty(nbytes, np.uint8))
            for w, *rest in blocks[len(blocks) * j // lanes: len(blocks) * (j + 1) // lanes]:
                a, b = (buf[: w.nbytes].view(w.dtype) for buf in scratch)
                self._update(lr, a, b, w, *rest)

        blas.each_lane(lanes, run)

    def _update(self, lr, a, b, w, g, v=None, m=None):
        """One block's update; ``a`` and ``b`` are scratch of the block's size and dtype."""
        if self.cfg.kind == "sgd":
            np.multiply(g, lr, out=a)
            w -= a
            return
        if self.cfg.kind == "rmsprop":
            # v = RHO * v + (1 - RHO) * g^2; w -= lr * g / (sqrt(v) + EPSILON)
            v *= RHO
            np.square(g, out=a)
            a *= 1.0 - RHO
            v += a
            np.multiply(g, lr, out=a)
            np.sqrt(v, out=b)
        else:
            # m = BETA1 * m + (1 - BETA1) * g; v = BETA2 * v + (1 - BETA2) * g^2;
            # w -= lr * m_hat / (sqrt(v_hat) + EPSILON), the hats bias-corrected
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.square(g, out=a)
            a *= 1.0 - BETA2
            v += a
            np.divide(m, 1.0 - BETA1**self.t, out=a)
            a *= lr
            np.divide(v, 1.0 - BETA2**self.t, out=b)
            np.sqrt(b, out=b)
        b += EPSILON
        a /= b
        w -= a
