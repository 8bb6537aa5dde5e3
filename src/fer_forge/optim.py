"""SGD, RMSProp and Adam with an inverse-time learning-rate schedule.

All three share the schedule lr_t = lr / (1 + decay * t), where t is the
global update count (first update sees t = 1). The moment constants are
fixed at the usual framework defaults: Adam beta1=0.9 / beta2=0.999,
RMSProp rho=0.9, epsilon 1e-7. SGD is the plain step lr_t * grad.
"""

from dataclasses import dataclass

import numpy as np

KINDS = ("sgd", "rmsprop", "adam")
RHO = 0.9
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-7


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

        RMSProp and Adam run the operations of the textbook expressions in
        their order, each writing into one of two scratch arrays; those live
        only for this call, at the size of the largest parameter.
        """
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        self.t += 1
        lr = schedule_lr(self.cfg, self.t)
        if self.cfg.kind == "sgd":
            for w, g in zip(self.params, grads):
                w -= lr * g
            return
        nbytes = max((w.nbytes for w in self.params), default=0)
        scratch = (np.empty(nbytes, np.uint8), np.empty(nbytes, np.uint8))
        for i, (w, g) in enumerate(zip(self.params, grads)):
            a, b = (s[: w.nbytes].view(w.dtype).reshape(w.shape) for s in scratch)
            v = self.v[i]
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
                m = self.m[i]
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
