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
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        self.t += 1
        lr = schedule_lr(self.cfg, self.t)
        if self.cfg.kind == "sgd":
            for w, g in zip(self.params, grads):
                w -= lr * g
        elif self.cfg.kind == "rmsprop":
            for w, g, v in zip(self.params, grads, self.v):
                v *= RHO
                v += (1.0 - RHO) * np.square(g)
                w -= lr * g / (np.sqrt(v) + EPSILON)
        else:
            for w, g, m, v in zip(self.params, grads, self.m, self.v):
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * np.square(g)
                m_hat = m / (1.0 - BETA1**self.t)
                v_hat = v / (1.0 - BETA2**self.t)
                w -= lr * m_hat / (np.sqrt(v_hat) + EPSILON)
