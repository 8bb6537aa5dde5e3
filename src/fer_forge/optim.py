"""SGD, RMSProp and Adam with an inverse-time learning-rate schedule.

All three share the schedule lr_t = lr / (1 + decay * t), where t is the
global update count (first update sees t = 1). Defaults follow the usual
framework conventions: Adam beta1=0.9 / beta2=0.999, RMSProp rho=0.9,
epsilon 1e-7. SGD is the plain step lr_t * grad.
"""

from dataclasses import dataclass, field

import numpy as np

KINDS = ("sgd", "rmsprop", "adam")


@dataclass
class OptimizerConfig:
    kind: str
    learning_rate: float
    decay: float = 0.0
    rho: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"optimizer kind must be one of {KINDS}, got {self.kind!r}")
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.decay < 0:
            raise ValueError(f"decay must be >= 0, got {self.decay}")
        for name in ("rho", "beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0,1), got {v}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


@dataclass
class OptimizerState:
    """Step counter plus per-parameter first/second moment accumulators."""

    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "OptimizerState":
        return cls(
            t=0,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def schedule_lr(cfg: OptimizerConfig, t: int) -> float:
    return cfg.learning_rate / (1.0 + cfg.decay * t)


def sgd_step(
    w: np.ndarray, grad: np.ndarray, cfg: OptimizerConfig, state: OptimizerState, slot: int = 0
) -> np.ndarray:
    w -= schedule_lr(cfg, state.t) * grad
    return w


def rmsprop_step(
    w: np.ndarray, grad: np.ndarray, cfg: OptimizerConfig, state: OptimizerState, slot: int = 0
) -> np.ndarray:
    lr = schedule_lr(cfg, state.t)
    v = state.v[slot]
    v *= cfg.rho
    v += (1.0 - cfg.rho) * np.square(grad)
    w -= lr * grad / (np.sqrt(v) + cfg.epsilon)
    return w


def adam_step(
    w: np.ndarray, grad: np.ndarray, cfg: OptimizerConfig, state: OptimizerState, slot: int = 0
) -> np.ndarray:
    t = max(state.t, 1)  # bias correction needs t >= 1 even on a fresh state
    lr = schedule_lr(cfg, state.t)
    m, v = state.m[slot], state.v[slot]
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * np.square(grad)
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    w -= lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return w


_STEP_FNS = {"sgd": sgd_step, "rmsprop": rmsprop_step, "adam": adam_step}


class Optimizer:
    """Binds a config and state to a parameter list; one ``step`` per batch."""

    def __init__(self, cfg: OptimizerConfig, params: list[np.ndarray]):
        self.cfg = cfg
        self.params = params
        self.state = OptimizerState.for_params(params)
        self._step_fn = _STEP_FNS[cfg.kind]

    def step(self, grads: list[np.ndarray]):
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        self.state.t += 1
        for i, (w, g) in enumerate(zip(self.params, grads)):
            self._step_fn(w, g, self.cfg, self.state, slot=i)
