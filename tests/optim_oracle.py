"""The per-parameter step functions ``optim.Optimizer`` replaced, kept as an oracle.

``sgd_step``, ``rmsprop_step`` and ``adam_step`` are the earlier
implementations unchanged; ``OracleConfig`` carries the moment constants
they read as settings, at the values ``optim`` now fixes, and
``OracleState`` holds a step counter and both moment lists for every rule.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class OracleConfig:
    kind: str
    learning_rate: float
    decay: float = 0.0
    rho: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7


@dataclass
class OracleState:
    """Step counter plus per-parameter first/second moment accumulators."""

    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "OracleState":
        return cls(
            t=0,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def schedule_lr(cfg: OracleConfig, t: int) -> float:
    return cfg.learning_rate / (1.0 + cfg.decay * t)


def sgd_step(
    w: np.ndarray, grad: np.ndarray, cfg: OracleConfig, state: OracleState, slot: int = 0
) -> np.ndarray:
    w -= schedule_lr(cfg, state.t) * grad
    return w


def rmsprop_step(
    w: np.ndarray, grad: np.ndarray, cfg: OracleConfig, state: OracleState, slot: int = 0
) -> np.ndarray:
    lr = schedule_lr(cfg, state.t)
    v = state.v[slot]
    v *= cfg.rho
    v += (1.0 - cfg.rho) * np.square(grad)
    w -= lr * grad / (np.sqrt(v) + cfg.epsilon)
    return w


def adam_step(
    w: np.ndarray, grad: np.ndarray, cfg: OracleConfig, state: OracleState, slot: int = 0
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


STEP_FNS = {"sgd": sgd_step, "rmsprop": rmsprop_step, "adam": adam_step}


def oracle_step(cfg: OracleConfig, state: OracleState, params, grads):
    """One update of every parameter, as the replaced ``Optimizer.step`` ran it."""
    state.t += 1
    for i, (w, g) in enumerate(zip(params, grads)):
        STEP_FNS[cfg.kind](w, g, cfg, state, slot=i)
