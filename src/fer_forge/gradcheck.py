"""Finite-difference verification of every hand-written backward pass.

All checks run in float64 with central differences (step H = 1e-6); the
reported error is the largest absolute deviation normalized by the largest
gradient magnitude, and a layer passes below TOLERANCE = 1e-5. Dropout
layers are checked under a pinned mask so the perturbed forward passes
stay deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .layers import Layer, LayerSpec
from .models import ARCHITECTURE_SPECS, Network
from .seeding import DEFAULT_SEED, derive_seed

H = 1e-6
TOLERANCE = 1e-5


def fd_gradient(f, arr: np.ndarray) -> np.ndarray:
    """Central finite differences of scalar ``f()`` w.r.t. ``arr`` (mutated in place)."""
    grad = np.zeros_like(arr)
    flat, gflat = arr.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + H
        f_plus = f()
        flat[i] = orig - H
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * H)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max deviation scaled by the largest gradient magnitude."""
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-12)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def check_layer_detailed(layer: Layer, in_shape: tuple[int, ...], seed: int) -> tuple[float, str]:
    """Max relative FD error over a layer's gradients, plus which one it was.

    The layer sees a batch of two samples of ``in_shape``. The scalar
    objective is a random projection of the output, plus the layer's own
    L2 penalty so regularized gradients are exercised too.
    Returns (error, gradient label) where the label is "input" or "param N".
    """
    out_shape = layer.build(in_shape, np.random.default_rng(derive_seed(seed, "build")))
    layer.params = [p.astype(np.float64) for p in layer.params]

    x = np.random.default_rng(derive_seed(seed, "input")).standard_normal((2, *in_shape))
    proj = np.random.default_rng(derive_seed(seed, "proj")).standard_normal((2, *out_shape))
    masked = {}
    if layer.kind == "dropout":
        masked["keep"] = layer.keep_mask(x.shape, np.random.default_rng(derive_seed(seed, "mask")))

    def objective() -> float:
        out = layer.forward(x, True, **masked)
        return float(np.sum(out * proj)) + layer.penalty()

    objective()  # populate caches for the analytic pass
    analytic_x = layer.backward(proj.copy())

    worst = relative_error(analytic_x, fd_gradient(objective, x))
    worst_part = "input"
    for i, (analytic, param) in enumerate(zip(layer.grads, layer.params)):
        err = relative_error(analytic, fd_gradient(objective, param))
        if err > worst:
            worst, worst_part = err, f"param {i}"
    return worst, worst_part


_TOY_INPUTS = {  # per sample: (H,W,C) images, (D,) features; a conv's is per layer
    "maxpool2d": (12, 12, 2),
    "relu": (12, 12, 2),
    "dropout": (12, 12, 2),
    "flatten": (6, 6, 2),
    "dense": (24,),
    "softmax": (7,),
}


def _toy_twin(spec: LayerSpec) -> LayerSpec:
    hyper = dict(spec.hyper)
    if spec.kind == "conv2d":
        hyper["filters"] = min(hyper.get("filters", 8), 8)
    elif spec.kind == "dense":
        hyper["units"] = min(hyper.get("units", 8), 8)
    return LayerSpec(spec.kind, hyper)


@dataclass
class LayerResult:
    label: str
    error: float
    worst_part: str


@dataclass
class GradcheckReport:
    entries: list[LayerResult]

    @property
    def passed(self) -> bool:
        return all(e.error < TOLERANCE for e in self.entries)

    @property
    def worst(self) -> LayerResult:
        return max(self.entries, key=lambda e: e.error)


def gradcheck_architecture(model_name: str, seed: int = DEFAULT_SEED) -> GradcheckReport:
    """Finite-difference check of every layer of an architecture at toy sizes.

    Each layer is rebuilt as a small twin (channels and units capped at 8,
    spatial extent 12x12) and checked independently. A conv twin takes the
    real layer's input channels, capped at 8, so that it runs the same conv
    kernel as the real layer: patch matrix or summed taps.
    """
    if model_name not in ARCHITECTURE_SPECS:
        raise ValueError(f"unknown architecture {model_name!r}")
    specs = ARCHITECTURE_SPECS[model_name]()
    trace = Network(specs).shape_trace()
    entries = []
    for idx, spec in enumerate(specs):
        if spec.kind == "conv2d":
            in_shape = (12, 12, min(trace[idx][-1], 8))
        else:
            in_shape = _TOY_INPUTS[spec.kind]
        err, part = check_layer_detailed(
            _toy_twin(spec).materialize(), in_shape, derive_seed(seed, "layer", idx)
        )
        detail = ",".join(f"{k}={v}" for k, v in spec.hyper.items())
        label = f"{idx:02d}:{spec.kind}({detail})" if detail else f"{idx:02d}:{spec.kind}"
        entries.append(LayerResult(label, err, part))
    return GradcheckReport(entries)
