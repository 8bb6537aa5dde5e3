"""Write the golden model fixtures used by TestGoldenModel in tests/test_models.py.

The fixtures pin inference and training across kernel rewrites: a tiny
network is built from a fixed seed and saved as ``golden_tiny.femo``. Its
first conv has one input channel (so it takes the patch-matrix path) and
its second has 16 (so it takes the per-tap path); both are 3x3 and
unpadded, and the dense layer maps 128 features to 7 classes. Its class
probabilities for four seeded inputs go to ``golden_tiny.npz``, and the
loss and every parameter gradient of one ``loss_and_grad`` on those
inputs and seeded targets go to ``golden_tiny_grads.npz``. The committed
files were written by the channels-last per-tap and patch-matrix kernels
of unpadded convolution; ``TestGoldenModel`` also checks the probabilities
against the direct-loop oracle of ``tests/tensor_oracle.py``, so they do
not rest on the kernels alone. A run rewrites all three files from the
current kernels. Run from the repository root:

    PYTHONPATH=src python tests/data/make_golden.py
"""

from pathlib import Path

import numpy as np

from fer_forge.layers import LayerSpec
from fer_forge.models import Network, save_model

HERE = Path(__file__).resolve().parent
INPUT_SHAPE = (1, 12, 12)
SPECS = [
    LayerSpec("conv2d", {"filters": 16, "kernel_size": 3}),
    LayerSpec("relu"),
    LayerSpec("conv2d", {"filters": 8, "kernel_size": 3}),
    LayerSpec("relu"),
    LayerSpec("maxpool2d"),
    LayerSpec("flatten"),
    LayerSpec("dense", {"units": 7, "init": "glorot"}),
    LayerSpec("softmax"),
]


def main():
    net = Network(SPECS, INPUT_SHAPE, 7, seed=11)
    save_model(net, str(HERE / "golden_tiny.femo"))
    rng = np.random.default_rng(2024)
    inputs = rng.random((4, *INPUT_SHAPE), dtype=np.float32)
    probs = net.forward(inputs)
    np.savez(HERE / "golden_tiny.npz", inputs=inputs, probs=probs)
    targets = np.eye(7, dtype=np.float32)[rng.integers(0, 7, len(inputs))]
    loss, _ = net.loss_and_grad(inputs, targets)
    grads = {f"grad{i}": g for i, g in enumerate(net.gradients())}
    np.savez(HERE / "golden_tiny_grads.npz", targets=targets, loss=loss, **grads)


if __name__ == "__main__":
    main()
