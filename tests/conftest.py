"""Shared fixtures: synthetic CSV builders, datasets, cascades, malformed model files
and the small helpers only tests use."""

import json
import struct

import numpy as np
import pytest

from fer_forge import blas
from fer_forge.data import NUM_CLASSES, LabeledDataset
from fer_forge.models import FORMAT_VERSION, MAGIC
from fer_forge.tensor import ShapeError


def make_fer_csv(rows, header="emotion,pixels,Usage"):
    """Assemble CSV text from (emotion, pixel-iterable, usage) triples."""
    lines = [header]
    for emotion, pixels, usage in rows:
        pixel_str = " ".join(str(int(p)) for p in pixels)
        if usage is None:
            lines.append(f"{emotion},{pixel_str}")
        else:
            lines.append(f"{emotion},{pixel_str},{usage}")
    return "\n".join(lines) + "\n"


def random_rows(n, seed=0, usage_cycle=("Training", "PublicTest", "PrivateTest")):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        usage = usage_cycle[i % len(usage_cycle)] if usage_cycle else None
        rows.append((i % 7, rng.integers(0, 256, 2304), usage))
    return rows


def synthetic_dataset(n, seed=0) -> LabeledDataset:
    """Random images with labels cycling through the 7 classes."""
    rng = np.random.default_rng(seed)
    images = rng.random((n, 1, 48, 48)).astype(np.float32)
    labels = (np.arange(n) % 7).astype(np.int64)
    onehots = np.zeros((n, 7), dtype=np.float32)
    onehots[np.arange(n), labels] = 1.0
    return LabeledDataset(images, labels, onehots)


def accept_all_cascade_doc(window=24):
    """Single stage that can never fail; the stump's rects cancel exactly."""
    return {
        "window_width": window,
        "window_height": window,
        "stages": [
            {
                "threshold": -1e9,
                "stumps": [
                    {
                        "rects": [[0, 0, window, window, 1.0], [0, 0, window, window, -1.0]],
                        "threshold": 0.0,
                        "left": 0.0,
                        "right": 0.0,
                    }
                ],
            }
        ],
    }


def reject_all_cascade_doc(window=24, stages=2):
    """First stage threshold is unreachable; later stages prove short-circuit."""
    stage = {
        "threshold": 1e9,
        "stumps": [
            {
                "rects": [[0, 0, window, window, 1.0], [0, 0, window, window, -1.0]],
                "threshold": 0.0,
                "left": 0.0,
                "right": 0.0,
            }
        ],
    }
    return {
        "window_width": window,
        "window_height": window,
        "stages": [dict(stage) for _ in range(stages)],
    }


def dark_top_cascade_doc(window=24):
    """One stump firing on dark-top/bright-bottom windows.

    The feature is (bottom weight +2 over half) + (full weight -1): positive
    when the bottom half is brighter. Windows with the feature above the
    stump threshold score +1 and pass the 0.5 stage threshold; others score
    -1 and fail.
    """
    half = window // 2
    return {
        "window_width": window,
        "window_height": window,
        "stages": [
            {
                "threshold": 0.5,
                "stumps": [
                    {
                        "rects": [[0, 0, window, window, -1.0], [0, half, window, half, 2.0]],
                        "threshold": 1.0,
                        "left": -1.0,
                        "right": 1.0,
                    }
                ],
            }
        ],
    }


@pytest.fixture
def pin_blas_threads():
    """A function that sets OpenBLAS's thread count through ``fer_forge.blas``; the count
    the test started with is restored afterwards. Where the count cannot be read and set,
    pinning does nothing and every shard runs on one lane, the calling thread."""
    before = blas.blas_threads()
    yield blas.set_blas_threads
    if before is not None:
        blas.set_blas_threads(before)


@pytest.fixture
def tiny_dataset():
    return synthetic_dataset(12, seed=7)


def write_arch_only(path, arch) -> str:
    """A model file with the given arch descriptor and no tensors."""
    blob = json.dumps(arch).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(blob)) + blob)
        fh.write(struct.pack("<I", 0))
    return str(path)


MALFORMED_ARCHS = {
    "layer-without-kind": (
        {"input_shape": [1, 48, 48], "num_classes": 7, "layers": [{"hyper": {}}]},
        "arch layer 0",
    ),
    "non-object": ([1, 2, 3], "JSON object"),
    "unknown-hyper-key": (
        {"input_shape": [4], "num_classes": 7,
         "layers": [{"kind": "dense", "hyper": {"units": 7}}, {"kind": "softmax", "hyper": {"bogus": 1}}]},
        "arch layer 1",
    ),
    "unknown-dense-init": (
        {"input_shape": [4], "num_classes": 7,
         "layers": [{"kind": "dense", "hyper": {"units": 7, "init": "glorrot"}}, {"kind": "softmax"}]},
        "arch layer 0",
    ),
    "conv-padding-1": (
        {"input_shape": [1, 8, 8], "num_classes": 7,
         "layers": [{"kind": "conv2d", "hyper": {"filters": 2, "kernel_size": 3, "padding": 1}},
                    {"kind": "flatten"}, {"kind": "dense", "hyper": {"units": 7}}, {"kind": "softmax"}]},
        "arch layer 0",
    ),
    "conv-kernel-0": (
        {"input_shape": [1, 8, 8], "num_classes": 7,
         "layers": [{"kind": "conv2d", "hyper": {"filters": 2, "kernel_size": 0, "padding": 0}},
                    {"kind": "flatten"}, {"kind": "dense", "hyper": {"units": 7}}, {"kind": "softmax"}]},
        "arch layer 0",
    ),
    "invalid-stack": (
        {"input_shape": [1, 8, 8], "num_classes": 7,
         "layers": [{"kind": "flatten"}, {"kind": "conv2d", "hyper": {"filters": 2}}, {"kind": "softmax"}]},
        "layer 1",
    ),
}


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-D tensors."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"inner axes disagree: a columns ({a.shape[1]}) vs b rows ({b.shape[0]})"
        )
    return a @ b


def denormalize_pixels(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float32) * 255.0


def one_hot(label: int) -> np.ndarray:
    if not 0 <= label < NUM_CLASSES:
        raise ValueError(f"label {label} outside 0..{NUM_CLASSES - 1}")
    vec = np.zeros(NUM_CLASSES, dtype=np.float32)
    vec[label] = 1.0
    return vec


def class_histogram(dataset: LabeledDataset) -> np.ndarray:
    """Per-class sample counts, indexed by emotion label."""
    return np.bincount(dataset.labels, minlength=NUM_CLASSES)


def check_confusion_row_sums(matrix, dataset: LabeledDataset) -> bool:
    """Row sums of the confusion matrix must equal the per-class test counts."""
    return bool(np.array_equal(matrix.counts.sum(axis=1), class_histogram(dataset)))
