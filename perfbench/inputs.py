"""Seeded synthetic inputs. The same seed always gives the same inputs.

The generators keep the amount of work nearly independent of the seed,
so that run-to-run spread measures the program and not the draw: split
sizes are exact counts, classes are equally frequent, the class
templates are the same for every seed, and planted detector patterns
have fixed sizes.
"""

import json

import numpy as np

SIDE = 48
NUM_CLASSES = 7
NOISE_LEVELS = 110
# Each class lifts its own six 6x6 blocks by 30 levels over the 0..109
# noise: a weak signal spread over many pixels, as in faces, so no single
# pixel separates the classes. A default tree fit on 600 such images grows
# about 50 nodes, 26 levels deep.
CLASS_BLOCKS = 6
BLOCK = 6
CLASS_LIFT = 30

FRAME_H, FRAME_W = 240, 320
# scan window sizes at scale 1.1**12, **8, **4, **0; largest placed first
PLANTED_SIZES = (75, 51, 51, 35, 35, 24, 24)
PLACEMENT_TRIES = 1000
PATTERN_GAP = 16
CROP_SIZES = (40, 120)


def class_templates() -> np.ndarray:
    """uint8 [7,48,48] lift of each class; drawn from a fixed seed, not the run's."""
    layout = np.random.default_rng(0)
    templates = np.zeros((NUM_CLASSES, SIDE, SIDE), dtype=np.uint8)
    for template in templates:
        for y, x in layout.integers(0, SIDE - BLOCK + 1, size=(CLASS_BLOCKS, 2)):
            template[y : y + BLOCK, x : x + BLOCK] = CLASS_LIFT
    return templates


def fer_pixels(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """uint8 [n,48,48] images and their labels 0..6, every class equally often."""
    labels = np.resize(np.arange(NUM_CLASSES), n)
    rng.shuffle(labels)
    pixels = rng.integers(0, NOISE_LEVELS, size=(n, SIDE, SIDE), dtype=np.uint8)
    pixels += class_templates()[labels]
    return pixels, labels.astype(np.int64)


def usage_tags(rng: np.random.Generator, n: int, n_train: int) -> np.ndarray:
    """``n_train`` Training tags, the rest half PublicTest, half PrivateTest; shuffled."""
    n_public = (n - n_train) // 2
    tags = np.array(["Training"] * n_train + ["PublicTest"] * n_public
                    + ["PrivateTest"] * (n - n_train - n_public))
    rng.shuffle(tags)
    return tags


def write_fer_csv(path: str, pixels: np.ndarray, labels: np.ndarray, usage: np.ndarray):
    words = np.array([str(v) for v in range(256)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("emotion,pixels,Usage\n")
        for label, row, tag in zip(labels, pixels.reshape(len(labels), -1), usage):
            fh.write(f"{label},{' '.join(words[row].tolist())},{tag}\n")


def cascade_doc(rng: np.random.Generator) -> dict:
    """Two-stage cascade for the cross pattern planted by ``frame``.

    Stage 1 compares the left third of the window with the middle third;
    stage 2 needs a bright-dark-bright horizontal band structure and a dark
    centre. The seed draws the stump votes; geometry and feature thresholds
    are fixed, so every seed rejects the same windows.
    """

    def stump(rects, threshold):
        return {"rects": rects, "threshold": threshold,
                "left": float(rng.uniform(-1.0, -0.5)), "right": float(rng.uniform(0.5, 1.0))}

    def stage(stumps):
        # a stage passes only when every stump votes right
        right = [s["right"] for s in stumps]
        return {"threshold": sum(right) - 0.25 * min(right), "stumps": stumps}

    return {
        "window_width": 24,
        "window_height": 24,
        "stages": [
            stage([stump([[0, 0, 8, 24, 1], [8, 0, 8, 24, -1]], 150.0)]),
            stage([
                stump([[0, 0, 24, 8, 1], [0, 8, 24, 8, -2], [0, 16, 24, 8, 1]], 300.0),
                stump([[0, 0, 24, 24, 1], [8, 8, 8, 8, -9]], 150.0),
            ]),
        ],
    }


def write_cascade(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def cross_pattern(size: int) -> np.ndarray:
    """Bright square with a dark cross through its middle thirds."""
    a, b = round(size / 3), round(2 * size / 3)
    pattern = np.full((size, size), 220, dtype=np.uint8)
    pattern[a:b, :] = 40
    pattern[:, a:b] = 40
    return pattern


def frame(rng: np.random.Generator) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
    """uint8 320x240 noise frame with crosses planted apart; returns (image, boxes)."""
    image = rng.integers(0, 256, size=(FRAME_H, FRAME_W)).astype(np.uint8)
    boxes = None
    while boxes is None:  # a layout that leaves no room starts over
        boxes = _layout(rng)
    for x, y, size, _ in boxes:
        image[y : y + size, x : x + size] = cross_pattern(size)
    return image, boxes


def _layout(rng: np.random.Generator) -> list[tuple[int, int, int, int]] | None:
    boxes: list[tuple[int, int, int, int]] = []
    for size in PLANTED_SIZES:
        for _ in range(PLACEMENT_TRIES):
            x = int(rng.integers(0, FRAME_W - size + 1))
            y = int(rng.integers(0, FRAME_H - size + 1))
            if all(x + size + PATTERN_GAP <= bx or bx + bw + PATTERN_GAP <= x
                   or y + size + PATTERN_GAP <= by or by + bh + PATTERN_GAP <= y
                   for bx, by, bw, bh in boxes):
                boxes.append((x, y, size, size))
                break
        else:
            return None
    return boxes


def crop_boxes(rng: np.random.Generator, n: int) -> list[tuple[int, int, int, int]]:
    """Random square boxes inside a frame, for batch-1 predictions."""
    boxes = []
    for _ in range(n):
        size = int(rng.integers(CROP_SIZES[0], CROP_SIZES[1] + 1))
        boxes.append((int(rng.integers(0, FRAME_W - size + 1)),
                      int(rng.integers(0, FRAME_H - size + 1)), size, size))
    return boxes


def iou(a, b) -> float:
    ix = max(0, min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]))
    iy = max(0, min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]))
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)
