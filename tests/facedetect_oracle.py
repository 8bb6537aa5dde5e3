"""Reference detector: the per-window scan and the quadratic grouping.

These are the package's original ``rect_sum``, ``eval_window``,
``_overlap_ratio``, ``group_hits`` and ``detect``, kept verbatim as the
oracle that the array scan and the component grouping in
``fer_forge.facedetect`` must reproduce exactly: the same hit list in the
same order, and the same detections.
"""

from typing import Callable

import numpy as np

from fer_forge.facedetect import (
    CascadeModel,
    Detection,
    _scaled,
    integral_image,
    log,
)


def rect_sum(ii: np.ndarray, x: int, y: int, w: int, h: int):
    return ii[y + h, x + w] - ii[y, x + w] - ii[y + h, x] + ii[y, x]


def eval_window(
    cascade: CascadeModel,
    ii: np.ndarray,
    ii_sq: np.ndarray,
    x: int,
    y: int,
    scale: float = 1.0,
    on_stage: Callable[[int], None] | None = None,
) -> bool:
    """Run the staged classifier on one window; False at the first failing stage.

    Rect sums are taken relative to the window mean and divided by the
    window's pixel standard deviation (floored at 1.0) times the window
    area ratio, so feature values are exactly invariant to positive affine
    intensity changes and comparable across scales. Rect corners scale by
    rounding, which keeps them inside the scaled window.

    ``on_stage`` is invoked with each stage index actually evaluated, which
    lets tests prove the short-circuit.
    """
    win_w = _scaled(cascade.window_w, scale)
    win_h = _scaled(cascade.window_h, scale)
    area = win_w * win_h
    total = float(rect_sum(ii, x, y, win_w, win_h))
    total_sq = float(rect_sum(ii_sq, x, y, win_w, win_h))
    mean = total / area
    variance = max(total_sq / area - mean * mean, 0.0)
    norm = max(np.sqrt(variance), 1.0) * area / (cascade.window_w * cascade.window_h)

    for stage_index, stage in enumerate(cascade.stages):
        if on_stage is not None:
            on_stage(stage_index)
        stage_sum = 0.0
        for stump in stage.stumps:
            raw = 0.0
            for r in stump.rects:
                x0 = x + _scaled(r.x, scale)
                x1 = x + _scaled(r.x + r.w, scale)
                y0 = y + _scaled(r.y, scale)
                y1 = y + _scaled(r.y + r.h, scale)
                rect_area = (x1 - x0) * (y1 - y0)
                raw += r.weight * (
                    float(rect_sum(ii, x0, y0, x1 - x0, y1 - y0)) - mean * rect_area
                )
            feature = raw / norm
            stage_sum += stump.left_value if feature < stump.threshold else stump.right_value
        if stage_sum < stage.threshold:
            return False
    return True


def _overlap_ratio(a, b) -> float:
    ix = max(0, min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]))
    iy = max(0, min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]))
    inter = ix * iy
    return inter / min(a[2] * a[3], b[2] * b[3])


def group_hits(hits: list[tuple[int, int, int, int]], min_neighbors: int) -> list[Detection]:
    """Cluster raw hits whose intersection-over-min-area reaches 0.5.

    Hits are merged union-find style in their given (deterministic) order;
    clusters smaller than ``min_neighbors`` are dropped and survivors
    collapse to their mean box.
    """
    parent = list(range(len(hits)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(hits)):
        for j in range(i + 1, len(hits)):
            if _overlap_ratio(hits[i], hits[j]) >= 0.5:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    clusters: dict[int, list[int]] = {}
    for i in range(len(hits)):
        clusters.setdefault(find(i), []).append(i)

    detections = []
    for root in sorted(clusters):
        members = clusters[root]
        if len(members) < min_neighbors:
            continue
        boxes = np.array([hits[i] for i in members], dtype=np.float64)
        mean = np.round(boxes.mean(axis=0)).astype(int)
        detections.append(Detection(*mean.tolist(), neighbors=len(members)))
    return detections


def detect(
    cascade: CascadeModel,
    gray: np.ndarray,
    scale_factor: float = 1.1,
    min_neighbors: int = 3,
) -> list[Detection]:
    """Multi-scale sliding-window detection over a grayscale image."""
    gray = np.asarray(gray)
    h, w = gray.shape
    if h < cascade.window_h or w < cascade.window_w:
        log.warning("image %dx%d smaller than base window %dx%d",
                    w, h, cascade.window_w, cascade.window_h)
        return []
    if scale_factor <= 1.0:
        raise ValueError(f"scale factor must be > 1, got {scale_factor}")
    ii = integral_image(gray)
    ii_sq = integral_image(
        np.square(gray.astype(np.int64)) if np.issubdtype(gray.dtype, np.integer)
        else np.square(gray.astype(np.float64))
    )

    hits: list[tuple[int, int, int, int]] = []
    scale = 1.0
    while True:
        win_w = _scaled(cascade.window_w, scale)
        win_h = _scaled(cascade.window_h, scale)
        if win_w > w or win_h > h:
            break
        step = max(1, int(round(scale)))
        for y in range(0, h - win_h + 1, step):
            for x in range(0, w - win_w + 1, step):
                if eval_window(cascade, ii, ii_sq, x, y, scale):
                    hits.append((x, y, win_w, win_h))
        scale *= scale_factor
    return group_hits(hits, min_neighbors)
