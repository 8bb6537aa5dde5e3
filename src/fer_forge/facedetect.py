"""Haar-cascade face detection and the live-preprocessing chain.

A cascade is an ordered list of stages; each stage sums the outputs of
decision stumps over rectangular Haar features, and a window is rejected
at the first stage whose sum falls below its threshold. Rect sums are
taken relative to the window mean, then divided by the window's pixel
standard deviation (floored at 1.0) and the window area relative to the
base window, making detection invariant to positive affine intensity
changes and consistent across scales.

Cascades load from a JSON file::

    {"window_width": W, "window_height": H,
     "stages": [{"threshold": T,
                 "stumps": [{"rects": [[x, y, w, h, weight], ...],
                             "threshold": t, "left": a, "right": b}, ...]}, ...]}

Rectangles are in base-window coordinates; each stump carries one to three
of them, with weights chosen so they cancel over a uniform image. Public
frontal-face cascade descriptions can be transcribed into this structure
rect-for-rect (see README).

Image input is 8-bit binary PGM (P5) or PPM (P6).
"""

import json
import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

log = logging.getLogger(__name__)


class CascadeFormatError(ValueError):
    pass


class PnmFormatError(ValueError):
    pass


@dataclass(frozen=True)
class HaarRect:
    x: int
    y: int
    w: int
    h: int
    weight: float


@dataclass(frozen=True)
class Stump:
    rects: tuple[HaarRect, ...]
    threshold: float
    left_value: float
    right_value: float


@dataclass(frozen=True)
class Stage:
    threshold: float
    stumps: tuple[Stump, ...]


@dataclass(frozen=True)
class CascadeModel:
    window_w: int
    window_h: int
    stages: tuple[Stage, ...]

    def __post_init__(self):
        if self.window_w < 1 or self.window_h < 1:
            raise CascadeFormatError(f"bad base window {self.window_w}x{self.window_h}")
        for si, stage in enumerate(self.stages):
            for fi, stump in enumerate(stage.stumps):
                if not 1 <= len(stump.rects) <= 3:
                    raise CascadeFormatError(f"stage {si} stump {fi}: needs 1-3 rects")
                balance = 0.0
                for r in stump.rects:
                    if r.w < 1 or r.h < 1 or r.x < 0 or r.y < 0 \
                            or r.x + r.w > self.window_w or r.y + r.h > self.window_h:
                        raise CascadeFormatError(
                            f"stage {si} stump {fi}: rect {(r.x, r.y, r.w, r.h)} "
                            f"outside {self.window_w}x{self.window_h} window"
                        )
                    balance += r.weight * r.w * r.h
                if abs(balance) > 1e-6 * self.window_w * self.window_h:
                    raise CascadeFormatError(
                        f"stage {si} stump {fi}: rect weights do not cancel "
                        f"over a uniform image (sum {balance})"
                    )


@dataclass(frozen=True)
class Detection:
    x: int
    y: int
    w: int
    h: int
    neighbors: int


def parse_cascade(doc: dict) -> CascadeModel:
    try:
        stages = tuple(
            Stage(
                threshold=float(stage["threshold"]),
                stumps=tuple(
                    Stump(
                        rects=tuple(HaarRect(int(r[0]), int(r[1]), int(r[2]), int(r[3]), float(r[4]))
                                    for r in stump["rects"]),
                        threshold=float(stump["threshold"]),
                        left_value=float(stump["left"]),
                        right_value=float(stump["right"]),
                    )
                    for stump in stage["stumps"]
                ),
            )
            for stage in doc["stages"]
        )
        return CascadeModel(int(doc["window_width"]), int(doc["window_height"]), stages)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        if isinstance(exc, CascadeFormatError):
            raise
        raise CascadeFormatError(f"malformed cascade document: {exc}") from exc


def load_cascade(path: str) -> CascadeModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CascadeFormatError(f"cascade file is not valid JSON: {exc}") from exc
    return parse_cascade(doc)


def integral_image(gray: np.ndarray) -> np.ndarray:
    """(H+1)x(W+1) cumulative sum table with a zero first row and column.

    ii[y][x] holds the sum of all pixels in rows < y and columns < x, so
    any rectangle sum costs four lookups. Integer input stays exact in
    int64.
    """
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.shape[0] < 1 or gray.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-D image, got shape {gray.shape}")
    dtype = np.int64 if np.issubdtype(gray.dtype, np.integer) else np.float64
    ii = np.zeros((gray.shape[0] + 1, gray.shape[1] + 1), dtype=dtype)
    np.cumsum(np.cumsum(gray, axis=0, dtype=dtype), axis=1, out=ii[1:, 1:])
    return ii


def rect_sum(ii: np.ndarray, x: int, y: int, w: int, h: int):
    return ii[y + h, x + w] - ii[y, x + w] - ii[y + h, x] + ii[y, x]


def _scaled(v: int, scale: float) -> int:
    return int(round(v * scale))


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
    min_size: tuple[int, int] | None = None,
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
        too_small = min_size is not None and (win_w < min_size[0] or win_h < min_size[1])
        if not too_small:
            step = max(1, int(round(scale)))
            for y in range(0, h - win_h + 1, step):
                for x in range(0, w - win_w + 1, step):
                    if eval_window(cascade, ii, ii_sq, x, y, scale):
                        hits.append((x, y, win_w, win_h))
        scale *= scale_factor
    return group_hits(hits, min_neighbors)


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """Luma conversion (0.299 R + 0.587 G + 0.114 B) for RGB input."""
    image = np.asarray(image)
    if image.ndim == 2:
        return image.astype(np.float64)
    if image.ndim == 3 and image.shape[2] == 3:
        weights = np.array([0.299, 0.587, 0.114])
        return image.astype(np.float64) @ weights
    raise ValueError(f"expected [H,W] or [H,W,3] image, got shape {image.shape}")


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel centers and clamped borders."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    sy = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    sx = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0)[:, None]
    fx = (sx - x0)[None, :]
    top = image[np.ix_(y0, x0)] * (1 - fx) + image[np.ix_(y0, x1)] * fx
    bottom = image[np.ix_(y1, x0)] * (1 - fx) + image[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bottom * fy


def preprocess_face(image: np.ndarray, box: Detection) -> np.ndarray:
    """Crop a detection, grayscale, downscale to 48x48 and normalize.

    Mirrors the training preprocessing so live crops and dataset images
    reach the model in the same format.
    """
    image = np.asarray(image)
    h, w = image.shape[:2]
    if box.w <= 0 or box.h <= 0:
        raise ValueError(f"degenerate box {box}")
    if box.x < 0 or box.y < 0 or box.x + box.w > w or box.y + box.h > h:
        raise ValueError(f"box {box} extends outside image {w}x{h}")
    crop = image[box.y : box.y + box.h, box.x : box.x + box.w]
    gray = to_grayscale(crop)
    resized = bilinear_resize(gray, 48, 48)
    return np.clip(resized / 255.0, 0.0, 1.0).astype(np.float32)[None]


def detections_csv(rows: list[Detection]) -> str:
    lines = ["x,y,w,h,neighbors"]
    lines += [f"{d.x},{d.y},{d.w},{d.h},{d.neighbors}" for d in rows]
    return "\n".join(lines) + "\n"


def _read_pnm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data):
        if data[pos : pos + 1].isspace():
            pos += 1
        elif data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PnmFormatError(f"missing header token at byte {start}")
    return data[start:pos], pos


def read_pnm(path: str) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file; 8-bit maxval only.

    Returns uint8 [H,W] for PGM, [H,W,3] for PPM, with samples rescaled
    to 0..255 when maxval is below 255.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise PnmFormatError(f"unsupported magic {magic!r} at byte 0 (want P5 or P6)")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_pnm_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise PnmFormatError(f"non-numeric header token {token!r} near byte {pos}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmFormatError(f"bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise PnmFormatError(f"maxval {maxval} unsupported (8-bit only)")
    pos += 1  # exactly one whitespace byte separates header and raster
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise PnmFormatError(
            f"raster truncated at byte {pos + len(raster)}: have {len(raster)}, "
            f"need {expected} bytes"
        )
    arr = np.frombuffer(raster, dtype=np.uint8)
    if maxval < 255:
        over = np.flatnonzero(arr > maxval)
        if over.size:
            raise PnmFormatError(
                f"sample {arr[over[0]]} exceeds maxval {maxval} at byte {pos + int(over[0])}"
            )
        # round to nearest: v * 255 / maxval
        arr = ((arr.astype(np.uint16) * 255 + maxval // 2) // maxval).astype(np.uint8)
    return arr.reshape((height, width) if channels == 1 else (height, width, 3))


def write_pnm(path: str, image: np.ndarray):
    """Write uint8 [H,W] as PGM or [H,W,3] as PPM."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim == 2:
        magic, (h, w) = b"P5", image.shape
    elif image.ndim == 3 and image.shape[2] == 3:
        magic, (h, w) = b"P6", image.shape[:2]
    else:
        raise ValueError(f"expected [H,W] or [H,W,3] uint8 image, got {image.shape}")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
