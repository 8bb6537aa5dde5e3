"""Haar-cascade face detection and the live-preprocessing chain.

A cascade is an ordered list of stages; each stage sums the outputs of
decision stumps over rectangular Haar features, and a window is rejected
at the first stage whose sum falls below its threshold. Rect sums are
taken relative to the window mean, then divided by the window's pixel
standard deviation (floored at 1.0) and the window area relative to the
base window, making detection invariant to positive affine intensity
changes and consistent across scales.

Each scale is scanned as arrays, the attentional cascade of Viola and
Jones (2001): every window's rect sums come from fancy-indexing the
integral images, and only the windows that pass a stage go on to the
next. Hits group into the connected components of their overlap graph,
found by banded sweeps on x rather than by testing every pair.

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
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        if isinstance(exc, CascadeFormatError):
            raise
        raise CascadeFormatError(f"malformed cascade document: {exc}") from exc


def load_cascade(path: str) -> CascadeModel:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CascadeFormatError(f"cascade file is not UTF-8: byte 0x{data[exc.start]:02x} "
                                 f"at offset {exc.start}") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
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


def _scaled(v: int, scale: float) -> int:
    return int(round(v * scale))


# Windows scanned, and at least the hit pairs tested, per array pass:
# bounds the working arrays to a few MB whatever the input size.
_CHUNK_WINDOWS, _CHUNK_PAIRS = 1 << 16, 1 << 14


def _cascade_survivors(cascade: CascadeModel, ii: np.ndarray, ii_sq: np.ndarray,
                       origins: np.ndarray, scale: float):
    """The window origins (flat indices ``y * ii.shape[1] + x``) that pass every
    stage, in order, and the count left after each stage. Only survivors go
    on to the next stage; each window sees the float64 operations of a
    one-window scan in the same order, so the result is the same however
    many windows share a call.
    """
    stride, flat, flat_sq = ii.shape[1], ii.ravel(), ii_sq.ravel()

    def sums(table, x0, y0, x1, y1):  # ii[y1,x1] - ii[y0,x1] - ii[y1,x0] + ii[y0,x0]
        return (table[origins + (y1 * stride + x1)] - table[origins + (y0 * stride + x1)]
                - table[origins + (y1 * stride + x0)] + table[origins + (y0 * stride + x0)]
                ).astype(np.float64, copy=False)

    win_w, win_h = _scaled(cascade.window_w, scale), _scaled(cascade.window_h, scale)
    area = win_w * win_h
    mean = sums(flat, 0, 0, win_w, win_h) / area
    variance = np.maximum(sums(flat_sq, 0, 0, win_w, win_h) / area - mean * mean, 0.0)
    norm = np.maximum(np.sqrt(variance), 1.0) * area / (cascade.window_w * cascade.window_h)
    survivors = []
    for stage in cascade.stages:
        if origins.size:
            stage_sum = np.zeros(origins.size)
            for stump in stage.stumps:
                raw = 0.0
                for r in stump.rects:
                    x0, x1 = _scaled(r.x, scale), _scaled(r.x + r.w, scale)
                    y0, y1 = _scaled(r.y, scale), _scaled(r.y + r.h, scale)
                    rect_area = (x1 - x0) * (y1 - y0)
                    raw = raw + r.weight * (sums(flat, x0, y0, x1, y1) - mean * rect_area)
                feature = raw / norm
                stage_sum += np.where(feature < stump.threshold, stump.left_value,
                                      stump.right_value)
            keep = ~(stage_sum < stage.threshold)
            origins, mean, norm = origins[keep], mean[keep], norm[keep]
        survivors.append(origins.size)
    return origins, survivors


def _join(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``label`` (each node's smallest set member) after linking a[k] with b[k]."""
    while a.size:  # link roots to their smallest partner root, then flatten
        ra, rb = label[a], label[b]
        split = ra != rb
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(label[label], label):
            label = label[label]
    return label


def _cluster_labels(boxes: np.ndarray) -> np.ndarray:
    """Smallest index in each [x, y, w, h] row's connected component of the
    graph joining two boxes when their intersection covers half the smaller.

    Two sweeps on x over horizontal bands twice the tallest box high, the
    second offset by half a band, so two boxes that overlap share a band in
    at least one. In band-then-left-edge order a box is tested against the
    later boxes of its band that start before it ends, less the run right
    after it that already has its label. Labels are updated after each
    chunk of at least ``_CHUNK_PAIRS`` tests, so a dense cluster costs about
    one chunk instead of a test per pair.
    """
    n = len(boxes)
    index, label = np.arange(n), np.arange(n)
    x0, y0, w, h = boxes.T
    x1, y1, area = x0 + w, y0 + h, w * h
    span, left = int(h.max(initial=1)), x0.min(initial=0)
    for offset in (0, span):
        band = (y0 - y0.min(initial=0) + offset) // (2 * span)
        key = band * (x1.max(initial=0) + 1 - left) + x0 - left
        order = np.argsort(key, kind="stable")
        ends = np.searchsorted(key[order], (key + w)[order])  # first box of the band past p's end
        start = 0
        while start < n:
            breaks = np.flatnonzero(np.diff(label[order])) + 1
            first = np.append(breaks, n)[np.searchsorted(breaks, index, "right")]  # past p's run
            counts = np.maximum(ends - first, 0)
            limit = max(_CHUNK_PAIRS, n)
            stop = start + max(int(np.searchsorted(np.cumsum(counts[start:]), limit, "right")), 1)
            counts = counts[start:stop]
            p = np.repeat(index[start:stop], counts)
            offsets = np.repeat(first[start:stop] - np.cumsum(counts) + counts, counts)
            i, j = order[p], order[offsets + np.arange(len(p))]
            ix = np.maximum(np.minimum(x1[i], x1[j]) - np.maximum(x0[i], x0[j]), 0)
            iy = np.maximum(np.minimum(y1[i], y1[j]) - np.maximum(y0[i], y0[j]), 0)
            close = 2 * ix * iy >= np.minimum(area[i], area[j])
            label, start = _join(label, i[close], j[close]), stop
    return label


def group_hits(hits: list[tuple[int, int, int, int]], min_neighbors: int) -> list[Detection]:
    """Cluster raw hits whose intersection-over-min-area reaches 0.5.

    Clusters are the connected components of that overlap graph, found
    without testing every pair, in the order of their first hit in the
    given (deterministic) order; clusters smaller than ``min_neighbors``
    are dropped and survivors collapse to their mean box.
    """
    boxes = np.asarray(hits, dtype=np.int64).reshape(-1, 4)
    label = _cluster_labels(boxes)
    sizes = np.bincount(label, minlength=len(boxes))
    roots = np.flatnonzero(sizes)
    sums = np.stack([np.bincount(label, weights=col, minlength=len(boxes)) for col in boxes.T], 1)
    means = np.round(sums[roots] / sizes[roots, None]).astype(int)
    return [Detection(*mean, neighbors=size)
            for mean, size in zip(means.tolist(), sizes[roots].tolist()) if size >= min_neighbors]


def detect(
    cascade: CascadeModel,
    gray: np.ndarray,
    scale_factor: float = 1.1,
    min_neighbors: int = 3,
    on_scale: Callable[[float, tuple[int, int], int, list[int]], None] | None = None,
) -> list[Detection]:
    """Multi-scale sliding-window detection over a grayscale image.

    Each scale's windows, ``step = max(1, round(scale))`` apart, are
    evaluated as arrays in raster order, a block of rows at a time: rect
    sums for all origins come from fancy-indexing the integral images, and
    only the windows that pass a stage go on to the next. The hits, in scale
    then raster order, are clustered by ``group_hits``. ``on_scale`` gets
    the scale, the window size ``(w, h)``, the windows scanned and the
    survivors after each stage, counted by that same scan.
    """
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
        ys, xs = np.arange(0, h - win_h + 1, step), np.arange(0, w - win_w + 1, step)
        rows = max(1, _CHUNK_WINDOWS // len(xs))
        survivors = [0] * len(cascade.stages)
        for top in range(0, len(ys), rows):
            origins = (ys[top : top + rows, None] * (w + 1) + xs).ravel()
            passed, left = _cascade_survivors(cascade, ii, ii_sq, origins, scale)
            survivors = [a + b for a, b in zip(survivors, left)]
            py, px = np.divmod(passed, w + 1)
            hits += [(x, y, win_w, win_h) for y, x in zip(py.tolist(), px.tolist())]
        if on_scale is not None:
            on_scale(scale, (win_w, win_h), len(ys) * len(xs), survivors)
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
