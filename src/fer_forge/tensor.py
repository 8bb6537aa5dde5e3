"""Dense array kernels: convolution and max pooling.

Tensors are plain numpy arrays in row-major (C) order. Training runs in
float32; gradient checking promotes to float64 because finite differences
are unreliable in single precision. Every kernel accepts a single sample
([C,H,W]) or a batch ([N,C,H,W]) and returns the matching rank.

Convolution works channels-last inside the kernel: the zero-padded input
is copied once to [N,H,W,C] and viewed as rows [N*H*W, C]. Kernel tap
(i, j) then reads the contiguous row slice starting at i*W + j, so the
output is a sum of one GEMM per tap over the whole stride-1 grid, cropped
to the valid (strided) positions at the end; backward reuses the same
slices. No patch matrix is built or kept. When C_in*kh*kw is small (the
single-channel first layer) each tap GEMM would be a thin rank-C update,
so the operand shape selects a transient patch-matrix GEMM instead.
Activations stay [N,C,H,W] at the interface. A direct sliding-window loop
is kept as an independent reference; the test suite asserts they agree.
"""

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names the offending axes."""


@dataclass(frozen=True)
class ConvGeometry:
    """Spatial geometry of a convolution: kernel size, stride and zero padding."""

    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ShapeError(f"kernel dims must be >= 1, got {self.kernel_h}x{self.kernel_w}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")

    def out_dim(self, in_dim: int, kernel: int) -> int:
        out = (in_dim + 2 * self.padding - kernel) // self.stride + 1
        if out < 1:
            raise ShapeError(
                f"geometry yields non-positive output dim: in={in_dim} "
                f"kernel={kernel} stride={self.stride} padding={self.padding}"
            )
        return out

    def out_hw(self, in_h: int, in_w: int) -> tuple[int, int]:
        return self.out_dim(in_h, self.kernel_h), self.out_dim(in_w, self.kernel_w)


def _as_batch(x: np.ndarray, name: str) -> tuple[np.ndarray, bool]:
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise ShapeError(f"{name} must be [C,H,W] or [N,C,H,W], got shape {x.shape}")


def _check_conv_operands(x: np.ndarray, kernels: np.ndarray, geom: ConvGeometry):
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be [C_out,C_in,kh,kw], got shape {kernels.shape}")
    if x.shape[1] != kernels.shape[1]:
        raise ShapeError(
            f"input channel axis ({x.shape[1]}) does not match kernel C_in axis ({kernels.shape[1]})"
        )
    if (kernels.shape[2], kernels.shape[3]) != (geom.kernel_h, geom.kernel_w):
        raise ShapeError(
            f"kernel spatial axes {kernels.shape[2:]} do not match geometry "
            f"{(geom.kernel_h, geom.kernel_w)}"
        )


def _channels_last(x: np.ndarray, padding: int, dtype) -> np.ndarray:
    """Copy a [N,C,H,W] batch into a zero-padded channels-last [N,H+2p,W+2p,C] array."""
    n, c, h, w = x.shape
    p = padding
    out = (np.zeros if p else np.empty)((n, h + 2 * p, w + 2 * p, c), dtype=dtype)
    out[:, p : h + p, p : w + p] = x.transpose(0, 2, 3, 1)
    return out


# Up to this many taps times input channels a patch matrix is cheaper than
# per-tap GEMMs, whose products would each be a rank-C update as wide as
# the output. Measured forward plus backward, 3x3 kernels, 64 filters,
# batch 128 at 48x48: patch path ahead at C_in 6 (300 vs 357 ms), behind
# at C_in 8 (401 vs 377 ms).
_PATCH_MAX_K = 64
# Per-tap products are summed block by block; a block of this many bytes
# stays in cache between its GEMM and its add.
_BLOCK_BYTES = 1 << 19


def _sum_of_taps(src: np.ndarray, weights: np.ndarray, offsets: list[int], out: np.ndarray):
    """``out[r] = sum_t src[r + offsets[t]] @ weights[t]`` over the rows of ``out``.

    Every tap operand is a contiguous row slice of ``src``, so no window
    is copied; rows are taken in cache-sized blocks so each tap's product
    is added while it is still in cache.
    """
    rows, width = out.shape
    block = max(256, _BLOCK_BYTES // (width * out.itemsize))
    buf = np.empty((min(block, rows), width), dtype=out.dtype)
    for s in range(0, rows, block):
        e = min(s + block, rows)
        acc, prod = out[s:e], buf[: e - s]
        np.matmul(src[s + offsets[0] : e + offsets[0]], weights[0], out=acc)
        for off, w in zip(offsets[1:], weights[1:]):
            np.matmul(src[s + off : e + off], w, out=prod)
            acc += prod


def _patches(xp: np.ndarray, geom: ConvGeometry, oh: int, ow: int) -> np.ndarray:
    """Windows of a padded channels-last batch as a transient [N*oh*ow, C*kh*kw] matrix."""
    s = geom.stride
    view = np.lib.stride_tricks.sliding_window_view(
        xp, (geom.kernel_h, geom.kernel_w), axis=(1, 2)
    )[:, : s * oh : s, : s * ow : s]  # [N,oh,ow,C,kh,kw]
    return view.reshape(-1, view.shape[3] * geom.kernel_h * geom.kernel_w)


def _tap_offsets(geom: ConvGeometry, padded_w: int) -> list[int]:
    """Row offset of each kernel tap (i, j) in a flattened [N*Hp*Wp, C] batch."""
    return [i * padded_w + j for i in range(geom.kernel_h) for j in range(geom.kernel_w)]


def conv2d_forward(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, geom: ConvGeometry
) -> np.ndarray:
    """Cross-correlate ``x`` with ``kernels`` and add per-channel ``bias``.

    Each output element is the dot product of one kernel with the
    corresponding (zero-padded) input window plus that kernel's bias.
    """
    xb, squeeze = _as_batch(x, "input")
    _check_conv_operands(xb, kernels, geom)
    if bias.shape != (kernels.shape[0],):
        raise ShapeError(f"bias axis {bias.shape} does not match C_out ({kernels.shape[0]})")
    n, c_in = xb.shape[:2]
    c_out, kh, kw = kernels.shape[0], geom.kernel_h, geom.kernel_w
    oh, ow = geom.out_hw(xb.shape[2], xb.shape[3])
    dtype = np.result_type(xb, kernels)
    xp = _channels_last(xb, geom.padding, dtype)
    if c_in * kh * kw <= _PATCH_MAX_K:
        wmat = kernels.reshape(c_out, -1).astype(dtype, copy=False)
        grid = (_patches(xp, geom, oh, ow) @ wmat.T).reshape(n, oh, ow, c_out)
    else:
        # stride-1 output over the whole padded grid, cropped to the valid
        # (and strided) positions once at the end
        _, hp, wp, _ = xp.shape
        offsets = _tap_offsets(geom, wp)
        taps = kernels.transpose(2, 3, 1, 0).reshape(kh * kw, c_in, c_out)
        full = np.empty((n * hp * wp, c_out), dtype=dtype)
        _sum_of_taps(
            xp.reshape(-1, c_in), np.ascontiguousarray(taps, dtype=dtype), offsets,
            full[: full.shape[0] - offsets[-1]],
        )
        s = geom.stride
        grid = full.reshape(n, hp, wp, c_out)[:, : s * oh : s, : s * ow : s]
    out = np.empty((n, c_out, oh, ow), dtype=dtype)
    np.add(grid.transpose(0, 3, 1, 2), bias[None, :, None, None], out=out)
    return out[0] if squeeze else out


def conv2d_forward_direct(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, geom: ConvGeometry
) -> np.ndarray:
    """Sliding-window reference convolution. Slow; kept as an oracle."""
    xb, squeeze = _as_batch(x, "input")
    _check_conv_operands(xb, kernels, geom)
    oh, ow = geom.out_hw(xb.shape[2], xb.shape[3])
    p = geom.padding
    xp = np.pad(xb, ((0, 0), (0, 0), (p, p), (p, p))) if p else xb
    n, c_out = xb.shape[0], kernels.shape[0]
    out = np.zeros((n, c_out, oh, ow), dtype=xb.dtype)
    for b in range(n):
        for co in range(c_out):
            for oy in range(oh):
                for ox in range(ow):
                    y0 = oy * geom.stride
                    x0 = ox * geom.stride
                    window = xp[b, :, y0 : y0 + geom.kernel_h, x0 : x0 + geom.kernel_w]
                    out[b, co, oy, ox] = np.sum(window * kernels[co]) + bias[co]
    return out[0] if squeeze else out


def conv2d_backward(
    x: np.ndarray,
    kernels: np.ndarray,
    geom: ConvGeometry,
    grad_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss through conv2d_forward.

    Returns (grad_input, grad_kernels, grad_bias) for upstream ``grad_out``.
    grad_kernels correlates the input windows with grad_out; grad_input
    scatters kernel-weighted grad_out back onto the (padded) input.
    """
    xb, squeeze = _as_batch(x, "input")
    gb_, gsqueeze = _as_batch(grad_out, "grad_out")
    _check_conv_operands(xb, kernels, geom)
    if squeeze != gsqueeze or xb.shape[0] != gb_.shape[0]:
        raise ShapeError(
            f"grad_out batch axis {grad_out.shape} does not match input {x.shape}"
        )
    n, c_in = xb.shape[:2]
    c_out, kh, kw = kernels.shape[0], geom.kernel_h, geom.kernel_w
    oh, ow = geom.out_hw(xb.shape[2], xb.shape[3])
    if gb_.shape != (n, c_out, oh, ow):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match conv output "
            f"{(n, c_out, oh, ow)}"
        )

    dtype = np.result_type(xb, kernels, gb_)
    xp = _channels_last(xb, geom.padding, dtype)
    _, hp, wp, _ = xp.shape
    s, p = geom.stride, geom.padding
    grad_bias = gb_.sum(axis=(0, 2, 3))
    if c_in * kh * kw <= _PATCH_MAX_K:
        cols = _patches(xp, geom, oh, ow)
        g2 = gb_.transpose(0, 2, 3, 1).reshape(-1, c_out).astype(dtype, copy=False)
        grad_kernels = (g2.T @ cols).reshape(kernels.shape)
        del cols
        wmat = kernels.reshape(c_out, -1).astype(dtype, copy=False)
        gcols = (g2 @ wmat).reshape(n, oh, ow, c_in, kh, kw)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, i : i + s * oh : s, j : j + s * ow : s] += gcols[..., i, j]
    else:
        # grad_out scattered onto the stride-1 grid of forward positions,
        # behind a zero margin as long as the largest tap offset
        offsets = _tap_offsets(geom, wp)
        margin = offsets[-1]
        gpad = np.zeros((margin + n * hp * wp, c_out), dtype=dtype)
        grid = gpad[margin:].reshape(n, hp, wp, c_out)
        grid[:, : s * oh : s, : s * ow : s] = gb_.transpose(0, 2, 3, 1)
        rows = xp.reshape(-1, c_in)
        used = rows.shape[0] - margin
        g_used = gpad[margin : margin + used]
        grad_taps = np.empty((kh * kw, c_in, c_out), dtype=dtype)
        for t, off in enumerate(offsets):
            np.matmul(rows[off : off + used].T, g_used, out=grad_taps[t])
        grad_kernels = grad_taps.reshape(kh, kw, c_in, c_out).transpose(3, 2, 0, 1)
        # grad_rows[r] = sum_t grid[r - off_t] @ W_t^T, read from the margin
        taps_t = kernels.transpose(2, 3, 0, 1).reshape(kh * kw, c_out, c_in)
        gxp = np.empty_like(xp)
        _sum_of_taps(
            gpad, np.ascontiguousarray(taps_t, dtype=dtype), [margin - o for o in offsets],
            gxp.reshape(-1, c_in),
        )
    grad_input = np.empty(xb.shape, dtype=xb.dtype)
    grad_input.transpose(0, 2, 3, 1)[...] = gxp[:, p : hp - p, p : wp - p]
    if squeeze:
        grad_input = grad_input[0]
    grad_kernels = np.ascontiguousarray(grad_kernels, dtype=kernels.dtype)
    return grad_input, grad_kernels, grad_bias


@dataclass(frozen=True)
class PoolIndexMap:
    """Winning position (0..3, raster order) per 2x2 window, plus the pooled input's shape."""

    winners: np.ndarray
    input_shape: tuple[int, ...]


def _pool_corners(xb: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four elements of every 2x2 window as strided views, in raster order."""
    h2, w2 = xb.shape[2] // 2, xb.shape[3] // 2
    if h2 < 1 or w2 < 1:
        raise ShapeError(f"input spatial dims {xb.shape[2]}x{xb.shape[3]} too small for 2x2 pooling")
    return tuple(
        xb[:, :, dy : 2 * h2 : 2, dx : 2 * w2 : 2] for dy in (0, 1) for dx in (0, 1)
    )


def maxpool(x: np.ndarray) -> np.ndarray:
    """2x2/stride-2 max pooling without the argmax map (inference)."""
    xb, squeeze = _as_batch(x, "input")
    a, b, c, d = _pool_corners(xb)
    out = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return out[0] if squeeze else out


def maxpool_forward(x: np.ndarray) -> tuple[np.ndarray, PoolIndexMap]:
    """2x2/stride-2 max pooling; odd trailing rows/columns are dropped.

    Returns the pooled tensor and the argmax map needed by the backward
    pass. Ties take the first element of the window in raster order.
    """
    xb, squeeze = _as_batch(x, "input")
    a, b, c, d = _pool_corners(xb)
    top, bottom = np.maximum(a, b), np.maximum(c, d)
    out = np.maximum(top, bottom)
    # strict comparisons keep the earlier element on ties: top row before
    # bottom, left column before right
    in_bottom = bottom > top
    winners = np.where(in_bottom, c < d, a < b).astype(np.uint8)
    winners += 2 * in_bottom.astype(np.uint8)
    index_map = PoolIndexMap(winners=winners, input_shape=x.shape)
    return (out[0] if squeeze else out), index_map


def maxpool_backward(index_map: PoolIndexMap, grad_out: np.ndarray) -> np.ndarray:
    """Route each upstream gradient to its recorded argmax position."""
    winners = index_map.winners
    expected = winners.shape[1:] if len(index_map.input_shape) == 3 else winners.shape
    if grad_out.shape != expected:
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match pool map {expected}")
    gb = grad_out.reshape(winners.shape)
    grad_input = np.zeros(index_map.input_shape, dtype=grad_out.dtype)
    for corner, view in enumerate(_pool_corners(_as_batch(grad_input, "input")[0])):
        np.multiply(gb, winners == corner, out=view)
    return grad_input
