"""Dense array kernels: convolution and max pooling.

Tensors are plain numpy arrays in row-major (C) order. Training runs in
float32; gradient checking promotes to float64 because finite differences
are unreliable in single precision. The kernels the layers call take and
return [N,H,W,C] batches; conv kernels keep the model file's
[C_out,C_in,kh,kw].

Convolution is stride-1 and unpadded, and its kernel size is read from the
kernel array. It views the batch as rows [N*H*W, C]: kernel tap (i, j)
reads the contiguous row slice starting at i*W + j, so the output is a sum
of one GEMM per tap over the whole grid, cropped to the valid positions by
the bias add; backward reuses the same slices. No patch matrix is built or
kept. When C_in*kh*kw is small (the single-channel first layer) each tap
GEMM would be a thin rank-C update, so the operand shape selects a
transient patch-matrix GEMM instead.
"""

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names the offending axes."""


def _conv_out_hw(x: np.ndarray, kernels: np.ndarray) -> tuple[int, int]:
    """The (oh, ow) of an unpadded stride-1 convolution of ``x`` with ``kernels``,
    after checking that the operands fit each other."""
    if x.ndim != 4:
        raise ShapeError(f"input must be [N,H,W,C], got shape {x.shape}")
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be [C_out,C_in,kh,kw], got shape {kernels.shape}")
    if x.shape[3] != kernels.shape[1]:
        raise ShapeError(
            f"input channel axis ({x.shape[3]}) does not match kernel C_in axis ({kernels.shape[1]})"
        )
    (h, w), (kh, kw) = x.shape[1:3], kernels.shape[2:]
    if not (1 <= kh <= h and 1 <= kw <= w):
        raise ShapeError(f"{kh}x{kw} kernel does not fit a {h}x{w} input")
    return h - kh + 1, w - kw + 1


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


def _patches(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Windows of a channels-last batch as a transient [N*oh*ow, C*kh*kw] matrix."""
    view = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))  # [N,oh,ow,C,kh,kw]
    return view.reshape(-1, view.shape[3] * kh * kw)


def _tap_offsets(kh: int, kw: int, w: int) -> list[int]:
    """Row offset of each kernel tap (i, j) in a flattened [N*H*W, C] batch."""
    return [i * w + j for i in range(kh) for j in range(kw)]


def conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlate an [N,H,W,C] batch with ``kernels`` and add per-channel ``bias``.

    Each output element is the dot product of one kernel with the
    corresponding input window plus that kernel's bias; the result is
    [N,oh,ow,C_out].
    """
    oh, ow = _conv_out_hw(x, kernels)
    if bias.shape != (kernels.shape[0],):
        raise ShapeError(f"bias axis {bias.shape} does not match C_out ({kernels.shape[0]})")
    n, h, w, c_in = x.shape
    c_out, _, kh, kw = kernels.shape
    dtype = np.result_type(x, kernels)
    x = np.ascontiguousarray(x, dtype=dtype)
    if c_in * kh * kw <= _PATCH_MAX_K:
        wmat = kernels.reshape(c_out, -1).astype(dtype, copy=False)
        grid = (_patches(x, kh, kw) @ wmat.T).reshape(n, oh, ow, c_out)
    else:
        # output over the whole grid, cropped to the valid positions by the bias add
        offsets = _tap_offsets(kh, kw, w)
        taps = kernels.transpose(2, 3, 1, 0).reshape(kh * kw, c_in, c_out)
        full = np.empty((n * h * w, c_out), dtype=dtype)
        _sum_of_taps(
            x.reshape(-1, c_in), np.ascontiguousarray(taps, dtype=dtype), offsets,
            full[: full.shape[0] - offsets[-1]],
        )
        grid = full.reshape(n, h, w, c_out)[:, :oh, :ow]
    return np.add(grid, bias)


def conv2d_backward(
    x: np.ndarray,
    kernels: np.ndarray,
    grad_out: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss through ``conv2d``.

    Returns (grad_input, grad_kernels, grad_bias) for the [N,oh,ow,C_out]
    upstream ``grad_out``. grad_kernels correlates the input windows with
    grad_out; grad_input scatters kernel-weighted grad_out back onto the
    input. With ``input_grad=False`` grad_input is not computed and is
    returned as None.
    """
    oh, ow = _conv_out_hw(x, kernels)
    n, h, w, c_in = x.shape
    c_out, _, kh, kw = kernels.shape
    if grad_out.shape != (n, oh, ow, c_out):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match conv output {(n, oh, ow, c_out)}"
        )

    dtype = np.result_type(x, kernels, grad_out)
    x = np.ascontiguousarray(x, dtype=dtype)
    grad_bias = grad_out.sum(axis=(0, 1, 2))
    if c_in * kh * kw <= _PATCH_MAX_K:
        cols = _patches(x, kh, kw)
        g2 = grad_out.reshape(-1, c_out).astype(dtype, copy=False)
        grad_kernels = (g2.T @ cols).reshape(kernels.shape)
        del cols
        if not input_grad:
            return None, grad_kernels, grad_bias
        wmat = kernels.reshape(c_out, -1).astype(dtype, copy=False)
        gcols = (g2 @ wmat).reshape(n, oh, ow, c_in, kh, kw)
        grad_x = np.zeros_like(x)
        for i in range(kh):
            for j in range(kw):
                grad_x[:, i : i + oh, j : j + ow] += gcols[..., i, j]
    else:
        # grad_out placed on the grid of forward positions, behind a zero
        # margin as long as the largest tap offset
        offsets = _tap_offsets(kh, kw, w)
        margin = offsets[-1]
        gpad = np.zeros((margin + n * h * w, c_out), dtype=dtype)
        gpad[margin:].reshape(n, h, w, c_out)[:, :oh, :ow] = grad_out
        rows = x.reshape(-1, c_in)
        used = rows.shape[0] - margin
        g_used = gpad[margin : margin + used]
        grad_taps = np.empty((kh * kw, c_in, c_out), dtype=dtype)
        for t, off in enumerate(offsets):
            np.matmul(rows[off : off + used].T, g_used, out=grad_taps[t])
        grad_kernels = grad_taps.reshape(kh, kw, c_in, c_out).transpose(3, 2, 0, 1)
        if not input_grad:
            return None, grad_kernels, grad_bias
        # grad_rows[r] = sum_t grid[r - off_t] @ W_t^T, read from the margin
        taps_t = kernels.transpose(2, 3, 0, 1).reshape(kh * kw, c_out, c_in)
        grad_x = np.empty_like(x)
        _sum_of_taps(
            gpad, np.ascontiguousarray(taps_t, dtype=dtype), [margin - o for o in offsets],
            grad_x.reshape(-1, c_in),
        )
    return grad_x, grad_kernels, grad_bias


@dataclass(frozen=True)
class PoolIndexMap:
    """Winning position (0..3, raster order) per 2x2 window, plus the pooled input's shape."""

    winners: np.ndarray
    input_shape: tuple[int, ...]


def _pool_corners(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four elements of every 2x2 window of a batch as strided views, in raster order."""
    h2, w2 = x.shape[1] // 2, x.shape[2] // 2
    if h2 < 1 or w2 < 1:
        raise ShapeError(f"input spatial dims {x.shape[1]}x{x.shape[2]} too small for 2x2 pooling")
    return tuple(x[:, dy : 2 * h2 : 2, dx : 2 * w2 : 2] for dy in (0, 1) for dx in (0, 1))


def maxpool(x: np.ndarray) -> np.ndarray:
    """2x2/stride-2 max pooling without the argmax map (inference)."""
    a, b, c, d = _pool_corners(x)
    return np.maximum(np.maximum(a, b), np.maximum(c, d))


def maxpool_argmax(x: np.ndarray) -> tuple[np.ndarray, PoolIndexMap]:
    """2x2/stride-2 max pooling; odd trailing rows/columns are dropped.

    Returns the pooled batch and the argmax map needed by the backward
    pass. Ties take the first element of the window in raster order.
    """
    a, b, c, d = _pool_corners(x)
    top, bottom = np.maximum(a, b), np.maximum(c, d)
    out = np.maximum(top, bottom)
    # strict comparisons keep the earlier element on ties: top row before
    # bottom, left column before right
    in_bottom = bottom > top
    winners = np.where(in_bottom, c < d, a < b).astype(np.uint8)
    winners += 2 * in_bottom.astype(np.uint8)
    return out, PoolIndexMap(winners=winners, input_shape=x.shape)


def maxpool_backward(index_map: PoolIndexMap, grad_out: np.ndarray) -> np.ndarray:
    """Route each upstream gradient to its recorded argmax position."""
    winners = index_map.winners
    if grad_out.shape != winners.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match pool map {winners.shape}")
    grad_input = np.zeros(index_map.input_shape, dtype=grad_out.dtype)
    for corner, view in enumerate(_pool_corners(grad_input)):
        np.multiply(grad_out, winners == corner, out=view)
    return grad_input
