"""Reference convolution and the NCHW adapters of the channels-last kernels.

``conv2d_forward_direct`` is the package's original direct sliding-window
loop (stride 1, no padding, the kernel size read from the kernel array),
kept as the oracle that the per-tap and patch-matrix kernels in
``fer_forge.tensor`` must match. It takes a [C,H,W] sample or an
[N,C,H,W] batch, and so do ``conv2d_forward`` and ``maxpool_forward``,
which run the package's [N,H,W,C] kernels through a transpose.
"""

import numpy as np

from fer_forge.tensor import PoolIndexMap, ShapeError, conv2d, maxpool_argmax


def conv2d_forward_direct(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Sliding-window reference convolution. Slow; kept as an oracle."""
    xb = x[None] if x.ndim == 3 else x
    kh, kw = kernels.shape[2:]
    oh, ow = xb.shape[2] - kh + 1, xb.shape[3] - kw + 1
    n, c_out = xb.shape[0], kernels.shape[0]
    out = np.zeros((n, c_out, oh, ow), dtype=xb.dtype)
    for b in range(n):
        for co in range(c_out):
            for oy in range(oh):
                for ox in range(ow):
                    window = xb[b, :, oy : oy + kh, ox : ox + kw]
                    out[b, co, oy, ox] = np.sum(window * kernels[co]) + bias[co]
    return out[0] if x.ndim == 3 else out


def _nhwc_view(x: np.ndarray) -> np.ndarray:
    """A [C,H,W] sample or an [N,C,H,W] batch as an [N,H,W,C] view."""
    if x.ndim not in (3, 4):
        raise ShapeError(f"input must be [C,H,W] or [N,C,H,W], got shape {x.shape}")
    return x.reshape(-1, *x.shape[-3:]).transpose(0, 2, 3, 1)


def conv2d_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``conv2d`` on a [C,H,W] sample or an [N,C,H,W] batch, returned in its layout."""
    out = conv2d(_nhwc_view(x), kernels, bias).transpose(0, 3, 1, 2)
    return out if x.ndim == 4 else out[0]


def maxpool_forward(x: np.ndarray) -> tuple[np.ndarray, PoolIndexMap]:
    """``maxpool_argmax`` on a [C,H,W] sample or an [N,C,H,W] batch: the pooled result in
    its layout, and the argmax map for ``maxpool_backward`` on [N,H,W,C] gradients."""
    out, index_map = maxpool_argmax(_nhwc_view(x))
    out = out.transpose(0, 3, 1, 2)
    return (out if x.ndim == 4 else out[0]), index_map
