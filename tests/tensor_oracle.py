"""Reference convolution: a direct sliding-window loop over NCHW arrays.

This is the package's original ``conv2d_forward_direct``, kept as the
oracle that the per-tap and patch-matrix kernels in ``fer_forge.tensor``
must match. It takes a [C,H,W] sample or an [N,C,H,W] batch; the
channels-last kernels are compared with it through a transpose.
"""

import numpy as np

from fer_forge.tensor import ConvGeometry


def conv2d_forward_direct(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, geom: ConvGeometry
) -> np.ndarray:
    """Sliding-window reference convolution. Slow; kept as an oracle."""
    xb = x[None] if x.ndim == 3 else x
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
    return out[0] if x.ndim == 3 else out
