"""Spatial tensor ops: convolution, pooling and upsampling.

Convolution is cross-correlation over [N,C,H,W] inputs at stride 1, plus a
per-output-channel bias, as one matmul. Kernels are square with an odd side
k, and every conv is same-padded: k // 2 zeros on each side keep the map
H x W. A pointwise kernel (1x1) multiplies the input viewed as [N, C, H*W]
directly and reshapes the column gradient back. Other kernels copy the input
into a zero-padded buffer and gather im2col columns with k*k strided slice
copies; the backward adds each kernel tap's column gradient, clipped to the
input, into an input-sized buffer in a fixed (i, j) order, and skips taps
that read only padding. Max pooling is the max of the four strided quarter
views of each 2x2 window.

What each gradient rule keeps alive from the forward until it runs:
``conv2d`` only its operands, and rebuilds the columns from ``x`` with the
forward's copy code (a 3x3 conv's columns are nine input-sized buffers, and
keeping them held 6.4 of the 11.4 MB that a default-size teacher step's
graph held); ``maxpool2x2`` its output and four strided views of ``x``;
``upsample2x`` nothing but shapes.

Every buffer is allocated in the input's dtype, so float32 maps stay
float32 through the forward and the backward. In float64, forward outputs
and gradients are bit-for-bit those of the plain im2col and argmax
implementations kept in the test suite as references; the brute-force loop
implementations there are the ground truth for values.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, Tensor


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Cross-correlate x[N,C,H,W] with w[K,C,k,k] at stride 1 and pad k // 2,
    plus bias[K]; the output is [N,K,H,W]. The side k must be odd.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv2d expects x[N,C,H,W] and w[K,C,k,k]")
    n, c, h, ww = x.data.shape
    k, cw, kh, kw = w.data.shape
    if cw != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, weight {cw}")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d kernels must be square with an odd side, got {kh}x{kw}")
    if b.data.shape != (k,):
        raise ShapeError("conv2d bias must be [K]")
    pad = kh // 2

    def columns():
        """im2col of x: [N, C*kh*kw, h*ww], row (c, i, j) holding channel c
        under kernel tap (i, j) at every output position. A view of x for a
        1x1 kernel; otherwise x is copied once into a zero-padded
        buffer and gathered with kh*kw strided slice copies."""
        if pad == 0:
            return x.data.reshape(n, c, h * ww)
        xp = np.zeros((n, c, h + 2 * pad, ww + 2 * pad), dtype=x.data.dtype)
        xp[:, :, pad : pad + h, pad : pad + ww] = x.data
        cols = np.empty((n, c, kh, kw, h, ww), dtype=x.data.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[:, :, i, j] = xp[:, :, i : i + h, j : j + ww]
        return cols.reshape(n, c * kh * kw, h * ww)

    wm = w.data.reshape(k, c * kh * kw)
    out_data = np.matmul(wm, columns())
    out_data += b.data[:, None]
    out_data = out_data.reshape(n, k, h, ww)

    def bk(g):
        gm = g.reshape(n, k, h * ww)
        # Rebuilt, not kept from the forward, so the graph holds no columns.
        # cols @ gm^T has the bits of gm @ cols^T and runs faster.
        gw = np.matmul(columns(), gm.transpose(0, 2, 1)).sum(axis=0).T.copy().reshape(w.data.shape)
        # Not computed where x needs none: the stem conv's input, the image.
        gx = input_grad(gm) if x.requires_grad else None
        return gx, gw, gm.sum(axis=(0, 2))

    def input_grad(gm):
        gcols = np.matmul(wm.T, gm)  # [N, C*kh*kw, L]
        if pad == 0:
            return gcols.reshape(n, c, h, ww)
        # Overlapping windows add into the same cells; this (i, j) order fixes
        # the rounding, and changing it changes the gradient bits. Each tap
        # adds only the part of its window that lies inside x.
        gcols = gcols.reshape(n, c, kh, kw, h, ww)
        gx = np.zeros((n, c, h, ww), dtype=x.data.dtype)
        for i in range(kh):
            row_span = _inside(i - pad, h)
            for j in range(kw):
                col_span = _inside(j - pad, ww)
                if row_span is not None and col_span is not None:
                    (xr, gr), (xc, gc) = row_span, col_span
                    gx[:, :, xr, xc] += gcols[:, :, i, j, gr, gc]
        return gx

    return Tensor._from_op(out_data, (x, w, b), bk)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2. Ties give the gradient to the first
    maximal element in row-major order within the window.

    The forward is the elementwise max of the four strided quarter views
    q0..q3 (window positions (0,0), (0,1), (1,0), (1,1)). ``np.maximum``
    returns its second operand on ties, so the nesting
    ``max(max(q3, q2), max(q1, q0))`` makes the output the first maximal
    element itself; that matters where -0.0 and 0.0 tie. The backward
    rebuilds the first-maximum masks from ``q_k == out``.
    """
    if x.data.ndim != 4:
        raise ShapeError("maxpool2x2 expects [N,C,H,W]")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError("maxpool2x2 needs even spatial sizes")
    quarters = [x.data[:, :, di::2, dj::2] for di in (0, 1) for dj in (0, 1)]
    q0, q1, q2, q3 = quarters
    out_data = np.maximum(np.maximum(q3, q2), np.maximum(q1, q0))

    def bk(g):
        gx = np.empty((n, c, h, w), dtype=x.data.dtype)
        taken = np.zeros(out_data.shape, dtype=bool)
        for k, q in enumerate(quarters):
            first = ~taken if k == 3 else (q == out_data) & ~taken
            # g * False may be -0.0; backward's hand-off makes it +0.0.
            np.multiply(g, first, out=gx[:, :, k // 2 :: 2, k % 2 :: 2])
            taken |= first
        return (gx,)

    return Tensor._from_op(out_data, (x,), bk)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x spatial upsampling of [N,C,H,W]."""
    if x.data.ndim != 4:
        raise ShapeError("upsample2x expects [N,C,H,W]")
    n, c, h, w = x.data.shape
    return Tensor._from_op(x.data.repeat(2, axis=2).repeat(2, axis=3), (x,),
                           lambda g: (g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),))


def _inside(offset, size):
    """The output positions t in [0, size) whose input index offset + t
    also lies in [0, size), as (input slice, output slice), or None when
    there is none: a tap that lies wholly in the padding."""
    lo = max(0, -offset)
    hi = size - max(0, offset)
    if lo >= hi:
        return None
    return slice(offset + lo, offset + hi), slice(lo, hi)
