"""Spatial tensor ops: convolution, pooling, upsampling, bilinear sampling.

Convolution is cross-correlation over [N,C,H,W] inputs as one matmul. A
pointwise kernel (1x1, stride 1, no padding) multiplies the input viewed as
[N, C, H*W] directly and reshapes the column gradient back. Other kernels
copy the input into a zero-padded buffer, gather im2col columns with kh*kw
strided slice copies, and scatter the column gradient back in a fixed
(i, j) order. Max pooling is the max of the four strided quarter views of
each 2x2 window.

Forward outputs and gradients are bit-for-bit those of the plain im2col and
argmax implementations kept in the test suite as references; the
brute-force loop implementations there are the ground truth for values.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, Tensor, _accumulate


def conv2d(x: Tensor, w: Tensor, b, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlate x[N,C,H,W] with w[K,C,kh,kw] plus bias[K].

    Kernel sides must be odd and (H + 2*pad - kh) must divide stride evenly;
    the output is [N,K,H',W'] with H' = (H + 2*pad - kh)/stride + 1.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv2d expects x[N,C,H,W] and w[K,C,kh,kw]")
    n, c, h, ww = x.data.shape
    k, cw, kh, kw = w.data.shape
    if cw != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, weight {cw}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("conv2d kernel sides must be odd")
    if b is not None and b.data.shape != (k,):
        raise ShapeError("conv2d bias must be [K]")
    if (h + 2 * pad - kh) % stride or (ww + 2 * pad - kw) % stride:
        raise ShapeError("conv2d output size is not an integer")
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (ww + 2 * pad - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError("conv2d output would be empty")

    pointwise = kh == 1 and kw == 1 and stride == 1 and pad == 0
    if pointwise:
        cols = x.data.reshape(n, c, h * ww)
    else:
        if pad:
            xp = np.zeros((n, c, h + 2 * pad, ww + 2 * pad))
            xp[:, :, pad : pad + h, pad : pad + ww] = x.data
        else:
            xp = x.data
        cols6 = np.empty((n, c, kh, kw, ho, wo))
        for i in range(kh):
            for j in range(kw):
                cols6[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
        cols = cols6.reshape(n, c * kh * kw, ho * wo)
    wm = w.data.reshape(k, c * kh * kw)
    out_data = np.matmul(wm, cols)
    if b is not None:
        out_data += b.data[:, None]
    out_data = out_data.reshape(n, k, ho, wo)

    parents = (x, w) if b is None else (x, w, b)
    out = Tensor._from_op(out_data, parents, None)

    def bk(g):
        gm = g.reshape(n, k, ho * wo)
        if b is not None:
            _accumulate(b, gm.sum(axis=(0, 2)))
        _accumulate(w, np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape))
        if not x.requires_grad:
            return
        gcols = np.matmul(wm.T, gm)  # [N, C*kh*kw, L]
        if pointwise:
            _accumulate(x, gcols.reshape(n, c, h, ww))
            return
        # Overlapping windows add into the same cells; this (i, j) order fixes
        # the rounding, and changing it changes the gradient bits.
        gcols = gcols.reshape(n, c, kh, kw, ho, wo)
        gxp = np.zeros((n, c, h + 2 * pad, ww + 2 * pad))
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[:, :, i, j]
        _accumulate(x, gxp[:, :, pad : pad + h, pad : pad + ww] if pad else gxp)

    out._backward = bk if out.requires_grad else None
    return out


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
    out = Tensor._from_op(out_data, (x,), None)

    def bk(g):
        gx = np.empty((n, c, h, w))
        taken = np.zeros(out_data.shape, dtype=bool)
        for k, q in enumerate(quarters):
            first = ~taken if k == 3 else (q == out_data) & ~taken
            gx[:, :, k // 2 :: 2, k % 2 :: 2] = np.where(first, g, 0.0)
            taken |= first
        _accumulate(x, gx)

    out._backward = bk if out.requires_grad else None
    return out


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x spatial upsampling of [N,C,H,W]."""
    if x.data.ndim != 4:
        raise ShapeError("upsample2x expects [N,C,H,W]")
    n, c, h, w = x.data.shape
    out_data = x.data.repeat(2, axis=2).repeat(2, axis=3)
    out = Tensor._from_op(out_data, (x,), None)

    def bk(g):
        _accumulate(x, g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))

    out._backward = bk if out.requires_grad else None
    return out


def _corner_weights(coord: float, limit: int):
    """Clamped bilinear support along one axis: (i0, i1, weight_on_i1)."""
    c = min(max(float(coord), 0.0), float(limit - 1))
    i0 = int(np.floor(c))
    if i0 > limit - 2:
        i0 = max(limit - 2, 0)
    i1 = min(i0 + 1, limit - 1)
    return i0, i1, c - i0


def bilinear_sample(feature: Tensor, x: float, y: float) -> Tensor:
    """Bilinear interpolation of feature[C,H,W] at continuous (x, y).

    Coordinates outside [0,W-1] x [0,H-1] clamp to the border. Differentiable
    with respect to the feature values only.
    """
    if feature.data.ndim != 3:
        raise ShapeError("bilinear_sample expects [C,H,W]")
    _, h, w = feature.data.shape
    x0, x1, wx = _corner_weights(x, w)
    y0, y1, wy = _corner_weights(y, h)
    f = feature.data
    out_data = (
        (1 - wy) * (1 - wx) * f[:, y0, x0]
        + (1 - wy) * wx * f[:, y0, x1]
        + wy * (1 - wx) * f[:, y1, x0]
        + wy * wx * f[:, y1, x1]
    )
    out = Tensor._from_op(out_data, (feature,), None)

    def bk(g):
        if not feature.requires_grad:
            return
        if feature.grad is None:
            feature.grad = np.zeros_like(feature.data)
        fg = feature.grad
        fg[:, y0, x0] += (1 - wy) * (1 - wx) * g
        fg[:, y0, x1] += (1 - wy) * wx * g
        fg[:, y1, x0] += wy * (1 - wx) * g
        fg[:, y1, x1] += wy * wx * g

    out._backward = bk if out.requires_grad else None
    return out
