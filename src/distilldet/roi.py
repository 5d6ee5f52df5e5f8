"""Fixed-size region cropping from pyramid features, batched over boxes.

Boxes arrive as one float64 [R,4] array. ``roi_align_batch`` crops every box
from one level at once; ``extract_region_batch`` applies it in the two crop
modes: the classic single-level path, where each box is first mapped to one
pyramid level by its area and cropped there, and the hierarchical path that
crops the same box from every level and stacks the results along the channel
axis, so a region carries fine detail and coarse context at once. Crops come
out in the feature maps' dtype.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import ShapeError, Tensor, _accumulate, concat, take_rows

PYRAMID_LEVELS = (2, 3, 4, 5)
PYRAMID_STRIDES = (4, 8, 16, 32)

# Boxes whose sqrt-area equals this many image pixels land on level 4;
# sized for scenes in the ~100-pixel class.
CANONICAL_SIZE = 56.0
_MIN_EXTENT = 1e-6


def assign_level(box, canonical: float = CANONICAL_SIZE, k0: int = 4) -> int:
    """Map one (x1, y1, x2, y2) box to the pyramid level matching its scale.

    level = floor(k0 + log2(sqrt(w*h)/canonical)), clamped to [2, 5]. Scalar
    math keeps the floor exact where sqrt(w*h)/canonical is a power of two.
    """
    x1, y1, x2, y2 = (float(v) for v in box)
    w = x2 - x1
    h = y2 - y1
    if w <= 0 or h <= 0:
        raise ValueError(f"degenerate box ({x1},{y1},{x2},{y2})")
    k = math.floor(k0 + math.log2(math.sqrt(w * h) / canonical))
    return int(min(max(k, 2), 5))


def _as_chw(feature: Tensor) -> Tensor:
    if feature.data.ndim == 4:
        if feature.data.shape[0] != 1:
            raise ShapeError("roi_align_batch expects a single-image feature map")
        return feature.reshape(feature.data.shape[1:])
    if feature.data.ndim != 3:
        raise ShapeError("roi_align_batch expects [C,H,W] or [1,C,H,W]")
    return feature


def _clamped_corners(coords: np.ndarray, limit: int):
    c = np.clip(coords, 0.0, limit - 1.0)
    i0 = np.floor(c).astype(np.intp)
    np.clip(i0, 0, max(limit - 2, 0), out=i0)
    i1 = np.minimum(i0 + 1, limit - 1)
    return i0, i1, c - i0


def _interp_matrix(lo: np.ndarray, size: np.ndarray, limit: int,
                   out_size: int, samples: int, dtype) -> np.ndarray:
    """Per-box 1-D crop operators [R, out_size, limit] in ``dtype``.

    Row (r, i) averages the clamped two-point interpolation weights of that
    bin's sample coordinates, so a crop along one axis is a plain matmul.
    The weights are computed in float64 and then cast, so a float32 feature
    map is cropped by float32 operators instead of being upcast.
    """
    n_roi = lo.shape[0]
    offs = (np.arange(out_size)[:, None] + (np.arange(samples)[None, :] + 0.5) / samples).reshape(-1)
    coords = lo[:, None] + offs[None, :] * (size / out_size)[:, None]  # [R, Sn]
    i0, i1, frac = _clamped_corners(coords, limit)
    rows = np.zeros((n_roi, out_size * samples, limit))
    rr = np.arange(n_roi)[:, None]
    pp = np.arange(out_size * samples)[None, :]
    rows[rr, pp, i0] += 1.0 - frac
    rows[rr, pp, i1] += frac
    return rows.reshape(n_roi, out_size, samples, limit).mean(axis=2).astype(dtype, copy=False)


def roi_align_batch(feature: Tensor, rois, stride: float, out_size: int = 7,
                    samples: int = 2) -> Tensor:
    """Average-of-bilinear-samples crop of every box in ``rois`` [R,4] from
    one pyramid level; output [R, C, S, S].

    Boxes map to feature coordinates by dividing by ``stride`` (no rounding,
    no half-pixel shift); each of the S^2 bins averages samples^2 bilinear
    lookups on a regular sub-grid, clamped to the map border. Degenerate
    boxes are clamped to a minimum extent. Bilinear sampling plus bin
    averaging is separable, so each crop is Ay @ F @ Ax^T with per-box
    interpolation matrices; both directions are then batched matmuls.
    """
    f = _as_chw(feature)
    c, h, w = f.data.shape
    boxes = np.asarray(rois, np.float64).reshape(-1, 4)
    n_roi = boxes.shape[0]
    if n_roi == 0:
        raise ShapeError("roi_align_batch on an empty box array")
    fw = np.maximum((boxes[:, 2] - boxes[:, 0]) / stride, _MIN_EXTENT)
    fh = np.maximum((boxes[:, 3] - boxes[:, 1]) / stride, _MIN_EXTENT)
    ay = _interp_matrix(boxes[:, 1] / stride, fh, h, out_size, samples, f.data.dtype)  # [R,S,H]
    ax = _interp_matrix(boxes[:, 0] / stride, fw, w, out_size, samples, f.data.dtype)  # [R,S,W]

    # out[r,c,i,j] = sum_hw ay[r,i,h] f[c,h,w] ax[r,j,w]
    t1 = np.tensordot(ay, f.data, axes=(2, 1))            # [R,S,C,W]
    out_data = np.matmul(t1.transpose(0, 2, 1, 3), ax.transpose(0, 2, 1)[:, None])  # [R,C,S,S]
    out = Tensor._from_op(np.ascontiguousarray(out_data), (f,), None)

    def bk(g):
        if not f.requires_grad:
            return
        t2 = np.matmul(g, ax[:, None])                    # [R,C,S,W]
        _accumulate(f, np.tensordot(ay, t2, axes=([0, 1], [0, 2])).transpose(1, 0, 2))

    out._backward = bk if out.requires_grad else None
    return out


def extract_region_batch(pyramid, rois, use_pyramid: bool, out_size: int = 7,
                         samples: int = 2, canonical: float = CANONICAL_SIZE) -> Tensor:
    """Region features for a box array [R,4] in the configured crop mode.

    Returns [R, 4d, S, S] (all-level concat; channel block [i*d, (i+1)*d)
    holds the crop of level 2+i) or [R, d, S, S] (per-box level assignment),
    rows ordered like ``rois``.
    """
    rois = np.asarray(rois, np.float64).reshape(-1, 4)
    if len(rois) == 0:
        raise ShapeError("extract_region_batch on an empty box array")
    if use_pyramid:
        crops = [
            roi_align_batch(level, rois, stride, out_size=out_size, samples=samples)
            for level, stride in zip(pyramid.levels(), PYRAMID_STRIDES)
        ]
        return concat(crops, axis=1)

    levels = [assign_level(r, canonical=canonical) for r in rois]
    pieces = []
    order: list[int] = []
    for lvl, feature, stride in zip(PYRAMID_LEVELS, pyramid.levels(), PYRAMID_STRIDES):
        idx = [i for i, l in enumerate(levels) if l == lvl]
        if not idx:
            continue
        pieces.append(
            roi_align_batch(feature, rois[idx], stride, out_size=out_size, samples=samples)
        )
        order.extend(idx)
    stacked = pieces[0] if len(pieces) == 1 else concat(pieces, axis=0)
    if order == sorted(order):
        return stacked
    inv = np.argsort(np.asarray(order))
    r, c = stacked.data.shape[:2]
    flat = stacked.reshape((r, c * out_size * out_size))
    return take_rows(flat, inv).reshape((r, c, out_size, out_size))
