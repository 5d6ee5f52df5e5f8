"""Fixed-size region cropping from pyramid features, batched over boxes.

Boxes arrive as one float64 [R,4] array and the pyramid as the tuple
``(P2, P3, P4, P5)``. ``roi_align_batch`` crops them in one call and
records one graph node, in either of two modes that
``extract_region_batch`` selects: the hierarchical crop takes every box from
every level and stacks the results along the channel axis, so a region
carries fine detail and coarse context at once; the classic single-level
crop first maps each box to one pyramid level by its area and takes it from
that level only. Crops come out in the feature maps' dtype.

Each crop is separable, Ay @ F @ Ax^T per box. The operators are built per
level, then each level runs as GEMMs whose count does not grow with the
channels: one GEMM applies Ay of every box cropped there, then one GEMM per
box its Ax over all channels at once, written straight into the box's rows
and the level's channel block. That per-level GEMM layout fixes the bits:
crops are byte-equal to per-level crops joined by ``concat`` (all levels)
or put back in box order (single level). float32 crops match the earlier
per-channel crop (kept in tests/oracles.py) to rounding, not bit for bit;
the interpolation operators are byte-equal.

The operators and each box's level depend on the boxes and the maps' sizes
and dtype alone, never on feature values. ``crop_plan`` (``region_plan`` for
a pyramid) builds them as a ``CropPlan``, so a caller that crops one box
array from several pyramids of one size, as the teacher matcher does,
builds them once and passes the plan to each crop.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .autodiff import ShapeError, Tensor

PYRAMID_LEVELS = (2, 3, 4, 5)
PYRAMID_STRIDES = (4, 8, 16, 32)

# Boxes whose sqrt-area equals CANONICAL_SIZE image pixels land on level
# CANONICAL_LEVEL; sized for scenes in the ~100-pixel class.
CANONICAL_SIZE = 56.0
CANONICAL_LEVEL = 4
# The detector's crop: ROI_SIZE x ROI_SIZE bins per level, each averaging
# ROI_SAMPLES x ROI_SAMPLES bilinear samples.
ROI_SIZE = 7
ROI_SAMPLES = 2
_MIN_EXTENT = 1e-6


def assign_level(box) -> int:
    """Map one (x1, y1, x2, y2) box to the pyramid level matching its scale.

    level = floor(CANONICAL_LEVEL + log2(sqrt(w*h)/CANONICAL_SIZE)), clamped
    to [2, 5]. Scalar math keeps the floor exact where
    sqrt(w*h)/CANONICAL_SIZE is a power of two.
    """
    x1, y1, x2, y2 = (float(v) for v in box)
    w = x2 - x1
    h = y2 - y1
    if w <= 0 or h <= 0:
        raise ValueError(f"degenerate box ({x1},{y1},{x2},{y2})")
    k = math.floor(CANONICAL_LEVEL + math.log2(math.sqrt(w * h) / CANONICAL_SIZE))
    return int(min(max(k, 2), 5))


def _as_chw(feature: Tensor) -> Tensor:
    # A [1,C,H,W] map enters the crop through its own reshape node. Folding
    # that reshape into the crop's rule moves the map's gradient sum into a
    # different order and changes the trained bits.
    if feature.data.ndim == 4:
        if feature.data.shape[0] != 1:
            raise ShapeError("roi_align_batch expects a single-image feature map")
        return feature.reshape(feature.data.shape[1:])
    if feature.data.ndim != 3:
        raise ShapeError("roi_align_batch expects [C,H,W] or [1,C,H,W]")
    return feature


def _interp_operators(boxes: np.ndarray, strides, shapes, out_size: int, samples: int, dtype):
    """Per-level 1-D crop operators: one (ay [R,S,H], ax [R,S,W]) pair in
    ``dtype`` for each level's stride and (H, W) map shape.

    Row (r, i) of each holds the bin's clamped two-point interpolation
    weights averaged over its ``samples`` sample coordinates, so a crop along
    one axis is a plain matmul. Every level's operators are built in float64
    by one ``bincount`` whose input lists each row's contributions sample by
    sample, so each weight is its samples' contributions added in order and
    then divided by ``samples``; the result is cast once, so a float32
    feature map is cropped by float32 operators instead of being upcast.
    Each level's pair is byte-equal to the pair built for that level alone.
    """
    n_roi, n_lvl = boxes.shape[0], len(strides)
    corners = boxes.T[[1, 0, 3, 2]]                                             # y1,x1,y2,x2 [4,R]
    stride = np.asarray(strides, np.float64).reshape(n_lvl, 1, 1)
    lo = corners[:2] / stride                                                   # [L,2,R]
    size = np.maximum((corners[2:] - corners[:2]) / stride, _MIN_EXTENT)
    offs = np.arange(out_size)[:, None] + (np.arange(samples)[None, :] + 0.5) / samples  # [S,n]
    coords = lo[..., None, None] + offs * (size / out_size)[..., None, None]    # [L,2,R,S,n]
    limit = np.asarray(shapes, np.intp).reshape(n_lvl, 2, 1, 1, 1)              # (H, W) per level
    c = np.minimum(np.maximum(coords, 0.0), limit - 1.0)
    i0 = c.astype(np.intp)  # truncation is floor on c >= 0
    np.minimum(i0, np.maximum(limit - 2, 0), out=i0)
    i1 = np.minimum(i0 + 1, limit - 1)
    frac = c - i0
    # Block (level, axis) holds R*S rows of its map's height or width, in
    # level order and ay before ax; row (r, i) starts at (r*S + i) * limit.
    block = n_roi * out_size * limit
    block_start = np.cumsum(block) - block.reshape(-1)
    rows = np.arange(n_roi * out_size).reshape(1, 1, n_roi, out_size, 1)
    start = rows * limit + block_start.reshape(n_lvl, 2, 1, 1, 1)
    idx = np.stack((i0, i1), axis=-1) + start[..., None]                        # [L,2,R,S,n,2]
    weights = np.stack((1.0 - frac, frac), axis=-1)
    ops = np.bincount(idx.reshape(-1), weights.reshape(-1), minlength=int(block.sum()))
    ops /= samples
    ops = ops.astype(dtype, copy=False)
    return [
        (ops[y0:y0 + n_roi * out_size * h].reshape(n_roi, out_size, h),
         ops[x0:x0 + n_roi * out_size * w].reshape(n_roi, out_size, w))
        for (h, w), (y0, x0) in zip(shapes, block_start.reshape(n_lvl, 2))
    ]


class CropPlan(NamedTuple):
    """The part of a crop that reads no feature value: for each level it
    reads, the level's index, its (ay [n,S,H], ax [n,S,W]) operators and
    the rows of its ``n`` boxes (a slice or an index array). ``stacked`` is
    the all-level mode. A plan depends on the boxes, the levels' (H, W)
    ``shapes`` and ``dtype`` alone, so one plan crops its boxes from every
    pyramid of those shapes and dtype: the student's and the teacher's.
    """

    crops: tuple
    n_roi: int
    out_size: int
    stacked: bool
    shapes: tuple
    dtype: np.dtype


def crop_plan(features, rois, strides, out_size: int = ROI_SIZE, samples: int = ROI_SAMPLES,
              box_levels=None) -> CropPlan:
    """The plan of ``roi_align_batch(features, rois, strides, out_size,
    samples, box_levels)``; of ``features`` it reads the map shapes and
    dtypes only. The all-level operators come from one ``bincount``;
    single-level operators from one per level that has boxes.
    """
    if out_size < 1 or samples < 1:
        raise ShapeError(f"roi_align_batch needs out_size and samples >= 1, got {out_size}, {samples}")
    n_lvl = len(features)
    if not n_lvl or n_lvl != len(strides):
        raise ShapeError(f"roi_align_batch needs one stride per level, got {n_lvl} levels "
                         f"and {len(strides)} strides")
    boxes = np.asarray(rois, np.float64).reshape(-1, 4)
    n_roi = boxes.shape[0]
    if n_roi == 0:
        raise ShapeError("roi_align_batch on an empty box array")
    shapes = tuple(f.data.shape[-2:] for f in features)
    if box_levels is None:
        dtype = np.result_type(*(f.data for f in features))
        ops = _interp_operators(boxes, strides, shapes, out_size, samples, dtype)
        crops = tuple((k, op, slice(None)) for k, op in enumerate(ops))
        return CropPlan(crops, n_roi, out_size, True, shapes, dtype)
    box_levels = np.asarray(box_levels, np.intp)
    counts = (np.bincount(box_levels, minlength=n_lvl)
              if box_levels.shape == (n_roi,) and box_levels.min() >= 0 else ())
    if len(counts) != n_lvl:
        raise ShapeError(f"box_levels must name one of {n_lvl} levels for each of {n_roi} boxes")
    named = np.flatnonzero(counts)  # a level no box names is never read
    dtype = np.result_type(*(features[k].data for k in named))
    crops = []
    for k in named:
        # every box on one level: slices, no row copies
        rows = slice(None) if len(named) == 1 else np.flatnonzero(box_levels == k)
        op = _interp_operators(boxes[rows], [strides[k]], [shapes[k]], out_size, samples, dtype)[0]
        crops.append((k, op, rows))
    return CropPlan(tuple(crops), n_roi, out_size, False, shapes, dtype)


def _check_plan(plan: CropPlan, features, rois):
    """Raise a ShapeError unless ``plan`` was built for ``rois``' box count
    and for maps of ``features``' shapes and dtype."""
    shapes = tuple(f.data.shape[-2:] for f in features)
    if shapes != plan.shapes or np.result_type(*(features[k].data for k, _, _ in plan.crops)) != plan.dtype:
        raise ShapeError(f"a crop plan for {plan.dtype} maps of {plan.shapes} does not fit these maps")
    if np.asarray(rois).size != 4 * plan.n_roi:
        raise ShapeError(f"a crop plan for {plan.n_roi} boxes does not fit {np.shape(rois)} boxes")


def roi_align_batch(features, rois, strides, out_size: int = ROI_SIZE, samples: int = ROI_SAMPLES,
                    box_levels=None, plan=None) -> Tensor:
    """Average-of-bilinear-samples crop of the boxes ``rois`` [R,4] from the
    levels in ``features`` (one stride each), in one graph node.

    Without ``box_levels`` every box is cropped from every level: the output
    is [R, sum C, S, S], level i's crop in the i-th channel block. With
    ``box_levels``, an integer [R] array naming one level index per box
    (levels of equal width C), each box is cropped from its level only: the
    output is [R, C, S, S]. Rows are ordered like ``rois`` in both modes. A
    level that no box names is not read and not a parent of the output.
    ``plan`` is ``crop_plan`` of the same arguments, for a caller that crops
    one box array from several pyramids; it is built here otherwise.

    Boxes map to feature coordinates by dividing by the level's stride (no
    rounding, no half-pixel shift); each of the S^2 bins averages samples^2
    bilinear lookups on a regular sub-grid, clamped to the map border.
    Degenerate boxes are clamped to a minimum extent. Bilinear sampling plus
    bin averaging is separable, so each crop is Ay @ F @ Ax^T with per-box
    interpolation matrices Ay [S,H] and Ax [S,W].

    Every level crops its own boxes, in ascending row order, with the same
    GEMMs: one [n*S, H] x [H, C*W] GEMM applies every Ay at once, then one
    [S*C, W] x [W, S] GEMM per box applies its Ax^T, and the transposed
    result is written straight into the boxes' rows of the level's channel
    block. The backward mirrors it per level: one [S*C, S] x [S, W] GEMM
    per box, then one [H, n*S] x [n*S, C*W] GEMM. So crops and gradients
    are byte-equal to cropping each level's boxes alone (tests/oracles.py
    keeps that crop, with the levels joined by ``concat``). float64 crops
    match the per-channel reference there to ~1e-16; float32 crops match it
    to rounding, not bit for bit, since a different GEMM shape sums in a
    different order.
    """
    if plan is None:
        plan = crop_plan(features, rois, strides, out_size, samples, box_levels)
    else:
        _check_plan(plan, features, rois)
    levels = [_as_chw(features[k]) for k, _, _ in plan.crops]
    s = plan.out_size
    # One (level, (ay, ax), rows of its boxes, first output channel) per crop.
    if plan.stacked:
        offsets = np.cumsum([0] + [f.data.shape[0] for f in levels])
        width = offsets[-1]
    else:
        width = levels[0].data.shape[0]
        if any(f.data.shape[0] != width for f in levels):
            raise ShapeError("a single-level crop needs levels of equal width")
        offsets = [0] * len(levels)
    crops = [(f, op, rows, c0) for f, (_, op, rows), c0 in zip(levels, plan.crops, offsets)]
    out_data = np.empty((plan.n_roi, width, s, s), plan.dtype)

    # t1[(r,i),(c,w)] = sum_h ay[r,i,h] f[c,h,w]; then out[r,c,i,j] = sum_w t1[r,i,c,w] ax[r,j,w].
    for f, (ay, ax), rows, c0 in crops:
        n = ay.shape[0]
        c, h, w = f.data.shape
        t1 = ay.reshape(n * s, h) @ f.data.transpose(1, 0, 2).reshape(h, c * w)  # [n*S, C*W]
        ax_t = np.ascontiguousarray(ax.transpose(0, 2, 1))  # stacked matmul is far slower on a view
        t3 = np.matmul(t1.reshape(n, s * c, w), ax_t)                          # [n, S*C, S]
        out_data[rows, c0:c0 + c] = t3.reshape(n, s, c, s).transpose(0, 2, 1, 3)

    def level_grad(g, f, ay, ax, rows, c0):
        n = ay.shape[0]
        c, h, w = f.data.shape
        gt = np.ascontiguousarray(g[rows, c0:c0 + c].transpose(0, 2, 1, 3)).reshape(n, s * c, s)
        t2 = np.matmul(gt, ax).reshape(n * s, c * w)                           # [n*S, C*W]
        return (ay.reshape(n * s, h).T @ t2).reshape(h, c, w).transpose(1, 0, 2)

    def bk(g):
        return tuple(level_grad(g, f, ay, ax, rows, c0) if f.requires_grad else None
                     for f, (ay, ax), rows, c0 in crops)

    return Tensor._from_op(out_data, tuple(f for f, *_ in crops), bk)


def region_plan(pyramid, rois, use_pyramid: bool, out_size: int = ROI_SIZE) -> CropPlan:
    """The crop plan of ``extract_region_batch(pyramid, rois, use_pyramid,
    out_size)``, to crop one box array from several pyramids of one map
    size: single-level mode maps each box to its level here, once."""
    rois = np.asarray(rois, np.float64).reshape(-1, 4)
    if len(rois) == 0:
        raise ShapeError("extract_region_batch on an empty box array")
    box_levels = None if use_pyramid else [assign_level(r) - PYRAMID_LEVELS[0] for r in rois]
    return crop_plan(pyramid, rois, PYRAMID_STRIDES, out_size, box_levels=box_levels)


def extract_region_batch(pyramid, rois, use_pyramid: bool, out_size: int = ROI_SIZE,
                         plan=None) -> Tensor:
    """Region features for a box array [R,4] in the given crop mode, cropped
    from the ``(P2, P3, P4, P5)`` tuple ``pyramid`` by one
    ``roi_align_batch`` call; rows ordered like ``rois``. ``plan`` is
    ``region_plan`` of the same arguments; it is built here otherwise.

    All-level mode (``use_pyramid``) returns [R, 4d, S, S]: channel block
    [i*d, (i+1)*d) holds the crop of level 2+i. Single-level mode maps each
    box to one level by its area (``assign_level``) and returns [R, d, S, S].
    """
    if plan is None:
        plan = region_plan(pyramid, rois, use_pyramid, out_size)
    elif (plan.stacked, plan.out_size) != (bool(use_pyramid), out_size):
        raise ValueError(f"a crop plan for stacked={plan.stacked}, out_size={plan.out_size} does not "
                         f"fit use_pyramid={use_pyramid}, out_size={out_size}")
    return roi_align_batch(pyramid, rois, PYRAMID_STRIDES, plan=plan)
