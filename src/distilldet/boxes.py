"""Axis-aligned box utilities shared by the proposal and evaluation stages.

Boxes are float64 [N,4] arrays of (x1, y1, x2, y2) rows in continuous
image-pixel coordinates with x2 > x1 and y2 > y1; areas carry no +1
correction. Training ground truth, proposals and RoIs stay in this form;
``box_array`` builds it from records with x1..y2 fields (``GTBox``,
``Detection``). ``Detection`` is the output of ``detect`` and the input of
the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Detection:
    x1: float
    y1: float
    x2: float
    y2: float
    score: float


def box_array(records) -> np.ndarray:
    """The float64 [N,4] array of the records' (x1, y1, x2, y2); [0,4] for none."""
    return np.array([[r.x1, r.y1, r.x2, r.y2] for r in records], dtype=np.float64).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two [N,4] / [M,4] box arrays."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    x1 = np.maximum(a[:, None, 0], b[None, :, 0])
    y1 = np.maximum(a[:, None, 1], b[None, :, 1])
    x2 = np.minimum(a[:, None, 2], b[None, :, 2])
    y2 = np.minimum(a[:, None, 3], b[None, :, 3])
    iw = np.clip(x2 - x1, 0.0, None)
    ih = np.clip(y2 - y1, 0.0, None)
    inter = iw * ih
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    # Where union <= 0 the boxes are degenerate and inter is 0, so the IoU is 0.
    return inter / np.maximum(union, 1e-300)


_NMS_BLOCK = 32


def nms(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float,
        max_keep: int | None = None) -> list[int]:
    """Greedy non-maximum suppression.

    Boxes are visited in descending score order (ties keep input order via a
    stable sort); a box is suppressed when its IoU with an already-kept box
    exceeds ``iou_thresh``. Returns kept indices in visit order, stopping
    once ``max_keep`` are kept, so the result equals the first ``max_keep``
    of an unlimited run.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    order = np.argsort(-scores, kind="stable")
    ranked = boxes[order]
    keep: list[int] = []
    suppressed = np.zeros(len(order), dtype=bool)
    # IoU rows are computed a block of ranked boxes at a time, so a run
    # that stops at max_keep skips the rows of boxes it never reaches.
    for lo in range(0, len(order), _NMS_BLOCK):
        ious = iou_matrix(ranked[lo : lo + _NMS_BLOCK], ranked)
        for r, row in enumerate(ious):
            if suppressed[lo + r]:
                continue
            if len(keep) == max_keep:
                return keep
            keep.append(int(order[lo + r]))
            suppressed |= row > iou_thresh
    return keep


def _center_size(boxes: np.ndarray):
    """(cx, cy, w, h) of the rows of a box array, each a float64 [N] array."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    return boxes[:, 0] + 0.5 * w, boxes[:, 1] + 0.5 * h, w, h


def encode_deltas(boxes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Box -> target as (dx, dy, dw, dh): center shift relative to the box
    size plus log-scale size change."""
    bx, by, bw, bh = _center_size(boxes)
    tx, ty, tw, th = _center_size(targets)
    return np.stack(
        [(tx - bx) / bw, (ty - by) / bh, np.log(tw / bw), np.log(th / bh)], axis=1
    )


_DELTA_CLIP = 4.0  # keeps exp() sane on wild regressions


def decode_deltas(boxes: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Inverse of encode_deltas; zero deltas reproduce the input boxes."""
    bx, by, bw, bh = _center_size(boxes)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    cx = bx + deltas[:, 0] * bw
    cy = by + deltas[:, 1] * bh
    w = bw * np.exp(np.clip(deltas[:, 2], -_DELTA_CLIP, _DELTA_CLIP))
    h = bh * np.exp(np.clip(deltas[:, 3], -_DELTA_CLIP, _DELTA_CLIP))
    return np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=1)


def clip_boxes(boxes: np.ndarray, img_w: float, img_h: float) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).copy()
    boxes[:, 0::2] = np.clip(boxes[:, 0::2], 0.0, img_w)
    boxes[:, 1::2] = np.clip(boxes[:, 1::2], 0.0, img_h)
    return boxes


# The detector's anchors: side ANCHOR_BASE at level 2, shaped ANCHOR_ASPECT:1 (h:w).
ANCHOR_BASE = 16.0
ANCHOR_ASPECT = 2.4


def level_anchors(level: int, hi: int, wi: int) -> np.ndarray:
    """Anchor grid for pyramid level 2..5 on a [hi, wi] feature map.

    One anchor per location: side ANCHOR_BASE at level 2 doubling per
    level, shaped ANCHOR_ASPECT:1 (h:w), centered on feature-cell centers.
    """
    stride = 2 ** level
    side = ANCHOR_BASE * 2 ** (level - 2)
    w = side / np.sqrt(ANCHOR_ASPECT)
    h = side * np.sqrt(ANCHOR_ASPECT)
    cx = (np.arange(wi) + 0.5) * stride
    cy = (np.arange(hi) + 0.5) * stride
    gx, gy = np.meshgrid(cx, cy)
    gx = gx.reshape(-1)
    gy = gy.reshape(-1)
    return np.stack([gx - w / 2, gy - h / 2, gx + w / 2, gy + h / 2], axis=1)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function in float64, whatever the dtype of ``z``: 1/(1+e) for
    z >= 0 and e/(1+e) below, with e = exp(-|z|), so no exponential
    overflows. e is taken as ``exp(minimum(z, -z))``, not ``exp(-abs(z))``,
    so that a NaN keeps its sign bit and gives the bytes of ``exp(z)``."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
