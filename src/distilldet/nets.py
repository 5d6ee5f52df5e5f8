"""Teacher/student detector: backbone, top-down pyramid, proposal head and
the second-stage region classifier, plus their supervised losses. A training
step runs propose, RPN loss, sample, crop and head here, then match, backward
and SGD in ``train``; ``detect`` runs the same ``propose``, then crop and head.

Both roles are one detector: the same anchors, proposal NMS, RoI crop
(``roi``'s constants) and logit width. A ``NetConfig`` holds only what a
teacher and a student differ in: stage widths and block counts, the first
head layer's width and the crop mode. Pyramid width is shared so
feature-matching losses need no adaptation layers.

The feature pyramid is the tuple ``(P2, P3, P4, P5)`` of [1,d,H,W] maps at
strides 4, 8, 16 and 32, finest first; the backbone's output is the tuple
``(C2, C3, C4, C5)`` at the same strides.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import roi as roi_ops
from .autodiff import COMPUTE_DTYPE, ShapeError, Tensor
from .boxes import (
    Detection,
    clip_boxes,
    decode_deltas,
    encode_deltas,
    iou_matrix,
    level_anchors,
    nms,
    sigmoid,
)
from .imageops import conv2d, maxpool2x2, upsample2x

# Sampling and inference constants of the two detection stages.
RPN_BATCH = 64          # anchors sampled per image for the proposal loss,
RPN_POS_FRAC = 0.5      # at most this share of them positive
RPN_POS_IOU = 0.7       # an anchor is positive at or above this IoU with a GT box,
RPN_NEG_IOU = 0.3       # negative at or below this one
ROI_BATCH = 32          # second-stage boxes sampled per image,
ROI_POS_FRAC = 0.25     # at most this share of them positive
ROI_POS_IOU = 0.5       # a box is positive at or above this IoU with a GT box
RPN_PRE_NMS_K = 200     # proposals: this many best-scoring boxes enter NMS,
RPN_POST_NMS_K = 32     # which keeps at most this many,
RPN_NMS_IOU = 0.7       # suppressing at this IoU
DET_SCORE_THRESH = 0.0  # detections keep scores above this
DET_NMS_IOU = 0.5       # and are deduplicated at this IoU
LOGIT_WIDTH = 64        # width of the head's second FC layer, the activations LD matches


@dataclass(frozen=True)
class NetConfig:
    """What a teacher and a student differ in: stage widths and block
    counts, the first head layer's width and the crop mode."""

    widths: tuple = (8, 16, 32, 64)
    blocks: tuple = (1, 1, 1, 1)
    pyramid_width: int = 32
    head_hidden: int = 48
    pyramid_roi: bool = True

    def __post_init__(self):
        if len(self.widths) != 4 or len(self.blocks) != 4:
            raise ValueError("widths and blocks need one entry per stage")
        if any(w <= 0 for w in self.widths) or any(b <= 0 for b in self.blocks):
            raise ValueError("stage widths and block counts must be positive")
        for name in ("pyramid_width", "head_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    @property
    def head_input_width(self) -> int:
        levels = 4 if self.pyramid_roi else 1
        return levels * self.pyramid_width * roi_ops.ROI_SIZE * roi_ops.ROI_SIZE


def default_student_config() -> NetConfig:
    return NetConfig()


def default_teacher_config() -> NetConfig:
    return NetConfig(widths=(16, 32, 64, 128), blocks=(2, 2, 2, 2), head_hidden=256)


# ---- parameters -----------------------------------------------------------


def _name_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode()).digest()
    return np.random.default_rng([int(seed), int.from_bytes(digest[:8], "little")])


_PREDICTION_STD = 0.01  # near-zero logits/deltas at the start of training


def _param(params, name, shape, seed, std=None):
    """Weight ``name.w`` of ``shape``, N(0, std) with std sqrt(2 / fan-in)
    by default, and a zero bias ``name.b``. A conv weight [K,C,kh,kw] has
    fan-in C*kh*kw and K biases; an FC weight [D_in,D_out] has fan-in D_in
    and D_out biases."""
    rng = _name_rng(seed, name)
    fan_in, n_out = (math.prod(shape[1:]), shape[0]) if len(shape) == 4 else shape
    if std is None:
        std = np.sqrt(2.0 / fan_in)
    params[name + ".w"] = Tensor(rng.normal(0.0, std, size=shape).astype(COMPUTE_DTYPE),
                                 requires_grad=True)
    params[name + ".b"] = Tensor(np.zeros(n_out, dtype=COMPUTE_DTYPE), requires_grad=True)


def init_params(cfg: NetConfig, seed: int) -> dict:
    """Fresh ``COMPUTE_DTYPE`` parameter dict. Tensors sharing a name and
    shape across configs receive identical values, which keeps ablation
    variants comparable."""
    p: dict[str, Tensor] = {}
    w = cfg.widths
    _param(p, "bb.stem", (w[0], 3, 3, 3), seed)
    for s in range(4):
        c_in = w[max(s - 1, 0)] if s > 0 else w[0]
        for blk in range(cfg.blocks[s]):
            cin = c_in if blk == 0 else w[s]
            _param(p, f"bb.s{s + 1}.c{blk}", (w[s], cin, 3, 3), seed)
    d = cfg.pyramid_width
    for lvl, cw in zip((2, 3, 4, 5), w):
        _param(p, f"fpn.lat{lvl}", (d, cw, 1, 1), seed)
    for lvl in (2, 3, 4):
        _param(p, f"fpn.smooth{lvl}", (d, d, 3, 3), seed)
    _param(p, "rpn.conv", (d, d, 3, 3), seed)
    _param(p, "rpn.obj", (1, d, 1, 1), seed, std=_PREDICTION_STD)
    _param(p, "rpn.box", (4, d, 1, 1), seed, std=_PREDICTION_STD)
    _param(p, "head.fc1", (cfg.head_input_width, cfg.head_hidden), seed)
    _param(p, "head.fc2", (cfg.head_hidden, LOGIT_WIDTH), seed)
    _param(p, "head.cls", (LOGIT_WIDTH, 2), seed, std=_PREDICTION_STD)
    _param(p, "head.box", (LOGIT_WIDTH, 4), seed, std=_PREDICTION_STD)
    return p


def parameter_count(params: dict) -> int:
    return int(sum(t.data.size for t in params.values()))


def compression_ratio(teacher_params: dict, student_params: dict) -> float:
    t = parameter_count(teacher_params)
    s = parameter_count(student_params)
    if t <= s:
        raise ValueError(f"teacher ({t}) must out-parameter the student ({s})")
    return t / s


# ---- forward passes -------------------------------------------------------


def backbone_forward(image: Tensor, cfg: NetConfig, params: dict) -> tuple:
    """(C2, C3, C4, C5): four feature maps at strides 4/8/16/32 of the
    [1,3,H,W] input."""
    if image.data.ndim != 4 or image.data.shape[:2] != (1, 3):
        raise ShapeError("backbone expects an image of shape [1,3,H,W]")
    h, w = image.data.shape[2:]
    if h % 32 or w % 32:
        raise ShapeError(f"input size {h}x{w} must be divisible by 32")

    x = ad.add(image, -0.5)  # center [0,1] pixel values
    x = ad.relu(conv2d(x, params["bb.stem.w"], params["bb.stem.b"]))
    x = maxpool2x2(x)
    feats = []
    for s in range(4):
        x = maxpool2x2(x)  # strides 4/8/16/32 entering each stage
        for blk in range(cfg.blocks[s]):
            x = ad.relu(
                conv2d(x, params[f"bb.s{s + 1}.c{blk}.w"], params[f"bb.s{s + 1}.c{blk}.b"])
            )
        feats.append(x)
    return tuple(feats)


def fpn_forward(feats: tuple, params: dict) -> tuple:
    """(P2, P3, P4, P5) from (C2, C3, C4, C5) by a top-down merge:
    P5 = lat(C5); Pi = smooth(lat(Ci) + up2(Pi+1))."""
    lat = {
        lvl: conv2d(f, params[f"fpn.lat{lvl}.w"], params[f"fpn.lat{lvl}.b"])
        for lvl, f in zip((2, 3, 4, 5), feats)
    }
    p5 = lat[5]
    merged = {5: p5}
    for lvl in (4, 3, 2):
        summed = ad.add(lat[lvl], upsample2x(merged[lvl + 1]))
        merged[lvl] = conv2d(summed, params[f"fpn.smooth{lvl}.w"], params[f"fpn.smooth{lvl}.b"])
    return merged[2], merged[3], merged[4], merged[5]


def rpn_forward(pyr: tuple, params: dict):
    """Shared proposal head on every level: per location one objectness
    logit and 4 box deltas (one anchor per location).

    Returns (logits [A], deltas [A,4]) over the A locations of all levels,
    joined once here: level by level, each level's locations in row-major
    order, the layout of ``pyramid_anchors``.
    """
    logits, deltas = [], []
    for level in pyr:
        t = ad.relu(conv2d(level, params["rpn.conv.w"], params["rpn.conv.b"]))
        obj = conv2d(t, params["rpn.obj.w"], params["rpn.obj.b"])
        box = conv2d(t, params["rpn.box.w"], params["rpn.box.b"])
        logits.append(obj.reshape((obj.data.size,)))
        deltas.append(box.reshape((4, box.data.size // 4)))
    return ad.concat(logits), ad.transpose(ad.concat(deltas, axis=1), (1, 0))


@functools.lru_cache(maxsize=64)
def _anchor_grid(shapes: tuple) -> np.ndarray:
    """level_anchors of every level joined in level order, built once per
    set of map shapes; read-only since callers share it."""
    grid = np.concatenate([level_anchors(lvl, hi, wi)
                           for lvl, (hi, wi) in zip(roi_ops.PYRAMID_LEVELS, shapes)])
    grid.flags.writeable = False
    return grid


def pyramid_anchors(pyr: tuple) -> np.ndarray:
    """The [A,4] anchors of every pyramid level in ``rpn_forward``'s
    layout, shared (read-only) across calls."""
    return _anchor_grid(tuple(level.data.shape[-2:] for level in pyr))


def _select_boxes(ref, deltas, scores, img_w, img_h, iou, max_keep=None):
    """The selection both stages end in: decode ``deltas`` [N,4] onto the
    reference boxes ``ref`` [N,4], clip them to the image, drop degenerate
    boxes, rank the best ``RPN_PRE_NMS_K`` by ``scores`` [N] (stable, so a
    tie keeps row order) and keep at most ``max_keep`` by NMS at ``iou``.

    Returns (boxes [K,4], scores [K]) in descending score order; K is 0
    when every decoded box is degenerate.
    """
    boxes = clip_boxes(decode_deltas(ref, deltas), img_w, img_h)
    valid = (boxes[:, 2] - boxes[:, 0] > 1e-3) & (boxes[:, 3] - boxes[:, 1] > 1e-3)
    boxes, scores = boxes[valid], scores[valid]
    order = np.argsort(-scores, kind="stable")[:RPN_PRE_NMS_K]
    boxes, scores = boxes[order], scores[order]
    keep = nms(boxes, scores, iou, max_keep=max_keep)
    return boxes[keep], scores[keep]


def generate_proposals(rpn_out, anchors, img_w: float, img_h: float) -> np.ndarray:
    """The [K,4] proposals, at most ``RPN_POST_NMS_K``, that ``_select_boxes``
    keeps at ``RPN_NMS_IOU`` from the objectness sigmoids.

    ``rpn_out`` is ``rpn_forward``'s (logits [A], deltas [A,4]) and
    ``anchors`` the matching [A,4] array, so one sigmoid, one decode and
    one clip run over all levels at once; each is elementwise, so the boxes
    and scores are the per-level ones bit for bit.
    """
    logits, deltas = rpn_out
    boxes, _ = _select_boxes(anchors, deltas.data, sigmoid(logits.data), img_w, img_h,
                             RPN_NMS_IOU, RPN_POST_NMS_K)
    return boxes


def forward_pyramid(image: Tensor, cfg: NetConfig, params: dict) -> tuple:
    """The (P2, P3, P4, P5) pyramid of one [1,3,H,W] image."""
    return fpn_forward(backbone_forward(image, cfg, params), params)


def propose(image4: Tensor, cfg: NetConfig, params: dict):
    """(pyramid, ``rpn_forward``'s output, its [A,4] anchors, [K,4] proposals)
    of one [1,3,H,W] image, in training and detection alike; draws no rng."""
    h, w = image4.data.shape[-2:]
    pyr = forward_pyramid(image4, cfg, params)
    rpn_out = rpn_forward(pyr, params)
    anchors = pyramid_anchors(pyr)
    return pyr, rpn_out, anchors, generate_proposals(rpn_out, anchors, w, h)


# ---- RPN training targets -------------------------------------------------


def _subsample(pos_mask, neg_mask, batch: int, pos_frac: float, rng: np.random.Generator):
    """(positive, negative) indices of a training batch of at most ``batch``:
    at most ``int(batch * pos_frac)`` positives, then negatives fill the
    rest. A side with more candidates than places keeps a random sorted
    subset, positives drawn first; both stages sample through this."""
    pos_idx, neg_idx = np.flatnonzero(pos_mask), np.flatnonzero(neg_mask)
    n_pos = min(len(pos_idx), int(batch * pos_frac))
    if len(pos_idx) > n_pos:
        pos_idx = np.sort(rng.choice(pos_idx, size=n_pos, replace=False))
    n_neg = min(len(neg_idx), batch - n_pos)
    if len(neg_idx) > n_neg:
        neg_idx = np.sort(rng.choice(neg_idx, size=n_neg, replace=False))
    return pos_idx, neg_idx


def assign_rpn_anchors(anchors: np.ndarray, gt_boxes: np.ndarray):
    """Anchor labels (1 pos / 0 neg / -1 ignore, int8) and matched-GT indices.

    Positive: IoU >= RPN_POS_IOU with any GT, or best anchor for a GT (ties
    all count). Negative: max IoU <= RPN_NEG_IOU. Everything else is ignored.
    """
    m = anchors.shape[0]
    labels = np.full(m, -1, dtype=np.int8)
    matched = np.zeros(m, dtype=np.int64)
    if gt_boxes.size == 0:
        labels[:] = 0
        return labels, matched
    ious = iou_matrix(anchors, gt_boxes)
    best = ious.max(axis=1)
    matched = ious.argmax(axis=1)
    labels[best <= RPN_NEG_IOU] = 0
    labels[best >= RPN_POS_IOU] = 1
    col_best = ious.max(axis=0)
    for g in range(gt_boxes.shape[0]):
        if col_best[g] > 0.0:
            winners = np.where(ious[:, g] == col_best[g])[0]
            labels[winners] = 1
            matched[winners] = g
    return labels, matched


def rpn_loss(rpn_out, anchors, gt_boxes: np.ndarray, rng: np.random.Generator,
             assigned=None) -> Tensor:
    """Binary cross-entropy on a sampled anchor batch plus smooth-L1 on the
    positives' deltas (per-anchor coordinate sum, averaged over positives).

    ``rpn_out`` is ``rpn_forward``'s (logits [A], deltas [A,4]) and
    ``anchors`` the matching [A,4] array; the loss picks its anchors' rows
    from them directly. ``assigned`` is ``assign_rpn_anchors(anchors,
    gt_boxes)`` when the caller already holds it; it is computed otherwise.
    """
    gt_boxes = np.asarray(gt_boxes).reshape(-1, 4)
    labels, matched = assign_rpn_anchors(anchors, gt_boxes) if assigned is None else assigned
    pos_idx, neg_idx = _subsample(labels == 1, labels == 0, RPN_BATCH, RPN_POS_FRAC, rng)
    logits, deltas = rpn_out
    sample_idx = np.concatenate([pos_idx, neg_idx]).astype(np.intp)
    sample_targets = np.concatenate([np.ones(len(pos_idx)), np.zeros(len(neg_idx))])
    loss = ad.bce_with_logits(ad.take(logits, sample_idx), sample_targets)
    targets = encode_deltas(anchors[pos_idx], gt_boxes[matched[pos_idx]])
    return _add_box_loss(loss, deltas, pos_idx, targets)


def _add_box_loss(loss: Tensor, deltas: Tensor, pos, targets) -> Tensor:
    """``loss`` plus smooth-L1 of the positives' rows ``pos`` of ``deltas``
    against ``targets`` [P,4], summed per box and averaged over the
    positives; ``loss`` itself when there are none."""
    if len(pos) == 0:
        return loss
    reg = ad.tsum(ad.smooth_l1(ad.take(deltas, pos), targets)) * (1.0 / len(pos))
    return ad.add(loss, reg)


# ---- second stage ---------------------------------------------------------


def sample_rois(proposals: np.ndarray, gt_boxes: np.ndarray, rng: np.random.Generator):
    """Pick the second-stage training batch at a 1:3 positive:negative ratio.

    Ground-truth boxes join the candidate pool after the proposals (standard
    practice; it keeps early training supplied with positives). Returns
    (rois [R,4], labels [R], targets [R,4]); target rows are meaningful only
    where the label is 1.
    """
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    cand = np.concatenate([np.asarray(proposals, dtype=np.float64).reshape(-1, 4), gt_boxes])
    if len(cand) == 0:
        return np.zeros((0, 4)), np.zeros(0, dtype=np.int64), np.zeros((0, 4))
    if gt_boxes.size:
        ious = iou_matrix(cand, gt_boxes)
        best = ious.max(axis=1)
        arg = ious.argmax(axis=1)
    else:
        best = np.zeros(len(cand))
        arg = np.zeros(len(cand), dtype=np.int64)
    pos_idx, neg_idx = _subsample(best >= ROI_POS_IOU, best < ROI_POS_IOU, ROI_BATCH, ROI_POS_FRAC, rng)
    picks = np.concatenate([pos_idx, neg_idx]).astype(np.intp)

    rois = cand[picks]
    labels = (best[picks] >= ROI_POS_IOU).astype(np.int64)
    targets = np.zeros((len(picks), 4))
    if gt_boxes.size and labels.any():
        pos_mask = labels == 1
        targets[pos_mask] = encode_deltas(rois[pos_mask], gt_boxes[arg[picks][pos_mask]])
    return rois, labels, targets


def head_logits(regions: Tensor, cfg: NetConfig, params: dict) -> Tensor:
    """The head's logits [R,L] of region features [R,C,S,S]: the two FC
    layers, each followed by a relu, and not the siblings. These are the
    activations the logit matching term compares."""
    r = regions.data.shape[0]
    x = regions.reshape((r, regions.data.size // r))
    if x.data.shape[1] != cfg.head_input_width:
        raise ShapeError(
            f"region width {x.data.shape[1]} does not match head input {cfg.head_input_width}"
        )
    h1 = ad.relu(ad.linear(x, params["head.fc1.w"], params["head.fc1.b"]))
    return ad.relu(ad.linear(h1, params["head.fc2.w"], params["head.fc2.b"]))


def head_forward_batch(regions: Tensor, cfg: NetConfig, params: dict):
    """Run the two FC layers (``head_logits``) and the siblings on region
    features [R,C,S,S].

    Returns (logits [R,L], class_scores [R,2], box_deltas [R,4]).
    """
    logit = head_logits(regions, cfg, params)
    cls = ad.linear(logit, params["head.cls.w"], params["head.cls.b"])
    box = ad.linear(logit, params["head.box.w"], params["head.box.b"])
    return logit, cls, box


def detection_loss(class_scores: Tensor, box_deltas: Tensor, roi_labels,
                   roi_targets) -> Tensor:
    """Cross-entropy over all sampled boxes plus smooth-L1 regression on the
    positives (coordinate sum per box, averaged over positives)."""
    labels = np.asarray(roi_labels, dtype=np.int64)
    pos = np.where(labels == 1)[0]
    return _add_box_loss(ad.softmax_cross_entropy(class_scores, labels), box_deltas, pos,
                         np.asarray(roi_targets)[pos])


# ---- inference ------------------------------------------------------------


def detect(image: Tensor, cfg: NetConfig, params: dict) -> list[Detection]:
    """Full two-stage inference on one [1,3,H,W] image. It works on
    detached views of the params, which copy no data, so no op records a
    gradient rule or keeps its buffers alive.

    The head's boxes scoring above ``DET_SCORE_THRESH`` go through
    ``_select_boxes`` at ``DET_NMS_IOU`` with no cap. The proposals passed
    its ``RPN_PRE_NMS_K`` rank already, so here that rank drops none."""
    params = {name: p.detach() for name, p in params.items()}
    h, w = image.data.shape[2:]
    pyr, _, _, proposals = propose(image, cfg, params)
    if len(proposals) == 0:
        return []
    regions = roi_ops.extract_region_batch(pyr, proposals, cfg.pyramid_roi)
    _, cls, box = head_forward_batch(regions, cfg, params)
    z = cls.data.astype(np.float64)  # scores, like boxes, are scored in float64
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    ok = probs[:, 1] > DET_SCORE_THRESH
    boxes, scores = _select_boxes(proposals[ok], box.data[ok], probs[ok, 1], w, h, DET_NMS_IOU)
    return [Detection(*(float(v) for v in b), score=float(s)) for b, s in zip(boxes, scores)]
