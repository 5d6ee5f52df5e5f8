"""Teacher/student detector: backbone, top-down pyramid, proposal head and
the second-stage region classifier, plus their supervised losses.

Both roles share one architecture family; the teacher simply gets wider
stages, more blocks and a wider first head layer. Pyramid width is shared so
feature-matching losses need no adaptation layers.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import roi as roi_ops
from .autodiff import ShapeError, Tensor
from .boxes import (
    RoI,
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


@dataclass(frozen=True)
class NetConfig:
    """Architecture knobs for one detector role."""

    widths: tuple = (8, 16, 32, 64)
    blocks: tuple = (1, 1, 1, 1)
    pyramid_width: int = 32
    role: str = "student"
    head_hidden: int = 48
    logit_width: int = 64
    pyramid_roi: bool = True
    roi_size: int = 7
    roi_samples: int = 2
    anchor_base: float = 16.0
    anchor_aspect: float = 2.4
    pre_nms_k: int = 200
    post_nms_k: int = 32
    nms_iou: float = 0.7
    canonical: float = roi_ops.CANONICAL_SIZE

    def __post_init__(self):
        if len(self.widths) != 4 or len(self.blocks) != 4:
            raise ValueError("widths and blocks need one entry per stage")
        if any(w <= 0 for w in self.widths) or any(b <= 0 for b in self.blocks):
            raise ValueError("stage widths and block counts must be positive")
        if self.role not in ("teacher", "student"):
            raise ValueError(f"unknown role {self.role!r}")

    @property
    def head_input_width(self) -> int:
        levels = 4 if self.pyramid_roi else 1
        return levels * self.pyramid_width * self.roi_size * self.roi_size


def default_student_config(pyramid_roi: bool = True) -> NetConfig:
    return NetConfig(role="student", pyramid_roi=pyramid_roi)


def default_teacher_config() -> NetConfig:
    return NetConfig(
        widths=(16, 32, 64, 128),
        blocks=(2, 2, 2, 2),
        role="teacher",
        head_hidden=256,
    )


class BackboneFeatures(NamedTuple):
    c2: Tensor
    c3: Tensor
    c4: Tensor
    c5: Tensor


@dataclass
class FeaturePyramid:
    p2: Tensor
    p3: Tensor
    p4: Tensor
    p5: Tensor

    def levels(self):
        return (self.p2, self.p3, self.p4, self.p5)

    @property
    def strides(self):
        return roi_ops.PYRAMID_STRIDES


# ---- parameters -----------------------------------------------------------


def _name_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode()).digest()
    return np.random.default_rng([int(seed), int.from_bytes(digest[:8], "little")])


_PREDICTION_STD = 0.01  # near-zero logits/deltas at the start of training


def _conv_param(params, name, k, c, kh, kw, seed, std=None):
    rng = _name_rng(seed, name)
    if std is None:
        std = np.sqrt(2.0 / (c * kh * kw))
    params[name + ".w"] = Tensor(rng.normal(0.0, std, size=(k, c, kh, kw)), requires_grad=True)
    params[name + ".b"] = Tensor(np.zeros(k), requires_grad=True)


def _fc_param(params, name, d_in, d_out, seed, std=None):
    rng = _name_rng(seed, name)
    if std is None:
        std = np.sqrt(2.0 / d_in)
    params[name + ".w"] = Tensor(rng.normal(0.0, std, size=(d_in, d_out)), requires_grad=True)
    params[name + ".b"] = Tensor(np.zeros(d_out), requires_grad=True)


def init_params(cfg: NetConfig, seed: int) -> dict:
    """Fresh parameter dict. Tensors sharing a name and shape across configs
    receive identical values, which keeps ablation variants comparable."""
    p: dict[str, Tensor] = {}
    w = cfg.widths
    _conv_param(p, "bb.stem", w[0], 3, 3, 3, seed)
    for s in range(4):
        c_in = w[max(s - 1, 0)] if s > 0 else w[0]
        for blk in range(cfg.blocks[s]):
            cin = c_in if blk == 0 else w[s]
            _conv_param(p, f"bb.s{s + 1}.c{blk}", w[s], cin, 3, 3, seed)
    d = cfg.pyramid_width
    for lvl, cw in zip((2, 3, 4, 5), w):
        _conv_param(p, f"fpn.lat{lvl}", d, cw, 1, 1, seed)
    for lvl in (2, 3, 4):
        _conv_param(p, f"fpn.smooth{lvl}", d, d, 3, 3, seed)
    _conv_param(p, "rpn.conv", d, d, 3, 3, seed)
    _conv_param(p, "rpn.obj", 1, d, 1, 1, seed, std=_PREDICTION_STD)
    _conv_param(p, "rpn.box", 4, d, 1, 1, seed, std=_PREDICTION_STD)
    _fc_param(p, "head.fc1", cfg.head_input_width, cfg.head_hidden, seed)
    _fc_param(p, "head.fc2", cfg.head_hidden, cfg.logit_width, seed)
    _fc_param(p, "head.cls", cfg.logit_width, 2, seed, std=_PREDICTION_STD)
    _fc_param(p, "head.box", cfg.logit_width, 4, seed, std=_PREDICTION_STD)
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


def backbone_forward(image: Tensor, cfg: NetConfig, params: dict) -> BackboneFeatures:
    """Four feature maps at strides 4/8/16/32 of the [1,3,H,W] input."""
    if image.data.ndim != 4 or image.data.shape[:2] != (1, 3):
        raise ShapeError("backbone expects an image of shape [1,3,H,W]")
    h, w = image.data.shape[2:]
    if h % 32 or w % 32:
        raise ShapeError(f"input size {h}x{w} must be divisible by 32")

    x = ad.add(image, -0.5)  # center [0,1] pixel values
    x = ad.relu(conv2d(x, params["bb.stem.w"], params["bb.stem.b"], pad=1))
    x = maxpool2x2(x)
    feats = []
    for s in range(4):
        x = maxpool2x2(x)  # strides 4/8/16/32 entering each stage
        for blk in range(cfg.blocks[s]):
            x = ad.relu(
                conv2d(x, params[f"bb.s{s + 1}.c{blk}.w"], params[f"bb.s{s + 1}.c{blk}.b"], pad=1)
            )
        feats.append(x)
    return BackboneFeatures(*feats)


def fpn_forward(feats: BackboneFeatures, cfg: NetConfig, params: dict) -> FeaturePyramid:
    """Top-down merge: P5 = lat(C5); Pi = smooth(lat(Ci) + up2(Pi+1))."""
    lat = {
        lvl: conv2d(f, params[f"fpn.lat{lvl}.w"], params[f"fpn.lat{lvl}.b"])
        for lvl, f in zip((2, 3, 4, 5), feats)
    }
    p5 = lat[5]
    merged = {5: p5}
    for lvl in (4, 3, 2):
        summed = ad.add(lat[lvl], upsample2x(merged[lvl + 1]))
        merged[lvl] = conv2d(summed, params[f"fpn.smooth{lvl}.w"], params[f"fpn.smooth{lvl}.b"], pad=1)
    return FeaturePyramid(merged[2], merged[3], merged[4], merged[5])


def rpn_forward(pyr: FeaturePyramid, cfg: NetConfig, params: dict):
    """Shared proposal head on every level: per-location objectness logit
    plus 4 box deltas (one anchor per location)."""
    out = []
    for level in pyr.levels():
        t = ad.relu(conv2d(level, params["rpn.conv.w"], params["rpn.conv.b"], pad=1))
        obj = conv2d(t, params["rpn.obj.w"], params["rpn.obj.b"])
        box = conv2d(t, params["rpn.box.w"], params["rpn.box.b"])
        hw = obj.data.shape[2:]
        out.append((obj.reshape((1, *hw)), box.reshape((4, *hw))))
    return out


@functools.lru_cache(maxsize=64)
def _anchor_grid(level: int, hi: int, wi: int, base_size: float, aspect: float) -> np.ndarray:
    """level_anchors, built once per grid; read-only since callers share it."""
    grid = level_anchors(level, hi, wi, base_size=base_size, aspect=aspect)
    grid.flags.writeable = False
    return grid


def pyramid_anchors(pyr: FeaturePyramid, cfg: NetConfig) -> list[np.ndarray]:
    """One anchor grid per pyramid level, shared (read-only) across calls."""
    return [
        _anchor_grid(lvl, level.data.shape[-2], level.data.shape[-1], cfg.anchor_base, cfg.anchor_aspect)
        for lvl, level in zip((2, 3, 4, 5), pyr.levels())
    ]


def generate_proposals(rpn_out, anchors, pre_nms_k: int, post_nms_k: int,
                       nms_iou: float, img_w: float, img_h: float) -> list[RoI]:
    """Decode deltas onto anchors, clip, rank, and greedily deduplicate."""
    all_boxes = []
    all_scores = []
    for (obj, box), anc in zip(rpn_out, anchors):
        scores = sigmoid(obj.data.reshape(-1))
        deltas = box.data.reshape(4, -1).T
        all_boxes.append(decode_deltas(anc, deltas))
        all_scores.append(scores)
    boxes = clip_boxes(np.concatenate(all_boxes), img_w, img_h)
    scores = np.concatenate(all_scores)
    valid = (boxes[:, 2] - boxes[:, 0] > 1e-3) & (boxes[:, 3] - boxes[:, 1] > 1e-3)
    boxes, scores = boxes[valid], scores[valid]
    if len(scores) == 0:
        return []
    order = np.argsort(-scores, kind="stable")[:pre_nms_k]
    boxes, scores = boxes[order], scores[order]
    keep = nms(boxes, scores, nms_iou)[:post_nms_k]
    return [RoI(*(float(v) for v in boxes[i]), score=float(scores[i])) for i in keep]


# ---- RPN training targets -------------------------------------------------


def assign_rpn_anchors(anchors: np.ndarray, gt_boxes: np.ndarray,
                       pos_iou: float = 0.7, neg_iou: float = 0.3):
    """Anchor labels (1 pos / 0 neg / -1 ignore) and matched-GT indices.

    Positive: IoU >= pos_iou with any GT, or best anchor for a GT (ties all
    count). Negative: max IoU <= neg_iou. Everything else is ignored.
    """
    m = anchors.shape[0]
    labels = np.full(m, -1, dtype=np.int64)
    matched = np.zeros(m, dtype=np.int64)
    if gt_boxes.size == 0:
        labels[:] = 0
        return labels, matched
    ious = iou_matrix(anchors, gt_boxes)
    best = ious.max(axis=1)
    matched = ious.argmax(axis=1)
    labels[best <= neg_iou] = 0
    labels[best >= pos_iou] = 1
    col_best = ious.max(axis=0)
    for g in range(gt_boxes.shape[0]):
        if col_best[g] > 0.0:
            winners = np.where(ious[:, g] == col_best[g])[0]
            labels[winners] = 1
            matched[winners] = g
    return labels, matched


def rpn_loss(rpn_out, anchors, gt_boxes: np.ndarray, rng: np.random.Generator,
             batch: int = 64, pos_frac: float = 0.5) -> Tensor:
    """Binary cross-entropy on a sampled anchor batch plus smooth-L1 on the
    positives' deltas (per-anchor coordinate sum, averaged over positives)."""
    anchors_all = np.concatenate(anchors)
    labels, matched = assign_rpn_anchors(anchors_all, np.asarray(gt_boxes).reshape(-1, 4))

    pos_idx = np.where(labels == 1)[0]
    neg_idx = np.where(labels == 0)[0]
    n_pos = min(len(pos_idx), int(batch * pos_frac))
    if len(pos_idx) > n_pos:
        pos_idx = np.sort(rng.choice(pos_idx, size=n_pos, replace=False))
    n_neg = min(len(neg_idx), batch - n_pos)
    if len(neg_idx) > n_neg:
        neg_idx = np.sort(rng.choice(neg_idx, size=n_neg, replace=False))

    flat_logits = ad.concat([obj.reshape((obj.data.size,)) for obj, _ in rpn_out], axis=0)
    sample_idx = np.concatenate([pos_idx, neg_idx]).astype(np.intp)
    sample_targets = np.concatenate([np.ones(len(pos_idx)), np.zeros(len(neg_idx))])
    loss = ad.bce_with_logits(ad.gather(flat_logits, sample_idx), sample_targets)

    if len(pos_idx):
        delta_rows = ad.concat(
            [box.reshape((4, box.data.size // 4)).transpose((1, 0)) for _, box in rpn_out],
            axis=0,
        )
        pred = ad.take_rows(delta_rows, pos_idx)
        gt = np.asarray(gt_boxes).reshape(-1, 4)[matched[pos_idx]]
        target = encode_deltas(anchors_all[pos_idx], gt)
        reg = ad.tsum(ad.smooth_l1(pred, Tensor(target))) * (1.0 / len(pos_idx))
        loss = ad.add(loss, reg)
    return loss


# ---- second stage ---------------------------------------------------------


def sample_rois(proposals: list[RoI], gt_boxes: np.ndarray, rng: np.random.Generator,
                batch: int = 32, pos_frac: float = 0.25, pos_iou: float = 0.5,
                include_gt: bool = True):
    """Pick the second-stage training batch at a 1:3 positive:negative ratio.

    Ground-truth boxes join the candidate pool (standard practice; it keeps
    early training supplied with positives). Returns (rois, labels, targets);
    target rows are meaningful only where the label is 1.
    """
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    cand = [RoI(*(float(v) for v in b)) for b in gt_boxes] if include_gt else []
    cand = proposals + cand
    if not cand:
        return [], np.zeros(0, dtype=np.int64), np.zeros((0, 4))
    boxes = np.array([[r.x1, r.y1, r.x2, r.y2] for r in cand])
    if gt_boxes.size:
        ious = iou_matrix(boxes, gt_boxes)
        best = ious.max(axis=1)
        arg = ious.argmax(axis=1)
    else:
        best = np.zeros(len(cand))
        arg = np.zeros(len(cand), dtype=np.int64)
    pos_idx = np.where(best >= pos_iou)[0]
    neg_idx = np.where(best < pos_iou)[0]
    n_pos = min(len(pos_idx), int(batch * pos_frac))
    if len(pos_idx) > n_pos:
        pos_idx = np.sort(rng.choice(pos_idx, size=n_pos, replace=False))
    n_neg = min(len(neg_idx), batch - len(pos_idx))
    if len(neg_idx) > n_neg:
        neg_idx = np.sort(rng.choice(neg_idx, size=n_neg, replace=False))
    picks = np.concatenate([pos_idx, neg_idx]).astype(np.intp)

    rois = [cand[i] for i in picks]
    labels = (best[picks] >= pos_iou).astype(np.int64)
    targets = np.zeros((len(picks), 4))
    if gt_boxes.size and labels.any():
        pos_mask = labels == 1
        targets[pos_mask] = encode_deltas(boxes[picks][pos_mask], gt_boxes[arg[picks][pos_mask]])
    return rois, labels, targets


def head_forward_batch(regions, cfg: NetConfig, params: dict):
    """Run the two FC layers and siblings on region features, either a
    batch tensor [R,C,S,S] or a list of [C,S,S] crops.

    Returns (logits [R,L], class_scores [R,2], box_deltas [R,4]); the logit
    rows are the activations of the second FC layer, the tensors the
    matching loss operates on.
    """
    if isinstance(regions, Tensor):
        r = regions.data.shape[0]
        x = regions.reshape((r, regions.data.size // r))
    else:
        if not regions:
            raise ShapeError("head_forward_batch on an empty region list")
        rows = [r.reshape((1, r.data.size)) for r in regions]
        x = rows[0] if len(rows) == 1 else ad.concat(rows, axis=0)
    if x.data.shape[1] != cfg.head_input_width:
        raise ShapeError(
            f"region width {x.data.shape[1]} does not match head input {cfg.head_input_width}"
        )
    h1 = ad.relu(ad.linear(x, params["head.fc1.w"], params["head.fc1.b"]))
    logit = ad.relu(ad.linear(h1, params["head.fc2.w"], params["head.fc2.b"]))
    cls = ad.linear(logit, params["head.cls.w"], params["head.cls.b"])
    box = ad.linear(logit, params["head.box.w"], params["head.box.b"])
    return logit, cls, box


def head_forward(region: Tensor, cfg: NetConfig, params: dict):
    """Single-region head: (logit [L], class_scores [2], box_deltas [4])."""
    logit, cls, box = head_forward_batch([region], cfg, params)
    return logit.flatten(), cls.flatten(), box.flatten()


def detection_loss(class_scores: Tensor, box_deltas: Tensor, roi_labels,
                   roi_targets) -> Tensor:
    """Cross-entropy over all sampled boxes plus smooth-L1 regression on the
    positives (coordinate sum per box, averaged over positives)."""
    labels = np.asarray(roi_labels, dtype=np.int64)
    loss = ad.softmax_cross_entropy(class_scores, labels)
    pos = np.where(labels == 1)[0]
    if len(pos):
        pred = ad.take_rows(box_deltas, pos)
        target = Tensor(np.asarray(roi_targets, dtype=np.float64)[pos])
        loss = ad.add(loss, ad.tsum(ad.smooth_l1(pred, target)) * (1.0 / len(pos)))
    return loss


# ---- inference ------------------------------------------------------------


def forward_pyramid(image: Tensor, cfg: NetConfig, params: dict) -> FeaturePyramid:
    return fpn_forward(backbone_forward(image, cfg, params), cfg, params)


def detect(image: Tensor, cfg: NetConfig, params: dict,
           score_thresh: float = 0.0, det_nms_iou: float = 0.5) -> list[Detection]:
    """Full two-stage inference on one [1,3,H,W] image."""
    h, w = image.data.shape[2:]
    pyr = forward_pyramid(image, cfg, params)
    rpn_out = rpn_forward(pyr, cfg, params)
    proposals = generate_proposals(
        rpn_out, pyramid_anchors(pyr, cfg), cfg.pre_nms_k, cfg.post_nms_k, cfg.nms_iou, w, h
    )
    if not proposals:
        return []
    regions = roi_ops.extract_region_batch(
        pyr, proposals, cfg.pyramid_roi, out_size=cfg.roi_size, samples=cfg.roi_samples
    )
    _, cls, box = head_forward_batch(regions, cfg, params)
    z = cls.data
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    scores = probs[:, 1]
    boxes = clip_boxes(
        decode_deltas(np.array([[r.x1, r.y1, r.x2, r.y2] for r in proposals]), box.data), w, h
    )
    ok = (scores > score_thresh) & (boxes[:, 2] - boxes[:, 0] > 1e-3) & (boxes[:, 3] - boxes[:, 1] > 1e-3)
    boxes, scores = boxes[ok], scores[ok]
    if len(scores) == 0:
        return []
    keep = nms(boxes, scores, det_nms_iou)
    return [Detection(*(float(v) for v in boxes[i]), score=float(scores[i])) for i in keep]
