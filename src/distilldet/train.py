"""Two-phase training driver.

Phase one trains the teacher on detection + proposal losses alone. Phase two
freezes the teacher and trains the student on the same supervised losses plus
the weighted feature-matching terms; the teacher contributes activations
only, never gradients. With every matching term disabled the student phase
reduces exactly (bitwise) to plain supervised training.

Each step keeps its boxes as [N,4] arrays: the student's proposals feed the
second-stage sampler, and region and logit matching crop those same
proposals from the student and teacher pyramids.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import nets, roi
from .autodiff import Tensor, backward
from .checkpoint import load_checkpoint, save_checkpoint
from .data import SyntheticScene
from .distill import (
    DistillConfig,
    DistillReport,
    logit_distill_loss,
    pyramid_distill_loss,
    region_distill_loss,
    total_distill_loss,
)
from .evalmr import GTBox
from .nets import NetConfig


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 6
    base_lr: float = 0.002
    lr_decay_epochs: tuple = (4, 6)
    lr_decay_factor: float = 0.1
    flip_prob: float = 0.5
    momentum: float = 0.9
    clip_grad_norm: float = 10.0  # 0 disables clipping
    seed: int = 0
    cache_teacher: bool = True
    distill: DistillConfig = field(default_factory=DistillConfig)

    def __post_init__(self):
        if list(self.lr_decay_epochs) != sorted(self.lr_decay_epochs):
            raise ValueError("lr_decay_epochs must be ascending")
        if any(e > self.epochs for e in self.lr_decay_epochs):
            raise ValueError("lr_decay_epochs must not exceed epochs")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")


@dataclass
class StepRecord:
    epoch: int
    step: int
    lr: float
    det_loss: float
    rpn_loss: float
    distill: DistillReport

    def to_json(self) -> str:
        d = {"epoch": self.epoch, "step": self.step, "lr": self.lr,
             "det_loss": self.det_loss, "rpn_loss": self.rpn_loss,
             "pd": self.distill.pd, "rd": self.distill.rd, "ld": self.distill.ld,
             "dist_total": self.distill.total}
        return json.dumps(d, sort_keys=True)


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """base_lr scaled by the decay factor once per decay epoch reached."""
    if not 1 <= epoch <= cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [1, {cfg.epochs}]")
    hits = sum(1 for e in cfg.lr_decay_epochs if e <= epoch)
    return cfg.base_lr * cfg.lr_decay_factor ** hits


def horizontal_flip(image: Tensor, gts: list[GTBox]):
    """Mirror a [3,H,W] image on the width axis; box x-endpoints swap."""
    w = float(image.data.shape[-1])
    flipped = Tensor(np.ascontiguousarray(image.data[..., ::-1]))
    boxes = [
        GTBox(w - g.x2, g.y1, w - g.x1, g.y2, visibility=g.visibility, ignore=g.ignore)
        for g in gts
    ]
    return flipped, boxes


class SGD:
    """SGD with classical momentum and optional global-norm gradient
    clipping. Parameters that received no gradient in a step are left
    untouched."""

    def __init__(self, params: dict, momentum: float = 0.9, clip_grad_norm: float = 0.0):
        self.params = params
        self.momentum = momentum
        self.clip_grad_norm = clip_grad_norm
        self.velocity = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self, lr: float):
        if self.clip_grad_norm > 0:
            sq = sum(
                float((p.grad * p.grad).sum())
                for p in self.params.values() if p.grad is not None
            )
            norm = np.sqrt(sq)
            if norm > self.clip_grad_norm:
                scale = self.clip_grad_norm / norm
                for p in self.params.values():
                    if p.grad is not None:
                        p.grad *= scale
        for name, p in self.params.items():
            if p.grad is None:
                continue
            if self.momentum:
                v = self.velocity[name]
                v *= self.momentum
                v += p.grad
                p.data -= lr * v
            else:
                p.data -= lr * p.grad
            p.grad = None


class _TeacherContext:
    """Frozen teacher plus a pyramid cache keyed by (scene, flipped)."""

    def __init__(self, cfg: NetConfig, params: dict, cache: bool = True):
        self.cfg = cfg
        self.params = {k: v.detach() for k, v in params.items()}
        self.cache_enabled = cache
        self._cache: dict = {}

    def pyramid(self, scene_index: int, flipped: bool, image: Tensor) -> nets.FeaturePyramid:
        key = (scene_index, flipped)
        if self.cache_enabled and key in self._cache:
            arrs = self._cache[key]
        else:
            pyr = nets.forward_pyramid(image, self.cfg, self.params)
            arrs = tuple(level.data for level in pyr.levels())
            if self.cache_enabled:
                self._cache[key] = arrs
        return nets.FeaturePyramid(*(Tensor(a) for a in arrs))


def train_detector(scenes: list[SyntheticScene], net_cfg: NetConfig, tcfg: TrainConfig,
                   teacher: _TeacherContext | None = None,
                   log_fh=None) -> tuple[dict, list[StepRecord]]:
    """Core seeded loop shared by both phases. ``teacher`` enables the
    matching losses configured in ``tcfg.distill``; it raises ValueError
    when the teacher's pyramid or logit width differs from the student's."""
    dcfg = tcfg.distill
    distilling = teacher is not None and dcfg.any_enabled
    if distilling:
        if teacher.cfg.pyramid_width != net_cfg.pyramid_width:
            raise ValueError("teacher/student pyramid widths differ; matching losses need equal widths")
        if teacher.cfg.logit_width != net_cfg.logit_width:
            raise ValueError("teacher/student logit widths differ")
        if net_cfg.pyramid_roi != dcfg.pyramid_roi_align:
            raise ValueError("student crop mode must match the matching configuration")

    params = nets.init_params(net_cfg, seed=tcfg.seed)
    opt = SGD(params, momentum=tcfg.momentum, clip_grad_norm=tcfg.clip_grad_norm)
    rng = np.random.default_rng([int(tcfg.seed), 104729])
    records: list[StepRecord] = []
    step = 0

    for epoch in range(1, tcfg.epochs + 1):
        lr = lr_schedule(epoch, tcfg)
        order = rng.permutation(len(scenes))
        for si in order:
            scene = scenes[int(si)]
            flipped = bool(rng.random() < tcfg.flip_prob)
            if flipped:
                image, gts = horizontal_flip(scene.image, scene.gts)
            else:
                image, gts = scene.image, scene.gts
            h, w = image.data.shape[-2:]
            image4 = image.reshape((1, 3, h, w))
            gt_arr = np.array([[g.x1, g.y1, g.x2, g.y2] for g in gts]).reshape(-1, 4)

            pyr = nets.forward_pyramid(image4, net_cfg, params)
            rpn_out = nets.rpn_forward(pyr, net_cfg, params)
            anchors = nets.pyramid_anchors(pyr, net_cfg)
            loss_rpn = nets.rpn_loss(rpn_out, anchors, gt_arr, rng)
            proposals = nets.generate_proposals(
                rpn_out, anchors, net_cfg.pre_nms_k, net_cfg.post_nms_k, net_cfg.nms_iou, w, h
            )
            rois, labels, targets = nets.sample_rois(proposals, gt_arr, rng)

            if len(rois):
                regions = roi.extract_region_batch(
                    pyr, rois, net_cfg.pyramid_roi,
                    out_size=net_cfg.roi_size, samples=net_cfg.roi_samples,
                )
                _, cls, box = nets.head_forward_batch(regions, net_cfg, params)
                loss_det = nets.detection_loss(cls, box, labels, targets)
                total = ad.add(loss_det, loss_rpn)
            else:
                loss_det = Tensor(0.0)
                total = loss_rpn

            report = DistillReport()
            if distilling:
                t_pyr = teacher.pyramid(scene.index, flipped, image4)
                pd = pyramid_distill_loss(pyr, t_pyr) if dcfg.enable_pd else None
                rd = Tensor(0.0) if dcfg.enable_rd else None
                ld = Tensor(0.0) if dcfg.enable_ld else None
                if len(proposals) and (dcfg.enable_rd or dcfg.enable_ld):
                    s_reg = roi.extract_region_batch(
                        pyr, proposals, dcfg.pyramid_roi_align,
                        out_size=net_cfg.roi_size, samples=net_cfg.roi_samples,
                    )
                    t_reg = None
                    if dcfg.enable_rd:
                        t_reg = roi.extract_region_batch(
                            t_pyr, proposals, dcfg.pyramid_roi_align,
                            out_size=net_cfg.roi_size, samples=net_cfg.roi_samples,
                        )
                        rd = region_distill_loss(s_reg, t_reg)
                    if dcfg.enable_ld:
                        s_logits, _, _ = nets.head_forward_batch(s_reg, net_cfg, params)
                        if t_reg is None or teacher.cfg.pyramid_roi != dcfg.pyramid_roi_align:
                            t_reg = roi.extract_region_batch(
                                t_pyr, proposals, teacher.cfg.pyramid_roi,
                                out_size=teacher.cfg.roi_size, samples=teacher.cfg.roi_samples,
                            )
                        t_logits, _, _ = nets.head_forward_batch(t_reg, teacher.cfg, teacher.params)
                        ld = logit_distill_loss(s_logits, t_logits)
                loss_dist, report = total_distill_loss(dcfg, pd, rd, ld)
                total = ad.add(total, loss_dist)

            if not np.isfinite(total.data).all():
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} step {step}: "
                    f"det={loss_det.item():.4g} rpn={loss_rpn.item():.4g} dist={report.total:.4g}"
                )

            backward(total)
            opt.step(lr)
            step += 1
            rec = StepRecord(epoch, step, lr, loss_det.item(), loss_rpn.item(), report)
            records.append(rec)
            if log_fh is not None:
                log_fh.write(rec.to_json() + "\n")
    return params, records


def epoch_mean(records: list[StepRecord], epoch: int, attr: str = "det_loss") -> float:
    vals = [getattr(r, attr) if attr != "dist_total" else r.distill.total
            for r in records if r.epoch == epoch]
    return float(np.mean(vals)) if vals else float("nan")


def _cfg_meta(cfg: NetConfig) -> dict:
    return asdict(cfg)


def _cfg_from_meta(meta: dict) -> NetConfig:
    fields = dict(meta)
    fields["widths"] = tuple(fields["widths"])
    fields["blocks"] = tuple(fields["blocks"])
    return NetConfig(**fields)


def train_teacher(scenes, teacher_cfg: NetConfig, tcfg: TrainConfig, ckpt_path,
                  log_path=None):
    """Phase one: supervised training of the teacher, persisted to disk."""
    if not scenes:
        raise ValueError("empty training set")
    log_fh = open(log_path, "w") if log_path else None
    try:
        params, records = train_detector(scenes, teacher_cfg, tcfg, teacher=None, log_fh=log_fh)
    finally:
        if log_fh:
            log_fh.close()
    save_checkpoint(ckpt_path, params, meta=_cfg_meta(teacher_cfg))
    return params, records


def distill_student(scenes, teacher_ckpt, tcfg: TrainConfig, ckpt_path,
                    student_cfg: NetConfig | None = None, log_path=None):
    """Phase two: train the student against the frozen teacher checkpoint.

    The student's region cropper follows the matching configuration
    (``tcfg.distill.pyramid_roi_align``), which fixes its head input width.
    Raises ValueError when matching is on and the teacher's pyramid or logit
    width differs from the student's.
    """
    if not scenes:
        raise ValueError("empty training set")
    meta, t_params = load_checkpoint(teacher_ckpt)
    teacher_cfg = _cfg_from_meta(meta)
    if student_cfg is None:
        student_cfg = nets.default_student_config()
    student_cfg = replace(student_cfg, pyramid_roi=tcfg.distill.pyramid_roi_align)
    teacher = _TeacherContext(teacher_cfg, t_params, cache=tcfg.cache_teacher)
    log_fh = open(log_path, "w") if log_path else None
    try:
        params, records = train_detector(scenes, student_cfg, tcfg, teacher=teacher, log_fh=log_fh)
    finally:
        if log_fh:
            log_fh.close()
    save_checkpoint(ckpt_path, params, meta=_cfg_meta(student_cfg))
    return params, records, student_cfg
