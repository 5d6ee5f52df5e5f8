"""Two-phase training driver.

Phase one trains the teacher on detection + proposal losses alone. Phase two
freezes the teacher and trains the student on the same supervised losses plus
the weighted feature-matching terms; the teacher contributes activations
only, never gradients.

A step runs named stages in order: ``supervised_step``, then in phase two the
teacher matcher's ``match`` (PD on the pyramids, RD and LD on crops of the
student's [N,4] proposals), then backward and SGD. The matcher exists only
when some matching term is on, so with every term off the student phase is
plain supervised training, bit for bit.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import nets
from . import roi as roi_ops
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


# Each scene is mirrored with this probability when drawn for a step.
FLIP_PROB = 0.5
# The learning rate is multiplied by this at each of ``lr_decay_epochs``.
LR_DECAY_FACTOR = 0.1


@dataclass(frozen=True)
class TrainConfig:
    """The schedule and optimiser of one training phase; the flip rate and
    the learning-rate decay factor are the constants ``FLIP_PROB`` and
    ``LR_DECAY_FACTOR``."""

    epochs: int = 6
    base_lr: float = 0.002
    lr_decay_epochs: tuple = (4, 6)
    momentum: float = 0.9
    clip_grad_norm: float = 10.0  # 0 disables clipping
    seed: int = 0
    distill: DistillConfig = field(default_factory=DistillConfig)

    def __post_init__(self):
        if list(self.lr_decay_epochs) != sorted(self.lr_decay_epochs):
            raise ValueError("lr_decay_epochs must be ascending")
        if any(e < 1 for e in self.lr_decay_epochs):
            raise ValueError(f"lr_decay_epochs entries must be at least 1, got {self.lr_decay_epochs}")
        if any(e > self.epochs for e in self.lr_decay_epochs):
            raise ValueError("lr_decay_epochs must not exceed epochs")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError(f"base_lr must be finite and positive, got {self.base_lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not (math.isfinite(self.clip_grad_norm) and self.clip_grad_norm >= 0):
            raise ValueError(f"clip_grad_norm must be finite and nonnegative, got {self.clip_grad_norm}")


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
    """base_lr scaled by ``LR_DECAY_FACTOR`` once per decay epoch reached."""
    if not 1 <= epoch <= cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [1, {cfg.epochs}]")
    hits = sum(1 for e in cfg.lr_decay_epochs if e <= epoch)
    return cfg.base_lr * LR_DECAY_FACTOR ** hits


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
    """Teacher matcher: the frozen teacher, its pyramid cache keyed by
    (scene, flipped), and the PD/RD/LD terms against one student config.

    The cache is always on; ``cache_enabled`` stays for tools that read it
    (``perfbench/probe.py`` counts cache hits from it and ``_cache``)."""

    cache_enabled = True

    def __init__(self, cfg: NetConfig, params: dict, student_cfg: NetConfig, dcfg: DistillConfig):
        if cfg.pyramid_width != student_cfg.pyramid_width:
            raise ValueError("teacher/student pyramid widths differ; matching losses need equal widths")
        self.cfg = cfg
        self.params = {k: v.detach() for k, v in params.items()}
        self.student_cfg = student_cfg
        self.dcfg = dcfg
        self._cache: dict = {}
        # LD may reuse RD's teacher crop only when it is the crop the teacher's head takes.
        self._ld_reuses_rd_crop = cfg.pyramid_roi == student_cfg.pyramid_roi

    def pyramid(self, scene_index: int, flipped: bool, image: Tensor) -> nets.FeaturePyramid:
        key = (scene_index, flipped)
        if key not in self._cache:
            pyr = nets.forward_pyramid(image, self.cfg, self.params)
            self._cache[key] = tuple(level.data for level in pyr.levels())
        return nets.FeaturePyramid(*(Tensor(a) for a in self._cache[key]))

    def match(self, scene_index: int, flipped: bool, image4: Tensor,
              pyr: nets.FeaturePyramid, proposals: np.ndarray, params: dict):
        """(loss, DistillReport) of the matching terms of positive weight for one step."""
        dcfg = self.dcfg
        pd_on, rd_on, ld_on = dcfg.lambda_pd > 0, dcfg.lambda_rd > 0, dcfg.lambda_ld > 0
        t_pyr = self.pyramid(scene_index, flipped, image4)
        pd = pyramid_distill_loss(pyr, t_pyr) if pd_on else None
        rd = ld = None
        if len(proposals) and (rd_on or ld_on):
            s_reg = roi_ops.extract_region_batch(pyr, proposals, self.student_cfg.pyramid_roi)
            if rd_on:
                t_reg = roi_ops.extract_region_batch(t_pyr, proposals, self.student_cfg.pyramid_roi)
                rd = region_distill_loss(s_reg, t_reg)
            if ld_on:
                s_logits, _, _ = nets.head_forward_batch(s_reg, self.student_cfg, params)
                if not (rd_on and self._ld_reuses_rd_crop):
                    t_reg = roi_ops.extract_region_batch(t_pyr, proposals, self.cfg.pyramid_roi)
                t_logits, _, _ = nets.head_forward_batch(t_reg, self.cfg, self.params)
                ld = logit_distill_loss(s_logits, t_logits)
        return total_distill_loss(dcfg, pd, rd, ld)


def supervised_step(image4: Tensor, gt_arr: np.ndarray, cfg: NetConfig, params: dict,
                    rng: np.random.Generator):
    """(pyramid, proposals, loss_det, loss_rpn, total) of one [1,3,H,W] image
    against its [G,4] ground truth; ``rpn_loss``, then ``sample_rois``, draw from ``rng``."""
    h, w = image4.data.shape[-2:]
    pyr = nets.forward_pyramid(image4, cfg, params)
    rpn_out = nets.rpn_forward(pyr, cfg, params)
    anchors = nets.pyramid_anchors(pyr)
    loss_rpn = nets.rpn_loss(rpn_out, anchors, gt_arr, rng)
    proposals = nets.generate_proposals(
        rpn_out, anchors, nets.RPN_PRE_NMS_K, nets.RPN_POST_NMS_K, nets.RPN_NMS_IOU, w, h
    )
    rois, labels, targets = nets.sample_rois(proposals, gt_arr, rng)
    if not len(rois):
        return pyr, proposals, Tensor(0.0), loss_rpn, loss_rpn
    regions = roi_ops.extract_region_batch(pyr, rois, cfg.pyramid_roi)
    _, cls, box = nets.head_forward_batch(regions, cfg, params)
    loss_det = nets.detection_loss(cls, box, labels, targets)
    return pyr, proposals, loss_det, loss_rpn, ad.add(loss_det, loss_rpn)


def train_detector(scenes: list[SyntheticScene], net_cfg: NetConfig, tcfg: TrainConfig,
                   teacher: _TeacherContext | None = None,
                   log_fh=None) -> tuple[dict, list[StepRecord]]:
    """Core seeded loop shared by both phases; ``teacher`` is the matcher."""
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
            flipped = bool(rng.random() < FLIP_PROB)
            if flipped:
                image, gts = horizontal_flip(scene.image, scene.gts)
            else:
                image, gts = scene.image, scene.gts
            image4 = image.reshape((1, *image.data.shape))
            gt_arr = np.array([[g.x1, g.y1, g.x2, g.y2] for g in gts]).reshape(-1, 4)

            pyr, proposals, loss_det, loss_rpn, total = supervised_step(image4, gt_arr, net_cfg, params, rng)
            report = DistillReport()
            if teacher is not None:
                loss_dist, report = teacher.match(scene.index, flipped, image4, pyr, proposals, params)
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
    """The NetConfig a checkpoint's meta records; ValueError naming the
    missing or unknown fields when the meta is not exactly a NetConfig."""
    names = [f.name for f in fields(NetConfig)]
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint meta is not a detector config: {meta!r}")
    problems = [f"{kind} fields {found}" for kind, found in
                (("missing", [n for n in names if n not in meta]),
                 ("unknown", sorted(set(meta) - set(names)))) if found]
    if problems:
        raise ValueError("checkpoint meta is not a detector config: " + ", ".join(problems))
    return NetConfig(**{**meta, "widths": tuple(meta["widths"]), "blocks": tuple(meta["blocks"])})


def load_detector(path) -> tuple[NetConfig, dict]:
    """(config, params) of a detector checkpoint; a ValueError names
    ``path`` when its meta is not a detector config."""
    meta, params = load_checkpoint(path)
    try:
        return _cfg_from_meta(meta), params
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _train_logged(scenes, net_cfg: NetConfig, tcfg: TrainConfig, teacher, log_path):
    with open(log_path, "w") if log_path else contextlib.nullcontext() as log_fh:
        return train_detector(scenes, net_cfg, tcfg, teacher=teacher, log_fh=log_fh)


def train_teacher(scenes, teacher_cfg: NetConfig, tcfg: TrainConfig, ckpt_path,
                  log_path=None):
    """Phase one: supervised training of the teacher, persisted to disk."""
    if not scenes:
        raise ValueError("empty training set")
    params, records = _train_logged(scenes, teacher_cfg, tcfg, None, log_path)
    save_checkpoint(ckpt_path, params, meta=_cfg_meta(teacher_cfg))
    return params, records


def distill_student(scenes, teacher_ckpt, tcfg: TrainConfig, ckpt_path,
                    student_cfg: NetConfig | None = None, log_path=None):
    """Phase two: train the student against the frozen teacher checkpoint.

    The student's crop mode is ``student_cfg.pyramid_roi``. The teacher
    checkpoint is read, and the teacher matcher built before the log is
    opened, only when some matching term is on: with every term off no
    teacher tensor is used, so ``teacher_ckpt`` is not opened. A ValueError
    is raised when its meta is not a detector config or the teacher's
    pyramid width differs from the student's.
    """
    if not scenes:
        raise ValueError("empty training set")
    if student_cfg is None:
        student_cfg = nets.default_student_config()
    teacher = None
    if tcfg.distill.any_enabled:
        teacher = _TeacherContext(*load_detector(teacher_ckpt), student_cfg, tcfg.distill)
    params, records = _train_logged(scenes, student_cfg, tcfg, teacher, log_path)
    save_checkpoint(ckpt_path, params, meta=_cfg_meta(student_cfg))
    return params, records, student_cfg
