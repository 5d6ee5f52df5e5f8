"""Two-phase training driver.

Phase one trains the teacher on detection + proposal losses alone. Phase two
freezes the teacher and trains the student on the same supervised losses plus
the weighted feature-matching terms; the teacher contributes activations
only, never gradients.

A step runs named stages in order: propose, RPN loss, sample, crop and head
(``supervised_step``), then in phase two the teacher matcher's ``match`` (PD
on the pyramids, RD and LD on crops of the student's proposals), then
backward and SGD. The matcher exists only when some matching term is on, so
with every term off the student phase is plain supervised training, bit for bit.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import nets
from . import roi as roi_ops
from .autodiff import Tensor, backward
from .boxes import box_array
from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .data import SyntheticScene
from .distill import (
    DistillConfig,
    DistillReport,
    logit_distill_loss,
    pyramid_distill_loss,
    region_distill_loss,
    total_distill_loss,
)
from .nets import NetConfig


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss."""


# Each scene is mirrored with this probability when drawn for a step.
FLIP_PROB = 0.5
# The learning rate is multiplied by this at each of ``lr_decay_epochs``.
LR_DECAY_FACTOR = 0.1
# SGD multiplies each parameter's velocity by this before adding its gradient.
MOMENTUM = 0.9
# The learning rate before the first decay epoch.
BASE_LR = 0.002
# SGD rescales a step's gradients whose global L2 norm exceeds this to it.
CLIP_GRAD_NORM = 10.0


@dataclass(frozen=True)
class TrainConfig:
    """The schedule of one training phase; the base learning rate, its
    decay factor, the flip rate, SGD's momentum and its gradient-norm clip
    are the constants ``BASE_LR``, ``LR_DECAY_FACTOR``, ``FLIP_PROB``,
    ``MOMENTUM`` and ``CLIP_GRAD_NORM``."""

    epochs: int = 6
    lr_decay_epochs: tuple = (4, 6)
    seed: int = 0
    distill: DistillConfig = field(default_factory=DistillConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if any(a >= b for a, b in zip(self.lr_decay_epochs, self.lr_decay_epochs[1:])):
            raise ValueError(f"lr_decay_epochs must be strictly ascending, got {self.lr_decay_epochs}")
        if any(e < 1 for e in self.lr_decay_epochs):
            raise ValueError(f"lr_decay_epochs entries must be at least 1, got {self.lr_decay_epochs}")
        if any(e > self.epochs for e in self.lr_decay_epochs):
            raise ValueError("lr_decay_epochs must not exceed epochs")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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
    """``BASE_LR`` scaled by ``LR_DECAY_FACTOR`` once per decay epoch reached."""
    if not 1 <= epoch <= cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [1, {cfg.epochs}]")
    hits = sum(1 for e in cfg.lr_decay_epochs if e <= epoch)
    return BASE_LR * LR_DECAY_FACTOR ** hits


def horizontal_flip(image: Tensor, boxes: np.ndarray):
    """Mirror a [3,H,W] image and its [G,4] boxes on the width axis."""
    w = float(image.data.shape[-1])
    flipped = Tensor(np.ascontiguousarray(image.data[..., ::-1]))
    return flipped, np.stack([w - boxes[:, 2], boxes[:, 1], w - boxes[:, 0], boxes[:, 3]], axis=1)


class SGD:
    """SGD with classical momentum ``MOMENTUM``; a step's gradients whose
    global L2 norm exceeds ``CLIP_GRAD_NORM`` are first scaled down to it.
    Parameters that received no gradient in a step are left untouched."""

    clip_grad_norm = CLIP_GRAD_NORM  # ``perfbench/probe.py`` counts clipped steps by it

    def __init__(self, params: dict):
        self.params = params
        self.velocity = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self, lr: float):
        grads = [p.grad for p in self.params.values() if p.grad is not None]
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads))
        if norm > self.clip_grad_norm:
            scale = self.clip_grad_norm / norm
            for g in grads:
                g *= scale
        for name, p in self.params.items():
            if p.grad is None:
                continue
            v = self.velocity[name]
            v *= MOMENTUM
            v += p.grad
            p.data -= lr * v
            p.grad = None


def check_pyramid_widths(teacher_cfg: NetConfig, student_cfg: NetConfig,
                         teacher: str = "teacher.pyramid_width"):
    """Raise a ValueError when the two pyramid widths differ, since the
    matching terms compare teacher and student features channel for channel.
    ``teacher`` names where the teacher's width comes from."""
    if teacher_cfg.pyramid_width != student_cfg.pyramid_width:
        raise ValueError(f"{teacher} = {teacher_cfg.pyramid_width} but student.pyramid_width = "
                         f"{student_cfg.pyramid_width}: the matching terms need equal pyramid widths")


class _TeacherContext:
    """Teacher matcher: the frozen teacher, its pyramid cache keyed by
    (scene, flipped), and the PD/RD/LD terms against one student config.

    The cache is always on; ``cache_enabled`` stays for tools that read it
    (``perfbench/probe.py`` counts cache hits from it and ``_cache``)."""

    cache_enabled = True

    def __init__(self, cfg: NetConfig, params: dict, student_cfg: NetConfig, dcfg: DistillConfig):
        check_pyramid_widths(cfg, student_cfg)
        self.cfg = cfg
        self.params = {k: v.detach() for k, v in params.items()}
        self.student_cfg = student_cfg
        self.dcfg = dcfg
        self._cache: dict = {}
        # LD may reuse RD's teacher crop only when it is the crop the teacher's head takes.
        self._ld_reuses_rd_crop = cfg.pyramid_roi == student_cfg.pyramid_roi

    def pyramid(self, scene_index: int, flipped: bool, image: Tensor) -> tuple:
        """The teacher's (P2, P3, P4, P5) for one scene, as no-grad tensors."""
        key = (scene_index, flipped)
        if key not in self._cache:
            pyr = nets.forward_pyramid(image, self.cfg, self.params)
            self._cache[key] = tuple(level.data for level in pyr)
        return tuple(Tensor(a) for a in self._cache[key])

    def match(self, scene_index: int, flipped: bool, image4: Tensor,
              pyr: tuple, proposals: np.ndarray, params: dict):
        """(loss, DistillReport) of the matching terms of positive weight for one step."""
        dcfg = self.dcfg
        pd_on, rd_on, ld_on = dcfg.lambda_pd > 0, dcfg.lambda_rd > 0, dcfg.lambda_ld > 0
        t_pyr = self.pyramid(scene_index, flipped, image4)
        pd = pyramid_distill_loss(pyr, [t.data for t in t_pyr]) if pd_on else None
        rd = ld = None
        if len(proposals) and (rd_on or ld_on):
            s_reg = roi_ops.extract_region_batch(pyr, proposals, self.student_cfg.pyramid_roi)
            if rd_on:
                t_reg = roi_ops.extract_region_batch(t_pyr, proposals, self.student_cfg.pyramid_roi)
                rd = region_distill_loss(s_reg, t_reg.data)
            if ld_on:
                s_logits, _, _ = nets.head_forward_batch(s_reg, self.student_cfg, params)
                if not (rd_on and self._ld_reuses_rd_crop):
                    t_reg = roi_ops.extract_region_batch(t_pyr, proposals, self.cfg.pyramid_roi)
                t_logits, _, _ = nets.head_forward_batch(t_reg, self.cfg, self.params)
                ld = logit_distill_loss(s_logits, t_logits.data)
        return total_distill_loss(dcfg, pd, rd, ld)


def supervised_step(image4: Tensor, gt_arr: np.ndarray, cfg: NetConfig, params: dict,
                    rng: np.random.Generator):
    """(pyramid, proposals, loss_det, loss_rpn, total) of one [1,3,H,W] image
    against its [G,4] ground truth; ``rpn_loss``, then ``sample_rois``, draw from ``rng``."""
    pyr, rpn_out, anchors, proposals = nets.propose(image4, cfg, params)
    loss_rpn = nets.rpn_loss(rpn_out, anchors, gt_arr, rng)
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
    opt = SGD(params)
    rng = np.random.default_rng([int(tcfg.seed), 104729])
    gt_arrays = [box_array(scene.gts) for scene in scenes]
    records: list[StepRecord] = []
    step = 0

    for epoch in range(1, tcfg.epochs + 1):
        lr = lr_schedule(epoch, tcfg)
        order = rng.permutation(len(scenes))
        for si in order:
            scene, gt_arr = scenes[si], gt_arrays[si]
            flipped = bool(rng.random() < FLIP_PROB)
            image, gt_arr = horizontal_flip(scene.image, gt_arr) if flipped else (scene.image, gt_arr)
            image4 = image.reshape((1, *image.data.shape))

            pyr, proposals, loss_det, loss_rpn, total = supervised_step(image4, gt_arr, net_cfg, params, rng)
            report = DistillReport()
            if teacher is not None:
                loss_dist, report = teacher.match(scene.index, flipped, image4, pyr, proposals, params)
                total = ad.add(total, loss_dist)

            if not np.isfinite(total.data).all():
                # Numbered as the step log numbers steps: from 1.
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} step {step + 1}: "
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


def _cfg_from_meta(meta: dict, path=None) -> NetConfig:
    """The NetConfig a checkpoint's meta records; ValueError naming the
    missing or unknown fields, and ``path`` when given, when the meta is
    not exactly a NetConfig."""
    names = [f.name for f in fields(NetConfig)]
    where = "" if path is None else f"{path}: "
    if not isinstance(meta, dict):
        raise ValueError(f"{where}checkpoint meta is not a detector config: {meta!r}")
    problems = [f"{kind} fields {found}" for kind, found in
                (("missing", [n for n in names if n not in meta]),
                 ("unknown", sorted(set(meta) - set(names)))) if found]
    if problems:
        raise ValueError(f"{where}checkpoint meta is not a detector config: " + ", ".join(problems))
    return NetConfig(**{**meta, "widths": tuple(meta["widths"]), "blocks": tuple(meta["blocks"])})


def load_detector(path) -> tuple[NetConfig, dict]:
    """(config, params) of a detector checkpoint; a ValueError names
    ``path`` when its meta is not a detector config."""
    meta, params = load_checkpoint(path)
    return _cfg_from_meta(meta, path), params


def _fit(scenes, net_cfg: NetConfig, tcfg: TrainConfig, ckpt_path, log_path, teacher=None):
    """Train ``net_cfg`` on ``scenes``, logging each step to ``log_path`` when
    given, and save it to ``ckpt_path``; returns (params, records). The log
    is written beside its path and renamed over it once the checkpoint is
    saved, so a run that raises leaves an earlier log and checkpoint as they
    were. The teacher phase passes no ``teacher``; see ``distill_student``
    for when a teacher is read."""
    if not scenes:
        raise ValueError("empty training set")
    matcher = None
    if teacher is not None and tcfg.distill.any_enabled:
        t_cfg, t_params = teacher if isinstance(teacher, tuple) else load_detector(teacher)
        matcher = _TeacherContext(t_cfg, t_params, net_cfg, tcfg.distill)
    with atomic_write(log_path) if log_path else contextlib.nullcontext() as log_fh:
        params, records = train_detector(scenes, net_cfg, tcfg, teacher=matcher, log_fh=log_fh)
        save_checkpoint(ckpt_path, params, meta=_cfg_meta(net_cfg))
    return params, records


def train_teacher(scenes, teacher_cfg: NetConfig, tcfg: TrainConfig, ckpt_path,
                  log_path=None):
    """Phase one: supervised training of the teacher, persisted to disk."""
    return _fit(scenes, teacher_cfg, tcfg, ckpt_path, log_path)


def distill_student(scenes, teacher, tcfg: TrainConfig, ckpt_path,
                    student_cfg: NetConfig, log_path=None):
    """Phase two: train the student against the frozen teacher.

    ``teacher`` is a checkpoint path or the ``(NetConfig, params)`` pair
    that ``load_detector`` returns, so a caller that already holds the
    teacher does not read it again. The student's crop mode is
    ``student_cfg.pyramid_roi``. The teacher checkpoint is read, and the
    teacher matcher built before the log is opened, only when some matching
    term is on: with every term off no teacher tensor is used, so a path is
    not opened. A ValueError is raised when the checkpoint's meta is not a
    detector config or the teacher's pyramid width differs from the
    student's.
    """
    return (*_fit(scenes, student_cfg, tcfg, ckpt_path, log_path, teacher), student_cfg)
