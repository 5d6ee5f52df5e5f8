"""End-to-end experiment plumbing: dataset to checkpoints to score tables.

The ablation grid toggles the three matching terms and the region cropper in
the same eight on/off combinations used throughout this project's reports.
``run_student_variant`` is the one student run that both the `distill` and
the `ablate` commands go through: it trains one row's student and scores it
on the test scenes, writing four files named by the row's tag into the
output directory: ``student_<tag>.ckpt``, its step log
``student_<tag>_log.jsonl``, its test detections ``dets_<tag>.txt`` (the
format `distilldet eval` reads) and one FPPI/miss-rate curve
``curve_<tag>_<subset>.tsv`` per subset.
"""

from __future__ import annotations

import os
from dataclasses import replace

from . import nets
from .checkpoint import load_checkpoint
from .config import RunConfig
from .data import annotations_by_image, generate_dataset
from .distill import DistillConfig
from .evalmr import SUBSETS, evaluate, subset_member, write_curve, write_detections
from .train import _cfg_from_meta, check_pyramid_widths, distill_student, load_detector, train_teacher

# (PD, RD, LD, PyRoIAlign) in report order; row 2 is the no-matching
# baseline, row 8 the full configuration.
ABLATION_ROWS: tuple = (
    (False, False, False, False),
    (False, False, False, True),
    (False, False, True, True),
    (False, True, False, False),
    (False, True, False, True),
    (False, True, True, True),
    (True, True, True, False),
    (True, True, True, True),
)


def distill_config_for_row(base: DistillConfig, row) -> DistillConfig:
    """Matching weights of a row: ``base``'s weight for each term the row
    turns on, 0.0 for the others. Its PyRoIAlign column is the student's
    crop mode, not part of this config."""
    pd, rd, ld, _ = row
    return DistillConfig(lambda_pd=base.lambda_pd if pd else 0.0,
                         lambda_rd=base.lambda_rd if rd else 0.0,
                         lambda_ld=base.lambda_ld if ld else 0.0)


def row_config(cfg: RunConfig, row) -> RunConfig:
    """``cfg`` as the run of one row: the row's PyRoIAlign column is the
    student's crop mode and ``distill_config_for_row`` its matching weights."""
    return replace(cfg, student=replace(cfg.student, pyramid_roi=row[3]),
                   train=replace(cfg.train, distill=distill_config_for_row(cfg.train.distill, row)))


def config_row(cfg: RunConfig) -> tuple:
    """The row whose ``row_config`` ``cfg`` is: each term on exactly when its
    weight is positive, and the student's crop mode."""
    d = cfg.train.distill
    return (d.lambda_pd > 0, d.lambda_rd > 0, d.lambda_ld > 0, cfg.student.pyramid_roi)


def row_tag(row) -> str:
    return "".join("1" if f else "0" for f in row)


def build_dataset(cfg: RunConfig):
    return generate_dataset(cfg.dataset, cfg.seed)


def check_test_subsets(test_scenes):
    """ValueError naming each subset with no box in ``test_scenes``: its miss
    rate is undefined, so a run would train and then fail to score."""
    empty = [s for s in SUBSETS if not any(subset_member(g, s) for scene in test_scenes for g in scene.gts)]
    if empty:
        raise ValueError(f"the {len(test_scenes)} test scenes hold no {' or '.join(empty)} box, so "
                         "their miss rate is undefined; change the seed or dataset.n_test")


def evaluate_params(net_cfg, params, test_scenes):
    """Detect on every test scene, then score each subset."""
    dets = {}
    for scene in test_scenes:
        h, w = scene.image.data.shape[-2:]
        image4 = scene.image.reshape((1, 3, h, w))
        dets[scene.index] = nets.detect(image4, net_cfg, params)
    gts = annotations_by_image(test_scenes)
    curves = {s: evaluate(dets, gts, s) for s in SUBSETS}
    return {s: c.log_avg_mr for s, c in curves.items()}, curves, dets


def evaluate_checkpoint(ckpt_path, test_scenes):
    meta, params = load_checkpoint(ckpt_path)
    return evaluate_params(_cfg_from_meta(meta, ckpt_path), params, test_scenes)


def teacher_ckpt_path(out_dir) -> str:
    return os.path.join(out_dir, "teacher.ckpt")


def _log_path(ckpt) -> str:
    """The step log written next to a checkpoint: ``<name>_log.jsonl``."""
    return os.path.splitext(ckpt)[0] + "_log.jsonl"


def run_teacher(cfg: RunConfig, train_scenes):
    """Train ``cfg.teacher`` into ``<out>/teacher.ckpt``, logging its steps
    to ``<out>/teacher_log.jsonl``; returns (path, params, records)."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = teacher_ckpt_path(cfg.out_dir)
    params, records = train_teacher(train_scenes, cfg.teacher, cfg.train, path, log_path=_log_path(path))
    return path, params, records


def ensure_teacher(cfg: RunConfig, train_scenes):
    """Train the teacher once per output directory; reuse if present."""
    path = teacher_ckpt_path(cfg.out_dir)
    if not os.path.exists(path):
        run_teacher(cfg, train_scenes)
    return path


def run_student_variant(cfg: RunConfig, teacher, train_scenes, test_scenes):
    """Train ``cfg.student``, the run of row ``config_row(cfg)``, score it on
    ``test_scenes`` and write its four files (see the module docstring);
    returns (checkpoint path, params, records, MR per subset). ``teacher``
    is what ``distill_student`` takes: a checkpoint path or a loaded pair."""
    tag = row_tag(config_row(cfg))
    os.makedirs(cfg.out_dir, exist_ok=True)
    ckpt = os.path.join(cfg.out_dir, f"student_{tag}.ckpt")
    params, records, _ = distill_student(train_scenes, teacher, cfg.train, ckpt,
                                         student_cfg=cfg.student, log_path=_log_path(ckpt))
    mrs, curves, dets = evaluate_params(cfg.student, params, test_scenes)
    write_detections(os.path.join(cfg.out_dir, f"dets_{tag}.txt"), dets)
    for s in SUBSETS:
        write_curve(os.path.join(cfg.out_dir, f"curve_{tag}_{s}.tsv"), curves[s])
    return ckpt, params, records, mrs


def run_ablation(cfg: RunConfig, progress=None):
    """Train and score all eight configurations; returns table rows of
    (flags, mr_reasonable, mr_small). Before any scene is generated, a
    ValueError names each matching weight of ``cfg`` that is 0, since every
    row that turns that term on would train without it, and one names both
    pyramid widths when they differ. A ValueError naming
    the file is raised, before any student trains, when a reused
    ``<out>/teacher.ckpt`` has another architecture than ``cfg.teacher``,
    and one naming the subset, before any training, when the test scenes
    hold no box of a subset (``check_test_subsets``)."""
    zero = [f"distill.{name}" for name in ("lambda_pd", "lambda_rd", "lambda_ld")
            if getattr(cfg.train.distill, name) == 0]
    if zero:
        raise ValueError(f"{', '.join(zero)} = 0: each ablation row that turns a term on "
                         "takes its weight from the config, so all three must be positive")
    check_pyramid_widths(cfg.teacher, cfg.student)
    train_scenes, test_scenes = build_dataset(cfg)
    check_test_subsets(test_scenes)
    # Read once: every matching row distills from this same pair.
    path = ensure_teacher(cfg, train_scenes)
    teacher = load_detector(path)
    if teacher[0] != cfg.teacher:
        raise ValueError(f"{path}: teacher checkpoint has architecture {teacher[0]}, "
                         f"but the run's teacher is {cfg.teacher}; remove it or use another --out")
    rows = []
    for row in ABLATION_ROWS:
        if progress:
            progress(f"training student variant {row_tag(row)} "
                     f"(PD={row[0]} RD={row[1]} LD={row[2]} PyRoIAlign={row[3]})")
        *_, mrs = run_student_variant(row_config(cfg, row), teacher, train_scenes, test_scenes)
        rows.append((row, mrs["reasonable"], mrs["small"]))
    return rows


def format_ablation_table(rows) -> str:
    def mark(b):
        return "x" if b else "-"

    lines = ["row\tPD\tRD\tLD\tPyRoIAlign\tMR-reasonable\tMR-small"]
    for i, (row, mr_r, mr_s) in enumerate(rows, 1):
        lines.append(
            f"{i}\t{mark(row[0])}\t{mark(row[1])}\t{mark(row[2])}\t{mark(row[3])}"
            f"\t{mr_r:.4f}\t{mr_s:.4f}"
        )
    return "\n".join(lines) + "\n"
