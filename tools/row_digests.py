"""Print the sha256 of the teacher checkpoint and of each ablation row's
student checkpoint after one epoch on four default-size scenes, each
followed by the sha256 of that run's step log and the sha256 of that
checkpoint's detections on the four test scenes.

The run is fixed: 96x160 scenes from ``generate_dataset(SceneParams(n_train=4,
n_test=4), seed=0)``, ``TrainConfig(epochs=1, lr_decay_epochs=(), seed=0)``,
the default teacher and student, and each row's student and matching weights
from ``experiments.row_config`` of that run: the row's crop mode, and the
default ``DistillConfig``'s weight for each term the row turns on, 0 for the
others. A change that must keep behaviour bit for bit prints the same nine
lines before and after. The step log holds every step's logged losses
(``StepRecord.to_json``), so its digest also shows a change that keeps the
checkpoints but moves a logged loss. The detections digest covers
``nets.detect``, which training never runs: per test scene in order, the
little-endian float64 (x1, y1, x2, y2, score) rows of its detections and a
``|`` separator. Each scene draws from its own index-seeded generator, so
the test scenes leave the train scenes, and their digests, as they were.
Unlike the tiny test fixtures, the default scene size reaches the full-size
feature maps (P2 is 24x40), where rounding can differ that the small maps
never show.

Usage (from the repository root, takes about 3 s)::

    PYTHONPATH=src python tools/row_digests.py
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

import numpy as np

from distilldet.checkpoint import checkpoint_hash
from distilldet.config import RunConfig
from distilldet.data import SceneParams, generate_dataset
from distilldet.experiments import ABLATION_ROWS, evaluate_checkpoint, row_config, row_tag
from distilldet.train import TrainConfig, distill_student, train_teacher


def detections_digest(ckpt, test_scenes) -> str:
    """sha256 of the checkpoint's detections on ``test_scenes``, in order."""
    _, _, dets = evaluate_checkpoint(ckpt, test_scenes)
    digest = hashlib.sha256()
    for scene in test_scenes:
        digest.update(np.array([[d.x1, d.y1, d.x2, d.y2, d.score] for d in dets[scene.index]],
                               dtype="<f8").tobytes() + b"|")
    return digest.hexdigest()


def row_digests(work_dir) -> list[tuple[str, str, str, str]]:
    """(name, checkpoint sha256, step log sha256, detections sha256) of the
    teacher, then of every ablation row in order."""
    cfg = RunConfig(dataset=SceneParams(n_train=4, n_test=4),
                    train=TrainConfig(epochs=1, lr_decay_epochs=(), seed=0))
    train_scenes, test_scenes = generate_dataset(cfg.dataset, cfg.seed)

    def paths(name):
        return os.path.join(work_dir, f"{name}.ckpt"), os.path.join(work_dir, f"{name}_log.jsonl")

    def run_digests(name, ckpt, log):
        return name, checkpoint_hash(ckpt), checkpoint_hash(log), detections_digest(ckpt, test_scenes)

    teacher_ckpt, teacher_log = paths("teacher")
    train_teacher(train_scenes, cfg.teacher, cfg.train, teacher_ckpt, log_path=teacher_log)
    digests = [run_digests("teacher", teacher_ckpt, teacher_log)]
    for row in ABLATION_ROWS:
        tag, row_cfg = row_tag(row), row_config(cfg, row)
        ckpt, log = paths(f"student_{tag}")
        distill_student(train_scenes, teacher_ckpt, row_cfg.train, ckpt, student_cfg=row_cfg.student,
                        log_path=log)
        digests.append(run_digests(tag, ckpt, log))
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as work_dir:
        for row in row_digests(work_dir):
            print(" ".join(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
