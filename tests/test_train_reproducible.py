"""Same-behaviour gate: a fixed tiny teacher and all eight ablation-row
students give the same checkpoint bytes every time, so a refactor or kernel
rewrite can be proven behaviour-preserving by comparing these runs' sha256
before and after.
"""

import importlib.util
import re
from pathlib import Path

from distilldet.checkpoint import checkpoint_hash, load_checkpoint
from distilldet.config import RunConfig
from distilldet.experiments import ABLATION_ROWS, row_config, row_tag
from distilldet.train import TrainConfig, distill_student, train_teacher


def test_every_ablation_row_checkpoint_sha256_repeats(tmp_path, tiny_scenes, tiny_teacher_cfg,
                                                      tiny_student_cfg):
    train_scenes, _ = tiny_scenes
    cfg = RunConfig(teacher=tiny_teacher_cfg, student=tiny_student_cfg,
                    train=TrainConfig(epochs=1, lr_decay_epochs=(), seed=11))
    teacher = tmp_path / "teacher.ckpt"
    train_teacher(train_scenes, cfg.teacher, cfg.train, teacher)
    for row in ABLATION_ROWS:
        row_cfg = row_config(cfg, row)
        digests = []
        for run in ("a", "b"):
            ckpt = tmp_path / f"student_{row_tag(row)}_{run}.ckpt"
            distill_student(train_scenes, teacher, row_cfg.train, ckpt, student_cfg=row_cfg.student)
            digests.append(checkpoint_hash(ckpt))
        assert digests[0] == digests[1], row_tag(row)
        meta, _ = load_checkpoint(ckpt)
        assert meta["pyramid_roi"] == row[3], row_tag(row)


def test_row_digests_tool_prints_nine_digests_that_repeat(tmp_path):
    """tools/row_digests.py, the default-size form of this gate, runs and
    repeats: the teacher, then every ablation row in order, each with a
    checkpoint, a step-log and a detections digest."""
    path = Path(__file__).resolve().parents[1] / "tools" / "row_digests.py"
    spec = importlib.util.spec_from_file_location("row_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        runs.append(tool.row_digests(tmp_path / run))
    assert [name for name, *_ in runs[0]] == ["teacher"] + [row_tag(row) for row in ABLATION_ROWS]
    assert all(len(digests) == 4 for digests in runs[0])
    for column in (1, 2, 3):
        assert all(re.fullmatch("[0-9a-f]{64}", digests[column]) for digests in runs[0])
        assert [d[column] for d in runs[0]] == [d[column] for d in runs[1]]
