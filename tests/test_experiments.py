"""Experiment plumbing: the ablation rows' matching weights and run configs,
row tags, the table text, the reuse of a trained teacher, and the check that
an ablation's base weights are all positive."""

import os
from dataclasses import replace

import numpy as np
import pytest

from distilldet import Tensor, experiments, train
from distilldet.checkpoint import checkpoint_hash, save_checkpoint
from distilldet.config import RunConfig
from distilldet.data import SceneParams
from distilldet.distill import DistillConfig
from distilldet.experiments import ABLATION_ROWS, config_row, distill_config_for_row, row_config, row_tag
from distilldet.train import TrainConfig


@pytest.mark.parametrize("row", ABLATION_ROWS, ids=row_tag)
def test_row_keeps_the_base_weight_of_each_term_it_turns_on(row):
    base = DistillConfig(lambda_pd=0.25, lambda_rd=7.0, lambda_ld=3.5)
    cfg = distill_config_for_row(base, row)
    want = [w if on else 0.0 for w, on in zip((0.25, 7.0, 3.5), row[:3])]
    assert [cfg.lambda_pd, cfg.lambda_rd, cfg.lambda_ld] == want
    assert cfg.any_enabled == any(row[:3])


@pytest.mark.parametrize("row", ABLATION_ROWS, ids=row_tag)
def test_row_config_and_config_row_invert_each_other(row):
    base = RunConfig(train=TrainConfig(distill=DistillConfig(lambda_pd=0.25, lambda_rd=7.0, lambda_ld=3.5)))
    cfg = row_config(base, row)
    assert config_row(cfg) == row
    assert row_config(cfg, config_row(cfg)) == cfg
    assert cfg.student.pyramid_roi == row[3]
    assert cfg.train.distill == distill_config_for_row(base.train.distill, row)
    assert replace(cfg, student=base.student, train=base.train) == base


def test_row_tags_in_report_order():
    assert [row_tag(row) for row in ABLATION_ROWS] == [
        "0000", "0001", "0011", "0100", "0101", "0111", "1110", "1111"]


def test_ablation_table_text():
    rows = [(ABLATION_ROWS[1], 0.5, 0.875), (ABLATION_ROWS[7], 0.25, 1.0)]
    assert experiments.format_ablation_table(rows) == (
        "row\tPD\tRD\tLD\tPyRoIAlign\tMR-reasonable\tMR-small\n"
        "1\t-\t-\t-\tx\t0.5000\t0.8750\n"
        "2\tx\tx\tx\tx\t0.2500\t1.0000\n"
    )


def test_ensure_teacher_trains_once_then_reuses_the_file(tmp_path, monkeypatch, tiny_scenes,
                                                         tiny_teacher_cfg):
    calls = []

    def train_teacher(*args, **kwargs):
        calls.append(args[3])
        return real_train_teacher(*args, **kwargs)

    real_train_teacher = experiments.train_teacher
    monkeypatch.setattr(experiments, "train_teacher", train_teacher)
    cfg = RunConfig(teacher=tiny_teacher_cfg, train=TrainConfig(epochs=1, lr_decay_epochs=()),
                    out_dir=str(tmp_path / "run"))
    train_scenes = tiny_scenes[0][:2]
    path = experiments.ensure_teacher(cfg, train_scenes)
    assert calls == [path] and path == experiments.teacher_ckpt_path(cfg.out_dir)
    digest, mtime = checkpoint_hash(path), os.stat(path).st_mtime_ns
    assert experiments.ensure_teacher(cfg, train_scenes) == path
    assert calls == [path]
    assert checkpoint_hash(path) == digest and os.stat(path).st_mtime_ns == mtime


def test_ablation_reads_the_teacher_once(tmp_path, monkeypatch, tiny_teacher_cfg, tiny_student_cfg):
    reads = []

    def load_checkpoint(path):
        reads.append(path)
        return real_load_checkpoint(path)

    real_load_checkpoint = train.load_checkpoint
    monkeypatch.setattr(train, "load_checkpoint", load_checkpoint)
    cfg = RunConfig(dataset=SceneParams(n_train=1, n_test=6),
                    teacher=tiny_teacher_cfg, student=tiny_student_cfg,
                    train=TrainConfig(epochs=1, lr_decay_epochs=(), seed=1), out_dir=str(tmp_path / "run"))
    rows = experiments.run_ablation(cfg)
    assert len(rows) == len(ABLATION_ROWS)
    assert reads == [experiments.teacher_ckpt_path(cfg.out_dir)]


@pytest.mark.parametrize("zero", [("lambda_pd",), ("lambda_rd", "lambda_ld"),
                                  ("lambda_pd", "lambda_rd", "lambda_ld")])
def test_ablation_with_a_zero_weight_fails_naming_it_before_generating_scenes(tmp_path, monkeypatch, zero):
    """A zero base weight would train every row that turns its term on
    without it, under a tag and a table mark that say otherwise."""
    def fail(cfg):
        raise AssertionError("build_dataset called before the weights were checked")

    monkeypatch.setattr(experiments, "build_dataset", fail)
    cfg = RunConfig(train=TrainConfig(distill=DistillConfig(**{name: 0.0 for name in zero})),
                    out_dir=str(tmp_path / "run"))
    with pytest.raises(ValueError) as info:
        experiments.run_ablation(cfg)
    named = [name for name in ("lambda_pd", "lambda_rd", "lambda_ld") if f"distill.{name}" in str(info.value)]
    assert named == list(zero)
    assert not (tmp_path / "run").exists()


def test_evaluate_checkpoint_names_a_file_whose_meta_is_not_a_config(tmp_path, tiny_scenes):
    path = tmp_path / "student.ckpt"
    save_checkpoint(path, {"w": Tensor(np.ones(2, dtype=np.float32))}, meta={})
    with pytest.raises(ValueError, match="missing fields") as info:
        experiments.evaluate_checkpoint(path, tiny_scenes[1])
    assert str(path) in str(info.value)
