"""Training entry points: the learning-rate schedule and epoch means,
teacher/student compatibility checks, the matching-off reduction to
supervised training, and the teacher matcher."""

from dataclasses import replace

import numpy as np
import pytest

from distilldet import Tape, Tensor, nets, roi, train
from distilldet.distill import DistillConfig, DistillReport
from distilldet.boxes import box_array
from distilldet.config import RunConfig
from distilldet.data import SceneParams, generate_dataset
from distilldet.experiments import ABLATION_ROWS, row_config, row_tag
from distilldet.train import (
    BASE_LR,
    DivergenceError,
    StepRecord,
    TrainConfig,
    distill_student,
    epoch_mean,
    lr_schedule,
    train_detector,
)


def test_lr_schedule_decays_tenfold_at_epochs_4_and_6_by_default():
    cfg = TrainConfig()
    b = BASE_LR
    assert cfg.lr_decay_epochs == (4, 6)
    assert [lr_schedule(e, cfg) for e in range(1, 7)] == [b, b, b, b * 0.1, b * 0.1, b * 0.1 ** 2]
    for epoch in (0, cfg.epochs + 1):
        with pytest.raises(ValueError, match=f"epoch {epoch} outside"):
            lr_schedule(epoch, cfg)


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": -1}, "seed must be nonnegative, got -1"),
    ({"lr_decay_epochs": (4, 4)}, "lr_decay_epochs must be strictly ascending"),
], ids=["negative-seed", "repeated-decay-epoch"])
def test_train_config_rejects_a_negative_seed_and_repeated_decay_epochs(kwargs, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**kwargs)


def test_epoch_mean_averages_one_epochs_records_and_is_nan_for_none():
    def rec(epoch, det, rpn, dist):
        return StepRecord(epoch, 0, 0.1, det, rpn, DistillReport(total=dist))

    records = [rec(1, 1.0, 0.5, 0.25), rec(2, 4.0, 1.0, 3.0), rec(1, 2.0, 1.5, 0.75)]
    assert epoch_mean(records, 1) == 1.5
    assert epoch_mean(records, 1, "rpn_loss") == 1.0
    assert epoch_mean(records, 1, "dist_total") == 0.5
    assert epoch_mean(records, 2, "dist_total") == 3.0
    assert np.isnan(epoch_mean(records, 3)) and np.isnan(epoch_mean([], 1, "dist_total"))


def test_distill_student_rejects_teacher_of_other_width(tmp_path, tiny_scenes, tiny_teacher_cfg,
                                                        tiny_student_cfg, save_teacher):
    teacher_cfg = replace(tiny_teacher_cfg, pyramid_width=2 * tiny_teacher_cfg.pyramid_width)
    student = tmp_path / "student.ckpt"
    log = tmp_path / "student_log.jsonl"
    train_scenes, _ = tiny_scenes
    with pytest.raises(ValueError, match="teacher.pyramid_width = 16 but student.pyramid_width = 8"):
        distill_student(train_scenes, save_teacher(teacher_cfg), TrainConfig(epochs=1, lr_decay_epochs=()),
                        student, student_cfg=tiny_student_cfg, log_path=log)
    assert not student.exists()
    assert not log.exists()


def test_horizontal_flip_mirrors_the_image_and_its_boxes(rng):
    image = rng.random((3, 8, 12)).astype(np.float32)
    boxes = np.array([[1.0, 2.0, 5.0, 7.0], [0.0, 0.0, 12.0, 8.0]])
    flipped, mirrored = train.horizontal_flip(Tensor(image), boxes)
    assert flipped.data.tobytes() == image[..., ::-1].tobytes()
    assert mirrored.dtype == np.float64
    assert mirrored.tolist() == [[7.0, 2.0, 11.0, 7.0], [0.0, 0.0, 12.0, 8.0]]
    _, none = train.horizontal_flip(Tensor(image), box_array([]))  # a scene with no figure
    assert none.shape == (0, 4) and none.dtype == np.float64


def _tiny_run(student_cfg):
    return RunConfig(student=student_cfg, train=TrainConfig(epochs=1, lr_decay_epochs=(), seed=11))


@pytest.mark.parametrize("row", ABLATION_ROWS[:2], ids=row_tag)
def test_matching_off_is_plain_supervised_training(tmp_path, tiny_scenes, tiny_teacher_cfg,
                                                   tiny_student_cfg, save_teacher, row):
    train_scenes, _ = tiny_scenes
    cfg = row_config(_tiny_run(tiny_student_cfg), row)
    distilled, _, _ = distill_student(train_scenes, save_teacher(tiny_teacher_cfg), cfg.train,
                                      tmp_path / "student.ckpt", student_cfg=cfg.student)
    plain, _ = train_detector(train_scenes, cfg.student, cfg.train)
    assert distilled.keys() == plain.keys()
    assert all(distilled[k].data.tobytes() == plain[k].data.tobytes() for k in plain)


def test_matching_off_row_never_reads_the_teacher(tmp_path, tiny_scenes, tiny_teacher_cfg,
                                                  tiny_student_cfg, save_teacher):
    """Row 0000 writes the same checkpoint bytes with a missing teacher file
    as with a real one."""
    train_scenes, _ = tiny_scenes
    cfg = row_config(_tiny_run(tiny_student_cfg), ABLATION_ROWS[0])
    real, missing = tmp_path / "real.ckpt", tmp_path / "missing.ckpt"
    distill_student(train_scenes, save_teacher(tiny_teacher_cfg), cfg.train, real, student_cfg=cfg.student)
    distill_student(train_scenes, tmp_path / "no_such_teacher.ckpt", cfg.train, missing,
                    student_cfg=cfg.student)
    assert missing.read_bytes() == real.read_bytes()


def test_a_loaded_teacher_trains_the_student_its_path_does(tmp_path, tiny_scenes, tiny_teacher_cfg,
                                                           tiny_student_cfg, save_teacher):
    train_scenes, _ = tiny_scenes
    tcfg = TrainConfig(epochs=1, lr_decay_epochs=(), seed=11)
    teacher = save_teacher(tiny_teacher_cfg)
    by_path, by_object = tmp_path / "path.ckpt", tmp_path / "object.ckpt"
    distill_student(train_scenes, teacher, tcfg, by_path, student_cfg=tiny_student_cfg)
    distill_student(train_scenes, train.FrozenTeacher.load(teacher, train_scenes), tcfg, by_object,
                    student_cfg=tiny_student_cfg)
    assert by_object.read_bytes() == by_path.read_bytes()


@pytest.mark.parametrize("other", [lambda scenes: scenes[3:5], lambda scenes: scenes[:1],
                                   lambda scenes: scenes[1::-1]], ids=["other", "fewer", "reordered"])
def test_a_teacher_cache_serves_only_the_scenes_it_was_built_for(monkeypatch, tmp_path, tiny_scenes,
                                                                 tiny_teacher_cfg, tiny_student_cfg,
                                                                 save_teacher, other):
    """Its pyramids are keyed by scene index, so another scene list could be
    served the pyramids of other images."""
    scenes = tiny_scenes[0]
    teacher = train.FrozenTeacher.load(save_teacher(tiny_teacher_cfg), scenes[:2])
    monkeypatch.setattr(train, "train_detector", lambda *a, **k: pytest.fail("a step ran"))
    student = tmp_path / "student.ckpt"
    with pytest.raises(ValueError, match="training scenes it was built for"):
        distill_student(other(scenes), teacher, TrainConfig(epochs=1, lr_decay_epochs=()), student,
                        student_cfg=tiny_student_cfg)
    assert not student.exists() and not teacher.pyramids


# A teacher whose head takes another crop mode than the student's: RD still
# compares crops made like the student's, LD must feed the teacher's head
# the crop it was built for.
CROP_MODES = [(True, False), (False, True)]  # (teacher, student) pyramid_roi


@pytest.mark.parametrize("teacher_roi, student_roi", CROP_MODES)
def test_ld_target_is_the_teacher_head_on_its_own_crop(monkeypatch, tiny_scenes, tiny_teacher_cfg,
                                                       tiny_student_cfg, teacher_roi, student_roi):
    teacher_cfg = replace(tiny_teacher_cfg, pyramid_roi=teacher_roi)
    student_cfg = replace(tiny_student_cfg, pyramid_roi=student_roi)
    t_params = nets.init_params(teacher_cfg, seed=0)
    s_params = nets.init_params(student_cfg, seed=1)
    matcher = train._TeacherContext(train.FrozenTeacher(teacher_cfg, t_params, tiny_scenes[0]),
                                    student_cfg, DistillConfig())
    scene = tiny_scenes[0][0]
    image4 = scene.image.reshape((1, *scene.image.data.shape))
    boxes = np.array([[4.0, 6.0, 30.0, 60.0], [40.0, 10.0, 70.0, 50.0], [10.0, 2.0, 90.0, 62.0]])
    targets = []
    loss = train.logit_distill_loss

    def spy(s_logits, t_logits):
        targets.append(t_logits)
        return loss(s_logits, t_logits)

    monkeypatch.setattr(train, "logit_distill_loss", spy)

    pyr = nets.forward_pyramid(image4, student_cfg, s_params)
    matcher.match(scene.index, False, image4, pyr, boxes, s_params)

    t_pyr = matcher.pyramid(scene.index, False, image4)
    own, _, _ = nets.head_forward_batch(roi.extract_region_batch(t_pyr, boxes, teacher_roi),
                                        teacher_cfg, t_params)
    assert len(targets) == 1
    assert targets[0].tobytes() == own.data.tobytes()


@pytest.mark.parametrize("teacher_roi, student_roi", CROP_MODES)
def test_full_matching_trains_against_a_teacher_with_its_own_crop(tmp_path, tiny_scenes,
                                                                  tiny_teacher_cfg, tiny_student_cfg,
                                                                  save_teacher, teacher_roi,
                                                                  student_roi):
    teacher = save_teacher(replace(tiny_teacher_cfg, pyramid_roi=teacher_roi))
    student = tmp_path / "student.ckpt"
    _, records, _ = distill_student(tiny_scenes[0], teacher, TrainConfig(epochs=1, lr_decay_epochs=()),
                                    student, student_cfg=replace(tiny_student_cfg, pyramid_roi=student_roi))
    assert student.exists()
    assert any(r.distill.ld > 0 for r in records)


def test_teacher_pyramid_runs_once_per_scene_and_flip(monkeypatch, tiny_scenes, tiny_teacher_cfg,
                                                      tiny_student_cfg):
    teacher = train.FrozenTeacher(tiny_teacher_cfg, nets.init_params(tiny_teacher_cfg, seed=0),
                                  tiny_scenes[0])
    matcher = train._TeacherContext(teacher, tiny_student_cfg, DistillConfig())
    calls = []
    forward = nets.forward_pyramid

    def counted(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(nets, "forward_pyramid", counted)
    scenes = tiny_scenes[0]
    images = [s.image.reshape((1, *s.image.data.shape)) for s in scenes[:2]]
    first = matcher.pyramid(scenes[0].index, False, images[0])
    again = matcher.pyramid(scenes[0].index, False, images[0])
    matcher.pyramid(scenes[0].index, True, images[0])
    matcher.pyramid(scenes[1].index, False, images[1])
    assert len(calls) == 3
    assert all(a.data.tobytes() == b.data.tobytes() for a, b in zip(first, again))
    assert matcher.cache_enabled and len(matcher._cache) == 3


@pytest.mark.parametrize("cfg", [nets.default_teacher_config(), nets.default_student_config(),
                                 replace(nets.default_student_config(), pyramid_roi=False)],
                         ids=["teacher", "student", "single-level-student"])
def test_checkpoint_meta_is_the_net_config(tmp_path, cfg):
    path = tmp_path / "net.ckpt"
    train.save_checkpoint(path, {}, meta=train._cfg_meta(cfg))
    meta, _ = train.load_checkpoint(path)
    assert sorted(meta) == ["blocks", "head_hidden", "pyramid_roi", "pyramid_width", "widths"]
    assert train._cfg_from_meta(meta) == cfg
    assert train.load_detector(path)[0] == cfg


def test_distill_student_names_a_teacher_whose_meta_is_not_a_net_config(tmp_path, tiny_scenes,
                                                                        tiny_teacher_cfg,
                                                                        tiny_student_cfg):
    teacher = tmp_path / "teacher.ckpt"
    train.save_checkpoint(teacher, nets.init_params(tiny_teacher_cfg, seed=0),
                          meta={**train._cfg_meta(tiny_teacher_cfg), "roi_size": 7})
    student = tmp_path / "student.ckpt"
    with pytest.raises(ValueError, match=r"teacher\.ckpt: .*unknown fields \['roi_size'\]"):
        distill_student(tiny_scenes[0], teacher, TrainConfig(epochs=1, lr_decay_epochs=()), student,
                        student_cfg=tiny_student_cfg)
    assert not student.exists()


class _FirstBackward(Exception):
    """Stops ``train_detector`` at its first ``backward``."""


def test_ops_recorded_by_one_default_size_step_per_row(monkeypatch):
    """A change in the ops a training step records shows up here as a
    deliberate diff. Seed 1's first step crops boxes of three pyramid
    levels, so the single-level rows record the ops of every cropped level."""
    scenes, _ = generate_dataset(SceneParams(n_train=4, n_test=1), seed=1)
    base = RunConfig(train=TrainConfig(epochs=1, lr_decay_epochs=(), seed=1))
    teacher = train.FrozenTeacher(base.teacher, nets.init_params(base.teacher, seed=0), scenes)
    counts = []

    def first_backward(loss):
        counts.append(len(Tape(loss)))
        raise _FirstBackward

    monkeypatch.setattr(train, "backward", first_backward)
    for row in ABLATION_ROWS:
        cfg = row_config(base, row)
        matcher = (train._TeacherContext(teacher, cfg.student, cfg.train.distill)
                   if cfg.train.distill.any_enabled else None)
        with pytest.raises(_FirstBackward):
            train_detector(scenes, cfg.student, cfg.train, teacher=matcher)
    assert counts == [80, 81, 96, 89, 91, 100, 108, 110]


def test_a_diverging_rerun_keeps_the_earlier_log_and_checkpoint(monkeypatch, tmp_path, save_teacher,
                                                                tiny_scenes, tiny_teacher_cfg,
                                                                tiny_student_cfg):
    teacher = save_teacher(tiny_teacher_cfg)
    ckpt, log = tmp_path / "student.ckpt", tmp_path / "student_log.jsonl"
    tcfg = TrainConfig(epochs=1, lr_decay_epochs=())

    def run():
        distill_student(tiny_scenes[0][:2], teacher, tcfg, ckpt, student_cfg=tiny_student_cfg,
                        log_path=log)

    run()
    before = ckpt.read_bytes(), log.read_bytes()
    assert len(before[1].splitlines()) == 2
    loss = train.logit_distill_loss
    monkeypatch.setattr(train, "logit_distill_loss", lambda s, t: loss(s, np.full_like(t, np.nan)))
    with pytest.raises(DivergenceError, match="dist=nan"):
        run()
    assert (ckpt.read_bytes(), log.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["student.ckpt", "student_log.jsonl",
                                                          "teacher.ckpt"]


def test_a_nan_matching_target_stops_the_step_before_backward(monkeypatch, tiny_scenes,
                                                              tiny_teacher_cfg, tiny_student_cfg):
    teacher = train.FrozenTeacher(tiny_teacher_cfg, nets.init_params(tiny_teacher_cfg, seed=0),
                                  tiny_scenes[0])
    matcher = train._TeacherContext(teacher, tiny_student_cfg, DistillConfig())
    loss = train.logit_distill_loss
    monkeypatch.setattr(train, "logit_distill_loss", lambda s, t: loss(s, np.full_like(t, np.nan)))
    monkeypatch.setattr(train, "backward", lambda loss: pytest.fail("backward on a NaN loss"))
    with pytest.raises(DivergenceError, match="dist=nan"):
        train_detector(tiny_scenes[0], tiny_student_cfg, TrainConfig(epochs=1, lr_decay_epochs=()),
                       teacher=matcher)
