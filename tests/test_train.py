"""Training entry points: teacher/student compatibility checks, the
matching-off reduction to supervised training, and the teacher matcher."""

from dataclasses import replace

import numpy as np
import pytest

from distilldet import Tensor, nets, roi, train
from distilldet.distill import DistillConfig
from distilldet.evalmr import GTBox
from distilldet.experiments import ABLATION_ROWS, distill_config_for_row, row_tag
from distilldet.train import TrainConfig, distill_student, train_detector


def test_distill_student_rejects_teacher_of_other_width(tmp_path, tiny_scenes, tiny_teacher_cfg,
                                                        tiny_student_cfg, save_teacher):
    teacher_cfg = replace(tiny_teacher_cfg, pyramid_width=2 * tiny_teacher_cfg.pyramid_width)
    student = tmp_path / "student.ckpt"
    log = tmp_path / "student_log.jsonl"
    train_scenes, _ = tiny_scenes
    with pytest.raises(ValueError, match="widths differ"):
        distill_student(train_scenes, save_teacher(teacher_cfg), TrainConfig(epochs=1, lr_decay_epochs=()),
                        student, student_cfg=tiny_student_cfg, log_path=log)
    assert not student.exists()
    assert not log.exists()


def test_horizontal_flip_mirrors_the_image_and_its_boxes(rng):
    image = rng.random((3, 8, 12)).astype(np.float32)
    gts = [GTBox(1.0, 2.0, 5.0, 7.0, visibility=0.6), GTBox(0.0, 0.0, 12.0, 8.0, ignore=True)]
    flipped, boxes = train.horizontal_flip(Tensor(image), gts)
    assert flipped.data.tobytes() == image[..., ::-1].tobytes()
    assert boxes == [GTBox(7.0, 2.0, 11.0, 7.0, visibility=0.6), GTBox(0.0, 0.0, 12.0, 8.0, ignore=True)]


@pytest.mark.parametrize("row", ABLATION_ROWS[:2], ids=row_tag)
def test_matching_off_is_plain_supervised_training(tmp_path, tiny_scenes, tiny_teacher_cfg,
                                                   tiny_student_cfg, save_teacher, row):
    train_scenes, _ = tiny_scenes
    student_cfg = replace(tiny_student_cfg, pyramid_roi=row[3])
    tcfg = TrainConfig(epochs=1, lr_decay_epochs=(), seed=11,
                       distill=distill_config_for_row(DistillConfig(), row))
    distilled, _, _ = distill_student(train_scenes, save_teacher(tiny_teacher_cfg), tcfg,
                                      tmp_path / "student.ckpt", student_cfg=student_cfg)
    plain, _ = train_detector(train_scenes, student_cfg, tcfg)
    assert distilled.keys() == plain.keys()
    assert all(distilled[k].data.tobytes() == plain[k].data.tobytes() for k in plain)


def test_matching_off_row_never_reads_the_teacher(tmp_path, tiny_scenes, tiny_teacher_cfg,
                                                  tiny_student_cfg, save_teacher):
    """Row 0000 writes the same checkpoint bytes with a missing teacher file
    as with a real one."""
    row = ABLATION_ROWS[0]
    train_scenes, _ = tiny_scenes
    student_cfg = replace(tiny_student_cfg, pyramid_roi=row[3])
    tcfg = TrainConfig(epochs=1, lr_decay_epochs=(), seed=11,
                       distill=distill_config_for_row(DistillConfig(), row))
    real, missing = tmp_path / "real.ckpt", tmp_path / "missing.ckpt"
    distill_student(train_scenes, save_teacher(tiny_teacher_cfg), tcfg, real, student_cfg=student_cfg)
    distill_student(train_scenes, tmp_path / "no_such_teacher.ckpt", tcfg, missing,
                    student_cfg=student_cfg)
    assert missing.read_bytes() == real.read_bytes()


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
    matcher = train._TeacherContext(teacher_cfg, t_params, student_cfg, DistillConfig())
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
    assert targets[0].data.tobytes() == own.data.tobytes()


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
    matcher = train._TeacherContext(tiny_teacher_cfg, nets.init_params(tiny_teacher_cfg, seed=0),
                                    tiny_student_cfg, DistillConfig())
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
    assert all(a.data.tobytes() == b.data.tobytes() for a, b in zip(first.levels(), again.levels()))
    assert matcher.cache_enabled and len(matcher._cache) == 3


@pytest.mark.parametrize("cfg", [nets.default_teacher_config(), nets.default_student_config(),
                                 nets.default_student_config(pyramid_roi=False)],
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
