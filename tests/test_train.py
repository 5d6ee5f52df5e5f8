"""Training entry points: teacher/student compatibility checks, the
matching-off reduction to supervised training, and the teacher matcher."""

from dataclasses import replace

import numpy as np
import pytest

from distilldet import Tensor, nets, train
from distilldet.distill import DistillConfig
from distilldet.evalmr import GTBox
from distilldet.experiments import ABLATION_ROWS, distill_config_for_row, row_tag
from distilldet.train import TrainConfig, distill_student, train_detector


@pytest.mark.parametrize("field", ["pyramid_width", "logit_width"])
def test_distill_student_rejects_teacher_of_other_width(tmp_path, tiny_scenes, tiny_teacher_cfg,
                                                        tiny_student_cfg, save_teacher, field):
    teacher_cfg = replace(tiny_teacher_cfg, **{field: 2 * getattr(tiny_teacher_cfg, field)})
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


# Teachers whose head takes another crop than the student's: RD still
# compares crops made like the student's, LD must feed the teacher's head
# the crop it was built for.
OWN_CROP = [("roi_size", 5), ("roi_samples", 3)]


@pytest.mark.parametrize("field, value", OWN_CROP)
def test_ld_target_is_the_teacher_head_on_its_own_crop(monkeypatch, tiny_scenes, tiny_teacher_cfg,
                                                       tiny_student_cfg, field, value):
    teacher_cfg = replace(tiny_teacher_cfg, **{field: value})
    t_params = nets.init_params(teacher_cfg, seed=0)
    s_params = nets.init_params(tiny_student_cfg, seed=1)
    matcher = train._TeacherContext(teacher_cfg, t_params, tiny_student_cfg, DistillConfig())
    scene = tiny_scenes[0][0]
    image4 = scene.image.reshape((1, *scene.image.data.shape))
    boxes = np.array([[4.0, 6.0, 30.0, 60.0], [40.0, 10.0, 70.0, 50.0], [10.0, 2.0, 90.0, 62.0]])
    targets = []
    loss = train.logit_distill_loss

    def spy(s_logits, t_logits):
        targets.append(t_logits)
        return loss(s_logits, t_logits)

    monkeypatch.setattr(train, "logit_distill_loss", spy)

    pyr = nets.forward_pyramid(image4, tiny_student_cfg, s_params)
    matcher.match(scene.index, False, image4, pyr, boxes, s_params)

    t_pyr = matcher.pyramid(scene.index, False, image4)
    own, _, _ = nets.head_forward_batch(nets.crop_regions(t_pyr, boxes, teacher_cfg), teacher_cfg, t_params)
    assert len(targets) == 1
    assert targets[0].data.tobytes() == own.data.tobytes()
    if field == "roi_samples":  # the student's sampling gives the same shape but other values
        sampled_like_student = nets.crop_regions(t_pyr, boxes, tiny_student_cfg)
        other, _, _ = nets.head_forward_batch(sampled_like_student, teacher_cfg, t_params)
        assert not np.array_equal(other.data, own.data)


def test_ld_target_is_the_single_level_teacher_head_on_its_own_canonical(
        monkeypatch, tiny_scenes, tiny_teacher_cfg, tiny_student_cfg):
    # canonical sets the level of a single-level crop, so it is part of the crop
    test_ld_target_is_the_teacher_head_on_its_own_crop(
        monkeypatch, tiny_scenes, replace(tiny_teacher_cfg, pyramid_roi=False),
        replace(tiny_student_cfg, pyramid_roi=False), "canonical", 14.0)


@pytest.mark.parametrize("field, value", OWN_CROP)
def test_full_matching_trains_against_a_teacher_with_its_own_crop(tmp_path, tiny_scenes,
                                                                  tiny_teacher_cfg, tiny_student_cfg,
                                                                  save_teacher, field, value):
    teacher = save_teacher(replace(tiny_teacher_cfg, **{field: value}))
    student = tmp_path / "student.ckpt"
    _, records, _ = distill_student(tiny_scenes[0], teacher, TrainConfig(epochs=1, lr_decay_epochs=()),
                                    student, student_cfg=tiny_student_cfg)
    assert student.exists()
    assert any(r.distill.ld > 0 for r in records)
