"""Training entry points: teacher/student compatibility checks."""

from dataclasses import replace

import pytest

from distilldet import nets
from distilldet.checkpoint import save_checkpoint
from distilldet.train import TrainConfig, _cfg_meta, distill_student


@pytest.mark.parametrize("field", ["pyramid_width", "logit_width"])
def test_distill_student_rejects_teacher_of_other_width(tmp_path, tiny_scenes, tiny_teacher_cfg,
                                                        tiny_student_cfg, field):
    teacher_cfg = replace(tiny_teacher_cfg, **{field: 2 * getattr(tiny_teacher_cfg, field)})
    teacher = tmp_path / "teacher.ckpt"
    save_checkpoint(teacher, nets.init_params(teacher_cfg, seed=0), meta=_cfg_meta(teacher_cfg))
    student = tmp_path / "student.ckpt"
    train_scenes, _ = tiny_scenes
    with pytest.raises(ValueError, match="widths differ"):
        distill_student(train_scenes, teacher, TrainConfig(epochs=1, lr_decay_epochs=()), student,
                        student_cfg=tiny_student_cfg)
    assert not student.exists()
