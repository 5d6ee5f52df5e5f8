"""Same-behaviour gate: a fixed tiny teacher -> row-8 student run gives the
same checkpoint bytes every time, so a refactor or kernel rewrite can be
proven behaviour-preserving by comparing this run's sha256 before and after.
"""

from distilldet.checkpoint import checkpoint_hash
from distilldet.train import TrainConfig, distill_student, train_teacher


def test_row8_student_checkpoint_sha256_repeats(tmp_path, tiny_scenes, tiny_teacher_cfg,
                                                tiny_student_cfg):
    train_scenes, _ = tiny_scenes
    tcfg = TrainConfig(epochs=1, lr_decay_epochs=(), seed=11)
    assert tcfg.distill.enable_pd and tcfg.distill.enable_rd and tcfg.distill.enable_ld
    assert tcfg.distill.pyramid_roi_align
    teacher = tmp_path / "teacher.ckpt"
    train_teacher(train_scenes, tiny_teacher_cfg, tcfg, teacher)
    digests = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"student_{run}.ckpt"
        distill_student(train_scenes, teacher, tcfg, ckpt, student_cfg=tiny_student_cfg)
        digests.append(checkpoint_hash(ckpt))
    assert digests[0] == digests[1]
