"""The benchmark tracer wraps library functions by name; every name it
looks up must exist and be put back afterwards, and the training step must
call the wrapped names. This fails in tier-1 when a refactor removes or
renames a traced function, or stops calling it where the tracer looks."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import probe  # noqa: E402

from distilldet import train  # noqa: E402


def test_every_patch_point_resolves_and_is_restored():
    points = probe.patch_points()  # a missing name raises KeyError here
    assert points
    originals = {(owner, name): owner.__dict__[name] for owner, name in points}

    patcher = probe.Patcher()
    probe.Clock().install(patcher)
    probe.Tracer().install(patcher)
    try:
        wrapped = [key for key, fn in originals.items() if key[0].__dict__[key[1]] is not fn]
        assert wrapped, "installing the hooks replaced nothing"
    finally:
        patcher.restore()
    leaked = [name for (owner, name), fn in originals.items() if owner.__dict__[name] is not fn]
    assert not leaked


def test_traced_row8_student_records_every_matching_and_backward_span(tmp_path, tiny_scenes,
                                                                      tiny_teacher_cfg,
                                                                      tiny_student_cfg, save_teacher):
    tracer = probe.Tracer()
    patcher = probe.Patcher()
    tracer.install(patcher)
    try:
        train.distill_student(tiny_scenes[0], save_teacher(tiny_teacher_cfg),
                              train.TrainConfig(epochs=1, lr_decay_epochs=(), seed=11),
                              tmp_path / "student.ckpt", student_cfg=tiny_student_cfg)
    finally:
        patcher.restore()
    metrics = tracer.metrics()
    for name in ("distill.pd_ms", "distill.rd_ms", "distill.ld_ms", "train.teacher_forward_ms",
                 "roi.extract_ms", "roi.roi_align_batch.fwd_ms", "roi.roi_align_batch.bwd_ms",
                 "autodiff.backward_ms"):
        assert metrics[name] > 0, name
