"""Run-configuration parsing."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distilldet.checkpoint import load_checkpoint
from distilldet.config import ConfigError, RunConfig, dump_config, parse_config
from distilldet.data import SceneParams
from distilldet.distill import DistillConfig
from distilldet.nets import NetConfig
from distilldet.train import TrainConfig, _cfg_from_meta, distill_student


def test_removed_roi_source_key_is_unknown():
    # region and logit matching always run on proposals; the old switch is gone
    with pytest.raises(ConfigError, match="unknown key 'distill.roi_source'"):
        parse_config("distill.roi_source = proposals\n")


def test_removed_pyramid_roi_align_key_is_unknown():
    # the student's crop mode is student.pyramid_roi alone
    with pytest.raises(ConfigError, match="unknown key 'distill.pyramid_roi_align'"):
        parse_config("distill.pyramid_roi_align = false\n")


def test_student_pyramid_roi_false_trains_a_single_level_student(tmp_path, tiny_scenes,
                                                                 tiny_teacher_cfg, save_teacher):
    cfg = parse_config(
        "student.widths = 4,8,8,16\nstudent.pyramid_width = 8\nstudent.head_hidden = 16\n"
        "student.logit_width = 16\nstudent.pre_nms_k = 60\nstudent.post_nms_k = 12\n"
        "student.pyramid_roi = false\ntrain.epochs = 1\ntrain.lr_decay_epochs =\n"
    )
    ckpt = tmp_path / "student.ckpt"
    distill_student(tiny_scenes[0], save_teacher(tiny_teacher_cfg), cfg.train, ckpt,
                    student_cfg=cfg.student)
    meta, params = load_checkpoint(ckpt)
    single_level = 8 * 7 * 7  # one level of pyramid_width channels at roi_size 7
    assert _cfg_from_meta(meta).head_input_width == single_level
    assert params["head.fc1.w"].data.shape[0] == single_level


_BY_TYPE = {
    "int": st.integers(-10**9, 10**9),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
    "tuple": st.lists(st.integers(-10**6, 10**6), max_size=5).map(tuple),
}


@st.composite
def run_configs(draw):
    """Any RunConfig the dataclasses accept; the fields their checks
    constrain are drawn inside those bounds, every other one freely."""
    def section(cls, **fixed):
        free = {f.name: draw(_BY_TYPE[f.type]) for f in fields(cls) if f.name not in fixed}
        return cls(**free, **fixed)

    stage = st.tuples(*[st.integers(1, 10**6)] * 4)
    nonneg = st.floats(min_value=0.0, allow_infinity=False)
    min_figures = draw(st.integers(1, 10))
    epochs = draw(st.integers(1, 100))
    dataset = section(SceneParams, image_height=32 * draw(st.integers(1, 64)),
                      image_width=32 * draw(st.integers(1, 64)), min_figures=min_figures,
                      max_figures=draw(st.integers(min_figures, 20)),
                      occlusion_rate=draw(st.floats(0.0, 1.0)))
    distill = section(DistillConfig, lambda_pd=draw(nonneg), lambda_rd=draw(nonneg),
                      lambda_ld=draw(nonneg))
    train = section(TrainConfig, epochs=epochs, distill=distill,
                    lr_decay_epochs=tuple(sorted(draw(st.lists(st.integers(-5, epochs), max_size=4)))))
    positive = st.integers(1, 10**9)
    positive_float = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    teacher, student = (section(NetConfig, role=role, widths=draw(stage), blocks=draw(stage),
                                **{name: draw(positive) for name in
                                   ("pre_nms_k", "post_nms_k", "roi_size", "roi_samples")},
                                **{name: draw(positive_float) for name in
                                   ("anchor_base", "anchor_aspect", "canonical")})
                        for role in ("teacher", "student"))
    return RunConfig(dataset=dataset, teacher=teacher, student=student, train=train)


# Any text; half the draws take the characters the file format treats
# specially often.
out_dirs = st.one_of(
    st.text(max_size=30),
    st.text(st.one_of(st.characters(), st.sampled_from("# \t\n\r\x0b\x0c\x1c\x85\u2028")), max_size=30),
)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(run_configs(), out_dirs)
def test_parse_of_dump_reproduces_the_config(cfg, out_dir):
    """Either the out_dir round-trips exactly, or RunConfig rejects it and
    the config text could not have held it."""
    try:
        cfg = cfg.with_out_dir(out_dir)
    except ValueError:
        try:
            parsed = parse_config(f"out_dir = {out_dir}\n").out_dir
        except ConfigError:
            parsed = None
        assert parsed != out_dir
        return
    assert parse_config(dump_config(cfg)) == cfg


@pytest.mark.parametrize("line", ["student.roi_size = 0", "teacher.roi_samples = 0",
                                  "student.pre_nms_k = -1", "teacher.post_nms_k = 0"])
def test_net_count_below_one_is_a_config_error(line):
    with pytest.raises(ConfigError, match="at least 1"):
        parse_config(line + "\n")


@pytest.mark.parametrize("line", ["student.canonical = 0", "teacher.anchor_base = -16",
                                  "student.anchor_aspect = 0"])
def test_net_scale_not_positive_is_a_config_error(line):
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config(line + "\n")


@pytest.mark.parametrize("out_dir", ["runs/a#b", " runs", "runs\t", "runs\nx", "a\u2028b"])
def test_out_dir_a_config_file_cannot_hold_is_rejected(out_dir):
    with pytest.raises(ValueError, match="out_dir"):
        RunConfig(out_dir=out_dir)
