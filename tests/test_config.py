"""Run-configuration parsing."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distilldet import config
from distilldet.checkpoint import load_checkpoint
from distilldet.config import ConfigError, RunConfig, dump_config, parse_config
from distilldet.data import SceneParams
from distilldet.distill import DistillConfig
from distilldet.nets import NetConfig
from distilldet.train import TrainConfig, _cfg_from_meta, distill_student


# Region and logit matching always run on proposals, the student's crop mode
# is student.pyramid_roi alone, a matching term is on when its weight is
# positive, the scene recipe, flip rate and decay factor are constants, the
# teacher and the student share one detector's anchors, proposal NMS, crop
# and logit width, and the teacher's pyramids are always cached.
_SHARED_DETECTOR = ["logit_width", "roi_size", "roi_samples", "canonical", "anchor_base",
                    "anchor_aspect", "pre_nms_k", "post_nms_k", "nms_iou"]
REMOVED_KEYS = [
    "distill.roi_source", "distill.pyramid_roi_align",
    "distill.enable_pd", "distill.enable_rd", "distill.enable_ld",
    "dataset.min_figures", "dataset.max_figures", "dataset.occlusion_rate", "dataset.distractors",
    "dataset.noise_sigma", "dataset.figure_aspect", "dataset.small_band_frac",
    "train.flip_prob", "train.lr_decay_factor", "train.cache_teacher",
    *(f"{role}.{name}" for role in ("teacher", "student") for name in _SHARED_DETECTOR),
]


def test_config_keys_are_exactly_these():
    """A new setting shows up here as a deliberate diff."""
    net_keys = [f"{role}.{name}" for role in ("student", "teacher")
                for name in ("blocks", "head_hidden", "pyramid_roi", "pyramid_width", "widths")]
    assert sorted(config._KEYS) == sorted([
        "dataset.image_height", "dataset.image_width", "dataset.n_test", "dataset.n_train",
        *net_keys,
        "train.base_lr", "train.clip_grad_norm", "train.epochs", "train.lr_decay_epochs",
        "train.momentum",
        "distill.lambda_ld", "distill.lambda_pd", "distill.lambda_rd",
        "out_dir", "seed",
    ])
    assert len(config._KEYS) == 24


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_unknown(key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"{key} = 1\n")


def test_student_pyramid_roi_false_trains_a_single_level_student(tmp_path, tiny_scenes,
                                                                 tiny_teacher_cfg, save_teacher):
    cfg = parse_config(
        "student.widths = 4,8,8,16\nstudent.pyramid_width = 8\nstudent.head_hidden = 16\n"
        "student.pyramid_roi = false\ntrain.epochs = 1\ntrain.lr_decay_epochs =\n"
    )
    ckpt = tmp_path / "student.ckpt"
    distill_student(tiny_scenes[0], save_teacher(tiny_teacher_cfg), cfg.train, ckpt,
                    student_cfg=cfg.student)
    meta, params = load_checkpoint(ckpt)
    single_level = 8 * 7 * 7  # one level of pyramid_width channels at ROI_SIZE 7
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
    positive = st.integers(1, 10**9)
    positive_float = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    epochs = draw(st.integers(1, 100))
    dataset = section(SceneParams, n_train=draw(positive), n_test=draw(positive),
                      image_height=32 * draw(st.integers(1, 64)),
                      image_width=32 * draw(st.integers(1, 64)))
    distill = section(DistillConfig, lambda_pd=draw(nonneg), lambda_rd=draw(nonneg),
                      lambda_ld=draw(nonneg))
    train = section(TrainConfig, epochs=epochs, distill=distill,
                    lr_decay_epochs=tuple(sorted(draw(st.lists(st.integers(1, epochs), max_size=4)))),
                    base_lr=draw(positive_float), clip_grad_norm=draw(nonneg),
                    momentum=draw(st.floats(0.0, 1.0, exclude_max=True)))
    teacher, student = (section(NetConfig, widths=draw(stage), blocks=draw(stage),
                                pyramid_width=draw(positive), head_hidden=draw(positive))
                        for _ in range(2))
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


@pytest.mark.parametrize("line", ["student.pyramid_width = 0", "teacher.head_hidden = -3",
                                  "dataset.n_train = 0", "dataset.n_test = -1"])
def test_count_below_one_is_a_config_error(line):
    field = line.split()[0].split(".")[1]
    with pytest.raises(ConfigError, match=f"{field} must be at least 1"):
        parse_config(line + "\n")


@pytest.mark.parametrize("line, message", [
    ("train.base_lr = -1", "base_lr must be finite and positive"),
    ("train.base_lr = 0", "base_lr must be finite and positive"),
    ("train.base_lr = nan", "base_lr must be finite and positive"),
    ("train.base_lr = inf", "base_lr must be finite and positive"),
    ("train.momentum = 1.5", "momentum must lie in"),
    ("train.momentum = 1", "momentum must lie in"),
    ("train.momentum = -0.1", "momentum must lie in"),
    ("train.momentum = nan", "momentum must lie in"),
    ("train.clip_grad_norm = -5", "clip_grad_norm must be finite and nonnegative"),
    ("train.clip_grad_norm = nan", "clip_grad_norm must be finite and nonnegative"),
    ("train.clip_grad_norm = inf", "clip_grad_norm must be finite and nonnegative"),
    ("train.lr_decay_epochs = 0", "lr_decay_epochs entries must be at least 1"),
    ("train.lr_decay_epochs = -3,0", "lr_decay_epochs entries must be at least 1"),
    ("distill.lambda_pd = nan", "lambda_pd must be finite and nonnegative"),
    ("distill.lambda_rd = inf", "lambda_rd must be finite and nonnegative"),
    ("distill.lambda_ld = -1", "lambda_ld must be finite and nonnegative"),
    ("dataset.image_height = 0", "positive multiples of 32"),
    ("dataset.image_width = -32", "positive multiples of 32"),
])
def test_value_out_of_range_is_a_config_error(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(line + "\n")


@pytest.mark.parametrize("out_dir", ["runs/a#b", " runs", "runs\t", "runs\nx", "a\u2028b"])
def test_out_dir_a_config_file_cannot_hold_is_rejected(out_dir):
    with pytest.raises(ValueError, match="out_dir"):
        RunConfig(out_dir=out_dir)
