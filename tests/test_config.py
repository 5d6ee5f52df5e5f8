"""Run-configuration parsing."""

import re
from dataclasses import fields, replace
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distilldet import config
from distilldet.checkpoint import load_checkpoint
from distilldet.config import ConfigError, RunConfig, dump_config, load_config, parse_config
from distilldet.data import SceneParams
from distilldet.distill import DistillConfig
from distilldet.nets import NetConfig
from distilldet.train import TrainConfig, _cfg_from_meta, distill_student


# Region and logit matching always run on proposals, the student's crop mode
# is student.pyramid_roi alone, a matching term is on when its weight is
# positive, the scene recipe and size, base learning rate, its decay factor,
# flip rate, momentum and gradient-norm clip are constants, the teacher and
# the student share one detector's anchors, proposal NMS, crop and logit
# width, and the teacher's pyramids are always cached.
_SHARED_DETECTOR = ["logit_width", "roi_size", "roi_samples", "canonical", "anchor_base",
                    "anchor_aspect", "pre_nms_k", "post_nms_k", "nms_iou"]
REMOVED_KEYS = [
    "distill.roi_source", "distill.pyramid_roi_align",
    "distill.enable_pd", "distill.enable_rd", "distill.enable_ld",
    "dataset.min_figures", "dataset.max_figures", "dataset.occlusion_rate", "dataset.distractors",
    "dataset.noise_sigma", "dataset.figure_aspect", "dataset.small_band_frac",
    "dataset.image_height", "dataset.image_width",
    "train.flip_prob", "train.lr_decay_factor", "train.cache_teacher", "train.momentum",
    "train.base_lr", "train.clip_grad_norm",
    *(f"{role}.{name}" for role in ("teacher", "student") for name in _SHARED_DETECTOR),
]


def test_config_keys_are_exactly_these():
    """A new setting shows up here as a deliberate diff."""
    net_keys = [f"{role}.{name}" for role in ("student", "teacher")
                for name in ("blocks", "head_hidden", "pyramid_roi", "pyramid_width", "widths")]
    assert sorted(config._KEYS) == sorted([
        "dataset.n_test", "dataset.n_train",
        *net_keys,
        "train.epochs", "train.lr_decay_epochs",
        "distill.lambda_ld", "distill.lambda_pd", "distill.lambda_rd",
        "out_dir", "seed",
    ])
    assert len(config._KEYS) == 19


DEFAULT_DUMP = """\
dataset.n_train = 200
dataset.n_test = 80
teacher.widths = 16,32,64,128
teacher.blocks = 2,2,2,2
teacher.pyramid_width = 32
teacher.head_hidden = 256
teacher.pyramid_roi = true
student.widths = 8,16,32,64
student.blocks = 1,1,1,1
student.pyramid_width = 32
student.head_hidden = 48
student.pyramid_roi = true
train.epochs = 6
train.lr_decay_epochs = 4,6
distill.lambda_pd = 0.5
distill.lambda_rd = 30.0
distill.lambda_ld = 30.0
seed = 0
out_dir = runs/default
"""


def test_dump_of_the_default_config_is_these_lines():
    """The file every run writes as run_config.txt: sections in RunConfig
    order, then seed and out_dir."""
    assert dump_config(RunConfig()) == DEFAULT_DUMP


@pytest.mark.parametrize("text, message", [
    ("seed = 1\nteacher.widths\n", "line 2: expected `key = value`"),
    ("train.epochs = two\n", "line 1: bad value for train.epochs"),
    ("seed = 1\n\ndistill.lambda_pd = half\n", "line 3: bad value for distill.lambda_pd"),
    ("student.pyramid_roi = maybe\n", "line 1: bad value for student.pyramid_roi"),
    ("teacher.widths = 16,x,64,128\n", "line 1: bad value for teacher.widths"),
], ids=["no-equals", "int", "float", "bool", "tuple"])
def test_a_malformed_line_is_a_config_error_naming_it(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)


def test_a_missing_file_is_a_config_error_naming_it(tmp_path):
    path = tmp_path / "absent.cfg"
    with pytest.raises(ConfigError, match=re.escape(f"cannot read config {path}")):
        load_config(path)


def test_comments_and_blank_lines_are_ignored():
    text = "# a run\n\n   \nseed = 3  # after a value\n  # indented\ndataset.n_train = 5#tight\n"
    assert parse_config(text) == replace(RunConfig().with_seed(3), dataset=SceneParams(n_train=5))


def test_a_value_may_hold_an_equals_sign():
    assert parse_config("out_dir = a=b\n").out_dir == "a=b"


@pytest.mark.parametrize("line", ["teacher.widths = 16,32,,64,128", "teacher.widths = 16,32,64,128,",
                                  "teacher.widths = 16, ,32,64", "train.lr_decay_epochs = ,"])
def test_an_empty_tuple_item_is_a_bad_value(line):
    key = line.split()[0]
    with pytest.raises(ConfigError, match=re.escape(f"line 1: bad value for {key}")):
        parse_config(line + "\n")


def test_every_settable_field_has_a_type_the_parser_converts():
    """Every key's field is annotated by a type name the parser converts,
    and the dump of its default value parses back to that value, so a field
    of a new type fails here rather than when a config file first sets it."""
    for key, (path, annotation) in config._KEYS.items():
        assert annotation in config._PARSERS, key
        value = reduce(getattr, path, RunConfig())
        assert config._PARSERS[annotation](config._fmt(value)) == value, key


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
    epochs = draw(st.integers(1, 100))
    dataset = section(SceneParams, n_train=draw(positive), n_test=draw(positive))
    distill = section(DistillConfig, lambda_pd=draw(nonneg), lambda_rd=draw(nonneg),
                      lambda_ld=draw(nonneg))
    decay_epochs = draw(st.lists(st.integers(1, epochs), max_size=4, unique=True))
    train = section(TrainConfig, epochs=epochs, distill=distill, lr_decay_epochs=tuple(sorted(decay_epochs)),
                    seed=draw(st.integers(0, 10**9)))
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
    ("train.lr_decay_epochs = 0", "lr_decay_epochs entries must be at least 1"),
    ("train.lr_decay_epochs = -3,0", "lr_decay_epochs entries must be at least 1"),
    ("train.lr_decay_epochs = 4,4", "lr_decay_epochs must be strictly ascending"),
    ("train.lr_decay_epochs = 5,4", "lr_decay_epochs must be strictly ascending"),
    ("seed = -1", "seed must be nonnegative"),
    ("distill.lambda_pd = nan", "lambda_pd must be finite and nonnegative"),
    ("distill.lambda_rd = inf", "lambda_rd must be finite and nonnegative"),
    ("distill.lambda_ld = -1", "lambda_ld must be finite and nonnegative"),
])
def test_value_out_of_range_is_a_config_error(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(line + "\n")


@pytest.mark.parametrize("text, key, lines", [
    ("seed = 0\nseed = 5\n", "seed", (1, 2)),
    ("out_dir = runs/a\n# a comment\n\nstudent.head_hidden = 8\nout_dir = runs/b\n", "out_dir", (1, 5)),
    ("train.epochs = 2\ntrain.epochs = 2\n", "train.epochs", (1, 2)),  # even with the same value
])
def test_a_key_given_twice_is_a_config_error_naming_both_lines(text, key, lines):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    message = str(info.value)
    assert repr(key) in message and f"lines {lines[0]} and {lines[1]}" in message


@pytest.mark.parametrize("out_dir", ["runs/a#b", " runs", "runs\t", "runs\nx", "a\u2028b"])
def test_out_dir_a_config_file_cannot_hold_is_rejected(out_dir):
    with pytest.raises(ValueError, match="out_dir"):
        RunConfig(out_dir=out_dir)
