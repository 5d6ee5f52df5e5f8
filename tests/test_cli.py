"""Command-line behaviour: `distill` reads its teacher and the teacher's
config before any scene is generated, so a bad or missing teacher fails
fast, as does a student that is not lighter than its teacher or, when a
matching term is on, one of another pyramid width; it writes its
test detections in the file format `eval` reads, and the same student files
as `ablate`'s row of its config; `gen-data` writes ground truth and a config
that read back to its scenes and run; `eval` exits 2 on a bad detection file,
`ablate` on a zero matching weight, unequal pyramid widths or a reused
teacher of another architecture, `distill` and `ablate` on a float64 (v1) teacher or on test
scenes with no box of a subset, before any training, `train-teacher` on a
diverging run, and every command on a bad config. The command set is
pinned."""

import argparse
import json
from dataclasses import replace

import numpy as np
import pytest

from distilldet import experiments, nets, train
from distilldet.checkpoint import _MAGIC
from distilldet.cli import build_parser, main
from distilldet.config import load_config
from distilldet.data import annotations_by_image
from distilldet.evalmr import GTBox, read_detections, read_ground_truth, write_ground_truth


# The default teacher's meta as checkpoints recorded it before the shared
# detector settings became constants.
_OLD_TEACHER_META = {
    "anchor_aspect": 2.4, "anchor_base": 16.0, "blocks": [2, 2, 2, 2], "canonical": 56.0,
    "head_hidden": 256, "logit_width": 64, "nms_iou": 0.7, "post_nms_k": 32, "pre_nms_k": 200,
    "pyramid_roi": True, "pyramid_width": 32, "roi_samples": 2, "roi_size": 7, "role": "teacher",
    "widths": [16, 32, 64, 128],
}


@pytest.mark.parametrize("teacher_bytes, message", [
    (_MAGIC + b"{}\ngarbage\n", "malformed tensor header"),
    (_MAGIC + b'{"widths" [16]}\n', "corrupt checkpoint meta line"),
    (_MAGIC + b'{"widths": "\xff"}\n', "corrupt checkpoint meta line"),
    (None, "not found"),
    (_MAGIC + b"{}\n", "missing fields ['widths', 'blocks', 'pyramid_width', 'head_hidden', "
                       "'pyramid_roi']"),
    (_MAGIC + json.dumps(_OLD_TEACHER_META, sort_keys=True).encode() + b"\n",
     "unknown fields ['anchor_aspect', 'anchor_base', 'canonical', 'logit_width', 'nms_iou', "
     "'post_nms_k', 'pre_nms_k', 'roi_samples', 'roi_size', 'role']"),
], ids=["malformed", "bad-json-meta", "non-utf8-meta", "missing", "empty-meta", "old-meta"])
def test_distill_with_bad_teacher_exits_2_before_generating_scenes(tmp_path, capsys, monkeypatch,
                                                                   teacher_bytes, message):
    def fail(cfg):
        raise AssertionError("build_dataset called before the teacher was read")

    monkeypatch.setattr(experiments, "build_dataset", fail)
    teacher = tmp_path / "teacher.ckpt"
    if teacher_bytes is not None:
        teacher.write_bytes(teacher_bytes)
    code = main(["distill", "--out", str(tmp_path / "run"), "--teacher", str(teacher)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(teacher) in err and message in err


@pytest.mark.parametrize("bad_line", [
    "0 1.0 2.0 10.0 30.0 nan",    # nan score
    "0 1.0 2.0 10.0 30.0 inf",    # inf score
    "0 10.0 2.0 1.0 30.0 0.5",    # inverted box
])
def test_eval_on_bad_detection_file_exits_2_naming_the_line(tmp_path, capsys, bad_line):
    dets, gt = tmp_path / "dets.txt", tmp_path / "gt.txt"
    dets.write_text("0 1.0 2.0 10.0 30.0 0.9\n" + bad_line + "\n")
    write_ground_truth(gt, {0: [GTBox(1.0, 2.0, 10.0, 30.0)]})
    code = main(["eval", "--dets", str(dets), "--gt", str(gt)])
    out, err = capsys.readouterr()
    assert code == 2
    assert f"{dets}:2" in err and "MR" not in out


@pytest.mark.parametrize("command, line, message", [
    ("ablate", "student.roi_size = 7", "unknown key 'student.roi_size'"),
    ("train-teacher", "train.lr_decay_epochs = 0", "lr_decay_epochs entries must be at least 1"),
    ("gen-data", "seed = -1", "seed must be nonnegative"),
    ("distill", "train.epochs = 0", "epochs must be positive, got 0"),
])
def test_bad_config_exits_2_naming_the_key_before_any_output(tmp_path, capsys, command, line, message):
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(line + "\n")
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_config_file_that_is_not_utf8_exits_2_naming_it_before_any_output(tmp_path, capsys):
    config, out = tmp_path / "bad.cfg", tmp_path / "run"
    config.write_bytes(b"seed = 1\nout_dir = caf\xe9\n")  # Latin-1, not UTF-8
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 2
    assert f"error: cannot read config {config}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train-teacher", "distill", "ablate"])
def test_negative_seed_exits_2_naming_it_before_any_scene_or_output(tmp_path, capsys, monkeypatch,
                                                                    command):
    def fail(cfg):
        raise AssertionError("build_dataset called with a negative seed")

    monkeypatch.setattr(experiments, "build_dataset", fail)
    out = tmp_path / "run"
    assert main([command, "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_commands_are_exactly_these():
    """A new command shows up here as a deliberate diff."""
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == ["ablate", "distill", "eval", "gen-data", "train-teacher"]


def test_gradcheck_is_an_unknown_command(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gradcheck"])
    assert info.value.code == 2
    assert "invalid choice: 'gradcheck'" in capsys.readouterr().err


TINY_RUN = """\
dataset.n_train = 2
dataset.n_test = 6
student.widths = 4,8,8,16
student.pyramid_width = 8
student.head_hidden = 16
train.epochs = 1
train.lr_decay_epochs =
distill.lambda_pd = 0
distill.lambda_rd = 0
distill.lambda_ld = 0
seed = 1
"""


def _positive(run):
    """``run`` with its matching weights left at their positive defaults."""
    return "".join(line + "\n" for line in run.splitlines() if not line.startswith("distill.lambda_"))


# TINY_RUN with positive matching weights and a tiny teacher, so `ablate` is quick.
TINY_ABLATION = _positive(TINY_RUN) + """\
teacher.widths = 8,16,16,32
teacher.pyramid_width = 8
teacher.head_hidden = 32
"""


def _mr_lines(text):
    return [line for line in text.splitlines() if line.startswith("MR-")]


def test_distill_writes_detections_that_eval_scores_to_the_printed_mr(tmp_path, capsys, monkeypatch,
                                                                       tiny_teacher_cfg,
                                                                       save_teacher):
    returned = []

    def evaluate_params(*args, **kwargs):
        returned.append(real_evaluate_params(*args, **kwargs))
        return returned[-1]

    real_evaluate_params = experiments.evaluate_params
    monkeypatch.setattr(experiments, "evaluate_params", evaluate_params)
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(TINY_RUN)
    teacher = save_teacher(tiny_teacher_cfg)
    assert main(["distill", "--config", str(config), "--out", str(out), "--teacher", str(teacher)]) == 0
    distill_mrs = _mr_lines(capsys.readouterr().out)
    assert len(distill_mrs) == 2

    (_, _, dets), = returned
    back = read_detections(out / "dets_0001.txt")
    assert sorted(back) == sorted(i for i, d in dets.items() if d)  # images with none write no line
    for i, got in back.items():
        want = np.array([[d.x1, d.y1, d.x2, d.y2, d.score] for d in dets[i]])
        assert np.array([[d.x1, d.y1, d.x2, d.y2, d.score] for d in got]).tobytes() == want.tobytes()

    _, test_scenes = experiments.build_dataset(load_config(config))
    write_ground_truth(tmp_path / "gt.txt", annotations_by_image(test_scenes))
    curve = tmp_path / "curve"
    assert main(["eval", "--dets", str(out / "dets_0001.txt"), "--gt", str(tmp_path / "gt.txt"),
                 "--curve-out", str(curve)]) == 0
    assert _mr_lines(capsys.readouterr().out) == distill_mrs
    for s in ("reasonable", "small"):  # the whole FPPI / miss-rate sweep, not only its summary
        assert (tmp_path / f"curve.{s}").read_bytes() == (out / f"curve_0001_{s}.tsv").read_bytes()


def test_ablate_exits_2_naming_a_reused_teacher_of_another_architecture(tmp_path, capsys, monkeypatch,
                                                                          tiny_teacher_cfg, save_teacher):
    def distill_student(*args, **kwargs):
        raise AssertionError("a student trained before the teacher was checked")

    monkeypatch.setattr(experiments, "distill_student", distill_student)
    config, teacher = tmp_path / "run.cfg", save_teacher(replace(tiny_teacher_cfg, head_hidden=16))
    # the run's teacher has head_hidden 32; ablate refuses a zero weight or
    # unequal pyramid widths before it reads the teacher
    config.write_text(TINY_ABLATION)
    assert main(["ablate", "--config", str(config), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert str(teacher) in err and "architecture" in err and out == ""
    assert not (tmp_path / "ablation.tsv").exists()


def _write_v1_checkpoint(path, cfg):
    """An untrained ``cfg`` detector in the float64 v1 format of earlier
    versions: the same headers, each followed by little-endian float64."""
    params = nets.init_params(cfg, seed=0)
    with open(path, "wb") as fh:
        fh.write(b"distilldet-ckpt v1 " + json.dumps(train._cfg_meta(cfg), sort_keys=True).encode() + b"\n")
        for name in sorted(params):
            arr = params[name].data
            fh.write(f"{name} {arr.ndim} {' '.join(map(str, arr.shape))}".rstrip().encode() + b"\n")
            fh.write(arr.astype("<f8").tobytes())


@pytest.mark.parametrize("command", ["distill", "ablate"])
def test_a_v1_teacher_exits_2_naming_it_before_any_student_is_written(tmp_path, capsys, command):
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(TINY_ABLATION)  # the teacher file has the run's architecture
    out.mkdir()
    # distill reads --teacher; ablate reuses <out>/teacher.ckpt
    teacher = tmp_path / "old.ckpt" if command == "distill" else out / "teacher.ckpt"
    _write_v1_checkpoint(teacher, load_config(config).teacher)
    argv = [command, "--config", str(config), "--out", str(out)]
    assert main(argv + (["--teacher", str(teacher)] if command == "distill" else [])) == 2
    printed, err = capsys.readouterr()
    assert str(teacher) in err and "v1" in err and printed == ""
    assert not list(out.glob("student_*"))


# Default-size scenes whose two test scenes hold no reasonable box.
NO_REASONABLE_BOX = """\
dataset.n_train = 2
dataset.n_test = 2
train.epochs = 1
train.lr_decay_epochs =
seed = 4
"""


@pytest.mark.parametrize("command", ["distill", "ablate"])
def test_test_scenes_without_a_subset_box_exit_2_naming_it_before_training(tmp_path, capsys, monkeypatch,
                                                                           save_teacher, command):
    def train_detector(*args, **kwargs):
        raise AssertionError("a detector trained on test scenes that cannot be scored")

    monkeypatch.setattr(train, "train_detector", train_detector)
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(NO_REASONABLE_BOX)
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "distill":
        argv += ["--teacher", str(save_teacher(nets.default_teacher_config()))]
    assert main(argv) == 2
    printed, err = capsys.readouterr()
    assert "the 2 test scenes hold no reasonable box" in err and printed == ""
    assert not out.exists()


def test_ablate_exits_2_naming_a_zero_weight_before_any_output(tmp_path, capsys):
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(TINY_ABLATION + "distill.lambda_rd = 0\n")
    assert main(["ablate", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "distill.lambda_rd = 0" in captured.err and captured.out == ""
    assert not out.exists()


def test_ablate_exits_2_naming_unequal_pyramid_widths_before_any_scene_or_output(tmp_path, capsys,
                                                                              monkeypatch):
    def fail(cfg):
        raise AssertionError("build_dataset called before the pyramid widths were compared")

    monkeypatch.setattr(experiments, "build_dataset", fail)
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(TINY_ABLATION.replace("teacher.pyramid_width = 8", "teacher.pyramid_width = 16"))
    assert main(["ablate", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "teacher.pyramid_width = 16" in captured.err and "student.pyramid_width = 8" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_distill_exits_2_naming_unequal_pyramid_widths_before_any_scene_or_output(
        tmp_path, capsys, monkeypatch, tiny_teacher_cfg, save_teacher):
    def fail(cfg):
        raise AssertionError("build_dataset called before the pyramid widths were compared")

    monkeypatch.setattr(experiments, "build_dataset", fail)
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    teacher = save_teacher(replace(tiny_teacher_cfg, pyramid_width=16))
    config.write_text(TINY_RUN.replace("distill.lambda_rd = 0\n", ""))  # RD on
    assert main(["distill", "--config", str(config), "--out", str(out), "--teacher", str(teacher)]) == 2
    captured = capsys.readouterr()
    assert (f"teacher checkpoint {teacher} has pyramid_width = 16 but student.pyramid_width = 8"
            in captured.err)
    assert captured.out == ""
    assert not out.exists()


def test_distill_with_every_weight_0_trains_against_a_teacher_of_another_pyramid_width(
        tmp_path, tiny_teacher_cfg, save_teacher):
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    teacher = save_teacher(replace(tiny_teacher_cfg, pyramid_width=16))
    config.write_text(TINY_RUN)
    assert main(["distill", "--config", str(config), "--out", str(out), "--teacher", str(teacher)]) == 0
    assert (out / "student_0001.ckpt").exists()


def test_gen_data_writes_ground_truth_and_a_config_that_read_back_to_the_run(tmp_path, capsys):
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(TINY_RUN)
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
    cfg = load_config(config).with_out_dir(str(out))
    for name, scenes in zip(("gt_train.txt", "gt_test.txt"), experiments.build_dataset(cfg)):
        want = {i: gts for i, gts in annotations_by_image(scenes).items() if gts}  # no box, no line
        assert want and read_ground_truth(out / name) == want, name
    assert load_config(out / "run_config.txt") == cfg
    assert len((out / "run_config.txt").read_text().splitlines()) == 19
    assert f"-> {out}" in capsys.readouterr().out


def test_distill_and_ablate_write_one_students_files_alike(tmp_path, capsys):
    """`distill` with row 8's config writes the bytes `ablate` writes for
    row 8, and `train-teacher` the teacher files `ablate` writes."""
    config, teacher_run, ablation, distilled = (tmp_path / name for name in ("run.cfg", "t", "a", "d"))
    config.write_text(TINY_ABLATION)
    teacher_run.mkdir()
    (teacher_run / "teacher.ckpt").write_bytes(b"stale")  # train-teacher always retrains
    assert main(["train-teacher", "--config", str(config), "--out", str(teacher_run)]) == 0
    assert main(["ablate", "--config", str(config), "--out", str(ablation)]) == 0
    assert main(["distill", "--config", str(config), "--out", str(distilled),
                 "--teacher", str(ablation / "teacher.ckpt")]) == 0
    for name in ("teacher.ckpt", "teacher_log.jsonl"):
        assert (teacher_run / name).read_bytes() == (ablation / name).read_bytes(), name
    names = ["student_1111.ckpt", "student_1111_log.jsonl", "dets_1111.txt",
             "curve_1111_reasonable.tsv", "curve_1111_small.tsv"]
    assert sorted(p.name for p in distilled.iterdir()) == sorted(names)
    for name in names:
        assert (distilled / name).read_bytes() == (ablation / name).read_bytes(), name
    for row in experiments.ABLATION_ROWS:  # every row can be rescored with `eval`
        tag = experiments.row_tag(row)
        assert all((ablation / name.replace("1111", tag)).exists() for name in names)


def test_distill_reads_the_teacher_once(tmp_path, monkeypatch, tiny_teacher_cfg, save_teacher):
    reads = []

    def load_checkpoint(path):
        reads.append(path)
        return real_load_checkpoint(path)

    real_load_checkpoint = train.load_checkpoint
    monkeypatch.setattr(train, "load_checkpoint", load_checkpoint)
    config, teacher = tmp_path / "run.cfg", save_teacher(tiny_teacher_cfg)
    config.write_text(TINY_RUN.replace("distill.lambda_pd = 0\n", ""))  # PD on: the teacher is used
    assert main(["distill", "--config", str(config), "--out", str(tmp_path / "run"),
                 "--teacher", str(teacher)]) == 0
    assert reads == [str(teacher)]


def test_distill_exits_2_before_training_a_student_not_lighter_than_its_teacher(
        tmp_path, capsys, monkeypatch, tiny_teacher_cfg, save_teacher):
    def fail(cfg):
        raise AssertionError("build_dataset called before the parameter counts were compared")

    monkeypatch.setattr(experiments, "build_dataset", fail)
    config, out, teacher = tmp_path / "run.cfg", tmp_path / "run", save_teacher(tiny_teacher_cfg)
    # the default student, against the tiny teacher
    config.write_text("".join(line + "\n" for line in TINY_RUN.splitlines() if not line.startswith("student.")))
    t_count = nets.parameter_count(nets.init_params(tiny_teacher_cfg, seed=0))
    s_count = nets.parameter_count(nets.init_params(load_config(config).student, seed=0))
    assert t_count <= s_count
    assert main(["distill", "--config", str(config), "--out", str(out), "--teacher", str(teacher)]) == 2
    err = capsys.readouterr().err
    assert f"teacher ({t_count}) must out-parameter the student ({s_count})" in err
    assert not list(tmp_path.rglob("student_*"))


def test_train_teacher_exits_2_naming_the_first_step_when_it_diverges(tmp_path, capsys, monkeypatch):
    def init_params(cfg, seed):
        params = real_init_params(cfg, seed)
        params["head.cls.b"].data[0] = np.nan  # Tensor() refuses NaN, so planted after
        return params

    real_init_params = nets.init_params
    monkeypatch.setattr(nets, "init_params", init_params)
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(TINY_RUN)
    assert main(["train-teacher", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # the step log numbers steps from 1
    assert "non-finite loss at epoch 1 step 1:" in err
    assert not (out / "teacher.ckpt").exists()
