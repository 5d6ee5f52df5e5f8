"""Command-line behaviour: `distill` reads its teacher and the teacher's
config before any scene is generated, so a bad or missing teacher fails
fast, as does a student that is not lighter than its teacher; it writes its
test detections in the file format `eval` reads, and the same student files
as `ablate`'s row of its config; `eval` exits 2 on a bad detection file,
`ablate` on a zero matching weight or a reused teacher of another
architecture, `distill` and `ablate` on a float64 (v1) teacher, `gradcheck`
when asked for no instances, `train-teacher` on a diverging run, and every
command on a bad config; `gradcheck` exits 1 on a wrong gradient rule."""

import json

import numpy as np
import pytest

from distilldet import experiments, gradcheck, nets, train
from distilldet.checkpoint import _MAGIC
from distilldet.cli import main
from distilldet.config import load_config
from distilldet.data import annotations_by_image
from distilldet.evalmr import GTBox, read_detections, write_ground_truth


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
])
def test_bad_config_exits_2_naming_the_key_before_any_output(tmp_path, capsys, command, line, message):
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(line + "\n")
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
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


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_gradcheck_with_no_instances_exits_2_and_checks_nothing(capsys, instances):
    assert main(["gradcheck", "--instances", instances]) == 2
    out, err = capsys.readouterr()
    assert "at least 1 instance" in err and "worst rel err" not in out


_GRADCHECK_OPS = {
    "conv2d", "linear", "roi_align_batch", "relu", "maxpool2x2", "concat", "softmax_cross_entropy",
    "bce_with_logits", "smooth_l1", "upsample2x", "reshape", "transpose", "take_rows", "gather",
    "add", "mul", "roi_align_batch_single_level", "sq_error_sum",
}


def test_gradcheck_prints_one_line_per_op_and_a_summary(capsys):
    assert main(["gradcheck", "--instances", "1"]) == 0
    *op_lines, summary = capsys.readouterr().out.splitlines()
    assert {line.split()[0] for line in op_lines} == _GRADCHECK_OPS
    assert len(op_lines) == len(_GRADCHECK_OPS) and all("worst rel err" in line for line in op_lines)
    assert summary.startswith(f"gradient suite: {len(_GRADCHECK_OPS)} ops x 1 instances in ")


def test_gradcheck_exits_1_on_a_wrong_gradient_rule(capsys, monkeypatch):
    relu = gradcheck.ad.relu

    def doubled_relu(a):
        out = relu(a)
        if out._backward is not None:
            rule = out._backward
            out._backward = lambda g: tuple(2.0 * gi for gi in rule(g))
        return out

    monkeypatch.setattr(gradcheck.ad, "relu", doubled_relu)
    assert main(["gradcheck", "--instances", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL gradient mismatch") and "gradient suite" not in out


TINY_RUN = """\
dataset.n_train = 2
dataset.n_test = 6
dataset.image_height = 64
dataset.image_width = 96
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
    config, teacher = tmp_path / "run.cfg", save_teacher(tiny_teacher_cfg)  # the run's teacher is the default
    config.write_text(_positive(TINY_RUN))  # ablate refuses a zero weight before it reads the teacher
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


def test_ablate_exits_2_naming_a_zero_weight_before_any_output(tmp_path, capsys):
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(TINY_ABLATION + "distill.lambda_rd = 0\n")
    assert main(["ablate", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "distill.lambda_rd = 0" in captured.err and captured.out == ""
    assert not out.exists()


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
