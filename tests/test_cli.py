"""Command-line behaviour: `distill` reads its teacher and the teacher's
config before any scene is generated, so a bad or missing teacher fails
fast; it writes its test detections in the file format `eval` reads; `eval`
exits 2 on a bad detection file, and every command on a bad config."""

import json

import numpy as np
import pytest

from distilldet import experiments
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
    (None, "not found"),
    (_MAGIC + b"{}\n", "missing fields ['widths', 'blocks', 'pyramid_width', 'head_hidden', "
                       "'pyramid_roi']"),
    (_MAGIC + json.dumps(_OLD_TEACHER_META, sort_keys=True).encode() + b"\n",
     "unknown fields ['anchor_aspect', 'anchor_base', 'canonical', 'logit_width', 'nms_iou', "
     "'post_nms_k', 'pre_nms_k', 'roi_samples', 'roi_size', 'role']"),
], ids=["malformed", "missing", "empty-meta", "old-meta"])
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
])
def test_bad_config_exits_2_naming_the_key_before_any_output(tmp_path, capsys, command, line, message):
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(line + "\n")
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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
