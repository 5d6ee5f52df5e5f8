"""Command-line behaviour: `distill` reads its teacher before any scene is
generated, so a bad or missing teacher fails fast."""

import pytest

from distilldet import experiments
from distilldet.checkpoint import _MAGIC
from distilldet.cli import main


@pytest.mark.parametrize("teacher_bytes, message", [
    (_MAGIC + b"{}\ngarbage\n", "malformed tensor header"),
    (None, "not found"),
])
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
