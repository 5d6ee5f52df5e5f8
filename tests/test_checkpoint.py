"""Checkpoint round trips and clean failures on malformed files."""

import numpy as np
import pytest

from distilldet import Tensor
from distilldet.checkpoint import _MAGIC, load_checkpoint, save_checkpoint
from distilldet.cli import main


def test_round_trip_is_bit_exact(tmp_path, rng):
    params = {"a.w": Tensor(rng.normal(size=(2, 3, 1, 5))), "b": Tensor(np.array(-0.0))}
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params, meta={"k": 1})
    meta, loaded = load_checkpoint(path)
    assert meta == {"k": 1}
    assert sorted(loaded) == sorted(params)
    for name, t in params.items():
        assert loaded[name].data.tobytes() == t.data.tobytes()


def _with_header(tmp_path, header: bytes):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_MAGIC + b"{}\n" + header + b"\n" + b"\0" * 64)
    return path


@pytest.mark.parametrize("header", [
    b"garbage",          # too few fields
    b"w 2 3 x",          # non-integer dim
    b"w two 3 4",        # non-integer ndim
    b"w 2 3",            # fewer dims than ndim
    b"w 1 -2",           # negative dim
])
def test_malformed_header_raises_value_error_naming_file_and_entry(tmp_path, header):
    path = _with_header(tmp_path, header)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert "entry 0" in str(info.value)


def test_truncated_tensor_raises_value_error(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"w": Tensor(np.ones((4, 4)))})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_cli_distill_with_malformed_teacher_exits_2(tmp_path, capsys):
    teacher = _with_header(tmp_path, b"garbage")
    config = tmp_path / "tiny.cfg"
    config.write_text("dataset.n_train = 2\ndataset.n_test = 1\ntrain.epochs = 1\n"
                      "train.lr_decay_epochs =\n")
    code = main(["distill", "--config", str(config), "--out", str(tmp_path / "run"),
                 "--teacher", str(teacher)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(teacher) in err and "malformed tensor header" in err
