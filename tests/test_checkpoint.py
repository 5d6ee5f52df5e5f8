"""Checkpoint round trips, the on-disk layout, atomic saves and clean
failures on malformed, v1 and non-finite files."""

import os
import tracemalloc

import numpy as np
import pytest

from distilldet import Tensor
from distilldet.autodiff import BLOCK
from distilldet.checkpoint import _MAGIC, load_checkpoint, save_checkpoint
from distilldet.cli import main


def test_round_trip_is_bit_exact(tmp_path, rng):
    params = {"a.w": Tensor(rng.normal(size=(2, 3, 1, 5)).astype(np.float32)),
              "b": Tensor(np.array(-0.0, dtype=np.float32))}
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params, meta={"k": 1})
    meta, loaded = load_checkpoint(path)
    assert meta == {"k": 1}
    assert sorted(loaded) == sorted(params)
    for name, t in params.items():
        assert loaded[name].data.tobytes() == t.data.tobytes()


def test_a_v2_file_loads_as_native_float32(tmp_path, rng):
    values = rng.normal(size=(3, 4)).astype("<f4")
    path = tmp_path / "p.ckpt"
    path.write_bytes(b"distilldet-ckpt v2 {}\nw 2 3 4\n" + values.tobytes())
    _, loaded = load_checkpoint(path)
    w = loaded["w"].data
    assert w.dtype == np.dtype(np.float32) and w.dtype.byteorder == "="
    assert w.flags.c_contiguous and w.shape == (3, 4) and w.tobytes() == values.tobytes()


def test_save_writes_the_documented_layout(tmp_path):
    w = np.arange(6.0, dtype=np.float32).reshape(2, 3)
    b = np.array([-0.0], dtype=np.float32)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": Tensor(w), "b": Tensor(b)}, meta={"k": 1})
    assert path.read_bytes() == (b'distilldet-ckpt v2 {"k": 1}\n' + b"b 1 1\n" + b.astype("<f4").tobytes()
                                 + b"w 2 2 3\n" + w.astype("<f4").tobytes())


def test_a_long_tensor_keeps_the_layout(tmp_path, rng):
    w = rng.normal(size=(2 * BLOCK + 3, 1)).astype(np.float32)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": Tensor(w)})
    assert path.read_bytes() == (_MAGIC + b"{}\n" + f"w 2 {len(w)} 1\n".encode()
                                 + w.astype("<f4").tobytes())
    _, loaded = load_checkpoint(path)
    assert loaded["w"].data.tobytes() == w.tobytes()


def _traced_peak(fn):
    """(result of ``fn()``, bytes its traced allocations peaked above the start)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


_SLACK = 32 << 10  # file objects, headers and small temporaries


def test_a_save_allocates_no_buffer_and_a_load_only_its_result(tmp_path):
    params = {"w": Tensor(np.arange(1 << 21, dtype=np.float32))}
    path = tmp_path / "big.ckpt"
    _, save_peak = _traced_peak(lambda: save_checkpoint(path, params))
    assert save_peak <= _SLACK
    (_, loaded), load_peak = _traced_peak(lambda: load_checkpoint(path))
    # The result, plus the one-byte-per-value mask of one BLOCK with which
    # a Tensor checks a large array for non-finite values.
    assert load_peak <= loaded["w"].data.nbytes + BLOCK + _SLACK
    assert loaded["w"].data.tobytes() == params["w"].data.tobytes()


class _UnreadableTensor:
    @property
    def data(self):
        raise OSError("disk full")


def test_failed_save_keeps_the_earlier_checkpoint_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": Tensor(np.ones((2, 2), dtype=np.float32))}, meta={"run": 1})
    before = path.read_bytes()
    # "a" is written before "b" fails, so the save stops half way.
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"a": Tensor(np.zeros(3, dtype=np.float32)), "b": _UnreadableTensor()},
                        meta={"run": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["p.ckpt"]


def test_saving_a_float64_tensor_raises_naming_it_and_keeps_the_earlier_checkpoint(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": Tensor(np.ones((2, 2), dtype=np.float32))}, meta={"run": 1})
    before = path.read_bytes()
    params = {"a": Tensor(np.zeros(3, dtype=np.float32)), "w": Tensor(np.ones((2, 2)))}
    with pytest.raises(ValueError, match="tensor 'w' is float64, not float32") as info:
        save_checkpoint(path, params, meta={"run": 2})
    assert str(path) in str(info.value)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["p.ckpt"]


def test_a_v1_file_raises_value_error_naming_file_and_version(tmp_path):
    # The float64 format this one replaced.
    path = tmp_path / "old.ckpt"
    path.write_bytes(b"distilldet-ckpt v1 {}\nw 1 2\n" + np.array([1.0, 2.0], dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="v1") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_value_raises_value_error_naming_file_and_tensor(tmp_path, bad):
    path = tmp_path / "p.ckpt"
    path.write_bytes(_MAGIC + b"{}\nw 1 3\n" + np.array([1.0, bad, 2.0], dtype="<f4").tobytes())
    with pytest.raises(ValueError, match="tensor 'w' is not finite") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def _with_header(tmp_path, header: bytes):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_MAGIC + b"{}\n" + header + b"\n" + b"\0" * 64)
    return path


@pytest.mark.parametrize("meta", [b'{"a" 1}', b'{"a": "\xff"}'], ids=["bad-json", "not-utf8"])
def test_corrupt_meta_line_raises_value_error_naming_file(tmp_path, meta):
    path = tmp_path / "meta.ckpt"
    path.write_bytes(_MAGIC + meta + b"\n")
    with pytest.raises(ValueError, match="corrupt checkpoint meta line") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


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


def test_a_name_written_twice_raises_value_error_naming_file_entry_and_name(tmp_path):
    path = tmp_path / "dup.ckpt"
    entries = (("a", [1.0]), ("w", [2.0, 3.0]), ("w", [4.0, 5.0]))
    path.write_bytes(_MAGIC + b"{}\n" + b"".join(
        f"{name} 1 {len(v)}\n".encode() + np.asarray(v, dtype="<f4").tobytes() for name, v in entries))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert str(path) in message and "entry 2" in message and "'w'" in message


@pytest.mark.parametrize("shape, cut", [
    ((4, 4), 4),         # the last value
    ((1000,), 500 * 4),  # half the values
])
def test_truncated_tensor_raises_value_error(tmp_path, shape, cut):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"w": Tensor(np.ones(shape, dtype=np.float32))})
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [b"w 1 1000000000000", b"w 2 100000 100000"])
def test_shape_beyond_the_file_raises_before_allocating(tmp_path, header):
    path = _with_header(tmp_path, header)

    def load():
        with pytest.raises(ValueError, match="truncated tensor 'w'") as info:
            load_checkpoint(path)
        return info

    info, peak = _traced_peak(load)
    assert str(path) in str(info.value)
    assert peak <= _SLACK


@pytest.mark.parametrize("header, message", [
    (b"garbage", "malformed tensor header"),
    (b"w 1 1000000000000", "truncated tensor 'w'"),
])
def test_cli_distill_with_malformed_teacher_exits_2(tmp_path, capsys, header, message):
    teacher = _with_header(tmp_path, header)
    config = tmp_path / "tiny.cfg"
    config.write_text("dataset.n_train = 2\ndataset.n_test = 1\ntrain.epochs = 1\n"
                      "train.lr_decay_epochs =\n")
    code = main(["distill", "--config", str(config), "--out", str(tmp_path / "run"),
                 "--teacher", str(teacher)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(teacher) in err and message in err
