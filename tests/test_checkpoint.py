"""Checkpoint round trips, the on-disk layout, atomic saves and clean
failures on malformed files."""

import os
import tracemalloc

import numpy as np
import pytest

from distilldet import Tensor
from distilldet.checkpoint import _MAGIC, BLOCK, load_checkpoint, save_checkpoint
from distilldet.cli import main


def test_round_trip_is_bit_exact(tmp_path, rng):
    # float32 params, which are what the library trains and saves
    params = {"a.w": Tensor(rng.normal(size=(2, 3, 1, 5)).astype(np.float32)),
              "b": Tensor(np.array(-0.0, dtype=np.float32))}
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params, meta={"k": 1})
    meta, loaded = load_checkpoint(path)
    assert meta == {"k": 1}
    assert sorted(loaded) == sorted(params)
    for name, t in params.items():
        assert loaded[name].data.tobytes() == t.data.tobytes()


def test_float64_file_loads_rounded_to_nearest_float32(tmp_path):
    # 1/3 and 1 + 2**-30 lie between float32 neighbours; -0.0 keeps its sign
    values = np.array([1.0 / 3.0, 1.0 + 2.0 ** -30, -0.0, -1e30])
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": Tensor(values)})
    assert path.read_bytes().endswith(values.astype("<f8").tobytes())
    _, loaded = load_checkpoint(path)
    w = loaded["w"].data
    assert w.dtype == np.float32
    assert float(w[0]) != values[0] and w[1] == 1.0
    for v, got in zip(values, w):
        below = np.nextafter(got, np.float32(-np.inf))
        above = np.nextafter(got, np.float32(np.inf))
        assert abs(float(got) - v) <= min(abs(float(below) - v), abs(float(above) - v))
    assert w[2] == 0.0 and np.signbit(w[2])


def test_value_beyond_float32_range_raises_value_error(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": Tensor(np.array([1.0, 1e300]))})
    with pytest.raises(ValueError, match="'w' is not finite in float32"):
        load_checkpoint(path)


def test_save_writes_the_documented_layout(tmp_path):
    w = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": Tensor(w), "b": Tensor(np.array([-0.0]))}, meta={"k": 1})
    assert path.read_bytes() == (_MAGIC + b'{"k": 1}\n' + b"b 1 1\n" + np.array([-0.0]).tobytes()
                                 + b"w 2 2 3\n" + w.astype("<f8").tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_tensor_longer_than_one_block_keeps_the_layout(tmp_path, rng, dtype):
    w = rng.normal(size=(2 * BLOCK + 3, 1)).astype(dtype)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": Tensor(w)})
    assert path.read_bytes() == (_MAGIC + b"{}\n" + f"w 2 {len(w)} 1\n".encode()
                                 + w.astype("<f8").tobytes())
    _, loaded = load_checkpoint(path)
    assert loaded["w"].data.tobytes() == w.astype(np.float32).tobytes()


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


def test_save_and_load_stream_through_one_block(tmp_path):
    n = 1 << 21
    params = {"w": Tensor(np.arange(n, dtype=np.float32))}
    path = tmp_path / "big.ckpt"
    block, slack = BLOCK * 8, 128 << 10
    _, save_peak = _traced_peak(lambda: save_checkpoint(path, params))
    assert save_peak <= block + slack
    (_, loaded), load_peak = _traced_peak(lambda: load_checkpoint(path))
    # The float32 result and the block; a Tensor checks a large array for
    # non-finite values one block at a time, so no whole-array mask.
    assert load_peak <= loaded["w"].data.nbytes + block + slack
    assert loaded["w"].data.tobytes() == params["w"].data.tobytes()


class _UnreadableTensor:
    @property
    def data(self):
        raise OSError("disk full")


def test_failed_save_keeps_the_earlier_checkpoint_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": Tensor(np.ones((2, 2)))}, meta={"run": 1})
    before = path.read_bytes()
    # "a" is written before "b" fails, so the save stops half way.
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"a": Tensor(np.zeros(3)), "b": _UnreadableTensor()}, meta={"run": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["p.ckpt"]


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
        f"{name} 1 {len(v)}\n".encode() + np.asarray(v, dtype="<f8").tobytes() for name, v in entries))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert str(path) in message and "entry 2" in message and "'w'" in message


@pytest.mark.parametrize("shape, cut", [
    ((4, 4), 8),                               # the last value
    ((2 * BLOCK + 3,), (BLOCK // 2 + 3) * 8),  # the file ends half way into the second block
])
def test_truncated_tensor_raises_value_error(tmp_path, shape, cut):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"w": Tensor(np.ones(shape))})
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
    assert peak <= 2 * BLOCK * 8


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
