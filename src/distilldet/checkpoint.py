"""Flat binary checkpoints: a JSON meta line followed by named tensors.

Each entry is a text header `name ndim d0 d1 ...` and the tensor's raw
little-endian float32 bytes: the ``COMPUTE_DTYPE`` the detector trains and
runs in, so a tensor round-trips bit for bit and a checkpoint hashes
reproducibly. A save writes each array as it is, with no copy, and refuses
a tensor of any other dtype; a load reads each tensor straight into its
result. A ``distilldet-ckpt v1`` file, which held float64 values, is
refused.

A load checks that the bytes left in the file cover the header's shape
before it allocates the result, so a header whose shape the file cannot
hold, however large, fails as a truncated tensor without allocating
anything. That check reads the file's size and position, so a load needs a
seekable regular file: a pipe such as ``/dev/stdin`` is refused with
``OSError``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os

import numpy as np

from .autodiff import Tensor

_MAGIC = b"distilldet-ckpt v2 "
_V1_MAGIC = b"distilldet-ckpt v1 "
_DTYPE = np.dtype("<f4")


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Yields a file opened on a temporary name beside ``path`` and renames
    it over ``path`` when the block ends; a block that raises removes the
    temporary file and leaves an earlier file at ``path`` as it was."""
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(path, params: dict, meta: dict | None = None):
    """Writes ``path`` through ``atomic_write``, so a save that fails part
    way leaves an earlier file there as it was. A tensor that is not
    float32 raises ValueError naming it."""
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC + json.dumps(meta or {}, sort_keys=True).encode() + b"\n")
        for name in sorted(params):
            arr = params[name].data
            if arr.dtype != _DTYPE:
                raise ValueError(f"{path}: tensor {name!r} is {arr.dtype}, not float32")
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {arr.ndim} {dims}".rstrip().encode() + b"\n")
            fh.write(arr)


def load_checkpoint(path):
    """Returns (meta, params) with freshly allocated no-grad float32
    tensors. A name that appears twice raises ValueError, since either
    entry could be the one meant; so does a meta line that is not UTF-8
    JSON, and a v1 file. Every ValueError names ``path``."""
    params: dict[str, Tensor] = {}
    with open(path, "rb") as fh:
        head = fh.readline()
        if head.startswith(_V1_MAGIC):
            raise ValueError(f"{path} is a distilldet-ckpt v1 (float64) checkpoint, which this "
                             "version no longer reads; train it again")
        if not head.startswith(_MAGIC):
            raise ValueError(f"{path} is not a checkpoint file")
        try:
            meta = json.loads(head[len(_MAGIC):].decode())
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise ValueError(f"{path}: corrupt checkpoint meta line: {exc}") from None
        for entry in itertools.count():
            header = fh.readline()
            if not header:
                break
            try:
                parts = header.decode().split()
                name, ndim = parts[0], int(parts[1])
                shape = tuple(int(d) for d in parts[2:])
            except (IndexError, ValueError):
                raise ValueError(f"{path}: entry {entry}: malformed tensor header {header!r}") from None
            if len(shape) != ndim or any(d <= 0 for d in shape):
                raise ValueError(f"{path}: entry {entry}: bad shape in tensor header {header!r}")
            if name in params:
                raise ValueError(f"{path}: entry {entry}: duplicate tensor name {name!r}")
            if math.prod(shape) * _DTYPE.itemsize > os.fstat(fh.fileno()).st_size - fh.tell():
                raise ValueError(f"{path}: truncated tensor {name!r}")
            arr = np.empty(shape, dtype=_DTYPE)
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"{path}: truncated tensor {name!r}")
            try:
                params[name] = Tensor(arr)
            except ValueError:
                raise ValueError(f"{path}: tensor {name!r} is not finite") from None
    return meta, params


def checkpoint_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
