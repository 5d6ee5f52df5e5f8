"""Flat binary checkpoints: a JSON meta line followed by named tensors.

Each entry is a text header `name ndim d0 d1 ...` and the raw little-endian
float64 buffer. Tensors load in ``COMPUTE_DTYPE`` (float32): float32 params
widen to float64 exactly, so they round-trip bit for bit and hash
reproducibly, and a file written from float64 params still loads, each
value rounded to the nearest float32 (``-0.0`` stays ``-0.0``; a value
beyond the float32 range raises ValueError).

Tensor data moves through one float64 block of ``autodiff.BLOCK`` values
(512 KB), so a save or a load holds no whole-tensor float64 or ``bytes``
copy: a save converts and writes block by block, and a load checks that the
bytes left in the file cover the header's shape before it allocates the
float32 result, then fills it block by block. A header whose shape the
file cannot hold, however large, fails as a truncated tensor without
allocating anything. That check reads the file's size and position, so a
load needs a seekable regular file: a pipe such as ``/dev/stdin`` is refused
with ``OSError``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os

import numpy as np

from .autodiff import BLOCK, COMPUTE_DTYPE, Tensor

_MAGIC = b"distilldet-ckpt v1 "


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
    way leaves an earlier file there as it was."""
    block = np.empty(BLOCK, dtype="<f8")
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC + json.dumps(meta or {}, sort_keys=True).encode() + b"\n")
        for name in sorted(params):
            arr = params[name].data
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {arr.ndim} {dims}".rstrip().encode() + b"\n")
            flat = arr.reshape(-1)
            for start in range(0, flat.size, BLOCK):
                part = block[:min(BLOCK, flat.size - start)]
                np.copyto(part, flat[start:start + len(part)])
                fh.write(part)


def load_checkpoint(path):
    """Returns (meta, params) with freshly allocated no-grad
    ``COMPUTE_DTYPE`` tensors. A name that appears twice raises
    ValueError, since either entry could be the one meant; so does a meta
    line that is not UTF-8 JSON. Every ValueError names ``path``."""
    params: dict[str, Tensor] = {}
    block = np.empty(BLOCK, dtype="<f8")
    with open(path, "rb") as fh:
        head = fh.readline()
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
            count = math.prod(shape)
            if count * 8 > os.fstat(fh.fileno()).st_size - fh.tell():
                raise ValueError(f"{path}: truncated tensor {name!r}")
            arr = np.empty(count, dtype=COMPUTE_DTYPE)
            for start in range(0, count, BLOCK):
                part = block[:min(BLOCK, count - start)]
                if fh.readinto(part) != part.nbytes:
                    raise ValueError(f"{path}: truncated tensor {name!r}")
                with np.errstate(over="ignore"):  # out-of-range values become inf, rejected below
                    arr[start:start + len(part)] = part
            arr = arr.reshape(shape)
            try:
                params[name] = Tensor(arr)
            except ValueError:
                raise ValueError(f"{path}: tensor {name!r} is not finite in float32") from None
    return meta, params


def checkpoint_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
