"""Flat binary checkpoints: a JSON meta line followed by named tensors.

Each entry is a text header `name ndim d0 d1 ...` and the raw little-endian
float64 buffer, so files round-trip bit-exactly and hash reproducibly.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from .autodiff import Tensor

_MAGIC = b"distilldet-ckpt v1 "


def save_checkpoint(path, params: dict, meta: dict | None = None):
    with open(path, "wb") as fh:
        fh.write(_MAGIC + json.dumps(meta or {}, sort_keys=True).encode() + b"\n")
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name].data, dtype="<f8")
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {arr.ndim} {dims}".rstrip().encode() + b"\n")
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Returns (meta, params) with freshly allocated no-grad tensors."""
    params: dict[str, Tensor] = {}
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head.startswith(_MAGIC):
            raise ValueError(f"{path} is not a checkpoint file")
        meta = json.loads(head[len(_MAGIC):].decode())
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
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"{path}: truncated tensor {name!r}")
            arr = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
            params[name] = Tensor(arr)
    return meta, params


def checkpoint_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
