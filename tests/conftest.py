import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from distilldet import data, nets
from distilldet.checkpoint import save_checkpoint
from distilldet.train import _cfg_meta


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_student_cfg():
    """Small student for fast net-level tests."""
    return nets.NetConfig(
        widths=(4, 8, 8, 16), blocks=(1, 1, 1, 1), pyramid_width=8,
        head_hidden=16,
    )


@pytest.fixture(scope="session")
def tiny_teacher_cfg():
    return nets.NetConfig(
        widths=(8, 16, 16, 32), blocks=(2, 2, 2, 2), pyramid_width=8,
        head_hidden=32,
    )


@pytest.fixture(scope="session")
def tiny_scenes():
    """A handful of 64x96 scenes shared across training tests."""
    params = data.SceneParams(n_train=6, n_test=3, image_height=64, image_width=96)
    return data.generate_dataset(params, seed=7)


@pytest.fixture
def save_teacher(tmp_path):
    """Writes an untrained teacher checkpoint of the given config and
    returns its path; matching only needs the teacher's shapes."""
    def save(cfg):
        path = tmp_path / "teacher.ckpt"
        save_checkpoint(path, nets.init_params(cfg, seed=0), meta=_cfg_meta(cfg))
        return path
    return save
