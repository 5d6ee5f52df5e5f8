"""Synthetic scene generation."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distilldet import data
from oracles import smooth_field


def _same_scenes(a, b):
    return len(a) == len(b) and all(
        s.index == t.index and s.image.data.tobytes() == t.image.data.tobytes() and s.gts == t.gts
        for s, t in zip(a, b))


def test_dataset_repeats_per_seed():
    params = data.SceneParams(n_train=3, n_test=2)
    train, test = data.generate_dataset(params, seed=5)
    again_train, again_test = data.generate_dataset(params, seed=5)
    other_train, _ = data.generate_dataset(params, seed=6)
    assert _same_scenes(train, again_train) and _same_scenes(test, again_test)
    assert not _same_scenes(train, other_train)


def test_scene_i_does_not_depend_on_the_train_set_size():
    short, _ = data.generate_dataset(data.SceneParams(n_train=2, n_test=1), seed=3)
    long, _ = data.generate_dataset(data.SceneParams(n_train=5, n_test=1), seed=3)
    assert _same_scenes(short, long[:2])


def test_the_test_scenes_of_a_smaller_test_set_are_a_prefix_of_a_larger_one():
    _, few = data.generate_dataset(data.SceneParams(n_train=3, n_test=2), seed=4)
    _, many = data.generate_dataset(data.SceneParams(n_train=3, n_test=5), seed=4)
    assert _same_scenes(few, many[:2])


def test_ground_truth_boxes_lie_inside_the_image_with_visibility_in_0_1():
    train, test = data.generate_dataset(data.SceneParams(n_train=40, n_test=10), seed=0)
    gts = [g for scene in train + test for g in scene.gts]
    for g in gts:
        assert 1 <= g.x1 < g.x2 <= data.IMAGE_WIDTH - 1 and 1 <= g.y1 < g.y2 <= data.IMAGE_HEIGHT - 1
        assert 0 < g.visibility <= 1
    assert any(g.visibility < 1 for g in gts)  # occluders do occur


@pytest.mark.parametrize("params, seed, image_sha, gts_sha", [
    (data.SceneParams(n_train=4, n_test=2), 0,
     "468430955f0bf5533baa37a37588ffb006fb663ee5ba565c4c975bb0ad0e8f19",
     "38eefcf095f05a9fadcbe00225798e1f60db2f1ff4b35176a458595a9095a845"),
], ids=["96x160-seed0"])
def test_scene_bytes_and_boxes_are_pinned(params, seed, image_sha, gts_sha):
    # any generator edit that moves a pixel, a box or a random draw fails here
    train, test = data.generate_dataset(params, seed)
    scenes = train + test
    assert hashlib.sha256(b"".join(s.image.data.tobytes() for s in scenes)).hexdigest() == image_sha
    gts = repr([[dataclasses.astuple(g) for g in s.gts] for s in scenes])
    assert hashlib.sha256(gts.encode()).hexdigest() == gts_sha


sides = st.integers(1, 8).map(lambda k: 32 * k)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(sides, sides, st.integers(0, 2**32 - 1))
def test_background_is_byte_equal_to_three_oracle_fields_and_draws_alike(h, w, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    img = data._background(rng, h, w)
    expected = np.stack([smooth_field(oracle_rng, h, w) for _ in range(3)])
    assert img.dtype == expected.dtype and img.shape == (3, h, w)
    assert img.tobytes() == expected.tobytes()
    assert rng.random(4).tobytes() == oracle_rng.random(4).tobytes()


def test_the_cached_plan_is_read_only_and_under_a_megabyte():
    weights, idx = data._field_plan(96, 160)
    assert data._field_plan(96, 160)[0] is weights
    assert weights.shape == (4, 96, 160) and idx.shape == (96, 160)
    assert weights.nbytes + idx.nbytes <= 1 << 20
    for arr in (weights, idx):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0
