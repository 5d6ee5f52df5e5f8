"""The float32 compute policy and the np.where-free elementwise steps.

Training and detection run in ``autodiff.COMPUTE_DTYPE``; a float64 array
that slips into a step (an interpolation operator, a backward buffer, a
loss target) would silently upcast everything downstream of it. The relu
forward, ``iou_matrix`` and the maxpool backward dropped ``np.where``; they
must keep the bytes of the earlier forms (``oracles.relu_where``,
``iou_where``, ``maxpool2x2_backward_where``) in float32 and float64.
"""

import numpy as np
import pytest

import distilldet.autodiff as ad
from distilldet import imageops, train
from distilldet.autodiff import COMPUTE_DTYPE, Tensor
from distilldet.boxes import iou_matrix
from distilldet.train import TrainConfig, distill_student
from oracles import iou_where, maxpool2x2_backward_where, relu_where

DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_matches_where_form_bytewise(dtype):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 40)).astype(dtype)
    x[rng.random(x.shape) < 0.1] = 0.0
    out = ad.relu(Tensor(x, requires_grad=True))
    assert out.data.dtype == dtype
    assert out.data.tobytes() == relu_where(x).tobytes()


def test_relu_passes_nan_through():
    t = Tensor(np.zeros(3))
    t.data = np.array([np.nan, -1.0, 2.0])  # a leaf cannot hold NaN; an op output can
    out = ad.relu(t).data
    assert np.isnan(out[0]) and out[1:].tolist() == [0.0, 2.0]


@pytest.mark.parametrize("dtype", DTYPES)
def test_iou_matrix_matches_where_form_bytewise(dtype):
    rng = np.random.default_rng(6)
    for _ in range(20):
        lo = rng.uniform(0, 40, size=(30, 2))
        size = np.where(rng.random((30, 2)) < 0.3, 0.0, rng.uniform(0, 20, size=(30, 2)))
        boxes = np.hstack([lo, lo + size]).astype(dtype)  # about half degenerate
        a, b = boxes[:12], boxes[12:]
        want = iou_where(a.astype(np.float64), b.astype(np.float64))
        assert iou_matrix(a, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_maxpool2x2_backward_matches_where_form_bytewise(dtype):
    rng = np.random.default_rng(7)
    values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0], dtype=dtype)
    for _ in range(30):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        h, w = 2 * int(rng.integers(1, 6)), 2 * int(rng.integers(1, 9))
        x = values[rng.integers(0, len(values), size=(n, c, h, w))]
        g = rng.normal(size=(n, c, h // 2, w // 2)).astype(dtype)
        t = Tensor(x, requires_grad=True)
        ad.backward(ad.tsum(ad.mul(imageops.maxpool2x2(t), Tensor(g))))
        assert t.grad.dtype == dtype
        # the first contribution is added to a zero buffer, which makes -0.0 into 0.0
        assert t.grad.tobytes() == (np.zeros_like(x) + maxpool2x2_backward_where(x, g)).tobytes()


def test_one_row8_epoch_computes_in_float32(tmp_path, monkeypatch, tiny_scenes, tiny_teacher_cfg,
                                            tiny_student_cfg, save_teacher):
    """Params, SGD velocity and the teacher cache stay float32; every graph
    node that is not a scalar is float32, and no gradient of another dtype is
    accumulated into a float32 tensor."""
    train_scenes, _ = tiny_scenes
    assert all(s.image.data.dtype == COMPUTE_DTYPE for s in train_scenes)

    upcasts = []

    real_hand_off = ad._hand_off

    def checked_hand_off(node, grads):
        for t, g in zip(node._parents, grads):
            if g is not None and np.size(g) > 1 and g.dtype != t.data.dtype:
                upcasts.append((t.data.shape, g.dtype))
        real_hand_off(node, grads)

    monkeypatch.setattr(ad, "_hand_off", checked_hand_off)

    node_dtypes = []
    real_backward = train.backward

    def spy_backward(loss):
        node_dtypes.append({(n.data.shape, n.data.dtype) for n in ad.Tape(loss).nodes
                            if n.data.size > 1})
        real_backward(loss)

    made = {}

    class SpySGD(train.SGD):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["sgd"] = self

    class SpyMatcher(train._TeacherContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["matcher"] = self

    monkeypatch.setattr(train, "backward", spy_backward)
    monkeypatch.setattr(train, "SGD", SpySGD)
    monkeypatch.setattr(train, "_TeacherContext", SpyMatcher)

    params, records, _ = distill_student(train_scenes, save_teacher(tiny_teacher_cfg),
                                         TrainConfig(epochs=1, lr_decay_epochs=()),
                                         tmp_path / "student.ckpt", student_cfg=tiny_student_cfg)
    assert len(node_dtypes) == len(records) == len(train_scenes)
    assert all(r.distill.pd > 0 and r.distill.rd > 0 and r.distill.ld > 0 for r in records)
    wrong = {(shape, dt) for step in node_dtypes for shape, dt in step if dt != COMPUTE_DTYPE}
    assert not wrong, f"graph nodes not in float32: {sorted(wrong, key=str)}"
    assert not upcasts, f"gradients accumulated in another dtype: {upcasts[:5]}"
    assert {p.data.dtype for p in params.values()} == {np.dtype(COMPUTE_DTYPE)}
    assert {v.dtype for v in made["sgd"].velocity.values()} == {np.dtype(COMPUTE_DTYPE)}
    matcher = made["matcher"]
    assert {p.data.dtype for p in matcher.params.values()} == {np.dtype(COMPUTE_DTYPE)}
    assert matcher._cache
    assert {a.dtype for arrs in matcher._cache.values() for a in arrs} == {np.dtype(COMPUTE_DTYPE)}
