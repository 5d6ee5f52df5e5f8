"""Brute-force oracle equivalence for the numeric workhorses.

Each operation runs against an independent loop/formula reference on many
random instances at tight tolerances; the references live in oracles.py and
share no code with the library.
"""

import numpy as np
import pytest

import distilldet.autodiff as ad
from distilldet import ShapeError, Tensor, roi
from distilldet.boxes import nms
from distilldet.distill import (
    logit_distill_loss,
    pyramid_distill_loss,
    region_distill_loss,
)
from distilldet.imageops import conv2d
from oracles import (
    bilinear_formula,
    conv2d_loops,
    matmul_loops,
    nms_quadratic,
    roi_align_loops,
    sq_mean_loops,
)

N_INSTANCES = 50


def bilinear_sample(f, x, y):
    """One bilinear lookup at (x, y) through roi_align_batch: a unit box
    centred there, cropped to one bin with one sample."""
    box = np.array([[x - 0.5, y - 0.5, x + 0.5, y + 0.5]])
    return roi.roi_align_batch([Tensor(f)], box, [1.0], out_size=1, samples=1).data[0, :, 0, 0]


def test_conv2d_trivial_all_ones():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    out = conv2d(x, w, b)
    # each output counts the input cells its window covers inside the map
    assert np.array_equal(out.data[0, 0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])


def test_conv2d_identity_kernel(rng):
    x = Tensor(rng.normal(size=(1, 3, 5, 6)))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = conv2d(x, Tensor(w), Tensor(np.zeros(3)))
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("kh, kw", [(3, 1), (1, 3), (2, 2), (4, 4)])
def test_conv2d_rejects_a_kernel_that_is_not_square_with_an_odd_side(kh, kw):
    with pytest.raises(ShapeError, match="square with an odd side"):
        conv2d(Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones((1, 1, kh, kw))), Tensor(np.zeros(1)))


def test_conv2d_random_instances_vs_loops(rng):
    for i in range(N_INSTANCES):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        kh = int(rng.choice([1, 3, 5]))
        h = int(rng.integers(kh, kh + 6))
        x = rng.normal(size=(n, c, h, h))
        w = rng.normal(size=(k, c, kh, kh))
        b = rng.normal(size=(k,))
        got = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        want = conv2d_loops(x, w, b, pad=kh // 2)
        assert np.allclose(got, want, rtol=0, atol=1e-10), f"instance {i}"


def test_linear_identity_and_zero_weight(rng):
    w = rng.normal(size=(4, 5))
    out = ad.linear(Tensor(np.eye(4)), Tensor(w), Tensor(np.zeros(5)))
    assert np.allclose(out.data, w, atol=1e-15)
    b = rng.normal(size=(5,))
    out = ad.linear(Tensor(rng.normal(size=(3, 4))), Tensor(np.zeros((4, 5))), Tensor(b))
    assert np.allclose(out.data, np.tile(b, (3, 1)), atol=1e-15)


def test_linear_random_instances_vs_loops(rng):
    for _ in range(N_INSTANCES):
        n, d, m = (int(rng.integers(1, 7)) for _ in range(3))
        a = rng.normal(size=(n, d))
        w = rng.normal(size=(d, m))
        b = rng.normal(size=(m,))
        got = ad.linear(Tensor(a), Tensor(w), Tensor(b)).data
        want = matmul_loops(a, w) + b
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_bilinear_at_grid_points(rng):
    f = rng.normal(size=(3, 4, 5))
    for i in range(4):
        for j in range(5):
            got = bilinear_sample(f, float(j), float(i))
            assert np.allclose(got, f[:, i, j], atol=1e-15)


def test_bilinear_center_of_2x2_is_mean(rng):
    f = rng.normal(size=(2, 2, 2))
    got = bilinear_sample(f, 0.5, 0.5)
    assert np.allclose(got, f.mean(axis=(1, 2)), atol=1e-14)


def test_bilinear_random_coords_vs_formula(rng):
    f = rng.normal(size=(3, 6, 7))
    for _ in range(100):
        x = float(rng.uniform(-1.0, 7.5))
        y = float(rng.uniform(-1.0, 6.5))
        got = bilinear_sample(f, x, y)
        want = bilinear_formula(f, x, y)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_roi_align_random_vs_loop_oracle(rng):
    for i in range(N_INSTANCES):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(4, 10))
        w = int(rng.integers(4, 10))
        f = rng.normal(size=(c, h, w))
        stride = float(rng.choice([1.0, 2.0, 4.0]))
        x1 = float(rng.uniform(0, w * stride * 0.5))
        y1 = float(rng.uniform(0, h * stride * 0.5))
        box = (x1, y1, x1 + float(rng.uniform(1, w * stride * 0.5)),
               y1 + float(rng.uniform(1, h * stride * 0.5)))
        s = int(rng.choice([2, 3]))
        samples = int(rng.choice([1, 2]))
        got = roi.roi_align_batch([Tensor(f)], np.array([box]), [stride], out_size=s, samples=samples).data[0]
        want = roi_align_loops(f, box, stride, s, samples)
        assert np.allclose(got, want, rtol=0, atol=1e-12), f"instance {i}"


def test_roi_align_batch_matches_oracle(rng):
    f = rng.normal(size=(3, 8, 12))
    boxes = np.column_stack([rng.uniform(0, 20, 8), rng.uniform(0, 12, 8),
                             rng.uniform(24, 46, 8), rng.uniform(16, 30, 8)])
    got = roi.roi_align_batch([Tensor(f)], boxes, [4.0], out_size=5, samples=2).data
    for i, b in enumerate(boxes):
        want = roi_align_loops(f, b, 4.0, 5, 2)
        assert np.allclose(got[i], want, rtol=0, atol=1e-12)


def test_nms_pair_suppression():
    boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10.0]])
    keep = nms(boxes, np.array([0.9, 0.8]), 0.5)
    assert keep == [0]


def test_nms_random_vs_quadratic_oracle(rng):
    for i in range(N_INSTANCES):
        n = int(rng.integers(1, 51))
        x1 = rng.uniform(0, 80, size=n)
        y1 = rng.uniform(0, 80, size=n)
        boxes = np.stack([x1, y1, x1 + rng.uniform(2, 40, size=n),
                          y1 + rng.uniform(2, 40, size=n)], axis=1)
        scores = rng.uniform(0, 1, size=n)
        thresh = float(rng.choice([0.3, 0.5, 0.7]))
        got = nms(boxes, scores, thresh)
        want = nms_quadratic(boxes.tolist(), scores.tolist(), thresh)
        assert got == want, f"instance {i}"


def test_nms_max_keep_is_a_prefix_of_the_unlimited_run(rng):
    for i in range(12):
        n = int(rng.integers(1, 81))
        x1 = rng.uniform(0, 80, size=n)
        y1 = rng.uniform(0, 80, size=n)
        boxes = np.stack([x1, y1, x1 + rng.uniform(2, 40, size=n),
                          y1 + rng.uniform(2, 40, size=n)], axis=1)
        scores = rng.integers(0, 6, size=n) / 5.0  # many tied scores
        thresh = float(rng.choice([0.3, 0.5, 0.7]))
        full = nms(boxes, scores, thresh)
        for k in range(1, n + 1):
            assert nms(boxes, scores, thresh, max_keep=k) == full[:k], f"instance {i}, k={k}"


def test_distill_losses_random_vs_loop_oracle(rng):
    for _ in range(N_INSTANCES):
        shapes = [(2, int(rng.integers(2, 5)), int(rng.integers(2, 5))) for _ in range(4)]
        s_lv = [rng.normal(size=s) for s in shapes]
        t_lv = [rng.normal(size=s) for s in shapes]
        pyr_s = tuple(Tensor(a, requires_grad=True) for a in s_lv)
        got = pyramid_distill_loss(pyr_s, t_lv).item()
        want = sq_mean_loops(list(zip(s_lv, t_lv)))
        assert abs(got - want) < 1e-12

        n = int(rng.integers(1, 5))
        sr = rng.normal(size=(n, 3, 4, 4))
        tr = rng.normal(size=(n, 3, 4, 4))
        got = region_distill_loss(Tensor(sr, requires_grad=True), tr).item()
        want = sq_mean_loops([(sr, tr)])
        assert abs(got - want) < 1e-12

        sl = rng.normal(size=(n, 6))
        tl = rng.normal(size=(n, 6))
        got = logit_distill_loss(Tensor(sl, requires_grad=True), tl).item()
        want = sq_mean_loops([(sl, tl)])
        assert abs(got - want) < 1e-12


def test_region_batch_tensor_matches_list_form(rng):
    """The [R,C,S,S] loss equals the loop oracle summed region by region."""
    sr = rng.normal(size=(4, 3, 2, 2))
    tr = rng.normal(size=(4, 3, 2, 2))
    batch = region_distill_loss(Tensor(sr), tr).item()
    lists = sq_mean_loops(list(zip(sr, tr)))
    assert abs(batch - lists) < 1e-12
