"""Finite-difference verification of every differentiable operation, plus
the end-to-end detection-loss gradient check."""

import numpy as np

import distilldet.autodiff as ad
from distilldet import Tensor, backward, nets, roi
from distilldet.gradcheck import check_gradients, numeric_grad, op_checks, rel_error


def test_full_op_suite_passes():
    results = op_checks(instances=20)
    assert len(results) >= 17
    for name, worst in results:
        assert worst < 1e-4, f"{name} worst rel err {worst}"


def test_numeric_grad_on_quadratic():
    g = numeric_grad(lambda a: float((a ** 2).sum()), [np.array([1.0, -2.0])], 0)
    assert np.allclose(g, [2.0, -4.0], atol=1e-8)


def test_rel_error_scales():
    assert rel_error(np.array([1000.0]), np.array([1000.1])) < 2e-4
    assert rel_error(np.array([0.0]), np.array([0.5])) == 0.5


def test_conv2d_gradcheck_with_taps_that_read_only_padding(rng):
    # On a 1-pixel-high map the top and bottom two rows of a 5x5 kernel
    # (pad 2) read only padding; the backward skips those taps.
    x = rng.normal(size=(1, 2, 1, 6))
    w = rng.normal(size=(3, 2, 5, 5))
    b = rng.normal(size=(3,))
    from distilldet.imageops import conv2d

    worst = check_gradients(conv2d, [x, w, b])
    assert worst < 1e-4


def test_roi_align_gradcheck(rng):
    f = rng.normal(size=(3, 8, 10))
    box = np.array([[2.3, 1.1, 8.7, 7.2]])
    worst = check_gradients(lambda ft: roi.roi_align_batch([ft], box, [1.0], out_size=3), [f])
    assert worst < 1e-4


def test_roi_align_batch_gradcheck(rng):
    f = rng.normal(size=(2, 8, 10))
    boxes = np.array([[2.3, 1.1, 8.7, 7.2], [0.0, 0.0, 9.9, 7.9]])
    worst = check_gradients(lambda ft: roi.roi_align_batch([ft], boxes, [1.0], out_size=3), [f])
    assert worst < 1e-4


def test_pyramid_roi_align_gradcheck(rng):
    """All-level crops: every level's gradient matches finite differences."""
    levels = [Tensor(rng.normal(size=(2, 16 // s, 24 // s)), requires_grad=True)
              for s in (1, 2, 4, 8)]
    pyr = tuple(levels)
    box = np.array([[10.0, 8.0, 50.0, 60.0]])
    out = roi.extract_region_batch(pyr, box, True, out_size=3)
    proj = np.random.default_rng(0).normal(size=out.data.shape)
    backward(ad.tsum(ad.mul(out, Tensor(proj))))
    for i, lvl in enumerate(levels):
        ana = lvl.grad if lvl.grad is not None else np.zeros_like(lvl.data)

        def fn(*arrays):
            pr = tuple(Tensor(a) for a in arrays)
            return float((roi.extract_region_batch(pr, box, True, out_size=3).data * proj).sum())

        num = numeric_grad(fn, [l.data for l in levels], i)
        assert rel_error(ana, num) < 1e-4


def test_end_to_end_detection_loss_gradient(tiny_student_cfg, rng):
    """Backbone-weight gradients through pyramid, region cropping and the
    head match finite differences on a 64x64 input (fixed boxes/labels).
    Params and image are float64, so the 1e-5 steps and the finite
    differences are taken in float64."""
    cfg = tiny_student_cfg
    params = {k: Tensor(v.data.astype(np.float64), requires_grad=True)
              for k, v in nets.init_params(cfg, seed=3).items()}
    image = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 64, 64)))
    assert image.data.dtype == np.float64
    rois = np.array([[4.0, 6.0, 20.0, 40.0], [30.0, 10.0, 44.0, 58.0], [2.0, 2.0, 60.0, 60.0]])
    labels = np.array([1, 0, 1])
    targets = np.array([[0.1, -0.05, 0.2, 0.0], [0, 0, 0, 0], [-0.1, 0.02, 0.0, 0.1]])

    def loss_tensor():
        pyr = nets.forward_pyramid(image, cfg, params)
        regions = roi.extract_region_batch(pyr, rois, cfg.pyramid_roi)
        _, cls, box = nets.head_forward_batch(regions, cfg, params)
        return nets.detection_loss(cls, box, labels, targets)

    backward(loss_tensor())
    assert all(p.grad.dtype == np.float64 for p in params.values() if p.grad is not None)

    picked = [("bb.stem.w", (0, 0, 1, 1)), ("bb.s1.c0.w", (1, 0, 0, 2)),
              ("bb.s3.c0.w", (2, 1, 1, 0)), ("bb.s4.c0.w", (0, 3, 2, 2)),
              ("fpn.lat2.w", (1, 0, 0, 0)), ("fpn.smooth2.w", (0, 1, 1, 1))]
    eps = 1e-5
    for name, idx in picked:
        ana = params[name].grad[idx]
        orig = params[name].data[idx]
        params[name].data[idx] = orig + eps
        hi = loss_tensor().item()
        params[name].data[idx] = orig - eps
        lo = loss_tensor().item()
        params[name].data[idx] = orig
        num = (hi - lo) / (2 * eps)
        err = abs(ana - num) / max(abs(ana), abs(num), 1.0)
        assert err < 1e-3, f"{name}{idx}: analytic {ana} vs numeric {num}"
    for p in params.values():
        p.grad = None
