"""Finite-difference verification of every differentiable operation, plus
the end-to-end detection-loss gradient check.

Each op check builds a scalar probe loss sum(op(inputs) * R) with a fixed
random projection R, differentiates it analytically, then perturbs every
input element by +/- ``EPS`` and compares; a relative error past ``TOL``
fails. Both sides run in float64, whatever the detector's compute dtype, so
EPS-sized steps are resolved. Each op is checked on ``INSTANCES`` random
inputs drawn from its own generator, seeded by ``SEED`` and the op's name.
Kinked ops (relu, maxpool, smooth-L1) are sampled away from their kinks so
the numeric derivative is well defined.
"""

import numpy as np
import pytest

import distilldet.autodiff as ad
from distilldet import Tensor, backward, nets, roi
from distilldet import imageops as iops

# Central-difference step.
EPS = 1e-5
# Worst relative error a check accepts.
TOL = 1e-4
# Seed of the op checks' random inputs, with the op's name.
SEED = 1234
# Random inputs checked per op.
INSTANCES = 20


def numeric_grad(fn, arrays, which: int) -> np.ndarray:
    """Central-difference gradient of scalar fn(*arrays) w.r.t. arrays[which]."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    target = arrays[which]
    g = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        hi = fn(*arrays)
        flat[i] = orig - EPS
        lo = fn(*arrays)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * EPS)
    return g


def rel_error(a: np.ndarray, n: np.ndarray) -> float:
    """Worst elementwise |a-n| / max(|a|, |n|, 1)."""
    a = np.asarray(a, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a - n) / denom))


def check_gradients(build, arrays, seed: int = 0):
    """Compare analytic vs numeric gradients of a tensor-valued op.

    ``build(*tensors) -> Tensor`` constructs the op from requires-grad leaf
    tensors made out of ``arrays``. Returns the worst relative error across
    all inputs; raises AssertionError past ``TOL``. ``seed`` draws the
    projection.
    """
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in arrays]
    out = build(*tensors)
    rng = np.random.default_rng(seed)
    proj = rng.normal(size=out.data.shape)

    loss = ad.tsum(ad.mul(out, Tensor(proj)))
    backward(loss)

    def scalar_fn(*arrs):
        ts = [Tensor(a) for a in arrs]
        res = build(*ts)
        return float((res.data * proj).sum())

    worst = 0.0
    for i, t in enumerate(tensors):
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        num = numeric_grad(scalar_fn, [t.data for t in tensors], i)
        err = rel_error(ana, num)
        worst = max(worst, err)
        if err > TOL:
            raise AssertionError(f"gradient mismatch on input {i}: rel err {err:.3e} > {TOL:.0e}")
    return worst


def _away_from(rng, shape, kinks, margin=5e-2, span=2.0):
    """Uniform values in [-span, span] kept at least margin from each kink."""
    vals = rng.uniform(-span, span, size=shape)
    for k in kinks:
        near = np.abs(vals - k) < margin
        vals[near] += np.where(vals[near] >= k, margin, -margin) * 2.0
    return vals


def _distinct(rng, shape):
    """Random values with pairwise-distinct entries (for maxpool windows)."""
    base = rng.normal(size=shape)
    jitter = np.arange(base.size).reshape(shape) * 1e-3
    return base + jitter


# ---- one random instance of each differentiable op: rng -> (build, arrays) ----


def _conv2d(rng):
    n, c, k = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    kh = int(rng.choice([1, 3]))
    h = int(rng.integers(kh, kh + 5))
    return iops.conv2d, [rng.normal(size=(n, c, h, h)), rng.normal(size=(k, c, kh, kh)),
                         rng.normal(size=(k,))]


def _linear(rng):
    n, d, m = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
    return ad.linear, [rng.normal(size=(n, d)), rng.normal(size=(d, m)), rng.normal(size=(m,))]


def _roi_align_batch(rng):
    c, h, w = int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
    stride = float(rng.choice([1.0, 2.0, 4.0]))
    lo = rng.uniform(-0.5, [w, h], size=(2, 2)) * stride
    boxes = np.hstack([lo, lo + rng.uniform(0.5, [w, h], size=(2, 2)) * stride])
    return (lambda f: roi.roi_align_batch([f], boxes, [stride], out_size=3)), [rng.normal(size=(c, h, w))]


def _softmax_cross_entropy(rng):
    n, k = int(rng.integers(1, 5)), int(rng.integers(2, 5))
    labels = rng.integers(0, k, size=n)
    return (lambda t: ad.softmax_cross_entropy(t, labels)), [rng.normal(size=(n, k))]


def _bce_with_logits(rng):
    n = int(rng.integers(1, 8))
    targets = rng.integers(0, 2, size=n).astype(float)
    return (lambda t: ad.bce_with_logits(t, targets)), [rng.normal(size=(n,))]


def _smooth_l1(rng):
    shape = (int(rng.integers(1, 4)), 4)
    p = _away_from(rng, shape, [0.0])
    t = np.zeros(shape)
    # keep |p - t| away from the quadratic/linear switch at 1
    d = p - t
    near = np.abs(np.abs(d) - 1.0) < 5e-2
    p[near] += np.sign(d[near]) * 0.1
    return (lambda x: ad.smooth_l1(x, t)), [p]


def _roi_align_batch_single_level(rng):
    c, h, w = int(rng.integers(1, 4)), int(rng.integers(4, 8)), int(rng.integers(4, 8))
    lo = rng.uniform(-0.5, [w, h], size=(3, 2))
    boxes = np.hstack([lo, lo + rng.uniform(0.5, [w, h], size=(3, 2))])
    box_levels = rng.integers(0, 3, size=3)  # a level may have no box
    return ((lambda *fs: roi.roi_align_batch(fs, boxes, [1.0, 2.0, 4.0], out_size=3, box_levels=box_levels)),
            [rng.normal(size=(c, h // k, w // k)) for k in (1, 2, 4)])


def _sq_error_sum(rng):
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)))
    t = rng.normal(size=shape)
    return (lambda x: ad.sq_error_sum(x, t)), [rng.normal(size=shape)]


OP_CASES = {
    "conv2d": _conv2d,
    "linear": _linear,
    "roi_align_batch": _roi_align_batch,
    "relu": lambda rng: (ad.relu, [_away_from(rng, (int(rng.integers(2, 6)), int(rng.integers(2, 6))), [0.0])]),
    "maxpool2x2": lambda rng: (iops.maxpool2x2, [_distinct(rng, (1, int(rng.integers(1, 3)), 4, 6))]),
    "concat": lambda rng: ((lambda a, b: ad.concat([a, b], axis=0)),
                           [rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 3, 4))]),
    "softmax_cross_entropy": _softmax_cross_entropy,
    "bce_with_logits": _bce_with_logits,
    "smooth_l1": _smooth_l1,
    "upsample2x": lambda rng: (iops.upsample2x, [rng.normal(size=(1, 2, 3, 4))]),
    "reshape": lambda rng: ((lambda t: ad.reshape(t, (6, 2))), [rng.normal(size=(3, 4))]),
    "transpose": lambda rng: ((lambda t: ad.transpose(t, (1, 0, 2))), [rng.normal(size=(2, 3, 4))]),
    "take": lambda rng: ((lambda t: ad.take(t, [0, 2, 2, 1])), [rng.normal(size=(4, 3))]),
    "add": lambda rng: (ad.add, [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))]),
    "mul": lambda rng: (ad.mul, [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))]),
    "roi_align_batch_single_level": _roi_align_batch_single_level,
    "sq_error_sum": _sq_error_sum,
}


@pytest.mark.parametrize("op", OP_CASES)
def test_op_gradient_matches_finite_differences(op):
    rng = np.random.default_rng([SEED, *op.encode()])
    for i in range(INSTANCES):
        build, arrays = OP_CASES[op](rng)
        check_gradients(build, arrays, seed=i)


def test_a_doubled_relu_gradient_rule_fails_its_check(monkeypatch):
    relu = ad.relu

    def doubled_relu(a):
        out = relu(a)
        if out._backward is not None:
            rule = out._backward
            out._backward = lambda g: tuple(2.0 * gi for gi in rule(g))
        return out

    monkeypatch.setattr(ad, "relu", doubled_relu)
    build, arrays = OP_CASES["relu"](np.random.default_rng(SEED))
    with pytest.raises(AssertionError, match="gradient mismatch on input 0"):
        check_gradients(build, arrays)


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
    worst = check_gradients(iops.conv2d, [x, w, b])
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
