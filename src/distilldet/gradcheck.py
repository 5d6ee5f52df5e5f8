"""Central finite-difference verification of analytic gradients.

Each check builds a scalar probe loss sum(op(inputs) * R) with a fixed random
projection R, differentiates it analytically, then perturbs every input
element by +/- ``EPS`` and compares; a relative error past ``TOL`` fails.
Both sides run in float64, whatever the detector's compute dtype, so
EPS-sized steps are resolved. ``op_checks`` draws its random inputs from a
generator seeded with ``SEED``. Kinked ops (relu, maxpool, smooth-L1) are
sampled away from their kinks so the numeric derivative is well defined.
"""

from __future__ import annotations

import time

import numpy as np

from . import autodiff as ad
from . import imageops as iops
from . import roi
from .autodiff import Tensor, backward

# Central-difference step.
EPS = 1e-5
# Worst relative error a check accepts.
TOL = 1e-4
# Seed of op_checks' random inputs.
SEED = 1234


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


def op_checks(instances: int = 20):
    """(name, worst_rel_err) for every differentiable op, as a list; fails fast.

    Covers conv2d, linear, roi_align_batch in both crop modes, relu,
    maxpool2x2, concat, cross-entropy, bce, smooth-L1, squared error, upsample,
    reshape/transpose, the scatter ops, add and mul. Each op is checked on
    ``instances`` random inputs; ValueError when that is below 1, since a
    check of no input would report a worst error of 0.
    """
    if instances < 1:
        raise ValueError(f"gradient checks need at least 1 instance per op, got {instances}")
    rng = np.random.default_rng(SEED)
    results = []

    def run(name, case_fn):
        worst = 0.0
        for i in range(instances):
            worst = max(worst, case_fn(i))
        results.append((name, worst))

    def conv_case(i):
        n, c, k = rng.integers(1, 3), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        kh = int(rng.choice([1, 3]))
        h = int(rng.integers(kh, kh + 5))
        x = rng.normal(size=(int(n), c, h, h))
        wt = rng.normal(size=(k, c, kh, kh))
        b = rng.normal(size=(k,))
        return check_gradients(iops.conv2d, [x, wt, b], seed=i)

    run("conv2d", conv_case)

    def linear_case(i):
        n, d, m = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
        return check_gradients(
            ad.linear,
            [rng.normal(size=(n, d)), rng.normal(size=(d, m)), rng.normal(size=(m,))],
            seed=i,
        )

    run("linear", linear_case)

    def roi_align_case(i):
        c, h, w = int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
        stride = float(rng.choice([1.0, 2.0, 4.0]))
        lo = rng.uniform(-0.5, [w, h], size=(2, 2)) * stride
        boxes = np.hstack([lo, lo + rng.uniform(0.5, [w, h], size=(2, 2)) * stride])
        return check_gradients(
            lambda f: roi.roi_align_batch([f], boxes, [stride], out_size=3),
            [rng.normal(size=(c, h, w))], seed=i,
        )

    run("roi_align_batch", roi_align_case)

    run("relu", lambda i: check_gradients(
        ad.relu, [_away_from(rng, (int(rng.integers(2, 6)), int(rng.integers(2, 6))), [0.0])], seed=i
    ))

    run("maxpool2x2", lambda i: check_gradients(
        iops.maxpool2x2, [_distinct(rng, (1, int(rng.integers(1, 3)), 4, 6))], seed=i
    ))

    run("concat", lambda i: check_gradients(
        lambda a, b: ad.concat([a, b], axis=0),
        [rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 3, 4))], seed=i,
    ))

    def ce_case(i):
        n, k = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        labels = rng.integers(0, k, size=n)
        return check_gradients(
            lambda t: ad.softmax_cross_entropy(t, labels), [rng.normal(size=(n, k))], seed=i
        )

    run("softmax_cross_entropy", ce_case)

    def bce_case(i):
        n = int(rng.integers(1, 8))
        targets = rng.integers(0, 2, size=n).astype(float)
        return check_gradients(
            lambda t: ad.bce_with_logits(t, targets), [rng.normal(size=(n,))], seed=i
        )

    run("bce_with_logits", bce_case)

    def sl1_case(i):
        shape = (int(rng.integers(1, 4)), 4)
        p = _away_from(rng, shape, [0.0])
        t = np.zeros(shape)
        # keep |p - t| away from the quadratic/linear switch at 1
        d = p - t
        near = np.abs(np.abs(d) - 1.0) < 5e-2
        p[near] += np.sign(d[near]) * 0.1
        return check_gradients(lambda x: ad.smooth_l1(x, t), [p], seed=i)

    run("smooth_l1", sl1_case)

    run("upsample2x", lambda i: check_gradients(
        iops.upsample2x, [rng.normal(size=(1, 2, 3, 4))], seed=i
    ))

    run("reshape", lambda i: check_gradients(
        lambda t: ad.reshape(t, (6, 2)), [rng.normal(size=(3, 4))], seed=i
    ))

    run("transpose", lambda i: check_gradients(
        lambda t: ad.transpose(t, (1, 0, 2)), [rng.normal(size=(2, 3, 4))], seed=i
    ))

    run("take", lambda i: check_gradients(
        lambda t: ad.take(t, [0, 2, 2, 1]), [rng.normal(size=(4, 3))], seed=i
    ))

    run("add", lambda i: check_gradients(
        lambda a, b: ad.add(a, b), [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))], seed=i
    ))

    run("mul", lambda i: check_gradients(
        lambda a, b: ad.mul(a, b), [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))], seed=i
    ))

    def roi_align_single_level_case(i):
        c, h, w = int(rng.integers(1, 4)), int(rng.integers(4, 8)), int(rng.integers(4, 8))
        lo = rng.uniform(-0.5, [w, h], size=(3, 2))
        boxes = np.hstack([lo, lo + rng.uniform(0.5, [w, h], size=(3, 2))])
        box_levels = rng.integers(0, 3, size=3)  # a level may have no box
        return check_gradients(
            lambda *fs: roi.roi_align_batch(fs, boxes, [1.0, 2.0, 4.0], out_size=3, box_levels=box_levels),
            [rng.normal(size=(c, h // k, w // k)) for k in (1, 2, 4)], seed=i,
        )

    run("roi_align_batch_single_level", roi_align_single_level_case)

    def sq_error_case(i):
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        t = rng.normal(size=shape)
        return check_gradients(lambda x: ad.sq_error_sum(x, t), [rng.normal(size=shape)], seed=i)

    run("sq_error_sum", sq_error_case)

    return results


def run_suite(instances: int = 20) -> bool:
    """Run all op checks and print each op's worst error, or the first
    failure; True when every check passes."""
    t0 = time.perf_counter()
    try:
        results = op_checks(instances=instances)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return False
    elapsed = time.perf_counter() - t0
    for name, worst in results:
        print(f"  {name:<24s} worst rel err {worst:.3e}")
    print(f"gradient suite: {len(results)} ops x {instances} instances in {elapsed:.1f}s")
    return True
