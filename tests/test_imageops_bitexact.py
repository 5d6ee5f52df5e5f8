"""Bit-for-bit equality of conv2d and maxpool2x2 with their original
implementations (oracles.conv2d_im2col, oracles.maxpool2x2_argmax).

Tolerance-based checks against the loop references live in
test_oracle_equivalence.py; these compare raw bytes of the forward output
and of every gradient, so a rewrite that reorders a sum or flips the sign
of a zero fails here.
"""

import numpy as np

from distilldet import Tensor
from distilldet.autodiff import backward, mul, tsum
from distilldet.imageops import conv2d, maxpool2x2
from oracles import conv2d_im2col, maxpool2x2_argmax

N_INSTANCES = 60


def _stored(g):
    """What accumulation keeps for a first contribution g: it adds g to a
    zero buffer, which turns -0.0 into 0.0."""
    return np.zeros_like(g) + g


def _with_signed_zeros(rng, shape):
    """Normal values with about a tenth replaced by 0.0 and -0.0."""
    a = rng.normal(size=shape)
    a[rng.random(shape) < 0.05] = 0.0
    a[rng.random(shape) < 0.05] = -0.0
    return a


def _run(op, inputs, upstream):
    """Forward op on fresh grad-requiring tensors, then backprop upstream."""
    ts = [Tensor(a, requires_grad=True) for a in inputs]
    out = op(*ts)
    backward(tsum(mul(out, Tensor(upstream))))
    return out.data, [t.grad for t in ts]


def _conv_case(rng, pointwise):
    ks = 1 if pointwise else int(rng.choice([1, 3, 5]))
    n, c, k = int(rng.integers(1, 3)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
    h, w = (int(v) for v in rng.integers(1, 7, size=2))
    return n, c, k, ks, h, w


def _check_conv_bitwise(rng, n, c, k, ks, h, w):
    """conv2d's output and every gradient against the im2col reference at
    pad ks // 2, bytewise."""
    x = _with_signed_zeros(rng, (n, c, h, w))
    wt = rng.normal(size=(k, c, ks, ks))
    b = rng.normal(size=k)
    g = rng.normal(size=(n, k, h, w))
    got, grads = _run(conv2d, [x, wt, b], g)
    want, gx, gw, gb = conv2d_im2col(x, wt, b, g, pad=ks // 2)
    case = (n, c, k, ks, h, w)
    assert got.tobytes() == want.tobytes(), case
    for got_grad, want_grad in zip(grads, (gx, gw, gb), strict=True):
        assert got_grad.tobytes() == _stored(want_grad).tobytes(), case


def test_conv2d_matches_im2col_bitwise():
    rng = np.random.default_rng(20190920)
    for i in range(N_INSTANCES):
        # the first instances take the 1x1 matmul path, the rest mostly im2col
        _check_conv_bitwise(rng, *_conv_case(rng, pointwise=i < 8))


def _tap_in_padding(ks, size):
    """Whether some kernel offset of side ks, at pad ks // 2, reads only
    padding at every position along an input side of length size."""
    pad = ks // 2
    return any(all(not 0 <= i - pad + t < size for t in range(size)) for i in range(ks))


def test_conv2d_with_pad_2_matches_im2col_bitwise():
    # Small maps under 5x5 kernels, at pad 2: some taps read nothing but
    # padding, so the backward skips them. On a 1-pixel-high map the top
    # and bottom two rows of a 5x5 kernel do.
    rng = np.random.default_rng(20190921)
    assert _tap_in_padding(5, 1)
    _check_conv_bitwise(rng, 1, 2, 3, 5, 1, 6)
    skipped = 0
    for _ in range(N_INSTANCES):
        n, c, k = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = (int(v) for v in rng.integers(1, 5, size=2))
        skipped += _tap_in_padding(5, h) or _tap_in_padding(5, w)
        _check_conv_bitwise(rng, n, c, k, 5, h, w)
    assert skipped >= 10


def test_maxpool2x2_matches_argmax_bitwise_with_ties_and_signed_zeros():
    rng = np.random.default_rng(1909)
    values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0])
    for _ in range(N_INSTANCES):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        h, w = 2 * int(rng.integers(1, 6)), 2 * int(rng.integers(1, 9))
        x = values[rng.integers(0, len(values), size=(n, c, h, w))]
        g = rng.normal(size=(n, c, h // 2, w // 2))
        got, (gx_got,) = _run(maxpool2x2, [x], g)
        want, gx = maxpool2x2_argmax(x, g)
        assert got.tobytes() == want.tobytes(), (n, c, h, w)
        assert gx_got.tobytes() == _stored(gx).tobytes(), (n, c, h, w)


def test_maxpool2x2_signed_zero_tie_keeps_first_element():
    # window (row-major): -0.0, 0.0, -0.0, 0.0 -> the first, -0.0, wins
    x = np.array([[[[-0.0, 0.0], [-0.0, 0.0]]]])
    out, (gx,) = _run(maxpool2x2, [x], np.array([[[[5.0]]]]))
    assert np.signbit(out[0, 0, 0, 0])
    np.testing.assert_array_equal(gx[0, 0], [[5.0, 0.0], [0.0, 0.0]])
