"""Bit-for-bit equality of conv2d and maxpool2x2 with their original
implementations (oracles.conv2d_im2col, oracles.maxpool2x2_argmax).

Tolerance-based checks against the loop references live in
test_oracle_equivalence.py; these compare raw bytes of the forward output
and of every gradient, so a rewrite that reorders a sum or flips the sign
of a zero fails here.
"""

import numpy as np
import pytest

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
    if pointwise:
        kh = kw = stride = 1
        pad = 0
    else:
        kh, kw = (int(v) for v in rng.choice([1, 3, 5], size=2))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
    n, c, k = int(rng.integers(1, 3)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
    # positive spatial sizes that leave (H + 2*pad - kh) divisible by stride
    h = kh - 2 * pad + stride * int(rng.integers(2, 7))
    w = kw - 2 * pad + stride * int(rng.integers(2, 7))
    return n, c, k, kh, kw, h, w, stride, pad


@pytest.mark.parametrize("with_bias", [True, False])
def test_conv2d_matches_im2col_bitwise(with_bias):
    rng = np.random.default_rng(20190920)
    for i in range(N_INSTANCES):
        # the first instances take the 1x1 matmul path, the rest mostly im2col
        n, c, k, kh, kw, h, w, stride, pad = _conv_case(rng, pointwise=i < 8)
        x = _with_signed_zeros(rng, (n, c, h, w))
        wt = rng.normal(size=(k, c, kh, kw))
        b = rng.normal(size=k) if with_bias else None
        ho = (h + 2 * pad - kh) // stride + 1
        wo = (w + 2 * pad - kw) // stride + 1
        g = rng.normal(size=(n, k, ho, wo))

        inputs = [x, wt] + ([b] if with_bias else [])
        got, grads = _run(lambda *t: conv2d(t[0], t[1], t[2] if with_bias else None,
                                            stride=stride, pad=pad), inputs, g)
        want, gx, gw, gb = conv2d_im2col(x, wt, b, g, stride=stride, pad=pad)
        case = (n, c, k, kh, kw, h, w, stride, pad)
        assert got.tobytes() == want.tobytes(), case
        assert grads[0].tobytes() == _stored(gx).tobytes(), case
        assert grads[1].tobytes() == _stored(gw).tobytes(), case
        if with_bias:
            assert grads[2].tobytes() == _stored(gb).tobytes(), case


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
