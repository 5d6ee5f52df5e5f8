"""One pass over the pyramid per detection stage, proven bit for bit.

The all-level crop is one ``roi_align_batch`` call and the proposal stage
scores and decodes all levels at once. Both must give the raw bytes of the
earlier one-pass-per-level code (tests/oracles.py) at the default map sizes
of a 96x160 image, where the P2 map is 40 wide, in float32 and float64.
"""

import numpy as np
import pytest

from distilldet import Tensor, backward, nets, roi
from distilldet.autodiff import mul, tsum
from distilldet.boxes import level_anchors
from oracles import (generate_proposals_per_level, interp_operators_level, join_rpn_levels,
                     roi_align_levels_concat)

IMG_H, IMG_W = 96, 160
MAP_SIZES = ((24, 40), (12, 20), (6, 10), (3, 5))
BOX_COUNTS = (1, 2, 3, 7, 16, 31, 32, 50, 64)


def _boxes(rng, n_roi):
    """Boxes over the image and beyond it: about 1 in 10 inverted on an
    axis, some wholly outside, some degenerate."""
    xy = rng.uniform(-30.0, [IMG_W + 10.0, IMG_H + 10.0], size=(n_roi, 2))
    wh = rng.uniform(-8.0, [90.0, 70.0], size=(n_roi, 2))
    boxes = np.concatenate([xy, xy + wh], axis=1)
    boxes[: n_roi // 8] = boxes[: n_roi // 8, [2, 3, 0, 1]]  # inverted on both axes
    return boxes


def _levels(rng, dtype, channels=32):
    return [(rng.normal(size=(channels, h, w)) * 3.0).astype(dtype) for h, w in MAP_SIZES]


def _crop_and_grads(levels, boxes, g, out_size=7, samples=2):
    tensors = [Tensor(f, requires_grad=True) for f in levels]
    out = roi.roi_align_batch(tensors, boxes, roi.PYRAMID_STRIDES, out_size=out_size, samples=samples)
    backward(tsum(mul(out, Tensor(g))))  # hands the crop exactly g
    return out.data, [t.grad for t in tensors]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestOneCallCrop:
    def test_operators_byte_equal_per_level(self, rng, dtype):
        for n_roi in BOX_COUNTS:
            boxes = _boxes(rng, n_roi)
            ops = roi._interp_operators(boxes, roi.PYRAMID_STRIDES, MAP_SIZES, 7, 2, dtype)
            for (ay, ax), stride, (h, w) in zip(ops, roi.PYRAMID_STRIDES, MAP_SIZES):
                want_y, want_x = interp_operators_level(boxes, stride, h, w, 7, 2, dtype)
                assert ay.dtype == ax.dtype == dtype
                assert ay.tobytes() == want_y.tobytes()
                assert ax.tobytes() == want_x.tobytes()

    def test_crop_and_input_gradients_byte_equal(self, rng, dtype):
        for n_roi in BOX_COUNTS:
            levels = _levels(rng, dtype)
            boxes = _boxes(rng, n_roi)
            g = rng.normal(size=(n_roi, 4 * 32, 7, 7)).astype(dtype)
            out, grads = _crop_and_grads(levels, boxes, g)
            want, want_grads = roi_align_levels_concat(levels, boxes, roi.PYRAMID_STRIDES, 7, 2, g)
            assert out.dtype == dtype and out.shape == want.shape
            assert out.tobytes() == want.tobytes(), n_roi
            for f, grad, want_grad in zip(levels, grads, want_grads):
                # The tape accumulates a fresh gradient onto zeros.
                assert grad.tobytes() == (np.zeros_like(f) + want_grad).tobytes(), n_roi

    def test_single_level_crop_and_input_gradients_byte_equal(self, rng, dtype):
        for n_roi in BOX_COUNTS:
            levels = _levels(rng, dtype)
            boxes = _boxes(rng, n_roi)
            box_levels = rng.integers(0, 4, size=n_roi)
            g = rng.normal(size=(n_roi, 32, 7, 7)).astype(dtype)
            tensors = [Tensor(f, requires_grad=True) for f in levels]
            out = roi.roi_align_batch(tensors, boxes, roi.PYRAMID_STRIDES, box_levels=box_levels)
            backward(tsum(mul(out, Tensor(g))))
            assert out.data.dtype == dtype and out.shape == (n_roi, 32, 7, 7)
            for k, (f, t, stride) in enumerate(zip(levels, tensors, roi.PYRAMID_STRIDES)):
                idx = np.flatnonzero(box_levels == k)
                if not len(idx):
                    assert t.grad is None
                    continue
                want, (want_grad,) = roi_align_levels_concat([f], boxes[idx], [stride], 7, 2, g[idx])
                assert out.data[idx].tobytes() == want.tobytes(), n_roi
                assert t.grad.tobytes() == (np.zeros_like(f) + want_grad).tobytes(), n_roi

    def test_other_crop_shapes_byte_equal(self, rng, dtype):
        for out_size, samples in ((1, 1), (3, 3), (5, 1)):
            levels = _levels(rng, dtype, channels=5)
            boxes = _boxes(rng, 9)
            g = rng.normal(size=(9, 4 * 5, out_size, out_size)).astype(dtype)
            out, grads = _crop_and_grads(levels, boxes, g, out_size, samples)
            want, want_grads = roi_align_levels_concat(levels, boxes, roi.PYRAMID_STRIDES,
                                                       out_size, samples, g)
            assert out.tobytes() == want.tobytes()
            for f, grad, want_grad in zip(levels, grads, want_grads):
                assert grad.tobytes() == (np.zeros_like(f) + want_grad).tobytes()

    def test_both_crop_modes_byte_equal(self, rng, dtype):
        levels = _levels(rng, dtype)
        pyr = tuple(Tensor(f[None]) for f in levels)
        boxes = np.abs(_boxes(rng, 40))
        boxes[:, 2:] = boxes[:, :2] + rng.uniform(4.0, 120.0, size=(40, 2))  # assignable boxes
        full = roi.extract_region_batch(pyr, boxes, True).data
        want, _ = roi_align_levels_concat(levels, boxes, roi.PYRAMID_STRIDES, 7, 2)
        assert full.tobytes() == want.tobytes()

        single = roi.extract_region_batch(pyr, boxes, False).data
        assigned = np.array([roi.assign_level(b) - 2 for b in boxes])
        for k in range(4):
            idx = np.where(assigned == k)[0]
            if len(idx):
                want_k, _ = roi_align_levels_concat([levels[k]], boxes[idx],
                                                    [roi.PYRAMID_STRIDES[k]], 7, 2)
                assert single[idx].tobytes() == want_k.tobytes()


def _rpn_out(rng, dtype, delta_scale=0.5):
    out, anchors = [], []
    for lvl, (h, w) in zip((2, 3, 4, 5), MAP_SIZES):
        obj = Tensor((rng.normal(size=(1, h, w)) * 4.0).astype(dtype))
        box = Tensor((rng.normal(size=(4, h, w)) * delta_scale).astype(dtype))
        out.append((obj, box))
        anchors.append(level_anchors(lvl, h, w))
    return out, anchors


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestOnePassProposals:
    @pytest.mark.parametrize("pre_k, post_k, iou", [(200, 32, 0.7), (1000, 1000, 0.5), (5, 3, 0.9)])
    def test_proposals_byte_equal_on_random_rpn_outputs(self, rng, dtype, pre_k, post_k, iou,
                                                        proposal_settings):
        proposal_settings(pre_k, post_k, iou)
        for delta_scale in (0.1, 0.5, 2.0, 6.0):  # large deltas give clipped and degenerate boxes
            rpn_out, anchors = _rpn_out(rng, dtype, delta_scale)
            got = nets.generate_proposals(*join_rpn_levels(rpn_out, anchors), IMG_W, IMG_H)
            want = generate_proposals_per_level(rpn_out, anchors, pre_k, post_k, iou, IMG_W, IMG_H)
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_zero_score_proposals_are_kept(self, rng, dtype):
        rpn_out, anchors = _rpn_out(rng, dtype)
        for obj, _ in rpn_out[:3]:  # sigmoid is exactly 0.0 off P5's 15 locations,
            obj.data[...] = -1000.0   # so most of the 32 kept boxes score 0.0
        got = nets.generate_proposals(*join_rpn_levels(rpn_out, anchors), IMG_W, IMG_H)
        want = generate_proposals_per_level(rpn_out, anchors, 200, 32, 0.7, IMG_W, IMG_H)
        assert got.shape == want.shape == (32, 4) and got.tobytes() == want.tobytes()

    def test_all_degenerate_gives_the_same_empty_array(self, rng, dtype):
        rpn_out, anchors = _rpn_out(rng, dtype)
        for _, box in rpn_out:
            box.data[...] = 50.0  # every box lands far outside the image
        got = nets.generate_proposals(*join_rpn_levels(rpn_out, anchors), IMG_W, IMG_H)
        want = generate_proposals_per_level(rpn_out, anchors, 200, 32, 0.7, IMG_W, IMG_H)
        assert got.shape == want.shape == (0, 4) and got.tobytes() == want.tobytes()
