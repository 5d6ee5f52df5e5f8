"""Region cropping: level assignment, the batched croppers on [R,4] box
arrays in single-level and all-level mode, and the box-wise GEMM crop
against the earlier per-channel crop."""

import numpy as np
import pytest

from distilldet import ShapeError, Tape, Tensor, backward, roi
from distilldet.autodiff import mul, tsum
from oracles import interp_matrix_mean, roi_align_loops, roi_align_per_channel


def _pyramid(rng, d=4, h=32, w=48, requires_grad=False):
    levels = [
        Tensor(rng.normal(size=(d, h // f, w // f)), requires_grad=requires_grad)
        for f in (1, 2, 4, 8)
    ]
    return tuple(levels)


def _boxes(*rows):
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


class TestAssignLevel:
    def test_canonical_area_goes_to_level_four(self):
        assert roi.assign_level((0, 0, 56, 56)) == 4

    def test_sixteenth_canonical_area_two_levels_down(self):
        # area 56^2/16 -> sqrt is 14 -> log2(14/56) = -2
        assert roi.assign_level(_boxes((0, 0, 14, 14))[0]) == 2

    def test_random_rois_always_clamped(self, rng):
        for _ in range(1000):
            x1, y1 = rng.uniform(0, 50, size=2)
            box = (x1, y1, x1 + rng.uniform(0.5, 400), y1 + rng.uniform(0.5, 400))
            assert 2 <= roi.assign_level(box) <= 5

    def test_degenerate_roi_rejected(self):
        with pytest.raises(ValueError):
            roi.assign_level((5, 5, 5, 9))


class TestRoiAlign:
    """roi_align_batch on one-row box arrays."""

    def test_constant_map_yields_constant(self):
        f = Tensor(np.full((3, 8, 8), 2.5))
        out = roi.roi_align_batch([f], _boxes((1.3, 2.7, 6.1, 7.9)), [1.0])
        assert out.shape == (1, 3, 7, 7)
        assert np.allclose(out.data, 2.5, atol=1e-12)

    def test_aligned_integer_box_single_sample_reads_centers(self, rng):
        f = Tensor(rng.normal(size=(2, 8, 8)))
        # box [1,1]..[5,5] over a 2x2 grid with one center sample per bin:
        # samples land at 2.0/4.0 exactly
        out = roi.roi_align_batch([f], _boxes((1.0, 1.0, 5.0, 5.0)), [1.0], out_size=2, samples=1)
        expect = f.data[:, 2::2, 2::2][:, :2, :2]
        assert np.allclose(out.data[0], expect, atol=1e-12)

    def test_degenerate_box_clamps_to_min_extent(self):
        f = Tensor(np.arange(32.0).reshape(2, 4, 4))
        out = roi.roi_align_batch([f], _boxes((2.0, 2.0, 2.0 + 1e-9, 3.0)), [1.0], out_size=2)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("out_size, samples", [(0, 2), (7, 0), (-1, 2), (7, -3)])
    def test_out_size_or_samples_below_one_rejected(self, out_size, samples):
        f = Tensor(np.ones((2, 8, 8)))
        with pytest.raises(ShapeError):
            roi.roi_align_batch([f], _boxes((1.0, 1.0, 5.0, 5.0)), [1.0], out_size=out_size, samples=samples)

    @pytest.mark.parametrize("n_levels, strides", [(1, []), (1, [1.0, 2.0]), (2, [1.0]), (0, [])])
    def test_one_stride_per_level_required(self, n_levels, strides):
        levels = [Tensor(np.ones((2, 8, 8)))] * n_levels
        with pytest.raises(ShapeError):
            roi.roi_align_batch(levels, _boxes((1.0, 1.0, 5.0, 5.0)), strides)

    def test_stride_maps_image_coords(self, rng):
        f = rng.normal(size=(1, 8, 8))
        a = roi.roi_align_batch([Tensor(f)], _boxes((8.0, 8.0, 24.0, 24.0)), [4.0], out_size=2)
        b = roi.roi_align_batch([Tensor(f)], _boxes((2.0, 2.0, 6.0, 6.0)), [1.0], out_size=2)
        assert np.allclose(a.data, b.data, atol=1e-14)


class TestPyramidRoiAlign:
    """extract_region_batch in all-level mode on one box."""

    def test_single_nonzero_level_fills_its_channel_block(self, rng):
        d = 3
        levels = [Tensor(np.zeros((d, 16 // f, 16 // f))) for f in (1, 2, 4, 8)]
        levels[1] = Tensor(np.abs(rng.normal(size=(d, 8, 8))) + 1.0)  # P3
        pyr = tuple(levels)
        out = roi.extract_region_batch(pyr, _boxes((4.0, 4.0, 40.0, 40.0)), True, out_size=3)
        assert out.shape == (1, 4 * d, 3, 3)
        assert np.all(out.data[0, :d] == 0)
        assert np.all(out.data[0, d : 2 * d] > 0)
        assert np.all(out.data[0, 2 * d :] == 0)

    def test_constant_pyramid_stays_constant(self):
        levels = [Tensor(np.full((2, 16 // f, 16 // f), 1.25)) for f in (1, 2, 4, 8)]
        out = roi.extract_region_batch(tuple(levels), _boxes((1.0, 1.0, 30.0, 30.0)), True)
        assert np.allclose(out.data, 1.25, atol=1e-12)

    def test_matches_stacked_single_level_calls(self, rng):
        pyr = _pyramid(rng)
        box = _boxes((3.0, 5.0, 30.0, 28.0))
        out = roi.extract_region_batch(pyr, box, True, out_size=4)
        for i, (level, stride) in enumerate(zip(pyr, roi.PYRAMID_STRIDES)):
            single = roi.roi_align_batch([level], box, [stride], out_size=4)
            assert np.allclose(out.data[0, i * 4 : (i + 1) * 4], single.data[0], rtol=0, atol=1e-12)

    def test_channel_block_isolation_under_perturbation(self, rng):
        box = _boxes((2.0, 2.0, 28.0, 30.0))
        base = _pyramid(rng)
        out0 = roi.extract_region_batch(base, box, True, out_size=3).data
        for k in range(4):
            bumped = list(base)
            bumped[k] = Tensor(bumped[k].data + rng.normal(size=bumped[k].shape))
            out1 = roi.extract_region_batch(tuple(bumped), box, True, out_size=3).data
            d = 4
            changed = np.abs(out1 - out0).reshape(4, d, 3, 3).sum(axis=(1, 2, 3))
            assert changed[k] > 0
            for other in range(4):
                if other != k:
                    assert changed[other] == 0.0

    def test_single_level_path_consistent_with_pyramid_block(self, rng):
        pyr = _pyramid(rng)
        box = _boxes((4.0, 6.0, 18.0, 19.0))  # sqrt area ~ 13 -> level 2
        level = roi.assign_level(box[0])
        single = roi.extract_region_batch(pyr, box, False, out_size=5)
        full = roi.extract_region_batch(pyr, box, True, out_size=5)
        i = level - 2
        assert np.allclose(full.data[0, i * 4 : (i + 1) * 4], single.data[0], rtol=0, atol=1e-12)


class TestExtractRegionBatch:
    def test_pyramid_mode_matches_per_roi(self, rng):
        pyr = _pyramid(rng)
        boxes = _boxes((1.0, 2.0, 20.0, 30.0), (5.0, 5.0, 45.0, 31.0))
        batch = roi.extract_region_batch(pyr, boxes, True, out_size=4)
        for i, b in enumerate(boxes):
            for k, (level, stride) in enumerate(zip(pyr, roi.PYRAMID_STRIDES)):
                want = roi_align_loops(level.data, b, stride, 4, 2)
                assert np.allclose(batch.data[i, k * 4 : (k + 1) * 4], want, rtol=0, atol=1e-12)

    def test_single_mode_restores_input_order(self, rng):
        pyr = _pyramid(rng)
        boxes = _boxes(
            (0.0, 0.0, 100.0, 90.0),   # level 4
            (2.0, 2.0, 16.0, 15.0),    # level 2
            (1.0, 1.0, 99.0, 88.0),    # level 4
            (3.0, 4.0, 17.0, 18.0),    # level 2
        )
        batch = roi.extract_region_batch(pyr, boxes, False, out_size=3)
        levels = list(pyr)
        for i, b in enumerate(boxes):
            k = roi.assign_level(b) - 2
            want = roi_align_loops(levels[k].data, b, roi.PYRAMID_STRIDES[k], 3, 2)
            assert np.allclose(batch.data[i], want, rtol=0, atol=1e-12)

    def test_gradient_reaches_only_assigned_level_in_single_mode(self, rng):
        pyr = _pyramid(rng, requires_grad=True)
        boxes = _boxes((2.0, 2.0, 16.0, 15.0))  # level 2
        out = roi.extract_region_batch(pyr, boxes, False, out_size=3)
        backward(tsum(out))
        levels = list(pyr)
        assert levels[0].grad is not None and np.abs(levels[0].grad).sum() > 0
        for lvl in levels[1:]:
            assert lvl.grad is None

    def test_single_mode_over_two_levels_is_one_graph_op(self, rng):
        pyr = _pyramid(rng, requires_grad=True)
        boxes = _boxes((0.0, 0.0, 100.0, 90.0), (2.0, 2.0, 16.0, 15.0), (1.0, 1.0, 99.0, 88.0))
        assert [roi.assign_level(b) for b in boxes] == [4, 2, 4]
        out = roi.extract_region_batch(pyr, boxes, False, out_size=3)
        assert len(Tape(out)) == 1
        assert out._parents == (pyr[0], pyr[2])  # a level no box names is no parent

    def test_single_mode_on_batched_maps_leaves_levels_without_boxes_alone(self, rng):
        pyr = tuple(Tensor(level.data[None], requires_grad=True) for level in _pyramid(rng))
        boxes = _boxes((0.0, 0.0, 100.0, 90.0), (2.0, 2.0, 16.0, 15.0))  # levels 4 and 2
        backward(tsum(roi.extract_region_batch(pyr, boxes, False, out_size=3)))
        assert np.abs(pyr[0].grad).sum() > 0 and np.abs(pyr[2].grad).sum() > 0
        assert pyr[1].grad is None and pyr[3].grad is None

    @pytest.mark.parametrize("use_pyramid", [True, False])
    def test_empty_box_array_rejected(self, rng, use_pyramid):
        with pytest.raises(ShapeError):
            roi.extract_region_batch(_pyramid(rng), np.zeros((0, 4)), use_pyramid)


class TestBoxLevels:
    """roi_align_batch's single-level mode takes one level index per box."""

    @pytest.mark.parametrize("bad", [[0], [0, 1, 2], [0, 4], [-1, 0], [[0, 1]]])
    def test_box_levels_must_name_one_level_per_box(self, rng, bad):
        with pytest.raises(ShapeError, match="box_levels"):
            roi.roi_align_batch(_pyramid(rng), _boxes((1, 1, 9, 9), (2, 2, 12, 12)),
                                roi.PYRAMID_STRIDES, box_levels=bad)

    def test_levels_of_unequal_width_rejected(self, rng):
        levels = [Tensor(rng.normal(size=(c, 8, 8))) for c in (4, 5)]
        with pytest.raises(ShapeError, match="equal width"):
            roi.roi_align_batch(levels, _boxes((1, 1, 9, 9), (2, 2, 12, 12)), [4, 8], box_levels=[0, 1])


class TestCropPlan:
    """One plan crops its boxes from every pyramid of the maps' sizes and
    dtype, and only from those."""

    @pytest.mark.parametrize("use_pyramid", [True, False])
    def test_a_plan_crops_another_pyramid_as_a_fresh_crop_does(self, rng, use_pyramid):
        boxes = _boxes((0.0, 0.0, 100.0, 90.0), (2.0, 2.0, 16.0, 15.0), (3.0, 4.0, 40.0, 30.0))
        plan = roi.region_plan(_pyramid(rng), boxes, use_pyramid, out_size=3)
        other = _pyramid(rng)
        got = roi.extract_region_batch(other, boxes, use_pyramid, out_size=3, plan=plan)
        assert got.data.tobytes() == roi.extract_region_batch(other, boxes, use_pyramid, out_size=3).data.tobytes()

    def test_a_plan_for_other_maps_boxes_or_mode_is_refused(self, rng):
        boxes = _boxes((0.0, 0.0, 100.0, 90.0), (2.0, 2.0, 16.0, 15.0))
        pyr = _pyramid(rng)
        plan = roi.region_plan(pyr, boxes, True, out_size=3)
        with pytest.raises(ShapeError, match="does not fit"):
            roi.extract_region_batch(_pyramid(rng, h=64), boxes, True, out_size=3, plan=plan)
        with pytest.raises(ShapeError, match="does not fit"):
            roi.extract_region_batch(tuple(Tensor(f.data.astype(np.float32)) for f in pyr), boxes, True,
                                     out_size=3, plan=plan)
        with pytest.raises(ShapeError, match="does not fit"):
            roi.extract_region_batch(pyr, boxes[:1], True, out_size=3, plan=plan)
        with pytest.raises(ValueError, match="does not fit"):
            roi.extract_region_batch(pyr, boxes, False, out_size=3, plan=plan)


def _random_case(rng):
    """A random level, box array and crop shape: R in 1-64, stride 1-32,
    out_size 1-7, samples 1-3, maps down to 1 pixel wide, and boxes that
    may be degenerate, inverted or partly or wholly outside the map."""
    n_roi = int(rng.integers(1, 65))
    c, h, w = int(rng.integers(1, 9)), int(rng.integers(1, 30)), int(rng.integers(1, 30))
    stride = float(rng.choice([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 3.5]))
    xy = rng.uniform(-6.0, max(h, w) + 3.0, size=(n_roi, 2)) * stride
    wh = rng.uniform(-1.0, 20.0, size=(n_roi, 2)) * stride  # about 1 in 20 inverted
    boxes = np.concatenate([xy, xy + wh], axis=1)
    out_size, samples = int(rng.integers(1, 8)), int(rng.integers(1, 4))
    return rng.normal(size=(c, h, w)) * 3.0, boxes, stride, out_size, samples


def _crop_and_grad(f, boxes, stride, out_size, samples, g):
    ft = Tensor(f, requires_grad=True)
    out = roi.roi_align_batch([ft], boxes, [stride], out_size=out_size, samples=samples)
    backward(tsum(mul(out, Tensor(g))))  # hands the crop exactly g
    return out.data, ft.grad


class TestAgainstPerChannelReference:
    """The box-wise GEMM crop against the earlier per-box, per-channel one
    (oracles.roi_align_per_channel): the same operators byte for byte, and
    the same crops and input gradients up to the order of summation."""

    def test_interp_operators_byte_equal(self, rng):
        for _ in range(200):
            f, boxes, stride, out_size, samples = _random_case(rng)
            _, h, w = f.shape
            fw = np.maximum((boxes[:, 2] - boxes[:, 0]) / stride, 1e-6)
            fh = np.maximum((boxes[:, 3] - boxes[:, 1]) / stride, 1e-6)
            for dtype in (np.float64, np.float32):
                (ay, ax), = roi._interp_operators(boxes, [stride], [(h, w)], out_size, samples, dtype)
                want_y = interp_matrix_mean(boxes[:, 1] / stride, fh, h, out_size, samples, dtype)
                want_x = interp_matrix_mean(boxes[:, 0] / stride, fw, w, out_size, samples, dtype)
                assert ay.dtype == ax.dtype == dtype
                assert ay.tobytes() == want_y.tobytes()
                assert ax.tobytes() == want_x.tobytes()

    def test_float64_crop_and_gradient_within_1e_12(self, rng):
        for _ in range(100):
            f, boxes, stride, out_size, samples = _random_case(rng)
            g = rng.normal(size=(len(boxes), f.shape[0], out_size, out_size))
            out, grad = _crop_and_grad(f, boxes, stride, out_size, samples, g)
            want, want_grad = roi_align_per_channel(f, boxes, stride, out_size, samples, g)
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)

    def test_float32_crop_and_gradient_within_a_few_ulps(self, rng):
        """Each float32 value lies within 4 float32 ulps, taken at the size of
        the sum of absolute terms behind it, of the reference's float32 value."""
        for _ in range(100):
            f64, boxes, stride, out_size, samples = _random_case(rng)
            g64 = rng.normal(size=(len(boxes), f64.shape[0], out_size, out_size))
            f, g = f64.astype(np.float32), g64.astype(np.float32)
            out, grad = _crop_and_grad(f, boxes, stride, out_size, samples, g)
            assert out.dtype == grad.dtype == np.float32
            want, want_grad = roi_align_per_channel(f, boxes, stride, out_size, samples, g)
            # The operators are non-negative, so |f| and |g| give each sum's scale.
            scale, _ = roi_align_per_channel(np.abs(f64), boxes, stride, out_size, samples)
            _, grad_scale = roi_align_per_channel(np.abs(f64), boxes, stride, out_size, samples,
                                                  np.abs(g64))
            ulp = np.spacing(scale.astype(np.float32))
            grad_ulp = np.spacing(grad_scale.astype(np.float32))
            assert np.all(np.abs(out.astype(np.float64) - want) <= 4 * ulp)
            assert np.all(np.abs(grad.astype(np.float64) - want_grad) <= 4 * grad_ulp)

    def test_degenerate_and_outside_boxes_match(self, rng):
        f = rng.normal(size=(3, 6, 9))
        boxes = _boxes(
            (2.0, 2.0, 2.0, 2.0),          # a point
            (4.0, 1.0, 4.0, 5.0),          # zero width
            (6.0, 3.0, 1.0, 2.0),          # inverted
            (-40.0, -30.0, -10.0, -5.0),   # wholly above and left
            (50.0, 40.0, 90.0, 70.0),      # wholly below and right
            (-5.0, -5.0, 50.0, 50.0),      # covers the map and more
            (8.0, 0.0, 8.5, 6.0),          # on the last column
        )
        g = rng.normal(size=(len(boxes), 3, 4, 4))
        out, grad = _crop_and_grad(f, boxes, 1.0, 4, 3, g)
        want, want_grad = roi_align_per_channel(f, boxes, 1.0, 4, 3, g)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)
