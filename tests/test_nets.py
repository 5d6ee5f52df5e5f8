"""Detector networks: shapes, configs, proposals, and supervised losses."""

import math
from dataclasses import replace

import numpy as np
import pytest

import distilldet.autodiff as ad
from distilldet import Tensor, backward, nets, roi
from distilldet.boxes import decode_deltas, encode_deltas, iou_matrix, level_anchors
from distilldet.imageops import conv2d
from oracles import detect_tail, iou_scalar, join_rpn_levels


def _per_level(rpn_out, pyr):
    """rpn_forward's joined (logits [A], deltas [A,4]) split back into one
    (obj [1,h,w], box [4,h,w]) pair per level of ``pyr``."""
    logits, deltas = rpn_out
    assert logits.shape == (deltas.shape[0],) and deltas.shape[1] == 4
    out, start = [], 0
    for level in pyr:
        h, w = level.data.shape[-2:]
        stop = start + h * w
        out.append((Tensor(logits.data[start:stop].reshape(1, h, w)),
                    Tensor(deltas.data[start:stop].T.reshape(4, h, w))))
        start = stop
    assert stop == logits.shape[0]
    return out


def _zero_params(cfg, seed=0):
    params = nets.init_params(cfg, seed)
    for t in params.values():
        t.data[:] = 0.0
    return params


class TestConfigs:
    def test_shipped_compression_ratio_at_least_four(self):
        t = nets.init_params(nets.default_teacher_config(), 0)
        s = nets.init_params(nets.default_student_config(), 0)
        assert nets.compression_ratio(t, s) >= 4.0

    def test_teacher_strictly_larger(self):
        t = nets.init_params(nets.default_teacher_config(), 0)
        s = nets.init_params(nets.default_student_config(), 0)
        assert nets.parameter_count(t) > nets.parameter_count(s)

    def test_both_roles_share_the_logit_width(self):
        for cfg in (nets.default_teacher_config(), nets.default_student_config()):
            assert nets.init_params(cfg, 0)["head.fc2.w"].shape == (cfg.head_hidden, nets.LOGIT_WIDTH)

    def test_head_width_depends_on_crop_mode(self):
        py = nets.default_student_config()
        single = replace(py, pyramid_roi=False)
        assert py.head_input_width == 4 * single.head_input_width

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            nets.NetConfig(widths=(1, 2, 3))

    @pytest.mark.parametrize("name", ["pyramid_width", "head_hidden"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_count_below_one_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            nets.NetConfig(**{name: value})
        assert getattr(nets.NetConfig(**{name: 1}), name) == 1


class TestBackbone:
    def test_stride_arithmetic_96x64(self, tiny_student_cfg):
        params = nets.init_params(tiny_student_cfg, 0)
        img = Tensor(np.zeros((1, 3, 96, 64)))
        feats = nets.backbone_forward(img, tiny_student_cfg, params)
        sizes = [tuple(f.data.shape[2:]) for f in feats]
        assert sizes == [(24, 16), (12, 8), (6, 4), (3, 2)]

    def test_zero_input_zero_bias_all_zero(self, tiny_student_cfg):
        params = _zero_params(tiny_student_cfg)
        img = Tensor(np.full((1, 3, 64, 64), 0.5))  # centering removes the 0.5
        feats = nets.backbone_forward(img, tiny_student_cfg, params)
        for f in feats:
            assert np.all(f.data == 0.0)

    def test_indivisible_input_rejected(self, tiny_student_cfg):
        params = nets.init_params(tiny_student_cfg, 0)
        with pytest.raises(Exception):
            nets.backbone_forward(Tensor(np.zeros((1, 3, 60, 64))), tiny_student_cfg, params)


class TestFpn:
    def test_zero_laterals_zero_pyramid(self, tiny_student_cfg, rng):
        params = nets.init_params(tiny_student_cfg, 0)
        for name in list(params):
            if name.startswith("fpn."):
                params[name].data[:] = 0.0
        img = Tensor(rng.uniform(0, 1, size=(1, 3, 64, 64)))
        pyr = nets.fpn_forward(nets.backbone_forward(img, tiny_student_cfg, params), params)
        for level in pyr:
            assert np.all(level.data == 0.0)

    def test_c5_support_propagates_to_every_level(self, tiny_student_cfg):
        cfg = tiny_student_cfg
        params = _zero_params(cfg)
        for name in list(params):
            if name.startswith("fpn.") and name.endswith(".w"):
                params[name].data[:] = 0.1
        d = cfg.pyramid_width
        c5 = Tensor(np.zeros((1, cfg.widths[3], 2, 3)))
        c5.data[0, 0, 1, 1] = 5.0
        feats = (
            Tensor(np.zeros((1, cfg.widths[0], 16, 24))),
            Tensor(np.zeros((1, cfg.widths[1], 8, 12))),
            Tensor(np.zeros((1, cfg.widths[2], 4, 6))),
            c5,
        )
        pyr = nets.fpn_forward(feats, params)
        for level in pyr:
            assert np.abs(level.data).sum() > 0.0

    def test_uniform_width_and_matching_spatial_sizes(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 1)
        img = Tensor(rng.uniform(0, 1, size=(1, 3, 64, 96)))
        feats = nets.backbone_forward(img, cfg, params)
        pyr = nets.fpn_forward(feats, params)
        for level, c in zip(pyr, feats):
            assert level.data.shape[1] == cfg.pyramid_width
            assert level.data.shape[2:] == c.data.shape[2:]


class TestRpn:
    def test_zero_net_gives_zero_logits(self, tiny_student_cfg):
        cfg = tiny_student_cfg
        params = _zero_params(cfg)
        pyr = tuple(Tensor(np.zeros((1, cfg.pyramid_width, 8 // f, 8 // f))) for f in (1, 2, 4, 8))
        out = _per_level(nets.rpn_forward(pyr, params), pyr)
        for obj, _ in out:
            assert np.all(obj.data == 0.0)

    def test_shared_head_identical_features_identical_outputs(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 2)
        same = rng.normal(size=(1, cfg.pyramid_width, 4, 4))
        pyr = (Tensor(same), Tensor(same.copy()),
               Tensor(np.zeros((1, cfg.pyramid_width, 4, 4))),
               Tensor(np.zeros((1, cfg.pyramid_width, 4, 4))))
        out = _per_level(nets.rpn_forward(pyr, params), pyr)
        assert np.array_equal(out[0][0].data, out[1][0].data)
        assert np.array_equal(out[0][1].data, out[1][1].data)

    def test_output_channel_counts(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 2)
        pyr = tuple(Tensor(rng.normal(size=(1, cfg.pyramid_width, 8 // f, 12 // f)))
                    for f in (1, 2, 4, 8))
        for (obj, box), level in zip(_per_level(nets.rpn_forward(pyr, params), pyr), pyr):
            h, w = level.data.shape[2:]
            assert obj.shape == (1, h, w)
            assert box.shape == (4, h, w)

    def test_outputs_join_the_levels_in_anchor_order(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 2)
        pyr = tuple(Tensor(rng.normal(size=(1, cfg.pyramid_width, 8 // f, 12 // f)))
                    for f in (1, 2, 4, 8))
        per_level, anchors = [], []
        for lvl, level in zip((2, 3, 4, 5), pyr):
            t = ad.relu(conv2d(level, params["rpn.conv.w"], params["rpn.conv.b"]))
            h, w = level.data.shape[2:]
            per_level.append((conv2d(t, params["rpn.obj.w"], params["rpn.obj.b"]).reshape((1, h, w)),
                              conv2d(t, params["rpn.box.w"], params["rpn.box.b"]).reshape((4, h, w))))
            anchors.append(level_anchors(lvl, h, w))
        (want_logits, want_deltas), want_anchors = join_rpn_levels(per_level, anchors)
        logits, deltas = nets.rpn_forward(pyr, params)
        assert logits.data.tobytes() == want_logits.data.tobytes()
        assert deltas.shape == want_deltas.shape and deltas.data.tobytes() == want_deltas.data.tobytes()
        assert nets.pyramid_anchors(pyr).tobytes() == want_anchors.tobytes()


class TestRegionCrop:
    def test_a_canonical_size_box_is_cropped_from_level_four(self, tiny_student_cfg, rng):
        pyr = tuple(Tensor(rng.normal(size=(1, tiny_student_cfg.pyramid_width, 64 // s, 96 // s)))
                    for s in roi.PYRAMID_STRIDES)
        box = np.array([[8.0, 4.0, 64.0, 60.0]])  # a 56-px box
        got = roi.extract_region_batch(pyr, box, False)
        want = roi.roi_align_batch([pyr[2]], box, [roi.PYRAMID_STRIDES[2]],
                                   out_size=roi.ROI_SIZE, samples=roi.ROI_SAMPLES)
        assert got.data.tobytes() == want.data.tobytes()


class TestPyramidAnchors:
    def test_grids_are_cached_equal_to_fresh_and_read_only(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        pyr = nets.forward_pyramid(Tensor(rng.uniform(0, 1, size=(1, 3, 64, 96))), cfg,
                                   nets.init_params(cfg, 3))
        first = nets.pyramid_anchors(pyr)
        again = nets.pyramid_anchors(pyr)
        assert first is again
        sizes = [level.data.shape[-2] * level.data.shape[-1] for level in pyr]
        assert first.shape == (sum(sizes), 4)
        for lvl, level, a in zip((2, 3, 4, 5), pyr, np.split(first, np.cumsum(sizes)[:-1])):
            h, w = level.data.shape[-2:]
            fresh = level_anchors(lvl, h, w)
            assert a.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError):
                a[0, 0] = 1.0


class TestProposals:
    def _pyr_and_out(self, cfg, obj_fill, deltas_fill, sizes=((8, 12), (4, 6), (2, 3), (1, 1))):
        out = []
        anchors = []
        for lvl, (h, w) in zip((2, 3, 4, 5), sizes):
            obj = Tensor(np.full((1, h, w), obj_fill))
            box = Tensor(np.full((4, h, w), deltas_fill))
            out.append((obj, box))
            anchors.append(level_anchors(lvl, h, w))
        return out, anchors

    def test_zero_deltas_reproduce_clipped_anchors(self, tiny_student_cfg, proposal_settings):
        proposal_settings(500, 500, 0.99)
        rpn_out, anchors = self._pyr_and_out(tiny_student_cfg, 1.0, 0.0)
        props = nets.generate_proposals(*join_rpn_levels(rpn_out, anchors), img_w=48, img_h=32)
        assert props.ndim == 2 and props.shape[1] == 4 and len(props)
        expect = np.clip(np.concatenate(anchors), [0, 0, 0, 0], [48, 32, 48, 32])
        for p in props:
            dists = np.abs(expect - p).max(axis=1)
            assert dists.min() < 1e-9  # identity decode up to round-off

    def test_identical_boxes_nms_keeps_higher_score(self, proposal_settings):
        # two identical anchors; the second scores higher and is nudged 0.1 px
        # right by its deltas, so the surviving box shows which one NMS kept
        proposal_settings(10, 10, 0.5)
        deltas = np.zeros((2, 4))
        deltas[1, 0] = 0.01
        rpn_out = (Tensor(np.array([1.0, 2.0])), Tensor(deltas))
        anchors = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
        props = nets.generate_proposals(rpn_out, anchors, 20, 20)
        assert props.shape == (1, 4)
        assert np.allclose(props[0], [0.1, 0.0, 10.1, 10.0], atol=1e-12)

    def test_empty_result_is_legal(self, proposal_settings):
        # deltas push every box fully outside the image
        proposal_settings(10, 10, 0.5)
        rpn_out = (Tensor(np.zeros(4)), Tensor(np.full((4, 4), 50.0)))
        anchors = level_anchors(2, 2, 2)
        props = nets.generate_proposals(rpn_out, anchors, 8, 8)
        assert props.shape == (0, 4) and props.dtype == np.float64

    def test_proposals_inside_bounds_and_positive_area(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 3)
        img = Tensor(rng.uniform(0, 1, size=(1, 3, 64, 96)))
        _, _, _, props = nets.propose(img, cfg, params)
        assert len(props)
        for x1, y1, x2, y2 in props:
            assert 0.0 <= x1 < x2 <= 96.0
            assert 0.0 <= y1 < y2 <= 64.0


class TestSampleRois:
    def test_empty_proposals_without_gt_give_empty_batch(self):
        rois, labels, targets = nets.sample_rois(np.zeros((0, 4)), np.zeros((0, 4)),
                                                 np.random.default_rng(0))
        assert rois.shape == (0, 4)
        assert labels.shape == (0,)
        assert targets.shape == (0, 4)

    def test_empty_proposals_with_gt_sample_the_gt_boxes(self):
        gt = np.array([[5.0, 5.0, 25.0, 60.0], [40.0, 2.0, 52.0, 30.0]])
        rois, labels, targets = nets.sample_rois(np.zeros((0, 4)), gt, np.random.default_rng(0))
        assert np.array_equal(rois, gt)
        assert np.array_equal(labels, [1, 1])
        assert np.allclose(targets, 0.0, atol=1e-12)

    def test_candidates_are_proposals_then_gt(self):
        props = np.array([[0.0, 0.0, 8.0, 8.0], [60.0, 60.0, 70.0, 80.0]])
        gt = np.array([[5.0, 5.0, 25.0, 60.0]])
        rois, labels, _ = nets.sample_rois(props, gt, np.random.default_rng(0))
        # one positive (the GT itself) first, then the two negatives in order
        assert np.array_equal(rois, np.concatenate([gt, props]))
        assert np.array_equal(labels, [1, 0, 0])


class TestAssignRpnAnchors:
    """Labels 1 / 0 / -1 and matched GT indices of ``assign_rpn_anchors``;
    the IoUs below are exact in binary floating point."""

    FAR = [100.0, 100.0, 110.0, 110.0]

    def test_ties_for_a_gt_best_iou_all_become_positive(self):
        # both halves-overlapping anchors have IoU 0.5 with the GT, below RPN_POS_IOU
        anchors = np.array([[0.0, 0.0, 10.0, 20.0], [0.0, -10.0, 10.0, 10.0], self.FAR])
        labels, matched = nets.assign_rpn_anchors(anchors, np.array([[0.0, 0.0, 10.0, 10.0]]))
        assert nets.RPN_NEG_IOU < 0.5 < nets.RPN_POS_IOU
        assert labels.tolist() == [1, 1, 0] and matched[:2].tolist() == [0, 0]

    def test_an_anchor_best_for_two_gt_boxes_is_matched_to_the_later_one(self):
        # IoU 100/120 with GT 0 and 0.5 with GT 1: by IoU it matches GT 0,
        # but GT 1's best-anchor pass runs last and takes it
        anchors = np.array([[0.0, 0.0, 10.0, 10.0], self.FAR])
        gts = np.array([[0.0, 0.0, 10.0, 12.0], [0.0, 0.0, 20.0, 10.0]])
        labels, matched = nets.assign_rpn_anchors(anchors, gts)
        assert labels.tolist() == [1, 0] and matched[0] == 1

    def test_an_anchor_between_the_thresholds_that_is_no_gt_best_is_ignored(self):
        anchors = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 20.0], self.FAR])
        labels, matched = nets.assign_rpn_anchors(anchors, np.array([[0.0, 0.0, 10.0, 10.0]]))
        assert labels.tolist() == [1, -1, 0] and matched[0] == 0

    def test_without_gt_every_anchor_is_negative(self):
        anchors = np.array([[0.0, 0.0, 10.0, 10.0], self.FAR])
        labels, matched = nets.assign_rpn_anchors(anchors, np.zeros((0, 4)))
        assert labels.tolist() == [0, 0] and matched.tolist() == [0, 0]


class TestRpnLoss:
    def test_perfect_predictions_near_zero(self, rng):
        anchors = np.array([[0, 0, 10, 24.0], [30, 30, 40, 54.0]])
        gt = anchors[:1].copy()
        obj = Tensor(np.array([20.0, -20.0]))
        box = Tensor(np.zeros((2, 4)))
        loss = nets.rpn_loss((obj, box), anchors, gt, np.random.default_rng(0))
        assert loss.item() < 1e-6

    def test_no_gt_all_negative_logits(self):
        anchors = np.array([[0, 0, 10, 24.0], [30, 30, 40, 54.0]])
        obj = Tensor(np.array([-20.0, -20.0]))
        box = Tensor(np.zeros((2, 4)))
        loss = nets.rpn_loss((obj, box), anchors, np.zeros((0, 4)), np.random.default_rng(0))
        assert loss.item() < 1e-6

    def test_two_anchor_hand_computed_case(self):
        anchors = np.array([[0.0, 0.0, 10.0, 24.0], [60.0, 30.0, 70.0, 54.0]])
        gt = anchors[:1].copy()  # IoU 1 with anchor 0, 0 with anchor 1
        z0, z1 = 2.0, -1.0
        pred_deltas = np.array([0.1, -0.2, 0.05, 0.0])
        obj = Tensor(np.array([z0, z1]))
        box_data = np.zeros((2, 4))
        box_data[0, :] = pred_deltas
        loss = nets.rpn_loss((obj, Tensor(box_data)), anchors, gt, np.random.default_rng(0))
        bce = (math.log1p(math.exp(-z0)) + math.log1p(math.exp(z1))) / 2
        sl1 = 0.5 * float((pred_deltas ** 2).sum())  # targets are zero, |d|<1
        assert abs(loss.item() - (bce + sl1)) < 1e-8

    def test_gradients_flow_to_rpn_inputs(self, rng):
        anchors = np.array([[0, 0, 10, 24.0], [30, 30, 40, 54.0]])
        obj = Tensor(rng.normal(size=(2,)), requires_grad=True)
        box = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        loss = nets.rpn_loss((obj, box), anchors, anchors[:1].copy(), np.random.default_rng(0))
        backward(loss)
        assert obj.grad is not None
        assert box.grad is not None


class TestHead:
    """head_forward_batch on [R,C,S,S] region tensors."""

    def test_zero_region_zero_bias_uniform_softmax(self, tiny_student_cfg):
        cfg = tiny_student_cfg
        params = _zero_params(cfg)
        regions = Tensor(np.zeros((2, 4 * cfg.pyramid_width, roi.ROI_SIZE, roi.ROI_SIZE)))
        logit, cls, box = nets.head_forward_batch(regions, cfg, params)
        assert logit.shape == (2, nets.LOGIT_WIDTH)
        assert np.all(logit.data == 0.0)
        probs = np.exp(cls.data) / np.exp(cls.data).sum(axis=1, keepdims=True)
        assert np.allclose(probs, 0.5)

    def test_width_mismatch_rejected(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 0)
        bad = Tensor(rng.normal(size=(1, 3, roi.ROI_SIZE, roi.ROI_SIZE)))
        with pytest.raises(Exception):
            nets.head_forward_batch(bad, cfg, params)

    def test_matches_linear_relu_composition(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 5)
        regions = rng.normal(size=(3, 4 * cfg.pyramid_width, roi.ROI_SIZE, roi.ROI_SIZE))
        logit, cls, box = nets.head_forward_batch(Tensor(regions), cfg, params)
        x = regions.reshape(3, -1)
        h1 = np.maximum(x @ params["head.fc1.w"].data + params["head.fc1.b"].data, 0)
        h2 = np.maximum(h1 @ params["head.fc2.w"].data + params["head.fc2.b"].data, 0)
        assert np.allclose(logit.data, h2, atol=1e-12)
        assert np.allclose(cls.data, h2 @ params["head.cls.w"].data + params["head.cls.b"].data, atol=1e-12)
        assert np.allclose(box.data, h2 @ params["head.box.w"].data + params["head.box.b"].data, atol=1e-12)


class TestDetectionLoss:
    def test_perfect_predictions(self):
        cls = Tensor(np.array([[20.0, -20.0], [-20.0, 20.0]]))
        deltas = Tensor(np.array([[0, 0, 0, 0], [0.3, -0.1, 0.05, 0.2]]))
        labels = np.array([0, 1])
        targets = np.array([[0, 0, 0, 0], [0.3, -0.1, 0.05, 0.2]])
        assert nets.detection_loss(cls, deltas, labels, targets).item() < 1e-6

    def test_smooth_l1_half_per_coordinate(self):
        cls = Tensor(np.array([[20.0, -20.0], [-20.0, 20.0]]))
        deltas = Tensor(np.array([[0.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]]))
        labels = np.array([0, 1])
        targets = np.zeros((2, 4))
        # one positive: sum of four 0.125 terms
        assert abs(nets.detection_loss(cls, deltas, labels, targets).item() - 0.5) < 1e-6

    def test_random_batch_vs_scalar_loop(self, rng):
        n = 6
        cls_z = rng.normal(size=(n, 2))
        deltas = rng.normal(size=(n, 4)) * 0.6
        labels = rng.integers(0, 2, size=n)
        targets = rng.normal(size=(n, 4)) * 0.4
        got = nets.detection_loss(Tensor(cls_z), Tensor(deltas), labels, targets).item()

        ce = 0.0
        for i in range(n):
            m = max(cls_z[i])
            lse = m + math.log(sum(math.exp(v - m) for v in cls_z[i]))
            ce += lse - cls_z[i][labels[i]]
        ce /= n
        reg, npos = 0.0, 0
        for i in range(n):
            if labels[i] == 1:
                npos += 1
                for j in range(4):
                    d = deltas[i, j] - targets[i, j]
                    reg += 0.5 * d * d if abs(d) < 1 else abs(d) - 0.5
        want = ce + (reg / npos if npos else 0.0)
        assert abs(got - want) < 1e-10

    def test_no_positive_rois_classification_only(self, rng):
        cls_z = rng.normal(size=(3, 2))
        got = nets.detection_loss(Tensor(cls_z), Tensor(np.zeros((3, 4))),
                                  np.zeros(3, dtype=int), np.zeros((3, 4))).item()
        ce = 0.0
        for i in range(3):
            m = max(cls_z[i])
            ce += m + math.log(sum(math.exp(v - m) for v in cls_z[i])) - cls_z[i][0]
        assert abs(got - ce / 3) < 1e-12


class TestBoxCodec:
    def test_encode_decode_roundtrip(self, rng):
        boxes = np.array([[5, 5, 25, 60.0], [0, 0, 10, 24.0]])
        targets = np.array([[7, 8, 24, 55.0], [1, 2, 12, 30.0]])
        back = decode_deltas(boxes, encode_deltas(boxes, targets))
        assert np.allclose(back, targets, atol=1e-9)

    def test_iou_matrix_vs_scalar(self, rng):
        a = rng.uniform(0, 40, size=(6, 2))
        boxes_a = np.hstack([a, a + rng.uniform(1, 30, size=(6, 2))])
        b = rng.uniform(0, 40, size=(5, 2))
        boxes_b = np.hstack([b, b + rng.uniform(1, 30, size=(5, 2))])
        m = iou_matrix(boxes_a, boxes_b)
        for i in range(6):
            for j in range(5):
                assert abs(m[i, j] - iou_scalar(boxes_a[i], boxes_b[j])) < 1e-12


def test_detect_with_trainable_params_records_no_graph(monkeypatch, tiny_student_cfg, tiny_scenes):
    params = nets.init_params(tiny_student_cfg, seed=0)
    assert all(p.requires_grad for p in params.values())
    scene = tiny_scenes[1][0]
    image4 = scene.image.reshape((1, *scene.image.shape))
    made = []
    real_from_op = Tensor._from_op.__func__

    def from_op(cls, data, parents, rule):
        made.append(real_from_op(cls, data, parents, rule))
        return made[-1]

    monkeypatch.setattr(Tensor, "_from_op", classmethod(from_op))
    dets = nets.detect(image4, tiny_student_cfg, params)
    assert made and not any(t.requires_grad or t._backward is not None for t in made)
    assert dets and dets == nets.detect(image4, tiny_student_cfg, {k: p.detach() for k, p in params.items()})


def _det_bytes(dets):
    return np.array([[d.x1, d.y1, d.x2, d.y2, d.score] for d in dets], dtype="<f8").tobytes()


class TestDetectSelection:
    """``detect``'s selection, shared with the proposal stage, gives the
    bytes of the earlier detect tail (``oracles.detect_tail``)."""

    def _tail(self, image4, proposals, cls, box):
        h, w = image4.data.shape[2:]
        return detect_tail(proposals, cls, box, w, h, nets.DET_SCORE_THRESH, nets.DET_NMS_IOU)

    def _detect_on(self, monkeypatch, image4, proposals, cls, box):
        """``detect`` with its proposals and head outputs replaced."""
        monkeypatch.setattr(nets, "propose", lambda *args: (None, None, None, proposals))
        monkeypatch.setattr(roi, "extract_region_batch", lambda *args: None)
        monkeypatch.setattr(nets, "head_forward_batch",
                            lambda *args: (None, Tensor(cls), Tensor(box)))
        return nets.detect(image4, nets.NetConfig(), {})

    @pytest.mark.parametrize("pyramid_roi", [True, False])
    def test_tiny_nets_on_tiny_scenes(self, tiny_student_cfg, tiny_teacher_cfg, tiny_scenes,
                                      pyramid_roi):
        for cfg in (tiny_student_cfg, tiny_teacher_cfg):
            cfg = replace(cfg, pyramid_roi=pyramid_roi)
            for seed in (0, 1):
                params = nets.init_params(cfg, seed)
                for scene in tiny_scenes[1]:
                    image4 = scene.image.reshape((1, *scene.image.shape))
                    pyr, _, _, proposals = nets.propose(image4, cfg, params)
                    regions = roi.extract_region_batch(pyr, proposals, cfg.pyramid_roi)
                    _, cls, box = nets.head_forward_batch(regions, cfg, params)
                    want = self._tail(image4, proposals, cls.data, box.data)
                    got = nets.detect(image4, cfg, params)
                    assert want and _det_bytes(got) == _det_bytes(want)

    def test_random_boxes_with_ties_zero_scores_and_boxes_off_the_image(self, monkeypatch, rng):
        image4 = Tensor(np.zeros((1, 3, 64, 96), dtype=np.float32))
        kept = 0
        for _ in range(40):
            n = int(rng.integers(1, nets.RPN_POST_NMS_K + 1))
            xy = rng.uniform(-30.0, [106.0, 74.0], size=(n, 2))  # some wholly off the image
            wh = rng.uniform(-2.0, [60.0, 50.0], size=(n, 2))  # some degenerate or inverted
            proposals = np.concatenate([xy, xy + wh], axis=1)
            cls = np.zeros((n, 2), dtype=np.float32)
            cls[:, 1] = rng.choice([-1000.0, -1.0, 0.0, 0.5], size=n)  # ties; -1000 scores 0.0
            box = (rng.normal(size=(n, 4)) * rng.choice([0.01, 1.0, 5.0])).astype(np.float32)
            got = self._detect_on(monkeypatch, image4, proposals, cls, box)
            assert _det_bytes(got) == _det_bytes(self._tail(image4, proposals, cls, box))
            assert all(d.score > 0.0 and 0.0 <= d.x1 < d.x2 <= 96.0 for d in got)
            kept += len(got)
        assert kept

    def test_tied_scores_keep_the_earlier_row(self, monkeypatch):
        image4 = Tensor(np.zeros((1, 3, 64, 96), dtype=np.float32))
        proposals = np.array([[10.0, 10.0, 30.0, 50.0], [11.0, 10.0, 31.0, 50.0],
                              [10.0, 10.0, 30.0, 50.0], [60.0, 5.0, 80.0, 45.0]])
        cls = np.tile(np.array([0.0, 0.3], dtype=np.float32), (4, 1))
        box = np.zeros((4, 4), dtype=np.float32)
        got = self._detect_on(monkeypatch, image4, proposals, cls, box)
        assert _det_bytes(got) == _det_bytes(self._tail(image4, proposals, cls, box))
        assert [(d.x1, d.x2) for d in got] == [(10.0, 30.0), (60.0, 80.0)]

    def test_zero_scores_and_degenerate_boxes_leave_no_detection(self, monkeypatch):
        image4 = Tensor(np.zeros((1, 3, 64, 96), dtype=np.float32))
        proposals = np.array([[10.0, 10.0, 30.0, 50.0],    # scores exactly 0.0
                              [10.0, 10.0, 10.0005, 50.0],  # too narrow
                              [100.0, 10.0, 120.0, 50.0],   # right of the image
                              [10.0, -40.0, 30.0, -5.0]])   # above it
        cls = np.array([[0.0, -1000.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]], dtype=np.float32)
        box = np.zeros((4, 4), dtype=np.float32)
        assert self._tail(image4, proposals, cls, box) == []
        assert self._detect_on(monkeypatch, image4, proposals, cls, box) == []
