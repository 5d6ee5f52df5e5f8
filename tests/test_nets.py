"""Detector networks: shapes, configs, proposals, and supervised losses."""

import math
from dataclasses import replace

import numpy as np
import pytest

import distilldet.autodiff as ad
from distilldet import Tensor, backward, nets
from distilldet.boxes import RoI, decode_deltas, encode_deltas, iou_matrix, level_anchors
from oracles import iou_scalar


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

    def test_logit_widths_match_between_roles(self):
        assert nets.default_teacher_config().logit_width == nets.default_student_config().logit_width

    def test_head_width_depends_on_crop_mode(self):
        py = nets.default_student_config(pyramid_roi=True)
        single = nets.default_student_config(pyramid_roi=False)
        assert py.head_input_width == 4 * single.head_input_width

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            nets.NetConfig(widths=(1, 2, 3))
        with pytest.raises(ValueError):
            nets.NetConfig(role="oracle")


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
        pyr = nets.fpn_forward(nets.backbone_forward(img, tiny_student_cfg, params),
                               tiny_student_cfg, params)
        for level in pyr.levels():
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
        feats = nets.BackboneFeatures(
            Tensor(np.zeros((1, cfg.widths[0], 16, 24))),
            Tensor(np.zeros((1, cfg.widths[1], 8, 12))),
            Tensor(np.zeros((1, cfg.widths[2], 4, 6))),
            c5,
        )
        pyr = nets.fpn_forward(feats, cfg, params)
        for level in pyr.levels():
            assert np.abs(level.data).sum() > 0.0

    def test_uniform_width_and_matching_spatial_sizes(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 1)
        img = Tensor(rng.uniform(0, 1, size=(1, 3, 64, 96)))
        feats = nets.backbone_forward(img, cfg, params)
        pyr = nets.fpn_forward(feats, cfg, params)
        for level, c in zip(pyr.levels(), feats):
            assert level.data.shape[1] == cfg.pyramid_width
            assert level.data.shape[2:] == c.data.shape[2:]


class TestRpn:
    def test_zero_net_gives_zero_logits(self, tiny_student_cfg):
        cfg = tiny_student_cfg
        params = _zero_params(cfg)
        pyr = nets.FeaturePyramid(*[Tensor(np.zeros((1, cfg.pyramid_width, 8 // f, 8 // f)))
                                    for f in (1, 2, 4, 8)])
        out = nets.rpn_forward(pyr, cfg, params)
        for obj, _ in out:
            assert np.all(obj.data == 0.0)

    def test_shared_head_identical_features_identical_outputs(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 2)
        same = rng.normal(size=(1, cfg.pyramid_width, 4, 4))
        pyr = nets.FeaturePyramid(Tensor(same), Tensor(same.copy()),
                                  Tensor(np.zeros((1, cfg.pyramid_width, 4, 4))),
                                  Tensor(np.zeros((1, cfg.pyramid_width, 4, 4))))
        out = nets.rpn_forward(pyr, cfg, params)
        assert np.array_equal(out[0][0].data, out[1][0].data)
        assert np.array_equal(out[0][1].data, out[1][1].data)

    def test_output_channel_counts(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 2)
        pyr = nets.FeaturePyramid(*[Tensor(rng.normal(size=(1, cfg.pyramid_width, 8 // f, 12 // f)))
                                    for f in (1, 2, 4, 8)])
        for (obj, box), level in zip(nets.rpn_forward(pyr, cfg, params), pyr.levels()):
            h, w = level.data.shape[2:]
            assert obj.shape == (1, h, w)
            assert box.shape == (4, h, w)


class TestPyramidAnchors:
    def test_grids_are_cached_equal_to_fresh_and_read_only(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        pyr = nets.forward_pyramid(Tensor(rng.uniform(0, 1, size=(1, 3, 64, 96))), cfg,
                                   nets.init_params(cfg, 3))
        first = nets.pyramid_anchors(pyr, cfg)
        again = nets.pyramid_anchors(pyr, cfg)
        for lvl, level, a, b in zip((2, 3, 4, 5), pyr.levels(), first, again):
            assert a is b
            h, w = level.data.shape[-2:]
            fresh = level_anchors(lvl, h, w, base_size=cfg.anchor_base, aspect=cfg.anchor_aspect)
            assert a.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        wider = nets.pyramid_anchors(pyr, replace(cfg, anchor_base=2 * cfg.anchor_base))
        assert not np.array_equal(wider[0], first[0])


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

    def test_zero_deltas_reproduce_clipped_anchors(self, tiny_student_cfg):
        rpn_out, anchors = self._pyr_and_out(tiny_student_cfg, 1.0, 0.0)
        props = nets.generate_proposals(rpn_out, anchors, 500, 500, 0.99, img_w=48, img_h=32)
        assert props
        expect = np.clip(np.concatenate(anchors), [0, 0, 0, 0], [48, 32, 48, 32])
        for p in props:
            dists = np.abs(expect - np.array([p.x1, p.y1, p.x2, p.y2])).max(axis=1)
            assert dists.min() < 1e-9  # identity decode up to round-off

    def test_identical_boxes_nms_keeps_higher_score(self):
        rpn_out = [(Tensor(np.array([[[2.0, 1.0]]])), Tensor(np.zeros((4, 1, 2))))]
        anchors = [np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])]
        props = nets.generate_proposals(rpn_out, anchors, 10, 10, 0.5, 20, 20)
        assert len(props) == 1
        assert props[0].score == pytest.approx(1 / (1 + math.exp(-2.0)))

    def test_empty_result_is_legal(self):
        # deltas push every box fully outside the image
        rpn_out = [(Tensor(np.zeros((1, 2, 2))), Tensor(np.full((4, 2, 2), 50.0)))]
        anchors = [level_anchors(2, 2, 2)]
        props = nets.generate_proposals(rpn_out, anchors, 10, 10, 0.5, 8, 8)
        assert props == []

    def test_proposals_inside_bounds_and_positive_area(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 3)
        img = Tensor(rng.uniform(0, 1, size=(1, 3, 64, 96)))
        pyr = nets.forward_pyramid(img, cfg, params)
        out = nets.rpn_forward(pyr, cfg, params)
        props = nets.generate_proposals(out, nets.pyramid_anchors(pyr, cfg),
                                        cfg.pre_nms_k, cfg.post_nms_k, cfg.nms_iou, 96, 64)
        assert props
        for p in props:
            assert 0.0 <= p.x1 < p.x2 <= 96.0
            assert 0.0 <= p.y1 < p.y2 <= 64.0


class TestRpnLoss:
    def test_perfect_predictions_near_zero(self, rng):
        anchors = np.array([[0, 0, 10, 24.0], [30, 30, 40, 54.0]])
        gt = anchors[:1].copy()
        obj = Tensor(np.array([[[20.0, -20.0]]]))
        box = Tensor(np.zeros((4, 1, 2)))
        loss = nets.rpn_loss([(obj, box)], [anchors], gt, np.random.default_rng(0))
        assert loss.item() < 1e-6

    def test_no_gt_all_negative_logits(self):
        anchors = np.array([[0, 0, 10, 24.0], [30, 30, 40, 54.0]])
        obj = Tensor(np.array([[[-20.0, -20.0]]]))
        box = Tensor(np.zeros((4, 1, 2)))
        loss = nets.rpn_loss([(obj, box)], [anchors], np.zeros((0, 4)), np.random.default_rng(0))
        assert loss.item() < 1e-6

    def test_two_anchor_hand_computed_case(self):
        anchors = np.array([[0.0, 0.0, 10.0, 24.0], [60.0, 30.0, 70.0, 54.0]])
        gt = anchors[:1].copy()  # IoU 1 with anchor 0, 0 with anchor 1
        z0, z1 = 2.0, -1.0
        pred_deltas = np.array([0.1, -0.2, 0.05, 0.0])
        obj = Tensor(np.array([[[z0, z1]]]))
        box_data = np.zeros((4, 1, 2))
        box_data[:, 0, 0] = pred_deltas
        loss = nets.rpn_loss([(obj, Tensor(box_data))], [anchors], gt, np.random.default_rng(0))
        bce = (math.log1p(math.exp(-z0)) + math.log1p(math.exp(z1))) / 2
        sl1 = 0.5 * float((pred_deltas ** 2).sum())  # targets are zero, |d|<1
        assert abs(loss.item() - (bce + sl1)) < 1e-8

    def test_gradients_flow_to_rpn_inputs(self, rng):
        anchors = np.array([[0, 0, 10, 24.0], [30, 30, 40, 54.0]])
        obj = Tensor(rng.normal(size=(1, 1, 2)), requires_grad=True)
        box = Tensor(rng.normal(size=(4, 1, 2)), requires_grad=True)
        loss = nets.rpn_loss([(obj, box)], [anchors], anchors[:1].copy(), np.random.default_rng(0))
        backward(loss)
        assert obj.grad is not None
        assert box.grad is not None


class TestHead:
    def test_zero_region_zero_bias_uniform_softmax(self, tiny_student_cfg):
        cfg = tiny_student_cfg
        params = _zero_params(cfg)
        region = Tensor(np.zeros((4 * cfg.pyramid_width, cfg.roi_size, cfg.roi_size)))
        logit, cls, box = nets.head_forward(region, cfg, params)
        assert np.all(logit.data == 0.0)
        probs = ad.softmax(cls.reshape((1, 2))).data
        assert np.allclose(probs, 0.5)

    def test_width_mismatch_rejected(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 0)
        bad = Tensor(rng.normal(size=(3, cfg.roi_size, cfg.roi_size)))
        with pytest.raises(Exception):
            nets.head_forward(bad, cfg, params)

    def test_matches_linear_relu_composition(self, tiny_student_cfg, rng):
        cfg = tiny_student_cfg
        params = nets.init_params(cfg, 5)
        region = rng.normal(size=(4 * cfg.pyramid_width, cfg.roi_size, cfg.roi_size))
        logit, cls, box = nets.head_forward(Tensor(region), cfg, params)
        x = region.reshape(1, -1)
        h1 = np.maximum(x @ params["head.fc1.w"].data + params["head.fc1.b"].data, 0)
        h2 = np.maximum(h1 @ params["head.fc2.w"].data + params["head.fc2.b"].data, 0)
        assert np.allclose(logit.data, h2[0], atol=1e-12)
        assert np.allclose(cls.data, (h2 @ params["head.cls.w"].data + params["head.cls.b"].data)[0], atol=1e-12)
        assert np.allclose(box.data, (h2 @ params["head.box.w"].data + params["head.box.b"].data)[0], atol=1e-12)


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
