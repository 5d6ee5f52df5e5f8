"""Scoring protocol: subset filters, greedy matching, curve, log-average MR."""

import math

import numpy as np
import pytest

from distilldet.boxes import Detection, box_array
from distilldet.evalmr import (
    EvalCurve,
    EvalError,
    GTBox,
    evaluate,
    log_average_miss_rate,
    match_detections,
    mr_fppi_curve,
    read_detections,
    read_ground_truth,
    subset_filter,
    subset_member,
    write_curve,
    write_detections,
    write_ground_truth,
)
from oracles import curve_by_rematching, greedy_match_ref, log_avg_mr_script


def _gt(x1, y1, x2, y2, vis=1.0, ignore=False):
    return GTBox(x1, y1, x2, y2, visibility=vis, ignore=ignore)


def _det(x1, y1, x2, y2, score):
    return Detection(x1, y1, x2, y2, score)


class TestSubsetFilter:
    # thresholds at scale 4: reasonable h > 12.5 & vis > 0.65;
    # small 12.5 < h < 18.75 & 0.2 < vis < 0.65
    def test_tall_visible_is_reasonable(self):
        g = _gt(0, 0, 6, 15, vis=0.9)  # height 60 at native scale
        assert subset_member(g, "reasonable")
        assert not subset_member(g, "small")

    def test_tall_half_occluded_is_small_not_reasonable(self):
        g = _gt(0, 0, 6, 15, vis=0.5)
        assert subset_member(g, "small")
        assert not subset_member(g, "reasonable")

    def test_native_scale_thresholds(self):
        # native heights 50 / 60 / 75 px are 12.5 / 15 / 18.75 px here
        g60 = GTBox(0, 0, 6, 60 / 4, visibility=0.9)
        assert subset_member(g60, "reasonable")
        g60o = GTBox(0, 0, 6, 60 / 4, visibility=0.5)
        assert subset_member(g60o, "small")
        for h in (50 / 4, 75 / 4):
            assert not subset_member(GTBox(0, 0, 6, h, visibility=0.5), "small")
        assert not subset_member(GTBox(0, 0, 6, 50 / 4, visibility=0.9), "reasonable")

    def test_too_short_ignored_in_both(self):
        g = _gt(0, 0, 4, 10, vis=1.0)  # height 40 at native scale
        assert not subset_member(g, "reasonable")
        assert not subset_member(g, "small")
        for subset in ("reasonable", "small"):
            out = subset_filter([g], subset)
            assert out[0].ignore

    def test_members_not_marked_ignore(self):
        g = _gt(0, 0, 6, 16, vis=0.8)
        out = subset_filter([g], "reasonable")
        assert not out[0].ignore

    def test_unknown_subset_rejected(self):
        with pytest.raises(EvalError):
            subset_filter([], "huge")


class TestMatching:
    def test_exact_match_is_tp(self):
        kinds, matched = match_detections([_det(0, 0, 10, 20, 0.9)], [_gt(0, 0, 10, 20)])
        assert kinds == ["tp"]
        assert matched == [True]

    def test_double_detection_second_is_fp(self):
        dets = [_det(0, 0, 10, 20, 0.9), _det(0.5, 0, 10, 20, 0.8)]
        kinds, _ = match_detections(dets, [_gt(0, 0, 10, 20)])
        assert kinds == ["tp", "fp"]

    def test_greedy_prefers_higher_score_not_order(self):
        dets = [_det(0.5, 0, 10, 20, 0.3), _det(0, 0, 10, 20, 0.9)]
        kinds, _ = match_detections(dets, [_gt(0, 0, 10, 20)])
        assert kinds == ["fp", "tp"]

    def test_ignore_region_is_neutral(self):
        kinds, matched = match_detections([_det(0, 0, 10, 20, 0.9)], [_gt(0, 0, 10, 20, ignore=True)])
        assert kinds == ["ignore"]
        assert matched == [False]

    def test_equal_overlap_goes_to_first_box(self):
        gts = [_gt(0, 0, 10, 20, ignore=True), _gt(0, 0, 10, 20), _gt(0, 0, 10, 20)]
        kinds, matched = match_detections([_det(0, 0, 10, 20, 0.9)], gts)
        assert kinds == ["tp"]
        assert matched == [False, True, False]

    def test_box_array_reads_either_record_type_as_float64(self):
        got = box_array([_gt(0, 1, 10, 20, vis=0.5), _det(2, 3, 4, 5, 0.9)])
        assert got.dtype == np.float64 and got.tolist() == [[0, 1, 10, 20], [2, 3, 4, 5]]
        assert box_array([]).shape == (0, 4) and box_array([]).dtype == np.float64

    def test_random_scenarios_match_independent_oracle(self, rng):
        for case in range(50):
            n_det = int(rng.integers(0, 21))
            n_gt = int(rng.integers(0, 8))
            dets = []
            for _ in range(n_det):
                x, y = rng.uniform(0, 60, size=2)
                dets.append(_det(x, y, x + rng.uniform(2, 30), y + rng.uniform(2, 30),
                                 round(float(rng.uniform(0, 1)), 1)))
            gts = []
            for _ in range(n_gt):
                x, y = rng.uniform(0, 60, size=2)
                gts.append(_gt(x, y, x + rng.uniform(2, 30), y + rng.uniform(2, 30),
                               ignore=bool(rng.random() < 0.3)))
            if gts:  # a copy of a box draws an equal-overlap tie
                gts.insert(int(rng.integers(len(gts) + 1)), _gt(gts[0].x1, gts[0].y1, gts[0].x2, gts[0].y2))
            got = match_detections(dets, gts)
            assert got == greedy_match_ref(dets, gts), f"case {case}"


class TestCurve:
    def test_perfect_detector_single_point(self):
        gts = [_gt(0, 0, 10, 20)]
        dets = [_det(0, 0, 10, 20, 1.0)]
        curve = mr_fppi_curve([(dets, gts)])
        assert curve.points == [(0.0, 0.0)]
        assert curve.log_avg_mr == 0.0

    def test_empty_detector_miss_one_at_zero_fppi(self):
        curve = mr_fppi_curve([([], [_gt(0, 0, 10, 20)])])
        assert curve.points == [(0.0, 1.0)]
        assert curve.log_avg_mr == 1.0

    def test_crafted_three_image_scenario_hand_worked(self):
        # img1: 2 GT, one matched at 0.9 plus an FP at 0.8
        # img2: 1 GT matched at 0.7; img3: 1 GT, no detections
        img1 = ([_det(0, 0, 10, 20, 0.9), _det(40, 40, 50, 60, 0.8)],
                [_gt(0, 0, 10, 20), _gt(20, 0, 30, 20)])
        img2 = ([_det(5, 5, 15, 25, 0.7)], [_gt(5, 5, 15, 25)])
        img3 = ([], [_gt(0, 0, 8, 16)])
        curve = mr_fppi_curve([img1, img2, img3])
        assert curve.thresholds == [0.9, 0.8, 0.7]
        want = [(0.0, 0.75), (1 / 3, 0.75), (1 / 3, 0.5)]
        for (gf, gm), (wf, wm) in zip(curve.points, want):
            assert gf == pytest.approx(wf, abs=1e-12)
            assert gm == pytest.approx(wm, abs=1e-12)

    def test_matches_per_threshold_rematching_oracle(self, rng):
        for case in range(30):
            images = []
            for _ in range(int(rng.integers(1, 5))):
                dets, gts = [], []
                for _ in range(int(rng.integers(0, 10))):
                    x, y = rng.uniform(0, 50, size=2)
                    score = float(rng.uniform(0, 1))
                    # half the scores on a 0.1 grid: score ties, repeated thresholds
                    dets.append(_det(x, y, x + rng.uniform(3, 25), y + rng.uniform(3, 25),
                                     round(score, 1) if rng.random() < 0.5 else score))
                for _ in range(int(rng.integers(1, 5))):
                    x, y = rng.uniform(0, 50, size=2)
                    gts.append(_gt(x, y, x + rng.uniform(3, 25), y + rng.uniform(3, 25),
                                   ignore=bool(rng.random() < 0.25)))
                images.append((dets, gts))
            if sum(sum(0 if g.ignore else 1 for g in gts) for _, gts in images) == 0:
                continue
            curve = mr_fppi_curve(images)
            want = curve_by_rematching(images, len(images))
            assert curve.points == (want or [(0.0, 1.0)]), f"case {case}"

    def test_zero_non_ignore_gt_is_an_error(self):
        with pytest.raises(EvalError):
            mr_fppi_curve([([], [_gt(0, 0, 5, 10, ignore=True)])])

    def test_evaluate_names_a_subset_with_no_box(self):
        gts = {0: [_gt(0, 0, 6, 16)]}  # reasonable, not small
        assert evaluate({}, gts, "reasonable").log_avg_mr == 1.0
        with pytest.raises(EvalError, match="subset 'small': no non-ignore ground truth"):
            evaluate({}, gts, "small")

    def test_monotonicity_along_threshold_sweep(self, rng):
        for _ in range(100):
            images = []
            for _ in range(3):
                dets = []
                for _ in range(int(rng.integers(0, 8))):
                    x, y = rng.uniform(0, 40, size=2)
                    dets.append(_det(x, y, x + rng.uniform(2, 20), y + rng.uniform(2, 20),
                                     float(rng.uniform(0, 1))))
                gts = []
                for _ in range(int(rng.integers(1, 4))):
                    x, y = rng.uniform(0, 40, size=2)
                    gts.append(_gt(x, y, x + rng.uniform(2, 20), y + rng.uniform(2, 20)))
                images.append((dets, gts))
            curve = mr_fppi_curve(images)
            fppis = [p[0] for p in curve.points]
            misses = [p[1] for p in curve.points]
            assert fppis == sorted(fppis)
            assert misses == sorted(misses, reverse=True)

    def test_ignore_only_detections_change_nothing(self, rng):
        gts = [_gt(0, 0, 10, 20), _gt(30, 0, 40, 20, ignore=True)]
        dets = [_det(0, 0, 10, 20, 0.9)]
        base = mr_fppi_curve([(dets, gts)])
        noisy = dets + [_det(30, 0, 40, 20, float(s)) for s in np.linspace(0.1, 0.8, 5)]
        out = mr_fppi_curve([(noisy, gts)])
        assert out.log_avg_mr == base.log_avg_mr
        # extra thresholds appear, but fppi/miss stay on the same envelope
        assert max(p[0] for p in out.points) == max(p[0] for p in base.points)

    def test_input_permutation_invariance(self, rng):
        dets = []
        for _ in range(12):
            x, y = rng.uniform(0, 40, size=2)
            dets.append(_det(x, y, x + rng.uniform(3, 20), y + rng.uniform(3, 20),
                             float(rng.uniform(0, 1))))
        gts = [_gt(5, 5, 20, 35), _gt(25, 2, 38, 30)]
        base = mr_fppi_curve([(dets, gts)])
        perm = [dets[i] for i in rng.permutation(len(dets))]
        out = mr_fppi_curve([(perm, gts)])
        assert out.points == base.points


class TestLogAverageMR:
    def test_constant_curve(self):
        curve = EvalCurve(points=[(0.005, 0.1), (0.5, 0.1), (2.0, 0.1)])
        assert log_average_miss_rate(curve) == pytest.approx(0.1, rel=1e-12)

    def test_all_misses(self):
        curve = EvalCurve(points=[(0.0, 1.0)])
        assert log_average_miss_rate(curve) == 1.0

    def test_two_segment_step_curve_scripted(self):
        points = [(0.0, 0.5), (0.1, 0.2)]
        got = log_average_miss_rate(EvalCurve(points=points))
        want = log_avg_mr_script(points)
        assert got == pytest.approx(want, rel=1e-12)
        # 4 references sample 0.5, 5 sample 0.2
        assert got == pytest.approx(math.exp((4 * math.log(0.5) + 5 * math.log(0.2)) / 9), rel=1e-12)

    def test_empty_curve_rejected(self):
        with pytest.raises(EvalError):
            log_average_miss_rate(EvalCurve(points=[]))

    def test_random_curves_match_script(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 12))
            fppis = rng.uniform(0, 2.0, size=n)
            # half the curves keep an unsorted fppi: each reference still
            # takes the last point with fppi <= ref
            if rng.random() < 0.5:
                fppis = np.sort(fppis)
            misses = np.sort(rng.uniform(0, 1, size=n))[::-1]
            points = list(zip(fppis.tolist(), misses.tolist()))
            got = log_average_miss_rate(EvalCurve(points=points))
            assert got == pytest.approx(log_avg_mr_script(points), rel=1e-10)


class TestFileFormats:
    def test_detection_roundtrip(self, tmp_path, rng):
        dets = {
            int(i): [
                _det(*rng.uniform(0, 50, size=2), *rng.uniform(51, 90, size=2),
                     float(rng.uniform(0, 1)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            for i in range(3)
        }
        path = tmp_path / "dets.txt"
        write_detections(path, dets)
        back = read_detections(path)
        assert back == dets

    def test_curve_file_holds_header_points_and_log_avg_mr_that_read_back_exactly(self, tmp_path):
        curve = EvalCurve(points=[(0.0, 1.0), (0.1, 2 / 3), (1 / 3, 0.1 + 0.2)],
                          thresholds=[0.9, 0.5, 0.1], log_avg_mr=math.exp(-1 / 3))
        path = tmp_path / "curve.tsv"
        write_curve(path, curve)
        lines = path.read_text().splitlines()
        assert len(lines) == len(curve.points) + 2
        assert lines[0] == "fppi\tmiss_rate"
        assert [tuple(float(v) for v in line.split("\t")) for line in lines[1:-1]] == curve.points
        key, value = lines[-1].split(" = ")
        assert key == "# log_avg_mr" and float(value) == curve.log_avg_mr

    def test_ground_truth_roundtrip(self, tmp_path):
        gts = {0: [GTBox(1.0, 2.0, 10.0, 30.0, visibility=1 - 7 / 23)],
               4: [GTBox(0.0, 0.0, 5.5, 11.25, visibility=1.0)]}
        path = tmp_path / "gt.txt"
        write_ground_truth(path, gts)
        back = read_ground_truth(path)
        assert back == gts

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1 2 3\n")
        with pytest.raises(EvalError):
            read_detections(p)

    @pytest.mark.parametrize("line", [
        "0 1.0 2.0 10.0 30.0 nan",      # nan score
        "0 1.0 2.0 10.0 30.0 inf",      # inf score
        "0 1.0 2.0 10.0 -inf 0.5",      # inf coordinate
        "0 10.0 2.0 1.0 30.0 0.5",      # x2 < x1
        "0 1.0 30.0 10.0 30.0 0.5",     # y2 == y1
        "0 1.0 2.0 ten 30.0 0.5",       # not a number
    ])
    def test_bad_detection_line_names_path_and_line(self, tmp_path, line):
        p = tmp_path / "dets.txt"
        p.write_text("# image_id x1 y1 x2 y2 score\n0 1.0 2.0 10.0 30.0 0.9\n" + line + "\n")
        with pytest.raises(EvalError, match=f"{p}:3"):
            read_detections(p)

    @pytest.mark.parametrize("line", [
        "0 1.0 2.0 10.0 30.0 nan",      # nan visibility
        "0 1.0 2.0 inf 30.0 1.0",       # inf coordinate
        "0 10.0 2.0 1.0 30.0 1.0",      # x2 < x1
        "0 1.0 30.0 10.0 2.0 1.0",      # y2 < y1
        "0 1 2 10 30 1.5",              # visibility above 1
        "0 1 2 10 30 -0.3",             # visibility below 0
    ])
    def test_bad_ground_truth_line_names_path_and_line(self, tmp_path, line):
        p = tmp_path / "gt.txt"
        p.write_text("0 1.0 2.0 10.0 30.0 1.0\n" + line + "\n")
        with pytest.raises(EvalError, match=f"{p}:2"):
            read_ground_truth(p)

    def test_evaluate_gt_as_detections_gives_zero_mr(self, rng):
        gts = {}
        for img in range(4):
            boxes = []
            for _ in range(3):
                x, y = rng.uniform(0, 60, size=2)
                h = rng.uniform(14, 40)
                boxes.append(GTBox(x, y, x + 0.41 * h, y + h, visibility=1.0))
            gts[img] = boxes
        dets = {img: [Detection(g.x1, g.y1, g.x2, g.y2, 1.0) for g in boxes]
                for img, boxes in gts.items()}
        curve = evaluate(dets, gts, "reasonable")
        assert curve.log_avg_mr == 0.0

    def test_evaluate_scores_the_union_of_image_ids(self):
        # image 0 in both maps, image 1 only in the detections (its
        # detection is a false positive), image 2 only in the ground truth
        # (its box is missed)
        hit, stray = _det(0, 0, 6, 16, 0.9), _det(20, 20, 26, 36, 0.6)
        gt0, gt2 = _gt(0, 0, 6, 16), _gt(10, 0, 16, 16)
        curve = evaluate({0: [hit], 1: [stray]}, {0: [gt0], 2: [gt2]}, "reasonable")
        want = mr_fppi_curve([([hit], [gt0]), ([stray], []), ([], [gt2])])
        assert (curve.points, curve.thresholds, curve.log_avg_mr) == (
            want.points, want.thresholds, want.log_avg_mr)
        assert curve.thresholds == [0.9, 0.6]
        assert curve.points == [(0.0, 0.5), (1 / 3, 0.5)]
