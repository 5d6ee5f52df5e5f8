"""Miss-rate / false-positives-per-image scoring with ignore regions.

Matching is greedy in descending score order: a detection claims the
highest-overlap unmatched non-ignore ground-truth box with IoU >= MATCH_IOU
(the first such box on a tie); failing that it may overlap an ignore region
(neutral, ignore matches are not exclusive); otherwise it is a false
positive. Each image gets one IoU matrix and one ignore mask, and each
detection one masked argmax over its IoU row. Because a detection's outcome
never depends on lower-scored detections, that one pass per image yields the
whole threshold sweep: the TP and FP scores are sorted once and counted at
every threshold by ``searchsorted``.

The summary number is the log-average miss rate: miss rates sampled at nine
log-spaced FPPI references spanning two decades up to 1, combined by
geometric mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .boxes import Detection, box_array, iou_matrix


class EvalError(ValueError):
    """Scoring is undefined for the given inputs."""


@dataclass
class GTBox:
    x1: float
    y1: float
    x2: float
    y2: float
    visibility: float = 1.0
    ignore: bool = False

    @property
    def height(self) -> float:
        return self.y2 - self.y1


@dataclass
class EvalCurve:
    """Threshold sweep: (fppi, miss_rate) points ordered by descending
    score threshold, so fppi never decreases along the curve."""

    points: list = field(default_factory=list)
    thresholds: list = field(default_factory=list)
    log_avg_mr: float = 1.0


# Caltech-style subset predicates, with pixel heights rescaled for scenes
# shot at 1/4 of the benchmark's native resolution.
SUBSET_SCALE = 4.0
_REASONABLE_MIN_H = 50.0
_SMALL_MIN_H = 50.0
_SMALL_MAX_H = 75.0
_REASONABLE_MIN_VIS = 0.65
_SMALL_MIN_VIS = 0.20
_SMALL_MAX_VIS = 0.65

SUBSETS = ("reasonable", "small")

# A detection matches a box (or touches an ignore region) at IoU >= MATCH_IOU.
MATCH_IOU = 0.5


def subset_member(gt: GTBox, subset: str) -> bool:
    if subset == "reasonable":
        return gt.height > _REASONABLE_MIN_H / SUBSET_SCALE and gt.visibility > _REASONABLE_MIN_VIS
    if subset == "small":
        return (
            _SMALL_MIN_H / SUBSET_SCALE < gt.height < _SMALL_MAX_H / SUBSET_SCALE
            and _SMALL_MIN_VIS < gt.visibility < _SMALL_MAX_VIS
        )
    raise EvalError(f"unknown subset {subset!r}")


def subset_filter(gts: list[GTBox], subset: str) -> list[GTBox]:
    """Mark boxes outside the subset as ignore regions (never dropped:
    detections on them count neither as hits nor as false positives)."""
    if subset not in SUBSETS:
        raise EvalError(f"unknown subset {subset!r}")
    return [replace(gt, ignore=gt.ignore or not subset_member(gt, subset)) for gt in gts]


def match_detections(dets: list[Detection], gts: list[GTBox]):
    """Greedy one-pass matching for a single image.

    Returns (kinds, gt_matched): per detection one of "tp", "fp", "ignore",
    ordered like the input; per ground-truth box whether some detection
    claimed it. Score ties are visited in input order (stable sort), and
    among equal overlaps the first ground-truth box wins.
    """
    ious = iou_matrix(box_array(dets), box_array(gts))
    hits = ious >= MATCH_IOU
    ignore = np.array([g.ignore for g in gts], dtype=bool)
    kinds = ["ignore" if h else "fp" for h in (hits & ignore).any(axis=1)]
    open_hits = hits & ~ignore
    taken = np.zeros(len(gts), dtype=bool)
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].score):
        free = open_hits[i] & ~taken
        if free.any():
            taken[np.where(free, ious[i], -1.0).argmax()] = True
            kinds[i] = "tp"
    return kinds, taken.tolist()


def mr_fppi_curve(image_results) -> EvalCurve:
    """Score sweep over a whole image set.

    ``image_results`` is a sequence of (detections, ground_truths) pairs, one
    per image. Produces one curve point per distinct detection score; with no
    detections at all the curve is the single point (0, 1).
    """
    image_results = list(image_results)
    if not image_results:
        raise EvalError("no images to score")
    total_gt = sum(sum(0 if g.ignore else 1 for g in gts) for _, gts in image_results)
    if total_gt == 0:
        raise EvalError("no non-ignore ground truth; miss rate undefined")

    scores, kinds = [], []
    for dets, gts in image_results:
        scores += [d.score for d in dets]
        kinds += match_detections(dets, gts)[0]
    if not scores:
        return EvalCurve(points=[(0.0, 1.0)], thresholds=[float("inf")], log_avg_mr=1.0)
    scores = np.asarray(scores, dtype=np.float64)
    kinds = np.asarray(kinds)

    # A detection survives threshold t iff its score >= t.
    thresholds = np.unique(scores)[::-1]
    tp_sorted = np.sort(scores[kinds == "tp"])
    fp_sorted = np.sort(scores[kinds == "fp"])
    tp = len(tp_sorted) - np.searchsorted(tp_sorted, thresholds, side="left")
    fp = len(fp_sorted) - np.searchsorted(fp_sorted, thresholds, side="left")
    fppi = fp / len(image_results)
    miss = (total_gt - tp) / total_gt

    curve = EvalCurve(points=list(zip(fppi.tolist(), miss.tolist())),
                      thresholds=thresholds.tolist())
    curve.log_avg_mr = log_average_miss_rate(curve)
    return curve


_MR_EPS = 1e-10
_N_REFERENCES = 9


def log_average_miss_rate(curve: EvalCurve) -> float:
    """Geometric mean of miss rates sampled at 9 log-spaced FPPI references
    in [1e-2, 1]. Each reference takes the last curve point with fppi <= ref
    (the curve's first miss rate if there is none), whether or not the
    curve's fppi is sorted. An all-zero sample set gives exactly 0."""
    if not curve.points:
        raise EvalError("empty curve")
    refs = np.logspace(-2.0, 0.0, _N_REFERENCES)
    fppis, misses = np.array(curve.points, dtype=np.float64).T
    below = fppis[None, :] <= refs[:, None]
    last = len(fppis) - 1 - below[:, ::-1].argmax(axis=1)
    sampled = np.where(below.any(axis=1), misses[last], misses[0])
    if np.all(sampled == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(np.maximum(sampled, _MR_EPS)))))


def evaluate(dets_by_image: dict, gts_by_image: dict, subset: str) -> EvalCurve:
    """Subset-filtered curve over the union of image ids in both maps; an
    id absent from one map has no detections or no ground truth there. An
    ``EvalError`` names the subset."""
    ids = sorted(set(dets_by_image) | set(gts_by_image))
    images = [(dets_by_image.get(i, []), subset_filter(gts_by_image.get(i, []), subset)) for i in ids]
    try:
        return mr_fppi_curve(images)
    except EvalError as exc:
        raise EvalError(f"subset {subset!r}: {exc}") from None


# ---- text file formats ------------------------------------------------------


def _data_lines(path):
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield ln, line.split()


def _box_line(path, ln, parts) -> tuple[int, list[float]]:
    """Image id and the five numbers of a 6-field box line; the numbers
    must be finite and the box must have x2 > x1 and y2 > y1."""
    if len(parts) != 6:
        raise EvalError(f"{path}:{ln}: expected 6 fields, got {len(parts)}")
    try:
        img = int(parts[0])
        vals = [float(v) for v in parts[1:]]
    except ValueError:
        raise EvalError(f"{path}:{ln}: not a number in {' '.join(parts)!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise EvalError(f"{path}:{ln}: non-finite field in {' '.join(parts)!r}")
    x1, y1, x2, y2 = vals[:4]
    if x2 <= x1 or y2 <= y1:
        raise EvalError(f"{path}:{ln}: box needs x2 > x1 and y2 > y1, got {x1} {y1} {x2} {y2}")
    return img, vals


def read_detections(path) -> dict[int, list[Detection]]:
    """Lines of `image_id x1 y1 x2 y2 score`."""
    out: dict[int, list[Detection]] = {}
    for ln, parts in _data_lines(path):
        img, vals = _box_line(path, ln, parts)
        out.setdefault(img, []).append(Detection(*vals))
    return out


def write_detections(path, dets_by_image: dict):
    with open(path, "w") as fh:
        fh.write("# image_id x1 y1 x2 y2 score\n")
        for img in sorted(dets_by_image):
            for d in dets_by_image[img]:
                fh.write(f"{img} {float(d.x1)!r} {float(d.y1)!r} {float(d.x2)!r} {float(d.y2)!r} {float(d.score)!r}\n")


def read_ground_truth(path) -> dict[int, list[GTBox]]:
    """Lines of `image_id x1 y1 x2 y2 visibility`, the visibility in [0, 1]."""
    out: dict[int, list[GTBox]] = {}
    for ln, parts in _data_lines(path):
        img, vals = _box_line(path, ln, parts)
        if not 0.0 <= vals[4] <= 1.0:
            raise EvalError(f"{path}:{ln}: visibility must lie in [0, 1], got {vals[4]}")
        out.setdefault(img, []).append(GTBox(*vals[:4], visibility=vals[4]))
    return out


def write_ground_truth(path, gts_by_image: dict):
    with open(path, "w") as fh:
        fh.write("# image_id x1 y1 x2 y2 visibility\n")
        for img in sorted(gts_by_image):
            for g in gts_by_image[img]:
                fh.write(f"{img} {float(g.x1)!r} {float(g.y1)!r} {float(g.x2)!r} {float(g.y2)!r} {float(g.visibility)!r}\n")


def write_curve(path, curve: EvalCurve):
    with open(path, "w") as fh:
        fh.write("fppi\tmiss_rate\n")
        for fppi, miss in curve.points:
            fh.write(f"{fppi!r}\t{miss!r}\n")
        fh.write(f"# log_avg_mr = {curve.log_avg_mr!r}\n")
