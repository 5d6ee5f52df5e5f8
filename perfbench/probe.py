"""Timing hooks installed by wrapping library functions at the names their
callers look up.

Two layers of hooks exist. The ``Clock`` is always on: it timestamps the end
of every ``SGD.step`` (training-step boundaries), times each ``nets.detect``
call and each ``experiments.evaluate_params`` call, and checks that every
detection is well formed. It adds one ``perf_counter`` pair per step or
image. The ``Tracer`` is on only in traced runs: it opens a span around every
layer's public function and around the ``_backward`` closure of the tensors
that the spatial ops and ``autodiff.linear`` return, and reports self time per
unit of work (a training step, or one image on forward-only workloads).

Every hook is installed through a ``Patcher`` and removed by ``restore``, so
the library is left exactly as it was imported.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from distilldet import autodiff, checkpoint, data, evalmr, experiments, nets, roi, train


class Patcher:
    """Replaces attributes and puts the originals back, last first."""

    def __init__(self):
        self._saved: list = []

    def wrap(self, owner, name: str, make):
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def patch_points():
    """Every (owner, name) either hook layer replaces, for leak checks."""
    patcher = Patcher()
    Clock().install(patcher)
    Tracer().install(patcher)
    points = [(owner, name) for owner, name, _ in patcher._saved]
    patcher.restore()
    return points


def detections_well_formed(dets) -> bool:
    return all(d.x1 < d.x2 and d.y1 < d.y2 and 0.0 <= d.score <= 1.0 for d in dets)


class Clock:
    """End-to-end boundary timings; cheap enough for untraced runs.

    A training step runs from the end of one ``SGD.step`` to the end of the
    next. The first step of each training call also holds parameter
    initialisation, so it is counted but not timed.
    """

    def __init__(self):
        self.step_ms: list[float] = []
        self.steps = 0
        self.role = "student"  # which net the harness is detecting with
        self.detect_ms: dict[str, list[float]] = {"student": [], "teacher": []}
        self.bad_detections = 0
        self.eval_images = 0
        self.eval_s = 0.0
        self._last = None

    def install(self, patcher: Patcher):
        clock = self

        def train_detector(fn):
            def wrapper(*args, **kwargs):
                clock._last = None
                return fn(*args, **kwargs)
            return wrapper

        def sgd_step(fn):
            def wrapper(opt, lr):
                fn(opt, lr)
                now = perf_counter()
                if clock._last is not None:
                    clock.step_ms.append((now - clock._last) * 1e3)
                clock._last = now
                clock.steps += 1
            return wrapper

        def detect(fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                dets = fn(*args, **kwargs)
                clock.detect_ms[clock.role].append((perf_counter() - t0) * 1e3)
                if not detections_well_formed(dets):
                    clock.bad_detections += 1
                return dets
            return wrapper

        def evaluate_params(fn):
            def wrapper(net_cfg, params, test_scenes, *args, **kwargs):
                t0 = perf_counter()
                out = fn(net_cfg, params, test_scenes, *args, **kwargs)
                clock.eval_s += perf_counter() - t0
                clock.eval_images += len(test_scenes)
                return out
            return wrapper

        patcher.wrap(train, "train_detector", train_detector)
        patcher.wrap(train.SGD, "step", sgd_step)
        patcher.wrap(nets, "detect", detect)
        patcher.wrap(experiments, "evaluate_params", evaluate_params)


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("imageops.conv2d.fwd_ms", "ms", "lower"),
    ("imageops.conv2d.bwd_ms", "ms", "lower"),
    ("imageops.conv2d.calls", "count", "lower"),
    ("imageops.conv2d.gflop", "GFLOP_computed", "lower"),
    ("imageops.maxpool2x2.fwd_ms", "ms", "lower"),
    ("imageops.maxpool2x2.bwd_ms", "ms", "lower"),
    ("imageops.upsample2x.fwd_ms", "ms", "lower"),
    ("imageops.upsample2x.bwd_ms", "ms", "lower"),
    ("autodiff.linear.fwd_ms", "ms", "lower"),
    ("autodiff.linear.bwd_ms", "ms", "lower"),
    ("autodiff.backward_ms", "ms", "lower"),
    ("autodiff.graph_nodes", "count", "lower"),
    ("nets.backbone_ms", "ms", "lower"),
    ("nets.fpn_ms", "ms", "lower"),
    ("nets.rpn_ms", "ms", "lower"),
    ("nets.rpn_loss_ms", "ms", "lower"),
    ("nets.rpn_pos_frac", "frac", "higher"),
    ("nets.sample_rois_ms", "ms", "lower"),
    ("nets.roi_pos_frac", "frac", "higher"),
    ("nets.head_ms", "ms", "lower"),
    ("nets.head_rows", "count", "lower"),
    ("nets.detection_loss_ms", "ms", "lower"),
    ("nets.proposals_ms", "ms", "lower"),
    ("nets.proposals_per_image", "count", "lower"),
    ("boxes.nms_ms", "ms", "lower"),
    ("boxes.nms_keep_frac", "frac", "lower"),
    ("roi.extract_ms", "ms", "lower"),
    ("roi.extract_calls_per_step", "count", "lower"),
    ("roi.boxes_per_step", "count", "lower"),
    ("roi.roi_align_batch.fwd_ms", "ms", "lower"),
    ("roi.roi_align_batch.bwd_ms", "ms", "lower"),
    ("distill.pd_ms", "ms", "lower"),
    ("distill.rd_ms", "ms", "lower"),
    ("distill.ld_ms", "ms", "lower"),
    ("train.teacher_cache_hit_frac", "frac", "higher"),
    ("train.teacher_forward_ms", "ms", "lower"),
    ("train.teacher_cache_mb", "MB_computed", "lower"),
    ("train.sgd_ms", "ms", "lower"),
    ("train.clip_frac", "frac", "lower"),
    ("evalmr.evaluate_ms", "ms", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("checkpoint.mb", "MB", "lower"),
    ("data.generate_ms", "ms", "lower"),
    ("experiments.row_s", "s", "lower"),
    ("experiments.row_eval_s", "s", "lower"),
)

# Spans whose self time is reported per unit, keyed by metric name.
_UNIT_SPANS = {
    "imageops.conv2d.fwd_ms": "conv2d", "imageops.conv2d.bwd_ms": "conv2d.bwd",
    "imageops.maxpool2x2.fwd_ms": "maxpool2x2", "imageops.maxpool2x2.bwd_ms": "maxpool2x2.bwd",
    "imageops.upsample2x.fwd_ms": "upsample2x", "imageops.upsample2x.bwd_ms": "upsample2x.bwd",
    "autodiff.linear.fwd_ms": "linear", "autodiff.linear.bwd_ms": "linear.bwd",
    "autodiff.backward_ms": "backward",
    "nets.backbone_ms": "backbone", "nets.fpn_ms": "fpn", "nets.rpn_ms": "rpn",
    "nets.rpn_loss_ms": "rpn_loss", "nets.sample_rois_ms": "sample_rois",
    "nets.head_ms": "head", "nets.detection_loss_ms": "detection_loss",
    "nets.proposals_ms": "proposals", "boxes.nms_ms": "nms", "roi.extract_ms": "extract",
    "roi.roi_align_batch.fwd_ms": "roi_align_batch", "roi.roi_align_batch.bwd_ms": "roi_align_batch.bwd",
    "distill.pd_ms": "pd", "distill.rd_ms": "rd", "distill.ld_ms": "ld", "train.sgd_ms": "sgd",
}
# Counts reported per unit, keyed by metric name.
_UNIT_COUNTS = {
    "imageops.conv2d.calls": "conv2d.calls", "imageops.conv2d.gflop": "conv2d.gflop",
    "autodiff.graph_nodes": "graph_nodes", "nets.head_rows": "head_rows",
    "roi.extract_calls_per_step": "extract.calls", "roi.boxes_per_step": "extract.boxes",
}
# Spans reported as the median inclusive time of one call, keyed by metric.
_CALL_SPANS = {
    "train.teacher_forward_ms": ("teacher_forward", 1e3), "evalmr.evaluate_ms": ("evaluate", 1e3),
    "checkpoint.save_ms": ("save", 1e3), "checkpoint.load_ms": ("load", 1e3),
    "data.generate_ms": ("generate", 1e3), "experiments.row_s": ("row", 1.0),
    "experiments.row_eval_s": ("row_eval", 1.0),
}
# Ratios of run-wide totals: metric -> (numerator, denominator).
_RATIOS = {
    "nets.rpn_pos_frac": ("rpn.pos", "rpn.sampled"), "nets.roi_pos_frac": ("roi.pos", "roi.sampled"),
    "boxes.nms_keep_frac": ("nms.kept", "nms.in"),
    "train.teacher_cache_hit_frac": ("cache.hits", "cache.lookups"),
    "train.clip_frac": ("sgd.clipped", "sgd.steps"),
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    """Per-layer spans with self time, bucketed per unit of work.

    A span's self time is its duration minus the time of the spans it
    encloses. Self times and counts accumulate until the unit ends; units
    are training steps (closed by ``SGD.step``) or, on forward-only
    workloads, images (closed by the harness through ``end_image``). The
    first step of each training call holds initialisation and is dropped.
    """

    def __init__(self):
        self._stack: list[float] = []
        self._acc: dict = defaultdict(float)
        self._absorbing = 0
        self._drop_next = False
        self.units: dict[str, list] = {"step": [], "image": []}
        self.calls: dict = defaultdict(list)
        self.totals: dict = defaultdict(float)
        self.cache_mb = 0.0

    # ---- unit bookkeeping ---------------------------------------------------

    def discard(self):
        self._acc = defaultdict(float)

    def end_unit(self, kind: str):
        if self._drop_next:
            self._drop_next = False
        else:
            self.units[kind].append(self._acc)
        self._acc = defaultdict(float)

    def end_image(self):
        self.end_unit("image")

    # ---- span plumbing ----------------------------------------------------

    def timed(self, key: str, fn, per_call: bool = False, absorb: bool = False, after=None):
        """``fn`` wrapped in a span named ``key``. ``absorb`` makes nested
        spans part of this one; ``after(result, args)`` records counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._absorbing:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            tracer._absorbing += absorb
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._absorbing -= absorb
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += dt
                tracer._acc[key] += dt - child
                if per_call:
                    tracer.calls[key].append(dt)
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def _with_backward(self, key: str):
        """After-hook that times the returned tensor's gradient rule."""
        def after(out, args):
            if out._backward is not None:
                out._backward = self.timed(key + ".bwd", out._backward)
        return after

    # ---- installation -----------------------------------------------------

    def install(self, patcher: Patcher):
        acc = self
        span = self.timed

        def conv_after(out, args):
            x, w = args[0].data, args[1].data
            n, k, ho, wo = out.data.shape
            acc._acc["conv2d.calls"] += 1
            acc._acc["conv2d.gflop"] += 2.0 * n * k * w.shape[1] * w.shape[2] * w.shape[3] * ho * wo / 1e9
            acc._with_backward("conv2d")(out, args)

        patcher.wrap(nets, "conv2d", lambda f: span("conv2d", f, after=conv_after))
        for name in ("maxpool2x2", "upsample2x"):
            patcher.wrap(nets, name, lambda f, n=name: span(n, f, after=acc._with_backward(n)))
        patcher.wrap(autodiff, "linear", lambda f: span("linear", f, after=acc._with_backward("linear")))
        patcher.wrap(roi, "roi_align_batch",
                     lambda f: span("roi_align_batch", f, after=acc._with_backward("roi_align_batch")))

        def bce_after(out, args):
            targets = np.asarray(args[1])
            acc.totals["rpn.pos"] += float(targets.sum())
            acc.totals["rpn.sampled"] += targets.size

        patcher.wrap(autodiff, "bce_with_logits", lambda f: span("rpn_loss", f, after=bce_after))

        def backward(fn):
            timed = span("backward", fn)

            def wrapper(loss):
                acc._acc["graph_nodes"] += len(autodiff.Tape(loss))
                return timed(loss)
            return wrapper

        patcher.wrap(train, "backward", backward)

        for name, key in (("backbone_forward", "backbone"), ("fpn_forward", "fpn"),
                          ("rpn_forward", "rpn"), ("rpn_loss", "rpn_loss"),
                          ("detection_loss", "detection_loss")):
            patcher.wrap(nets, name, lambda f, k=key: span(k, f))

        def sample_after(out, args):
            labels = out[1]
            acc.totals["roi.pos"] += float(labels.sum())
            acc.totals["roi.sampled"] += labels.size

        def head_after(out, args):
            acc._acc["head_rows"] += out[0].data.shape[0]

        def proposals_after(out, args):
            acc.calls["proposals.count"].append(len(out))

        def nms_after(out, args):
            acc.totals["nms.kept"] += len(out)
            acc.totals["nms.in"] += len(args[1])

        def extract_after(out, args):
            acc._acc["extract.calls"] += 1
            acc._acc["extract.boxes"] += len(args[1])

        patcher.wrap(nets, "sample_rois", lambda f: span("sample_rois", f, after=sample_after))
        patcher.wrap(nets, "head_forward_batch", lambda f: span("head", f, after=head_after))
        patcher.wrap(nets, "generate_proposals", lambda f: span("proposals", f, after=proposals_after))
        patcher.wrap(nets, "nms", lambda f: span("nms", f, after=nms_after))
        patcher.wrap(roi, "extract_region_batch", lambda f: span("extract", f, after=extract_after))
        for name, key in (("pyramid_distill_loss", "pd"), ("region_distill_loss", "rd"),
                          ("logit_distill_loss", "ld")):
            patcher.wrap(train, name, lambda f, k=key: span(k, f))

        def sgd_step(fn):
            timed = span("sgd", fn)

            def wrapper(opt, lr):
                if opt.clip_grad_norm > 0:
                    sq = sum(float((p.grad * p.grad).sum())
                             for p in opt.params.values() if p.grad is not None)
                    acc.totals["sgd.clipped"] += np.sqrt(sq) > opt.clip_grad_norm
                acc.totals["sgd.steps"] += 1
                timed(opt, lr)
                acc.end_unit("step")
            return wrapper

        def train_detector(fn):
            def wrapper(*args, **kwargs):
                acc.discard()
                acc._drop_next = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    acc.discard()
            return wrapper

        def teacher_pyramid(fn):
            timed = span("teacher_forward", fn, per_call=True, absorb=True)

            def wrapper(ctx, scene_index, flipped, image):
                acc.totals["cache.lookups"] += 1
                if ctx.cache_enabled and (scene_index, flipped) in ctx._cache:
                    acc.totals["cache.hits"] += 1
                    return fn(ctx, scene_index, flipped, image)
                out = timed(ctx, scene_index, flipped, image)
                mb = sum(a.nbytes for arrs in ctx._cache.values() for a in arrs) / 1e6
                acc.cache_mb = max(acc.cache_mb, mb)
                return out
            return wrapper

        patcher.wrap(train.SGD, "step", sgd_step)
        patcher.wrap(train, "train_detector", train_detector)
        patcher.wrap(train._TeacherContext, "pyramid", teacher_pyramid)

        def save_after(out, args):
            acc.calls["save.mb"].append(os.path.getsize(args[0]) / 1e6)

        for owner in (evalmr, experiments):
            patcher.wrap(owner, "evaluate", lambda f: span("evaluate", f, per_call=True))
        for owner in (checkpoint, train):
            patcher.wrap(owner, "save_checkpoint",
                         lambda f: span("save", f, per_call=True, after=save_after))
        for owner in (checkpoint, train, experiments):
            patcher.wrap(owner, "load_checkpoint", lambda f: span("load", f, per_call=True))
        for owner in (data, experiments):
            patcher.wrap(owner, "generate_dataset", lambda f: span("generate", f, per_call=True))
        patcher.wrap(experiments, "run_student_variant", lambda f: span("row", f, per_call=True))
        patcher.wrap(experiments, "evaluate_params", lambda f: span("row_eval", f, per_call=True))

    # ---- report -----------------------------------------------------------

    def metrics(self) -> dict:
        units = self.units["step"] or self.units["image"]
        out = {}
        # Over the units in which the layer ran: on ablate_mini most rows
        # skip some matching terms, and a median over all steps would read 0.
        for name, key in _UNIT_SPANS.items():
            out[name] = _median([u[key] * 1e3 for u in units if key in u])
        for name, key in _UNIT_COUNTS.items():
            out[name] = _median([u[key] for u in units if key in u])
        for name, (key, scale) in _CALL_SPANS.items():
            out[name] = _median(self.calls[key]) * scale
        for name, (num, den) in _RATIOS.items():
            out[name] = self.totals[num] / self.totals[den] if self.totals[den] else 0.0
        out["nets.proposals_per_image"] = _median(self.calls["proposals.count"])
        out["train.teacher_cache_mb"] = self.cache_mb
        out["checkpoint.mb"] = _median(self.calls["save.mb"])
        return out
