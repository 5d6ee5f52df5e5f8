"""The benchmark's workloads, its one-off build and the measuring loop.

Each workload sets up several times (the median is ``setup_s``), then runs
one untimed warm-up unit and timed units until the run's seconds are used,
rotating over a few seed-derived scene sets, and checks every unit's outputs. A unit is one call
into the library's public API:

- ``teacher_train``: ``train.train_teacher`` on a small scene set;
- ``distill_full``: ``train.distill_student`` for ablation row 8 (PD+RD+LD,
  PyRoIAlign, matching on proposals) against the built teacher;
- ``detect_eval``: ``nets.detect`` with the built student and teacher on
  every test scene, then ``evalmr.evaluate`` on both subsets;
- ``ablate_mini``: ``experiments.run_ablation`` in a fresh directory.

The nets that ``detect_eval`` and ``distill_full`` load are trained once per
source tree (the build), far enough that the student's MR-reasonable is
below 1.0; they live in the cache directory keyed by a digest of the
sources, so a change to the library or the benchmark trains them again.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from distilldet import checkpoint, data, evalmr, experiments, nets, train
from distilldet.config import RunConfig, dump_config
from distilldet.data import SceneParams, annotations_by_image
from distilldet.distill import DistillConfig
from distilldet.evalmr import SUBSETS
from distilldet.train import TrainConfig

from probe import Clock, Patcher, Tracer

# Every workload the harness can run. BENCHMARK.json declares only
# detect_eval and ablate_mini: on a 2-core box shared with other tenants, the
# four together leave too little run time each to be steady.
WORKLOADS = ("teacher_train", "distill_full", "detect_eval", "ablate_mini")

# Scene counts and epochs per scale; net configs and image size stay at the
# library defaults, so the cost of one step is what users pay. "tiny" exists
# for the smoke test.
SIZES = {
    "full": dict(train=16, test=24, epochs=2, detect_test=50, ablate_train=4, ablate_test=7,
                 build_train=64, build_test=32, build_epochs=4, setups=5),
    "tiny": dict(train=2, test=2, epochs=2, detect_test=2, ablate_train=2, ablate_test=2,
                 build_train=2, build_test=2, build_epochs=1, setups=2),
}
# Units rotate over this many seed-derived scene sets, and the loss and MR
# metrics average over them: one small set alone varies too much by seed.
# Each set runs at least REPEATS times, so that its results can be checked
# to repeat exactly.
SLICES = 2
REPEATS = 2
BUILD_SEED = 190909325  # far from any workload seed, so build scenes never recur in a run
ROW8 = experiments.distill_config_for_row(DistillConfig(), experiments.ABLATION_ROWS[7])
ROW2 = experiments.distill_config_for_row(DistillConfig(), experiments.ABLATION_ROWS[1])

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p90", "ms", "lower"),
    ("samples_per_s", "images/s", "higher"),
    ("detect_ms_p50", "ms/image", "lower"),
    ("detect_ms_p90", "ms/image", "lower"),
    ("teacher_detect_ms_p50", "ms/image", "lower"),
    ("images_per_s", "images/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("final_loss", "loss", "lower"),
    ("mr_reasonable", "MR", "lower"),
    ("mr_small", "MR", "lower"),
)


def train_config(epochs: int, seed: int, distill: DistillConfig = ROW8) -> TrainConfig:
    """Default training settings for ``epochs`` epochs at a constant
    learning rate (a shrunk schedule trains better without the decay)."""
    return TrainConfig(epochs=epochs, lr_decay_epochs=(), seed=seed, distill=distill)


def config_sha256(cfg: RunConfig) -> str:
    return hashlib.sha256(dump_config(replace(cfg, out_dir="-")).encode()).hexdigest()


def source_digest(source_root: str) -> str:
    """sha256 over the library sources and this file, which holds the build recipe."""
    library = os.path.join(source_root, "src", "distilldet")
    paths = [os.path.join(library, n) for n in sorted(os.listdir(library)) if n.endswith(".py")]
    digest = hashlib.sha256()
    for path in paths + [os.path.abspath(__file__)]:
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def last_epoch_loss(records) -> float:
    """Mean supervised plus weighted matching loss over the last epoch."""
    last = max(r.epoch for r in records)
    return float(np.mean([r.det_loss + r.rpn_loss + r.distill.total
                          for r in records if r.epoch == last]))


def records_finite(records) -> bool:
    return all(math.isfinite(r.det_loss + r.rpn_loss + r.distill.total) for r in records)


def image4(scene):
    h, w = scene.image.data.shape[-2:]
    return scene.image.reshape((1, 3, h, w))


def detections_digest(dets_in_order) -> str:
    digest = hashlib.sha256()
    for dets in dets_in_order:
        digest.update(np.array([[d.x1, d.y1, d.x2, d.y2, d.score] for d in dets],
                               dtype="<f8").tobytes() + b"|")
    return digest.hexdigest()


def params_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].data.dtype == b[k].data.dtype and a[k].data.tobytes() == b[k].data.tobytes() for k in a
    )


# ---- build ---------------------------------------------------------------


def build_path(cache_root: str, scale: str, source_root: str) -> str:
    return os.path.join(cache_root, f"build-{scale}-{source_digest(source_root)[:16]}")


def make_build(path: str, scale: str):
    """Train the teacher and the student that later runs load.

    The student is ablation row 2 (no matching, all-level crops): the same
    architecture as row 8, so it detects at the same cost, but it trains
    twice as fast and to a lower miss rate."""
    size = SIZES[scale]
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cfg = RunConfig(dataset=SceneParams(n_train=size["build_train"], n_test=size["build_test"]),
                    train=train_config(size["build_epochs"], BUILD_SEED, distill=ROW2))
    train_scenes, test_scenes = data.generate_dataset(cfg.dataset, BUILD_SEED)
    t0 = perf_counter()
    train.train_teacher(train_scenes, cfg.teacher, cfg.train, os.path.join(tmp, "teacher.ckpt"))
    _, records, _ = train.distill_student(train_scenes, os.path.join(tmp, "teacher.ckpt"), cfg.train,
                                          os.path.join(tmp, "student.ckpt"), student_cfg=cfg.student)
    train_s = perf_counter() - t0
    mrs, _, _ = experiments.evaluate_checkpoint(os.path.join(tmp, "student.ckpt"), test_scenes)
    if scale == "full" and not mrs["reasonable"] < 1.0:
        raise RuntimeError(f"built student MR-reasonable {mrs['reasonable']:.4f} is not below 1.0")
    info = {"final_loss": last_epoch_loss(records), "mr": mrs, "train_s": train_s,
            "run_config_sha256": config_sha256(cfg)}
    with open(os.path.join(tmp, "build.json"), "w") as fh:
        json.dump(info, fh, sort_keys=True)
    try:
        os.rename(tmp, path)
    except OSError:  # another run finished the same build first
        shutil.rmtree(tmp, ignore_errors=True)


def ensure_build(cache_root: str, scale: str, source_root: str, in_process: bool) -> str:
    path = build_path(cache_root, scale, source_root)
    if not os.path.exists(os.path.join(path, "build.json")):
        os.makedirs(cache_root, exist_ok=True)
        if in_process:
            make_build(path, scale)
        else:
            # A child process keeps the build's memory out of this run's peak RSS.
            import subprocess
            subprocess.run([sys.executable, os.path.join(source_root, "perfbench", "run.py"),
                            "--build", "--scale", scale, "--cache-root", cache_root],
                           check=True, timeout=900)
    return path


# ---- inputs --------------------------------------------------------------


def has_subset_boxes(scenes) -> bool:
    """MR is undefined for a subset with no box in it."""
    return all(any(evalmr.subset_member(g, s) for scene in scenes for g in scene.gts)
               for s in SUBSETS)


def scene_set(params: SceneParams, seed: int, k: int):
    """(seed, train, test) of the run's k-th scene set.

    The set's seed is the first of a fixed candidate list whose test scenes
    hold boxes of both subsets, so the same run seed always gives the same
    scenes and scoring never fails for lack of boxes."""
    for j in range(100):
        set_seed = seed * 1000 + k * 100 + j
        try:
            train_scenes, test_scenes = data.generate_dataset(params, set_seed)
        except ValueError:  # no figure could be placed in any training scene
            continue
        if has_subset_boxes(test_scenes):
            return set_seed, train_scenes, test_scenes
    raise RuntimeError(f"no usable scene set for seed {seed}")


# ---- measuring -----------------------------------------------------------


@dataclass
class Timing:
    """What one unit took. ``steps`` holds training steps, or per-image
    detect steps on forward-only workloads; ``detect`` holds detect calls
    per role. A repeat of the unit lists the same steps in the same order."""

    wall: float = 0.0
    samples: int = 0
    eval_images: int = 0
    eval_s: float = 0.0
    steps: list = field(default_factory=list)
    detect: dict = field(default_factory=dict)


def item_medians(repeats: list) -> tuple[list, dict]:
    """Each timed item's median over the repeats of one unit: (steps, detect
    calls per role). Other tenants of a small machine slow it for seconds to
    minutes at a time; an item's median over repeats spread across the run
    is its typical cost, which such bursts move less than a pooled
    percentile or the fastest repeat, which depends on whether the run
    caught a quiet moment."""
    def per_item(lists):
        if len({len(x) for x in lists}) != 1:
            raise ValueError("repeats of one unit timed different numbers of items")
        return list(np.median(np.array(lists), axis=0)) if lists[0] else []

    return (per_item([t.steps for t in repeats]),
            {role: per_item([t.detect.get(role, []) for t in repeats]) for role in ("student", "teacher")})


@dataclass
class Phase:
    """Everything one measured phase (untraced or traced) recorded."""

    setup_s: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)  # scene set -> Timing of each repeat
    attempted: int = 0
    failed: int = 0
    outcomes: dict = field(default_factory=dict)  # scene set -> (fingerprint, loss, MR per subset)
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)

    def record(self, k: int, fingerprint, loss: float, mrs: dict):
        """Check one unit's results; a repeated scene set must repeat them exactly."""
        self.check(math.isfinite(loss), f"non-finite final loss {loss}")
        for s in SUBSETS:
            self.check(0.0 <= mrs[s] <= 1.0, f"MR-{s} {mrs[s]} outside [0,1]")
        outcome = (fingerprint, loss, tuple(mrs[s] for s in SUBSETS))
        self.check(self.outcomes.setdefault(k, outcome) == outcome,
                   f"scene set {k} gave other results when repeated")

    def quality(self) -> dict:
        """final_loss and MR, each the mean over the scene sets."""
        rows = [self.outcomes[k] for k in sorted(self.outcomes)]
        if not rows:
            return {"final_loss": float("nan"), "mr_reasonable": float("nan"), "mr_small": float("nan")}
        return {"final_loss": float(np.mean([r[1] for r in rows])),
                "mr_reasonable": float(np.mean([r[2][0] for r in rows])),
                "mr_small": float(np.mean([r[2][1] for r in rows]))}

    def fingerprint(self) -> list:
        return [self.outcomes[k][0] for k in sorted(self.outcomes)]


class Workload:
    """One workload: ``setup`` prepares every scene set, ``unit(phase, k)``
    runs and checks one unit of work on scene set ``k``."""

    name = ""
    trains = True

    def __init__(self, seed: int, scale: str, work_dir: str, build: str):
        self.seed = seed
        self.size = SIZES[scale]
        self.work_dir = work_dir
        self.build = build
        self.clock: Clock | None = None
        self.tracer: Tracer | None = None

    def config(self) -> RunConfig:
        raise NotImplementedError

    def setup(self):
        cfg = self.config()
        self.sets = [scene_set(cfg.dataset, self.seed, k) for k in range(SLICES)]

    def unit(self, phase: Phase, k: int, timing: Timing):
        raise NotImplementedError

    def unit_items(self, k: int) -> int:
        """Steps plus images one unit attempts; counted as failed if it raises."""
        raise NotImplementedError

    def score(self, timing: Timing, role: str, net_cfg, params, scenes) -> dict:
        """Detect every scene and evaluate both subsets; returns MR per subset."""
        self.clock.role = role
        t0 = perf_counter()
        dets = {scene.index: nets.detect(image4(scene), net_cfg, params) for scene in scenes}
        gts = annotations_by_image(scenes)
        mrs = {s: evalmr.evaluate(dets, gts, s).log_avg_mr for s in SUBSETS}
        timing.eval_s += perf_counter() - t0
        timing.eval_images += len(scenes)
        return mrs


class TeacherTrain(Workload):
    """The widest net, no matching: the control for distillation layers."""

    name = "teacher_train"

    def config(self):
        return RunConfig(dataset=SceneParams(n_train=self.size["train"], n_test=self.size["test"]),
                         train=train_config(self.size["epochs"], self.seed))

    def unit_items(self, k):
        return self.size["train"] * self.size["epochs"] + self.size["test"]

    def unit(self, phase, k, timing):
        set_seed, train_scenes, test_scenes = self.sets[k]
        cfg = self.config().with_seed(set_seed)
        ckpt = os.path.join(self.work_dir, "teacher.ckpt")
        t0 = perf_counter()
        params, records = train.train_teacher(train_scenes, cfg.teacher, cfg.train, ckpt)
        timing.wall = perf_counter() - t0
        timing.samples = len(records)
        phase.check(records_finite(records), "non-finite training loss")
        _, loaded = checkpoint.load_checkpoint(ckpt)
        phase.check(params_equal(params, loaded), "checkpoint does not load back bit-equal")
        mrs = self.score(timing, "teacher", cfg.teacher, loaded, test_scenes)
        phase.record(k, checkpoint.checkpoint_hash(ckpt), last_epoch_loss(records), mrs)


class DistillFull(Workload):
    """Row 8 on a small student: matching, extra crops and the teacher cache
    are a large share of each step. Two epochs, so the cache misses and hits."""

    name = "distill_full"

    def config(self):
        return RunConfig(dataset=SceneParams(n_train=self.size["train"], n_test=self.size["test"]),
                         train=train_config(self.size["epochs"], self.seed))

    def setup(self):
        super().setup()
        meta, params = checkpoint.load_checkpoint(os.path.join(self.build, "teacher.ckpt"))
        self.teacher_ckpt = os.path.join(self.work_dir, "teacher.ckpt")
        checkpoint.save_checkpoint(self.teacher_ckpt, params, meta=meta)
        meta, self.teacher_params = checkpoint.load_checkpoint(self.teacher_ckpt)
        self.teacher_cfg = train._cfg_from_meta(meta)
        self.setup_ok = params_equal(params, self.teacher_params)

    def unit_items(self, k):
        return self.size["train"] * self.size["epochs"] + 2 * self.size["test"]

    def unit(self, phase, k, timing):
        phase.check(self.setup_ok, "teacher checkpoint does not load back bit-equal")
        set_seed, train_scenes, test_scenes = self.sets[k]
        cfg = self.config().with_seed(set_seed)
        ckpt = os.path.join(self.work_dir, "student.ckpt")
        t0 = perf_counter()
        params, records, student_cfg = train.distill_student(
            train_scenes, self.teacher_ckpt, cfg.train, ckpt, student_cfg=cfg.student)
        timing.wall = perf_counter() - t0
        timing.samples = len(records)
        phase.check(records_finite(records), "non-finite training loss")
        _, loaded = checkpoint.load_checkpoint(ckpt)
        phase.check(params_equal(params, loaded), "checkpoint does not load back bit-equal")
        mrs = self.score(timing, "student", student_cfg, loaded, test_scenes)
        self.clock.role = "teacher"
        for scene in test_scenes:
            nets.detect(image4(scene), self.teacher_cfg, self.teacher_params)
        phase.record(k, checkpoint.checkpoint_hash(ckpt), last_epoch_loss(records), mrs)


class DetectEval(Workload):
    """Forward only: proposals, NMS and scoring, no graph, backward or SGD."""

    name = "detect_eval"
    trains = False

    def config(self):
        return RunConfig(dataset=SceneParams(n_train=1, n_test=self.size["detect_test"]),
                         train=train_config(self.size["build_epochs"], self.seed, distill=ROW2))

    def setup(self):
        super().setup()
        self.nets = {}
        self.setup_ok = True
        for role in ("student", "teacher"):
            meta, params = checkpoint.load_checkpoint(os.path.join(self.build, f"{role}.ckpt"))
            path = os.path.join(self.work_dir, f"{role}.ckpt")
            checkpoint.save_checkpoint(path, params, meta=meta)
            meta, loaded = checkpoint.load_checkpoint(path)
            self.setup_ok &= params_equal(params, loaded)
            self.nets[role] = (train._cfg_from_meta(meta), loaded)
        with open(os.path.join(self.build, "build.json")) as fh:
            self.build_loss = json.load(fh)["final_loss"]

    def unit_items(self, k):
        return 2 * self.size["detect_test"]

    def unit(self, phase, k, timing):
        phase.check(self.setup_ok, "checkpoint does not load back bit-equal")
        test_scenes = self.sets[k][2]
        if self.tracer is not None:
            self.tracer.discard()
        dets = {"student": {}, "teacher": {}}
        t_unit = perf_counter()
        for scene in test_scenes:
            t0 = perf_counter()
            for role, (cfg, params) in self.nets.items():
                self.clock.role = role
                dets[role][scene.index] = nets.detect(image4(scene), cfg, params)
            timing.steps.append((perf_counter() - t0) * 1e3)
            if self.tracer is not None:
                self.tracer.end_image()
        student_detect_s = sum(self.clock.detect_ms["student"][-len(test_scenes):]) / 1e3
        gts = annotations_by_image(test_scenes)
        mrs = {}
        for role in ("student", "teacher"):
            t0 = perf_counter()
            mrs[role] = {s: evalmr.evaluate(dets[role], gts, s).log_avg_mr for s in SUBSETS}
            if role == "student":
                timing.eval_s = student_detect_s + perf_counter() - t0
                timing.eval_images = len(test_scenes)
        timing.wall = perf_counter() - t_unit
        timing.samples = len(test_scenes)
        phase.check(all(0.0 <= v <= 1.0 for v in mrs["teacher"].values()), "teacher MR outside [0,1]")
        digests = tuple(detections_digest(dets[role][s.index] for s in test_scenes) for role in dets)
        phase.record(k, digests, self.build_loss, mrs["student"])


class AblateMini(Workload):
    """The whole 8-row ablation: teacher training, every matching term, the
    single-level crop path (rows 1, 4, 7), the teacher cache over two epochs,
    checkpoint I/O and the experiments orchestration."""

    name = "ablate_mini"

    def config(self):
        return RunConfig(dataset=SceneParams(n_train=self.size["ablate_train"],
                                             n_test=self.size["ablate_test"]),
                         train=train_config(self.size["epochs"], self.seed), out_dir="-")

    def unit_items(self, k):
        rows = len(experiments.ABLATION_ROWS)
        steps = (rows + 1) * self.size["ablate_train"] * self.size["epochs"]
        return steps + rows * self.size["ablate_test"] + self.size["ablate_train"] + self.size["ablate_test"]

    def unit(self, phase, k, timing):
        set_seed, train_scenes, test_scenes = self.sets[k]
        # ensure_teacher reuses <out>/teacher.ckpt, so every unit needs a fresh directory.
        out_dir = tempfile.mkdtemp(prefix="ablate-", dir=self.work_dir)
        try:
            self.clock.role = "student"
            steps0 = self.clock.steps
            images0, eval0 = self.clock.eval_images, self.clock.eval_s
            t0 = perf_counter()
            rows = experiments.run_ablation(self.config().with_seed(set_seed).with_out_dir(out_dir))
            timing.wall = perf_counter() - t0
            timing.samples = self.clock.steps - steps0
            timing.eval_images = self.clock.eval_images - images0
            timing.eval_s = self.clock.eval_s - eval0
            self.check_ablation(phase, k, rows, out_dir, train_scenes + test_scenes)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def check_ablation(self, phase, k, rows, out_dir, scenes):
        phase.check(len(rows) == len(experiments.ABLATION_ROWS), "ablation table is incomplete")
        for _, mr_r, mr_s in rows:
            phase.check(0.0 <= mr_r <= 1.0 and 0.0 <= mr_s <= 1.0, "MR outside [0,1]")
        losses = []
        for name in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, name)
            if name.endswith(".jsonl"):
                with open(path) as fh:
                    recs = [json.loads(line) for line in fh]
                phase.check(all(math.isfinite(r["det_loss"] + r["rpn_loss"] + r["dist_total"])
                                for r in recs), f"non-finite loss in {name}")
                last = max(r["epoch"] for r in recs)
                losses += [r["det_loss"] + r["rpn_loss"] for r in recs if r["epoch"] == last]
            elif name.endswith(".ckpt"):
                meta, params = checkpoint.load_checkpoint(path)
                again = os.path.join(out_dir, "roundtrip.tmp")
                checkpoint.save_checkpoint(again, params, meta=meta)
                phase.check(checkpoint.checkpoint_hash(again) == checkpoint.checkpoint_hash(path),
                            f"{name} does not load back bit-equal")
                if name == "teacher.ckpt":
                    teacher = (train._cfg_from_meta(meta), params)
        self.clock.role = "teacher"
        for scene in scenes:
            nets.detect(image4(scene), *teacher)
        table = [[experiments.row_tag(flags), repr(mr_r), repr(mr_s)] for flags, mr_r, mr_s in rows]
        # Supervised loss only: this early in training the matching terms
        # swing by more than the metric's bound from seed to seed.
        phase.record(k, json.dumps(table), float(np.mean(losses)),
                     {"reasonable": rows[-1][1], "small": rows[-1][2]})


CLASSES = {cls.name: cls for cls in (TeacherTrain, DistillFull, DetectEval, AblateMini)}


def measure(wl: Workload, seconds: float, setups: int, traced: bool) -> tuple[Phase, Tracer | None]:
    """Set up ``setups`` times, then run units, rotating over the scene sets,
    until ``seconds`` have passed and every set has run ``REPEATS`` times.
    The first unit warms caches and lazy set-up: it is checked, not timed,
    and the seconds start after it."""
    phase = Phase()
    patcher = Patcher()
    wl.clock = Clock()
    wl.tracer = Tracer() if traced else None
    wl.clock.install(patcher)
    if wl.tracer is not None:
        wl.tracer.install(patcher)
    try:
        for _ in range(setups):
            t0 = perf_counter()
            wl.setup()
            phase.setup_s.append(perf_counter() - t0)
        start = None
        n = 0
        while start is None or n <= SLICES * REPEATS or perf_counter() - start < seconds:
            k = n % SLICES
            items = wl.unit_items(k)
            phase.attempted += items
            clock = wl.clock
            marks = len(clock.step_ms), {role: len(v) for role, v in clock.detect_ms.items()}
            timing = Timing()
            try:
                wl.unit(phase, k, timing)
            except Exception:  # a failed unit is counted and reported; the run goes on
                phase.failed += items
                phase.problems.append(traceback.format_exc())
            else:
                if wl.trains:
                    timing.steps = clock.step_ms[marks[0]:]
                timing.detect = {role: v[marks[1][role]:] for role, v in clock.detect_ms.items()}
                if start is not None:
                    phase.timings.setdefault(k, []).append(timing)
            if start is None:
                start = perf_counter()
            n += 1
    finally:
        patcher.restore()
    phase.check(wl.clock.bad_detections == 0, f"{wl.clock.bad_detections} malformed detection lists")
    return phase, wl.tracer


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def end_to_end_metrics(phase: Phase) -> dict:
    """The p50 and p90 metrics are over items' medians (``item_medians``);
    ``wall_s`` is the median unit time, and rates divide run totals."""
    timings = [t for k in sorted(phase.timings) for t in phase.timings[k]]
    try:
        medians = [item_medians(phase.timings[k]) for k in sorted(phase.timings)]
    except ValueError as exc:
        phase.problems.append(str(exc))
        medians = []
    steps = [ms for item_steps, _ in medians for ms in item_steps]
    detect = {role: [ms for _, calls in medians for ms in calls[role]] for role in ("student", "teacher")}
    wall = sum(t.wall for t in timings)
    eval_s = sum(t.eval_s for t in timings)
    values = {
        "setup_s": statistics.median(phase.setup_s),
        "wall_s": statistics.median([t.wall for t in timings]) if timings else float("nan"),
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
        "samples_per_s": sum(t.samples for t in timings) / wall if wall else float("nan"),
        "detect_ms_p50": percentile(detect["student"] or detect["teacher"], 50),
        "detect_ms_p90": percentile(detect["student"] or detect["teacher"], 90),
        "teacher_detect_ms_p50": percentile(detect["teacher"], 50),
        "images_per_s": sum(t.eval_images for t in timings) / eval_s if eval_s else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **phase.quality(),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in END_TO_END}
