"""Synthetic street-scene generator with pedestrian-shaped figures.

Scenes are smooth low-contrast background fields plus 1-3 high-contrast
upright figures with pedestrian structure: a narrow head block, a torso, and
two separated legs, each part in its own shade (width about 0.41 of height).
Distractors make the task discriminative rather than a brightness threshold:
uniform vertical poles share the pedestrian aspect ratio but lack the part
structure, and wide low-contrast slabs imitate vehicles. Figures may be
partially covered by a horizontal occluder bar; visibility is the exact
uncovered area fraction of the box, computed from the occluder geometry
rather than from pixels.

Figure heights are drawn from two bands so that, at the fixed occlusion
rate, both evaluation subsets stay well populated. Everything about a scene
is a module constant, its size (``IMAGE_HEIGHT`` x ``IMAGE_WIDTH``) too;
``SceneParams`` holds only the set sizes.

Each background channel is a 9x9 random grid, bilinearly upsampled. The
upsampling's shape-only part (corner weights and grid indices, 0.6 MB at
96x160) is cached read-only per image size. Scenes are byte-identical to the
earlier per-channel code; the per-pixel noise draw is now the largest cost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .autodiff import COMPUTE_DTYPE, Tensor
from .evalmr import GTBox


# Every scene's size in pixels: the figure bands below fit it, and the
# evaluation subsets are rescaled for it (``evalmr.SUBSET_SCALE``).
IMAGE_HEIGHT, IMAGE_WIDTH = 96, 160


@dataclass(frozen=True)
class SceneParams:
    """How many train and test scenes to draw."""

    n_train: int = 200
    n_test: int = 80

    def __post_init__(self):
        for name in ("n_train", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass
class SyntheticScene:
    index: int
    image: Tensor  # [3,H,W] in [0,1], COMPUTE_DTYPE; drawn in float64, then cast
    gts: list
    # What training derives from the scene alone, per flip (False, True), on
    # first use: the RPN anchor assignment (``train``). Not part of the
    # scene's value; it goes when the scene goes.
    rpn_targets: dict = field(default_factory=dict, compare=False, repr=False)


# Height bands in scaled pixels: the lower band sits inside the "small"
# subset height window, the upper band above it.
_SMALL_BAND = (13, 18)
_TALL_BAND = (19, 72)
_SMALL_BAND_FRAC = 0.45
_MIN_FIGURES, _MAX_FIGURES = 1, 3
_FIGURE_ASPECT = 0.41  # width : height
_OCCLUSION_RATE = 0.5
_DISTRACTORS = 3  # at most this many vehicle-like slabs per scene
_NOISE_SIGMA = 0.03
_GRID, _GRID_RANGE = 9, (0.3, 0.7)  # background grid: points per side, value range


@functools.lru_cache(maxsize=4)
def _field_plan(h: int, w: int):
    """Read-only bilinear upsampling of a grid to h x w: the corner weight
    planes [4,H,W] in the order 00, 01, 10, 11, and each pixel's 00 corner
    in the flat grid [H,W]; its other corners sit 1, _GRID and _GRID + 1 on."""
    ys, xs = np.linspace(0, _GRID - 1, h), np.linspace(0, _GRID - 1, w)
    y0, x0 = np.minimum(ys.astype(int), _GRID - 2), np.minimum(xs.astype(int), _GRID - 2)
    fy, fx = (ys - y0)[:, None], (xs - x0)[None, :]
    weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx])
    idx = y0[:, None] * _GRID + x0[None, :]
    weights.flags.writeable = idx.flags.writeable = False
    return weights, idx


def _background(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """[3,H,W] float64: per channel a random grid upsampled by the plan, its
    corner terms summed in the order 00, 01, 10, 11."""
    weights, idx = _field_plan(h, w)
    img, term = np.empty((3, h, w)), np.empty((h, w))
    for chan, grid in zip(img, rng.uniform(*_GRID_RANGE, size=(3, _GRID * _GRID))):
        np.take(grid, idx, out=chan, mode="clip")  # in range; "clip" skips a buffered check
        chan *= weights[0]
        for offset, weight in zip((1, _GRID, _GRID + 1), weights[1:]):
            np.take(grid[offset:], idx, out=term, mode="clip")
            term *= weight
            chan += term
    return img


def _boxes_overlap(a, b, margin: int = 1) -> bool:
    return not (a[2] + margin <= b[0] or b[2] + margin <= a[0]
                or a[3] + margin <= b[1] or b[3] + margin <= a[1])


def _contrast_color(rng: np.random.Generator) -> np.ndarray:
    base = rng.uniform(0.02, 0.20) if rng.random() < 0.5 else rng.uniform(0.80, 0.98)
    return np.clip(base + rng.uniform(-0.06, 0.06, size=3), 0.0, 1.0)


def _draw_figure(img: np.ndarray, x1: int, y1: int, w: int, h: int,
                 rng: np.random.Generator):
    """Head block, torso, and two separated legs, each in its own shade.

    The part layout is what distinguishes a pedestrian from a plain pole of
    the same size and contrast."""
    head_c, torso_c, legs_c = (_contrast_color(rng) for _ in range(3))
    head_h, torso_h = max(1, int(round(0.24 * h))), max(1, int(round(0.36 * h)))
    head_w = max(1, int(round(0.5 * w)))
    head_x = x1 + (w - head_w) // 2
    y_torso, y_legs = y1 + head_h, y1 + head_h + torso_h
    img[:, y1:y_torso, head_x : head_x + head_w] = head_c[:, None, None]
    img[:, y_torso:y_legs, x1 : x1 + w] = torso_c[:, None, None]
    leg_w = max(1, int(round(0.35 * w)))
    img[:, y_legs : y1 + h, x1 : x1 + leg_w] = legs_c[:, None, None]
    img[:, y_legs : y1 + h, x1 + w - leg_w : x1 + w] = legs_c[:, None, None]


def _place_box(rng, placed, fw, fh, tries: int = 40):
    """A free (x1, y1, x2, y2) at least one pixel inside the image, or None
    when every try overlaps. Every box the generator draws fits: the tallest
    figure or pole is 72 px high and at most 30 wide, the widest slab 51."""
    for _ in range(tries):
        x1, y1 = int(rng.integers(1, IMAGE_WIDTH - fw - 1)), int(rng.integers(1, IMAGE_HEIGHT - fh - 1))
        cand = (x1, y1, x1 + fw, y1 + fh)
        if not any(_boxes_overlap(cand, p) for p in placed):
            return cand
    return None


def generate_scene(rng: np.random.Generator, index: int) -> SyntheticScene:
    img = _background(rng, IMAGE_HEIGHT, IMAGE_WIDTH)
    placed: list[tuple] = []

    # wide low-contrast slabs (vehicle-like)
    for _ in range(int(rng.integers(0, _DISTRACTORS + 1))):
        dh = int(rng.integers(5, 14))
        dw = int(rng.integers(2 * dh, 4 * dh))
        box = _place_box(rng, placed, dw, dh, tries=15)
        if box is None:
            continue
        shade = rng.uniform(-0.18, 0.18) + rng.uniform(-0.04, 0.04, size=3)
        region = img[:, box[1] : box[3], box[0] : box[2]]
        np.clip(region + shade[:, None, None], 0.0, 1.0, out=region)
        placed.append(box)

    # upright poles: figure-like height and contrast but structureless and
    # a bit narrower; these are not annotated
    for _ in range(int(rng.integers(0, 4))):
        ph = int(rng.integers(_SMALL_BAND[0], _TALL_BAND[1] + 1))
        pw = max(2, int(round(rng.uniform(0.26, 0.41) * ph)))
        box = _place_box(rng, placed, pw, ph, tries=15)
        if box is None:
            continue
        img[:, box[1] : box[3], box[0] : box[2]] = _contrast_color(rng)[:, None, None]
        placed.append(box)

    gts: list[GTBox] = []
    for _ in range(int(rng.integers(_MIN_FIGURES, _MAX_FIGURES + 1))):
        small_band = rng.random() < _SMALL_BAND_FRAC
        lo, hi = _SMALL_BAND if small_band else _TALL_BAND
        fh = int(rng.integers(lo, hi + 1))
        fw = max(2, int(round(_FIGURE_ASPECT * fh)))
        box = _place_box(rng, placed, fw, fh)
        if box is None:
            continue
        placed.append(box)
        _draw_figure(img, box[0], box[1], fw, fh, rng)

        visibility = 1.0
        if rng.random() < _OCCLUSION_RATE * (1.6 if small_band else 0.8):
            target_vis = rng.uniform(0.35, 0.62) if small_band else rng.uniform(0.45, 0.95)
            bar_px = min(max(int(round((1.0 - target_vis) * fh)), 1), fh - 1)
            visibility = 1.0 - bar_px / fh
            by = box[3] - bar_px if rng.random() < 0.7 else box[1]  # mostly from the bottom
            shade = np.clip(0.5 + rng.uniform(-0.08, 0.08, size=3), 0.0, 1.0)
            img[:, by : by + bar_px, box[0] : box[2]] = shade[:, None, None]
        gts.append(GTBox(*map(float, box), visibility=float(visibility)))

    img += rng.normal(0.0, _NOISE_SIGMA, size=img.shape)
    np.clip(img, 0.0, 1.0, out=img)
    return SyntheticScene(index=index, image=Tensor(img.astype(COMPUTE_DTYPE)), gts=gts)


def generate_dataset(params: SceneParams, seed: int):
    """Deterministic (train, test) scene lists; per-scene derived seeds make
    generation order-independent."""
    def build(start, count):
        return [generate_scene(np.random.default_rng([int(seed), 7919, i]), i)
                for i in range(start, start + count)]

    train, test = build(0, params.n_train), build(params.n_train, params.n_test)
    if not any(s.gts for s in train):
        raise ValueError("dataset parameters admitted zero valid figures")
    return train, test


def annotations_by_image(scenes) -> dict[int, list[GTBox]]:
    return {s.index: list(s.gts) for s in scenes}
