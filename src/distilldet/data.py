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

Figure heights are drawn from two bands so that, at the default occlusion
rate, both evaluation subsets stay well populated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .evalmr import GTBox


@dataclass(frozen=True)
class SceneParams:
    n_train: int = 200
    n_test: int = 80
    image_height: int = 96
    image_width: int = 160
    min_figures: int = 1
    max_figures: int = 3
    occlusion_rate: float = 0.5
    distractors: int = 3
    noise_sigma: float = 0.03
    figure_aspect: float = 0.41  # width : height
    small_band_frac: float = 0.45

    def __post_init__(self):
        if self.image_height % 32 or self.image_width % 32:
            raise ValueError("image sides must be divisible by 32")
        if not (0 < self.min_figures <= self.max_figures):
            raise ValueError("need 1 <= min_figures <= max_figures")
        if not 0.0 <= self.occlusion_rate <= 1.0:
            raise ValueError("occlusion_rate must lie in [0,1]")


@dataclass
class SyntheticScene:
    index: int
    image: Tensor  # [3,H,W] in [0,1]
    gts: list


# Height bands in scaled pixels: the lower band sits inside the "small"
# subset height window, the upper band above it.
_SMALL_BAND = (13, 18)
_TALL_BAND = (19, 72)


def _smooth_field(rng: np.random.Generator, h: int, w: int, cells: int = 8,
                  lo: float = 0.3, hi: float = 0.7) -> np.ndarray:
    """Bilinearly interpolated coarse random grid, one channel."""
    gh, gw = cells + 1, cells + 1
    grid = rng.uniform(lo, hi, size=(gh, gw))
    ys = np.linspace(0, gh - 1, h)
    xs = np.linspace(0, gw - 1, w)
    y0 = np.minimum(ys.astype(int), gh - 2)
    x0 = np.minimum(xs.astype(int), gw - 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    g00 = grid[y0][:, x0]
    g01 = grid[y0][:, x0 + 1]
    g10 = grid[y0 + 1][:, x0]
    g11 = grid[y0 + 1][:, x0 + 1]
    return (1 - fy) * (1 - fx) * g00 + (1 - fy) * fx * g01 + fy * (1 - fx) * g10 + fy * fx * g11


def _boxes_overlap(a, b, margin: int = 1) -> bool:
    return not (
        a[2] + margin <= b[0] or b[2] + margin <= a[0]
        or a[3] + margin <= b[1] or b[3] + margin <= a[1]
    )


def _contrast_color(rng: np.random.Generator) -> np.ndarray:
    dark = rng.random() < 0.5
    base = rng.uniform(0.02, 0.20) if dark else rng.uniform(0.80, 0.98)
    return np.clip(base + rng.uniform(-0.06, 0.06, size=3), 0.0, 1.0)


def _draw_figure(img: np.ndarray, x1: int, y1: int, w: int, h: int,
                 rng: np.random.Generator):
    """Head block, torso, and two separated legs, each in its own shade.

    The part layout is what distinguishes a pedestrian from a plain pole of
    the same size and contrast."""
    head_c = _contrast_color(rng)
    torso_c = _contrast_color(rng)
    legs_c = _contrast_color(rng)
    head_h = max(1, int(round(0.24 * h)))
    torso_h = max(1, int(round(0.36 * h)))
    head_w = max(1, int(round(0.5 * w)))
    head_x = x1 + (w - head_w) // 2
    y_torso = y1 + head_h
    y_legs = y_torso + torso_h
    img[:, y1:y_torso, head_x : head_x + head_w] = head_c[:, None, None]
    img[:, y_torso:y_legs, x1 : x1 + w] = torso_c[:, None, None]
    leg_w = max(1, int(round(0.35 * w)))
    img[:, y_legs : y1 + h, x1 : x1 + leg_w] = legs_c[:, None, None]
    img[:, y_legs : y1 + h, x1 + w - leg_w : x1 + w] = legs_c[:, None, None]


def _place_box(rng, placed, w, h, fw, fh, tries: int = 40):
    """A free (x1, y1, x2, y2) at least one pixel inside the image, or None
    when the box is too big for the image or every try overlaps."""
    if fw > w - 3 or fh > h - 3:
        return None
    for _ in range(tries):
        x1 = int(rng.integers(1, w - fw - 1))
        y1 = int(rng.integers(1, h - fh - 1))
        cand = (x1, y1, x1 + fw, y1 + fh)
        if not any(_boxes_overlap(cand, p) for p in placed):
            return cand
    return None


def generate_scene(params: SceneParams, rng: np.random.Generator, index: int = 0) -> SyntheticScene:
    h, w = params.image_height, params.image_width
    img = np.stack([_smooth_field(rng, h, w) for _ in range(3)])
    placed: list[tuple] = []

    # wide low-contrast slabs (vehicle-like)
    for _ in range(int(rng.integers(0, params.distractors + 1))):
        dh = int(rng.integers(5, 14))
        dw = min(int(rng.integers(2 * dh, 4 * dh)), w - 3)
        box = _place_box(rng, placed, w, h, dw, dh, tries=15)
        if box is None:
            continue
        shade = rng.uniform(-0.18, 0.18) + rng.uniform(-0.04, 0.04, size=3)
        img[:, box[1] : box[3], box[0] : box[2]] = np.clip(
            img[:, box[1] : box[3], box[0] : box[2]] + shade[:, None, None], 0.0, 1.0
        )
        placed.append(box)

    # upright poles: figure-like height and contrast but structureless and
    # a bit narrower; these are not annotated
    for _ in range(int(rng.integers(0, 4))):
        ph = int(rng.integers(_SMALL_BAND[0], _TALL_BAND[1] + 1))
        pw = max(2, int(round(rng.uniform(0.26, 0.41) * ph)))
        box = _place_box(rng, placed, w, h, pw, ph, tries=15)
        if box is None:
            continue
        img[:, box[1] : box[3], box[0] : box[2]] = _contrast_color(rng)[:, None, None]
        placed.append(box)

    n_figs = int(rng.integers(params.min_figures, params.max_figures + 1))
    gts: list[GTBox] = []
    for _ in range(n_figs):
        small_band = rng.random() < params.small_band_frac
        lo, hi = _SMALL_BAND if small_band else _TALL_BAND
        fh = int(rng.integers(lo, hi + 1))
        fw = max(2, int(round(params.figure_aspect * fh)))
        box = _place_box(rng, placed, w, h, fw, fh)
        if box is None:
            continue
        placed.append(box)
        _draw_figure(img, box[0], box[1], fw, fh, rng)

        occ_prob = params.occlusion_rate * (1.6 if small_band else 0.8)
        visibility = 1.0
        if rng.random() < min(occ_prob, 1.0):
            target_vis = rng.uniform(0.35, 0.62) if small_band else rng.uniform(0.45, 0.95)
            bar_px = int(round((1.0 - target_vis) * fh))
            bar_px = min(max(bar_px, 1), fh - 1)
            visibility = 1.0 - bar_px / fh
            from_bottom = rng.random() < 0.7
            by = box[3] - bar_px if from_bottom else box[1]
            shade = np.clip(0.5 + rng.uniform(-0.08, 0.08, size=3), 0.0, 1.0)
            img[:, by : by + bar_px, box[0] : box[2]] = shade[:, None, None]
        gts.append(GTBox(float(box[0]), float(box[1]), float(box[2]), float(box[3]),
                         visibility=float(visibility)))

    if params.noise_sigma > 0:
        img += rng.normal(0.0, params.noise_sigma, size=img.shape)
    np.clip(img, 0.0, 1.0, out=img)
    return SyntheticScene(index=index, image=Tensor(img), gts=gts)


def generate_dataset(params: SceneParams, seed: int):
    """Deterministic (train, test) scene lists; per-scene derived seeds make
    generation order-independent."""
    def build(start, count):
        scenes = []
        for i in range(start, start + count):
            rng = np.random.default_rng([int(seed), 7919, i])
            scenes.append(generate_scene(params, rng, index=i))
        return scenes

    train = build(0, params.n_train)
    test = build(params.n_train, params.n_test)
    if not any(s.gts for s in train):
        raise ValueError("dataset parameters admitted zero valid figures")
    return train, test


def annotations_by_image(scenes) -> dict[int, list[GTBox]]:
    return {s.index: list(s.gts) for s in scenes}
