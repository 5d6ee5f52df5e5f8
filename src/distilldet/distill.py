"""Feature-matching losses that let a frozen teacher supervise a student.

Three hierarchy levels are matched, each as a mean of squared differences
over its own element count: whole pyramid maps (the ``(P2, P3, P4, P5)``
tuples of both nets; dense, low weight), cropped region features at the
student's proposals, and the per-box activations feeding the final
classifier. Each term is ``autodiff.sq_error_sum`` of a student tensor
against the teacher's values: the teacher side is an array, so gradients
flow into the student side only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class DistillConfig:
    """Loss weights of the matching terms; a term is on exactly when its
    weight is positive.

    Region and logit matching always run on the student's proposals, cropped
    in the student's own crop mode (``NetConfig.pyramid_roi``). A term of
    weight 0 contributes exactly zero and builds no graph.
    """

    lambda_pd: float = 0.5
    lambda_rd: float = 30.0
    lambda_ld: float = 30.0

    def __post_init__(self):
        for name in ("lambda_pd", "lambda_rd", "lambda_ld"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")

    @property
    def any_enabled(self) -> bool:
        return self.lambda_pd > 0 or self.lambda_rd > 0 or self.lambda_ld > 0


@dataclass
class DistillReport:
    """Per-term scalar values for one training step."""

    pd: float = 0.0
    rd: float = 0.0
    ld: float = 0.0
    total: float = 0.0


def pyramid_distill_loss(student_pyr, teacher_pyr) -> Tensor:
    """Squared differences summed across all four levels of the student's
    ``(P2, P3, P4, P5)`` pyramid and the teacher's four level arrays, divided
    by the total number of pyramid elements."""
    total = None
    count = 0
    for s, t in zip(student_pyr, teacher_pyr):
        term = ad.sq_error_sum(s, t)
        count += s.data.size
        total = term if total is None else ad.add(total, term)
    return total * (1.0 / count)


def _mean_sq_error(student: Tensor, teacher) -> Tensor:
    """Squared differences of a student tensor and the teacher's array of
    its shape, divided by the element count. RD matches cropped regions
    [R,C,S,S], both sides from the same (student) boxes; LD matches the
    head's [N,L] activations, where dividing by N*L keeps the value
    independent of the head width."""
    return ad.sq_error_sum(student, teacher) * (1.0 / student.data.size)


region_distill_loss = logit_distill_loss = _mean_sq_error


def total_distill_loss(cfg: DistillConfig, pd: Tensor | None, rd: Tensor | None,
                       ld: Tensor | None):
    """Weighted sum of the terms given whose weight is positive, added in
    PD, RD, LD order, plus a value report; the other terms report 0."""
    report = DistillReport()
    total = Tensor(0.0)  # a float64 0-d seed, so the weighted terms are summed in float64
    for name, term, weight in (("pd", pd, cfg.lambda_pd), ("rd", rd, cfg.lambda_rd),
                               ("ld", ld, cfg.lambda_ld)):
        if weight > 0 and term is not None:
            setattr(report, name, term.item())
            total = ad.add(total, term * weight)
    report.total = total.item()
    return total, report
