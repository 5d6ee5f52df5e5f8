"""Matching-loss identities, teacher isolation, and weighting arithmetic."""

import numpy as np
import pytest

from distilldet import Tape, Tensor, backward
from distilldet.distill import (
    DistillConfig,
    logit_distill_loss,
    pyramid_distill_loss,
    region_distill_loss,
    total_distill_loss,
)


def _pyr(arrays):
    return tuple(Tensor(a, requires_grad=True) for a in arrays)


def _rand_levels(rng, d=3):
    return [rng.normal(size=(d, 8 // f, 8 // f)) for f in (1, 2, 4, 4)]


class TestPyramidLoss:
    def test_identical_pyramids_exact_zero(self, rng):
        arrays = _rand_levels(rng)
        loss = pyramid_distill_loss(_pyr(arrays), [a.copy() for a in arrays])
        assert loss.item() == 0.0

    def test_single_element_level_value_four(self):
        s = [np.full((1, 1, 1), 1.0)] * 4
        t = [np.full((1, 1, 1), 3.0)] * 4
        # each level contributes (1-3)^2 = 4 over a total count of 4
        loss = pyramid_distill_loss(_pyr(s), t)
        assert loss.item() == pytest.approx(4.0, abs=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        s = _rand_levels(rng)
        t = _rand_levels(rng)
        t[2] = t[2][:, :1, :]
        with pytest.raises(Exception):
            pyramid_distill_loss(_pyr(s), t)


class TestLogitLoss:
    def test_single_proposal_example(self):
        # per-proposal mean of squares: ((1-1)^2 + (2-4)^2) / 2 = 2
        loss = logit_distill_loss(Tensor([[1.0, 2.0]], requires_grad=True), [[1.0, 4.0]])
        assert loss.item() == pytest.approx(2.0, abs=1e-12)

    def test_identical_logits_zero(self, rng):
        a = rng.normal(size=(5, 8))
        assert logit_distill_loss(Tensor(a, requires_grad=True), a.copy()).item() == 0.0

    def test_count_mismatch_rejected(self, rng):
        with pytest.raises(Exception):
            logit_distill_loss(Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                               rng.normal(size=(2, 4)))


class TestRegionLoss:
    def test_identical_regions_zero(self, rng):
        a = rng.normal(size=(4, 2, 3, 3))
        loss = region_distill_loss(Tensor(a, requires_grad=True), a.copy())
        assert loss.item() == 0.0


class TestTeacherIsolation:
    def test_only_student_tensors_are_recorded_and_teacher_arrays_stay_put(self, rng):
        arrays = _rand_levels(rng)
        s_pyr = _pyr([a + 0.1 for a in arrays])
        s_logit = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        s_reg = Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
        t_logit = rng.normal(size=(3, 6))
        t_reg = rng.normal(size=(3, 2, 2, 2))
        teacher = [a.copy() for a in (*arrays, t_logit, t_reg)]

        pd = pyramid_distill_loss(s_pyr, arrays)
        rd = region_distill_loss(s_reg, t_reg)
        ld = logit_distill_loss(s_logit, t_logit)
        total, _ = total_distill_loss(DistillConfig(), pd, rd, ld)
        leaves = [n for n in Tape(total).nodes if n._backward is None]
        assert {id(n) for n in leaves} == {id(s) for s in (*s_pyr, s_logit, s_reg)}
        backward(total)

        for t, before in zip((*arrays, t_logit, t_reg), teacher):
            assert np.array_equal(t, before)
        assert all(np.abs(s.grad).sum() > 0 for s in (*s_pyr, s_logit, s_reg))


class TestValueSymmetry:
    def test_swapping_operands_keeps_values(self, rng):
        arrays = _rand_levels(rng)
        other = _rand_levels(rng)
        a = pyramid_distill_loss(_pyr(arrays), other).item()
        b = pyramid_distill_loss(_pyr(other), arrays).item()
        assert a == pytest.approx(b, rel=1e-12)

        x = rng.normal(size=(4, 5))
        y = rng.normal(size=(4, 5))
        assert logit_distill_loss(Tensor(x, requires_grad=True), y).item() == pytest.approx(
            logit_distill_loss(Tensor(y, requires_grad=True), x).item(), rel=1e-12
        )


class TestTotalLoss:
    def test_weighted_sum_with_reference_lambdas(self):
        cfg = DistillConfig(lambda_pd=0.5, lambda_rd=30.0, lambda_ld=30.0)
        total, report = total_distill_loss(cfg, Tensor(0.2), Tensor(0.01), Tensor(0.02))
        assert total.item() == pytest.approx(1.0, abs=1e-12)
        assert report.pd == pytest.approx(0.2)
        assert report.rd == pytest.approx(0.01)
        assert report.ld == pytest.approx(0.02)
        assert report.total == pytest.approx(1.0)

    def test_all_weights_zero_is_zero_and_graphless(self):
        cfg = DistillConfig(lambda_pd=0.0, lambda_rd=0.0, lambda_ld=0.0)
        terms = [Tensor(5.0, requires_grad=True) for _ in range(3)]
        total, report = total_distill_loss(cfg, *terms)
        assert total.item() == 0.0
        assert not total.requires_grad
        assert (report.pd, report.rd, report.ld, report.total) == (0.0, 0.0, 0.0, 0.0)
        assert not cfg.any_enabled

    def test_single_term_reduces_to_that_loss(self, rng):
        cfg = DistillConfig(lambda_pd=1.0, lambda_rd=0.0, lambda_ld=0.0)
        arrays = _rand_levels(rng)
        pd = pyramid_distill_loss(_pyr(arrays), _rand_levels(rng))
        total, _ = total_distill_loss(cfg, pd, None, None)
        assert total.item() == pytest.approx(pd.item(), rel=1e-12)

    def test_lambda_scaling_is_exact(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        base = total_distill_loss(
            DistillConfig(lambda_pd=0.0, lambda_rd=0.0, lambda_ld=2.0),
            None, None, logit_distill_loss(Tensor(a, requires_grad=True), b),
        )[0].item()
        scaled = total_distill_loss(
            DistillConfig(lambda_pd=0.0, lambda_rd=0.0, lambda_ld=6.0),
            None, None, logit_distill_loss(Tensor(a, requires_grad=True), b),
        )[0].item()
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            DistillConfig(lambda_rd=-1.0)

    def test_nonnegativity_random_operands(self, rng):
        for _ in range(20):
            a = rng.normal(size=(2, 3))
            b = rng.normal(size=(2, 3))
            v = logit_distill_loss(Tensor(a, requires_grad=True), b).item()
            assert v >= 0.0
            assert (v == 0.0) == np.array_equal(a, b)
