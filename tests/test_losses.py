"""Objectives: smoothed cross-entropy, repetition penalty, alignment loss."""

import numpy as np
import pytest

import oracles
from paracap import tensor as T
from paracap.data import EOS_ID
from paracap.errors import NumericalError, ShapeError, ValidationError
from paracap.losses import (PROB_FLOOR, LossConfig, captioning_loss,
                            contrastive_loss, normalize_rows, repetition_penalty,
                            smoothed_cross_entropy)
from paracap.tensor import Tensor


class TestLossConfig:
    def test_rejects_negative_lam(self):
        with pytest.raises(ValidationError):
            LossConfig(lam=-0.5)


class TestSmoothedCrossEntropy:
    def test_uniform_logits_hand_value(self):
        # One position, four classes, no smoothing: -log softmax = log 4.
        loss = smoothed_cross_entropy(Tensor(np.zeros((1, 4))), [2], 0.0)
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-15)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        logits = Tensor(np.array([[0.0, 100.0, 0.0]]))
        loss = smoothed_cross_entropy(logits, [1], 0.0)
        assert 0.0 <= loss.item() < 1e-40

    def test_smoothing_mass_skips_the_pad_column(self):
        # v=3, smoothing 0.5 on target 1: q = [0, 0.75, 0.25]. The huge pad
        # logit must not pull the loss up through the target distribution.
        logits_np = np.array([[100.0, 1.0, -1.0]])
        lp = logits_np - 100.0 - np.log(np.exp(logits_np - 100.0).sum())
        want = -(0.75 * lp[0, 1] + 0.25 * lp[0, 2])
        loss = smoothed_cross_entropy(Tensor(logits_np), [1], 0.5)
        assert loss.item() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("smoothing", [0.0, 0.1, 0.5])
    def test_matches_loop_oracle(self, rng, smoothing):
        logits = Tensor(rng.normal(size=(6, 7)))
        # a caption's targets: non-reserved ids, then its one EOS
        targets = np.array([4, 6, 5, 4, 6, EOS_ID])
        loss = smoothed_cross_entropy(logits, targets, smoothing)
        want = oracles.smoothed_ce_loop(logits.values, targets, smoothing)
        assert loss.item() == pytest.approx(want, rel=1e-12)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValidationError):
            smoothed_cross_entropy(Tensor(np.zeros((0, 4))), [], 0.1)

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            smoothed_cross_entropy(Tensor(np.zeros((1, 4))), [4], 0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            smoothed_cross_entropy(Tensor(np.zeros((2, 4))), [1], 0.1)
        with pytest.raises(ShapeError):
            smoothed_cross_entropy(Tensor(np.zeros(4)), [1], 0.1)

    def test_gradient_matches_finite_differences(self, rng):
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        err = T.finite_diff_check(
            lambda x: smoothed_cross_entropy(x, [2, 4, 1], 0.1), logits)
        assert err <= 1e-8


class TestRepetitionPenalty:
    def test_first_position_has_no_history(self):
        probs = Tensor(np.full((1, 4), 0.25))
        assert repetition_penalty(probs, [3]).item() == 0.0

    def test_uniform_hand_value(self):
        # Three positions, uniform 1/8 probabilities, non-reserved targets:
        # history sizes 0, 1, 2 give 0 - log(7/8) - 2 log(7/8), and the
        # mean over positions collapses to -log(7/8).
        probs = Tensor(np.full((3, 8), 0.125))
        tau = repetition_penalty(probs, [4, 5, 6])
        assert tau.item() == pytest.approx(-np.log(0.875), abs=1e-15)

    def test_matches_loop_oracle(self, rng):
        raw = rng.uniform(0.05, 1.0, size=(6, 8))
        probs = raw / raw.sum(axis=1, keepdims=True)
        targets = np.array([5, 4, 5, 7, 4, EOS_ID])
        tau = repetition_penalty(Tensor(probs), targets)
        want = oracles.tau_loop(probs, targets)
        assert tau.item() == pytest.approx(want, rel=1e-12)

    def test_floor_keeps_certain_repetition_finite(self):
        probs = np.full((2, 4), 0.0)
        probs[0, 3] = 1.0
        probs[1, 3] = 1.0      # re-predicts token 3 with certainty
        probs[:, 0] = 0.0
        tau = repetition_penalty(Tensor(probs), [3, 3])
        assert np.isfinite(tau.item())
        assert tau.item() == pytest.approx(-np.log(PROB_FLOOR) / 2.0, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            repetition_penalty(Tensor(np.zeros((2, 4))), [1])

    def test_gradient_matches_finite_differences(self, rng):
        raw = Tensor(rng.uniform(0.1, 0.9, size=(4, 5)), requires_grad=True)
        err = T.finite_diff_check(
            lambda x: repetition_penalty(x * 0.2, [4, 3, 4, 3]), raw)
        assert err <= 1e-8


class TestCaptioningLoss:
    def test_total_is_ce_plus_weighted_tau(self, rng):
        logits = Tensor(rng.normal(size=(4, 6)))
        cfg = LossConfig(lam=0.3)
        total, ce, tau = captioning_loss(logits, [3, 4, 3, 5], cfg)
        assert total.item() == ce.item() + tau.item() * 0.3

    def test_lam_zero_reduces_to_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(4, 6)))
        cfg = LossConfig(lam=0.0)
        total, ce, _ = captioning_loss(logits, [3, 4, 3, 5], cfg)
        assert total.item() == ce.item()


class TestNormalizeRows:
    def test_rows_become_unit_length(self, rng):
        out = normalize_rows(Tensor(rng.normal(size=(4, 6))))
        np.testing.assert_allclose(np.linalg.norm(out.values, axis=1),
                                   np.ones(4), atol=1e-12)

    def test_zero_row_rejected(self):
        x = np.ones((3, 4))
        x[1] = 0.0
        with pytest.raises(NumericalError):
            normalize_rows(Tensor(x))


class TestContrastiveLoss:
    def test_single_aligned_pair_hand_value(self):
        e = Tensor(np.array([[2.0, 0.0]]))
        c = Tensor(np.array([[5.0, 0.0]]))
        loss = contrastive_loss(e, c, Tensor(np.asarray(0.0)))
        # cosine 1, rho 0: -log sigmoid(1) = log(1 + e^-1)
        assert loss.item() == pytest.approx(np.log1p(np.exp(-1.0)), rel=1e-15)

    def test_matches_pair_loop_oracle(self, rng):
        e = rng.normal(size=(3, 5))
        c = rng.normal(size=(3, 5))
        rho = 0.3
        loss = contrastive_loss(Tensor(e), Tensor(c), Tensor(np.asarray(rho)))
        want = oracles.contrastive_loop(e, c, rho)
        assert loss.item() == pytest.approx(want, rel=1e-12)

    def test_simultaneous_permutation_invariance(self, rng):
        e = rng.normal(size=(4, 6))
        c = rng.normal(size=(4, 6))
        rho = Tensor(np.asarray(0.5))
        base = contrastive_loss(Tensor(e), Tensor(c), rho)
        perm = np.array([2, 0, 3, 1])
        shuffled = contrastive_loss(Tensor(e[perm]), Tensor(c[perm]), rho)
        assert shuffled.item() == pytest.approx(base.item(), rel=1e-12)

    def test_sharper_temperature_rewards_perfect_alignment(self):
        stack = Tensor(np.eye(2))
        low = contrastive_loss(stack, stack, Tensor(np.asarray(0.0)))
        high = contrastive_loss(stack, stack, Tensor(np.asarray(2.0)))
        assert high.item() < low.item()

    def test_zero_embedding_row_rejected(self):
        e = np.ones((2, 3))
        e[0] = 0.0
        with pytest.raises(NumericalError):
            contrastive_loss(Tensor(e), Tensor(np.ones((2, 3))),
                             Tensor(np.asarray(0.0)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            contrastive_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))),
                             Tensor(np.asarray(0.0)))
        with pytest.raises(ShapeError):
            contrastive_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))),
                             Tensor(np.zeros(1)))

    def test_gradient_wrt_events_matches_finite_differences(self, rng):
        c = Tensor(rng.normal(size=(3, 4)))
        rho = Tensor(np.asarray(0.4))
        e = Tensor(rng.normal(size=12), requires_grad=True)
        err = T.finite_diff_check(
            lambda x: contrastive_loss(T.reshape(x, (3, 4)), c, rho), e)
        assert err <= 1e-6

    def test_gradient_wrt_captions_matches_finite_differences(self, rng):
        e = Tensor(rng.normal(size=(3, 4)))
        rho = Tensor(np.asarray(0.4))
        c = Tensor(rng.normal(size=12), requires_grad=True)
        err = T.finite_diff_check(
            lambda x: contrastive_loss(e, T.reshape(x, (3, 4)), rho), c)
        assert err <= 1e-6

    def test_gradient_wrt_temperature_matches_finite_differences(self, rng):
        e = Tensor(rng.normal(size=(3, 4)))
        c = Tensor(rng.normal(size=(3, 4)))
        r = Tensor(np.full(1, 0.4), requires_grad=True)
        err = T.finite_diff_check(
            lambda x: contrastive_loss(e, c, T.reshape(x, ())), r)
        assert err <= 1e-6

