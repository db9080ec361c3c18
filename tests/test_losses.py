"""Loss functions against brute-force oracles and closed-form cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindalign.losses import (
    PHASE_BIMIXCO,
    PHASE_SOFTCLIP,
    LossWeights,
    LowLevelTargets,
    MixCoBatch,
    bimixco_loss,
    loss_phase,
    lowlevel_loss,
    mix_voxels,
    mixco_augment,
    mixco_label_matrix,
    recompose_total,
    soft_clip_loss,
    total_loss,
)
from mindalign.tensor import Tensor, backward, gradcheck

from oracles import bimixco_naive, infonce_hard_naive, lowlevel_naive, soft_clip_naive


def unit_rows(shape, seed):
    r = np.random.Generator(np.random.PCG64(seed))
    x = r.normal(size=shape)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestSoftClip:
    def test_self_alignment_hits_entropy_floor(self):
        t = unit_rows((5, 8), 1)
        tau = 0.4
        loss = soft_clip_loss(t, t, tau).item()
        sim = t @ t.T / tau
        e = np.exp(sim - sim.max(axis=1, keepdims=True))
        labels = e / e.sum(axis=1, keepdims=True)
        entropy = -(labels * np.log(labels)).sum(axis=1).mean()
        assert loss == pytest.approx(entropy, abs=1e-10)

    def test_two_orthogonal_closed_form(self):
        # B=2, orthogonal targets, pred = target, tau = 1: each label row is
        # softmax([1, 0]); the loss equals that distribution's entropy
        t = np.eye(2)
        loss = soft_clip_loss(t, t, tau=1.0).item()
        p = math.exp(1.0) / (math.exp(1.0) + 1.0)
        entropy = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert loss == pytest.approx(entropy, abs=1e-12)

    def test_permutation_invariance(self):
        p = unit_rows((6, 5), 2)
        t = unit_rows((6, 5), 3)
        base = soft_clip_loss(p, t, 0.25).item()
        perm = np.random.Generator(np.random.PCG64(4)).permutation(6)
        assert soft_clip_loss(p[perm], t[perm], 0.25).item() == pytest.approx(
            base, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_oracle(self, seed):
        p = unit_rows((4, 7), 10 + seed)
        t = unit_rows((4, 7), 50 + seed)
        ours = soft_clip_loss(p, t, 0.3).item()
        assert ours == pytest.approx(soft_clip_naive(p, t, 0.3), abs=1e-10)

    def test_self_alignment_is_minimal_among_perturbations(self):
        t = unit_rows((5, 8), 6)
        base = soft_clip_loss(t, t, 0.25).item()
        r = np.random.Generator(np.random.PCG64(7))
        for _ in range(10):
            y = t + 0.3 * r.normal(size=t.shape)
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            assert soft_clip_loss(y, t, 0.25).item() >= base - 1e-12

    def test_small_batch_rejected(self):
        t = unit_rows((1, 4), 0)
        with pytest.raises(ValueError):
            soft_clip_loss(t, t, 0.2)

    def test_non_normalized_rejected(self):
        t = unit_rows((3, 4), 0)
        with pytest.raises(ValueError):
            soft_clip_loss(t * 1.01, t, 0.2)


class TestMixCo:
    def test_lambda_one_keeps_batch(self):
        v = np.random.Generator(np.random.PCG64(0)).normal(size=(5, 7))
        mixed = mix_voxels(v, np.ones(5), np.roll(np.arange(5), 1))
        np.testing.assert_array_equal(mixed, v)

    def test_lambda_zero_is_permuted_batch(self):
        v = np.random.Generator(np.random.PCG64(1)).normal(size=(5, 7))
        perm = np.roll(np.arange(5), 2)
        mixed = mix_voxels(v, np.zeros(5), perm)
        np.testing.assert_array_equal(mixed, v[perm])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_convexity_bounds(self, seed):
        r = np.random.Generator(np.random.PCG64(seed))
        v = r.normal(size=(4, 6))
        mixed, mix = mixco_augment(v, (0.15, 0.15), r)
        lo = np.minimum(v, v[mix.perm])
        hi = np.maximum(v, v[mix.perm])
        assert np.all(mixed >= lo - 1e-12)
        assert np.all(mixed <= hi + 1e-12)

    def test_deterministic_and_valid(self):
        v = np.random.Generator(np.random.PCG64(3)).normal(size=(6, 5))
        mixed_a, a = mixco_augment(v, (0.15, 0.15), np.random.Generator(np.random.PCG64(9)))
        mixed_b, b = mixco_augment(v, (0.15, 0.15), np.random.Generator(np.random.PCG64(9)))
        np.testing.assert_array_equal(mixed_a, mixed_b)
        assert np.all((a.lam >= 0) & (a.lam <= 1))
        assert sorted(a.perm.tolist()) == list(range(6))

    def test_draws_lam_then_perm(self):
        v = np.random.Generator(np.random.PCG64(5)).normal(size=(5, 3))
        mixed, mix = mixco_augment(v, (0.3, 0.7), np.random.Generator(np.random.PCG64(2)))
        r = np.random.Generator(np.random.PCG64(2))
        lam = r.beta(0.3, 0.7, size=5)
        perm = r.permutation(5)
        np.testing.assert_array_equal(mix.lam, lam)
        np.testing.assert_array_equal(mix.perm, perm)
        np.testing.assert_array_equal(mixed, mix_voxels(v, lam, perm))

    def test_one_row_batch_mixes_with_itself(self):
        # pretraining mixes within each subject, and a subject's sub-batch
        # may hold one row; the whole batch's size is checked by the loss
        v = np.arange(3.0)[None]
        mixed, mix = mixco_augment(v, (0.15, 0.15), np.random.Generator(np.random.PCG64(0)))
        np.testing.assert_array_equal(mix.perm, [0])
        np.testing.assert_allclose(mixed, v, rtol=1e-15)


class TestBiMixCo:
    def _mix(self, n, seed, lam=None, perm=None):
        r = np.random.Generator(np.random.PCG64(seed))
        lam = r.beta(0.15, 0.15, size=n) if lam is None else lam
        perm = r.permutation(n) if perm is None else perm
        return MixCoBatch(lam=lam, perm=perm)

    def test_lambda_one_reduces_to_hard_infonce(self):
        p = unit_rows((5, 6), 30)
        t = unit_rows((5, 6), 31)
        mix = self._mix(5, 32, lam=np.ones(5))
        ours = bimixco_loss(p, t, mix, 0.125).item()
        assert ours == pytest.approx(infonce_hard_naive(p, t, 0.125), abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_oracle(self, seed):
        p = unit_rows((4, 6), 60 + seed)
        t = unit_rows((4, 6), 90 + seed)
        mix = self._mix(4, 120 + seed)
        ours = bimixco_loss(p, t, mix, 0.125).item()
        expect = bimixco_naive(p, t, mix.lam, mix.perm, 0.125)
        assert ours == pytest.approx(expect, abs=1e-10)

    def test_role_swap_symmetry(self):
        # an involution partner permutation: describing each mixture from its
        # partner's side (positions permuted, lam' = 1 - lam[perm]) is the
        # same labeled batch, so the loss must not change
        n = 6
        perm = np.array([1, 0, 3, 2, 5, 4])
        r = np.random.Generator(np.random.PCG64(5))
        lam = r.beta(0.15, 0.15, size=n)
        p = unit_rows((n, 7), 6)
        t = unit_rows((n, 7), 7)
        a = bimixco_loss(p, t, self._mix(n, 0, lam=lam, perm=perm), 0.2).item()
        lam2 = 1.0 - lam[perm]
        b = bimixco_loss(p[perm], t, self._mix(n, 0, lam=lam2, perm=perm), 0.2).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_mixing_entropy_floor(self):
        # forward direction is a soft cross-entropy, so by Gibbs' inequality
        # the symmetrized loss is at least half the mixture-label entropy
        n = 5
        mix = self._mix(n, 77)
        lam = np.clip(mix.lam, 1e-12, 1 - 1e-12)
        floor = 0.5 * np.mean(-(lam * np.log(lam) + (1 - lam) * np.log(1 - lam)))
        r = np.random.Generator(np.random.PCG64(78))
        t = unit_rows((n, 6), 79)
        for _ in range(10):
            p = r.normal(size=(n, 6))
            p /= np.linalg.norm(p, axis=1, keepdims=True)
            assert bimixco_loss(p, t, mix, 0.125).item() >= floor - 1e-12

    def test_gradient_passes_finite_differences(self):
        p = Tensor(unit_rows((4, 6), 200), requires_grad=True)
        t = unit_rows((4, 6), 201)
        mix = self._mix(4, 202)
        # tiny re-normalization keeps rows exactly unit under perturbation
        from mindalign.tensor import l2_normalize
        err = gradcheck(
            lambda bd: bimixco_loss(l2_normalize(bd["p"]), Tensor(t), mix, 0.125),
            {"p": p})
        assert err < 1e-4


class TestPhase:
    def test_paper_boundaries(self):
        assert loss_phase(0, 300) == PHASE_BIMIXCO
        assert loss_phase(99, 300) == PHASE_BIMIXCO
        assert loss_phase(100, 300) == PHASE_SOFTCLIP
        assert loss_phase(299, 300) == PHASE_SOFTCLIP

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            loss_phase(300, 300)
        with pytest.raises(ValueError):
            loss_phase(-1, 300)


class TestLowLevel:
    def _targets(self, seed, n=4):
        r = np.random.Generator(np.random.PCG64(seed))
        vae_true = r.normal(size=(n, 3, 3, 2))
        teacher_true = r.normal(size=(n, 5))
        return vae_true, teacher_true

    def test_perfect_prediction_hits_entropy_floor(self):
        vae_true, teacher_true = self._targets(1)
        t = LowLevelTargets(vae_true, Tensor(vae_true.copy()),
                            teacher_true, Tensor(teacher_true.copy()))
        loss = lowlevel_loss(t, tau=0.5).item()
        tn = teacher_true / np.linalg.norm(teacher_true, axis=1, keepdims=True)
        sim = tn @ tn.T / 0.5
        e = np.exp(sim - sim.max(axis=1, keepdims=True))
        labels = e / e.sum(axis=1, keepdims=True)
        entropy = -(labels * np.log(labels)).sum(axis=1).mean()
        assert loss == pytest.approx(entropy, abs=1e-10)

    def test_constant_offset_gives_abs_c(self):
        vae_true, teacher_true = self._targets(2)
        c = -0.37
        t = LowLevelTargets(vae_true, Tensor(vae_true + c),
                            teacher_true, Tensor(teacher_true.copy()))
        base = LowLevelTargets(vae_true, Tensor(vae_true.copy()),
                               teacher_true, Tensor(teacher_true.copy()))
        diff = lowlevel_loss(t, 0.5).item() - lowlevel_loss(base, 0.5).item()
        assert diff == pytest.approx(abs(c), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_oracle(self, seed):
        r = np.random.Generator(np.random.PCG64(300 + seed))
        vae_true, teacher_true = self._targets(400 + seed)
        vae_pred = vae_true + 0.3 * r.normal(size=vae_true.shape)
        teacher_pred = teacher_true + 0.3 * r.normal(size=teacher_true.shape)
        t = LowLevelTargets(vae_true, Tensor(vae_pred), teacher_true,
                            Tensor(teacher_pred))
        ours = lowlevel_loss(t, 0.25).item()
        expect = lowlevel_naive(vae_true, vae_pred, teacher_true, teacher_pred, 0.25)
        assert ours == pytest.approx(expect, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        vae_true, teacher_true = self._targets(5)
        with pytest.raises(ValueError):
            LowLevelTargets(vae_true, Tensor(np.zeros((4, 2, 2, 2))),
                            teacher_true, Tensor(teacher_true))


class TestTotal:
    def test_paper_coefficients(self):
        w = LossWeights()
        assert total_loss(1.0, 1.0, 1.0, w).item() == 1.049
        assert total_loss(0.7, 0.0, 0.0, w).item() == 0.7
        assert total_loss(0.0, 2.0, 0.0, w).item() == 0.066

    def test_linearity_in_each_argument(self):
        w = LossWeights()
        base = total_loss(1.0, 2.0, 3.0, w).item()
        assert total_loss(2.0, 2.0, 3.0, w).item() - base == pytest.approx(1.0, abs=1e-12)
        assert total_loss(1.0, 4.0, 3.0, w).item() - base == pytest.approx(
            2 * 0.033, abs=1e-12)
        assert total_loss(1.0, 2.0, 5.0, w).item() - base == pytest.approx(
            2 * 0.016, abs=1e-12)

    def test_recompose_matches_tensor_path_bitwise(self):
        w = LossWeights()
        r = np.random.Generator(np.random.PCG64(0))
        for _ in range(20):
            p, c, low = r.random(3)
            assert total_loss(p, c, low, w).item() == recompose_total(p, c, low, w)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(alpha1=-1.0)

    def test_non_finite_rejected(self):
        from mindalign.tensor import NonFiniteError
        with pytest.raises(NonFiniteError):
            total_loss(float("nan"), 0.0, 0.0, LossWeights())

    def test_gradient_flows_with_exact_coefficients(self):
        p = Tensor(0.5, requires_grad=True)
        c = Tensor(0.5, requires_grad=True)
        low = Tensor(0.5, requires_grad=True)
        grads = backward(lambda bd: total_loss(bd["p"], bd["c"], bd["l"],
                                               LossWeights()),
                         {"p": p, "c": c, "l": low})
        assert grads["p"] == 1.0
        assert grads["c"] == 0.033
        assert grads["l"] == 0.016


def test_label_matrix_handles_fixed_points():
    mix = MixCoBatch(lam=np.array([0.3, 0.6, 0.9]), perm=np.array([0, 2, 1]))
    labels = mixco_label_matrix(mix)
    # a self-partner row collapses to a hard label
    np.testing.assert_allclose(labels[0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(labels.sum(axis=1), 1.0)
