"""Training objectives: denoising, contrastive (two schedules), low-level.

The total objective is a weighted sum of three parts. The contrastive part
switches form at one third of training: the first third mixes inputs convexly
and supervises with the mixing proportions (hard bidirectional InfoNCE over
mixture labels); the remaining two thirds use soft labels derived from the
target embeddings' own similarity matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    NORM_EPS,
    Tensor,
    add,
    cross_entropy_soft,
    l1_loss,
    l2_normalize,
    matmul,
    scale,
    transpose,
)

PHASE_BIMIXCO = "bimixco"
PHASE_SOFTCLIP = "softclip"


@dataclass(frozen=True)
class LossWeights:
    alpha1: float = 0.033
    alpha2: float = 0.016

    def __post_init__(self):
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass
class MixCoBatch:
    lam: np.ndarray          # [B] mix coefficient toward the sample's own row
    perm: np.ndarray         # [B] permutation of batch indices


@dataclass
class LowLevelTargets:
    vae_true: np.ndarray
    vae_pred: Tensor
    teacher_true: np.ndarray
    teacher_pred: Tensor

    def __post_init__(self):
        if tuple(self.vae_pred.shape) != tuple(np.asarray(self.vae_true).shape):
            raise ValueError("vae shapes differ")
        if tuple(self.teacher_pred.shape) != tuple(np.asarray(self.teacher_true).shape):
            raise ValueError("teacher shapes differ")


def _check_contrastive_inputs(pred: Tensor, target: Tensor, tau: float) -> None:
    if pred.shape != target.shape or pred.ndim != 2:
        raise ValueError(f"embedding shapes differ: {pred.shape} vs {target.shape}")
    if pred.shape[0] < 2:
        raise ValueError("contrastive losses need a batch of at least 2")
    if tau <= 0:
        raise ValueError("tau must be positive")
    for name, emb in (("pred", pred), ("target", target)):
        norms = np.linalg.norm(emb.data, axis=1)
        if np.abs(norms - 1.0).max() > 1e-4:
            raise ValueError(f"{name} rows must be unit-norm (off by "
                             f"{np.abs(norms - 1.0).max():.2e})")


def _bidirectional_ce(pred: Tensor, target: Tensor, tau: float, labels: np.ndarray,
                      labels_back: np.ndarray) -> Tensor:
    """Mean of the two retrieval directions' cross-entropies: pred rows scored
    against targets to ``labels``, and the transpose to ``labels_back``."""
    logits = scale(matmul(pred, transpose(target)), 1.0 / tau)
    fwd = cross_entropy_soft(logits, labels)
    bwd = cross_entropy_soft(transpose(logits), labels_back)
    return scale(add(fwd, bwd), 0.5)


def soft_clip_loss(pred, target, tau: float) -> Tensor:
    """Cross-entropy to soft labels from the target self-similarity matrix.

    Both retrieval directions (pred rows scored against targets, and the
    transpose) are averaged; the soft labels are constants.
    """
    pred, target = Tensor.lift(pred), Tensor.lift(target)
    _check_contrastive_inputs(pred, target, tau)
    sim_tt = target.data @ target.data.T / tau
    z = sim_tt - sim_tt.max(axis=1, keepdims=True)
    e = np.exp(z)
    labels = e / e.sum(axis=1, keepdims=True)
    return _bidirectional_ce(pred, target, tau, labels, labels)


def mix_voxels(voxels: np.ndarray, lam: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Convex combination of each row with its permuted partner."""
    v = np.asarray(voxels, dtype=np.float64)
    return lam[:, None] * v + (1.0 - lam[:, None]) * v[perm]


def mixco_augment(voxels: np.ndarray, beta_params: tuple[float, float],
                  rng: np.random.Generator) -> tuple[np.ndarray, MixCoBatch]:
    """Draw mixing coefficients, then a partner permutation, from ``rng``.

    Returns the mixed voxels and the batch that labels them. A one-row
    batch mixes with itself.
    """
    n = voxels.shape[0]
    lam = rng.beta(beta_params[0], beta_params[1], size=n)
    perm = rng.permutation(n)
    return mix_voxels(voxels, lam, perm), MixCoBatch(lam=lam, perm=perm)


def mixco_label_matrix(mix: MixCoBatch) -> np.ndarray:
    """Row i places mass lam_i on i and 1-lam_i on perm(i)."""
    n = mix.lam.shape[0]
    labels = np.zeros((n, n))
    labels[np.arange(n), np.arange(n)] += mix.lam
    np.add.at(labels, (np.arange(n), mix.perm), 1.0 - mix.lam)
    return labels


def bimixco_loss(pred, target, mix: MixCoBatch, tau: float) -> Tensor:
    """Bidirectional InfoNCE over mixture labels (hard-label phase)."""
    pred, target = Tensor.lift(pred), Tensor.lift(target)
    _check_contrastive_inputs(pred, target, tau)
    labels = mixco_label_matrix(mix)
    return _bidirectional_ce(pred, target, tau, labels, labels.T)


def loss_phase(iteration: int, total_iterations: int) -> str:
    """Hard mixture labels for the first third of training, soft labels after."""
    if not 0 <= iteration < total_iterations:
        raise ValueError(f"iteration {iteration} outside [0, {total_iterations})")
    return PHASE_BIMIXCO if iteration < total_iterations // 3 else PHASE_SOFTCLIP


def lowlevel_loss(targets: LowLevelTargets, tau: float) -> Tensor:
    """Mean absolute latent error plus soft contrastive loss in teacher space.

    Teacher embeddings are row-normalized here; soft labels come from the
    (normalized) true teacher embeddings.
    """
    l1 = l1_loss(targets.vae_pred, Tensor(targets.vae_true))
    n = targets.teacher_pred.shape[0]
    pred_n = l2_normalize(targets.teacher_pred.reshape(n, -1))
    true = np.asarray(targets.teacher_true, dtype=np.float64).reshape(n, -1)
    true_n = true / np.maximum(np.linalg.norm(true, axis=1, keepdims=True), NORM_EPS)
    return add(l1, soft_clip_loss(pred_n, Tensor(true_n), tau))


def total_loss(prior_l, contrastive_l, lowlevel_l, w: LossWeights) -> Tensor:
    """prior + alpha1 * contrastive + alpha2 * lowlevel, left to right."""
    p, c, low = Tensor.lift(prior_l), Tensor.lift(contrastive_l), Tensor.lift(lowlevel_l)
    return add(add(p, scale(c, w.alpha1)), scale(low, w.alpha2))


def recompose_total(prior_l: float, contrastive_l: float, lowlevel_l: float,
                    w: LossWeights) -> float:
    """Float recomposition with the same association as total_loss."""
    return (prior_l + w.alpha1 * contrastive_l) + w.alpha2 * lowlevel_l
