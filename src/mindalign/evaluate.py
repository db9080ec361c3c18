"""Measurement protocols: retrieval, two-way identification, image metrics,
brain correlation via an encoding model, the reconstruction path with 4:1
blending, and the data-scaling experiment with its normalized curves.

All protocols are read-only over a trained model and a dataset's shared test
split. Scaling curves are normalized so 0 is the random-image baseline and 1
is the full-data pretrained model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import seeds
from .errors import ConfigError, DataError
from .flatkv import format_flat, write_csv
from .model import (
    ModelParams,
    backbone_forward,
    lowlevel_forward,
    prior_sample,
    retrieval_project,
    ridge_forward,
    target_embed,
)
from .tensor import NORM_EPS
from .train import TrainConfig, finetune, pretrain, train_from_scratch
from .world import (
    SubjectDataset,
    WorldSpec,
    _smooth_images,
    decode_tokens,
    decode_vae,
    token_targets,
)

CORE_METRICS = ("image_retrieval", "brain_retrieval", "pixcorr", "ssim",
                "twoway_low", "twoway_high")


@dataclass(frozen=True)
class EvalConfig:
    pool_size: int = 50
    repetitions: int = 30
    seed: int = 0
    include_brain_corr: bool = False

    def validate(self, n_test: int) -> None:
        if self.pool_size < 2 or self.repetitions < 1:
            raise ConfigError("pool_size must be >= 2 and repetitions >= 1")
        if self.pool_size > n_test:
            raise ConfigError(f"eval.pool_size = {self.pool_size} exceeds the test set "
                              f"size {n_test}")


@dataclass
class EvalReport:
    metrics: dict[str, float]
    protocol: dict[str, object]
    # the final reconstructions the image metrics were scored on, if any
    recons: np.ndarray | None = field(default=None, compare=False, repr=False)

    def to_text(self) -> str:
        items: dict[str, object] = {}
        for k, v in sorted(self.metrics.items()):
            items[f"metric.{k}"] = f"{v:.6g}"
        for k, v in self.protocol.items():
            items[f"protocol.{k}"] = v
        return format_flat(items)

    def save(self, path: Path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")


# -- image metrics ---------------------------------------------------------


def pixcorr(recon: np.ndarray, truth: np.ndarray) -> float:
    """Pearson correlation over flattened pixels; 0 for a constant image."""
    a = np.asarray(recon, dtype=np.float64).reshape(-1)
    b = np.asarray(truth, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise DataError("pixcorr inputs must have equal size")
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt((ac * ac).sum() * (bc * bc).sum())
    if denom == 0.0:
        return 0.0
    return float((ac * bc).sum() / denom)


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    c = (size - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    w = np.exp(-((ii - c) ** 2 + (jj - c) ** 2) / (2.0 * sigma * sigma))
    return w / w.sum()


# SSIM's constants: Wang et al.'s sigma 1.5 gaussian on an 8x8 window, which
# 8x8 images still fit, and C1 = (0.01 L)^2, C2 = (0.03 L)^2 for pixels of
# range L = 1; the window is built once, as a [k*k, 1] column
_SSIM_WINDOW = 8
_SSIM_W_COL = _gaussian_window(_SSIM_WINDOW, 1.5).reshape(-1, 1)
_SSIM_C1, _SSIM_C2 = 0.01 ** 2, 0.03 ** 2
# the low-level two-way features are 4x4 box averages, a fixed low-pass
_BLUR_K = 4


def _window_sums(views: np.ndarray) -> np.ndarray:
    """Gaussian-weighted sum of every window in an [N, C, oh, ow, k, k] stack.

    One BLAS call per image and channel, on the operands ``np.tensordot``
    builds for one image: the [oh*ow, k*k] windows times the window as a
    [k*k, 1] column. A call over the whole stack would group the rows
    differently in BLAS and give other bits.
    """
    n, ch, oh, ow = views.shape[:4]
    out = np.empty((n, ch, oh, ow))
    for i in range(n):
        for c in range(ch):
            out[i, c] = np.dot(views[i, c].reshape(oh * ow, -1), _SSIM_W_COL).reshape(oh, ow)
    return out


def ssim(recon: np.ndarray, truth: np.ndarray) -> float | np.ndarray:
    """Structural similarity (Wang et al., 2004) with a gaussian window,
    averaged over all valid window positions and channels.

    Inputs are one [H, W, C] image in [0, 1], which gives a float, or an
    [N, H, W, C] stack, which gives one score per image.
    """
    a = np.asarray(recon, dtype=np.float64)
    b = np.asarray(truth, dtype=np.float64)
    if a.shape != b.shape or a.ndim not in (3, 4):
        raise DataError("ssim expects two equal-shape [H, W, C] images "
                        "or [N, H, W, C] stacks")
    single = a.ndim == 3
    if single:
        a, b = a[None], b[None]
    k = _SSIM_WINDOW
    if a.shape[1] < k or a.shape[2] < k:
        raise DataError(f"image smaller than the {k}x{k} ssim window")
    # [N, C, oh, ow, k, k]: each image and channel's windows, strided as one
    # image's sliding_window_view
    va = sliding_window_view(a, (k, k), axis=(1, 2)).transpose(0, 3, 1, 2, 4, 5)
    vb = sliding_window_view(b, (k, k), axis=(1, 2)).transpose(0, 3, 1, 2, 4, 5)
    mu_x = _window_sums(va)
    mu_y = _window_sums(vb)
    # in C order each image and channel's products are one contiguous
    # [oh*ow, k*k] block, as one image's were
    dx = np.subtract(va, mu_x[..., None, None], order="C")
    dy = np.subtract(vb, mu_y[..., None, None], order="C")
    var_x = _window_sums(dx * dx)
    var_y = _window_sums(dy * dy)
    cov = _window_sums(dx * dy)
    s = ((2 * mu_x * mu_y + _SSIM_C1) * (2 * cov + _SSIM_C2)) / (
        (mu_x ** 2 + mu_y ** 2 + _SSIM_C1) * (var_x + var_y + _SSIM_C2))
    # per image, each channel's map is summed and the channel sums added in order
    scores = np.array([sum(s_c.sum() for s_c in s_i) / s_i.size for s_i in s])
    return float(scores[0]) if single else scores


def box_blur(image: np.ndarray) -> np.ndarray:
    """Valid-mode `_BLUR_K`-square box average per channel of one [H, W, C]
    image or an [N, H, W, C] stack."""
    k = _BLUR_K
    a = np.asarray(image, dtype=np.float64)
    if a.ndim not in (3, 4) or a.shape[-3] < k or a.shape[-2] < k:
        raise DataError(f"box_blur expects [H, W, C] images of at least {k}x{k}")
    *lead, h, w, ch = a.shape
    out = np.empty((*lead, h - k + 1, w - k + 1, ch))
    for c in range(ch):
        windows = sliding_window_view(a[..., c], (k, k), axis=(-2, -1))
        out[..., c] = windows.mean(axis=(-2, -1))
    return out


# -- protocols --------------------------------------------------------------


def retrieval_eval(retr_embeddings: np.ndarray, target_embeddings: np.ndarray,
                   pool_size: int, repetitions: int, seed: int = 0) -> dict[str, float]:
    """Top-1 cosine retrieval in both directions over random candidate pools.

    For every test item and repetition, the item competes against
    pool_size - 1 other randomly drawn candidates; scores are averaged over
    items then repetitions. Chance is 1/pool_size.
    """
    if pool_size < 2 or repetitions < 1:
        raise DataError("retrieval needs pool_size >= 2 and repetitions >= 1")
    emb = np.asarray(retr_embeddings, dtype=np.float64)
    temb = np.asarray(target_embeddings, dtype=np.float64)
    n = emb.shape[0]
    if temb.shape[0] != n:
        raise DataError("embedding sets must pair one-to-one")
    if pool_size > n:
        raise DataError(f"pool_size {pool_size} larger than test set {n}")
    emb = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), NORM_EPS)
    temb = temb / np.maximum(np.linalg.norm(temb, axis=1, keepdims=True), NORM_EPS)
    sims = emb @ temb.T  # rows: brain, cols: image
    rows = np.arange(n)[:, None]
    own = np.diag(sims)[:, None]

    def hits(pools: np.ndarray) -> tuple[int, int]:
        # pools index the n - 1 items other than each row's own
        others = pools + (pools >= rows)
        return (np.count_nonzero(own > sims[rows, others].max(axis=1, keepdims=True)),
                np.count_nonzero(own > sims[others, rows].max(axis=1, keepdims=True)))

    if pool_size == n:
        # every item competes against all others: no draw, and every
        # repetition scores the same
        counts = [hits(np.arange(n - 1))] * repetitions
    else:
        rng = seeds.rng(seed, "retrieval-pools")
        counts = [hits(np.stack([rng.choice(n - 1, size=pool_size - 1, replace=False)
                                 for _ in range(n)]))
                  for _ in range(repetitions)]
    image_hits, brain_hits = zip(*counts)
    return {"image_retrieval": float((np.array(image_hits) / n).mean()),
            "brain_retrieval": float((np.array(brain_hits) / n).mean())}


def _feature_matrix(images: np.ndarray, feature_map: str, world: WorldSpec) -> np.ndarray:
    if feature_map == "lowlevel":
        return box_blur(images).reshape(images.shape[0], -1)
    if feature_map == "highlevel":
        return token_targets(world, images)
    raise ConfigError(f"unknown feature map {feature_map!r}")


def two_way_identification(recons: np.ndarray, truths: np.ndarray,
                           feature_map: str, world: WorldSpec | None = None) -> float:
    """Fraction of pairwise comparisons won by the matching reconstruction.

    For every item, its truth features are correlated with its own recon
    features and with every other recon; each strictly greater own-match is a
    win. Chance is 0.5.
    """
    return _two_way_score(_feature_matrix(truths, feature_map, world),
                          _feature_matrix(recons, feature_map, world))


def _two_way_score(ft: np.ndarray, fr: np.ndarray) -> float:
    """`two_way_identification` of truth features ``ft`` against recon
    features ``fr``, one row per item."""
    n = fr.shape[0]
    if n < 2:
        raise DataError("two-way identification needs at least 2 items")
    ft = ft - ft.mean(axis=1, keepdims=True)
    fr = fr - fr.mean(axis=1, keepdims=True)
    ft_norm = np.linalg.norm(ft, axis=1)
    fr_norm = np.linalg.norm(fr, axis=1)
    if np.any(ft_norm == 0) or np.any(fr_norm == 0):
        raise DataError("degenerate constant features")
    corr = (ft / ft_norm[:, None]) @ (fr / fr_norm[:, None]).T
    own = np.diag(corr)
    wins = (own[:, None] > corr).sum(axis=1)  # own > corr[i, i] is False
    return float((wins / (n - 1)).mean())


# the ridge strengths GCV picks from, 1e-6 to 1e4 in half decades: wide
# enough for unit-range pixels and z-scored voxels
_GCV_LAMBDAS = np.logspace(-6, 4, 21)


@dataclass
class EncodingModel:
    """Linear map images -> voxels used to score reconstructions.

    Either the world's true forward model (oracle) or a ridge regression fit
    on the training split with the regularizer chosen by generalized
    cross-validation, one strength per region. The fit is solved in the dual
    (Saunders et al., 1998) at every trial count: one eigendecomposition of
    the trials' n x n Gram matrix gives every candidate's residual in closed
    form, and only the chosen strength's weights are built.
    """

    weights: np.ndarray            # [n_voxels, pixel_dim]
    intercept: np.ndarray          # [n_voxels]
    regions: dict[str, np.ndarray]
    reg_strength: dict[str, float]

    @classmethod
    def oracle(cls, world: WorldSpec, subject_id: str) -> "EncodingModel":
        forward = world.subjects.get(subject_id)
        if forward is None:
            raise DataError(f"unknown subject {subject_id!r}")
        return cls(weights=forward.copy(), intercept=np.zeros(forward.shape[0]),
                   regions=world.regions[subject_id],
                   reg_strength={r: 0.0 for r in world.regions[subject_id]})

    @classmethod
    def fit(cls, images: np.ndarray, voxels: np.ndarray,
            regions: dict[str, np.ndarray]) -> "EncodingModel":
        X = np.asarray(images, dtype=np.float64).reshape(images.shape[0], -1)
        Y = np.asarray(voxels, dtype=np.float64)
        if X.shape[0] != Y.shape[0]:
            raise DataError("images and voxels must pair one-to-one")
        x_mean = X.mean(axis=0)
        Xc = X - x_mean
        n, p = X.shape
        # the Gram matrix's complete eigenbasis Q spans the trials, so every
        # residual is a sum of non-negative terms
        e, Q = np.linalg.eigh(Xc @ Xc.T)
        e = np.maximum(e, 0.0)
        weights = np.zeros((Y.shape[1], p))
        intercept = np.zeros(Y.shape[1])
        strengths: dict[str, float] = {}
        # GCV degenerates at interpolation (centered X and Y share a
        # hyperplane, so the residual vanishes faster than the df penalty);
        # candidates that nearly exhaust the degrees of freedom (the centered
        # images' rank, min(n - 1, p) at most) are skipped
        max_edf = 0.98 * min(n - 1, p)
        for name, idx in regions.items():
            Yr = Y[:, idx]
            y_mean = Yr.mean(axis=0)
            Yc = Yr - y_mean
            QtY = Q.T @ Yc
            energy = (QtY * QtY).sum(axis=1)
            best_lam, best_gcv = None, np.inf
            for lam in _GCV_LAMBDAS:
                edf = (e / (e + lam)).sum()
                if edf > max_edf:
                    continue
                rss = ((lam / (e + lam)) ** 2 * energy).sum()
                gcv = rss / n / (1.0 - edf / n) ** 2
                if gcv < best_gcv:
                    best_gcv, best_lam = gcv, float(lam)
            if best_lam is None:
                best_lam = float(_GCV_LAMBDAS[-1])
            coef = Xc.T @ (Q @ (QtY / (e + best_lam)[:, None]))
            weights[idx] = coef.T
            intercept[idx] = y_mean - x_mean @ coef
            strengths[name] = best_lam
        return cls(weights=weights, intercept=intercept, regions=regions,
                   reg_strength=strengths)

    @classmethod
    def fit_from_dataset(cls, world: WorldSpec, dataset: SubjectDataset) -> "EncodingModel":
        # the training split only; the shared test split must stay unseen
        mask = dataset.train_mask
        images = world.images[dataset.image_ids[mask]]
        return cls.fit(images, dataset.voxels[mask],
                       world.regions[dataset.subject_id])

    def predict(self, images: np.ndarray) -> np.ndarray:
        X = np.asarray(images, dtype=np.float64).reshape(images.shape[0], -1)
        return X @ self.weights.T + self.intercept


def brain_correlation(recons: np.ndarray, true_voxels: np.ndarray,
                      enc: EncodingModel) -> dict[str, float]:
    """Mean per-voxel correlation between predicted and true activity, by region."""
    preds = enc.predict(recons)
    if preds.shape != np.asarray(true_voxels).shape:
        raise DataError("prediction/voxel shape mismatch")
    pc = preds - preds.mean(axis=0)
    tc = true_voxels - np.asarray(true_voxels).mean(axis=0)
    denom = np.sqrt((pc * pc).sum(axis=0) * (tc * tc).sum(axis=0))
    r = np.zeros(preds.shape[1])
    ok = denom > 0
    r[ok] = (pc * tc).sum(axis=0)[ok] / denom[ok]
    out = {}
    for name, idx in enc.regions.items():
        if idx.size == 0:
            raise DataError(f"region {name} has no voxels")
        out[name] = float(r[idx].mean())
    out["all"] = float(r.mean())
    return out


# -- image serialization ------------------------------------------------------


def save_image(path: Path, image: np.ndarray) -> None:
    """Write a [H, W, 3] image in [0, 1] as binary PPM (P6, 8-bit)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DataError("PPM serialization needs an [H, W, 3] image")
    h, w, _ = img.shape
    quantized = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


# -- reconstruction ----------------------------------------------------------


def blend_images(unrefined: np.ndarray, lowlevel_px: np.ndarray) -> np.ndarray:
    """4:1 weighted average of the two reconstruction routes."""
    return (4.0 * unrefined + lowlevel_px) / 5.0


def reconstruct(mp: ModelParams, world: WorldSpec, voxels: np.ndarray,
                subject_id: str, seed: int) -> dict[str, np.ndarray]:
    """Full inference path: prior sampling, analytic decode, 4:1 blend.

    Returns unrefined (decoded prior samples), lowlevel (decoded low-level
    latents), and final (clipped blend), each [B, H, W, C].
    """
    vox = np.atleast_2d(np.asarray(voxels, dtype=np.float64))
    cond = backbone_forward(mp, ridge_forward(mp, subject_id, vox))
    tok = prior_sample(mp, cond, seed=seed)
    unrefined = decode_tokens(world, tok)
    vae_pred, _ = lowlevel_forward(mp, cond)
    lowlevel_px = decode_vae(world, vae_pred.data)
    final = np.clip(blend_images(unrefined, lowlevel_px), 0.0, 1.0)
    return {"unrefined": unrefined, "lowlevel": lowlevel_px, "final": final}


# -- whole-model evaluation ---------------------------------------------------


def _protocol(eval_cfg: EvalConfig, n_test: int) -> dict[str, object]:
    return {"pool_size": eval_cfg.pool_size, "repetitions": eval_cfg.repetitions,
            "seed": eval_cfg.seed, "chance": 1.0 / eval_cfg.pool_size,
            "n_test": n_test}


def _image_metrics(images: np.ndarray, truths: np.ndarray, truth_tokens: np.ndarray,
                   world: WorldSpec) -> dict[str, float]:
    """Mean pixcorr and ssim, and both two-way identifications, of images vs
    truths; ``truth_tokens`` are the truths' `token_targets`."""
    n = truths.shape[0]
    return {"pixcorr": float(np.mean([pixcorr(images[i], truths[i]) for i in range(n)])),
            "ssim": float(np.mean(ssim(images, truths))),
            "twoway_low": two_way_identification(images, truths, "lowlevel", world),
            "twoway_high": _two_way_score(truth_tokens, token_targets(world, images))}


def evaluate_model(mp: ModelParams, world: WorldSpec, dataset: SubjectDataset,
                   eval_cfg: EvalConfig, include_reconstruction: bool = True) -> EvalReport:
    """Score a model on a subject's shared test split.

    Reconstruction-dependent metrics are reported only when the prior is
    available (``include_reconstruction``); retrieval always is.
    """
    sid = dataset.subject_id
    test_vox = dataset.shared_voxels()
    n_test = test_vox.shape[0]
    eval_cfg.validate(n_test)
    test_imgs = dataset.shared_images(world)

    emb = retrieval_project(mp, backbone_forward(mp, ridge_forward(mp, sid, test_vox)))
    test_tokens = token_targets(world, test_imgs)
    temb = target_embed(mp, test_tokens)
    metrics = dict(retrieval_eval(emb.data, temb, eval_cfg.pool_size,
                                  eval_cfg.repetitions,
                                  seed=seeds.derive(eval_cfg.seed, "retrieval")))

    recons = None
    if include_reconstruction:
        recons = reconstruct(mp, world, test_vox, sid,
                             seed=seeds.derive(eval_cfg.seed, "recon"))["final"]
        metrics.update(_image_metrics(recons, test_imgs, test_tokens, world))
        if eval_cfg.include_brain_corr:
            enc = EncodingModel.fit_from_dataset(world, dataset)
            for region, r in brain_correlation(recons, test_vox, enc).items():
                metrics[f"brain_corr_{region}"] = r

    return EvalReport(metrics=metrics, protocol=_protocol(eval_cfg, n_test),
                      recons=recons)


def random_baseline_report(world: WorldSpec, dataset: SubjectDataset,
                           eval_cfg: EvalConfig) -> EvalReport:
    """Metrics with fresh random images standing in as reconstructions.

    Retrieval has no image-based analog, so it anchors at chance.
    """
    test_imgs = dataset.shared_images(world)
    n = test_imgs.shape[0]
    eval_cfg.validate(n)
    rand_imgs = _smooth_images(n, world.config,
                               seeds.rng(eval_cfg.seed, "baseline-images"))
    metrics = {"image_retrieval": 1.0 / eval_cfg.pool_size,
               "brain_retrieval": 1.0 / eval_cfg.pool_size,
               **_image_metrics(rand_imgs, test_imgs, token_targets(world, test_imgs),
                                world)}
    return EvalReport(metrics=metrics, protocol=_protocol(eval_cfg, n))


# -- scaling experiment -------------------------------------------------------


@dataclass
class ScalingResult:
    arms: dict[str, dict[int, EvalReport]]
    baseline: EvalReport
    anchor: EvalReport
    seed: int

    def normalized(self, arm: str, k: int, metric: str) -> float:
        v = self.arms[arm][k].metrics[metric]
        lo = self.baseline.metrics[metric]
        hi = self.anchor.metrics[metric]
        if abs(hi - lo) < 1e-9:
            raise DataError(f"degenerate normalization span for {metric}")
        return (v - lo) / (hi - lo)

    def normalized_mean(self, arm: str, k: int,
                        metrics: tuple[str, ...] = CORE_METRICS) -> float:
        return float(np.mean([self.normalized(arm, k, m) for m in metrics]))

    def valid_norm_metrics(self) -> tuple[str, ...]:
        """Core metrics whose baseline-to-anchor span is non-degenerate."""
        return tuple(m for m in CORE_METRICS
                     if abs(self.anchor.metrics[m] - self.baseline.metrics[m]) >= 1e-9)

    def csv_rows(self) -> list[tuple[str, int, str, float, int]]:
        rows: list[tuple[str, int, str, float, int]] = []
        valid = self.valid_norm_metrics()
        for arm, curve in sorted(self.arms.items()):
            for k, report in sorted(curve.items()):
                for name, value in sorted(report.metrics.items()):
                    rows.append((arm, k, name, value, self.seed))
                norm = [self.normalized(arm, k, name) for name in valid]
                rows += [(arm, k, f"norm_{name}", v, self.seed)
                         for name, v in zip(valid, norm)]
                if valid:
                    rows.append((arm, k, "norm_mean", float(np.mean(norm)), self.seed))
                    rows.append((arm, k, "norm_median", float(np.median(norm)), self.seed))
        for name, value in sorted(self.baseline.metrics.items()):
            rows.append(("baseline", 0, name, value, self.seed))
        for name, value in sorted(self.anchor.metrics.items()):
            rows.append(("anchor", 0, name, value, self.seed))
        return rows

    def write_csv(self, path: Path) -> None:
        write_csv(path, ("arm", "k_sessions", "metric_name", "value", "seed"),
                  self.csv_rows())


def check_scaling_sweep(session_grid: tuple[int, ...], arms: tuple[str, ...]) -> None:
    """Refuse an unknown arm, a session count below 1, or arms with no
    session count to train at."""
    for k in session_grid:
        if k < 1:
            raise ConfigError(f"scaling.sessions entry {k} is below 1")
    for arm in arms:
        if arm not in ("pretrained", "scratch"):
            raise ConfigError(f"unknown scaling arm {arm!r} in scaling.arms")
    if arms and not session_grid:
        raise ConfigError("scaling.sessions is empty, but scaling.arms names arms")


def run_scaling(world: WorldSpec, datasets: dict[str, SubjectDataset],
                held_out: str, session_grid: tuple[int, ...],
                arms: tuple[str, ...], cfg: TrainConfig, mcfg,
                eval_cfg: EvalConfig) -> ScalingResult:
    """Both scaling arms plus the normalization anchors.

    Each arm trains at every k of the grid, then evaluates. The anchor is the
    pretrained model fine-tuned on every available session; the baseline
    scores random images (retrieval anchored at chance).
    """
    check_scaling_sweep(session_grid, arms)
    session_grid = tuple(dict.fromkeys(session_grid))  # a repeated k trains once
    target = datasets[held_out]
    for k in session_grid if arms else ():
        target.check_sessions(k)  # before anything trains
    n_sessions = int(target.session_index.max()) + 1
    # the normalization anchor is the full-data pretrained model, so the
    # pretraining pass runs regardless of which arms were requested
    pre_sets = {sid: ds for sid, ds in datasets.items() if sid != held_out}
    checkpoint, _ = pretrain(world, pre_sets, cfg, mcfg)
    result_arms: dict[str, dict[int, EvalReport]] = {}
    for arm in arms:
        result_arms[arm] = {}
        for k in session_grid:
            kcfg = replace(cfg, seed=seeds.derive(cfg.seed, "scaling", arm, k))
            if arm == "pretrained":
                mp, _ = finetune(checkpoint, world, target, k, kcfg)
            else:
                mp, _ = train_from_scratch(world, target, k, kcfg, mcfg)
            result_arms[arm][k] = evaluate_model(mp, world, target, eval_cfg)
            del mp  # one finished model at a time
    if "pretrained" in result_arms and n_sessions in result_arms["pretrained"]:
        anchor = result_arms["pretrained"][n_sessions]
    else:
        acfg = replace(cfg, seed=seeds.derive(cfg.seed, "scaling", "pretrained",
                                              n_sessions))
        mp, _ = finetune(checkpoint, world, target, n_sessions, acfg)
        anchor = evaluate_model(mp, world, target, eval_cfg)
    baseline = random_baseline_report(world, target, eval_cfg)
    return ScalingResult(arms=result_arms, baseline=baseline, anchor=anchor,
                         seed=cfg.seed)
