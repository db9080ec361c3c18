"""Independent brute-force oracles used by the test suite.

Everything here is written as plain scalar loops over Python floats, with no
shared code paths into the package under test. Slow on purpose. The
exceptions, numpy restatements of an older form that the package must
still match, bit for bit or to rounding, say so in their docstrings.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import gaussian_filter


def pearson_naive(a, b) -> float:
    """Pearson correlation via explicit accumulation loops."""
    xs = [float(v) for v in np.asarray(a).reshape(-1)]
    ys = [float(v) for v in np.asarray(b).reshape(-1)]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = syy = sxy = 0.0
    for x, y in zip(xs, ys):
        sxx += (x - mx) ** 2
        syy += (y - my) ** 2
        sxy += (x - mx) * (y - my)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


def gaussian_window_naive(size: int, sigma: float) -> list[list[float]]:
    """Normalized 2-D gaussian weights centered in a size x size window."""
    c = (size - 1) / 2.0
    w = [[math.exp(-((i - c) ** 2 + (j - c) ** 2) / (2.0 * sigma * sigma))
          for j in range(size)] for i in range(size)]
    total = sum(sum(row) for row in w)
    return [[v / total for v in row] for row in w]


def ssim_naive(img_a, img_b, window: int = 8, sigma: float = 1.5,
               c1: float = 0.01 ** 2, c2: float = 0.03 ** 2) -> float:
    """SSIM averaged over all valid windows and channels, triple loop."""
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    h, w, ch = a.shape
    weights = gaussian_window_naive(window, sigma)
    scores = []
    for c in range(ch):
        for i in range(h - window + 1):
            for j in range(w - window + 1):
                mu_x = mu_y = 0.0
                for di in range(window):
                    for dj in range(window):
                        wt = weights[di][dj]
                        mu_x += wt * float(a[i + di, j + dj, c])
                        mu_y += wt * float(b[i + di, j + dj, c])
                var_x = var_y = cov = 0.0
                for di in range(window):
                    for dj in range(window):
                        wt = weights[di][dj]
                        dx = float(a[i + di, j + dj, c]) - mu_x
                        dy = float(b[i + di, j + dj, c]) - mu_y
                        var_x += wt * dx * dx
                        var_y += wt * dy * dy
                        cov += wt * dx * dy
                num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
                den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
                scores.append(num / den)
    return sum(scores) / len(scores)


def _softmax_row_naive(row) -> list[float]:
    mx = max(row)
    es = [math.exp(v - mx) for v in row]
    s = sum(es)
    return [e / s for e in es]


def soft_clip_naive(pred, target, tau: float) -> float:
    """Symmetrized soft-label contrastive loss, scalar loops."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    n = p.shape[0]
    sim_pt = [[sum(float(p[i, k]) * float(t[j, k]) for k in range(p.shape[1])) / tau
               for j in range(n)] for i in range(n)]
    sim_tt = [[sum(float(t[i, k]) * float(t[j, k]) for k in range(t.shape[1])) / tau
               for j in range(n)] for i in range(n)]
    labels = [_softmax_row_naive(r) for r in sim_tt]

    def ce(logit_rows):
        total = 0.0
        for i in range(n):
            q = _softmax_row_naive(logit_rows[i])
            for j in range(n):
                total -= labels[i][j] * math.log(q[j])
        return total / n

    fwd = ce(sim_pt)
    sim_tp = [[sim_pt[j][i] for j in range(n)] for i in range(n)]
    bwd = ce(sim_tp)
    return 0.5 * (fwd + bwd)


def bimixco_naive(pred, target, lam, perm, tau: float) -> float:
    """Bidirectional mixup-labeled InfoNCE, scalar loops."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    n = p.shape[0]
    labels = [[0.0] * n for _ in range(n)]
    for i in range(n):
        labels[i][i] += float(lam[i])
        labels[i][int(perm[i])] += 1.0 - float(lam[i])
    sim = [[sum(float(p[i, k]) * float(t[j, k]) for k in range(p.shape[1])) / tau
            for j in range(n)] for i in range(n)]

    def ce(lab, logit_rows):
        total = 0.0
        for i in range(n):
            q = _softmax_row_naive(logit_rows[i])
            for j in range(n):
                if lab[i][j] != 0.0:
                    total -= lab[i][j] * math.log(q[j])
        return total / n

    fwd = ce(labels, sim)
    sim_t = [[sim[j][i] for j in range(n)] for i in range(n)]
    labels_t = [[labels[j][i] for j in range(n)] for i in range(n)]
    bwd = ce(labels_t, sim_t)
    return 0.5 * (fwd + bwd)


def infonce_hard_naive(pred, target, tau: float) -> float:
    """Standard bidirectional InfoNCE with one-hot diagonal labels."""
    n = np.asarray(pred).shape[0]
    lam = [1.0] * n
    perm = list(range(n))
    return bimixco_naive(pred, target, lam, perm, tau)


def normalize_rows_naive(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64).copy()
    for i in range(a.shape[0]):
        r = math.sqrt(sum(float(v) ** 2 for v in a[i]))
        a[i] = a[i] / (r + 1e-12)
    return a


def lowlevel_naive(vae_true, vae_pred, teacher_true, teacher_pred, tau: float) -> float:
    """Mean absolute latent error plus soft contrastive teacher term."""
    vt = np.asarray(vae_true, dtype=np.float64).reshape(-1)
    vp = np.asarray(vae_pred, dtype=np.float64).reshape(-1)
    l1 = sum(abs(float(a) - float(b)) for a, b in zip(vt, vp)) / len(vt)
    tp = normalize_rows_naive(np.asarray(teacher_pred, dtype=np.float64)
                              .reshape(np.asarray(teacher_pred).shape[0], -1))
    tt = normalize_rows_naive(np.asarray(teacher_true, dtype=np.float64)
                              .reshape(np.asarray(teacher_true).shape[0], -1))
    return l1 + soft_clip_naive(tp, tt, tau)


def box_blur_naive(img, k: int = 4) -> np.ndarray:
    """Valid-mode k x k box average per channel, explicit loops."""
    a = np.asarray(img, dtype=np.float64)
    h, w, ch = a.shape
    out = np.zeros((h - k + 1, w - k + 1, ch))
    for c in range(ch):
        for i in range(h - k + 1):
            for j in range(w - k + 1):
                s = 0.0
                for di in range(k):
                    for dj in range(k):
                        s += float(a[i + di, j + dj, c])
                out[i, j, c] = s / (k * k)
    return out


def adamw_reference_step(p, g, m, v, t, lr, b1, b2, eps, wd):
    """Single-coordinate AdamW update from the published formulas."""
    p = p - lr * wd * p
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    p = p - lr * mhat / (math.sqrt(vhat) + eps)
    return p, m, v


def adamw_unblocked_step(params, grads, m, v, t, lr, b1, b2, eps, wd, decay_mask=None):
    """One whole-array AdamW step over named arrays, updating them in place.

    One of the two oracles here that are not scalar loops: the folded
    update, with the moments kept as ``m / (1 - b1)`` and ``v / (1 - b2)``
    and the bias corrections in the step size and ``eps``, written as one
    numpy expression per term, each with a temporary as large as the
    parameter. The optimizer's blocked update must match it bit for bit;
    ``adamw_reference_step`` checks its algebra to rounding.
    A name without an entry in ``grads`` still decays if masked in.
    """
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    c = math.sqrt((1.0 - b2) / bc2)
    step_size = lr * (1.0 - b1) / (bc1 * c)
    eps_c = eps / c
    for name, p in params.items():
        g = grads.get(name)
        decay = wd if (decay_mask is None or decay_mask.get(name, False)) else 0.0
        if decay:
            p *= 1.0 - lr * decay
        if g is None:
            continue
        mm = m.setdefault(name, np.zeros_like(p))
        vv = v.setdefault(name, np.zeros_like(p))
        mm *= b1
        mm += g
        vv *= b2
        vv += g * g
        p -= step_size * mm / (np.sqrt(vv) + eps_c)


def train_loop_stepping_after_backward(world, datasets, mp, cfg, per_subject, master):
    """`_train_loop`'s optimization as a full backward followed by one whole
    AdamW step per iteration, updating ``mp`` in place; returns the moments
    ``(m, v)`` by parameter name.

    Not a scalar loop: it draws the batches and builds the losses with the
    package's own calls, in the loop's order, and steps with
    `adamw_unblocked_step`. It holds every gradient until the step, the order
    that stepping each parameter inside backward must match bit for bit.
    """
    from mindalign import seeds
    from mindalign.losses import loss_phase, total_loss
    from mindalign.optim import warmup_cosine_lr
    from mindalign.train import _batch_losses

    subject_ids = sorted(datasets)
    train_idx = {sid: np.flatnonzero(datasets[sid].train_mask) for sid in subject_ids}
    iters_per_epoch = min(len(v) for v in train_idx.values()) // per_subject
    total_iters = cfg.epochs * iters_per_epoch
    params = {k: p for k, p in mp.params.items() if p.requires_grad}
    # weight decay on the ridge weights alone
    mask = {k: k.startswith("ridge.") and k.endswith(".W") for k in params}
    m, v = {}, {}
    it = 0
    for epoch in range(cfg.epochs):
        orders = {sid: seeds.rng(master, "shuffle", epoch, sid).permutation(len(idx))
                  for sid, idx in train_idx.items()}
        for step in range(iters_per_epoch):
            rows = {sid: train_idx[sid][orders[sid][step * per_subject:(step + 1) * per_subject]]
                    for sid in subject_ids}
            for p in params.values():
                p.grad = None
            losses = _batch_losses(world, datasets, mp, cfg, loss_phase(it, total_iters),
                                   rows, master, it)
            total_loss(*losses, cfg.weights).backward()
            adamw_unblocked_step(
                {k: p.data for k, p in params.items()},
                {k: p.grad for k, p in params.items() if p.grad is not None}, m, v,
                it + 1, warmup_cosine_lr(it, total_iters, cfg.lr, cfg.warmup_frac),
                0.9, 0.999, 1e-8, cfg.ridge_weight_decay, mask)
            it += 1
    for p in params.values():
        p.grad = None
    return m, v


def batch_losses_two_pass(world, datasets, mp, cfg, phase, batch_rows, master, it):
    """`_batch_losses` with the BiMixCo phase's two trunk passes: ridge and
    backbone run once over the clean voxels and once more over the mixed
    ones, each subject under the same dropout mask both times.

    Not a scalar loop: the form `train._batch_losses` had before it stacked
    the clean rows on the mixed rows, built with the package's own calls. The
    stacked pass must match it to rounding, in every loss part and gradient.
    """
    from mindalign import seeds
    from mindalign.losses import (PHASE_BIMIXCO, LowLevelTargets, bimixco_loss,
                                  lowlevel_loss, soft_clip_loss)
    from mindalign.model import (backbone_forward, lowlevel_forward, prior_train_step,
                                 retrieval_project, ridge_forward, target_embed)
    from mindalign.tensor import Tensor, concat
    from mindalign.train import _dropout_mask, _mixco_per_subject
    from mindalign.world import teacher_targets, token_targets, vae_targets

    subject_ids = sorted(batch_rows)
    vox = {sid: datasets[sid].voxels[batch_rows[sid]] for sid in subject_ids}
    ids = np.concatenate([datasets[sid].image_ids[batch_rows[sid]] for sid in subject_ids])
    imgs = world.images[ids]
    tok_true = token_targets(world, imgs)

    def to_tokens(voxels_by_subject):
        lats = [ridge_forward(mp, sid, voxels_by_subject[sid],
                              _dropout_mask(mp, cfg, master, it, sid,
                                            voxels_by_subject[sid].shape[0]))
                for sid in subject_ids]
        return backbone_forward(mp, lats[0] if len(lats) == 1 else concat(lats, axis=0))

    tokens = to_tokens(vox)
    prior_l = contrastive_l = lowlevel_l = Tensor(0.0)
    if cfg.use_prior:
        t_draw = seeds.rng(master, "prior-t", it).integers(0, mp.mcfg.t_steps,
                                                           size=imgs.shape[0])
        prior_l = prior_train_step(mp, tokens, tok_true, t_draw,
                                   noise_seed=seeds.derive(master, "prior-noise", it))
    if cfg.use_retrieval:
        target_emb = Tensor(target_embed(mp, tok_true))
        if phase == PHASE_BIMIXCO:
            mixed, mix = _mixco_per_subject(vox, subject_ids, cfg, master, it)
            contrastive_l = bimixco_loss(retrieval_project(mp, to_tokens(mixed)),
                                         target_emb, mix, cfg.tau_bimixco)
        else:
            contrastive_l = soft_clip_loss(retrieval_project(mp, tokens), target_emb,
                                           cfg.tau_softclip)
    if cfg.use_lowlevel:
        vae_pred, teacher_pred = lowlevel_forward(mp, tokens)
        wc = world.config
        lowlevel_l = lowlevel_loss(LowLevelTargets(
            vae_true=vae_targets(world, imgs).reshape(imgs.shape[0], wc.vae_hw, wc.vae_hw,
                                                      wc.vae_channels),
            vae_pred=vae_pred, teacher_true=teacher_targets(world, imgs),
            teacher_pred=teacher_pred), cfg.tau_softclip)
    return prior_l, contrastive_l, lowlevel_l


def train_converter_stepping_after_backward(mp, world, encoder_b, images, epochs,
                                            batch_size, lr, seed):
    """`train_converter`'s optimization as a full backward followed by one
    whole AdamW step per batch, updating ``mp`` in place; returns the moments
    ``(m, v)`` by parameter name.

    Like `train_loop_stepping_after_backward`, it builds the loss with the
    package's own calls, in the converter's batch order, and steps with
    `adamw_unblocked_step`, holding every gradient until the step.
    """
    from mindalign import seeds
    from mindalign.model import converter_forward
    from mindalign.tensor import Tensor, mse_loss
    from mindalign.world import token_targets

    tok_a = token_targets(world, images).reshape(
        images.shape[0], world.config.n_tokens, world.config.d_token)
    tok_b = encoder_b.encode_batch(world, images)
    params = {k: p for k, p in mp.params.items() if k.startswith("converter.")}
    for p in params.values():
        p.requires_grad = True
    m, v = {}, {}
    rng = seeds.rng(seed, "converter")
    n, t = images.shape[0], 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n - batch_size + 1, batch_size):
            rows = order[lo:lo + batch_size]
            for p in params.values():
                p.grad = None
            mse_loss(converter_forward(mp, tok_a[rows]), Tensor(tok_b[rows])).backward()
            t += 1
            adamw_unblocked_step({k: p.data for k, p in params.items()},
                                 {k: p.grad for k, p in params.items()}, m, v, t, lr,
                                 0.9, 0.999, 1e-8, 0.0)
    for p in params.values():
        p.grad = None
    return m, v


def smooth_images_out_of_place(n, image_hw, channels, smooth_sigma, rng) -> np.ndarray:
    """The world's stimulus pool written out of place, one temporary per term.

    The other oracle that is not a scalar loop: the world builds the same
    images in place, and must match this bit for bit.
    """
    raw = rng.normal(size=(n, image_hw, image_hw, channels))
    smooth = gaussian_filter(raw, sigma=(0, smooth_sigma, smooth_sigma, 0))
    flat = smooth.reshape(n, -1)
    mu = flat.mean(axis=1, keepdims=True)
    sd = flat.std(axis=1, keepdims=True)
    z = (flat - mu) / np.maximum(sd, 1e-6)  # the world's STD_FLOOR
    return np.clip(0.5 + 0.22 * z, 0.0, 1.0).reshape(smooth.shape)


def ssim_per_image(img_a, img_b, window: int = 8, sigma: float = 1.5,
                   c1: float = 0.01 ** 2, c2: float = 0.03 ** 2) -> float:
    """SSIM of one [H, W, C] pair, one ``np.tensordot`` per window sum.

    Not a scalar loop: the per-image, per-channel form that the stacked
    ``ssim`` must match bit for bit.
    """
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    c = (window - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(window), np.arange(window), indexing="ij")
    w = np.exp(-((ii - c) ** 2 + (jj - c) ** 2) / (2.0 * sigma * sigma))
    w = w / w.sum()
    total = 0.0
    count = 0
    for ch in range(a.shape[2]):
        wa = sliding_window_view(a[:, :, ch], (window, window))
        wb = sliding_window_view(b[:, :, ch], (window, window))
        mu_x = np.tensordot(wa, w, axes=([2, 3], [0, 1]))
        mu_y = np.tensordot(wb, w, axes=([2, 3], [0, 1]))
        dx = wa - mu_x[..., None, None]
        dy = wb - mu_y[..., None, None]
        var_x = np.tensordot(dx * dx, w, axes=([2, 3], [0, 1]))
        var_y = np.tensordot(dy * dy, w, axes=([2, 3], [0, 1]))
        cov = np.tensordot(dx * dy, w, axes=([2, 3], [0, 1]))
        s = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
            (mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2))
        total += s.sum()
        count += s.size
    return float(total / count)


def box_blur_per_image(img, k: int = 4) -> np.ndarray:
    """Valid-mode k x k box average of one [H, W, C] image, one window view
    per channel.

    Not a scalar loop: the per-image form that the stacked ``box_blur`` must
    match bit for bit.
    """
    a = np.asarray(img, dtype=np.float64)
    out = np.empty((a.shape[0] - k + 1, a.shape[1] - k + 1, a.shape[2]))
    for c in range(a.shape[2]):
        out[:, :, c] = sliding_window_view(a[:, :, c], (k, k)).mean(axis=(2, 3))
    return out


def retrieval_per_item(emb, temb, pool_size: int, repetitions: int, rng) -> dict[str, float]:
    """Top-1 retrieval scored one item at a time, drawing each subsampled
    pool from ``rng`` in item order.

    Not a scalar loop: the per-item form that the one-pass ``retrieval_eval``
    must match bit for bit, given the generator it seeds.
    """
    emb = np.asarray(emb, dtype=np.float64)
    temb = np.asarray(temb, dtype=np.float64)
    n = emb.shape[0]
    emb = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
    temb = temb / np.maximum(np.linalg.norm(temb, axis=1, keepdims=True), 1e-12)
    sims = emb @ temb.T
    image_acc = np.zeros(repetitions)
    brain_acc = np.zeros(repetitions)
    for rep in range(repetitions):
        img_hits = 0
        brain_hits = 0
        for i in range(n):
            if pool_size == n:
                others = np.delete(np.arange(n), i)
            else:
                pool = rng.choice(n - 1, size=pool_size - 1, replace=False)
                others = np.where(pool >= i, pool + 1, pool)
            img_hits += sims[i, i] > sims[i, others].max()
            brain_hits += sims[i, i] > sims[others, i].max()
        image_acc[rep] = img_hits / n
        brain_acc[rep] = brain_hits / n
    return {"image_retrieval": float(image_acc.mean()),
            "brain_retrieval": float(brain_acc.mean())}


def encoding_fit_svd(images, voxels, regions):
    """Per-region ridge encoding fit through a thin SVD of the centered
    images, returning ``(weights, intercept, reg_strength)``.

    Not a scalar loop: the primal form, one residual product per region and
    per candidate strength, that the dual fit in ``EncodingModel.fit`` must
    match in its strength choices and to rounding in its weights. The
    strengths and the degrees-of-freedom cap restate the package's.
    """
    lambdas = np.logspace(-6, 4, 21)
    X = np.asarray(images, dtype=np.float64).reshape(images.shape[0], -1)
    Y = np.asarray(voxels, dtype=np.float64)
    x_mean = X.mean(axis=0)
    Xc = X - x_mean
    U, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    n = X.shape[0]
    weights = np.zeros((Y.shape[1], X.shape[1]))
    intercept = np.zeros(Y.shape[1])
    strengths = {}
    max_edf = 0.98 * min(n - 1, s.size)
    for name, idx in regions.items():
        Yr = Y[:, idx]
        y_mean = Yr.mean(axis=0)
        Yc = Yr - y_mean
        UtY = U.T @ Yc
        best_lam, best_gcv = None, np.inf
        for lam in lambdas:
            shrink = s * s / (s * s + lam)
            edf = shrink.sum()
            if edf > max_edf:
                continue
            resid = Yc - U @ (shrink[:, None] * UtY)
            gcv = (resid ** 2).sum() / n / (1.0 - edf / n) ** 2
            if gcv < best_gcv:
                best_gcv, best_lam = gcv, float(lam)
        if best_lam is None:
            best_lam = float(lambdas[-1])
        coef = Vt.T @ ((s / (s * s + best_lam))[:, None] * UtY)
        weights[idx] = coef.T
        intercept[idx] = y_mean - x_mean @ coef
        strengths[name] = best_lam
    return weights, intercept, strengths


def pinv_svd(a):
    """``np.linalg.pinv`` of ``a`` restated through one thin SVD, with
    numpy's cutoff: the form the world's QR pseudo-inverses replaced, which
    they must match to rounding.

    Not a scalar loop: it has pinv's operations and therefore its bits.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    large = s > 1e-15 * s.max()
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return np.matmul(vt.T, np.multiply(s[:, None], u.T))


def prior_sample_token_space(mp, backbone_tokens, seed: int) -> np.ndarray:
    """Ancestral DDPM sampling with the state kept in token space: one full
    denoiser call per step, one ``normal`` draw per step, the posterior
    mean and noise applied to the ``[n, token_dim]`` tokens.

    Not independent of the package: the form ``model.prior_sample`` had
    before its recursion moved to the denoiser's hidden space. It calls the
    package's training-path denoiser, so it checks the sampler's algebra
    and noise stream, not the denoiser.
    """
    from mindalign import seeds
    from mindalign.model import denoise

    cond = np.asarray(backbone_tokens, dtype=np.float64)
    n = cond.shape[0]
    rng = seeds.rng(seed, "prior-sample")
    x = rng.normal(size=(n, mp.token_dim))
    ab = mp.alpha_bar
    for t in range(mp.mcfg.t_steps - 1, 0, -1):
        x0 = denoise(mp, x, np.full(n, t, dtype=np.int64), cond).data
        ab_t, ab_prev = ab[t], ab[t - 1]
        alpha_t = ab_t / ab_prev
        beta_t = 1.0 - alpha_t
        mean = (np.sqrt(ab_prev) * beta_t / (1.0 - ab_t)) * x0 \
            + (np.sqrt(alpha_t) * (1.0 - ab_prev) / (1.0 - ab_t)) * x
        var = (1.0 - ab_prev) / (1.0 - ab_t) * beta_t
        x = mean + np.sqrt(max(var, 0.0)) * rng.normal(size=x.shape)
    x0 = denoise(mp, x, np.zeros(n, dtype=np.int64), cond).data
    return x0.reshape(n, mp.world_cfg.n_tokens, mp.world_cfg.d_token)
