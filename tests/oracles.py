"""Independent brute-force oracles used by the test suite.

Everything here is written as plain scalar loops over Python floats, with no
shared code paths into the package under test. Slow on purpose. The two
exceptions, numpy restatements of an older whole-array form that the
package must still match bit for bit, say so in their docstrings.
"""

from __future__ import annotations

import math

import numpy as np
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

    One of the two oracles here that are not scalar loops: the update
    written as one numpy expression per term, each with a temporary as large as the
    parameter, which the optimizer's blocked update must match bit for bit.
    A name without an entry in ``grads`` still decays if masked in.
    """
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads.get(name)
        decay = wd if (decay_mask is None or decay_mask.get(name, False)) else 0.0
        if decay:
            p -= lr * decay * p
        if g is None:
            continue
        mm = m.setdefault(name, np.zeros_like(p))
        vv = v.setdefault(name, np.zeros_like(p))
        mm *= b1
        mm += (1.0 - b1) * g
        vv *= b2
        vv += (1.0 - b2) * g * g
        p -= lr * (mm / bc1) / (np.sqrt(vv / bc2) + eps)


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
