"""AdamW with decoupled weight decay, and the warmup+cosine LR schedule."""

from __future__ import annotations

import math

import numpy as np

from .tensor import ShapeError, Tensor


# elements per block of the fused update: the four operand blocks and the two
# scratch blocks (256 KB each, 1.5 MB in all) stay in a 2 MB L2 cache between
# the ufunc passes
_BLOCK = 32768
# Adam's moment decays and denominator floor, the defaults of Kingma and Ba
# (2015) that MindEye2's AdamW keeps
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict, in place.

    `decay_mask` selects which parameters receive weight decay (all by
    default). A parameter without a gradient skips the adaptive step but
    still decays if masked in. `lr` may be reassigned between steps.

    The moments `m[name]` and `v[name]` are allocated once, the first time
    the parameter has a gradient. A step runs blocked and in place: it walks
    the flat views of parameter, gradient and moments in `_BLOCK`-element
    blocks through two scratch buffers, and allocates nothing after the first
    step. Each element goes through the same float64 operations in one
    fixed order (decay, `m`, `v`, the step, as the comments in `step` spell
    out), so the bits do not depend on the block size. Bad input (`lr`, a
    gradient's shape, a parameter that is not C-contiguous) raises before
    anything changes.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0,
                 decay_mask: dict[str, bool] | None = None):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.decay_mask = decay_mask
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._scratch = (np.empty(_BLOCK), np.empty(_BLOCK))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        work = []
        for name, p in self.params.items():
            g = p.grad
            decay = self.weight_decay if (self.decay_mask is None
                                          or self.decay_mask.get(name, False)) else 0.0
            if g is None and not decay:
                continue
            if g is not None and g.shape != p.data.shape:
                raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape} "
                                 f"for {name}")
            # a flat view of any other layout is a copy, and the update would be lost
            if not p.data.flags.c_contiguous:
                raise ShapeError(f"param {name} is not C-contiguous")
            work.append((name, p.data, g, decay))
        self.step_count += 1
        t = self.step_count
        b1, b2, lr, eps = _BETA1, _BETA2, self.lr, _EPS
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        s1, s2 = self._scratch
        for name, data, g, decay in work:
            p = data.reshape(-1)
            if g is not None:
                if name not in self.m:
                    self.m[name] = np.zeros(data.shape)
                    self.v[name] = np.zeros(data.shape)
                g = g.reshape(-1)
                m = self.m[name].reshape(-1)
                v = self.v[name].reshape(-1)
            for lo in range(0, p.size, _BLOCK):
                hi = lo + _BLOCK
                pb = p[lo:hi]
                u, w = s1[:pb.size], s2[:pb.size]
                if decay:  # p -= (lr*decay)*p
                    np.multiply(pb, lr * decay, out=u)
                    np.subtract(pb, u, out=pb)
                if g is None:
                    continue
                gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
                # m = b1*m + (1-b1)*g
                np.multiply(mb, b1, out=mb)
                np.multiply(gb, 1.0 - b1, out=u)
                np.add(mb, u, out=mb)
                # v = b2*v + ((1-b2)*g)*g
                np.multiply(vb, b2, out=vb)
                np.multiply(gb, 1.0 - b2, out=u)
                np.multiply(u, gb, out=u)
                np.add(vb, u, out=vb)
                # p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
                np.divide(mb, bc1, out=u)
                np.multiply(u, lr, out=u)
                np.divide(vb, bc2, out=w)
                np.sqrt(w, out=w)
                np.add(w, eps, out=w)
                np.divide(u, w, out=u)
                np.subtract(pb, u, out=pb)


def warmup_cosine_lr(step: int, total_steps: int, base_lr: float,
                     warmup_frac: float) -> float:
    """Linear warmup over the first `warmup_frac` of steps, then cosine decay."""
    warmup = max(1, int(math.ceil(warmup_frac * total_steps)))
    if step < warmup:
        return base_lr * (step + 1) / warmup
    span = max(1, total_steps - warmup)
    progress = (step - warmup) / span
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
