"""AdamW with decoupled weight decay, and the warmup+cosine LR schedule."""

from __future__ import annotations

import math

import numpy as np

from .tensor import ShapeError, Tensor


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict, in place.

    `decay_mask` selects which parameters receive weight decay (all by
    default). A parameter without a gradient skips the adaptive step but
    still decays if masked in. `lr` may be reassigned between steps.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0,
                 decay_mask: dict[str, bool] | None = None):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.decay_mask = decay_mask
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            decay = self.weight_decay if (self.decay_mask is None
                                          or self.decay_mask.get(name, False)) else 0.0
            if decay:
                p.data -= self.lr * decay * p.data
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape} "
                                 f"for {name}")
            m = self.m.setdefault(name, np.zeros_like(p.data))
            v = self.v.setdefault(name, np.zeros_like(p.data))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def warmup_cosine_lr(step: int, total_steps: int, base_lr: float,
                     warmup_frac: float = 0.05) -> float:
    """Linear warmup over the first `warmup_frac` of steps, then cosine decay."""
    warmup = max(1, int(math.ceil(warmup_frac * total_steps)))
    if step < warmup:
        return base_lr * (step + 1) / warmup
    span = max(1, total_steps - warmup)
    progress = (step - warmup) / span
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
