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

    A step can run whole, in `step`, or a parameter at a time: `step_param`
    updates one parameter as soon as its gradient is final (it is
    ``Tensor.backward``'s ``on_leaf`` hook) and drops that gradient, and
    `step` then finishes the step, updating every parameter not yet stepped
    that holds a gradient or decays. Either way the step counter advances
    once per step, and every parameter takes that step's `lr`, bias
    corrections and `eps`, fixed when the step's first parameter is updated,
    so the two ways give the same bits.

    The moments are kept scaled: `m[name]` holds `m / (1 - b1)` and
    `v[name]` holds `v / (1 - b2)` of the published update, so neither
    recurrence scales the gradient, and the bias corrections fold into one
    step size and one `eps` per step, as in PyTorch's AdamW. In exact
    arithmetic this is Loshchilov and Hutter's update (ICLR 2019); its
    rounding differs in the last bits.

    The moments are allocated once, the first time the parameter has a
    gradient. An update runs blocked and in place: it walks the flat views of
    parameter, gradient and moments in `_BLOCK`-element blocks through two
    scratch buffers, and allocates nothing after the first step. Each
    element goes through the same float64 operations in one fixed order
    (decay, `m`, `v`, the step: 10 ufunc passes, 11 with decay, as the
    comments in `_update` spell out), so the bits do not depend on the block
    size. Bad input (a non-finite or non-positive `lr`, a non-finite or
    negative `weight_decay`, a gradient's shape, a parameter that is not
    C-contiguous) raises before anything changes: in `step`, before any
    parameter is written.
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
        self._names = {id(p): name for name, p in params.items()}
        # the step under way: (lr, step size, eps), and the parameters it has updated
        self._open: tuple[float, float, float] | None = None
        self._stepped: set[str] = set()

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        """Update every parameter not yet stepped this step, and close it."""
        work = []
        for name, p in self.params.items():
            if name in self._stepped:
                continue
            decay = self._decay(name)
            if p.grad is None and not decay:
                continue
            self._check(name, p)
            work.append((name, p, decay))
        self._begin()
        for name, p, decay in work:
            self._update(name, p.data, p.grad, decay)
        self._open = None
        self._stepped.clear()

    def step_param(self, p: Tensor) -> None:
        """Update one of the parameters with its final gradient, inside the
        step that `step` closes, and drop the gradient. A tensor that is not
        one of the parameters is ignored; a parameter without a gradient is
        left to `step`, which decays it if masked in."""
        name = self._names.get(id(p))
        if name is None or p.grad is None:
            return
        self._check(name, p)
        self._begin()
        self._update(name, p.data, p.grad, self._decay(name))
        self._stepped.add(name)
        p.grad = None

    def _decay(self, name: str) -> float:
        masked = self.decay_mask is None or self.decay_mask.get(name, False)
        return self.weight_decay if masked else 0.0

    @staticmethod
    def _check(name: str, p: Tensor) -> None:
        if p.grad is not None and p.grad.shape != p.data.shape:
            raise ShapeError(f"grad shape {p.grad.shape} != param shape {p.data.shape} "
                             f"for {name}")
        # a flat view of any other layout is a copy, and the update would be lost
        if not p.data.flags.c_contiguous:
            raise ShapeError(f"param {name} is not C-contiguous")

    def _begin(self) -> None:
        """Open the step, once: check `lr` and `weight_decay`, advance the
        counter and fix the step's coefficients."""
        if self._open is not None:
            return
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and non-negative, "
                             f"got {self.weight_decay}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - _BETA1 ** t
        bc2 = 1.0 - _BETA2 ** t
        # with the scaled moments, m_hat = (1-b1)*m/bc1 and sqrt(v_hat) = c*sqrt(v)
        c = math.sqrt((1.0 - _BETA2) / bc2)
        self._open = (self.lr, self.lr * (1.0 - _BETA1) / (bc1 * c), _EPS / c)

    def _update(self, name: str, data: np.ndarray, g: np.ndarray | None,
                decay: float) -> None:
        b1, b2 = _BETA1, _BETA2
        lr, step_size, eps = self._open
        s1, s2 = self._scratch
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
            if decay:  # p *= 1 - lr*decay
                np.multiply(pb, 1.0 - lr * decay, out=pb)
            if g is None:
                continue
            u, w = s1[:pb.size], s2[:pb.size]
            gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
            # scaled moments: m = b1*m + g
            np.multiply(mb, b1, out=mb)
            np.add(mb, gb, out=mb)
            # v = b2*v + g*g
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, gb, out=u)
            np.add(vb, u, out=vb)
            # p -= (step_size*m) / (sqrt(v) + eps)
            np.sqrt(vb, out=w)
            np.add(w, eps, out=w)
            np.multiply(mb, step_size, out=u)
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
