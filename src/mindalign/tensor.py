"""Dense-tensor numerics with reverse-mode automatic differentiation.

Graphs are built define-by-run: every operation returns a new ``Tensor``
holding references to its parents and a closure implementing its backward
rule. ``Tensor.backward`` walks the recorded graph in reverse topological
order, hands each node's gradient to its closure, and accumulates gradients
into every leaf that requires them. A closure computes an operand's gradient
only if that operand requires grad, so frozen weights and constant inputs
cost nothing in the backward pass.

A closure references the op's inputs but never its own output, so a graph
is acyclic: reference counting frees it, activations and intermediate
gradients included, as soon as its last reference is dropped, without
waiting for the cycle collector.

All data is float64. Any NaN/Inf produced by an operation is a contract
violation and raises ``NonFiniteError`` at the op that produced it, naming
that op (``non-finite value in matmul output``).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "GraphError",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "tensor_sum",
    "tensor_mean",
    "gelu",
    "layernorm",
    "l2_normalize",
    "l1_loss",
    "mse_loss",
    "cross_entropy_soft",
    "backward",
    "gradcheck",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# layernorm's variance floor, the common 1e-5; and the package's one row-norm
# floor for dividing rows by their norm, far under any norm that carries signal
_LAYERNORM_EPS = 1e-5
NORM_EPS = 1e-12


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the op signature."""


class GraphError(RuntimeError):
    """Graph misuse: backward on a non-scalar without upstream, etc."""


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    """N-dimensional float64 array with a gradient slot.

    `requires_grad` marks a leaf that receives gradients; tensors produced
    by ops require grad whenever any parent does. `grad`, when populated, has the
    same shape as `data`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        # the one finiteness check: every op's output passes through here
        if not np.isfinite(self.data).all():
            raise NonFiniteError("non-finite value in tensor data")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _from_op(cls, op: str, data: np.ndarray, parents: tuple["Tensor", ...]) -> "Tensor":
        """The output of ``op``; a non-finite value in it names ``op``."""
        try:
            out = cls(data, requires_grad=any(p.requires_grad for p in parents))
        except NonFiniteError:
            raise NonFiniteError(f"non-finite value in {op} output") from None
        if out.requires_grad:
            out._parents = parents
        return out

    @staticmethod
    def lift(x) -> "Tensor":
        """``x`` itself if it is a Tensor, else a constant Tensor of it."""
        return x if isinstance(x, Tensor) else Tensor(x)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _acc(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` into this tensor's gradient, if it requires one.

        Gradients are computed only for operands that require them: each
        closure checks before it computes, and this check covers the root
        of ``backward``. A ``fresh`` g is a new array of this shape that
        nothing else references (matmul's products): it becomes the first
        gradient as it is, so a matmul operand's first gradient may keep a
        -0.0. Any other first gradient is written in one pass into a new
        array of this shape: ``g + 0.0`` has the bits of ``0.0 + g`` (-0.0
        becomes +0.0), and ``g`` itself is never kept, since add and sub
        hand one array to both parents. AdamW's moments and weights do not
        depend on a zero's sign: ``m`` starts at +0.0 and ``v`` squares it.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g if fresh else np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self, upstream: "Tensor | np.ndarray | None" = None,
                 on_leaf: "Callable[[Tensor], None] | None" = None) -> None:
        """Accumulate gradients of a scalar (or upstream-weighted) output.

        With ``on_leaf``, each leaf that requires grad is handed to it as soon
        as the last node that consumes the leaf has run its closure, when its
        gradient is final; and each interior node's gradient is dropped once
        its closure has run, so a pass holds only the gradients not yet
        consumed. ``on_leaf`` may change the leaf's data in place: every
        closure that reads a tensor's data has that tensor as a parent, so it
        has run by then. A leaf that no node consumes (the output itself) is
        not handed over.
        """
        if upstream is None:
            if self.size != 1:
                raise GraphError("backward on non-scalar output requires upstream")
            up = np.ones_like(self.data)
        else:
            up = upstream.data if isinstance(upstream, Tensor) else np.asarray(upstream, dtype=np.float64)
            if up.shape != self.shape:
                raise ShapeError(f"upstream shape {up.shape} != output shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        # consumers of each leaf that requires grad, one per parent slot
        pending: dict[int, int] = {}
        if on_leaf is not None:
            for node in topo:
                for p in node._parents:
                    if p.requires_grad and p._backward_fn is None:
                        pending[id(p)] = pending.get(id(p), 0) + 1
        self._acc(up)
        for node in reversed(topo):
            if node._backward_fn is None:
                continue
            if node.grad is not None:
                node._backward_fn(node.grad)
            if on_leaf is not None:
                node.grad = None
                for p in node._parents:
                    left = pending.get(id(p))
                    if left is not None:
                        pending[id(p)] = left - 1
                        if left == 1:
                            on_leaf(p)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return tensor_slice(self, idx)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # method aliases used throughout the model code
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis, keepdims)


# -- elementwise and structural ops -------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = Tensor.lift(a), Tensor.lift(b)
    out = Tensor._from_op("add", a.data + b.data, (a, b))

    def _bwd(g):
        if a.requires_grad:
            a._acc(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._acc(_unbroadcast(g, b.shape))

    out._backward_fn = _bwd
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = Tensor.lift(a), Tensor.lift(b)
    out = Tensor._from_op("sub", a.data - b.data, (a, b))

    def _bwd(g):
        if a.requires_grad:
            a._acc(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._acc(_unbroadcast(-g, b.shape))

    out._backward_fn = _bwd
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = Tensor.lift(a), Tensor.lift(b)
    out = Tensor._from_op("mul", a.data * b.data, (a, b))

    def _bwd(g):
        if a.requires_grad:
            a._acc(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._acc(_unbroadcast(g * a.data, b.shape))

    out._backward_fn = _bwd
    return out


def scale(a: Tensor, c: float) -> Tensor:
    a = Tensor.lift(a)
    c = float(c)
    out = Tensor._from_op("scale", a.data * c, (a,))

    def _bwd(g):
        a._acc(g * c)

    out._backward_fn = _bwd
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = Tensor.lift(a), Tensor.lift(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor._from_op("matmul", a.data @ b.data, (a, b))

    def _bwd(g):
        if a.requires_grad:
            a._acc(g @ b.data.T, fresh=True)
        if b.requires_grad:
            b._acc(a.data.T @ g, fresh=True)

    out._backward_fn = _bwd
    return out


def transpose(a: Tensor, axes=None) -> Tensor:
    a = Tensor.lift(a)
    # a contiguous copy, not a view: the BLAS calls downstream, and so the
    # bits of every result, depend on the operand layout
    out = Tensor._from_op("transpose", np.transpose(a.data, axes).copy(), (a,))
    inv = None if axes is None else tuple(np.argsort(axes))

    def _bwd(g):
        a._acc(np.transpose(g, inv))

    out._backward_fn = _bwd
    return out


def reshape(a: Tensor, shape) -> Tensor:
    a = Tensor.lift(a)
    out = Tensor._from_op("reshape", a.data.reshape(shape), (a,))

    def _bwd(g):
        a._acc(g.reshape(a.shape))

    out._backward_fn = _bwd
    return out


def tensor_slice(a: Tensor, idx) -> Tensor:
    a = Tensor.lift(a)
    out = Tensor._from_op("tensor_slice", a.data[idx], (a,))

    def _bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a._acc(full)

    out._backward_fn = _bwd
    return out


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [Tensor.lift(t) for t in tensors]
    out = Tensor._from_op("concat", np.concatenate([t.data for t in ts], axis=axis), tuple(ts))
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def _bwd(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._acc(g[tuple(sl)])

    out._backward_fn = _bwd
    return out


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = Tensor.lift(a)
    out = Tensor._from_op("tensor_sum", a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def _bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._acc(np.broadcast_to(g, a.shape))

    out._backward_fn = _bwd
    return out


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = Tensor.lift(a)
    count = a.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    return scale(tensor_sum(a, axis, keepdims), 1.0 / float(count))


# -- nonlinearities ------------------------------------------------------

# erf as Moshier's Cephes library computes it (ndtr.c, the algorithm behind
# scipy.special.erf), step for step, so the two agree bit for bit. For
# |x| <= 1 it is x * T(x^2) / U(x^2). Beyond 1 it is 1 - erfc(|x|), with
# erfc = exp(-x^2) P(x) / Q(x) below 8. From 8 on Cephes' erfc is below
# 1.2e-29, under half an ulp of 1, so erf is 1. U and Q have a leading
# coefficient 1, not stored.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


# up to this many values beyond 1, a loop over Python floats (under 1 us a
# value) is faster than the ~40 ufunc calls of the vectorised tail (~25 us)
_ERF_TAIL_LOOP = 32


def _polevl(x: np.ndarray, coef: tuple[float, ...], leading_one: bool = False) -> np.ndarray:
    """Cephes' Horner steps in place on one new array: `p1evl` when the
    leading coefficient is an implicit 1, else `polevl`."""
    if leading_one:
        ans = x + coef[0]
    else:
        ans = x * coef[0]
        ans += coef[1]
        coef = coef[1:]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erf_tail(x: np.ndarray) -> np.ndarray | list[float]:
    """Cephes erf where |x| > 1: the sign of x times 1 - erfc(|x|).

    Clipped at 8, where erf is 1, -x^2 cannot overflow. The exp is libm's:
    numpy's vectorised exp differs from it in the last bit."""
    if x.size <= _ERF_TAIL_LOOP:
        (p0, p1, p2, p3, p4, p5, p6, p7, p8), (q0, q1, q2, q3, q4, q5, q6, q7) = _ERFC_P, _ERFC_Q
        out = []
        for v in x.tolist():
            a = min(abs(v), 8.0)
            # `polevl` and `p1evl`, unrolled
            p = (((((((p0 * a + p1) * a + p2) * a + p3) * a + p4) * a + p5) * a + p6) * a
                 + p7) * a + p8
            q = (((((((a + q0) * a + q1) * a + q2) * a + q3) * a + q4) * a + q5) * a + q6) * a + q7
            erfc = 0.0 if a == 8.0 else math.exp(-a * a) * p / q
            out.append(math.copysign(1.0 - erfc, v))
        return out
    a = np.minimum(np.abs(x), 8.0)
    erfc = np.array([math.exp(v) for v in (-a * a).tolist()])
    erfc *= _polevl(a, _ERFC_P)
    erfc /= _polevl(a, _ERFC_Q, leading_one=True)
    erfc[a == 8.0] = 0.0
    return np.copysign(1.0 - erfc, x)


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function, bit for bit scipy.special.erf (see `_ERF_T`)."""
    flat = np.reshape(x, -1)
    # the entries beyond 1 are overwritten below, so what x^2 and the
    # polynomials make of them (inf, nan) is ignored; so is the underflow of
    # a tiny x, as inside Cephes
    with np.errstate(all="ignore"):
        z = flat * flat
        y = _polevl(z, _ERF_T)
        y *= flat
        y /= _polevl(z, _ERF_U, leading_one=True)
    # |x| > 1 exactly where x^2 > 1: under 1% of the values in training
    idx = np.flatnonzero(z > 1.0)
    if idx.size:
        y[idx] = _erf_tail(flat[idx])
    return y.reshape(np.shape(x))


def gelu(a: Tensor) -> Tensor:
    """Exact gaussian-gated linear unit x * Phi(x)."""
    a = Tensor.lift(a)
    phi = _erf(a.data * _INV_SQRT2)
    # in place, the bits of 0.5 * (1.0 + erf)
    phi += 1.0
    phi *= 0.5
    out = Tensor._from_op("gelu", a.data * phi, (a,))

    def _bwd(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
        a._acc(g * (phi + a.data * pdf))

    out._backward_fn = _bwd
    return out


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last axis with learnable gain/bias."""
    x, gain, bias = Tensor.lift(x), Tensor.lift(gain), Tensor.lift(bias)
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError("layernorm gain/bias must match last axis")
    # an overflowing variance would make inv 0 and the output the (finite)
    # bias, so it is refused here instead of at some later op
    with np.errstate(over="ignore", invalid="ignore"):
        mu = x.data.mean(axis=-1, keepdims=True)
        xc = x.data - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
    if not np.isfinite(var).all():
        raise NonFiniteError("non-finite value in layernorm variance")
    inv = 1.0 / np.sqrt(var + _LAYERNORM_EPS)
    xhat = xc * inv
    out = Tensor._from_op("layernorm", gain.data * xhat + bias.data, (x, gain, bias))

    def _bwd(dy):
        lead = tuple(range(dy.ndim - 1))
        if gain.requires_grad:
            gain._acc((dy * xhat).sum(axis=lead))
        if bias.requires_grad:
            bias._acc(dy.sum(axis=lead))
        if x.requires_grad:
            dxh = dy * gain.data
            x._acc(inv * (dxh - dxh.mean(axis=-1, keepdims=True)
                          - xhat * (dxh * xhat).mean(axis=-1, keepdims=True)))

    out._backward_fn = _bwd
    return out


def l2_normalize(x: Tensor) -> Tensor:
    """Last-axis rows scaled by max(L2 norm, `NORM_EPS`); exactly unit above it."""
    x = Tensor.lift(x)
    r = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    d = np.maximum(r, NORM_EPS)
    out = Tensor._from_op("l2_normalize", x.data / d, (x,))

    def _bwd(g):
        inner = (g * x.data).sum(axis=-1, keepdims=True)
        # below the clamp the map is linear in x, so the norm term vanishes
        x._acc(g / d - x.data * (inner * (r > NORM_EPS) / (d * d * d)))

    out._backward_fn = _bwd
    return out


# -- losses --------------------------------------------------------------


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference over all elements."""
    pred, target = Tensor.lift(pred), Tensor.lift(target)
    if pred.shape != target.shape:
        raise ShapeError(f"l1_loss shapes differ: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    out = Tensor._from_op("l1_loss", np.abs(diff).mean(), (pred, target))
    n = pred.size

    def _bwd(g):
        g = g * np.sign(diff) / n
        if pred.requires_grad:
            pred._acc(g)
        if target.requires_grad:
            target._acc(-g)

    out._backward_fn = _bwd
    return out


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared difference over all elements."""
    pred, target = Tensor.lift(pred), Tensor.lift(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shapes differ: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    out = Tensor._from_op("mse_loss", (diff * diff).mean(), (pred, target))
    n = pred.size

    def _bwd(g):
        g = g * 2.0 * diff / n
        if pred.requires_grad:
            pred._acc(g)
        if target.requires_grad:
            target._acc(-g)

    out._backward_fn = _bwd
    return out


def cross_entropy_soft(logits: Tensor, soft_targets: np.ndarray | Tensor) -> Tensor:
    """Mean soft-target cross-entropy over last-axis rows: mean of -sum t * log_softmax(z).

    Soft targets are treated as constants (no gradient flows into them); row
    masses need not sum to one.
    """
    logits = Tensor.lift(logits)
    t = soft_targets.data if isinstance(soft_targets, Tensor) else np.asarray(soft_targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError(f"targets shape {t.shape} != logits shape {logits.shape}")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logq = z - lse
    n_rows = logits.size // logits.shape[-1]
    out = Tensor._from_op("cross_entropy_soft", -(t * logq).sum() / n_rows, (logits,))

    def _bwd(g):
        q = np.exp(logq)
        mass = t.sum(axis=-1, keepdims=True)
        logits._acc(g * (q * mass - t) / n_rows)

    out._backward_fn = _bwd
    return out


# -- graph-level interface ----------------------------------------------

Graph = Callable[[Mapping[str, Tensor]], Tensor]


def backward(graph: Graph, bindings: Mapping[str, Tensor],
             upstream: Tensor | np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Gradient of the graph output for every requires_grad binding.

    Leaves that do not participate in the output get zero gradients.
    """
    for t in bindings.values():
        t.zero_grad()
    out = graph(bindings)
    out.backward(upstream)
    return {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for k, t in bindings.items() if t.requires_grad}


# gradcheck's floor on |gradient|, in ulps of the output per step: over 3000
# random graphs with O(1-10) outputs, central differences of correct
# gradients strayed up to 8e3 of these units, for a worst error of 1e-5
_GRADCHECK_FLOOR_ULPS = 1e5


def gradcheck(graph: Graph, bindings: Mapping[str, Tensor], eps: float = 1e-5,
              coords_per_param: int | None = None, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    The graph output must be scalar. With `coords_per_param` set, only that
    many randomly chosen coordinates per binding are probed (necessary for
    large parameter sets); otherwise every coordinate is checked.

    Each coordinate's error is `|a - n| / max(|a|, |n|, floor)` for analytic
    `a` and numeric `n`. Rounding the output by one ulp moves a central
    difference by ulp(output) / (2 * eps), so the floor is
    `_GRADCHECK_FLOOR_ULPS` times ulp(output) / eps: a gradient below it is
    judged by its absolute error, at a scale set by the output's own
    rounding, whatever the output's size.
    """
    out = graph(bindings)
    if out.size != 1:
        raise GraphError("gradcheck requires a scalar graph output")
    floor = _GRADCHECK_FLOOR_ULPS * np.spacing(abs(out.item())) / eps
    analytic = backward(graph, bindings)
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for name, grad in analytic.items():
        t = bindings[name]
        # `.flat` writes through any strides, so the probes reach the graph
        # also for a non-contiguous binding
        flat = t.data.flat
        gflat = grad.reshape(-1)
        n = t.size
        if coords_per_param is None or coords_per_param >= n:
            coords = range(n)
        else:
            coords = rng.choice(n, size=coords_per_param, replace=False)
        for i in coords:
            keep = flat[i]
            flat[i] = keep + eps
            hi = graph(bindings).item()
            flat[i] = keep - eps
            lo = graph(bindings).item()
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * eps)
            a = gflat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            worst = max(worst, rel)
    return worst
