"""AdamW semantics and convergence."""

import numpy as np
import pytest

from mindalign.optim import AdamW, warmup_cosine_lr
from mindalign.tensor import ShapeError, Tensor, mul, tensor_sum

from oracles import adamw_reference_step


def test_zero_grad_zero_decay_is_identity():
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.5, -2.0])
    assert opt.step_count == 1


def test_zero_grad_decay_shrinks_by_factor():
    p = Tensor(np.array([2.0, -4.0]), requires_grad=True)
    AdamW({"p": p}, lr=0.1, weight_decay=0.5).step()
    np.testing.assert_allclose(p.data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.5),
                               rtol=0, atol=0)


def test_matches_reference_formulas():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=4), requires_grad=True)
    ref_p = p.data.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    opt = AdamW({"p": p}, lr=0.01, weight_decay=0.2)
    for t in range(1, 6):
        g = rng.normal(size=4)
        p.grad = g
        opt.step()
        for i in range(4):
            ref_p[i], m[i], v[i] = adamw_reference_step(
                ref_p[i], g[i], m[i], v[i], t, 0.01, 0.9, 0.999, 1e-8, 0.2)
        np.testing.assert_allclose(p.data, ref_p, atol=1e-14)


def test_quadratic_bowl_converges():
    # 200 steps at lr=0.05 from (1,1) lands well inside 1e-2 of the optimum
    w = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    opt = AdamW({"w": w}, lr=0.05)
    for _ in range(200):
        opt.zero_grad()
        tensor_sum(mul(w, w)).backward()
        opt.step()
    assert np.linalg.norm(w.data) < 1e-2


def test_shape_mismatch_rejected():
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = np.zeros(4)
    with pytest.raises(ShapeError):
        AdamW({"p": p}, lr=0.1).step()


def test_lr_must_be_positive():
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError):
        AdamW({"p": p}, lr=0.0).step()


def test_decay_mask_limits_decay():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0]), requires_grad=True)
    AdamW({"a": a, "b": b}, lr=0.1, weight_decay=0.5,
          decay_mask={"a": True, "b": False}).step()
    assert a.data[0] == pytest.approx(0.95)
    assert b.data[0] == 1.0


def test_warmup_cosine_shape():
    total = 100
    lrs = [warmup_cosine_lr(s, total, 1.0) for s in range(total)]
    warm = int(np.ceil(0.05 * total))
    assert lrs[0] == pytest.approx(1.0 / warm)
    assert max(lrs) == pytest.approx(1.0)
    assert lrs[-1] < 0.01
    assert all(b <= a + 1e-12 for a, b in zip(lrs[warm:], lrs[warm + 1:]))
