"""AdamW semantics and convergence."""

import tracemalloc

import numpy as np
import pytest

from mindalign.optim import _BLOCK, AdamW, warmup_cosine_lr
from mindalign.tensor import ShapeError, Tensor, mul, tensor_sum

from oracles import adamw_reference_step, adamw_unblocked_step


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
    lrs = [warmup_cosine_lr(s, total, 1.0, 0.05) for s in range(total)]
    warm = int(np.ceil(0.05 * total))
    assert lrs[0] == pytest.approx(1.0 / warm)
    assert max(lrs) == pytest.approx(1.0)
    assert lrs[-1] < 0.01
    assert all(b <= a + 1e-12 for a, b in zip(lrs[warm:], lrs[warm + 1:]))


# -- the blocked update ------------------------------------------------------

# sizes on both sides of every block edge, and a weight matrix
BLOCK_SHAPES = {"one": (1,), "short": (_BLOCK - 1,), "block": (_BLOCK,),
                "over": (_BLOCK + 1,), "three": (3 * _BLOCK + 7,), "w": (300, 250)}


def test_blocked_step_equals_unblocked_bit_for_bit():
    rng = np.random.default_rng(5)
    params = {k: Tensor(rng.normal(size=s), requires_grad=True)
              for k, s in BLOCK_SHAPES.items()}
    ref = {k: p.data.copy() for k, p in params.items()}
    # decay on "short", "over" (so its gradient-free steps decay) and "w"
    mask = {k: i % 2 == 1 for i, k in enumerate(params)}
    opt = AdamW(params, lr=0.02, weight_decay=0.3, decay_mask=mask)
    ref_m, ref_v = {}, {}
    for t in range(1, 7):
        # gradients over six decades; "over" has none on steps 2 and 5
        grads = {k: rng.normal(size=s) * 10.0 ** rng.uniform(-3, 3)
                 for k, s in BLOCK_SHAPES.items() if not (k == "over" and t % 3 == 2)}
        for k, p in params.items():
            p.grad = grads[k].copy() if k in grads else None
        opt.lr = 0.02 * t / 4
        opt.step()
        adamw_unblocked_step(ref, grads, ref_m, ref_v, t, opt.lr, 0.9, 0.999, 1e-8,
                             0.3, mask)
        for k, p in params.items():
            assert np.array_equal(p.data, ref[k]), (t, k)
            assert np.array_equal(opt.m[k], ref_m[k]), (t, k)
            assert np.array_equal(opt.v[k], ref_v[k]), (t, k)


def _three_params():
    rng = np.random.default_rng(6)
    params = {k: Tensor(rng.normal(size=(5, 3)), requires_grad=True) for k in "abc"}
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    opt = AdamW(params, lr=0.1, weight_decay=0.2)
    opt.step()
    return params, opt


def _state(params, opt):
    return ([p.data.tobytes() for p in params.values()],
            [a.tobytes() for a in (*opt.m.values(), *opt.v.values())], opt.step_count)


def test_bad_grad_shape_changes_nothing():
    params, opt = _three_params()
    params["c"].grad = np.zeros((3, 5))
    before = _state(params, opt)
    with pytest.raises(ShapeError):
        opt.step()
    assert _state(params, opt) == before


def test_non_contiguous_param_raises():
    params, opt = _three_params()
    params["c"].data = np.asfortranarray(params["c"].data)
    before = _state(params, opt)
    with pytest.raises(ShapeError, match="not C-contiguous"):
        opt.step()
    assert _state(params, opt) == before


def test_non_positive_lr_changes_nothing():
    params, opt = _three_params()
    before = _state(params, opt)
    opt.lr = -0.1
    with pytest.raises(ValueError):
        opt.step()
    assert _state(params, opt) == before


def test_step_allocates_nothing_after_the_first():
    rng = np.random.default_rng(7)
    params = {"w": Tensor(rng.normal(size=(1024, 1024)), requires_grad=True),
              "b": Tensor(rng.normal(size=1000), requires_grad=True),
              "idle": Tensor(rng.normal(size=5000), requires_grad=True)}
    opt = AdamW(params, lr=1e-3, weight_decay=0.1, decay_mask={"w": True, "idle": True})
    for k in ("w", "b"):
        params[k].grad = rng.normal(size=params[k].shape)
    opt.step()
    moments = {k: (opt.m[k], opt.v[k]) for k in opt.m}
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one parameter-sized temporary would be 8 MB
    assert peak < 1_000_000
    assert all(opt.m[k] is m and opt.v[k] is v for k, (m, v) in moments.items())
    assert "idle" not in opt.m
