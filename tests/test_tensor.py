"""Autograd engine: op semantics, gradient checks, invariants."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from mindalign import tensor as tensor_mod
from mindalign.tensor import (
    GraphError,
    NonFiniteError,
    ShapeError,
    Tensor,
    add,
    backward,
    concat,
    cross_entropy_soft,
    gelu,
    gradcheck,
    l1_loss,
    l2_normalize,
    layernorm,
    matmul,
    mse_loss,
    mul,
    reshape,
    scale,
    sub,
    tensor_mean,
    tensor_slice,
    tensor_sum,
    transpose,
)


def rand(shape, seed=0):
    return np.random.Generator(np.random.PCG64(seed)).normal(size=shape)


class TestForward:
    def test_matmul_identity(self):
        X = Tensor(rand((3, 5), 1))
        out = matmul(Tensor(np.eye(3)), X)
        np.testing.assert_allclose(out.data, X.data, rtol=0, atol=0)

    def test_gelu_zero_fixed_point(self):
        assert gelu(Tensor(0.0)).item() == 0.0

    def test_forward_deterministic(self):
        x = Tensor(rand((4, 4), 3))
        w = Tensor(rand((4, 4), 4))
        a = matmul(gelu(x), w).data
        b = matmul(gelu(Tensor(x.data.copy())), Tensor(w.data.copy())).data
        assert np.array_equal(a, b)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(rand((2, 3))), Tensor(rand((2, 3))))

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.nan]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            scale(Tensor(np.array([1e308])), 10.0)

    def test_non_finite_names_its_op(self):
        with pytest.raises(NonFiniteError, match=r"^non-finite value in tensor data$"):
            Tensor(np.array([1.0, np.inf]))
        big = Tensor(np.full((2, 2), 1e200))
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match=r"^non-finite value in matmul output$"):
            matmul(big, big)
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match=r"^non-finite value in mse_loss output$"):
            mse_loss(big, Tensor(np.zeros((2, 2))))
        # gelu(x) <= x for finite x, so only an input that already overflowed,
        # bypassing the constructor's check, can make its output non-finite
        overflowed = Tensor(np.ones(3))
        overflowed.data[1] = np.inf
        with pytest.raises(NonFiniteError, match=r"^non-finite value in gelu output$"):
            gelu(overflowed)

    def test_layernorm_refuses_an_overflowing_variance(self):
        # the squared deviations overflow: numpy must not warn (the suite
        # turns RuntimeWarnings into errors), and the output must not come
        # out finite as the bias alone
        x = Tensor(np.array([[1e200, -1e200, 1e200, -1e200], [1.0, 2.0, 3.0, 4.0]]))
        with pytest.raises(NonFiniteError,
                           match=r"^non-finite value in layernorm variance$"):
            layernorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))


def _assert_erf_bits(x):
    """The package's erf has scipy.special.erf's bits, under raised numpy errors."""
    x = np.asarray(x, dtype=np.float64)
    want = scipy.special.erf(x)
    with np.errstate(all="raise"):
        got = tensor_mod._erf(x)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, (x.ravel()[bad][:5], got.ravel()[bad][:5], want.ravel()[bad][:5])


class TestErfOracle:
    """gelu's erf repeats Cephes' steps (scipy.special.erf's algorithm) in numpy."""

    def test_dense_sweep_of_the_rational_branch(self):
        _assert_erf_bits(np.linspace(-1.0, 1.0, 400_001))

    def test_branch_edges_and_extremes(self):
        # the |x| = 1 and 8 branch points, the MAXLOG edge of erfc (sqrt(MAXLOG)
        # is about 26.64), huge finite values that must not overflow, the
        # smallest normal and a denormal, each with its neighbours and sign
        edges = np.array([1.0, 8.0, 26.6, 26.641747557046327, 26.7, 1e300,
                          np.finfo(np.float64).tiny, 5e-324, 1e-160, 0.5, 2.0])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2 * edges),
                               [np.finfo(np.float64).max]])
        _assert_erf_bits(np.concatenate([near, -near]))

    def test_signed_zero(self):
        got = tensor_mod._erf(np.array([0.0, -0.0]))
        assert got.tolist() == [0.0, -0.0] and np.signbit(got).tolist() == [False, True]

    @pytest.mark.parametrize("n_tail", [0, 1, tensor_mod._ERF_TAIL_LOOP,
                                        tensor_mod._ERF_TAIL_LOOP + 1, 200])
    def test_both_tail_paths(self, n_tail):
        # up to _ERF_TAIL_LOOP values beyond 1 take the loop, more the vectorised tail
        r = np.random.Generator(np.random.PCG64(n_tail))
        tail = r.uniform(1.0, 30.0, n_tail) * r.choice([-1.0, 1.0], n_tail)
        x = np.concatenate([r.uniform(-1.0, 1.0, 300), tail])
        _assert_erf_bits(r.permutation(x).reshape(-1, 2 - x.size % 2))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-40.0, 40.0, allow_subnormal=True), max_size=80),
           st.sampled_from([(-1,), (1, -1), (-1, 1)]))
    def test_drawn_values(self, values, shape):
        _assert_erf_bits(np.array(values, dtype=np.float64).reshape(shape))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-1e308, 1e308))
    def test_drawn_scalars_of_any_size(self, value):
        _assert_erf_bits(np.array(value))

    def test_gelu_forward_and_backward_keep_their_formulas(self):
        x = rand((6, 7), 9) * 2.0
        a = Tensor(x, requires_grad=True)
        out = gelu(a)
        phi = 0.5 * (1.0 + scipy.special.erf(x * (1.0 / np.sqrt(2.0))))
        assert out.data.tobytes() == (x * phi).tobytes()
        tensor_sum(out).backward()
        pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
        assert a.grad.tobytes() == (1.0 * (phi + x * pdf)).tobytes()


class TestBackward:
    def test_square(self):
        x = Tensor(3.0, requires_grad=True)
        mul(x, x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_linear_in_matrix(self):
        # f(W) = sum(W v) has gradient outer(1, v)
        v = rand((4,), 5)
        W = Tensor(rand((3, 4), 6), requires_grad=True)
        tensor_sum(matmul(W, Tensor(v.reshape(4, 1)))).backward()
        np.testing.assert_allclose(W.grad, np.outer(np.ones(3), v), atol=1e-12)

    def test_nonparticipating_leaf_gets_zero(self):
        a = Tensor(rand((2,), 7), requires_grad=True)
        b = Tensor(rand((2,), 8), requires_grad=True)
        grads = backward(lambda bd: tensor_sum(mul(bd["a"], bd["a"])), {"a": a, "b": b})
        assert np.array_equal(grads["b"], np.zeros(2))

    def test_backward_nonscalar_without_upstream(self):
        x = Tensor(rand((3,), 9), requires_grad=True)
        with pytest.raises(GraphError):
            mul(x, x).backward()

    def test_upstream_shape_mismatch(self):
        x = Tensor(rand((3,), 9), requires_grad=True)
        with pytest.raises(ShapeError):
            mul(x, x).backward(np.ones(4))

    def test_accumulation_additivity(self):
        # backward of (f + g) equals backward(f) + backward(g) to 1e-12
        w = Tensor(rand((4, 4), 10), requires_grad=True)
        C1 = Tensor(rand((4, 4), 11))
        C2 = Tensor(rand((4, 4), 12))
        f = lambda bd: mse_loss(matmul(bd["w"], C1), C2)
        g = lambda bd: tensor_sum(mul(bd["w"], C2))
        gs = backward(lambda bd: add(f(bd), g(bd)), {"w": w})["w"]
        gf = backward(f, {"w": w})["w"]
        gg = backward(g, {"w": w})["w"]
        np.testing.assert_allclose(gs, gf + gg, atol=1e-12)


class TestGradcheck:
    def test_linear_layer(self):
        W = Tensor(rand((5, 4), 20), requires_grad=True)
        b = Tensor(rand((4,), 21), requires_grad=True)
        X = Tensor(rand((3, 5), 22))
        T = Tensor(rand((3, 4), 23))
        err = gradcheck(lambda bd: mse_loss(add(matmul(X, bd["W"]), bd["b"]), T),
                        {"W": W, "b": b})
        assert err < 1e-6

    def test_softmax_cross_entropy(self):
        z = Tensor(rand((4, 6), 24), requires_grad=True)
        t = np.abs(rand((4, 6), 25))
        t /= t.sum(axis=1, keepdims=True)
        err = gradcheck(lambda bd: cross_entropy_soft(bd["z"], t), {"z": z})
        assert err < 1e-5

    def test_layernorm_residual_block(self):
        x = Tensor(rand((3, 8), 26), requires_grad=True)
        g = Tensor(1.0 + 0.1 * rand((8,), 27), requires_grad=True)
        b = Tensor(rand((8,), 28), requires_grad=True)
        W1 = Tensor(rand((8, 8), 29) * 0.5, requires_grad=True)
        W2 = Tensor(rand((8, 8), 30) * 0.5, requires_grad=True)
        T = Tensor(rand((3, 8), 31))

        def block(bd):
            h = layernorm(bd["x"], bd["g"], bd["b"])
            h = matmul(gelu(matmul(h, bd["W1"])), bd["W2"])
            return mse_loss(add(h, bd["x"]), T)

        err = gradcheck(block, {"x": x, "g": g, "b": b, "W1": W1, "W2": W2})
        assert err < 1e-4

    def test_non_contiguous_binding(self):
        # probes must reach the graph through the binding's own strides
        x = Tensor(np.arange(1.0, 13.0).reshape(3, 4).T, requires_grad=True)
        assert not x.data.flags.c_contiguous
        err = gradcheck(lambda bd: tensor_sum(mul(bd["x"], bd["x"])), {"x": x})
        assert err < 1e-8

    def test_nonscalar_output_rejected(self):
        x = Tensor(rand((3,), 40), requires_grad=True)
        with pytest.raises(GraphError):
            gradcheck(lambda bd: mul(bd["x"], bd["x"]), {"x": x})

    @pytest.mark.parametrize("seed", range(10))
    def test_all_ops_composite(self, seed):
        # every registered op appears in at least one checked composite;
        # ten seeded points, all below 1e-4
        r = np.random.Generator(np.random.PCG64(100 + seed))
        x = Tensor(r.normal(size=(3, 6)), requires_grad=True)
        W = Tensor(r.normal(size=(6, 6)) * 0.4, requires_grad=True)
        g = Tensor(1.0 + 0.1 * r.normal(size=6), requires_grad=True)
        b = Tensor(r.normal(size=6), requires_grad=True)
        C = Tensor(r.normal(size=(3, 6)))
        Tg = Tensor(r.normal(size=(3, 6)))
        soft = np.abs(r.normal(size=(3, 3)))
        soft /= soft.sum(axis=1, keepdims=True)

        def graph(bd):
            h = layernorm(bd["x"], bd["g"], bd["b"])
            h = add(matmul(gelu(h), bd["W"]), bd["x"])
            p1 = concat([h[0:2], h[2:3]], axis=0)
            p1 = transpose(reshape(p1, (3, 6)))
            p1 = transpose(p1)
            ce = cross_entropy_soft(matmul(l2_normalize(p1), transpose(C)), soft)
            cos = tensor_mean(tensor_sum(mul(l2_normalize(p1), l2_normalize(C)), axis=-1))
            pieces = add(add(l1_loss(scale(p1, 1.3), Tg), mse_loss(sub(p1, C), Tg)), ce)
            return add(pieces, cos)

        err = gradcheck(graph, {"x": x, "W": W, "g": g, "b": b})
        assert err < 1e-4


# every op with more than one operand: the operand shapes, with broadcasting
# where the op allows it
_MULTI_OPERAND_OPS = {
    "add": (add, [(3, 4), (4,)]),
    "sub": (sub, [(3, 4), (3, 1)]),
    "mul": (mul, [(3, 4), (4,)]),
    "matmul": (matmul, [(3, 4), (4, 5)]),
    "concat": (lambda *ts: concat(ts, axis=1), [(3, 2), (3, 1), (3, 4)]),
    "layernorm": (layernorm, [(3, 4), (4,), (4,)]),
    "l1_loss": (l1_loss, [(3, 4), (3, 4)]),
    "mse_loss": (mse_loss, [(3, 4), (3, 4)]),
}


class TestOnlyNeededGradients:
    @pytest.mark.parametrize("name", sorted(_MULTI_OPERAND_OPS))
    def test_each_frozen_subset_leaves_other_gradients_bit_for_bit(self, name):
        op, shapes = _MULTI_OPERAND_OPS[name]

        def grads(frozen):
            ts = [Tensor(rand(s, 70 + i), requires_grad=not f)
                  for i, (s, f) in enumerate(zip(shapes, frozen))]
            out = op(*ts)
            out.backward(rand(out.shape, 80))
            return [t.grad for t in ts]

        full = grads([False] * len(shapes))
        for frozen in itertools.product([False, True], repeat=len(shapes)):
            for f, g, want in zip(frozen, grads(frozen), full):
                if f:
                    assert g is None
                else:
                    assert g.shape == want.shape and g.tobytes() == want.tobytes()

    def test_frozen_weight_gets_no_weight_gradient(self):
        # the skipped x.T @ g alone would be an 8 MB array
        x = Tensor(rand((4, 1000), 63), requires_grad=True)
        W = Tensor(rand((1000, 1000), 64))
        out = matmul(x, W)
        up = np.ones(out.shape)
        tracemalloc.start()
        try:
            out.backward(up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert W.grad is None and x.grad.shape == x.shape

    def test_weight_gradient_is_the_product_itself(self):
        # x.T @ g is a fresh 8 MB array: it becomes W's gradient, not a copy
        x = Tensor(rand((4, 1000), 63))
        W = Tensor(rand((1000, 1000), 64), requires_grad=True)
        out = matmul(x, W)
        up = np.ones(out.shape)
        tracemalloc.start()
        try:
            out.backward(up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * W.data.nbytes
        assert x.grad is None and W.grad.tobytes() == (x.data.T @ up).tobytes()

    def test_first_gradient_of_a_0d_leaf_is_an_array(self):
        # scale hands _acc a numpy scalar, not an array
        x = Tensor(3.0, requires_grad=True)
        scale(x, 2.0).backward()
        assert isinstance(x.grad, np.ndarray) and x.grad.shape == () and x.grad == 2.0

    def test_first_gradient_of_a_broadcast_is_its_own_array(self):
        # tensor_sum hands _acc a read-only, zero-stride broadcast view
        x = Tensor(rand((3, 4), 65), requires_grad=True)
        tensor_sum(x).backward()
        assert isinstance(x.grad, np.ndarray) and x.grad.shape == (3, 4)
        assert x.grad.base is None and x.grad.flags.writeable
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_negative_zero_first_gradient_is_stored_as_positive_zero(self):
        # 0.0 + g turns -0.0 into +0.0; a plain copy of g would keep the sign
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        tensor_sum(mul(x, Tensor(np.array([-0.0, 3.0])))).backward()
        assert np.array_equal(x.grad, [0.0, 3.0])
        assert not np.signbit(x.grad[0])


class TestGraphMemory:
    def test_graph_is_acyclic(self):
        # a dropped graph is freed by reference counting alone
        W = Tensor(rand((4, 3), 60), requires_grad=True)
        gc.disable()
        try:
            gc.collect()
            h = gelu(matmul(Tensor(rand((2, 4), 61)), W))
            rows = concat([h, reshape(transpose(h), (2, 3))[0:1]], axis=0)
            loss = mse_loss(rows, Tensor(rand((3, 3), 62)))
            loss.backward()
            probe = weakref.ref(h.data)
            del h, rows, loss
            assert probe() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert W.grad is not None


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_unbroadcast_bias_grad(self, seed):
        r = np.random.Generator(np.random.PCG64(seed))
        x = Tensor(r.normal(size=(4, 3)))
        b = Tensor(r.normal(size=(3,)), requires_grad=True)
        tensor_sum(add(x, b)).backward()
        np.testing.assert_allclose(b.grad, np.full(3, 4.0), atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_l2_normalize_unit(self, seed):
        r = np.random.Generator(np.random.PCG64(seed))
        x = Tensor(r.normal(size=(5, 7)) + 0.1)
        norms = np.linalg.norm(l2_normalize(x).data, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_mean_matches_sum(self):
        x = Tensor(rand((4, 5), 50))
        np.testing.assert_allclose(tensor_mean(x, axis=0).data,
                                   tensor_sum(x, axis=0).data / 4.0, atol=1e-15)


# -- random graphs -----------------------------------------------------------

# Every node of a random graph is 3 x 4. Each op below takes its operands
# from the nodes built so far, by index, so one node can feed several later
# ones (shared subexpressions, and add(a, a)-style repeats). Leaves: x and y
# (3 x 4), W (4 x 4), a row bias (4,), a column scale (3, 1), layernorm's
# gain and shift. ``K`` keeps l2_normalize's rows far from its zero clamp.
_GRAPH_OPS = {
    "add": lambda a, b, bd, k: add(a, b),
    "sub": lambda a, b, bd, k: sub(a, b),
    "mul": lambda a, b, bd, k: mul(a, b),
    "scale": lambda a, b, bd, k: scale(a, -0.7),
    "add_bias": lambda a, b, bd, k: add(a, bd["bias"]),
    "mul_col": lambda a, b, bd, k: mul(a, bd["col"]),
    "matmul": lambda a, b, bd, k: matmul(a, bd["W"]),
    "transpose": lambda a, b, bd, k: transpose(reshape(a, (4, 3))),
    "rows": lambda a, b, bd, k: tensor_slice(a, [2, 0, 2]),
    "cols": lambda a, b, bd, k: tensor_slice(a, (slice(None), [3, 1, 1, 0])),
    "concat0": lambda a, b, bd, k: concat([a[0:1], b[1:3]], axis=0),
    "concat1": lambda a, b, bd, k: concat([b[:, 0:3], a[:, 1:2]], axis=1),
    "colsum": lambda a, b, bd, k: add(a, tensor_sum(b, axis=0, keepdims=True)),
    "rowmean": lambda a, b, bd, k: mul(a, tensor_mean(b, axis=1, keepdims=True)),
    "sum": lambda a, b, bd, k: add(a, scale(tensor_sum(b), 0.1)),
    "gelu": lambda a, b, bd, k: gelu(a),
    "layernorm": lambda a, b, bd, k: layernorm(a, bd["gain"], bd["shift"]),
    "l2_normalize": lambda a, b, bd, k: l2_normalize(add(a, k["K"])),
}
_GRAPH_STEPS = st.lists(st.tuples(st.sampled_from(sorted(_GRAPH_OPS)), st.integers(0, 99),
                                  st.integers(0, 99)), min_size=1, max_size=6)


def _random_graph(steps, seed):
    """Leaf bindings, and a graph that records every tensor it builds."""
    r = np.random.Generator(np.random.PCG64(seed))
    shapes = {"x": (3, 4), "y": (3, 4), "W": (4, 4), "bias": (4,), "col": (3, 1),
              "gain": (4,), "shift": (4,)}
    bindings = {k: Tensor(0.8 * r.normal(size=s), requires_grad=True)
                for k, s in shapes.items()}
    soft = np.abs(r.normal(size=(3, 4)))
    consts = {"K": Tensor(3.0 + r.random((3, 4))), "T": Tensor(r.normal(size=(3, 4))),
              "C": Tensor(r.normal(size=(3, 4))), "soft": soft / soft.sum(1, keepdims=True)}
    built: list[Tensor] = []

    def graph(bd):
        built.clear()
        nodes = [bd["x"], bd["y"]]
        for op, i, j in steps:
            nodes.append(_GRAPH_OPS[op](nodes[i % len(nodes)], nodes[j % len(nodes)],
                                        bd, consts))
        built.extend(nodes[2:])
        last = nodes[-1]
        # the output reads the last node and two earlier ones, so that nodes
        # reach it by more than one path
        out = add(add(mse_loss(last, consts["T"]),
                      tensor_sum(mul(nodes[steps[0][1] % len(nodes)], consts["C"]))),
                  add(l1_loss(nodes[steps[-1][2] % len(nodes)], consts["T"]),
                      cross_entropy_soft(last, consts["soft"])))
        built.append(out)
        return out

    return bindings, graph, built


class TestRandomGraphs:
    @settings(max_examples=40)
    @given(steps=_GRAPH_STEPS, seed=st.integers(0, 2 ** 16))
    def test_gradients_match_central_differences(self, steps, seed):
        bindings, graph, _ = _random_graph(steps, seed)
        assert gradcheck(graph, bindings) < 1e-4

    @settings(max_examples=40)
    @given(steps=_GRAPH_STEPS, seed=st.integers(0, 2 ** 16))
    def test_no_two_gradients_share_memory(self, steps, seed):
        # the contract a gradient arena must keep: add and sub hand one array
        # to both parents, so a leaf that kept it instead of adding it into
        # its own buffer would alias another tensor's gradient
        bindings, graph, built = _random_graph(steps, seed)
        graph(bindings).backward()
        tensors = [*bindings.values(), *built]
        grads = [t.grad for t in tensors if t.grad is not None]
        for i, g in enumerate(grads):
            for h in grads[i + 1:]:
                assert not np.shares_memory(g, h)
            for t in tensors:
                assert not np.shares_memory(g, t.data)

    @settings(max_examples=40)
    @given(steps=_GRAPH_STEPS, seed=st.integers(0, 2 ** 16),
           frozen=st.sets(st.sampled_from(("x", "y", "W", "bias", "col", "gain", "shift")),
                          min_size=1, max_size=6))
    def test_frozen_leaves_leave_other_gradients_bit_for_bit(self, steps, seed, frozen):
        # every operand whose gradient a closure skips must be one that does
        # not require grad: freezing leaves changes no other leaf's gradient
        full, graph, _ = _random_graph(steps, seed)
        graph(full).backward()
        part, graph, _ = _random_graph(steps, seed)
        for name in frozen:
            part[name].requires_grad = False
        graph(part).backward()
        for name, t in part.items():
            if name in frozen or full[name].grad is None:
                assert t.grad is None
            else:
                assert t.grad.shape == t.shape
                assert t.grad.tobytes() == full[name].grad.tobytes()

    @settings(max_examples=40)
    @given(steps=_GRAPH_STEPS, seed=st.integers(0, 2 ** 16))
    def test_leaves_are_handed_over_once_no_closure_reads_them(self, steps, seed):
        # every closure that reads a tensor's data has it as a parent, so a
        # callback that overwrites a leaf's data the moment the leaf is handed
        # over changes no gradient: each leaf's gradient is final by then
        plain, graph, _ = _random_graph(steps, seed)
        graph(plain).backward()
        fused, graph, built = _random_graph(steps, seed)
        names = {id(t): k for k, t in fused.items()}
        handed = {}

        def overwrite(leaf):
            assert names[id(leaf)] not in handed
            handed[names[id(leaf)]] = leaf.grad.copy()
            leaf.data += 1.0

        graph(fused).backward(on_leaf=overwrite)
        assert sorted(handed) == sorted(k for k, t in plain.items() if t.grad is not None)
        for name, g in handed.items():
            assert g.tobytes() == fused[name].grad.tobytes() == plain[name].grad.tobytes()
        assert [t for t in built if t.grad is not None] == []
