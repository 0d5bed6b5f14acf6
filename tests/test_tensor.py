import math

import numpy as np
import numpy.testing as npt
import pytest

from panelqa.tensor import (GradError, NonFiniteError, Rng, ShapeError, Tensor,
                            _unbroadcast, gelu, grad_check, layer_norm, matmul,
                            mlp, no_grad, softmax_lastdim)


def power_gelu(x):
    """The tanh GELU and its derivative written with power ops, as gelu was
    before it dropped them; returns (value, d value / dx)."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x ** 3))
    du = c * (1.0 + 3 * 0.044715 * x ** 2)
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        npt.assert_array_equal(matmul(a, b).data, b.data)

    def test_single_element(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.item() == 11.0

    def test_against_triple_loop(self):
        rng = Rng(7)
        a = rng.normal((5, 7))
        b = rng.normal((7, 3))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - naive_matmul(a, b))) <= 1e-12

    def test_random_shapes_vs_oracle(self):
        # 20 seeded shape combinations
        rng = Rng(123)
        for _ in range(20):
            m, k, n = (int(x) for x in rng.integers(1, 9, size=3))
            a = rng.normal((m, k))
            b = rng.normal((k, n))
            got = matmul(Tensor(a), Tensor(b)).data
            assert np.max(np.abs(got - naive_matmul(a, b))) <= 1e-12

    def test_float32_tolerance(self):
        rng = Rng(5)
        a = rng.normal((6, 6), dtype=np.float32)
        b = rng.normal((6, 6), dtype=np.float32)
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - naive_matmul(a.astype(np.float64),
                                                b.astype(np.float64)))) <= 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 5)])
    def test_weight_must_be_2d(self, shape):
        with pytest.raises(ShapeError, match=r"a \(K, N\) weight"):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones(shape)))

    def test_batched_broadcast(self):
        rng = Rng(11)
        a = rng.normal((4, 3, 5))
        w = rng.normal((5, 2))
        got = matmul(Tensor(a), Tensor(w)).data
        for i in range(4):
            npt.assert_allclose(got[i], a[i] @ w, atol=1e-12)

    def test_weight_grad_matches_batched_sum(self):
        # (B, M, D) @ (D, E): the vjp folds B into rows; the replaced path
        # took a batched product and summed it over B
        rng = Rng(12)
        a = Tensor(rng.normal((4, 3, 5)), requires_grad=True)
        w = Tensor(rng.normal((5, 2)), requires_grad=True)
        g = rng.normal((4, 3, 2))
        (matmul(a, w) * Tensor(g)).sum().backward()
        assert np.max(np.abs(a.grad - g @ w.data.T)) <= 1e-12
        want_w = (np.swapaxes(a.data, -1, -2) @ g).sum(axis=0)
        assert np.max(np.abs(w.grad - want_w)) <= 1e-12


class TestMatmulBias:
    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    def test_matches_matmul_plus_bias(self, shape):
        rng = Rng(24)
        a0, w0, b0 = rng.normal(shape), rng.normal((4, 6)), rng.normal((6,))
        upstream = rng.normal(shape[:-1] + (6,))
        results = []
        for fused in (True, False):
            a, w, b = (Tensor(v.copy(), requires_grad=True)
                       for v in (a0, w0, b0))
            out = matmul(a, w, b) if fused else matmul(a, w) + b
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data, a.grad, w.grad, b.grad))
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_input_without_grad_gets_no_gradient_product(self):
        """Only the weight and bias gradients are computed for a constant
        input, and they equal those of an input that needs a gradient."""
        rng = Rng(25)
        a0, w0, b0 = rng.normal((2, 3, 4)), rng.normal((4, 6)), rng.normal((6,))
        g = rng.normal((2, 3, 6))
        grads = []
        for needs in (False, True):
            a = Tensor(a0, requires_grad=needs)
            w, b = Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)
            grads.append(matmul(a, w, b)._vjp(g))
        assert grads[0][0] is None and grads[1][0] is not None
        for got, want in zip(grads[0][1:], grads[1][1:]):
            npt.assert_array_equal(got, want)

    def test_bias_needs_2d_weight_and_matching_width(self):
        a = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError):
            matmul(a, Tensor(np.ones((2, 4, 5))), Tensor(np.ones(5)))
        with pytest.raises(ShapeError):
            matmul(a, Tensor(np.ones((4, 5))), Tensor(np.ones(4)))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_lastdim(Tensor([0.0, 0.0]))
        npt.assert_allclose(out.data, [0.5, 0.5])

    def test_closed_form(self):
        out = softmax_lastdim(Tensor([np.log(2.0), 0.0]))
        npt.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_no_overflow(self):
        out = softmax_lastdim(Tensor([1000.0, 0.0]))
        npt.assert_allclose(out.data, [1.0, 0.0])
        assert np.all(np.isfinite(out.data))

    def test_rows_sum_to_one(self):
        rng = Rng(3)
        x = softmax_lastdim(Tensor(rng.normal((4, 5, 6)) * 10))
        npt.assert_allclose(x.data.sum(axis=-1), np.ones((4, 5)), atol=1e-6)
        assert np.all(x.data >= 0) and np.all(x.data <= 1)


class TestLayerNorm:
    def g_b(self, d):
        return Tensor(np.ones(d)), Tensor(np.zeros(d))

    def test_constant_input_collapses_to_bias(self):
        g, b = self.g_b(3)
        out = layer_norm(Tensor([1.0, 1.0, 1.0]), g, b)
        npt.assert_allclose(out.data, np.zeros(3), atol=1e-3)

    def test_two_point_closed_form(self):
        g, b = self.g_b(2)
        out = layer_norm(Tensor([1.0, 3.0]), g, b)
        npt.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_zero_mean(self):
        rng = Rng(9)
        g, b = self.g_b(8)
        out = layer_norm(Tensor(rng.normal((5, 8))), g, b)
        npt.assert_allclose(out.data.mean(axis=-1), np.zeros(5), atol=1e-6)

    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12),
                                            (np.float32, 1e-5)])
    def test_matches_two_pass_formula(self, dtype, atol):
        # the numpy mean/var forward and mean-based vjp layer_norm had before
        # its row means became GEMVs
        rng = Rng(25)
        x = rng.normal((3, 5, 8), dtype=dtype)
        gain = rng.normal((8,), dtype=dtype)
        bias = rng.normal((8,), dtype=dtype)
        g = rng.normal((3, 5, 8), dtype=dtype)
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6)
        xhat = (x - mu) * inv
        gh = g * gain
        want = [xhat * gain + bias,
                inv * (gh - gh.mean(axis=-1, keepdims=True)
                       - xhat * (gh * xhat).mean(axis=-1, keepdims=True)),
                (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))]
        xt, gt, bt = (Tensor(v, requires_grad=True) for v in (x, gain, bias))
        out = layer_norm(xt, gt, bt)
        (out * Tensor(g)).sum().backward()
        for got, ref in zip((out.data, xt.grad, gt.grad, bt.grad), want):
            assert got.dtype == dtype
            npt.assert_allclose(got, ref, atol=atol, rtol=0)


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_asymptotes(self):
        assert abs(gelu(Tensor([10.0])).data[0] - 10.0) <= 1e-6
        assert abs(gelu(Tensor([-10.0])).data[0]) <= 1e-6

    @pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6),
                                            (np.float64, 1e-14)])
    def test_matches_power_formula(self, dtype, atol):
        x = Tensor(Rng(4).normal((100_000,), std=3.0, dtype=dtype),
                   requires_grad=True)
        g = Rng(5).normal((100_000,), dtype=dtype)
        out = gelu(x)
        (out * Tensor(g)).sum().backward()
        want, dwant = power_gelu(x.data)
        assert out.dtype == dtype and x.grad.dtype == dtype
        assert np.max(np.abs(out.data - want)) <= atol
        assert np.max(np.abs(x.grad - g * dwant)) <= atol


class TestMlp:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_composed_nodes_bit_for_bit(self, dtype):
        # x + gelu(LN(x) @ w1 + b1) @ w2 + b2 as one node, against the five
        # nodes it fuses: the forward and all seven gradients
        rng = Rng(27)
        shapes = [(3, 5, 16), (16,), (16,), (16, 32), (32,), (32, 16), (16,)]
        values = [rng.normal(shape, dtype=dtype) for shape in shapes]
        values[1] += 1.0
        upstream = Tensor(rng.normal((3, 5, 16), dtype=dtype))
        results = []
        for fused in (True, False):
            x, gain, bias, w1, b1, w2, b2 = (
                Tensor(v.copy(), requires_grad=True) for v in values)
            if fused:
                out = mlp(x, gain, bias, w1, b1, w2, b2)
            else:
                h = gelu(matmul(layer_norm(x, gain, bias), w1, b1))
                out = matmul(h, w2, b2) + x
            (out * upstream).sum().backward()
            results.append([out.data] + [t.grad for t in
                                         (x, gain, bias, w1, b1, w2, b2)])
        for got, want in zip(*results):
            assert got.dtype == dtype
            npt.assert_array_equal(got, want)


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x.sum().backward()
        npt.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_power_rule(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        npt.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradError):
            (x * x).backward()

    def test_linearity(self):
        rng = Rng(21)
        xdata = rng.normal((4, 3))
        alpha, beta = 0.7, -1.3

        def grads(fn):
            x = Tensor(xdata.copy(), requires_grad=True)
            fn(x).backward()
            return x.grad

        f = lambda x: (x * x).sum()
        g = lambda x: softmax_lastdim(x).sum(axis=-1).mean()
        combo = lambda x: f(x) * Tensor(alpha) + g(x) * Tensor(beta)
        expect = alpha * grads(f) + beta * grads(g)
        npt.assert_allclose(grads(combo), expect, atol=1e-10)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        (x * x + x).sum().backward()
        npt.assert_allclose(x.grad, [5.0])

    def test_only_leaves_keep_a_gradient(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        w = Tensor([3.0, 0.5], requires_grad=True)
        h = x * w
        (h * h).sum().backward()
        assert h.grad is None
        npt.assert_array_equal(x.grad, [18.0, -1.0])   # 2 x w^2
        npt.assert_array_equal(w.grad, [6.0, 4.0])     # 2 w x^2

    def test_slice_backward(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x[:, 1:].sum().backward()
        npt.assert_array_equal(x.grad, [[0, 1, 1], [0, 1, 1]])

    @pytest.mark.parametrize("key", [
        (slice(None), slice(1, None)),
        (1, slice(None, None, 2)),
        2,
        (np.int64(0), slice(1, 3), -1),
        (slice(None, None, -1), 0),
    ])
    def test_basic_slice_backward_matches_add_at(self, key):
        self._check_index_backward(key)

    @pytest.mark.parametrize("key", [
        np.array([0, 2, 0]),
        ([0, 0, 1], slice(None)),
        (slice(None), [3, 3], 1),
        np.arange(60).reshape(3, 4, 5) % 3 == 0,
    ])
    def test_advanced_index_backward_matches_add_at(self, key):
        """Advanced keys, whose backward would need np.add.at to sum repeated
        elements, are rejected: only ints and slices index a Tensor."""
        x = Tensor(np.zeros((3, 4, 5)), requires_grad=True)
        with pytest.raises(TypeError, match="int or a slice, got"):
            x[key]

    @staticmethod
    def _check_index_backward(key):
        x = Tensor(Rng(31).normal((3, 4, 5)), requires_grad=True)
        y = x[key]
        g = Rng(32).normal(y.shape)
        (y * Tensor(g)).sum().backward()
        want = np.zeros((3, 4, 5))
        np.add.at(want, key, g)
        npt.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize("grad_shape,shape", [
        ((2, 3, 5), (5,)), ((2, 3, 5), (1, 5)), ((2, 4, 3, 5), (4, 1, 5)),
        ((2, 3, 4), (3, 1)), ((2, 3), (1, 1)), ((2, 3), ()),
    ])
    def test_unbroadcast_matches_per_axis_sums(self, grad_shape, shape):
        grad = Rng(33).normal(grad_shape)
        want = grad
        while want.ndim > len(shape):
            want = want.sum(axis=0)
        for axis, extent in enumerate(shape):
            if extent == 1:
                want = want.sum(axis=axis, keepdims=True)
        got = _unbroadcast(grad, shape)
        assert got.shape == shape
        npt.assert_allclose(got, want, atol=1e-12)

    def test_no_grad_suppresses_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * x
        assert not y.requires_grad

    def test_no_grad_restores_state_on_exit_and_error(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("inside")
        assert (x * x).requires_grad
        with no_grad():
            with no_grad():
                pass
            assert not (x * x).requires_grad
        assert (x * x).requires_grad


class TestGradCheck:
    def test_quadratic_near_exact(self):
        theta = Tensor([1.5, -0.5, 2.0], requires_grad=True)
        err = grad_check(lambda: (theta * theta).sum(), {"theta": theta},
                         eps=1e-4)
        assert err <= 1e-9

    def test_softmax_layernorm_gelu_chain(self):
        rng = Rng(17)
        theta = Tensor(rng.normal((4, 5)), requires_grad=True)
        gain = Tensor(rng.normal((5,)), requires_grad=True)
        bias = Tensor(rng.normal((5,)), requires_grad=True)

        def f():
            y = layer_norm(theta, gain, bias)
            return gelu(softmax_lastdim(y)).sum()

        err = grad_check(f, {"theta": theta, "gain": gain, "bias": bias},
                         eps=1e-4)
        assert err <= 1e-6

    def test_gelu(self):
        rng = Rng(18)
        theta = Tensor(rng.normal((3, 4), std=2.0), requires_grad=True)
        weight = Tensor(rng.normal((3, 4)))
        err = grad_check(lambda: (gelu(theta) * weight).sum(),
                         {"theta": theta}, eps=1e-4)
        assert err <= 1e-6

    def test_matmul_3d_by_2d(self):
        rng = Rng(19)
        a = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal((4, 5)), requires_grad=True)
        weight = Tensor(rng.normal((2, 3, 5)))
        err = grad_check(lambda: (matmul(a, w) * weight).sum(),
                         {"a": a, "w": w}, eps=1e-4)
        assert err <= 1e-6

    def test_matmul_bias(self):
        rng = Rng(20)
        a = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal((4, 5)), requires_grad=True)
        b = Tensor(rng.normal((5,)), requires_grad=True)
        weight = Tensor(rng.normal((2, 3, 5)))
        err = grad_check(lambda: (matmul(a, w, b) * weight).sum(),
                         {"a": a, "w": w, "b": b}, eps=1e-4)
        assert err <= 1e-6

    def test_layer_norm(self):
        rng = Rng(21)
        x = Tensor(rng.normal((2, 3, 6)), requires_grad=True)
        gain = Tensor(rng.normal((6,)), requires_grad=True)
        bias = Tensor(rng.normal((6,)), requires_grad=True)
        weight = Tensor(rng.normal((2, 3, 6)))
        err = grad_check(lambda: (layer_norm(x, gain, bias) * weight).sum(),
                         {"x": x, "gain": gain, "bias": bias}, eps=1e-4)
        assert err <= 1e-6

    def test_rejects_float32(self):
        theta = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: (theta * theta).sum(), {"t": theta})

    def test_nonfinite_reported_with_name(self):
        theta = Tensor([0.0], requires_grad=True)

        def f():
            return (theta * Tensor(np.nan)).sum()  # NaN at the unperturbed point

        with pytest.raises((NonFiniteError, GradError, FloatingPointError)):
            with np.errstate(invalid="ignore", divide="ignore"):
                grad_check(f, {"theta": theta})


class TestRng:
    def test_identical_seed_identical_stream(self):
        a = Rng(42).normal((100,))
        b = Rng(42).normal((100,))
        npt.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        assert not np.array_equal(Rng(1).normal((50,)), Rng(2).normal((50,)))

    def test_children_disjoint(self):
        root = Rng(7)
        a = root.child(0).normal((20,))
        b = root.child(1).normal((20,))
        assert not np.array_equal(a, b)

    def test_trunc_normal_bounded(self):
        x = Rng(3).trunc_normal((10000,))
        assert np.max(np.abs(x)) <= 0.04 + 1e-12
