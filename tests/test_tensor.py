"""Core tensor ops, gradients, and the Adam update."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from artbank.errors import (DimensionError, MissingGradError, NumericError)
from artbank.optim import AdamState, adam_step, grad_check, zero_grads
from artbank.tensor import (Parameter, Tensor, channel_norm, clamp_min,
                            concat_rows, conv2d, gelu, matmul, mean_all,
                            reshape, softmax_rows, sqrt, sum_all, transpose)

from oracles import channel_norm_ref, matmul_loops, softmax_rows_ref


def finite_matrices(max_side=6, lo=-1e6, hi=1e6):
    side = st.integers(1, max_side)
    return side.flatmap(lambda m: side.flatmap(lambda n: arrays(
        np.float64, (m, n),
        elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False))))


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        out = matmul(eye, eye)
        np.testing.assert_array_equal(out.data, np.eye(2))

    def test_hand_checked(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_loops(a, b), atol=1e-14)

    def test_random_sizes_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, k, n = rng.integers(1, 17, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            out = matmul(Tensor(a), Tensor(b))
            np.testing.assert_allclose(out.data, matmul_loops(a, b), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradients_flow_to_both_sides(self):
        rng = np.random.default_rng(3)
        a = Parameter("a", Tensor(rng.normal(size=(3, 4))))
        b = Parameter("b", Tensor(rng.normal(size=(4, 2))))
        err = grad_check(lambda: sum_all(matmul(a.value, b.value)), [a, b])
        assert err < 1e-7


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_large_inputs_stable(self):
        out = softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = softmax_rows(Tensor(rng.normal(size=(4, 4))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 6)) * 10
        out = softmax_rows(Tensor(x))
        np.testing.assert_allclose(out.data, softmax_rows_ref(x), atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices(lo=-1e100, hi=1e100))
    def test_rows_sum_property(self, x):
        out = softmax_rows(Tensor(x))
        assert np.all(out.data >= 0.0)
        np.testing.assert_allclose(out.data.sum(axis=1),
                                   np.ones(x.shape[0]), atol=1e-9)

    def test_requires_2d(self):
        with pytest.raises(DimensionError):
            softmax_rows(Tensor(np.zeros(3)))


class TestChannelNorm:
    def test_single_position_is_zero(self):
        out = channel_norm(Tensor([[5.0], [-2.0]]))
        np.testing.assert_array_equal(out.data, np.zeros((2, 1)))

    def test_two_point_population_variance(self):
        # divisor N gives +-1; divisor N-1 would give +-0.707
        out = channel_norm(Tensor([[1.0, 3.0]]))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-7)

    def test_moments(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 8)) * 4 + 2
        out = channel_norm(Tensor(x))
        np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(3),
                                   atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=1), np.ones(3), atol=1e-6)
        np.testing.assert_allclose(out.data, channel_norm_ref(x), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices(max_side=5, lo=-1e8, hi=1e8))
    # Constant rows where one-pass centering left a 1-ulp residue that the
    # 1/sqrt(var + eps) scale magnified to ~1e-4. The exact values matter:
    # the shorter repr 26843545.76928701 does not trip it.
    @example(x=np.full((1, 5), 26843545.769286867))
    @example(x=np.full((1, 5), 53999999.99999985))
    def test_mean_zero_property(self, x):
        if x.shape[1] < 2:
            return
        out = channel_norm(Tensor(x))
        assert np.all(np.abs(out.data.mean(axis=1)) <= 1e-9)


class TestGradCheck:
    def test_quadratic(self):
        x = Parameter("x", Tensor(np.asarray(3.0)))
        out = mean_all(x.value * x.value)
        out.backward()
        assert abs(float(x.value.grad) - 6.0) < 1e-12
        zero_grads([x])
        assert grad_check(lambda: mean_all(x.value * x.value), [x]) < 1e-9

    def test_softmax_sum_is_constant(self):
        x = Parameter("x", Tensor(np.random.default_rng(1).normal(size=(3, 4))))
        err = grad_check(lambda: sum_all(softmax_rows(x.value)), [x])
        assert err < 1e-9

    def test_composite_ops(self):
        rng = np.random.default_rng(21)
        w = Parameter("w", Tensor(rng.normal(size=(3, 3))))
        x = Parameter("x", Tensor(rng.normal(size=(3, 5))))

        def f():
            h = gelu(matmul(w.value, x.value))
            h = channel_norm(h)
            h = sqrt(clamp_min(h * h - 0.5, 0.0) + 1e-4)
            return mean_all(h * transpose(transpose(h)))

        assert grad_check(f, [w, x]) < 1e-4

    def test_conv2d_gradients(self):
        rng = np.random.default_rng(2)
        x = Parameter("x", Tensor(rng.normal(size=(2, 5, 5))))
        w = Parameter("w", Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5))
        b = Parameter("b", Tensor(rng.normal(size=3)))

        def f():
            return mean_all(gelu(conv2d(x.value, w.value, b.value)))

        assert grad_check(f, [x, w, b]) < 1e-6

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(4)
        a = Parameter("a", Tensor(rng.normal(size=(4, 4))))
        col = Parameter("col", Tensor(rng.normal(size=(4, 1))))
        row = Parameter("row", Tensor(rng.normal(size=(1, 4))))
        alpha = Parameter("alpha", Tensor(np.asarray(0.3)))

        def f():
            blended = (alpha.value * (a.value * col.value)
                       + (1.0 - alpha.value) * (a.value * row.value))
            return mean_all(blended * blended)

        assert grad_check(f, [a, col, row, alpha]) < 1e-7

    def test_concat_and_reshape_gradients(self):
        rng = np.random.default_rng(6)
        a = Parameter("a", Tensor(rng.normal(size=(2, 3))))
        b = Parameter("b", Tensor(rng.normal(size=(4, 3))))

        def f():
            stacked = concat_rows([a.value, Tensor(np.ones((1, 3))), b.value])
            return mean_all(reshape(stacked, (3, 7)) * 2.0)

        assert grad_check(f, [a, b]) < 1e-9


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Parameter("p", Tensor(np.asarray([1.0, -2.0])))
        p.value.grad = np.zeros(2)
        adam_step([p], AdamState())
        np.testing.assert_array_equal(p.value.data, [1.0, -2.0])

    def test_first_step_magnitude(self):
        p = Parameter("x", Tensor(np.asarray(0.0)))
        p.value.grad = np.asarray(1.0)  # gradient of f(x) = x
        adam_step([p], AdamState(), lr=0.001)
        assert abs(float(p.value.data) + 0.001) < 1e-9

    def test_converges_on_quadratic(self):
        p = Parameter("x", Tensor(np.asarray(0.0)))
        state = AdamState()
        for _ in range(200):
            zero_grads([p])
            loss = mean_all((p.value - 2.0) * (p.value - 2.0))
            loss.backward()
            adam_step([p], state, lr=0.1)
        assert abs(float(p.value.data) - 2.0) < 0.5

    def test_missing_grad_names_parameter(self):
        p = Parameter("lonely", Tensor(np.asarray(1.0)))
        with pytest.raises(MissingGradError, match="lonely"):
            adam_step([p], AdamState())

    def test_deterministic(self):
        def run():
            p = Parameter("x", Tensor(np.asarray([0.3, -0.7])))
            state = AdamState()
            for _ in range(50):
                zero_grads([p])
                loss = mean_all(p.value * p.value * p.value - p.value)
                loss.backward()
                adam_step([p], state, lr=0.01)
            return p.value.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestInvariants:
    def test_non_finite_construction_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])
        with pytest.raises(NumericError):
            Tensor([np.inf, 1.0])

    def test_sqrt_rejects_negative(self):
        with pytest.raises(NumericError):
            sqrt(Tensor([-1.0]))

    def test_ops_deterministic_bitwise(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(6, 6))

        def pipeline():
            t = Tensor(x)
            return channel_norm(softmax_rows(matmul(t, transpose(t)))).data

        a, b = pipeline(), pipeline()
        assert np.array_equal(a, b)
