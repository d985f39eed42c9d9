"""Core tensor ops, gradients, and the Adam update."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import artbank
from artbank import tensor
from artbank.errors import (ArtBankError, ContractError, DimensionError,
                            MissingGradError, NumericError)
from artbank.optim import AdamState, adam_step, zero_grads
from artbank.tensor import (Parameter, Tensor, add, channel_norm, clamp_min,
                            concat_rows, conv2d, gelu, im2col, matmul,
                            mean_all, mul, reshape, softmax_cols, softmax_rows,
                            sqrt, sub, sum_all, transpose)

from oracles import (adam_step_ref, channel_norm_ref, col2im_ref,
                     conv_input_grad_ref, grad_check, im2col_ref, matmul_loops,
                     pad_or_crop, softmax_rows_ref)


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

    @pytest.mark.parametrize("op, shape", [(softmax_rows, (3, 0)),
                                           (softmax_cols, (0, 3))],
                             ids=["rows", "cols"])
    def test_empty_softmax_axis_refused(self, op, shape):
        with pytest.raises(DimensionError, match=r"softmax_\w+ of a \(\d, \d\) "
                                                 r"tensor: the softmax axis is empty"):
            op(Tensor(np.zeros(shape)))
        # The other axis may be empty: there is nothing to normalize.
        assert op(Tensor(np.zeros(shape[::-1]))).data.shape == shape[::-1]


class TestSoftmaxCols:
    @settings(max_examples=60, deadline=None)
    @given(finite_matrices(lo=-1e100, hi=1e100))
    def test_matches_transposed_row_reference(self, x):
        out = softmax_cols(Tensor(x))
        np.testing.assert_allclose(out.data, softmax_rows_ref(x.T).T, atol=1e-14)
        np.testing.assert_allclose(out.data.sum(axis=0), np.ones(x.shape[1]),
                                   atol=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(12)
        x = Parameter("x", Tensor(rng.normal(size=(4, 3))))
        c = Tensor(rng.normal(size=(4, 3)))
        assert grad_check(lambda: sum_all(softmax_cols(x.value) * c), [x]) < 1e-8


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


@st.composite
def conv_inputs(draw, elements=st.floats(allow_nan=False, allow_infinity=False)):
    """(x, kh, kw, pad) with x a (C, H, W) float64 array that is contiguous,
    a transposed view or a step-sliced view, and the kernel no larger than
    the padded input."""
    c, h, w = (draw(st.integers(1, 5)), draw(st.integers(1, 9)),
               draw(st.integers(1, 9)))
    kh, kw = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 2, 3]))
    pad = draw(st.sampled_from([0, 1, 2]))
    assume(kh <= h + 2 * pad and kw <= w + 2 * pad)
    layout = draw(st.sampled_from(["contiguous", "transposed", "sliced"]))
    base_shape = {"contiguous": (c, h, w), "transposed": (c, w, h),
                  "sliced": (c, 2 * h, 2 * w)}[layout]
    base = draw(arrays(np.float64, base_shape, elements=elements))
    x = {"contiguous": base, "transposed": base.transpose(0, 2, 1),
         "sliced": base[:, ::2, ::2]}[layout]
    return x, kh, kw, pad


@st.composite
def conv_gradients(draw):
    """conv_inputs with x in [-1, 1], plus kernels mixing +-0.0 with values
    in [-2, 2] and output gradients mixing +-0.0 with magnitudes from 1e-300
    to 1e300."""
    x, kh, kw, pad = draw(conv_inputs(elements=st.floats(-1.0, 1.0)))
    c, h, w = x.shape
    cout = draw(st.integers(1, 4))
    signed_zero = st.sampled_from([0.0, -0.0])
    wts = draw(arrays(np.float64, (cout, c, kh, kw),
                      elements=st.one_of(signed_zero, st.floats(-2.0, 2.0))))
    g = draw(arrays(np.float64, (cout, h + 2 * pad - kh + 1, w + 2 * pad - kw + 1),
                    elements=st.one_of(signed_zero, st.floats(1e-300, 1e300),
                                       st.floats(-1e300, -1e-300))))
    return x, kh, kw, pad, wts, g


class TestConv2d:
    @settings(max_examples=200, deadline=None)
    @given(conv_inputs())
    @example((np.arange(9.0).reshape(1, 3, 3), 1, 1, 0))
    def test_im2col_matches_slice_oracle(self, case):
        x, kh, kw, pad = case
        cols, out_hw = im2col(x, kh, kw, pad)
        ref, ref_hw = im2col_ref(x, kh, kw, pad)
        assert out_hw == ref_hw
        assert cols.shape == ref.shape
        assert cols.tobytes() == ref.tobytes()
        # conv2d's backward keeps the columns, so they must be its own.
        assert not np.shares_memory(cols, x)
        assert cols.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(conv_inputs(), st.integers(-2, 2), st.integers(-2, 2))
    def test_im2col_pads_each_axis_or_crops(self, case, ph, pw):
        x, kh, kw, _ = case
        c, h, w = x.shape
        assume(kh <= h + 2 * ph and kw <= w + 2 * pw)
        cols, out_hw = im2col(x, kh, kw, (ph, pw))
        ref, ref_hw = im2col_ref(pad_or_crop(x, ph, pw), kh, kw, 0)
        assert out_hw == ref_hw
        assert cols.tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(conv_gradients(), st.booleans())
    @example((np.ones((2, 3, 3)), 3, 3, 1, np.full((1, 2, 3, 3), -0.0),
              np.full((1, 3, 3), 1e300)), False)
    def test_input_gradient_matches_strided_scatter(self, case, weights_on_tape):
        """The gather GEMM sums each input's K = C_out * kh * kw products in
        another order than the column gradient's strided adds, so the two
        agree within twice the float64 dot-product bound K * 2**-53 * the
        sum of the terms' magnitudes, plus, for products that underflow,
        twice K half-ulps of the smallest subnormal."""
        x, kh, kw, pad, wts, g = case
        cout = wts.shape[0]
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(wts, requires_grad=weights_on_tape)
        sum_all(mul(conv2d(xt, wt, Tensor(np.zeros(cout)), pad), Tensor(g))).backward()
        ref = col2im_ref(wts.reshape(cout, -1).T @ g.reshape(cout, -1),
                         x.shape, kh, kw, pad)
        magnitude = col2im_ref(np.abs(wts.reshape(cout, -1)).T
                               @ np.abs(g.reshape(cout, -1)), x.shape, kh, kw, pad)
        k = cout * kh * kw
        assert xt.grad.shape == x.shape
        assert np.all(np.abs(xt.grad - ref)
                      <= 2 * k * 2.0**-53 * magnitude + k * 2.0**-1074)
        assert (wt.grad is not None) == weights_on_tape

    @settings(max_examples=200, deadline=None)
    @given(conv_gradients())
    @example((np.ones((2, 3, 3)), 3, 3, 1, np.full((1, 2, 3, 3), -0.0),
              np.full((1, 3, 3), 1e300)))
    def test_input_gradient_matches_gather_oracle(self, case):
        x, kh, kw, pad, wts, g = case
        xt = Tensor(x, requires_grad=True)
        out = conv2d(xt, Tensor(wts), Tensor(np.zeros(wts.shape[0])), pad)
        sum_all(mul(out, Tensor(g))).backward()
        assert xt.grad.tobytes() == conv_input_grad_ref(wts, g, pad).tobytes()

    @pytest.mark.parametrize("x_on, calls", [(False, 1), (True, 2)],
                             ids=["weights-on-tape", "input-on-tape"])
    def test_no_input_gradient_product_off_the_tape(self, monkeypatch, x_on,
                                                    calls):
        """The input gradient's im2col (and its GEMM) runs only for an input
        on the tape. With only w and b on it, as conv1 reading the latent in
        pretraining, the forward's im2col is the one call; with only x on it,
        as conv3 and conv4 in bank training, the backward makes a second."""
        real_im2col = tensor.im2col
        counted = []

        def counting_im2col(*args):
            counted.append(args)
            return real_im2col(*args)

        monkeypatch.setattr(tensor, "im2col", counting_im2col)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=x_on)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=not x_on)
        b = Tensor(np.zeros(3), requires_grad=not x_on)
        sum_all(conv2d(x, w, b)).backward()
        assert len(counted) == calls
        assert (x.grad is not None, w.grad is not None) == (x_on, not x_on)

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((1, 4, 4), (2, 1, 0, 3)), ((1, 4, 4), (2, 1, 3, 0)),
        ((1, 0, 4), (2, 1, 1, 1)), ((1, 4, 0), (2, 1, 1, 1))],
        ids=["0x3-kernel", "3x0-kernel", "0x4-input", "4x0-input"])
    def test_empty_kernel_or_input_refused(self, x_shape, w_shape):
        with pytest.raises(DimensionError, match="at least 1x1"):
            conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)),
                   Tensor(np.zeros(2)))

    def test_zero_channel_input_gets_an_empty_gradient(self):
        x = Tensor(np.zeros((0, 2, 2)), requires_grad=True)
        out = conv2d(x, Tensor(np.zeros((1, 0, 3, 3))), Tensor([0.5]))
        sum_all(out).backward()
        assert out.data.tolist() == [[[0.5, 0.5], [0.5, 0.5]]]
        assert x.grad.shape == (0, 2, 2)

    def test_negative_pad_refused(self):
        with pytest.raises(DimensionError, match="pad -1"):
            conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((2, 1, 1, 1))),
                   Tensor(np.zeros(2)), pad=-1)

    def test_kernel_larger_than_padded_input_rejected(self):
        x = Tensor(np.ones((2, 1, 1)))
        w = Tensor(np.ones((4, 2, 3, 3)))
        with pytest.raises(DimensionError, match=r"3x3 .* 1x1 input"):
            conv2d(x, w, Tensor(np.zeros(4)), pad=0)
        assert conv2d(x, w, Tensor(np.zeros(4)), pad=1).data.shape == (4, 1, 1)


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

    @pytest.mark.parametrize("kernel, pad", [((3, 3), 0), ((2, 3), 1), ((2, 3), 0)],
                             ids=["3x3-pad0", "2x3-pad1", "2x3-pad0"])
    def test_conv2d_gradients_other_geometries(self, kernel, pad):
        rng = np.random.default_rng(8)
        x = Parameter("x", Tensor(rng.normal(size=(2, 5, 4))))
        w = Parameter("w", Tensor(rng.normal(size=(3, 2, *kernel)) * 0.5))
        b = Parameter("b", Tensor(rng.normal(size=3)))

        def f():
            return mean_all(gelu(conv2d(x.value, w.value, b.value, pad)))

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

    @settings(max_examples=40, deadline=None)
    @given(shapes=st.lists(st.one_of(st.sampled_from([(), (1, 1), (5, 1), (1, 5)]),
                                     array_shapes(min_dims=0, max_dims=3,
                                                  min_side=0, max_side=4)),
                           min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_flat_update_matches_per_parameter_oracle(self, shapes, seed):
        rng = np.random.default_rng(seed)
        init = [rng.normal(size=shape) for shape in shapes]
        flat = [Parameter(f"p{i}", Tensor(x)) for i, x in enumerate(init)]
        ref = [Parameter(f"p{i}", Tensor(x)) for i, x in enumerate(init)]
        state, ref_state = AdamState(), {}
        for _ in range(4):
            for p, q in zip(flat, ref):
                g = rng.normal(size=p.value.data.shape) * 10.0 ** rng.integers(-4, 4)
                p.value.grad, q.value.grad = g, g.copy()
            adam_step(flat, state, lr=0.05)
            adam_step_ref(ref, ref_state, lr=0.05)
            for p, q in zip(flat, ref):
                assert p.value.data.shape == q.value.data.shape
                assert p.value.data.tobytes() == q.value.data.tobytes()

    def test_resized_parameter_list_on_used_state_refused(self):
        a = Parameter("a", Tensor(np.ones((2, 3))))
        b = Parameter("b", Tensor(np.ones(4)))
        state = AdamState()
        for p in (a, b):
            p.value.grad = np.ones_like(p.value.data)
        adam_step([a, b], state)
        with pytest.raises(ContractError, match="holds 10 values but the "
                                                "parameters have 6"):
            adam_step([a], state)
        assert state.step_count == 1
        bigger = Parameter("b", Tensor(np.ones(5)))
        bigger.value.grad = np.ones(5)
        with pytest.raises(ContractError):
            adam_step([a, bigger], state)

    def test_gradient_of_another_shape_refused(self):
        p = Parameter("w", Tensor(np.ones((1, 3))))
        p.value.grad = np.ones(3)
        with pytest.raises(ContractError, match="'w' has shape"):
            adam_step([p], AdamState())


# Operand shapes that broadcast against each other, in both orders.
_BROADCAST_PAIRS = [((3, 4), (3, 4)), ((3, 4), (1, 4)), ((3, 4), (4,)),
                    ((3, 1), (1, 4)), ((3, 4), ()), ((2, 3, 4), (3, 1))]


def _grads(op, a_data, b_data, a_on, b_on):
    """Gradients of sum(op(a, b) * c) for a fixed weighting c."""
    a = Tensor(a_data, requires_grad=a_on)
    b = Tensor(b_data, requires_grad=b_on)
    out = op(a, b)
    c = np.random.default_rng(3).normal(size=out.data.shape)
    sum_all(mul(out, Tensor(c))).backward()
    return a.grad, b.grad


class TestOffTapeOperands:
    """An operand off the tape gets no gradient, and the other operand's
    gradient is the one it gets when both are on the tape."""

    @pytest.mark.parametrize("op, a_shape, b_shape", [
        *((op, a, b) for op in (add, sub, mul)
          for pair in _BROADCAST_PAIRS for a, b in (pair, pair[::-1])),
        (matmul, (3, 5), (5, 4)), (matmul, (1, 5), (5, 1))])
    def test_one_operand_off_the_tape(self, op, a_shape, b_shape):
        rng = np.random.default_rng(len(a_shape) + 7 * len(b_shape))
        a_data, b_data = rng.normal(size=a_shape), rng.normal(size=b_shape)
        both = _grads(op, a_data, b_data, True, True)
        only_a = _grads(op, a_data, b_data, True, False)
        only_b = _grads(op, a_data, b_data, False, True)
        assert only_a[1] is None and only_b[0] is None
        assert only_a[0].shape == a_shape and only_b[1].shape == b_shape
        assert only_a[0].tobytes() == both[0].tobytes()
        assert only_b[1].tobytes() == both[1].tobytes()


_EXTREMES = [1.7e308, -1.7e308, 5e-324, -5e-324, 2.2e-308, 0.0, 1.0, -745.0]


def extreme_matrices(max_side=5):
    """Finite matrices that mix the largest and the tiniest doubles."""
    element = st.one_of(st.sampled_from(_EXTREMES),
                        st.floats(allow_nan=False, allow_infinity=False))
    side = st.integers(1, max_side)
    return side.flatmap(lambda m: side.flatmap(
        lambda n: arrays(np.float64, (m, n), elements=element)))


def _stacked_1e308() -> Tensor:
    """A (2, 1) column of 1e308s: finite values whose sum overflows."""
    return Tensor([[1e308], [1e308]])


class TestBroadcastShapes:
    @pytest.mark.parametrize("run, step, shapes", [
        (lambda: Tensor(np.zeros(3)) + Tensor(np.zeros(4)), "add", r"\(3,\) and \(4,\)"),
        (lambda: Tensor(np.zeros(3)) - Tensor(np.zeros(4)), "sub", r"\(3,\) and \(4,\)"),
        (lambda: Tensor(np.zeros((2, 3))) * Tensor(np.zeros((3, 2))), "mul",
         r"\(2, 3\) and \(3, 2\)"),
        (lambda: 1.0 - Tensor(np.zeros((2, 3))) * Tensor(np.zeros(2)), "mul",
         r"\(2, 3\) and \(2,\)"),
    ], ids=["add", "sub", "mul", "mul-in-expression"])
    def test_shapes_that_do_not_broadcast_refused(self, run, step, shapes):
        with pytest.raises(DimensionError, match=rf"^{step}: shapes {shapes} do not "
                                                 r"broadcast$"):
            run()


class TestFiniteness:
    """Six ops skip the finiteness sum because finite inputs give finite
    outputs; every other op that can overflow still raises under its name."""

    @settings(max_examples=150, deadline=None)
    @given(x=extreme_matrices())
    def test_unchecked_ops_keep_finite_inputs_finite(self, x):
        # The constructor accepts x even where its sum passes 1.8e308.
        t = Tensor(x)
        for out in (transpose(t), reshape(t, (x.size,)), concat_rows([t, t]),
                    gelu(t), softmax_rows(t), softmax_cols(t)):
            assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("name, run", [
        ("add", lambda: add(Tensor([1.7e308]), Tensor([1.7e308]))),
        ("sub", lambda: sub(Tensor([1.7e308]), Tensor([-1.7e308]))),
        ("mul", lambda: mul(Tensor([1e200]), Tensor([1e200]))),
        ("matmul", lambda: matmul(Tensor([[1e200]]), Tensor([[1e200]]))),
        ("conv2d", lambda: conv2d(Tensor(np.full((1, 3, 3), 1e200)),
                                  Tensor(np.full((1, 1, 3, 3), 1e200)),
                                  Tensor(np.zeros(1)))),
        # Finite inputs whose sum overflows.
        ("channel_norm", lambda: channel_norm(transpose(_stacked_1e308()))),
        ("sum_all", lambda: sum_all(_stacked_1e308())),
        ("mean_all", lambda: mean_all(_stacked_1e308())),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_checked_op_overflow_raises_under_its_name(self, name, run):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as info:
                run()
        assert str(info.value).startswith(f"{name}: ")

    def test_finite_values_summing_past_the_range_pass(self):
        # Each sum overflows, an error under pytest.ini; the values are finite.
        assert Tensor([1e308, 1e308]).data.tolist() == [1e308, 1e308]
        out = mul(Tensor(np.full(4, 1e308)), Tensor(1.0))
        assert out.data.tolist() == [1e308] * 4
        for over in ("ignore", "raise"):
            with np.errstate(over=over):
                assert Tensor([1e308, 1e308]).data.tolist() == [1e308, 1e308]

    def test_overflowing_sum_prints_no_warning(self):
        # pytest.ini turns the warning into an error, so this runs a fresh
        # interpreter with Python's default warning filters.
        script = ("from artbank.errors import NumericError\n"
                  "from artbank.tensor import Tensor\n"
                  "assert Tensor([1e308, 1e308]).data.tolist() == [1e308, 1e308]\n"
                  "try:\n"
                  "    Tensor([float('inf')])\n"
                  "except NumericError:\n"
                  "    print('refused')\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        src = str(Path(artbank.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout == "refused\n"


class TestInvariants:
    def test_non_finite_construction_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])
        with pytest.raises(NumericError):
            Tensor([np.inf, 1.0])
        # A NaN sum with an invalid-value warning, an error under pytest.ini.
        with pytest.raises(NumericError):
            Tensor([np.inf, -np.inf])

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


# Finite extremes, and the non-finite values that reach an op through
# ``.data`` as an update may leave a parameter, or that the constructor refuses.
_FINITE = [0.0, -0.0, 1.0, -2.5, 1e308, -1e308, 5e-324]
_HOSTILE = _FINITE + [np.nan, np.inf, -np.inf]
_CHECKED = {"add", "sub", "mul", "matmul", "channel_norm", "conv2d"}


def _hostile_args(draw, name):
    """Operand shapes for ``name``: any rank up to 4 for the elementwise ops,
    mostly matrices for softmax and channel norm, matrices with often
    matching inner extents for matmul, and conv shapes with empty and
    mismatched extents for conv2d."""
    def shape(rank=None, side=st.integers(0, 3)):
        rank = draw(st.integers(0, 4)) if rank is None else rank
        return tuple(draw(side) for _ in range(rank))

    if name in ("add", "sub", "mul"):
        return [shape(), shape()], {}
    if name == "matmul":
        m, k, n = shape(3)
        return [draw(st.sampled_from([(m, k), (m,), (1, m, k)])), (k, n)], {}
    if name == "conv2d":
        c, o = draw(st.integers(0, 2)), draw(st.integers(1, 2))
        x = [c, *shape(2, st.integers(1, 4))]
        w, bias = [o, c, *shape(2, st.integers(1, 3))], [o]
        pad = draw(st.integers(0, 2))
        flaw = draw(st.sampled_from(["none", "none", "none", "empty input",
                                     "empty kernel", "channels", "rank", "bias",
                                     "pad"]))
        if flaw == "empty input":
            x[draw(st.sampled_from([1, 2]))] = 0
        elif flaw == "empty kernel":
            w[draw(st.sampled_from([2, 3]))] = 0
        elif flaw == "channels":
            w[1] += 1
        elif flaw == "rank":
            x = [1, *x]
        elif flaw == "bias":
            bias = [o + 1]
        elif flaw == "pad":
            pad = -1
        return [tuple(x), tuple(w), tuple(bias)], {"pad": pad}
    return [shape(draw(st.sampled_from([1, 2, 2, 3])))], {}


_OPS = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b, "matmul": matmul,
        "softmax_rows": softmax_rows, "softmax_cols": softmax_cols,
        "channel_norm": channel_norm, "conv2d": conv2d}


class TestHostileInputs:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_hostile_operands_end_in_a_result_or_an_artbank_error(self, data):
        """Any op on operands of any rank, with empty axes, nan or infinities
        (given to the constructor or set on ``.data`` as an update would),
        gives a result, or an ``ArtBankError`` in the forward or backward
        pass. A checked op's result is finite; an unchecked op's is finite
        when its operands are. numpy's warnings about non-finite values are
        off: what is checked is how each call ends."""
        name = data.draw(st.sampled_from(sorted(_OPS)))
        shapes, kwargs = _hostile_args(data.draw, name)
        pool = data.draw(st.sampled_from([_FINITE, _HOSTILE]))
        values = [data.draw(arrays(np.float64, s, elements=st.sampled_from(pool)))
                  for s in shapes]
        injected = data.draw(st.booleans())
        with np.errstate(all="ignore"):
            try:
                args = []
                for v in values:
                    t = Tensor(np.zeros(v.shape) if injected else v,
                               requires_grad=data.draw(st.booleans()))
                    if injected:
                        t.data = v
                    args.append(t)
                out = _OPS[name](*args, **kwargs)
                if out.requires_grad:
                    sum_all(out).backward()
            except ArtBankError as exc:
                event(f"{name} {type(exc).__name__}")
                return
        event(f"{name} result grad={out.requires_grad}")
        assert isinstance(out, Tensor)
        if name in _CHECKED or all(np.isfinite(v).all() for v in values):
            assert np.isfinite(out.data).all(), name
        for t in args:
            assert t.grad is None or t.grad.shape == t.data.shape, name
