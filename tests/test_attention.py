"""The style-matrix attention encoders against independent oracles."""

import numpy as np
import pytest

from artbank.attention import (SsamParams, adaattn_forward, init_output_proj,
                               init_ssam_params, sanet_forward, ssam_forward)
from artbank.errors import DimensionError
from artbank.optim import grad_check
from artbank.tensor import EPS, Parameter, Tensor, mean_all

from oracles import adaattn_ref, random_ssam_instance, sanet_ref, ssam_ref


def params_from_instance(inst) -> tuple[Tensor, SsamParams]:
    p = SsamParams(
        w_q=Parameter("w_q", Tensor(inst["w_q"])),
        w_k=Parameter("w_k", Tensor(inst["w_k"])),
        w_v=Parameter("w_v", Tensor(inst["w_v"])),
        w_col=Parameter("w_col", Tensor(inst["w_col"])),
        w_row=Parameter("w_row", Tensor(inst["w_row"])),
        alpha=Parameter("alpha", Tensor(np.asarray(inst["alpha"]))),
    )
    return Tensor(inst["i_m"]), p


class TestSsamForward:
    def test_fully_forced_1x1(self):
        inst = {
            "i_m": np.asarray([[0.7]]), "w_q": np.eye(1), "w_k": np.eye(1),
            "w_v": np.eye(1), "w_col": np.ones((1, 1)),
            "w_row": np.ones((1, 1)), "alpha": 0.25,
        }
        i_m, p = params_from_instance(inst)
        out = ssam_forward(i_m, p)
        # attention over one position is 1, the variance term collapses to
        # the eps floor, and the normalized input is zero, leaving i_m.
        np.testing.assert_allclose(out.data, [[0.7]], atol=1e-12)

    def test_reduces_to_adaattn_with_ones_weights(self):
        rng = np.random.default_rng(0)
        for alpha in (-1.3, 0.0, 0.5, 2.0):
            inst = random_ssam_instance(rng, 3, 5)
            inst["w_col"] = np.ones((5, 1))
            inst["w_row"] = np.ones((1, 5))
            inst["alpha"] = alpha
            i_m, p = params_from_instance(inst)
            ssam_out = ssam_forward(i_m, p)
            ada_out = adaattn_forward(i_m, p.w_q, p.w_k, p.w_v)
            np.testing.assert_allclose(ssam_out.data, ada_out.data, atol=1e-12)

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(42)
        inst = random_ssam_instance(rng, 3, 4)
        i_m, p = params_from_instance(inst)
        out = ssam_forward(i_m, p)
        expected = ssam_ref(inst["i_m"], inst["w_q"], inst["w_k"],
                            inst["w_v"], inst["w_col"], inst["w_row"],
                            inst["alpha"])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(1)
        inst = random_ssam_instance(rng, 3, 4)
        i_m, p = params_from_instance(inst)
        with pytest.raises(DimensionError):
            ssam_forward(Tensor(np.ones((3, 5))), p)
        with pytest.raises(DimensionError):
            ssam_forward(Tensor(np.ones((2, 4))), p)

    def test_std_entries_above_eps_floor(self):
        rng = np.random.default_rng(23)
        floor = np.sqrt(EPS) * (1.0 - 1e-12)
        for _ in range(50):
            c = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            inst = random_ssam_instance(rng, c, n, scale=2.0)
            i_m, p = params_from_instance(inst)
            out = ssam_forward(i_m, p)
            # recover the std factor: (out - mean term) / norm term where
            # norm is nonzero; easier to recheck via the oracle pieces.
            q = inst["w_q"] @ inst["i_m"]
            k = inst["w_k"] @ inst["i_m"]
            v = inst["w_v"] @ inst["i_m"]
            e = np.exp(q.T @ k - (q.T @ k).max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            a_hat = (inst["alpha"] * a * inst["w_col"]
                     + (1 - inst["alpha"]) * a * inst["w_row"])
            m_hat = v @ a_hat.T
            s_hat = np.sqrt(np.maximum((v * v) @ a_hat.T - m_hat ** 2, 0) + EPS)
            assert np.all(s_hat >= floor)
            assert np.all(np.isfinite(out.data))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        inst = random_ssam_instance(rng, 4, 6)
        perm = rng.permutation(6)
        i_m, p = params_from_instance(inst)
        out = ssam_forward(i_m, p).data

        permuted = dict(inst)
        permuted["i_m"] = inst["i_m"][:, perm]
        permuted["w_col"] = inst["w_col"][perm]
        permuted["w_row"] = inst["w_row"][:, perm]
        i_m2, p2 = params_from_instance(permuted)
        out2 = ssam_forward(i_m2, p2).data
        np.testing.assert_allclose(out2, out[:, perm], atol=1e-12)

    def test_gradients_pass_finite_differences(self):
        rng = np.random.default_rng(77)
        inst = random_ssam_instance(rng, 3, 4, scale=0.8)
        i_m_t, p = params_from_instance(inst)
        i_m = Parameter("i_m", i_m_t)

        def f():
            out = ssam_forward(i_m.value, p)
            return mean_all(out * out)

        err = grad_check(f, [i_m] + p.all_params())
        assert err < 1e-4


class TestAdaAttnForward:
    def test_single_position_returns_value_projection(self):
        rng = np.random.default_rng(3)
        inst = random_ssam_instance(rng, 3, 1)
        i_m, p = params_from_instance(inst)
        out = adaattn_forward(i_m, p.w_q, p.w_k, p.w_v)
        np.testing.assert_allclose(out.data, inst["w_v"] @ inst["i_m"],
                                   atol=1e-4)  # sqrt(eps) * 0 + V

    def test_uniform_attention_averages_values(self):
        # Zero key projection makes every attention row uniform.
        rng = np.random.default_rng(4)
        inst = random_ssam_instance(rng, 2, 5)
        inst["w_k"] = np.zeros((2, 2))
        i_m, p = params_from_instance(inst)
        out = adaattn_forward(i_m, p.w_q, p.w_k, p.w_v)
        v = inst["w_v"] @ inst["i_m"]
        col_mean = v.mean(axis=1, keepdims=True)
        expected = adaattn_ref(inst["i_m"], inst["w_q"], inst["w_k"], inst["w_v"])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        m_hat_cols = (v @ (np.ones((5, 5)) / 5).T)
        np.testing.assert_allclose(m_hat_cols, np.repeat(col_mean, 5, axis=1),
                                   atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        inst = random_ssam_instance(rng, 2, 3)
        i_m, p = params_from_instance(inst)
        out = adaattn_forward(i_m, p.w_q, p.w_k, p.w_v)
        expected = adaattn_ref(inst["i_m"], inst["w_q"], inst["w_k"], inst["w_v"])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestSanetForward:
    def test_zero_output_projection_is_identity(self):
        rng = np.random.default_rng(6)
        inst = random_ssam_instance(rng, 3, 4)
        i_m, p = params_from_instance(inst)
        w_o = Parameter("w_o", Tensor(np.zeros((3, 3))))
        out = sanet_forward(i_m, p.w_q, p.w_k, p.w_v, w_o)
        np.testing.assert_array_equal(out.data, inst["i_m"])

    def test_single_position_identity_projections_double(self):
        rng = np.random.default_rng(7)
        inst = random_ssam_instance(rng, 3, 1)
        inst["w_v"] = np.eye(3)
        i_m, p = params_from_instance(inst)
        w_o = Parameter("w_o", Tensor(np.eye(3)))
        out = sanet_forward(i_m, p.w_q, p.w_k, p.w_v, w_o)
        np.testing.assert_allclose(out.data, 2.0 * inst["i_m"], atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        inst = random_ssam_instance(rng, 2, 3)
        w_o_arr = rng.normal(size=(2, 2))
        i_m, p = params_from_instance(inst)
        w_o = Parameter("w_o", Tensor(w_o_arr))
        out = sanet_forward(i_m, p.w_q, p.w_k, p.w_v, w_o)
        expected = sanet_ref(inst["i_m"], inst["w_q"], inst["w_k"],
                             inst["w_v"], w_o_arr)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestInit:
    def test_init_starts_at_statistical_baseline(self):
        rng = np.random.default_rng(9)
        p = init_ssam_params(8, 5, rng)
        i_m = Tensor(np.random.default_rng(10).normal(size=(8, 5)))
        ssam_out = ssam_forward(i_m, p)
        ada_out = adaattn_forward(i_m, p.w_q, p.w_k, p.w_v)
        np.testing.assert_allclose(ssam_out.data, ada_out.data, atol=1e-12)
        assert float(p.alpha.value.data) == 0.5

    def test_projection_bounds(self):
        rng = np.random.default_rng(11)
        p = init_ssam_params(16, 4, rng)
        bound = 1.0 / 4.0
        for param in (p.w_q, p.w_k, p.w_v):
            assert np.all(np.abs(param.value.data) <= bound)
        w_o = init_output_proj(16, rng)
        assert np.all(np.abs(w_o.value.data) <= bound)
        assert w_o.name == "w_o"
