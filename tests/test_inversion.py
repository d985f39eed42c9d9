"""Stochastic inversion and the stylization pipeline."""

import numpy as np
import pytest

from artbank.attention import ssam_forward
from artbank.bank import StyleBank, assemble_condition, create_entry, encode_prompt
from artbank.data_io import gen_content_image
from artbank.diffusion import Denoiser, make_schedule
from artbank.errors import ConfigError, UnknownStyleError
from artbank.inversion import (InversionConfig, probe_noise, start_timestep,
                               stochastic_invert, stylize)
from artbank.metrics import ssim
from artbank.tensor import Tensor


class FixedNoiseDenoiser:
    frozen = True
    timesteps = 100

    def __init__(self, eps):
        self.eps = eps

    def predict_noise(self, state, cond):
        return Tensor(self.eps)


class TestConfig:
    def test_strength_bounds(self):
        with pytest.raises(ConfigError):
            InversionConfig(strength=0.0)
        with pytest.raises(ConfigError):
            InversionConfig(strength=1.5)
        InversionConfig(strength=1.0)

    def test_start_timestep_clamps(self):
        sched = make_schedule(100)
        assert start_timestep(InversionConfig(strength=0.004), sched) == 1
        assert start_timestep(InversionConfig(strength=0.6), sched) == 60
        assert start_timestep(InversionConfig(strength=1.0), sched) == 100


class TestStochasticInvert:
    def test_oracle_returns_probe_exactly(self):
        sched = make_schedule(100)
        content = gen_content_image("shapes", 16, seed=1)
        cfg = InversionConfig(strength=0.6, seed=5)
        probe = probe_noise(cfg, (3, 16, 16))
        oracle = FixedNoiseDenoiser(probe)
        eps_pred, t0 = stochastic_invert(oracle, sched, content, cfg)
        assert t0 == 60
        assert np.array_equal(eps_pred.data, probe)

    def test_deterministic(self, desk):
        content = gen_content_image("shapes", 16, seed=2)
        cfg = InversionConfig(strength=0.6, seed=7)
        a, t_a = stochastic_invert(desk.backbone, desk.sched, content, cfg)
        b, t_b = stochastic_invert(desk.backbone, desk.sched, content, cfg)
        assert t_a == t_b
        assert np.array_equal(a.data, b.data)

    def test_zero_weight_denoiser_predicts_zero(self):
        sched = make_schedule(100)
        d = Denoiser(3, 8, 64, seed=0)
        for p in d.parameters():
            p.value.data[...] = 0.0
        d.freeze()
        content = gen_content_image("photo", 8, seed=3)
        cfg = InversionConfig(strength=0.5, seed=9)
        eps_pred, _ = stochastic_invert(d, sched, content, cfg)
        np.testing.assert_array_equal(eps_pred.data, np.zeros((3, 8, 8)))


class TestStylize:
    def test_unknown_style_id(self, desk):
        content = gen_content_image("shapes", 16, seed=4)
        with pytest.raises(UnknownStyleError, match="missing-style"):
            stylize(desk.backbone, desk.sched, desk.bank, "missing-style",
                    content, InversionConfig())

    def test_entry_width_mismatch_refused_before_any_denoiser_call(
            self, monkeypatch):
        d = Denoiser(3, 8, 12, seed=0, timesteps=10)
        d.freeze()
        bank = StyleBank()
        bank.add(create_entry("wide", "wide", 16, 4, seed=0))
        calls = []
        real_trunk = Denoiser.trunk
        monkeypatch.setattr(Denoiser, "trunk",
                            lambda *a: calls.append(a[1].t) or real_trunk(*a))
        with pytest.raises(ConfigError, match=r"^bank entry width 16 does not "
                                              r"match checkpoint condition "
                                              r"width 12$"):
            stylize(d, make_schedule(10), bank, "wide",
                    gen_content_image("photo", 8, seed=0), InversionConfig())
        assert calls == []

    def test_tiny_strength_preserves_content(self, desk):
        content = gen_content_image("shapes", 16, seed=5)
        cfg = InversionConfig(strength=0.01, seed=11)  # t0 clamps to 1
        out = stylize(desk.backbone, desk.sched, desk.bank,
                      desk.entry_full.style_id, content, cfg)
        assert ssim(content, out) > 0.95

    def test_bitwise_deterministic(self, desk):
        content = gen_content_image("photo", 16, seed=6)
        cfg = InversionConfig(strength=0.6, seed=13)
        a = stylize(desk.backbone, desk.sched, desk.bank,
                    desk.entry_full.style_id, content, cfg)
        b = stylize(desk.backbone, desk.sched, desk.bank,
                    desk.entry_full.style_id, content, cfg)
        assert np.array_equal(a.pixels, b.pixels)

    def test_output_in_unit_range(self, desk):
        content = gen_content_image("gradient", 16, seed=7)
        for strength in (0.2, 0.6, 1.0):
            out = stylize(desk.backbone, desk.sched, desk.bank,
                          desk.entry_full.style_id, content,
                          InversionConfig(strength=strength, seed=15))
            assert float(out.pixels.min()) >= 0.0
            assert float(out.pixels.max()) <= 1.0

    def test_inversion_condition_carries_no_prompt_text(self, desk,
                                                         monkeypatch):
        # The full entry's template has text ("a painting by rosetta"),
        # which the backbone learned as a style; inverting under it pulls
        # the noise estimate toward that style instead of the content.
        entry = desk.entry_full
        assert len(entry.template.split()) > 1
        seen = []
        real = Denoiser.predict_noise

        def spy(d, state, cond):
            seen.append(cond)
            return real(d, state, cond)

        monkeypatch.setattr(Denoiser, "predict_noise", spy)
        content = gen_content_image("shapes", 16, seed=8)
        cfg = InversionConfig(strength=0.6, seed=17)
        stylize(desk.backbone, desk.sched, desk.bank, entry.style_id, content, cfg)
        full = assemble_condition(
            encode_prompt(entry.template, entry.artist, entry.channels),
            ssam_forward(entry.i_m.value, entry.ssam))
        assert len(seen) == 1 + start_timestep(cfg, desk.sched)
        assert seen[0] is None
        assert all(np.array_equal(c.data, full.data) for c in seen[1:])
