"""Noise schedule, denoiser, trainers, and samplers."""

import struct
import tracemalloc

import numpy as np
import pytest

import artbank.diffusion as diffusion
from artbank.bank import (StyleBank, assemble_condition, bank_bytes,
                          create_entry, encode_prompt)
from artbank.data_io import gen_content_image
from artbank.desk import ROOT_SEED
from artbank.diffusion import (BETA_END, BETA_START, CHECKPOINT_MAGIC,
                               Denoiser, LatentState, checkpoint_bytes,
                               ispb_eval_loss, load_checkpoint, make_schedule,
                               q_sample, sample, save_checkpoint, train_ispb,
                               train_naive)
from artbank.errors import (BadMagicError, ConfigError, ContractError,
                            DimensionError, FormatError, MalformedHeaderError,
                            TruncatedFileError, VersionMismatchError)
from artbank.optim import grad_check
from artbank.seeding import derive_seed
from artbank.tensor import Parameter, Tensor, mean_all


class OracleDenoiser:
    """Returns a fixed noise tensor regardless of the input state."""

    frozen = True

    def __init__(self, eps: np.ndarray):
        self.eps = eps

    def predict_noise(self, state, cond):
        return Tensor(self.eps)


def text_cond(width=64):
    return assemble_condition(encode_prompt("a photo *", "", 7, width), None)


def noise_start(sched, seed):
    """A seeded unit-normal 3 x 16 x 16 start state at the last step."""
    noise = np.random.default_rng(seed).standard_normal((3, 16, 16))
    return LatentState(Tensor(noise), sched.timesteps)


class TestSchedule:
    def test_single_step(self):
        sched = make_schedule(1)
        assert sched.alpha_bar[1] == pytest.approx(1 - BETA_START, abs=1e-15)
        assert sched.alpha_bar[0] == 1.0

    def test_default_invariants(self):
        sched = make_schedule(100)
        assert np.all(np.diff(sched.alpha_bar[1:]) < 0.0)
        assert 0.0 < sched.alpha_bar[100] < sched.alpha_bar[1] < 1.0
        beta = 1.0 - sched.alpha_bar[1:] / sched.alpha_bar[:-1]
        assert np.all(beta > 0.0) and np.all(beta < 1.0)

    def test_alpha_bar_matches_brute_force_product(self):
        sched = make_schedule(50)
        beta = np.linspace(BETA_START, BETA_END, 50)
        for t in range(1, 51):
            prod = 1.0
            for i in range(1, t + 1):
                prod *= 1.0 - beta[i - 1]
            assert abs(sched.alpha_bar[t] - prod) <= 1e-15

    def test_complementary_coefficients(self):
        sched = make_schedule(100)
        for t in range(1, 101):
            s = np.sqrt(sched.alpha_bar[t]) ** 2 + np.sqrt(1 - sched.alpha_bar[t]) ** 2
            assert abs(s - 1.0) <= 1e-12

    def test_invalid_ranges(self):
        with pytest.raises(ConfigError):
            make_schedule(0)


class TestQSample:
    def test_zero_noise_scales_input(self):
        sched = make_schedule(100)
        z0 = Tensor(np.full((1, 4, 4), 0.5))
        state = q_sample(z0, 60, Tensor(np.zeros((1, 4, 4))), sched)
        np.testing.assert_allclose(
            state.z.data, np.sqrt(sched.alpha_bar[60]) * 0.5, atol=1e-15)

    def test_early_step_barely_perturbs(self):
        sched = make_schedule(100)
        rng = np.random.default_rng(0)
        z0 = Tensor(rng.uniform(size=(3, 8, 8)))
        eps = Tensor(rng.standard_normal((3, 8, 8)))
        state = q_sample(z0, 1, eps, sched)
        assert float(np.abs(state.z.data - z0.data).max()) <= 0.05

    def test_out_of_range_t(self):
        sched = make_schedule(100)
        z0 = Tensor(np.zeros((1, 2, 2)))
        with pytest.raises(ConfigError):
            q_sample(z0, 0, Tensor(np.zeros((1, 2, 2))), sched)
        with pytest.raises(ConfigError):
            q_sample(z0, 101, Tensor(np.zeros((1, 2, 2))), sched)

    def test_monte_carlo_mean(self):
        sched = make_schedule(100)
        rng = np.random.default_rng(123)
        z0 = rng.uniform(size=(1, 4, 4))
        t = 40
        draws = 10_000
        total = np.zeros_like(z0)
        for _ in range(draws):
            eps = rng.standard_normal(z0.shape)
            total += q_sample(Tensor(z0), t, Tensor(eps), sched).z.data
        mean = total / draws
        expected = np.sqrt(sched.alpha_bar[t]) * z0
        sigma_mean = np.sqrt(1.0 - sched.alpha_bar[t]) / np.sqrt(draws)
        assert np.all(np.abs(mean - expected) <= 3.0 * sigma_mean)


class TestDenoiser:
    def test_zero_weights_give_zero_output(self):
        d = Denoiser(3, 8, 16, seed=0)
        for p in d.parameters():
            p.value.data[...] = 0.0
        state = LatentState(Tensor(np.random.default_rng(0).normal(size=(3, 8, 8))), 5)
        out = d.predict_noise(state, text_cond(16))
        np.testing.assert_array_equal(out.data, np.zeros((3, 8, 8)))

    def test_fresh_model_output_head_is_zero(self):
        d = Denoiser(3, 8, 16, seed=1)
        state = LatentState(Tensor(np.random.default_rng(1).normal(size=(3, 6, 6))), 9)
        out = d.predict_noise(state, text_cond(16))
        np.testing.assert_array_equal(out.data, np.zeros((3, 6, 6)))

    def test_deterministic_forward(self):
        d = Denoiser(3, 8, 16, seed=2)
        rng = np.random.default_rng(3)
        d.conv4_w.value.data[...] = rng.normal(size=d.conv4_w.value.data.shape)
        state = LatentState(Tensor(rng.normal(size=(3, 8, 8))), 17)
        cond = text_cond(16)
        a = d.predict_noise(state, cond).data
        b = d.predict_noise(state, cond).data
        assert np.array_equal(a, b)

    def test_empty_condition_skips_cross_attention(self):
        d = Denoiser(3, 8, 16, seed=2)
        state = LatentState(Tensor(np.zeros((3, 4, 4))), 1)
        empty = assemble_condition(encode_prompt("*", "", 7, 16), None)
        assert empty is None
        out = d.predict_noise(state, empty)
        assert out.data.shape == (3, 4, 4)

    def test_gradient_into_style_row(self):
        rng = np.random.default_rng(7)
        d = Denoiser(1, 6, 5, seed=4)
        d.conv4_w.value.data[...] = rng.normal(size=d.conv4_w.value.data.shape) * 0.3
        d.conv4_b.value.data[...] = rng.normal(size=d.conv4_b.value.data.shape) * 0.1
        d.freeze()
        seq = encode_prompt("a painting *", "", 7, 5)
        v_m = Parameter("v_m", Tensor(rng.normal(size=(5, 3))))
        z = Tensor(rng.normal(size=(1, 6, 6)))

        def f():
            cond = assemble_condition(seq, v_m.value)
            out = d.predict_noise(LatentState(z, 12), cond)
            return mean_all(out * out)

        assert grad_check(f, [v_m]) < 1e-4


class TestTrainNaive:
    def test_zero_steps_leaves_parameters(self):
        d = Denoiser(3, 8, 16, seed=5)
        before = checkpoint_bytes(d)
        imgs = [gen_content_image("photo", 8, seed=1)]
        with pytest.raises(ConfigError, match="steps must be at least 1"):
            train_naive(d, imgs, ["a photo *"], make_schedule(10), 0, seed=0)
        assert checkpoint_bytes(d) == before

    def test_initial_loss_near_unit_variance(self):
        d = Denoiser(3, 8, 16, seed=6)
        imgs = [gen_content_image("photo", 16, seed=2)]
        trace = train_naive(d, imgs, ["a photo *"], make_schedule(100), 5, seed=3)
        # zero output head => loss is the mean square of unit-normal draws
        assert 0.7 < trace[0] < 1.3
        assert 0.7 < float(np.mean(trace)) < 1.3

    def test_empty_dataset_rejected(self):
        d = Denoiser(3, 8, 16, seed=7)
        with pytest.raises(ConfigError):
            train_naive(d, [], [], make_schedule(10), 1, seed=0)

    def test_frozen_backbone_rejected(self):
        d = Denoiser(3, 8, 16, seed=8)
        d.freeze()
        imgs = [gen_content_image("photo", 8, seed=1)]
        with pytest.raises(ContractError):
            train_naive(d, imgs, ["a photo *"], make_schedule(10), 1, seed=0)

    def test_desk_scale_convergence(self, desk):
        trace = np.asarray(desk.pretrain_trace)
        initial = trace[:100].mean()
        smoothed = trace[-100:].mean()
        assert smoothed < 0.8 * initial

    def test_deterministic_given_seed(self):
        imgs = [gen_content_image("photo", 8, seed=4),
                gen_content_image("shapes", 8, seed=5)]
        prompts = ["a photo *", "a photo *"]

        def run():
            d = Denoiser(3, 8, 16, seed=9)
            train_naive(d, imgs, prompts, make_schedule(20), 25, seed=11)
            return checkpoint_bytes(d)

        assert run() == run()


@pytest.mark.parametrize("trainer", ["naive", "ispb"])
def test_channel_mismatch_refused_before_any_step(monkeypatch, trainer):
    # six RGB images and one gray one, as in a dataset of P6 and P5 files
    images = [gen_content_image("photo", 8, seed=i) for i in range(6)]
    images.append(gen_content_image("shapes", 8, seed=6, channels=1))
    d = Denoiser(3, 8, 16, seed=12)
    entry = create_entry("mixed", "mixed", 16, 4, seed=0)
    sched = make_schedule(10)
    steps = []
    real_step = diffusion._noise_step
    monkeypatch.setattr(diffusion, "_noise_step",
                        lambda *a: steps.append(a[2]) or real_step(*a))
    if trainer == "naive":
        params = d.parameters()
        run = lambda: train_naive(d, images, ["a photo *"], sched, 20, seed=0)
    else:
        d.freeze()
        params = entry.trainable_params()
        run = lambda: train_ispb(d, entry, images, sched, 20, seed=0)
    before = [p.value.data.copy() for p in params]
    message = "image 6 has 1 channels, the denoiser takes in_channels=3"
    with pytest.raises(DimensionError, match=message):
        run()
    assert steps == []
    assert all(np.array_equal(p.value.data, b) for p, b in zip(params, before))
    if trainer == "ispb":
        with pytest.raises(DimensionError, match=message):
            ispb_eval_loss(d, entry, images, sched, seed=0)


class TestTrainIspb:
    def test_zero_steps_leaves_entry(self, desk):
        entry = create_entry("tmp", "tmp", 64, 16, seed=0)
        before = [p.value.data.copy() for p in entry.trainable_params()]
        with pytest.raises(ConfigError, match="steps must be at least 1"):
            train_ispb(desk.backbone, entry, desk.style_collection,
                       desk.sched, 0, seed=0)
        for p, b in zip(entry.trainable_params(), before):
            assert np.array_equal(p.value.data, b)

    def test_backbone_bytes_unchanged(self, desk):
        before = checkpoint_bytes(desk.backbone)
        entry = create_entry("tmp2", "tmp2", 64, 16, seed=1)
        train_ispb(desk.backbone, entry, desk.style_collection, desk.sched,
                   30, seed=2)
        assert checkpoint_bytes(desk.backbone) == before

    def test_unfrozen_denoiser_rejected(self, desk):
        d = Denoiser(3, 8, 64, seed=10)
        entry = create_entry("tmp3", "tmp3", 64, 16, seed=3)
        with pytest.raises(ContractError):
            train_ispb(d, entry, desk.style_collection, desk.sched, 1, seed=0)

    def test_empty_collection_rejected(self, desk):
        entry = create_entry("tmp4", "tmp4", 64, 16, seed=4)
        with pytest.raises(ConfigError):
            train_ispb(desk.backbone, entry, [], desk.sched, 1, seed=0)

    def test_desk_scale_convergence(self, desk):
        # initial loss = probe evaluation of a same-seed untrained entry
        untrained = create_entry(desk.entry_full.style_id + "-init",
                                 desk.entry_full.artist, 64, 16,
                                 seed=derive_seed(ROOT_SEED, "entry-full"))
        initial = ispb_eval_loss(desk.backbone, untrained,
                                 desk.style_collection, desk.sched,
                                 seed=derive_seed(ROOT_SEED, "probe"))
        trace = np.asarray(desk.entry_full_trace)
        smoothed = trace[-100:].mean()
        assert len(trace) <= 2000
        assert smoothed < 0.8 * initial

    def test_variants_train(self, desk):
        for variant in ("adaattn", "sanet"):
            entry = create_entry(f"var-{variant}", "x", 64, 16, seed=5)
            spatial = [entry.ssam.w_col, entry.ssam.w_row, entry.ssam.alpha]
            before = [p.value.data.copy() for p in spatial]
            i_m_before = entry.i_m.value.data.copy()
            trace = train_ispb(desk.backbone, entry, desk.style_collection,
                               desk.sched, 20, seed=6, variant=variant)
            assert len(trace) == 20
            assert all(np.isfinite(trace))
            assert not np.array_equal(entry.i_m.value.data, i_m_before)
            # Neither baseline trains SSAM's spatial weights, so an adaattn
            # entry still encodes exactly as the baseline under ssam_forward.
            for p, b in zip(spatial, before):
                assert np.array_equal(p.value.data, b), (variant, p.name)

    def test_eval_loss_sanet_needs_only_the_seed(self, desk):
        entry = create_entry("eval-sanet", "x", 64, 16, seed=8)
        losses = [ispb_eval_loss(desk.backbone, entry, desk.style_collection,
                                 desk.sched, seed=s, variant="sanet")
                  for s in (3, 3, 4)]
        assert np.isfinite(losses[0])
        assert losses[0] == losses[1]
        assert losses[0] != losses[2]

    def test_on_step_true_stops_after_that_step(self, desk):
        k, steps = 12, 30

        def run(n, on_step=None):
            entry = create_entry("hook", "hook", 64, 16, seed=9)
            trace = train_ispb(desk.backbone, entry, desk.style_collection,
                               desk.sched, n, seed=4, on_step=on_step)
            bank = StyleBank()
            bank.add(entry)
            return np.asarray(trace), bank_bytes(bank)

        records = []

        def stop_at_k(record):
            records.append(record)
            return record.step == k

        full, _ = run(steps)
        hooked, hooked_bytes = run(steps, stop_at_k)
        plain, plain_bytes = run(k)
        assert hooked.tobytes() == full[:k].tobytes()
        assert hooked.tobytes() == plain.tobytes()
        assert hooked_bytes == plain_bytes
        assert [r.step for r in records] == list(range(1, k + 1))
        assert [r.loss for r in records] == hooked.tolist()
        assert all(1 <= r.t <= desk.sched.timesteps for r in records)
        assert all(0 <= r.image < len(desk.style_collection) for r in records)
        never, _ = run(steps, lambda record: False)
        assert never.tobytes() == full.tobytes()

    def test_unknown_variant(self, desk):
        entry = create_entry("var-x", "x", 64, 16, seed=7)
        with pytest.raises(ConfigError, match="film"):
            train_ispb(desk.backbone, entry, desk.style_collection,
                       desk.sched, 1, seed=0, variant="film")
        with pytest.raises(ConfigError, match="film"):
            ispb_eval_loss(desk.backbone, entry, desk.style_collection,
                           desk.sched, seed=0, variant="film")


class TestSample:
    def test_ddim_oracle_reconstructs_z0(self):
        sched = make_schedule(100)
        rng = np.random.default_rng(13)
        z0 = rng.uniform(0.1, 0.9, size=(3, 8, 8))
        for t0 in (1, 17, 50, 100):
            eps = rng.standard_normal(z0.shape)
            state = q_sample(Tensor(z0), t0, Tensor(eps), sched)
            oracle = OracleDenoiser(eps)
            out = sample(oracle, sched, text_cond(), LatentState(state.z, t0))
            pixels = out.pixels.transpose(2, 0, 1)
            assert float(np.abs(pixels - z0).max()) <= 1e-6

    def test_ddim_deterministic(self, desk):
        out1 = sample(desk.backbone, desk.sched, text_cond(),
                      noise_start(desk.sched, 21))
        out2 = sample(desk.backbone, desk.sched, text_cond(),
                      noise_start(desk.sched, 21))
        assert np.array_equal(out1.pixels, out2.pixels)

    def test_output_in_unit_range(self, desk):
        out = sample(desk.backbone, desk.sched, text_cond(),
                     noise_start(desk.sched, 24))
        assert float(out.pixels.min()) >= 0.0
        assert float(out.pixels.max()) <= 1.0

    def test_invalid_start(self):
        sched = make_schedule(10)
        with pytest.raises(ConfigError):
            sample(OracleDenoiser(np.zeros((1, 2, 2))), sched, text_cond(),
                   LatentState(Tensor(np.zeros((1, 2, 2))), 11))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, desk):
        path = tmp_path / "backbone.abdn"
        save_checkpoint(desk.backbone, path)
        loaded = load_checkpoint(path)
        assert checkpoint_bytes(loaded) == checkpoint_bytes(desk.backbone)
        assert loaded.in_channels == desk.backbone.in_channels
        assert loaded.width == desk.backbone.width
        assert loaded.cond_dim == desk.backbone.cond_dim

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.abdn"
        save_checkpoint(Denoiser(1, 4, 4, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ver.abdn"
        save_checkpoint(Denoiser(1, 4, 4, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "trunc.abdn"
        save_checkpoint(Denoiser(1, 4, 4, seed=0), path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)
        path.write_bytes(CHECKPOINT_MAGIC + b"\x01")
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)
        # Shorter than the magic: truncated if it is a prefix of the magic,
        # the same rule as the bank's.
        path.write_bytes(CHECKPOINT_MAGIC[:2])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)
        path.write_bytes(b"XY")
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "junk.abdn"
        save_checkpoint(Denoiser(1, 4, 4, seed=0), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="4 trailing bytes"):
            load_checkpoint(path)

    # Header layout: magic (4), version (2), then u32 in_channels at 6,
    # width at 10, cond_dim at 14, value count at 18; payload from 22.

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.abdn"
        raw = bytearray(checkpoint_bytes(Denoiser(1, 4, 4, seed=0)))
        for value in (np.nan, np.inf):
            struct.pack_into("<d", raw, 22, value)
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError, match="conv1_w holds a non-finite"):
                load_checkpoint(path)

    def test_header_rejected_by_constructor(self, tmp_path):
        path = tmp_path / "hdr.abdn"
        good = checkpoint_bytes(Denoiser(1, 4, 4, seed=0))
        for offset, value in ((6, 2), (10, 1), (14, 0)):
            raw = bytearray(good)
            struct.pack_into("<I", raw, offset, value)
            path.write_bytes(bytes(raw))
            with pytest.raises(MalformedHeaderError):
                load_checkpoint(path)

    def test_oversized_header_allocates_little(self, tmp_path):
        # A 3,518-byte file whose width field says 800: the network that
        # width describes needs ~146 MB, so nothing may be built for it
        # before the payload is shown to be there.
        path = tmp_path / "wide.abdn"
        raw = bytearray(checkpoint_bytes(Denoiser(1, 4, 4, seed=0)))
        assert len(raw) == 3518
        struct.pack_into("<I", raw, 10, 800)
        count = 9 * 800 * (1 + 800 + 800 + 1) + 2 * 800 * (800 + 4) + 3 * 800 + 1
        for total in (437, count):  # count left stale, and made consistent
            struct.pack_into("<I", raw, 18, total)
            path.write_bytes(bytes(raw))
            tracemalloc.start()
            try:
                with pytest.raises(FormatError):
                    load_checkpoint(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20
