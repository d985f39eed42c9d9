"""Noise schedule, denoiser, trainers, and samplers."""

import hashlib
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

import artbank.diffusion as diffusion
import artbank.tensor as tensor_mod
from artbank import metrics
from artbank.attention import ENCODERS
from artbank.bank import (StyleBank, assemble_condition, bank_bytes,
                          create_entry, encode_prompt, entry_condition)
from artbank.data_io import (default_style_specs, gen_content_image,
                             gen_style_collection)
from artbank.desk import ROOT_SEED
from artbank.diffusion import (BETA_END, BETA_START, CHECKPOINT_MAGIC,
                               Denoiser, LatentState, checkpoint_bytes,
                               ispb_eval_loss, load_checkpoint, make_schedule,
                               probe_losses, q_sample, sample, save_checkpoint,
                               train_ispb, train_naive)
from artbank.errors import (BadMagicError, ConfigError, ContractError,
                            DimensionError, FormatError, MalformedHeaderError,
                            NumericError, TruncatedFileError,
                            VersionMismatchError)
from artbank.inversion import InversionConfig, stochastic_invert, stylize
from artbank.seeding import derive_seed
from artbank.tensor import Parameter, Tensor, mean_all

from oracles import grad_check


class OracleDenoiser:
    """Returns a fixed noise tensor regardless of the input state."""

    frozen = True

    def __init__(self, eps: np.ndarray, timesteps: int):
        self.eps = eps
        self.timesteps = timesteps

    def predict_noise(self, state, cond):
        return Tensor(self.eps)


def text_cond(width=64):
    return assemble_condition(encode_prompt("a photo *", "", width), None)


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

    def test_schedule_over_max_timesteps_refused(self):
        with pytest.raises(ConfigError, match=r"^timesteps must lie in "
                           r"\[1, 10000\], got 10001$"):
            make_schedule(10_001)

    def test_schedule_over_array_budget_refused(self):
        with pytest.raises(ConfigError, match=r"^timesteps must lie in "
                           r"\[1, 10000\], got 1000000000000000$"):
            make_schedule(10**15)


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

    @pytest.mark.parametrize("name", list(diffusion._param_shapes(3, 8, 16)))
    def test_non_finite_parameter_caught_by_first_reader(self, name):
        # As a diverged Adam update would leave it: the op that first reads
        # the parameter raises, under its own name.
        d = Denoiser(3, 8, 16, seed=2)
        getattr(d, name).value.data.flat[0] = np.inf
        state = LatentState(Tensor(np.ones((3, 6, 6))), 4)
        reader = "conv2d" if name.startswith("conv") else "matmul"
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match=f"^{reader}: non-finite"):
                d.predict_noise(state, text_cond(16))

    @pytest.mark.parametrize("width", range(2, 10))
    def test_time_features_are_sines_cosines_and_an_odd_zero(self, width):
        # The digest pins cover width 32 only. Frequency k of the width // 2
        # is 10000^(-k / (width // 2 - 1)), or 1 when there is one; the
        # sines come first, then the cosines, then a zero if width is odd.
        half = width // 2
        d = Denoiser(3, width, 4, seed=0)
        for t in (1, 7, 50, 100):
            angles = [t * 10000.0 ** (-k / max(half - 1, 1)) for k in range(half)]
            expected = ([math.sin(a) for a in angles]
                        + [math.cos(a) for a in angles] + [0.0] * (width % 2))
            got = d._time_features(t).data
            assert got.shape == (width, 1, 1)
            np.testing.assert_allclose(got.ravel(), expected, rtol=0, atol=1e-12)

    def test_head_of_trunk_is_predict_noise(self):
        rng = np.random.default_rng(11)
        d = Denoiser(3, 8, 16, seed=3)
        d.conv4_w.value.data[...] = rng.normal(size=d.conv4_w.value.data.shape)
        state = LatentState(Tensor(rng.normal(size=(3, 6, 5))), 7)
        styled = assemble_condition(encode_prompt("a painting by x *", "x", 16),
                                    Tensor(rng.normal(size=(16, 4))))
        for cond in (None, styled):
            whole = d.predict_noise(state, cond).data
            split = d.head(d.trunk(state), cond).data
            assert whole.tobytes() == split.tobytes()
            assert np.any(whole != 0.0)

    def test_empty_condition_skips_cross_attention(self):
        d = Denoiser(3, 8, 16, seed=2)
        state = LatentState(Tensor(np.zeros((3, 4, 4))), 1)
        empty = assemble_condition(encode_prompt("*", "", 16), None)
        assert empty is None
        out = d.predict_noise(state, empty)
        assert out.data.shape == (3, 4, 4)

    @pytest.mark.parametrize("t", [-1, 0, 11, 10**400],
                             ids=["-1", "0", "11", "10**400"])
    def test_timestep_outside_the_schedule_refused(self, t):
        # Unrefused, -1, 0 and 11 ran on made-up time features, and 10**400
        # overflowed converting to float.
        d = Denoiser(3, 8, 8, seed=2, timesteps=10)
        with pytest.raises(ConfigError, match=r"outside \[1, 10\]$"):
            d.predict_noise(LatentState(Tensor(np.ones((3, 4, 4))), t), None)

    @pytest.mark.parametrize("shape", [(8,), (2, 8, 1)])
    def test_condition_not_2d_refused(self, shape):
        d = Denoiser(3, 8, 8, seed=2, timesteps=10)
        state = LatentState(Tensor(np.ones((3, 4, 4))), 3)
        with pytest.raises(DimensionError, match=r"is not \(rows, cond_dim=8\)"):
            sample(d, make_schedule(10), Tensor(np.ones(shape)), state)

    def test_gradient_into_style_row(self):
        rng = np.random.default_rng(7)
        d = Denoiser(1, 6, 5, seed=4)
        d.conv4_w.value.data[...] = rng.normal(size=d.conv4_w.value.data.shape) * 0.3
        d.conv4_b.value.data[...] = rng.normal(size=d.conv4_b.value.data.shape) * 0.1
        d.freeze()
        seq = encode_prompt("a painting *", "", 5)
        v_m = Parameter("v_m", Tensor(rng.normal(size=(5, 3))))
        z = Tensor(rng.normal(size=(1, 6, 6)))

        def f():
            cond = assemble_condition(seq, v_m.value)
            out = d.predict_noise(LatentState(z, 12), cond)
            return mean_all(out * out)

        assert grad_check(f, [v_m]) < 1e-4


class TestTrainNaive:
    def test_zero_steps_leaves_parameters(self):
        d = Denoiser(3, 8, 16, seed=5, timesteps=10)
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
        d = Denoiser(3, 8, 16, seed=7, timesteps=10)
        with pytest.raises(ConfigError, match="^the image set is empty$"):
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

    @pytest.mark.parametrize("n_prompts", [0, 1, 3])
    def test_prompt_count_mismatch_refused_before_any_step(self, monkeypatch,
                                                           n_prompts):
        # Two images need exactly two prompts: none is cycled or dropped.
        d = Denoiser(3, 8, 16, seed=10)
        before = checkpoint_bytes(d)
        imgs = [gen_content_image("photo", 8, seed=i) for i in range(2)]
        steps = []
        real_trunk = Denoiser.trunk
        monkeypatch.setattr(Denoiser, "trunk",
                            lambda *a: steps.append(a[1].t) or real_trunk(*a))
        message = f"one prompt per image, got {n_prompts} prompts for 2 images"
        with pytest.raises(ConfigError, match=message):
            train_naive(d, imgs, ["a photo *"] * n_prompts, make_schedule(10),
                        5, seed=0)
        assert steps == []
        assert checkpoint_bytes(d) == before

    def test_built_prompt_trains_under_its_own_tokens(self):
        # A pool directory named "Mo{artist}net" builds this prompt; it must
        # not train as the prompt of a directory named "Monet".
        imgs = [gen_content_image("photo", 8, seed=4)]

        def trace(prompt):
            d = Denoiser(3, 8, 16, seed=9, timesteps=20)
            return train_naive(d, imgs, [prompt], make_schedule(20), 3, seed=11)

        assert trace("a painting by Mo{artist}net *") != \
            trace("a painting by Monet *")

    def test_deterministic_given_seed(self):
        imgs = [gen_content_image("photo", 8, seed=4),
                gen_content_image("shapes", 8, seed=5)]
        prompts = ["a photo *", "a photo *"]

        def run():
            d = Denoiser(3, 8, 16, seed=9, timesteps=20)
            train_naive(d, imgs, prompts, make_schedule(20), 25, seed=11)
            return checkpoint_bytes(d)

        assert run() == run()


@pytest.mark.parametrize("trainer", ["naive", "ispb"])
def test_channel_mismatch_refused_before_any_step(monkeypatch, trainer):
    # six RGB images and one gray one, as in a dataset of P6 and P5 files
    images = [gen_content_image("photo", 8, seed=i) for i in range(6)]
    images.append(gen_content_image("shapes", 8, seed=6, channels=1))
    d = Denoiser(3, 8, 16, seed=12, timesteps=10)
    entry = create_entry("mixed", "mixed", 16, 4, seed=0)
    sched = make_schedule(10)
    steps = []
    real_trunk = Denoiser.trunk
    monkeypatch.setattr(Denoiser, "trunk",
                        lambda *a: steps.append(a[1].t) or real_trunk(*a))
    if trainer == "naive":
        params = d.parameters()
        run = lambda: train_naive(d, images, ["a photo *"] * len(images), sched,
                                  20, seed=0)
    else:
        d.freeze()
        params = entry_condition(entry)[0]
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


@pytest.mark.parametrize("lr", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("trainer", ["naive", "ispb"])
def test_bad_lr_refused_before_any_step(monkeypatch, trainer, lr):
    images = [gen_content_image("photo", 8, seed=i) for i in range(2)]
    d = Denoiser(3, 8, 16, seed=12, timesteps=10)
    entry = create_entry("lr", "lr", 16, 4, seed=0)
    calls = []
    real_trunk = Denoiser.trunk
    monkeypatch.setattr(Denoiser, "trunk",
                        lambda *a: calls.append(a[1].t) or real_trunk(*a))
    if trainer == "naive":
        params = d.parameters()
        run = lambda: train_naive(d, images, ["a photo *"] * 2, make_schedule(10),
                                  5, seed=0, lr=lr)
    else:
        d.freeze()
        params = entry_condition(entry)[0]
        run = lambda: train_ispb(d, entry, images, make_schedule(10), 5, seed=0,
                                 lr=lr)
    before = [p.value.data.copy() for p in params]
    with pytest.raises(ConfigError, match="^lr must be finite and positive, got"):
        run()
    assert calls == []
    assert all(np.array_equal(p.value.data, b) for p, b in zip(params, before))


@pytest.mark.parametrize("trainer", ["naive", "ispb"])
def test_trace_over_budget_refused_before_any_step(monkeypatch, trainer):
    # 20,000 losses take 160,000 bytes, over a budget that the denoiser, the
    # entry and conv2's 9 * 8 * 8 * 8 float64 columns (36,864 bytes) fit in.
    monkeypatch.setattr(tensor_mod, "MAX_ARRAY_BYTES", 100_000)
    images = [gen_content_image("photo", 8, seed=i) for i in range(2)]
    d = Denoiser(3, 8, 16, seed=12, timesteps=10)
    entry = create_entry("long", "long", 16, 4, seed=0)

    def no_step(*args):
        raise AssertionError("took a step")

    monkeypatch.setattr(Denoiser, "trunk", no_step)
    with pytest.raises(ConfigError, match="^the loss trace of 20000 steps "
                                          "needs a 0.0 GiB array"):
        if trainer == "naive":
            train_naive(d, images, ["a photo *"] * 2, make_schedule(10),
                        20_000, seed=0)
        else:
            d.freeze()
            train_ispb(d, entry, images, make_schedule(10), 20_000, seed=0)


@pytest.mark.parametrize("caller", ["naive", "ispb", "probe", "sample",
                                    "invert", "stylize", "convergence"])
def test_schedule_mismatch_refused_before_any_step(monkeypatch, caller):
    # Trained on, the checkpoint's header would name a schedule its
    # weights never saw; run forward, another schedule's noise levels
    # would meet weights trained on 100 steps.
    images = [gen_content_image("photo", 8, seed=i) for i in range(2)]
    d = Denoiser(3, 8, 16, seed=12)
    entry = create_entry("sched", "sched", 16, 4, seed=0)
    steps = {"probe": 7, "stylize": 50}.get(caller, 10)
    sched = make_schedule(steps)
    calls = []
    real_trunk = Denoiser.trunk
    monkeypatch.setattr(Denoiser, "trunk",
                        lambda *a: calls.append(a[1].t) or real_trunk(*a))

    def no_pool(*args):
        raise AssertionError("started a job")

    monkeypatch.setattr(metrics, "_job_pool", no_pool)
    if caller == "naive":
        params = d.parameters()
        run = lambda: train_naive(d, images, ["a photo *"] * 2, sched, 5,
                                  seed=0)
    else:
        d.freeze()
        params = entry_condition(entry)[0]
        bank = StyleBank()
        bank.add(entry)
        start = LatentState(Tensor(np.zeros((3, 8, 8))), steps)
        run = {"ispb": lambda: train_ispb(d, entry, images, sched, 5, seed=0),
               "probe": lambda: ispb_eval_loss(d, entry, images, sched, seed=0),
               "sample": lambda: sample(d, sched, None, start),
               "invert": lambda: stochastic_invert(d, sched, images[0],
                                                   InversionConfig()),
               "stylize": lambda: stylize(d, sched, bank, "sched", images[0],
                                          InversionConfig()),
               "convergence": lambda: metrics.convergence_benchmark(
                   d, images, ["ssam", "sanet"], [0, 1, 2], 0.85, 100,
                   sched=sched, positions=4)}[caller]
    before = [p.value.data.copy() for p in params]
    with pytest.raises(ConfigError, match=f"^a {steps}-step schedule does not "
                                          "match the denoiser's 100 timesteps$"):
        run()
    assert calls == []
    assert all(np.array_equal(p.value.data, b) for p, b in zip(params, before))


@pytest.mark.parametrize("caller", ["naive", "ispb", "probe", "convergence",
                                    "stylize"])
def test_oversized_image_refused_before_any_step(monkeypatch, caller):
    # A budget under conv2's 9 * 8 * 16 * 16 float64 columns (147,456 bytes)
    # but over the images' own pixels, so nothing large is allocated.
    monkeypatch.setattr(tensor_mod, "MAX_ARRAY_BYTES", 100_000)
    images = [gen_content_image("photo", 16, seed=i) for i in range(3)]
    d = Denoiser(3, 8, 12, seed=12, timesteps=10)
    entry = create_entry("big", "big", 12, 4, seed=0)
    sched = make_schedule(10)
    calls = []
    real_trunk = Denoiser.trunk
    monkeypatch.setattr(Denoiser, "trunk",
                        lambda *a: calls.append(a[1].t) or real_trunk(*a))

    def no_fork():
        calls.append("fork")
        raise AssertionError("forked a worker")

    # Two workers, so a benchmark that checked its images only inside its
    # jobs would fork (and the forked draws' trunks would go unseen here).
    monkeypatch.setattr(metrics, "_workers", lambda jobs, environ, cores: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    if caller == "naive":
        run = lambda: train_naive(d, images, ["a photo *"] * 3, sched, 5, seed=0)
    else:
        d.freeze()
        bank = StyleBank()
        bank.add(entry)
        run = {"ispb": lambda: train_ispb(d, entry, images, sched, 5, seed=0),
               "probe": lambda: ispb_eval_loss(d, entry, images, sched, seed=0),
               "convergence": lambda: metrics.convergence_benchmark(
                   d, images, ["ssam", "sanet"], [0, 1, 2], 0.85, 100,
                   sched=sched, positions=4),
               "stylize": lambda: stylize(d, sched, bank, "big", images[0],
                                          InversionConfig())}[caller]
    with pytest.raises(ConfigError, match="16x16 pixels at denoiser width=8 "
                                          "needs a 0.0 GiB array; the limit is"):
        run()
    assert calls == []


class TestProbe:
    """``probe_losses`` computes each draw's trunk once for all conditions;
    ``ispb_eval_loss`` is its one-condition case."""

    VARIANTS = ("ssam", "adaattn", "sanet")

    def test_shared_probe_gives_each_entry_its_own_value(self, desk):
        entries = [create_entry(f"probe-{v}", "x", 64, 16, seed=20 + i)
                   for i, v in enumerate(self.VARIANTS)]
        conds = [entry_condition(e, v, 3)[1]().detach()
                 for e, v in zip(entries, self.VARIANTS)]
        shared = probe_losses(desk.backbone, conds, desk.style_collection,
                              desk.sched, 3)
        assert [loss.hex() for loss in shared] == [
            ispb_eval_loss(desk.backbone, e, desk.style_collection, desk.sched,
                           seed=3, variant=v).hex()
            for e, v in zip(entries, self.VARIANTS)]


class TestEntryCondition:
    """``bank.entry_condition`` is the one builder of an entry's condition:
    the probe scores what training starts from, and the closure reads the
    parameters training updates."""

    @pytest.mark.parametrize("variant", ENCODERS)
    def test_probe_scores_the_condition_training_starts_from(self, monkeypatch,
                                                             variant):
        images = [gen_content_image("photo", 8, seed=i) for i in range(2)]
        sched = make_schedule(10)
        d = Denoiser(3, 8, 16, seed=12, timesteps=10)
        d.freeze()
        entry = create_entry("one", "one", 16, 4, seed=0)
        conds = []
        real_head = Denoiser.head
        monkeypatch.setattr(Denoiser, "head",
                            lambda *a: conds.append(a[2].data.tobytes())
                            or real_head(*a))
        ispb_eval_loss(d, entry, images, sched, seed=5, variant=variant)
        probed = conds[0]
        conds.clear()
        train_ispb(d, entry, images, sched, 1, seed=5, variant=variant)
        assert conds == [probed]

    def test_sanet_closure_reads_the_trained_output_projection(self):
        entry = create_entry("sanet", "x", 16, 4, seed=0)
        params, condition = entry_condition(entry, "sanet", seed=3)
        before = condition().data.copy()
        w_o = next(p for p in params if p.name == "w_o")
        w_o.value.data += 0.1
        assert not np.array_equal(condition().data, before)


class TestAdaattnBytes:
    """``adaattn`` training on a tiny rig, pinned: a fresh entry, and an
    entry SSAM trained first (whose spatial weights ``adaattn`` must not
    read). The backbone is pretrained a few steps, since a fresh one's
    zero output head gives every condition a zero gradient."""

    @pytest.mark.parametrize("variants, digest", [
        (["adaattn"],
         "f573cef2c418aaa5613c9952302fc720e73dfbad601bf77859ad604c27794c84"),
        (["ssam", "adaattn"],
         "ead1e5e9abb2b0f38ce5e86c65659d7056e673a524ae84cc81a635770f7c55c1"),
    ], ids=["adaattn", "ssam-then-adaattn"])
    def test_trace_and_bank_bytes_pinned(self, variants, digest):
        images = gen_style_collection(default_style_specs()["waves"], 3, 8, seed=2)
        sched = make_schedule(10)
        d = Denoiser(3, 8, 12, seed=5, timesteps=10)
        train_naive(d, images, ["a photo *"] * 3, sched, 10, seed=3, lr=1e-2)
        d.freeze()
        entry = create_entry("ada", "x", 12, 4, seed=7)
        trace = []
        for k, variant in enumerate(variants):
            trace += train_ispb(d, entry, images, sched, 30, seed=11 + k,
                                variant=variant)
        bank = StyleBank()
        bank.add(entry)
        assert hashlib.sha256(np.asarray(trace).tobytes()
                              + bank_bytes(bank)).hexdigest() == digest


class TestTrainIspb:
    def test_zero_steps_leaves_entry(self, desk):
        entry = create_entry("tmp", "tmp", 64, 16, seed=0)
        before = [p.value.data.copy() for p in entry_condition(entry)[0]]
        with pytest.raises(ConfigError, match="steps must be at least 1"):
            train_ispb(desk.backbone, entry, desk.style_collection,
                       desk.sched, 0, seed=0)
        for p, b in zip(entry_condition(entry)[0], before):
            assert np.array_equal(p.value.data, b)

    def test_unfrozen_denoiser_rejected(self, desk):
        d = Denoiser(3, 8, 64, seed=10)
        entry = create_entry("tmp3", "tmp3", 64, 16, seed=3)
        with pytest.raises(ContractError):
            train_ispb(d, entry, desk.style_collection, desk.sched, 1, seed=0)

    def test_empty_collection_rejected(self, desk):
        # The trainers and the probe share one refusal and its message.
        entry = create_entry("tmp4", "tmp4", 64, 16, seed=4)
        with pytest.raises(ConfigError, match="^the image set is empty$"):
            train_ispb(desk.backbone, entry, [], desk.sched, 1, seed=0)
        with pytest.raises(ConfigError, match="^the image set is empty$"):
            ispb_eval_loss(desk.backbone, entry, [], desk.sched, seed=0)

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
            oracle = OracleDenoiser(eps, sched.timesteps)
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
            sample(OracleDenoiser(np.zeros((1, 2, 2)), 10), sched,
                   text_cond(), LatentState(Tensor(np.zeros((1, 2, 2))), 11))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, desk):
        path = tmp_path / "backbone.abdn"
        save_checkpoint(desk.backbone, path)
        loaded = load_checkpoint(path)
        assert checkpoint_bytes(loaded) == checkpoint_bytes(desk.backbone)
        assert loaded.in_channels == desk.backbone.in_channels
        assert loaded.width == desk.backbone.width
        assert loaded.cond_dim == desk.backbone.cond_dim
        assert loaded.timesteps == desk.backbone.timesteps == 100

    def test_round_trip_keeps_timesteps(self, tmp_path):
        path = tmp_path / "t37.abdn"
        save_checkpoint(Denoiser(1, 4, 4, seed=0, timesteps=37), path)
        assert load_checkpoint(path).timesteps == 37

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
        for version in (9, 1):  # 1: the format before the timesteps field
            raw[4] = version
            path.write_bytes(bytes(raw))
            with pytest.raises(VersionMismatchError,
                               match=f"^unsupported checkpoint version: {version}$"):
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
    # width at 10, cond_dim at 14, timesteps at 18, value count at 22;
    # payload from 26.

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.abdn"
        raw = bytearray(checkpoint_bytes(Denoiser(1, 4, 4, seed=0)))
        for value in (np.nan, np.inf):
            struct.pack_into("<d", raw, 26, value)
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError, match="conv1_w holds a non-finite"):
                load_checkpoint(path)

    def test_header_rejected_by_constructor(self, tmp_path):
        path = tmp_path / "hdr.abdn"
        good = checkpoint_bytes(Denoiser(1, 4, 4, seed=0))
        for offset, value in ((6, 2), (10, 1), (14, 0), (18, 0), (18, 10_001)):
            raw = bytearray(good)
            struct.pack_into("<I", raw, offset, value)
            path.write_bytes(bytes(raw))
            with pytest.raises(MalformedHeaderError):
                load_checkpoint(path)

    @pytest.mark.parametrize("offset, value, gib", [
        (10, 6000, "2.4"),  # width: conv2's 6000 x 6000 x 3 x 3 kernel
        (14, 2**32 - 1, "128.0"),  # cond_dim: the 4 x (2**32 - 1) key projection
    ])
    def test_header_over_array_limit_rejected(self, tmp_path, offset, value,
                                              gib):
        # The size check, not the stale value count, must refuse these.
        path = tmp_path / "huge.abdn"
        raw = bytearray(checkpoint_bytes(Denoiser(1, 4, 4, seed=0)))
        struct.pack_into("<I", raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedHeaderError,
                           match=f"needs a {gib} GiB array; the limit is 256 MiB"):
            load_checkpoint(path)

    def test_oversized_header_allocates_little(self, tmp_path):
        # A 3,522-byte file whose width field says 800: the network that
        # width describes needs ~146 MB, so nothing may be built for it
        # before the payload is shown to be there. Nor may anything be
        # built for a header's 0 or 2**32 - 1 timesteps (the largest u32).
        path = tmp_path / "wide.abdn"
        good = checkpoint_bytes(Denoiser(1, 4, 4, seed=0))
        assert len(good) == 3522
        count = 9 * 800 * (1 + 800 + 800 + 1) + 2 * 800 * (800 + 4) + 3 * 800 + 1
        # Width 800 with the value count left stale, and made consistent.
        headers = [{10: 800, 22: 437}, {10: 800, 22: count},
                   {18: 0}, {18: 2**32 - 1}]
        for fields in headers:
            raw = bytearray(good)
            for offset, value in fields.items():
                struct.pack_into("<I", raw, offset, value)
            path.write_bytes(bytes(raw))
            tracemalloc.start()
            try:
                with pytest.raises(FormatError) as err:
                    load_checkpoint(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20
            if 18 in fields:
                assert err.type is MalformedHeaderError
                assert err.match(r"^timesteps must lie in \[1, 10000\], got ")
