"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight fixture (pretrained backbone, trained entries) is
the desk rig from ``artbank.desk``, built once per session by conftest and
shared with the module tests.
"""

import math
import time

import numpy as np
import pytest

from artbank.attention import init_output_proj, ssam_forward
from artbank.bank import (StyleBank, assemble_condition, bank_bytes,
                          create_entry, encode_prompt, load_bank, save_bank)
from artbank.data_io import gen_content_image, read_ppm, write_ppm
from artbank.desk import ROOT_SEED, convergence, stylize_scores
from artbank.diffusion import (Denoiser, LatentState, checkpoint_bytes,
                               load_checkpoint, make_schedule, q_sample,
                               sample, save_checkpoint, train_ispb)
from artbank.inversion import InversionConfig, probe_noise, stochastic_invert
from artbank.seeding import derive_seed
from artbank.tensor import Parameter, Tensor, mean_all, softmax_rows

from oracles import adaattn_ref, grad_check, random_ssam_instance, ssam_ref
from test_attention import params_from_instance


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_ssam_oracle_equivalence():
    rng = np.random.default_rng(derive_seed(ROOT_SEED, "accept-oracle"))
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        inst = random_ssam_instance(rng, c, n)
        i_m, p = params_from_instance(inst)
        got = ssam_forward(i_m, p).data
        want = ssam_ref(inst["i_m"], inst["w_q"], inst["w_k"], inst["w_v"],
                        inst["w_col"], inst["w_row"], inst["alpha"])
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.time() - t0
    _criterion(1, "ssam matches step-by-step oracle", worst <= 1e-12
               and elapsed < 10.0,
               f"max abs err {worst:.2e}, {elapsed:.1f}s")


def _healthy_instance(rng, c, n):
    """Random encoder instance away from the clamp/sqrt kinks."""
    for _ in range(100):
        inst = random_ssam_instance(rng, c, n, scale=0.7)
        q = inst["w_q"] @ inst["i_m"]
        k = inst["w_k"] @ inst["i_m"]
        v = inst["w_v"] @ inst["i_m"]
        e = np.exp(q.T @ k - (q.T @ k).max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        a_hat = (inst["alpha"] * a * inst["w_col"]
                 + (1 - inst["alpha"]) * a * inst["w_row"])
        m_hat = v @ a_hat.T
        var = (v * v) @ a_hat.T - m_hat ** 2
        if np.abs(var).min() > 1e-3:
            return inst
    raise AssertionError("no kink-free instance found")


def test_criterion_02_gradient_integrity():
    t0 = time.time()
    rng = np.random.default_rng(derive_seed(ROOT_SEED, "accept-grad"))
    sched = make_schedule(100)

    # bank-entry loss on a fixed minibatch, frozen backbone
    c_dim, n_pos = 6, 4
    d = Denoiser(in_channels=1, width=8, cond_dim=c_dim, seed=5)
    for p in (d.conv4_w, d.conv4_b):
        p.value.data[...] = rng.normal(size=p.value.data.shape) * 0.3
    d.freeze()
    inst = _healthy_instance(rng, c_dim, n_pos)
    i_m_t, sp = params_from_instance(inst)
    i_m = Parameter("i_m", i_m_t)
    seq = encode_prompt("a painting by {artist} *", "probe", c_dim)
    z0 = Tensor(rng.uniform(0.1, 0.9, size=(1, 8, 8)))
    eps = rng.standard_normal((1, 8, 8))
    state = q_sample(z0, 37, Tensor(eps), sched)
    eps_t = Tensor(eps)

    def ispb_loss():
        cond = assemble_condition(seq, ssam_forward(i_m.value, sp))
        pred = d.predict_noise(state, cond)
        diff = eps_t - pred
        return mean_all(diff * diff)

    ispb_params = [i_m] + sp.all_params()
    err_ispb = grad_check(ispb_loss, ispb_params)

    # naive loss over every denoiser parameter, text-only condition
    d2 = Denoiser(in_channels=1, width=8, cond_dim=c_dim, seed=6)
    d2.conv4_w.value.data[...] = rng.normal(size=d2.conv4_w.value.data.shape) * 0.3
    d2.conv4_b.value.data[...] = rng.normal(size=d2.conv4_b.value.data.shape) * 0.1
    cond_text = assemble_condition(seq, None)

    def naive_loss():
        pred = d2.predict_noise(state, cond_text)
        diff = eps_t - pred
        return mean_all(diff * diff)

    err_theta = grad_check(naive_loss, d2.parameters())
    elapsed = time.time() - t0
    _criterion(2, "gradients verified by finite differences",
               err_ispb < 1e-4 and err_theta < 1e-4 and elapsed < 120.0,
               f"ispb {err_ispb:.2e}, theta {err_theta:.2e}, {elapsed:.1f}s")


def test_criterion_03_reduction_law():
    rng = np.random.default_rng(derive_seed(ROOT_SEED, "accept-reduction"))
    worst = 0.0
    for _ in range(50):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        inst = random_ssam_instance(rng, c, n)
        inst["w_col"] = np.ones((n, 1))
        inst["w_row"] = np.ones((1, n))
        inst["alpha"] = float(rng.normal() * 3.0)
        i_m, p = params_from_instance(inst)
        ssam_out = ssam_forward(i_m, p).data
        ada_out = adaattn_ref(inst["i_m"], inst["w_q"], inst["w_k"], inst["w_v"])
        worst = max(worst, float(np.abs(ssam_out - ada_out).max()))
    _criterion(3, "all-ones spatial weights reduce to the statistical baseline",
               worst <= 1e-12, f"max abs diff {worst:.2e}")


def test_criterion_04_attention_normalization_and_positivity():
    rng = np.random.default_rng(derive_seed(ROOT_SEED, "accept-norm"))
    eps = 1e-8
    ok_rows = True
    ok_pos = True
    for _ in range(1000):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        x = rng.normal(scale=10.0 ** rng.integers(0, 3), size=(rows, cols))
        a = softmax_rows(Tensor(x)).data
        ok_rows &= bool(np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-9))

        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        inst = random_ssam_instance(rng, c, n)
        q = inst["w_q"] @ inst["i_m"]
        k = inst["w_k"] @ inst["i_m"]
        v = inst["w_v"] @ inst["i_m"]
        e = np.exp(q.T @ k - (q.T @ k).max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        a_hat = (inst["alpha"] * att * inst["w_col"]
                 + (1 - inst["alpha"]) * att * inst["w_row"])
        m_hat = v @ a_hat.T
        s_hat = np.sqrt(np.maximum((v * v) @ a_hat.T - m_hat ** 2, 0.0) + eps)
        ok_pos &= bool(np.all(s_hat > 0.0))
    _criterion(4, "softmax rows normalized; attention std strictly positive",
               ok_rows and ok_pos)


class _TrueNoiseOracle:
    frozen = True
    timesteps = 100  # the desk schedule's

    def __init__(self, eps):
        self.eps = eps

    def predict_noise(self, state, cond):
        return Tensor(self.eps)


def test_criterion_05_sampler_and_inversion_identities(desk):
    sched = desk.sched
    rng = np.random.default_rng(derive_seed(ROOT_SEED, "accept-sampler"))
    cond = assemble_condition(encode_prompt("a photo *", "", 64), None)

    worst = 0.0
    z0 = rng.uniform(0.1, 0.9, size=(3, 8, 8))
    for t0 in (1, 7, 23, 50, 77, 100):
        eps = rng.standard_normal(z0.shape)
        state = q_sample(Tensor(z0), t0, Tensor(eps), sched)
        out = sample(_TrueNoiseOracle(eps), sched, cond,
                     LatentState(state.z, t0))
        worst = max(worst, float(np.abs(out.pixels.transpose(2, 0, 1) - z0).max()))
    recon_ok = worst <= 1e-6

    content = gen_content_image("shapes", 16, seed=3)
    cfg = InversionConfig(strength=0.6, seed=17)
    probe = probe_noise(cfg, (3, 16, 16))
    eps_pred, t_start = stochastic_invert(_TrueNoiseOracle(probe), sched,
                                          content, cfg)
    invert_ok = np.array_equal(eps_pred.data, probe) and t_start == 60

    noise = np.random.default_rng(23).standard_normal((3, 16, 16))
    start = LatentState(Tensor(noise), sched.timesteps)
    s1 = sample(desk.backbone, sched, cond, start)
    s2 = sample(desk.backbone, sched, cond, start)
    ddim_ok = np.array_equal(s1.pixels, s2.pixels)

    _criterion(5, "oracle reconstruction, probe identity, ddim repeatability",
               recon_ok and invert_ok and ddim_ok,
               f"recon err {worst:.2e}")


def test_criterion_06_frozen_backbone_contract(desk):
    before = checkpoint_bytes(desk.backbone)
    entry = create_entry("freeze-probe", "x", 64, 16,
                         seed=derive_seed(ROOT_SEED, "accept-freeze"))
    train_ispb(desk.backbone, entry, desk.style_collection, desk.sched, 50,
               seed=derive_seed(ROOT_SEED, "accept-freeze-train"))
    after = checkpoint_bytes(desk.backbone)
    _criterion(6, "bank training leaves denoiser bytes unchanged",
               before == after)


def test_criterion_07_convergence_direction(desk):
    t0 = time.time()
    by_variant = {r.variant: r for r in convergence(desk, ["ssam", "sanet"])}
    ssam_med = by_variant["ssam"].median_iters
    sanet_med = by_variant["sanet"].median_iters
    elapsed = time.time() - t0
    ssam_val = math.inf if ssam_med is None else ssam_med
    sanet_val = math.inf if sanet_med is None else sanet_med
    _criterion(7, "ssam reaches threshold in fewer median iterations than sanet",
               ssam_val < sanet_val and elapsed < 2700.0,
               f"ssam {ssam_med} vs sanet {sanet_med}, {elapsed:.0f}s, "
               f"per-seed ssam {by_variant['ssam'].iterations_to_threshold} "
               f"sanet {by_variant['sanet'].iterations_to_threshold}")


@pytest.fixture(scope="module")
def stylized(desk):
    """Criteria 08 and 09's one pass over the contents: each score's mean,
    and the pass's wall time."""
    t0 = time.time()
    means = {key: float(np.mean(values))
             for key, values in stylize_scores(desk).items()}
    return means, time.time() - t0


def test_criterion_08_structure_preservation(stylized):
    means, elapsed = stylized
    m_inv, m_rnd = means["ssim_inversion"], means["ssim_random"]
    _criterion(8, "inversion preserves structure better than random init",
               m_inv > m_rnd and elapsed < 900.0,
               f"ssim {m_inv:.4f} vs {m_rnd:.4f}, {elapsed:.0f}s")


def test_criterion_09_style_acquisition_and_text_ablation(stylized):
    means, _ = stylized
    m_content, m_full, m_droptext = (
        means["style_content"], means["style_inversion"], means["style_droptext"])
    _criterion(9, "stylization acquires the target style; text helps",
               m_full > m_content and m_full >= m_droptext,
               f"content {m_content:.4f}, full {m_full:.4f}, "
               f"droptext {m_droptext:.4f}")


def test_criterion_10_persistence_bit_exact(tmp_path):
    rng = np.random.default_rng(derive_seed(ROOT_SEED, "accept-persist"))
    bank = StyleBank()
    for i in range(100):
        c = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        bank.add(create_entry(f"style-{i:03d}", f"artist-{i}", c, n,
                              seed=int(rng.integers(0, 2 ** 31))))
    path = tmp_path / "big.ispb"
    save_bank(bank, path)
    loaded = load_bank(path)
    bank_ok = bank_bytes(loaded) == path.read_bytes() and len(loaded) == 100

    ck_ok = True
    for i, (ch, w, cd) in enumerate([(3, 8, 16), (1, 4, 6), (3, 32, 64)]):
        d = Denoiser(ch, w, cd, seed=i)
        d.conv4_w.value.data[...] = rng.normal(size=d.conv4_w.value.data.shape)
        ck_path = tmp_path / f"d{i}.abdn"
        save_checkpoint(d, ck_path)
        ck_ok &= checkpoint_bytes(load_checkpoint(ck_path)) == ck_path.read_bytes()
    _criterion(10, "bank and checkpoint round-trips are bit-exact",
               bank_ok and ck_ok)


def test_criterion_11_end_to_end_smoke(tmp_path):
    from artbank.cli import run
    from artbank.data_io import default_style_specs, gen_style_collection

    t0 = time.time()
    root = tmp_path / "data"
    sub = root / "checks"
    sub.mkdir(parents=True)
    spec = default_style_specs()["checks"]
    for i, img in enumerate(gen_style_collection(spec, 16, 16, seed=31)):
        write_ppm(img, sub / f"img_{i:03d}.ppm")
    content_path = tmp_path / "content.ppm"
    write_ppm(gen_content_image("shapes", 16, seed=32), content_path)

    ck = tmp_path / "backbone.abdn"
    bank_path = tmp_path / "bank.ispb"
    out_img = tmp_path / "styled.ppm"
    assert run(["pretrain", "--data", str(root), "--checkpoint", str(ck),
                "--steps", "200", "--width", "32", "--channels", "64",
                "--seed", "3"]) == 0
    assert run(["train-bank", "--data", str(root), "--checkpoint", str(ck),
                "--bank", str(bank_path), "--style-id", "checks", "--steps",
                "300", "--positions", "16", "--seed", "3"]) == 0
    assert run(["stylize", "--checkpoint", str(ck), "--bank", str(bank_path),
                "--style-id", "checks", "--content", str(content_path),
                "--out", str(out_img), "--strength", "0.6", "--seed",
                "3"]) == 0
    elapsed = time.time() - t0
    img = read_ppm(out_img)
    _criterion(11, "pretrain -> train-bank -> stylize pipeline",
               elapsed < 600.0 and img.width == 16 and img.height == 16
               and img.channels == 3,
               f"{elapsed:.0f}s")
