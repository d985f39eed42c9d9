"""Inputs, set-up, the four workloads, the probe pass and the kernel table.

Every input is generated here from the workload seed through the public
``artbank.data_io`` generators; the program only ever sees the generated
images, prompts and per-call seeds. Sizes follow the desk rig: 16x16 RGB
images, ``Denoiser(3, width=32, cond_dim=64)``, ``make_schedule(100)`` and
64x16 bank entries under the default template (4 text rows + 16 style rows).

The program is always called through its module attributes
(``diffusion.train_naive(...)``), never through names imported here, so the
tracer's rebinding reaches the benchmark's own calls too.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

import artbank.attention as attention
import artbank.bank as bank
import artbank.data_io as data_io
import artbank.diffusion as diffusion
import artbank.inversion as inversion
import artbank.metrics as metrics
import artbank.optim as optim
import artbank.tensor as tensor
from artbank.seeding import derive_seed

import checks
from speed import clock
from tracing import NullTracer

IMAGE_SIZE = 16
WIDTH = 32
COND_DIM = 64
TIMESTEPS = 100
CHANNELS, POSITIONS = 64, 16
ARTIST = "benchmark"

POOL_PER_FAMILY = 12
N_POOL_CONTENT = 16
N_EXPOSURE = 6
COLLECTION_SIZE = 64
N_CONTENTS = 48

# Set-up pretrains at a higher rate than the default 1e-3 so that a short
# run gives a backbone every bank entry can be trained against.
SETUP_LR = 3e-3

PRETRAIN_OP_STEPS = 10
BANK_OP_STEPS = 20
BANK_VARIANTS = ("ssam", "sanet")
STYLE_ID = "target"
STYLE_ENTRY_STEPS = 100
STRENGTH = 0.6
CONV_VARIANTS = ("ssam", "sanet")
CONV_SEEDS = 3
CONV_LR = 3e-4
CONV_THRESHOLD = 0.85
# Crossings measured on this set-up lay between 100 and ~420 iterations.
CONV_MAX_ITERS = 500

KERNEL_REPEATS = 40


def target_spec() -> data_io.StyleSpec:
    """The collection bank entries learn: stripes mechanics, its own look."""
    return data_io.StyleSpec("stripes", [(0.85, 0.15, 0.45), (0.05, 0.90, 0.85)],
                             orientation=120.0, scale=6.0)


@dataclasses.dataclass
class Rig:
    """Everything set-up produces; operations only read it."""

    seed: int
    workdir: Path
    sched: diffusion.NoiseSchedule
    pool: list
    prompts: list[str]
    collection: list
    contents: list
    ckpt_path: Path
    ckpt_bytes: bytes
    backbone: diffusion.Denoiser  # loaded from the checkpoint, frozen
    bank: bank.StyleBank | None = None
    signature: np.ndarray | None = None


@dataclasses.dataclass
class OpRecord:
    """One operation: ``work`` units (training steps, images or reports)
    done by a call that took ``main_s``; ``wall_s`` also covers the
    operation's checks and bookkeeping."""

    index: int
    work: int = 0
    main_s: float = math.nan
    wall_s: float = math.nan
    ok: bool = False
    artifact: bytes = b""
    values: dict = dataclasses.field(default_factory=dict)
    start: float = math.nan  # perf_counter at the operation's start and end
    end: float = math.nan
    ref_ms: float = math.nan  # reference kernel time around the operation


def generate(seed: int):
    """Pretraining pool (four families, content images and a narrow slice of
    the target look), the target collection and the stylize contents."""
    specs = data_io.default_style_specs()
    pool, prompts = [], []
    for name in sorted(specs):
        imgs = data_io.gen_style_collection(specs[name], POOL_PER_FAMILY, IMAGE_SIZE,
                                            seed=derive_seed(seed, f"pool:{name}"))
        pool += imgs
        prompts += [f"a painting by {name} *"] * len(imgs)
    kinds = data_io.CONTENT_KINDS
    for i in range(N_POOL_CONTENT):
        pool.append(data_io.gen_content_image(
            kinds[i % len(kinds)], IMAGE_SIZE, seed=derive_seed(seed, f"pool-content:{i}")))
        prompts.append("a photo *")
    exposure = dataclasses.replace(target_spec(), jitter=0.35)
    pool += data_io.gen_style_collection(exposure, N_EXPOSURE, IMAGE_SIZE,
                                         seed=derive_seed(seed, "pool-target"))
    prompts += [f"a painting by {ARTIST} *"] * N_EXPOSURE
    collection = data_io.gen_style_collection(target_spec(), COLLECTION_SIZE, IMAGE_SIZE,
                                              seed=derive_seed(seed, "collection"))
    contents = [data_io.gen_content_image(kinds[i % len(kinds)], IMAGE_SIZE,
                                          seed=derive_seed(seed, f"content:{i}"))
                for i in range(N_CONTENTS)]
    return pool, prompts, collection, contents


def bank_roundtrip(b: bank.StyleBank, path: Path, tracer):
    """save_bank -> load_bank; the reloaded bank must serialize to the file's bytes."""
    with tracer.span("bank.roundtrip"):
        bank.save_bank(b, path)
        loaded = bank.load_bank(path)
    raw = path.read_bytes()
    tracer.count("bank.file_bytes", len(raw))
    checks.bit_exact(raw, bank.bank_bytes(loaded), "ISPB")
    return loaded, raw


def set_up(wl, seed: int, workdir: Path, tracer, ledger) -> Rig:
    """Generate data, pretrain, round-trip the checkpoint, prepare the
    workload's own state and warm up every lazy path before timing."""
    sched = diffusion.make_schedule(TIMESTEPS)
    with tracer.span("data_io.generate"):
        pool, prompts, collection, contents = generate(seed)
    d = diffusion.Denoiser(3, WIDTH, COND_DIM, seed=derive_seed(seed, "backbone"))
    diffusion.train_naive(d, pool, prompts, sched, wl.setup_pretrain_steps,
                          seed=derive_seed(seed, "pretrain"), lr=SETUP_LR)
    ckpt_path = workdir / "backbone.abdn"
    with tracer.span("diffusion.checkpoint_roundtrip"):
        diffusion.save_checkpoint(d, ckpt_path)
        backbone = diffusion.load_checkpoint(ckpt_path)
    raw = ckpt_path.read_bytes()
    tracer.count("diffusion.checkpoint_bytes", len(raw))
    with ledger.op("setup ABDN round trip"):
        checks.bit_exact(raw, diffusion.checkpoint_bytes(backbone), "ABDN")
    backbone.freeze()
    rig = Rig(seed=seed, workdir=workdir, sched=sched, pool=pool, prompts=prompts,
              collection=collection, contents=contents, ckpt_path=ckpt_path,
              ckpt_bytes=raw, backbone=backbone)
    wl.prepare(rig, tracer)
    warm_up(rig)
    return rig


def warm_up(rig: Rig) -> None:
    """One short pass over every path the workloads time: first BLAS and
    ``erf`` calls, the Gram feature bank, file I/O."""
    scratch = diffusion.load_checkpoint(rig.ckpt_path)
    diffusion.train_naive(scratch, rig.pool[:2], rig.prompts[:2], rig.sched, 2, seed=0)
    wb = bank.StyleBank()
    for variant in BANK_VARIANTS:
        entry = bank.create_entry(f"warm-{variant}", ARTIST, CHANNELS, POSITIONS, seed=1)
        diffusion.train_ispb(rig.backbone, entry, rig.collection[:2], rig.sched, 2,
                             seed=0, variant=variant)
        wb.add(entry)
    loaded, _ = bank_roundtrip(wb, rig.workdir / "warm.ispb", NullTracer())
    out = inversion.stylize(rig.backbone, rig.sched, loaded, "warm-ssam", rig.contents[0],
                            inversion.InversionConfig(strength=0.05, seed=0))
    metrics.ssim(rig.contents[0], out)
    metrics.gram_style_score(out, metrics.signature_of(rig.collection[:2]))


class Workload:
    """One workload: ``prepare`` adds its own state to the rig during set-up,
    ``start`` returns the state a timed phase begins from, and ``op`` runs
    operation ``i``, filling ``rec`` and raising on a failed check."""

    name = ""
    unit = ""
    setup_pretrain_steps = 200

    def prepare(self, rig, tracer):
        pass

    def start(self, rig):
        return None

    def op(self, rig, state, i, rec, tracer):
        raise NotImplementedError


class Pretrain(Workload):
    """train_naive on the mixed pool: weight gradients on all four convs,
    the full conv backward and Adam over the whole backbone."""

    name = "pretrain"
    unit = "step"

    def start(self, rig):
        # Each phase trains on from the set-up checkpoint, so operation i
        # sees the same weights in every run with the same seed.
        return diffusion.load_checkpoint(rig.ckpt_path)

    def op(self, rig, d, i, rec, tracer):
        t0 = clock()
        losses = diffusion.train_naive(d, rig.pool, rig.prompts, rig.sched, PRETRAIN_OP_STEPS,
                                       seed=derive_seed(rig.seed, f"pretrain-op:{i}"))
        rec.main_s = clock() - t0
        rec.work = PRETRAIN_OP_STEPS
        checks.losses_finite(losses)
        if i == 0:
            rec.artifact = np.asarray(losses).tobytes() + diffusion.checkpoint_bytes(d)


class BankTrain(Workload):
    """train_ispb on fresh entries against the frozen backbone, alternating
    encoders, with a save_bank -> load_bank round trip per entry."""

    name = "bank_train"
    unit = "step"

    def op(self, rig, state, i, rec, tracer):
        entry = bank.create_entry(f"entry-{i}", ARTIST, CHANNELS, POSITIONS,
                                  seed=derive_seed(rig.seed, f"entry:{i}"))
        t0 = clock()
        losses = diffusion.train_ispb(rig.backbone, entry, rig.collection, rig.sched,
                                      BANK_OP_STEPS, seed=derive_seed(rig.seed, f"bank-op:{i}"),
                                      variant=BANK_VARIANTS[i % len(BANK_VARIANTS)])
        rec.main_s = clock() - t0
        rec.work = BANK_OP_STEPS
        checks.losses_finite(losses)
        b = bank.StyleBank()
        b.add(entry)
        _, raw = bank_roundtrip(b, rig.workdir / "entry.ispb", tracer)
        if i == 0:
            rec.artifact = raw


class Stylize(Workload):
    """stylize at strength 0.6 over a fixed mix of content kinds, each output
    scored by ssim and gram_style_score. Forward only."""

    name = "stylize"
    unit = "image"

    def prepare(self, rig, tracer):
        entry = bank.create_entry(STYLE_ID, ARTIST, CHANNELS, POSITIONS,
                                  seed=derive_seed(rig.seed, "style-entry"))
        diffusion.train_ispb(rig.backbone, entry, rig.collection, rig.sched,
                             STYLE_ENTRY_STEPS, seed=derive_seed(rig.seed, "style-train"))
        b = bank.StyleBank()
        b.add(entry)
        rig.bank, _ = bank_roundtrip(b, rig.workdir / "style.ispb", tracer)
        rig.signature = metrics.signature_of(rig.collection)

    def op(self, rig, state, i, rec, tracer):
        content = rig.contents[i % len(rig.contents)]
        cfg = inversion.InversionConfig(strength=STRENGTH,
                                        seed=derive_seed(rig.seed, f"stylize:{i}"))
        t0 = clock()
        out = inversion.stylize(rig.backbone, rig.sched, rig.bank, STYLE_ID, content, cfg)
        rec.main_s = clock() - t0
        rec.work = 1
        checks.stylized_image(out.pixels, content.pixels)
        rec.values["ssim"] = metrics.ssim(content, out)
        rec.values["gram"] = metrics.gram_style_score(out, rig.signature).value
        if i == 0:
            rec.artifact = out.pixels.tobytes()


class Convergence(Workload):
    """convergence_benchmark over two encoders and three seeds with a step
    budget well above the typical crossing iteration."""

    name = "convergence"
    unit = "report"
    setup_pretrain_steps = 1000

    def op(self, rig, state, i, rec, tracer):
        seeds = [derive_seed(rig.seed, f"convergence:{i}:{j}") for j in range(CONV_SEEDS)]
        t0 = clock()
        reports = metrics.convergence_benchmark(
            rig.backbone, rig.collection, list(CONV_VARIANTS), seeds,
            loss_threshold=CONV_THRESHOLD, max_iters=CONV_MAX_ITERS, sched=rig.sched,
            lr=CONV_LR)
        rec.main_s = clock() - t0
        rec.work = 1
        checks.convergence_reports(reports, CONV_VARIANTS, CONV_SEEDS, CONV_MAX_ITERS,
                                   metrics.MOVING_AVG_WINDOW)
        iters = [it for r in reports for it in r.iterations_to_threshold]
        rec.values["step_budget"] = CONV_MAX_ITERS * len(iters)
        rec.values["steps_needed"] = sum(CONV_MAX_ITERS if it is None else it for it in iters)
        rec.values["crossed"] = sum(it is not None for it in iters)
        rec.values["iterations"] = {r.variant: r.iterations_to_threshold for r in reports}
        if i == 0:
            rec.artifact = json.dumps(rec.values["iterations"], sort_keys=True).encode()


WORKLOADS = {wl.name: wl for wl in (Pretrain(), BankTrain(), Stylize(), Convergence())}


def probe_pass(rig: Rig, tracer) -> None:
    """One call of each traced public function on set-up objects, so that a
    per-call time exists even on workloads whose operations never make it."""
    entry = bank.create_entry("probe", ARTIST, CHANNELS, POSITIONS,
                              seed=derive_seed(rig.seed, "probe-entry"))
    seq = bank.encode_prompt(entry.template, entry.artist, width=CHANNELS)
    style = bank.assemble_condition(seq, attention.ssam_forward(entry.i_m.value, entry.ssam))
    content = rig.contents[0]
    x0 = content.to_tensor()
    eps = tensor.Tensor(np.random.Generator(np.random.PCG64(
        derive_seed(rig.seed, "probe-noise"))).standard_normal(x0.data.shape))
    d = diffusion.load_checkpoint(rig.ckpt_path)
    state = diffusion.q_sample(x0, TIMESTEPS // 2, eps, rig.sched)
    diff = eps - d.predict_noise(state, style)
    loss = tensor.mean_all(diff * diff)
    loss.backward()
    optim.adam_step(d.parameters(), optim.AdamState())
    b = bank.StyleBank()
    b.add(entry)
    loaded, _ = bank_roundtrip(b, rig.workdir / "probe.ispb", tracer)
    out = inversion.stylize(rig.backbone, rig.sched, loaded, "probe", content,
                            inversion.InversionConfig(strength=STRENGTH, seed=0))
    metrics.ssim(content, out)
    signature = rig.signature if rig.signature is not None else \
        metrics.signature_of(rig.collection[:8])
    metrics.gram_style_score(out, signature)


def _median_us(fn, repeats: int = KERNEL_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(times))


def _backward_us(make_loss, repeats: int = KERNEL_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        loss = make_loss()
        t0 = time.perf_counter()
        loss.backward()
        times.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(times))


def kernel_table(cond_rows: int) -> dict[str, tuple[float, str]]:
    """Tape kernels on the denoiser's own shapes, summed over one
    predict_noise forward: four 3x3 convs (3->32, 32->32, 32->32, 32->3 at
    16x16), three GELUs, one softmax over 256 x L and the six attention
    matmuls. ``conv2d.bwd_us`` is a Tensor.backward sweep over a one-conv
    graph with weight and bias gradients (and input gradients after conv1).
    FLOPs and bytes are computed from the shapes, not measured."""
    rng = np.random.Generator(np.random.PCG64(0))
    hw = IMAGE_SIZE * IMAGE_SIZE
    out = dict.fromkeys(("fwd_us", "bwd_us", "im2col_us", "mflop", "mbytes"), 0.0)
    for cin, cout in ((3, WIDTH), (WIDTH, WIDTH), (WIDTH, WIDTH), (WIDTH, 3)):
        x = tensor.Tensor(rng.standard_normal((cin, IMAGE_SIZE, IMAGE_SIZE)),
                          requires_grad=cin != 3)
        w = tensor.Tensor(rng.standard_normal((cout, cin, 3, 3)) * 0.1, requires_grad=True)
        b = tensor.Tensor(np.zeros(cout), requires_grad=True)
        out["fwd_us"] += _median_us(lambda: tensor.conv2d(x, w, b))
        out["im2col_us"] += _median_us(lambda: tensor.im2col(x.data, 3, 3, 1))
        out["bwd_us"] += _backward_us(lambda: tensor.sum_all(tensor.conv2d(x, w, b)))
        padded = cin * (IMAGE_SIZE + 2) ** 2
        cols = cin * 9 * hw
        out["mflop"] += 2.0 * cout * cin * 9 * hw / 1e6
        # input read, padded copy written, columns written then read, weights, output
        out["mbytes"] += 8.0 * (cin * hw + padded + 2 * cols + cout * cin * 9 + cout * hw) / 1e6
    act = tensor.Tensor(rng.standard_normal((WIDTH, IMAGE_SIZE, IMAGE_SIZE)))
    scores = tensor.Tensor(rng.standard_normal((hw, cond_rows)))

    def mat(r, c):
        return tensor.Tensor(rng.standard_normal((r, c)) * 0.1)

    products = [(mat(WIDTH, COND_DIM), mat(COND_DIM, cond_rows)),   # keys
                (mat(WIDTH, COND_DIM), mat(COND_DIM, cond_rows)),   # values
                (mat(WIDTH, WIDTH), mat(WIDTH, hw)),                # queries
                (mat(hw, WIDTH), mat(WIDTH, cond_rows)),            # scores
                (mat(WIDTH, cond_rows), mat(cond_rows, hw)),        # attended
                (mat(WIDTH, WIDTH), mat(WIDTH, hw))]                # output projection
    return {
        "tensor.conv2d.fwd_us": (out["fwd_us"], "us"),
        "tensor.conv2d.bwd_us": (out["bwd_us"], "us"),
        "tensor.im2col.us": (out["im2col_us"], "us"),
        "tensor.gelu.us": (3 * _median_us(lambda: tensor.gelu(act)), "us"),
        "tensor.softmax_rows.us": (_median_us(lambda: tensor.softmax_rows(scores)), "us"),
        "tensor.matmul.us": (sum(_median_us(lambda a=a, b=b: tensor.matmul(a, b))
                                 for a, b in products), "us"),
        "tensor.conv2d.mflop": (out["mflop"], "MFLOP"),
        "tensor.conv2d.mbytes": (out["mbytes"], "MB"),
    }


def condition_rows() -> int:
    """L: text rows of the default template plus the entry's style rows."""
    seq = bank.encode_prompt(bank.DEFAULT_TEMPLATE, ARTIST, width=CHANNELS)
    return len(seq.tokens) - 1 + POSITIONS

