"""Toy image-space denoising-diffusion backbone.

A linear-beta noise schedule, a small conditional noise-prediction network
(two 3x3 convs down, one cross-attention block over condition rows, two
convs up, GELU activations, sinusoidal timestep features added after the
first conv), the naive all-parameters trainer, the bank-entry trainer that
keeps the backbone frozen, and a deterministic DDIM sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import container, seeding
from .attention import (adaattn_forward, init_output_proj, sanet_forward,
                        ssam_forward)
from .bank import (DEFAULT_VOCAB_SEED, StyleBankEntry, assemble_condition,
                   encode_prompt)
from .data_io import ImageSample
from .errors import (ArtBankError, ConfigError, ContractError,
                     DimensionError, MalformedHeaderError)
from .optim import AdamState, adam_step, zero_grads
from .tensor import (Parameter, Tensor, conv2d, gelu, matmul, mean_all,
                     reshape, softmax_rows, transpose)

CHECKPOINT_MAGIC = b"ABDN"
CHECKPOINT_VERSION = 1

# The beta range, linear over steps 1..T.
BETA_START = 1e-4
BETA_END = 0.02
PROBE_DRAWS = 200  # forward draws averaged by ``ispb_eval_loss``


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal fractions indexed 1..T; index 0 is the clean limit."""

    timesteps: int
    alpha_bar: np.ndarray


def make_schedule(timesteps: int = 100) -> NoiseSchedule:
    if timesteps < 1:
        raise ConfigError("timesteps must be at least 1")
    beta = np.zeros(timesteps + 1)
    beta[1:] = np.linspace(BETA_START, BETA_END, timesteps)
    return NoiseSchedule(timesteps=timesteps, alpha_bar=np.cumprod(1.0 - beta))


@dataclass
class LatentState:
    """A noisy image tensor together with its diffusion timestep."""

    z: Tensor
    t: int


def _check_t(t: int, sched: NoiseSchedule) -> None:
    if not (1 <= t <= sched.timesteps):
        raise ConfigError(f"timestep {t} outside [1, {sched.timesteps}]")


def q_sample(z0: Tensor, t: int, eps: Tensor, sched: NoiseSchedule) -> LatentState:
    """Forward-noise a clean tensor to timestep t."""
    _check_t(t, sched)
    if eps.data.shape != z0.data.shape:
        raise DimensionError("noise must match the clean tensor's shape")
    ab = sched.alpha_bar[t]
    z_t = z0 * float(np.sqrt(ab)) + eps * float(np.sqrt(1.0 - ab))
    return LatentState(z=z_t, t=t)


def _check_config(in_channels: int, width: int, cond_dim: int,
                  error: type[ArtBankError] = ConfigError) -> None:
    if in_channels not in (1, 3):
        raise error("in_channels must be 1 or 3")
    if width < 2 or cond_dim < 1:
        raise error("width must be >= 2 and cond_dim >= 1")


def _param_shapes(in_channels: int, width: int,
                  cond_dim: int) -> dict[str, tuple[int, ...]]:
    """Each denoiser parameter's shape, in ``parameters()`` and file order."""
    c, w = in_channels, width
    return {"conv1_w": (w, c, 3, 3), "conv1_b": (w,),
            "conv2_w": (w, w, 3, 3), "conv2_b": (w,),
            "attn_wq": (w, w), "attn_wk": (w, cond_dim),
            "attn_wv": (w, cond_dim), "attn_wo": (w, w),
            "conv3_w": (w, w, 3, 3), "conv3_b": (w,),
            "conv4_w": (c, w, 3, 3), "conv4_b": (c,)}


class Denoiser:
    """Conditional noise-prediction network.

    The output head starts at zero so an untrained model predicts zero
    noise; cross-attention uses image positions as queries and condition
    rows (L x cond_dim) as keys/values, which is the path that carries
    gradients into the style block during bank training. The empty
    condition, ``None``, skips it.
    """

    def __init__(self, in_channels: int = 3, width: int = 32,
                 cond_dim: int = 64, seed: int = 0):
        _check_config(in_channels, width, cond_dim)
        self.in_channels = in_channels
        self.width = width
        self.cond_dim = cond_dim
        rng = seeding.rng_for(seed, "denoiser-init")
        shapes = _param_shapes(in_channels, width, cond_dim)
        for name, shape in shapes.items():
            if name.endswith("_b") or name == "conv4_w":
                data = np.zeros(shape)
            else:
                # +-1/sqrt(fan-in): cin * 9 for a conv, cols for a matrix
                bound = 1.0 / np.sqrt(math.prod(shape[1:]))
                data = rng.uniform(-bound, bound, size=shape)
            setattr(self, name, Parameter(name, Tensor(data)))
        self._param_names = list(shapes)

        half = width // 2
        if half > 1:
            self._freqs = np.exp(-np.log(10000.0) * np.arange(half) / (half - 1))
        else:
            self._freqs = np.ones(max(half, 1))

    def parameters(self) -> list[Parameter]:
        return [getattr(self, name) for name in self._param_names]

    @property
    def frozen(self) -> bool:
        return all(not p.value.requires_grad for p in self.parameters())

    def freeze(self) -> None:
        for p in self.parameters():
            p.value.requires_grad = False
            p.value.grad = None

    def _time_features(self, t: int) -> np.ndarray:
        ang = float(t) * self._freqs
        emb = np.concatenate([np.sin(ang), np.cos(ang)])
        if emb.size < self.width:
            emb = np.concatenate([emb, np.zeros(self.width - emb.size)])
        return emb[:self.width]

    def predict_noise(self, state: LatentState, cond: Tensor | None) -> Tensor:
        z = state.z
        if z.data.ndim != 3 or z.data.shape[0] != self.in_channels:
            raise DimensionError(
                f"latent shape {z.data.shape} does not match in_channels="
                f"{self.in_channels}")
        _, h, w_img = z.data.shape
        temb = Tensor(self._time_features(state.t).reshape(self.width, 1, 1))
        x = gelu(conv2d(z, self.conv1_w.value, self.conv1_b.value) + temb)
        x = gelu(conv2d(x, self.conv2_w.value, self.conv2_b.value))
        feats = reshape(x, (self.width, h * w_img))
        if cond is not None:
            if cond.data.shape[1] != self.cond_dim:
                raise DimensionError(
                    f"condition width {cond.data.shape[1]} does not match "
                    f"cond_dim={self.cond_dim}")
            cond_t = transpose(cond)
            keys = matmul(self.attn_wk.value, cond_t)
            values = matmul(self.attn_wv.value, cond_t)
            queries = matmul(self.attn_wq.value, feats)
            scores = matmul(transpose(queries), keys) * (1.0 / np.sqrt(self.width))
            attn = softmax_rows(scores)
            attended = matmul(values, transpose(attn))
            feats = feats + matmul(self.attn_wo.value, attended)
        x = reshape(feats, (self.width, h, w_img))
        x = gelu(conv2d(x, self.conv3_w.value, self.conv3_b.value))
        return conv2d(x, self.conv4_w.value, self.conv4_b.value)


def checkpoint_bytes(d: Denoiser) -> bytes:
    params = d.parameters()
    w = container.Writer(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    w.u32(d.in_channels, d.width, d.cond_dim,
          sum(p.value.data.size for p in params))
    for p in params:
        w.array(p.value.data)
    return w.getvalue()


def save_checkpoint(d: Denoiser, path) -> None:
    Path(path).write_bytes(checkpoint_bytes(d))


def load_checkpoint(path) -> Denoiser:
    rd = container.Reader(Path(path).read_bytes(), CHECKPOINT_MAGIC,
                          CHECKPOINT_VERSION, "checkpoint")
    in_channels, width, cond_dim, total = (
        rd.u32(what) for what in ("in_channels", "width", "cond_dim", "count"))
    _check_config(in_channels, width, cond_dim, MalformedHeaderError)
    shapes = _param_shapes(in_channels, width, cond_dim)
    expected = sum(math.prod(s) for s in shapes.values())
    if total != expected:
        raise MalformedHeaderError(
            f"checkpoint declares {total} values, config needs {expected}")
    # Read the payload before building the network, so a corrupt header
    # cannot make it allocate for values the file does not hold.
    arrays = [rd.array(shape, name) for name, shape in shapes.items()]
    rd.finish()
    d = Denoiser(in_channels=in_channels, width=width, cond_dim=cond_dim, seed=0)
    for p, arr in zip(d.parameters(), arrays):
        p.value.data = arr
    return d


def _image_tensors(d: Denoiser, images: Sequence[ImageSample]) -> list[Tensor]:
    """The images as (C, H, W) tensors; refuses any image whose channel count
    is not the denoiser's, before a step runs."""
    for i, img in enumerate(images):
        if img.channels != d.in_channels:
            raise DimensionError(
                f"image {i} has {img.channels} channels, the denoiser takes "
                f"in_channels={d.in_channels}")
    return [img.to_tensor() for img in images]


def _noise_loss(d: Denoiser, x0: Tensor, t: int, eps: Tensor,
                cond: Tensor | None, sched: NoiseSchedule) -> Tensor:
    """Mean squared error between ``eps`` and the denoiser's prediction for
    ``x0`` noised to ``t`` with it."""
    diff = eps - d.predict_noise(q_sample(x0, t, eps, sched), cond)
    return mean_all(diff * diff)


def _noise_step(d: Denoiser, x0: Tensor, t: int, eps: Tensor,
                cond: Tensor | None, sched: NoiseSchedule,
                params: list[Parameter], state: AdamState, lr: float) -> float:
    """One Adam update of ``params`` on ``_noise_loss``; returns the loss."""
    loss = _noise_loss(d, x0, t, eps, cond, sched)
    zero_grads(params)
    loss.backward()
    adam_step(params, state, lr)
    return loss.item()


def train_naive(d: Denoiser, images: Sequence[ImageSample],
                prompts: Sequence[str], sched: NoiseSchedule, steps: int,
                seed: int, lr: float = 1e-3,
                vocab_seed: int = DEFAULT_VOCAB_SEED) -> list[float]:
    """Fine-tune every denoiser parameter on noise prediction.

    Each step draws (image, t ~ uniform{1..T}, unit-normal noise) from the
    seeded generator and minimizes the per-element squared error between the
    true and predicted noise under the image's text-only condition. Returns
    the per-step loss trace; the denoiser is updated in place.
    """
    if steps < 1:
        raise ConfigError(f"steps must be at least 1, got {steps}")
    if not images:
        raise ConfigError("training requires a non-empty image set")
    if d.frozen:
        raise ContractError("cannot run naive training on a frozen denoiser")
    tensors = _image_tensors(d, images)
    # Image i trains under prompt i, cycling; prompts past the last image
    # are never used.
    prompts = list(prompts)[:len(images)] or ["an image *"]
    conds = {p: assemble_condition(encode_prompt(p, "", vocab_seed, d.cond_dim),
                                   None)
             for p in dict.fromkeys(prompts)}
    rng = seeding.rng(seed)
    params = d.parameters()
    state = AdamState()
    trace: list[float] = []
    for _ in range(steps):
        idx = int(rng.integers(len(tensors)))
        t = int(rng.integers(1, sched.timesteps + 1))
        eps = Tensor(rng.standard_normal(tensors[idx].data.shape))
        trace.append(_noise_step(d, tensors[idx], t, eps,
                                 conds[prompts[idx % len(prompts)]], sched,
                                 params, state, lr))
    return trace


@dataclass(frozen=True)
class StepRecord:
    """What ``train_ispb`` hands its ``on_step`` hook after an update:
    the 1-based step, the timestep, the image's index in the collection
    and the step's loss (the value appended to the trace)."""

    step: int
    t: int
    image: int
    loss: float


# An encoder builder returns the parameters a variant trains and a closure
# that encodes the entry's style matrix. The closures look the encoder
# functions up by module-global name on every call, so wrappers installed on
# this module's names (such as a profiler's spans) see each call.
EncoderBuilder = Callable[[StyleBankEntry, int],
                          tuple[list[Parameter], Callable[[], Tensor]]]


def _ssam_encoder(entry: StyleBankEntry, seed: int):
    return (entry.trainable_params(),
            lambda: ssam_forward(entry.i_m.value, entry.ssam))


def _adaattn_encoder(entry: StyleBankEntry, seed: int):
    # SSAM's statistical core; the entry's spatial weights are left untouched.
    s = entry.ssam
    return ([entry.i_m, s.w_q, s.w_k, s.w_v],
            lambda: adaattn_forward(entry.i_m.value, s.w_q, s.w_k, s.w_v))


def _sanet_encoder(entry: StyleBankEntry, seed: int):
    # The residual baseline's output projection has no slot in the bank
    # format, so it is drawn from the seed and lives only for the caller.
    s = entry.ssam
    w_o = init_output_proj(entry.channels, seeding.rng_for(seed, "sanet-output-proj"))
    return ([entry.i_m, s.w_q, s.w_k, s.w_v, w_o],
            lambda: sanet_forward(entry.i_m.value, s.w_q, s.w_k, s.w_v, w_o))


ENCODERS: dict[str, EncoderBuilder] = {
    "ssam": _ssam_encoder,
    "adaattn": _adaattn_encoder,
    "sanet": _sanet_encoder,
}


def encoder_builder(variant: str) -> EncoderBuilder:
    """The registered builder for an attention-encoder variant name."""
    try:
        return ENCODERS[variant]
    except KeyError:
        raise ConfigError(f"unknown attention variant: {variant!r}") from None


def train_ispb(d: Denoiser, entry: StyleBankEntry,
               style_images: Sequence[ImageSample], sched: NoiseSchedule,
               steps: int, seed: int, lr: float = 1e-3,
               vocab_seed: int = DEFAULT_VOCAB_SEED,
               variant: str = "ssam",
               on_step: Callable[[StepRecord], bool] | None = None
               ) -> list[float]:
    """Train one bank entry against a frozen denoiser.

    Gradients flow only into the parameters the encoder variant trains (the
    entry's style matrix and encoder weights), through condition assembly
    and the denoiser's cross-attention. Returns the per-step loss trace; the
    entry is updated in place.

    ``on_step``, when given, is called with a ``StepRecord`` after each
    update; training stops after the update for which it returns ``True``.
    The draws are sequential, so a run stopped at step k returns the first k
    losses of an unstopped run and leaves the entry as a k-step run does.

    Images are visited in seeded shuffled epochs and timesteps are drawn as
    seeded per-block permutations of 1..T (uniform coverage): the per-step
    loss varies strongly with t and across images, and balanced blocks keep
    moving averages of the trace comparable across training stages.
    """
    if steps < 1:
        raise ConfigError(f"steps must be at least 1, got {steps}")
    if not d.frozen:
        raise ContractError("bank training requires a frozen denoiser")
    if not style_images:
        raise ConfigError("training requires a non-empty style collection")
    params, encode = encoder_builder(variant)(entry, seed)
    seq = encode_prompt(entry.template, entry.artist, vocab_seed, entry.channels)
    tensors = _image_tensors(d, style_images)
    rng = seeding.rng(seed)
    state = AdamState()
    trace: list[float] = []
    t_block: list[int] = []
    img_epoch: list[int] = []
    for step in range(1, steps + 1):
        if not img_epoch:
            img_epoch = [int(v) for v in rng.permutation(len(tensors))]
        idx = img_epoch.pop()
        if not t_block:
            t_block = [int(v) for v in
                       rng.permutation(np.arange(1, sched.timesteps + 1))]
        t = t_block.pop()
        eps = Tensor(rng.standard_normal(tensors[idx].data.shape))
        cond = assemble_condition(seq, encode())
        loss = _noise_step(d, tensors[idx], t, eps, cond, sched, params,
                           state, lr)
        trace.append(loss)
        if on_step is not None and on_step(StepRecord(step, t, idx, loss)):
            break
    return trace


def ispb_eval_loss(d: Denoiser, entry: StyleBankEntry,
                   style_images: Sequence[ImageSample], sched: NoiseSchedule,
                   seed: int, vocab_seed: int = DEFAULT_VOCAB_SEED,
                   variant: str = "ssam") -> float:
    """Noise-prediction loss of an entry on a fixed probe set (no training).

    Averages ``PROBE_DRAWS`` draws, deterministic given the seed; timesteps
    cycle 1..T so the estimate is balanced over the schedule. Used as the
    pre-training reference when measuring how fast an encoder variant
    converges; ``train_ispb`` with the same seed starts from the same encoder.
    """
    if not style_images:
        raise ConfigError("evaluation requires a non-empty style collection")
    _, encode = encoder_builder(variant)(entry, seed)
    seq = encode_prompt(entry.template, entry.artist, vocab_seed, entry.channels)
    tensors = _image_tensors(d, style_images)
    rng = seeding.rng_for(seed, "ispb-probe")
    cond = assemble_condition(seq, encode().detach())
    total = 0.0
    for draw in range(PROBE_DRAWS):
        idx = draw % len(tensors)
        t = (draw % sched.timesteps) + 1
        eps = Tensor(rng.standard_normal(tensors[idx].data.shape))
        total += _noise_loss(d, tensors[idx], t, eps, cond, sched).item()
    return total / PROBE_DRAWS


def sample(d, sched: NoiseSchedule, cond: Tensor | None,
           init: LatentState) -> ImageSample:
    """Run DDIM (eta = 0, no noise drawn) from the start state ``init`` back
    to step zero; the output is clamped to [0, 1]."""
    _check_t(init.t, sched)
    z = init.z.data.copy()
    for t in range(init.t, 0, -1):
        eps_hat = d.predict_noise(LatentState(Tensor(z), t), cond).data
        ab_t = sched.alpha_bar[t]
        ab_prev = sched.alpha_bar[t - 1]
        x0 = (z - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)
        z = np.sqrt(ab_prev) * x0 + np.sqrt(1.0 - ab_prev) * eps_hat
    return ImageSample.from_tensor(Tensor(np.clip(z, 0.0, 1.0)))
