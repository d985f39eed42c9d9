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
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import container, seeding
from .bank import (StyleBankEntry, assemble_condition, encode_prompt,
                   entry_condition)
from .data_io import ImageSample
from .errors import (ArtBankError, ConfigError, ContractError,
                     DimensionError, MalformedHeaderError)
from .optim import AdamState, adam_step, check_lr, zero_grads
from .tensor import (Parameter, Tensor, check_array_size, conv2d, gelu,
                     matmul, mean_all, reshape, softmax_cols, transpose)

CHECKPOINT_MAGIC = b"ABDN"
CHECKPOINT_VERSION = 2

# The beta range, linear over steps 1..T.
BETA_START = 1e-4
BETA_END = 0.02
PROBE_DRAWS = 200  # forward draws of a probe (``probe_losses``)
# A denoiser's largest step count: a stylization makes up to one denoiser
# call per step, so a checkpoint header may ask for at most 10x DDPM's 1,000.
MAX_TIMESTEPS = 10_000


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal fractions indexed 1..T; index 0 is the clean limit."""

    timesteps: int
    alpha_bar: np.ndarray


def check_timesteps(timesteps: int, error: type[ArtBankError] = ConfigError) -> None:
    """The one step-count rule of schedules and denoisers."""
    if not 1 <= timesteps <= MAX_TIMESTEPS:
        raise error(f"timesteps must lie in [1, {MAX_TIMESTEPS}], got {timesteps}")


def make_schedule(timesteps: int = 100) -> NoiseSchedule:
    check_timesteps(timesteps)
    beta = np.zeros(timesteps + 1)
    beta[1:] = np.linspace(BETA_START, BETA_END, timesteps)
    return NoiseSchedule(timesteps=timesteps, alpha_bar=np.cumprod(1.0 - beta))


@dataclass
class LatentState:
    """A noisy image tensor together with its diffusion timestep."""

    z: Tensor
    t: int


def _check_t(t: int, timesteps: int) -> None:
    if not (1 <= t <= timesteps):
        raise ConfigError(f"timestep {t} outside [1, {timesteps}]")


def q_sample(z0: Tensor, t: int, eps: Tensor, sched: NoiseSchedule) -> LatentState:
    """Forward-noise a clean tensor to timestep t."""
    _check_t(t, sched.timesteps)
    if eps.data.shape != z0.data.shape:
        raise DimensionError("noise must match the clean tensor's shape")
    ab = sched.alpha_bar[t]
    z_t = z0 * float(np.sqrt(ab)) + eps * float(np.sqrt(1.0 - ab))
    return LatentState(z=z_t, t=t)


def check_denoiser(width: int, cond_dim: int, timesteps: int,
                   error: type[ArtBankError] = ConfigError) -> None:
    """A denoiser's rule for the settings that need no image: its weights
    are sized for 3 image channels, the most an image has."""
    if width < 2 or cond_dim < 1:
        raise error("width must be >= 2 and cond_dim >= 1")
    check_array_size(max(map(math.prod, _param_shapes(3, width, cond_dim).values())),
                     f"a denoiser with width={width} and cond_dim={cond_dim}", error)
    check_timesteps(timesteps, error)


def _check_config(in_channels: int, width: int, cond_dim: int, timesteps: int,
                  error: type[ArtBankError] = ConfigError) -> None:
    if in_channels not in (1, 3):
        raise error("in_channels must be 1 or 3")
    check_denoiser(width, cond_dim, timesteps, error)


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


class Trunk(NamedTuple):
    """``Denoiser.trunk``'s output for one latent: its (width, H*W) features
    after conv2, their (width, H*W) queries, one column per position, and
    its (H, W)."""

    feats: Tensor
    queries: Tensor
    size: tuple[int, int]


class Denoiser:
    """Conditional noise-prediction network.

    The output head starts at zero so an untrained model predicts zero
    noise; cross-attention uses image positions as queries and condition
    rows (L x cond_dim) as keys/values, which is the path that carries
    gradients into the style block during bank training. The empty
    condition, ``None``, skips it. ``predict_noise`` is
    ``head(trunk(state), cond)``: the trunk reads only the latent, so a
    caller that scores several conditions on one latent computes it once.
    """

    def __init__(self, in_channels: int = 3, width: int = 32,
                 cond_dim: int = 64, seed: int = 0, timesteps: int = 100):
        _check_config(in_channels, width, cond_dim, timesteps)
        self.in_channels = in_channels
        self.width = width
        self.cond_dim = cond_dim
        self.timesteps = timesteps  # the step count of its training schedule
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
        self._freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
        self._temb: dict[int, Tensor] = {}  # each timestep's feature map
        self._attn_scale = Tensor(1.0 / np.sqrt(width))

    def parameters(self) -> list[Parameter]:
        return [getattr(self, name) for name in self._param_names]

    @property
    def frozen(self) -> bool:
        return all(not p.value.requires_grad for p in self.parameters())

    def freeze(self) -> None:
        for p in self.parameters():
            p.value.requires_grad = False
            p.value.grad = None

    def _time_features(self, t: int) -> Tensor:
        """The (width, 1, 1) sinusoidal features of timestep ``t``."""
        temb = self._temb.get(t)
        if temb is None:
            ang = float(t) * self._freqs
            emb = np.concatenate([np.sin(ang), np.cos(ang), np.zeros(self.width % 2)])
            temb = self._temb[t] = Tensor(emb.reshape(self.width, 1, 1))
        return temb

    def trunk(self, state: LatentState) -> Trunk:
        """The part of ``predict_noise`` that does not read the condition:
        conv1 plus the time features, conv2, both GELUs and the queries
        ``attn_wq @ feats``, one column per position."""
        z = state.z
        if z.data.ndim != 3 or z.data.shape[0] != self.in_channels:
            raise DimensionError(
                f"latent shape {z.data.shape} does not match in_channels="
                f"{self.in_channels}")
        _check_t(state.t, self.timesteps)
        _, h, w_img = z.data.shape
        x = gelu(conv2d(z, self.conv1_w.value, self.conv1_b.value)
                 + self._time_features(state.t))
        x = gelu(conv2d(x, self.conv2_w.value, self.conv2_b.value))
        feats = reshape(x, (self.width, h * w_img))
        return Trunk(feats, matmul(self.attn_wq.value, feats), (h, w_img))

    def head(self, trunk: Trunk, cond: Tensor | None) -> Tensor:
        """The rest of ``predict_noise``: cross-attention from the trunk's
        queries to the condition's rows, then conv3, GELU and conv4. The
        (L, H*W) map is key-major: the scaled keys times the queries, each
        position's column normalized by ``softmax_cols``; values @ map attend."""
        feats = trunk.feats
        if cond is not None:
            if cond.data.ndim != 2 or cond.data.shape[1] != self.cond_dim:
                raise DimensionError(
                    f"condition of shape {cond.data.shape} is not (rows, "
                    f"cond_dim={self.cond_dim})")
            cond_t = transpose(cond)
            keys = transpose(matmul(self.attn_wk.value, cond_t)) * self._attn_scale
            values = matmul(self.attn_wv.value, cond_t)
            attn = softmax_cols(matmul(keys, trunk.queries))
            feats = feats + matmul(self.attn_wo.value, matmul(values, attn))
        x = reshape(feats, (self.width, *trunk.size))
        x = gelu(conv2d(x, self.conv3_w.value, self.conv3_b.value))
        return conv2d(x, self.conv4_w.value, self.conv4_b.value)

    def predict_noise(self, state: LatentState, cond: Tensor | None) -> Tensor:
        return self.head(self.trunk(state), cond)


def checkpoint_bytes(d: Denoiser) -> bytes:
    params = d.parameters()
    w = container.Writer(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    w.u32(d.in_channels, d.width, d.cond_dim, d.timesteps,
          sum(p.value.data.size for p in params))
    for p in params:
        w.array(p.value.data, p.name)
    return w.getvalue()


def save_checkpoint(d: Denoiser, path) -> None:
    Path(path).write_bytes(checkpoint_bytes(d))


def load_checkpoint(path) -> Denoiser:
    rd = container.Reader(Path(path).read_bytes(), CHECKPOINT_MAGIC,
                          CHECKPOINT_VERSION, "checkpoint")
    in_channels, width, cond_dim, timesteps, total = (rd.u32(what) for what in (
        "in_channels", "width", "cond_dim", "timesteps", "count"))
    _check_config(in_channels, width, cond_dim, timesteps, MalformedHeaderError)
    shapes = _param_shapes(in_channels, width, cond_dim)
    expected = sum(math.prod(s) for s in shapes.values())
    if total != expected:
        raise MalformedHeaderError(
            f"checkpoint declares {total} values, config needs {expected}")
    # Read the payload before building the network, so a corrupt header
    # cannot make it allocate for values the file does not hold.
    arrays = [rd.array(shape, name) for name, shape in shapes.items()]
    rd.finish()
    d = Denoiser(in_channels, width, cond_dim, seed=0, timesteps=timesteps)
    for p, arr in zip(d.parameters(), arrays):
        p.value.data = arr
    return d


def check_image_size(d: Denoiser, img: ImageSample, what: str) -> None:
    """Refuse an image whose channel count is not ``d``'s
    (``DimensionError``) or whose largest activation in ``d``, a conv's
    9 * C * H * W im2col columns, is over the array budget (``ConfigError``)."""
    if img.channels != d.in_channels:
        raise DimensionError(f"{what} has {img.channels} channels, the denoiser "
                             f"takes in_channels={d.in_channels}")
    check_array_size(9 * max(d.width, d.in_channels) * img.height * img.width,
                     f"{what} of {img.width}x{img.height} pixels at denoiser "
                     f"width={d.width}")


def check_images(d: Denoiser, images: Sequence[ImageSample]) -> None:
    """Refuse an empty image set or an image ``check_image_size`` refuses:
    the one image check of both trainers, the probe and the convergence
    benchmark, made before any draw."""
    if not images:
        raise ConfigError("the image set is empty")
    for i, img in enumerate(images):
        check_image_size(d, img, f"image {i}")


def check_schedule(d: Denoiser, sched: NoiseSchedule) -> None:
    """Refuse a schedule whose step count is not the one ``d`` was trained
    on: the one schedule check of both trainers, the probe, the sampler, the
    inversion and the convergence benchmark, made before any denoiser call."""
    if sched.timesteps != d.timesteps:
        raise ConfigError(f"a {sched.timesteps}-step schedule does not match "
                          f"the denoiser's {d.timesteps} timesteps")


def check_training(steps: int, lr: float) -> None:
    """Both trainers' rule for the settings that need no file."""
    if steps < 1:
        raise ConfigError(f"steps must be at least 1, got {steps}")
    check_array_size(steps, f"the loss trace of {steps} steps")
    check_lr(lr)


def _image_tensors(d: Denoiser, images: Sequence[ImageSample]) -> list[Tensor]:
    """The images as (C, H, W) tensors, once ``check_images`` passes them."""
    check_images(d, images)
    return [img.to_tensor() for img in images]


def _squared_error(eps: Tensor, pred: Tensor) -> Tensor:
    """Mean squared error between the true and the predicted noise."""
    diff = eps - pred
    return mean_all(diff * diff)


@dataclass(frozen=True)
class StepRecord:
    """What a trainer's ``on_step`` hook gets after an update: the 1-based
    step, the timestep, the image's index in the collection and the step's
    loss (the value appended to the trace)."""

    step: int
    t: int
    image: int
    loss: float


def _train(d: Denoiser, images: Sequence[ImageSample], sched: NoiseSchedule,
           steps: int, seed: int, lr: float, params: list[Parameter],
           draws: Callable[..., Iterator[tuple[int, int]]],
           condition: Callable[[int], Tensor | None],
           on_step: Callable[[StepRecord], bool] | None = None) -> list[float]:
    """Both trainers' step loop: from one seeded generator, ``draws`` gives
    each step's (image, t), then its noise, for one Adam update of ``params``;
    ``on_step`` as in ``train_ispb``. Returns the per-step loss trace."""
    check_schedule(d, sched)
    check_training(steps, lr)
    tensors = _image_tensors(d, images)
    rng = seeding.rng(seed)
    schedule = draws(rng, len(tensors), sched.timesteps)
    state = AdamState()
    trace: list[float] = []
    for step in range(1, steps + 1):
        idx, t = next(schedule)
        eps = Tensor(rng.standard_normal(tensors[idx].data.shape))
        loss = _squared_error(eps, d.predict_noise(
            q_sample(tensors[idx], t, eps, sched), condition(idx)))
        zero_grads(params)
        loss.backward()
        adam_step(params, state, lr)
        loss = loss.item()  # frees the step's tape before the next forward
        trace.append(loss)
        if on_step is not None and on_step(StepRecord(step, t, idx, loss)):
            break
    return trace


def _uniform_draws(rng: np.random.Generator, n_images: int, timesteps: int):
    while True:
        yield int(rng.integers(n_images)), int(rng.integers(1, timesteps + 1))


def _balanced_draws(rng: np.random.Generator, n_images: int, timesteps: int):
    """Images in shuffled epochs, timesteps in permuted blocks of 1..T."""
    img_epoch, t_block = [], []
    while True:
        if not img_epoch:
            img_epoch = [int(v) for v in rng.permutation(n_images)]
        idx = img_epoch.pop()
        if not t_block:
            t_block = [int(v) for v in rng.permutation(np.arange(1, timesteps + 1))]
        yield idx, t_block.pop()


def train_naive(d: Denoiser, images: Sequence[ImageSample],
                prompts: Sequence[str], sched: NoiseSchedule, steps: int,
                seed: int, lr: float = 1e-3) -> list[float]:
    """Fine-tune every denoiser parameter on noise prediction.

    Each step draws (image, t ~ uniform{1..T}, unit-normal noise) from the
    seeded generator and minimizes the per-element squared error between the
    true and predicted noise under the text-only condition of the image's
    prompt. Returns the per-step loss trace; the denoiser is updated in place.
    """
    if len(prompts) != len(images):
        raise ConfigError(f"training needs one prompt per image, got "
                          f"{len(prompts)} prompts for {len(images)} images")
    if d.frozen:
        raise ContractError("cannot run naive training on a frozen denoiser")
    conds = {p: assemble_condition(encode_prompt(p, "{artist}", d.cond_dim), None)
             for p in dict.fromkeys(prompts)}  # p is built: "{artist}" is literal
    return _train(d, images, sched, steps, seed, lr, d.parameters(),
                  _uniform_draws, lambda idx: conds[prompts[idx]])


def train_ispb(d: Denoiser, entry: StyleBankEntry,
               style_images: Sequence[ImageSample], sched: NoiseSchedule,
               steps: int, seed: int, lr: float = 1e-3,
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
    if not d.frozen:
        raise ContractError("bank training requires a frozen denoiser")
    params, condition = entry_condition(entry, variant, seed)
    return _train(d, style_images, sched, steps, seed, lr, params,
                  _balanced_draws, lambda idx: condition(), on_step)


def probe_losses(d: Denoiser, conds: Sequence[Tensor | None],
                 style_images: Sequence[ImageSample], sched: NoiseSchedule,
                 seed: int) -> list[float]:
    """Each condition's probe value: its noise-prediction losses on the
    ``PROBE_DRAWS`` draws of the seed's probe, summed in draw order, over
    their count.

    Draw k noises image k mod n to timestep (k mod T) + 1 with the k-th
    noise of the seed's probe generator, so timesteps cycle 1..T and the
    draws are balanced over the schedule. Each draw's trunk is computed
    once and its head once per condition, so several conditions cost one
    trunk per draw.
    """
    check_schedule(d, sched)
    tensors = _image_tensors(d, style_images)
    rng = seeding.rng_for(seed, "ispb-probe")
    totals = [0.0] * len(conds)
    for draw in range(PROBE_DRAWS):
        idx = draw % len(tensors)
        eps = Tensor(rng.standard_normal(tensors[idx].data.shape))
        trunk = d.trunk(q_sample(tensors[idx], draw % sched.timesteps + 1,
                                 eps, sched))
        for k, cond in enumerate(conds):
            totals[k] += _squared_error(eps, d.head(trunk, cond)).item()
    return [total / PROBE_DRAWS for total in totals]


def ispb_eval_loss(d: Denoiser, entry: StyleBankEntry,
                   style_images: Sequence[ImageSample], sched: NoiseSchedule,
                   seed: int, variant: str = "ssam") -> float:
    """Noise-prediction loss of an entry on a fixed probe set (no training).

    The one-condition case of ``probe_losses``: the mean over all
    ``PROBE_DRAWS`` draws, deterministic given the seed. Used as the
    pre-training reference when measuring how fast an encoder variant
    converges; ``train_ispb`` with the same seed starts from the same encoder.
    """
    cond = entry_condition(entry, variant, seed)[1]().detach()
    return probe_losses(d, [cond], style_images, sched, seed)[0]


def sample(d, sched: NoiseSchedule, cond: Tensor | None,
           init: LatentState) -> ImageSample:
    """Run DDIM (eta = 0, no noise drawn) from the start state ``init`` back
    to step zero; the output is clamped to [0, 1]."""
    check_schedule(d, sched)
    _check_t(init.t, sched.timesteps)
    z = init.z.data.copy()
    for t in range(init.t, 0, -1):
        eps_hat = d.predict_noise(LatentState(Tensor(z), t), cond).data
        ab_t = sched.alpha_bar[t]
        ab_prev = sched.alpha_bar[t - 1]
        x0 = (z - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)
        z = np.sqrt(ab_prev) * x0 + np.sqrt(1.0 - ab_prev) * eps_hat
    return ImageSample(np.clip(z, 0.0, 1.0).transpose(1, 2, 0))
