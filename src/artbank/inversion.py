"""Content-preserving initial noise for stylization.

Instead of sampling from fresh Gaussian noise, the content image is noised
to an intermediate timestep, the frozen denoiser predicts the noise it sees
there (under the empty condition, the same for every entry, so the estimate
describes the content and not a style the prompt text names), and that
prediction replaces the random draw when the start state is rebuilt.
Deterministic sampling from the rebuilt state then keeps the content's
structure while the style condition repaints it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import ssam_forward
from .bank import (DEFAULT_VOCAB_SEED, StyleBank, assemble_condition,
                   encode_prompt)
from .data_io import ImageSample
from .diffusion import NoiseSchedule, q_sample, sample
from .errors import ConfigError, ContractError
from .seeding import rng_for
from .tensor import Tensor


@dataclass(frozen=True)
class InversionConfig:
    """Fraction of the schedule applied to the content plus the probe seed."""

    strength: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.strength <= 1.0):
            raise ConfigError(f"strength must lie in (0, 1]: {self.strength}")


def start_timestep(cfg: InversionConfig, sched: NoiseSchedule) -> int:
    return min(max(1, round(cfg.strength * sched.timesteps)), sched.timesteps)


def probe_noise(cfg: InversionConfig, shape: tuple[int, ...]) -> np.ndarray:
    """The deterministic unit-normal probe drawn from the config seed."""
    return rng_for(cfg.seed, "inversion-probe").standard_normal(shape)


def stochastic_invert(d, sched: NoiseSchedule, content: ImageSample,
                      cfg: InversionConfig,
                      cond: Tensor | None) -> tuple[Tensor, int]:
    """Predict the noise the denoiser sees in the noised content image.

    Returns the prediction and the start timestep. ``cond`` should carry no
    style: ``stylize`` passes the empty condition (``None``), since prompt
    text such as an artist token can name a style the backbone learned.
    """
    if not getattr(d, "frozen", True):
        raise ContractError("inversion requires a frozen denoiser")
    t0 = start_timestep(cfg, sched)
    probe = probe_noise(cfg, (content.channels, content.height, content.width))
    state = q_sample(content.to_tensor(), t0, Tensor(probe), sched)
    return d.predict_noise(state, cond).detach(), t0


def stylize(d, sched: NoiseSchedule, bank: StyleBank, style_id: str,
            content: ImageSample, cfg: InversionConfig,
            vocab_seed: int = DEFAULT_VOCAB_SEED,
            use_inversion: bool = True) -> ImageSample:
    """Render the content image in a bank entry's style.

    Pipeline: predict the content's noise under the empty condition (or
    keep the random probe when ``use_inversion`` is off), rebuild the start
    state from it, assemble the entry's full text+style condition, and run
    deterministic sampling back to step zero. A pure function of (denoiser,
    entry, content, cfg).

    Every bank entry is encoded with SSAM: an entry trained with the
    ``adaattn`` variant keeps its all-ones spatial weights, under which SSAM
    reduces exactly to that baseline.
    """
    entry = bank.get(style_id)
    seq = encode_prompt(entry.template, entry.artist, vocab_seed, entry.channels)
    x0 = content.to_tensor()
    eps = (stochastic_invert(d, sched, content, cfg, None)[0] if use_inversion
           else Tensor(probe_noise(cfg, x0.data.shape)))
    start = q_sample(x0, start_timestep(cfg, sched), eps, sched)
    cond = assemble_condition(seq, ssam_forward(entry.i_m.value, entry.ssam))
    return sample(d, sched, cond, start)
