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

from .bank import StyleBank, entry_condition
from .data_io import ImageSample
from .diffusion import (NoiseSchedule, check_image_size, check_schedule,
                        q_sample, sample)
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
                      cfg: InversionConfig) -> tuple[Tensor, int]:
    """Predict the noise the denoiser sees in the noised content image under
    the empty condition (prompt text such as an artist token can name a
    style the backbone learned); return it with the start timestep."""
    if not getattr(d, "frozen", True):
        raise ContractError("inversion requires a frozen denoiser")
    check_schedule(d, sched)
    t0 = start_timestep(cfg, sched)
    probe = probe_noise(cfg, (content.channels, content.height, content.width))
    state = q_sample(content.to_tensor(), t0, Tensor(probe), sched)
    return d.predict_noise(state, None).detach(), t0


def stylize(d, sched: NoiseSchedule, bank: StyleBank, style_id: str,
            content: ImageSample, cfg: InversionConfig,
            use_inversion: bool = True) -> ImageSample:
    """Render the content image in a bank entry's style.

    Pipeline: predict the content's noise under the empty condition (or
    keep the random probe when ``use_inversion`` is off), rebuild the start
    state from it, assemble the entry's full text+style condition, and run
    deterministic sampling back to step zero. A pure function of (denoiser,
    entry, content, cfg).

    Every bank entry is encoded by ``entry_condition``'s ``ssam`` builder,
    SSAM over its own weights. The statistical baseline trains only the
    style matrix and projections, so an entry it trained from scratch keeps
    its spatial weights at one, where SSAM is that baseline bit for bit.
    """
    entry = bank.get(style_id)
    if entry.channels != d.cond_dim:
        raise ConfigError(f"bank entry width {entry.channels} does not match "
                          f"checkpoint condition width {d.cond_dim}")
    check_image_size(d, content, "the content image")
    x0 = content.to_tensor()
    eps = (stochastic_invert(d, sched, content, cfg)[0] if use_inversion
           else Tensor(probe_noise(cfg, x0.data.shape)))
    start = q_sample(x0, start_timestep(cfg, sched), eps, sched)
    return sample(d, sched, entry_condition(entry)[1](), start)
