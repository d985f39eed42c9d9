"""Self-attention encoders that map a trainable style matrix to pseudo-token
embeddings; ``ENCODERS`` names the variants and ``encoder`` builds one.

Both forwards share ``_attention_map``, the row-softmax map of the query/key
projections. ``ssam_forward`` reweights it spatially, then ``_statistical``
scales and shifts the channel-normalized input by the values' mean and std
under it; the statistical baseline ``adaattn`` is SSAM with its spatial
weights at one. ``sanet_forward`` (the residual baseline) adds attended
values back onto the style matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import seeding
from .errors import ConfigError, DimensionError
from .tensor import (EPS, Parameter, Tensor, channel_norm, clamp_min, matmul,
                     mul, softmax_rows, sqrt, transpose)


@dataclass
class SsamParams:
    """Learnable weights of one spatial-statistical attention encoder.

    ``w_q``/``w_k``/``w_v`` are C x C position-wise (1x1 convolution)
    projections, ``w_col`` is N x 1, ``w_row`` is 1 x N and ``alpha`` is an
    unconstrained scalar blending the two spatial weightings.
    """

    w_q: Parameter
    w_k: Parameter
    w_v: Parameter
    w_col: Parameter
    w_row: Parameter
    alpha: Parameter

    @property
    def channels(self) -> int:
        return self.w_q.value.data.shape[0]

    @property
    def positions(self) -> int:
        return self.w_col.value.data.shape[0]

    def all_params(self) -> list[Parameter]:
        return [self.w_q, self.w_k, self.w_v, self.w_col, self.w_row, self.alpha]


def init_ssam_params(channels: int, positions: int,
                     rng: np.random.Generator) -> SsamParams:
    """Fresh encoder weights.

    Projections start uniform in (-1/sqrt(C), 1/sqrt(C)); the spatial
    weightings start at all-ones with alpha = 0.5, which makes the encoder
    coincide with the plain statistical baseline until training moves them.
    """
    return SsamParams(w_q=_projection("w_q", channels, rng),
                      w_k=_projection("w_k", channels, rng),
                      w_v=_projection("w_v", channels, rng),
                      **_unit_spatial(positions))


def _projection(name: str, channels: int,
                rng: np.random.Generator) -> Parameter:
    """A C x C projection drawn uniform in (-1/sqrt(C), 1/sqrt(C))."""
    bound = 1.0 / np.sqrt(channels)
    w = rng.uniform(-bound, bound, size=(channels, channels))
    return Parameter(name, Tensor(w))


def _unit_spatial(positions: int) -> dict[str, Parameter]:
    """All-ones ``w_col`` and ``w_row`` with ``alpha`` = 0.5."""
    return {"w_col": Parameter("w_col", Tensor(np.ones((positions, 1)))),
            "w_row": Parameter("w_row", Tensor(np.ones((1, positions)))),
            "alpha": Parameter("alpha", Tensor(np.asarray(0.5)))}


def init_output_proj(channels: int, rng: np.random.Generator) -> Parameter:
    """Extra C x C output projection ``w_o`` used by the residual (SANet)
    baseline."""
    return _projection("w_o", channels, rng)


def check_style_matrix(i_m: Tensor, channels: int, positions: int) -> None:
    """Refuse a style matrix that is not 2-d with ``channels`` rows and
    ``positions`` columns."""
    shape = i_m.data.shape
    if shape != (channels, positions):
        raise DimensionError(f"style matrix shape {shape} does not match "
                             f"encoder dims ({channels}, {positions})")


def _attention_map(src: Tensor, w_q: Parameter, w_k: Parameter) -> Tensor:
    """The N x N row-softmax map of ``src``'s query/key projections."""
    return softmax_rows(matmul(transpose(matmul(w_q.value, src)),
                               matmul(w_k.value, src)))


def _statistical(i_m: Tensor, w_v: Parameter, weights: Tensor) -> Tensor:
    """Scale and shift ``channel_norm(i_m)`` by the mean and std of the
    values ``w_v i_m`` under the rows of ``weights``; the variance is clamped
    at zero and shifted by ``EPS``, so unnormalized rows stay real."""
    v = matmul(w_v.value, i_m)
    weights_t = transpose(weights)
    mean = matmul(v, weights_t)
    variance = clamp_min(matmul(mul(v, v), weights_t) - mul(mean, mean), 0.0)
    return mul(sqrt(variance + EPS), channel_norm(i_m)) + mean


def ssam_forward(i_m: Tensor, p: SsamParams) -> Tensor:
    """Encode a C x N style matrix into a C x N embedding block.

    Pipeline: project to query/key/value, form the N x N row-softmax
    attention map, scale its rows by ``w_col`` and its columns by ``w_row``,
    blend with ``alpha``, then shift/scale the channel-normalized input by
    the attention-weighted mean/std.
    """
    check_style_matrix(i_m, p.channels, p.positions)
    attn = _attention_map(i_m, p.w_q, p.w_k)
    # Same as alpha*(A*w_col) + (1-alpha)*(A*w_row), but exactly A at
    # all-ones weights for any alpha (the reduction to the baseline).
    weighted = mul(attn, 1.0 + p.alpha.value * (p.w_col.value - 1.0)
                   + (1.0 - p.alpha.value) * (p.w_row.value - 1.0))
    return _statistical(i_m, p.w_v, weighted)


def sanet_forward(i_m: Tensor, p: SsamParams, w_o: Parameter) -> Tensor:
    """Residual baseline: attention over the normalized input under ``p``'s
    projections, then ``w_o``, added back onto the raw style matrix."""
    check_style_matrix(i_m, p.channels, p.positions)
    attn = _attention_map(channel_norm(i_m), p.w_q, p.w_k)
    v = matmul(p.w_v.value, i_m)
    return i_m + matmul(w_o.value, matmul(v, transpose(attn)))


ENCODERS = ("ssam", "adaattn", "sanet")
# The encoders whose weights a bank entry holds: ``sanet``'s ``w_o`` has no
# slot in the bank format, so it trains only in the convergence benchmark.
BANK_ENCODERS = ("ssam", "adaattn")


def encoder(variant: str, i_m: Parameter, params: SsamParams, seed: int
            ) -> tuple[list[Parameter], Callable[[], Tensor]]:
    """The parameters a ``variant`` encoder trains and a closure that
    encodes ``i_m`` with the projections in ``params``.

    ``adaattn`` holds spatial weights of its own at one, never those in
    ``params``. ``sanet``'s output projection ``w_o`` has no slot in the
    bank format, so it is drawn from ``seed``. The closures look the
    forwards up by module-global name, so wrappers installed on these names
    (such as a profiler's spans) see each call.
    """
    p = params
    if variant == "ssam":
        return [i_m] + p.all_params(), lambda: ssam_forward(i_m.value, p)
    if variant == "adaattn":
        unit = replace(p, **_unit_spatial(p.positions))
        for w in (unit.w_col, unit.w_row, unit.alpha):
            w.value.requires_grad = False  # constants, off the tape
        return [i_m, p.w_q, p.w_k, p.w_v], lambda: ssam_forward(i_m.value, unit)
    if variant == "sanet":
        w_o = init_output_proj(p.channels, seeding.rng_for(seed, "sanet-output-proj"))
        return ([i_m, p.w_q, p.w_k, p.w_v, w_o],
                lambda: sanet_forward(i_m.value, p, w_o))
    raise ConfigError(f"unknown attention variant: {variant!r}")
