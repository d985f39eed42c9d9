"""Self-attention encoders that map a trainable style matrix to pseudo-token
embeddings.

All three share one core: ``_attention_map`` is the row-softmax map of the
query/key projections, and ``_statistical`` scales and shifts the
channel-normalized input by the value projection's mean and std under a map.
``ssam_forward`` reweights the map spatially first, ``adaattn_forward`` (the
statistical baseline) uses it raw, and ``sanet_forward`` (the residual
baseline) adds attended values back onto the style matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
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
    bound = 1.0 / np.sqrt(channels)

    def proj(name: str) -> Parameter:
        w = rng.uniform(-bound, bound, size=(channels, channels))
        return Parameter(name, Tensor(w))

    return SsamParams(
        w_q=proj("w_q"),
        w_k=proj("w_k"),
        w_v=proj("w_v"),
        w_col=Parameter("w_col", Tensor(np.ones((positions, 1)))),
        w_row=Parameter("w_row", Tensor(np.ones((1, positions)))),
        alpha=Parameter("alpha", Tensor(np.asarray(0.5))),
    )


def init_output_proj(channels: int, rng: np.random.Generator) -> Parameter:
    """Extra C x C output projection ``w_o`` used by the residual (SANet)
    baseline."""
    bound = 1.0 / np.sqrt(channels)
    return Parameter("w_o", Tensor(rng.uniform(-bound, bound,
                                               size=(channels, channels))))


def check_style_matrix(i_m: Tensor, channels: int,
                       positions: int | None = None) -> None:
    """Refuse a style matrix that is not 2-d with ``channels`` rows and, when
    ``positions`` is given, that many columns."""
    shape = i_m.data.shape
    if len(shape) != 2:
        raise DimensionError("style matrix must be 2-d (C x N)")
    if shape[0] != channels or positions not in (None, shape[1]):
        raise DimensionError(
            f"style matrix shape {shape} does not match encoder dims "
            f"({channels}, {'N' if positions is None else positions})")


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


def adaattn_forward(i_m: Tensor, w_q: Parameter, w_k: Parameter,
                    w_v: Parameter) -> Tensor:
    """Statistical baseline: like ``ssam_forward`` with the raw attention
    map (no spatial weighting, no blend)."""
    check_style_matrix(i_m, w_q.value.data.shape[0])
    return _statistical(i_m, w_v, _attention_map(i_m, w_q, w_k))


def sanet_forward(i_m: Tensor, w_q: Parameter, w_k: Parameter,
                  w_v: Parameter, w_o: Parameter) -> Tensor:
    """Residual baseline: attention over the normalized input, projected and
    added back onto the raw style matrix."""
    check_style_matrix(i_m, w_q.value.data.shape[0])
    attn = _attention_map(channel_norm(i_m), w_q, w_k)
    v = matmul(w_v.value, i_m)
    return i_m + matmul(w_o.value, matmul(v, transpose(attn)))
