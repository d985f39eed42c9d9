"""Self-attention encoders that map a trainable style matrix to pseudo-token
embeddings.

``ssam_forward`` augments plain statistical self-attention with learnable
per-row/per-column weightings of the attention map and blends them with a
learnable scalar; the attention-weighted mean and standard deviation then
scale-and-shift the channel-normalized input. ``adaattn_forward`` and
``sanet_forward`` are the two baseline encoders used for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import (Parameter, Tensor, channel_norm, clamp_min, matmul, mul,
                     softmax_rows, sqrt, transpose)

DEFAULT_EPS = 1e-8


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


def _check_style_matrix(i_m: Tensor, channels: int, positions: int) -> None:
    if i_m.data.ndim != 2:
        raise DimensionError("style matrix must be 2-d (C x N)")
    if i_m.data.shape != (channels, positions):
        raise DimensionError(
            f"style matrix shape {i_m.data.shape} does not match "
            f"encoder dims ({channels}, {positions})")


def _attention_stats(v: Tensor, weights_t: Tensor,
                     eps: float) -> tuple[Tensor, Tensor]:
    """Attention-weighted mean and standard deviation of the value matrix.

    ``weights_t`` is the transposed attention map; the variance argument is
    clamped at zero and shifted by ``eps`` before the square root so the
    result stays real even when the weighting rows are not normalized.
    """
    attn_mean = matmul(v, weights_t)
    second_moment = matmul(mul(v, v), weights_t)
    variance = clamp_min(second_moment - mul(attn_mean, attn_mean), 0.0)
    attn_std = sqrt(variance + eps)
    return attn_mean, attn_std


def ssam_forward(i_m: Tensor, p: SsamParams, eps: float = DEFAULT_EPS) -> Tensor:
    """Encode a C x N style matrix into a C x N embedding block.

    Pipeline: project to query/key/value, form the N x N row-softmax
    attention map, scale its rows by ``w_col`` and its columns by ``w_row``,
    blend with ``alpha``, then shift/scale the channel-normalized input by
    the attention-weighted mean/std.
    """
    _check_style_matrix(i_m, p.channels, p.positions)
    q = matmul(p.w_q.value, i_m)
    k = matmul(p.w_k.value, i_m)
    v = matmul(p.w_v.value, i_m)
    attn = softmax_rows(matmul(transpose(q), k))
    # Same as alpha*(A*w_col) + (1-alpha)*(A*w_row), but exactly A at
    # all-ones weights for any alpha (the reduction to the baseline).
    weighted = mul(attn, 1.0 + p.alpha.value * (p.w_col.value - 1.0)
                   + (1.0 - p.alpha.value) * (p.w_row.value - 1.0))
    attn_mean, attn_std = _attention_stats(v, transpose(weighted), eps)
    return mul(attn_std, channel_norm(i_m, eps)) + attn_mean


def _check_channels(i_m: Tensor, channels: int) -> None:
    if i_m.data.ndim != 2:
        raise DimensionError("style matrix must be 2-d (C x N)")
    if i_m.data.shape[0] != channels:
        raise DimensionError(
            f"style matrix has {i_m.data.shape[0]} channels, encoder expects "
            f"{channels}")


def adaattn_forward(i_m: Tensor, w_q: Parameter, w_k: Parameter,
                    w_v: Parameter, eps: float = DEFAULT_EPS) -> Tensor:
    """Statistical baseline: like ``ssam_forward`` with the raw attention
    map (no spatial weighting, no blend)."""
    _check_channels(i_m, w_q.value.data.shape[0])
    q = matmul(w_q.value, i_m)
    k = matmul(w_k.value, i_m)
    v = matmul(w_v.value, i_m)
    attn = softmax_rows(matmul(transpose(q), k))
    attn_mean, attn_std = _attention_stats(v, transpose(attn), eps)
    return mul(attn_std, channel_norm(i_m, eps)) + attn_mean


def sanet_forward(i_m: Tensor, w_q: Parameter, w_k: Parameter,
                  w_v: Parameter, w_o: Parameter,
                  eps: float = DEFAULT_EPS) -> Tensor:
    """Residual baseline: attention over the normalized input, projected and
    added back onto the raw style matrix."""
    _check_channels(i_m, w_q.value.data.shape[0])
    normed = channel_norm(i_m, eps)
    q = matmul(w_q.value, normed)
    k = matmul(w_k.value, normed)
    v = matmul(w_v.value, i_m)
    attn = softmax_rows(matmul(transpose(q), k))
    return i_m + matmul(w_o.value, matmul(v, transpose(attn)))
