"""Adam updates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, MissingGradError
from .tensor import Parameter

Array = np.ndarray

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers over one parameter list, flat in its
    order; allocated by the first step."""

    step_count: int = 0
    m: Array | None = None
    v: Array | None = None


def check_lr(lr: float) -> None:
    """Refuse a learning rate that is not finite and positive."""
    if not (math.isfinite(lr) and lr > 0.0):
        raise ConfigError(f"lr must be finite and positive, got {lr}")


def adam_step(params: Sequence[Parameter], state: AdamState,
              lr: float = 1e-3) -> AdamState:
    """Apply one Adam update in place; deterministic given identical inputs.

    The update runs once over the gradients raveled and concatenated in
    ``params`` order, so ``state`` serves that list alone.
    """
    check_lr(lr)
    grads = []
    for p in params:
        g = p.value.grad
        if g is None:
            raise MissingGradError(f"parameter '{p.name}' has no gradient")
        if g.shape != p.value.data.shape:
            raise ContractError(f"parameter '{p.name}' has shape "
                                f"{p.value.data.shape} but its gradient {g.shape}")
        grads.append(g.ravel())
    g = np.concatenate(grads) if grads else np.zeros(0)
    if state.m is None:
        state.m = np.zeros_like(g)
        state.v = np.zeros_like(g)
    elif state.m.size != g.size:
        raise ContractError(f"the Adam state holds {state.m.size} values but the "
                            f"parameters have {g.size}")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m += (1.0 - ADAM_BETA1) * (g - m)
    v += (1.0 - ADAM_BETA2) * (g * g - v)
    update = lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    offset = 0
    for p in params:
        data = p.value.data
        data -= update[offset:offset + data.size].reshape(data.shape)
        offset += data.size
    return state


def zero_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.value.grad = None
