"""Adam updates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, MissingGradError
from .tensor import Parameter

Array = np.ndarray

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers keyed by parameter name."""

    step_count: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)


def adam_step(params: Sequence[Parameter], state: AdamState,
              lr: float = 1e-3) -> AdamState:
    """Apply one Adam update in place; deterministic given identical inputs."""
    if not (math.isfinite(lr) and lr > 0.0):
        raise ConfigError(f"lr must be finite and positive, got {lr}")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    for p in params:
        g = p.value.grad
        if g is None:
            raise MissingGradError(f"parameter '{p.name}' has no gradient")
        m = state.m.setdefault(p.name, np.zeros_like(p.value.data))
        v = state.v.setdefault(p.name, np.zeros_like(p.value.data))
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        m_hat = m / bias1
        v_hat = v / bias2
        p.value.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


def zero_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.value.grad = None

