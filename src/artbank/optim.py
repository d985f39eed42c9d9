"""Adam updates and a central-difference gradient checker."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, MissingGradError, NumericError
from .tensor import Parameter, Tensor

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


def grad_check(f: Callable[[], Tensor], params: Sequence[Parameter],
               h: float = 1e-5) -> float:
    """Compare reverse-mode gradients of a scalar function against
    central differences.

    Returns the maximum over all parameter elements of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``. The function is
    re-evaluated at perturbed points, so it must be deterministic.
    """
    zero_grads(params)
    out = f()
    if out.data.size != 1:
        raise NumericError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = {
        p.name: (np.zeros_like(p.value.data) if p.value.grad is None
                 else p.value.grad.copy())
        for p in params
    }
    zero_grads(params)

    worst = 0.0
    for p in params:
        flat = p.value.data.reshape(-1)
        ana = analytic[p.name].reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]
            try:
                flat[idx] = saved + h
                f_plus = f().item()
                flat[idx] = saved - h
                f_minus = f().item()
            except NumericError as exc:
                raise NumericError(
                    f"grad check failed while perturbing '{p.name}': {exc}") from exc
            finally:
                flat[idx] = saved
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericError(
                    f"grad check: non-finite evaluation while perturbing '{p.name}'")
            numeric = (f_plus - f_minus) / (2.0 * h)
            rel = abs(ana[idx] - numeric) / max(1.0, abs(ana[idx]), abs(numeric))
            if rel > worst:
                worst = rel
    return worst
