"""Independent reference implementations used to check the library.

Everything here is written directly against the defining formulas with
plain numpy (no autodiff, none of the library's op helpers), so a test that
compares library output against these functions is a genuine dual-route
check. The one exception, ``grad_check``, runs the library's tape once and
compares its gradients against central differences of the forward pass.
"""

import math
from typing import Callable, Sequence

import numpy as np

from artbank.errors import NumericError
from artbank.optim import zero_grads
from artbank.tensor import Parameter, Tensor


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def softmax_rows_ref(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i] - x[i].max()
        e = np.exp(row)
        out[i] = e / e.sum()
    return out


def channel_norm_ref(x: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    out = np.empty_like(x)
    for c in range(x.shape[0]):
        mu = x[c].mean()
        var = ((x[c] - mu) ** 2).mean()
        out[c] = (x[c] - mu) / np.sqrt(var + eps)
    return out


def ssam_ref(i_m, w_q, w_k, w_v, w_col, w_row, alpha, eps=1e-8):
    """Step-by-step evaluation of the spatial-statistical encoder."""
    q = w_q @ i_m
    k = w_k @ i_m
    v = w_v @ i_m
    a = softmax_rows_ref(q.T @ k)                       # N x N
    a_col = a * w_col                                   # scale row i by w_col[i]
    a_row = a * w_row                                   # scale col j by w_row[j]
    a_hat = alpha * a_col + (1.0 - alpha) * a_row
    m_hat = v @ a_hat.T                                 # C x N
    second = (v * v) @ a_hat.T
    s_hat = np.sqrt(np.maximum(second - m_hat * m_hat, 0.0) + eps)
    return s_hat * channel_norm_ref(i_m, eps) + m_hat


def adaattn_ref(i_m, w_q, w_k, w_v, eps=1e-8):
    q = w_q @ i_m
    k = w_k @ i_m
    v = w_v @ i_m
    a = softmax_rows_ref(q.T @ k)
    m_hat = v @ a.T
    second = (v * v) @ a.T
    s_hat = np.sqrt(np.maximum(second - m_hat * m_hat, 0.0) + eps)
    return s_hat * channel_norm_ref(i_m, eps) + m_hat


def sanet_ref(i_m, w_q, w_k, w_v, w_o, eps=1e-8):
    normed = channel_norm_ref(i_m, eps)
    q = w_q @ normed
    k = w_k @ normed
    v = w_v @ i_m
    a = softmax_rows_ref(q.T @ k)
    return i_m + w_o @ (v @ a.T)


def random_ssam_instance(rng: np.random.Generator, c: int, n: int,
                         scale: float = 1.0):
    """A random parameter set at a given magnitude scale."""
    return {
        "i_m": scale * rng.normal(size=(c, n)),
        "w_q": scale * rng.normal(size=(c, c)),
        "w_k": scale * rng.normal(size=(c, c)),
        "w_v": scale * rng.normal(size=(c, c)),
        "w_col": scale * rng.normal(size=(n, 1)),
        "w_row": scale * rng.normal(size=(1, n)),
        "alpha": float(rng.normal()),
    }


def uniform_ssim_ref(a_val: float, b_val: float,
                     c1: float = 0.01 ** 2, c2: float = 0.03 ** 2) -> float:
    """Closed-form SSIM of two uniform images (all variances zero)."""
    lum = (2.0 * a_val * b_val + c1) / (a_val ** 2 + b_val ** 2 + c1)
    struct = c2 / c2
    return lum * struct


def im2col_ref(x: np.ndarray, kh: int, kw: int, pad: int):
    """Patch columns by one slice copy per kernel offset."""
    c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out_h = h + 2 * pad - kh + 1
    out_w = w + 2 * pad - kw + 1
    cols = np.empty((c, kh * kw, out_h * out_w), dtype=np.float64)
    k = 0
    for dy in range(kh):
        for dx in range(kw):
            cols[:, k, :] = x[:, dy:dy + out_h, dx:dx + out_w].reshape(c, -1)
            k += 1
    return cols.reshape(c * kh * kw, out_h * out_w), (out_h, out_w)


def pad_or_crop(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """A (C, H, W) array zero-padded by ``ph`` rows and ``pw`` columns on
    each side (``np.pad``), a negative margin cropping that many instead."""
    x = np.pad(x, ((0, 0), (max(ph, 0), max(ph, 0)), (max(pw, 0), max(pw, 0))))
    ch, cw = max(-ph, 0), max(-pw, 0)
    return x[:, ch:x.shape[1] - ch, cw:x.shape[2] - cw]


def conv_input_grad_ref(w: np.ndarray, g: np.ndarray, pad: int) -> np.ndarray:
    """The input gradient of a pad-``pad`` convolution with (C_out, C_in,
    kh, kw) kernels ``w`` at the output gradient ``g``, in gather form: ``g``
    padded or cropped by (kh - 1 - pad, kw - 1 - pad), its patch columns,
    and the kernels flipped in both spatial axes with their channel axes
    swapped, times those columns."""
    cout, cin, kh, kw = w.shape
    cols, (h, w_in) = im2col_ref(pad_or_crop(g, kh - 1 - pad, kw - 1 - pad),
                                 kh, kw, 0)
    flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return (flipped.reshape(cin, cout * kh * kw) @ cols).reshape(cin, h, w_in)


def col2im_ref(dcols: np.ndarray, shape, kh: int, kw: int, pad: int):
    """Column gradients summed onto the input by one strided add per kernel
    offset into a zero-padded grid, whose border is then dropped."""
    c, h, w = shape
    out_h = h + 2 * pad - kh + 1
    out_w = w + 2 * pad - kw + 1
    dcols = dcols.reshape(c, kh * kw, out_h, out_w)
    dxp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    k = 0
    for dy in range(kh):
        for dx in range(kw):
            dxp[:, dy:dy + out_h, dx:dx + out_w] += dcols[:, k]
            k += 1
    return dxp[:, pad:pad + h, pad:pad + w]


def adam_step_ref(params: Sequence[Parameter], state: dict, lr: float,
                  beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> None:
    """One Adam update, one parameter at a time, with the moments in
    ``state["m"]``/``state["v"]`` keyed by name and the step in
    ``state["t"]``."""
    state["t"] = state.get("t", 0) + 1
    bias1 = 1.0 - beta1 ** state["t"]
    bias2 = 1.0 - beta2 ** state["t"]
    for p in params:
        g = p.value.grad
        m = state.setdefault("m", {}).setdefault(p.name, np.zeros_like(p.value.data))
        v = state.setdefault("v", {}).setdefault(p.name, np.zeros_like(p.value.data))
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        m_hat = m / bias1
        v_hat = v / bias2
        p.value.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


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
