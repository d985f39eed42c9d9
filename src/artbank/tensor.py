"""Dense float64 tensors with reverse-mode gradients on a recorded tape.

Every operation used by the attention encoders and the denoiser lives here:
elementwise arithmetic with numpy-style broadcasting, 2-d matrix product,
row softmax, channel (per-row) normalization, 3x3 convolution, GELU, and the
reductions needed to form scalar losses. Gradients are accumulated into
``.grad`` buffers by ``Tensor.backward()`` on a scalar output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, DimensionError, NumericError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
EPS = 1e-8  # the variance guard of every sqrt(var + EPS)


def _check_finite(data: Array, step: str) -> None:
    # Summing is a single fast pass; any NaN/Inf poisons the total.
    if data.size and not math.isfinite(float(data.sum())):
        raise NumericError(f"{step}: non-finite values")


class Tensor:
    """A float64 n-d array plus an optional gradient slot.

    Instances are immutable after construction except for the ``grad``
    buffer and in-place parameter updates performed by the optimizer.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.array(values, dtype=np.float64, order="C")
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar output")
        if not self.requires_grad:
            raise ContractError("backward() on a tensor outside the gradient tape")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; all routes through the module-level ops below.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _from_op(data: Array, parents: tuple[Tensor, ...],
             backward: Callable[[Array], None], step: str) -> Tensor:
    _check_finite(data, step)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g: Array) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the original shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _from_op(data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _from_op(data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g: Array) -> None:
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _from_op(data, (a, b), backward, "mul")


def neg(a: Tensor) -> Tensor:
    def backward(g: Array) -> None:
        _accum(a, -g)

    return _from_op(-a.data, (a,), backward, "neg")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-d tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul requires 2-d tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul inner extents differ: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data

    def backward(g: Array) -> None:
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _from_op(data, (a, b), backward, "matmul")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError("transpose requires a 2-d tensor")

    def backward(g: Array) -> None:
        _accum(a, g.T)

    return _from_op(np.ascontiguousarray(a.data.T), (a,), backward, "transpose")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g: Array) -> None:
        _accum(a, g.reshape(a.data.shape))

    return _from_op(data, (a,), backward, "reshape")


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 2-d tensors with equal column counts along the row axis."""
    if not parts:
        raise DimensionError("concat_rows requires at least one part")
    cols = parts[0].data.shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[1] != cols:
            raise DimensionError("concat_rows parts must be 2-d with equal width")
    data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backward(g: Array) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[lo:hi])

    return _from_op(data, tuple(parts), backward, "concat_rows")


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction for stability."""
    if a.data.ndim != 2:
        raise DimensionError("softmax_rows requires a 2-d tensor")
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = a.data - a.data.max(axis=1, keepdims=True)
        shifted = np.maximum(shifted, -745.0)  # exp underflows to 0 below this
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g: Array) -> None:
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, y * (g - dot))

    return _from_op(y, (a,), backward, "softmax_rows")


def channel_norm(a: Tensor) -> Tensor:
    """Normalize each row to mean 0 / variance 1 across its positions.

    Uses the population variance (divisor N) and the guard
    ``sqrt(var + EPS)``, so a single-position input maps to zeros.
    """
    if a.data.ndim != 2:
        raise DimensionError("channel_norm requires a 2-d tensor")
    if a.data.shape[1] < 1:
        raise DimensionError("channel_norm requires at least one position")
    mu = a.data.mean(axis=1, keepdims=True)
    centered = a.data - mu
    # A second pass removes the rounding residue of the first, which
    # 1/sqrt(var + EPS) would otherwise magnify on near-constant rows.
    centered -= centered.mean(axis=1, keepdims=True)
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + EPS)
    y = centered * inv

    def backward(g: Array) -> None:
        gm = g.mean(axis=1, keepdims=True)
        gy = (g * y).mean(axis=1, keepdims=True)
        _accum(a, (g - gm - y * gy) * inv)

    return _from_op(y, (a,), backward, "channel_norm")


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; the input must be non-negative."""
    if a.data.size and float(a.data.min()) < 0.0:
        raise NumericError("sqrt: negative input")
    y = np.sqrt(a.data)

    def backward(g: Array) -> None:
        _accum(a, g * (0.5 / y))

    return _from_op(y, (a,), backward, "sqrt")


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """Elementwise max(floor, x); subgradient 0 on the clamped side."""
    mask = a.data > floor
    data = np.maximum(a.data, floor)

    def backward(g: Array) -> None:
        _accum(a, g * mask)

    return _from_op(data, (a,), backward, "clamp_min")


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    y = x * cdf

    def backward(g: Array) -> None:
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        _accum(a, g * (cdf + x * pdf))

    return _from_op(y, (a,), backward, "gelu")


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def backward(g: Array) -> None:
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _from_op(data, (a,), backward, "sum_all")


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.sum() / n)

    def backward(g: Array) -> None:
        _accum(a, np.broadcast_to(g / n, a.data.shape).copy())

    return _from_op(data, (a,), backward, "mean_all")


def im2col(x: Array, kh: int, kw: int, pad: int) -> tuple[Array, tuple[int, int]]:
    """Unfold a (C, H, W) array into (C*kh*kw, out_h*out_w) patch columns."""
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


def conv2d(x: Tensor, w: Tensor, b: Tensor, pad: int = 1) -> Tensor:
    """2-d convolution of a (C_in, H, W) map with (C_out, C_in, kh, kw) kernels."""
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise DimensionError("conv2d expects (C,H,W) input and (O,C,kh,kw) kernels")
    cin, h, ww = x.data.shape
    cout, cin_w, kh, kw = w.data.shape
    if cin != cin_w:
        raise DimensionError(f"conv2d channel mismatch: {cin} vs {cin_w}")
    if b.data.shape != (cout,):
        raise DimensionError("conv2d bias must have one entry per output channel")
    cols, (oh, ow) = im2col(x.data, kh, kw, pad)
    w_mat = w.data.reshape(cout, cin * kh * kw)
    data = (w_mat @ cols + b.data[:, None]).reshape(cout, oh, ow)

    def backward(g: Array) -> None:
        g_mat = g.reshape(cout, oh * ow)
        if w.requires_grad:
            _accum(w, (g_mat @ cols.T).reshape(w.data.shape))
        if b.requires_grad:
            _accum(b, g_mat.sum(axis=1))
        if x.requires_grad:
            dcols = (w_mat.T @ g_mat).reshape(cin, kh * kw, oh * ow)
            dxp = np.zeros((cin, h + 2 * pad, ww + 2 * pad), dtype=np.float64)
            k = 0
            for dy in range(kh):
                for dx in range(kw):
                    dxp[:, dy:dy + oh, dx:dx + ow] += dcols[:, k].reshape(cin, oh, ow)
                    k += 1
            _accum(x, dxp[:, pad:pad + h, pad:pad + ww] if pad else dxp)

    return _from_op(data, (x, w, b), backward, "conv2d")


@dataclass
class Parameter:
    """A named trainable tensor."""

    name: str
    value: Tensor

    def __post_init__(self) -> None:
        self.value.requires_grad = True
