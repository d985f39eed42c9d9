"""Dense float64 tensors with reverse-mode gradients on a recorded tape.

Every operation used by the attention encoders and the denoiser lives here:
elementwise arithmetic with numpy-style broadcasting, 2-d matrix product,
row and column softmax, channel (per-row) normalization, 2-d convolution,
GELU, and the reductions needed to form scalar losses. Gradients are
accumulated into ``.grad`` buffers by ``Tensor.backward()`` on a scalar output.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy

from .errors import (ArtBankError, ConfigError, ContractError, DimensionError,
                     NumericError)

Array = np.ndarray
_ERF_MODULE = "scipy.special._special_ufuncs"


def _load_erf():
    """scipy's ``erf`` ufunc, without running ``scipy.special``'s
    ``__init__``, which imports dozens of modules the tape never calls.

    The extension module that holds it loads from its file alone and is
    registered under its own name, so a later ``import scipy.special``
    reuses it and its ``erf`` is this object. A scipy without that module,
    or whose module has no ``erf``, gives the public ``scipy.special.erf``.
    """
    module = sys.modules.get(_ERF_MODULE)
    if module is None:
        # Not importlib.util.find_spec: it would import the parent package.
        folder = Path(scipy.__file__).parent / "special"
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = folder / f"_special_ufuncs{suffix}"
            if path.is_file():
                spec = importlib.util.spec_from_file_location(_ERF_MODULE, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[_ERF_MODULE] = module
                break
    if hasattr(module, "erf"):
        return module.erf
    from scipy.special import erf
    return erf


erf = _load_erf()

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
EPS = 1e-8  # the variance guard of every sqrt(var + EPS)
# The tape keeps several arrays of a model's largest size alive per step,
# so one such array may take only a fraction of a desk machine's memory.
MAX_ARRAY_BYTES = 1 << 28


def check_array_size(values: int, what: str,
                     error: type[ArtBankError] = ConfigError) -> None:
    """Refuse ``what`` if its largest float64 array, ``values`` long, is
    over ``MAX_ARRAY_BYTES``."""
    if 8 * values > MAX_ARRAY_BYTES:
        raise error(f"{what} needs a {8 * values / 2**30:.1f} GiB array; the "
                    f"limit is {MAX_ARRAY_BYTES / 2**20:g} MiB per array")


def _check_finite(data: Array, step: str) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"{step}: non-finite values")


class Tensor:
    """A float64 n-d array plus an optional gradient slot.

    Instances are immutable after construction except for the ``grad``
    buffer and in-place parameter updates performed by the optimizer.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grads")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.array(values, dtype=np.float64, order="C")
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grads: tuple[Callable[[Array], Array], ...] = ()

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output. Each node's gradient
        functions run only for the parents on the tape, so no product is
        computed for an input off it."""
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
            if node.grad is None:
                continue
            for parent, grad in zip(node._parents, node._grads):
                if parent.requires_grad:
                    g = grad(node.grad)
                    parent.grad = g if parent.grad is None else parent.grad + g

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


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _from_op(data: Array, parents: tuple[Tensor, ...],
             grads: tuple[Callable[[Array], Array], ...], step: str,
             checked: bool = True) -> Tensor:
    """Record an op's output on the tape with ``grads``: in ``parents``
    order, one function per parent from the output's gradient to that
    parent's. ``checked=False`` skips the finiteness check: only an op whose
    output is finite whenever its inputs are may pass it, so that a
    parameter an update left non-finite is still caught by the first
    checked op that reads it."""
    if checked:
        _check_finite(data, step)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            break
    if out.requires_grad:
        out._parents = parents
        out._grads = grads
    else:
        out._parents = ()
        out._grads = ()
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the original shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _elementwise(op: np.ufunc, a: Tensor, b: Tensor, step: str) -> Array:
    """``op`` on the operands' values, broadcast numpy's way; shapes that do
    not broadcast are a ``DimensionError`` naming both."""
    try:
        return op(a.data, b.data)
    except ValueError:
        raise DimensionError(f"{step}: shapes {a.data.shape} and {b.data.shape} "
                             "do not broadcast") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    data = _elementwise(np.add, a, b, "add")
    return _from_op(data, (a, b), (lambda g: _unbroadcast(g, a.data.shape),
                                   lambda g: _unbroadcast(g, b.data.shape)), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = _elementwise(np.subtract, a, b, "sub")
    return _from_op(data, (a, b), (lambda g: _unbroadcast(g, a.data.shape),
                                   lambda g: _unbroadcast(-g, b.data.shape)), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = _elementwise(np.multiply, a, b, "mul")
    return _from_op(data, (a, b), (
        lambda g: _unbroadcast(g * b.data, a.data.shape),
        lambda g: _unbroadcast(g * a.data, b.data.shape)), "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-d tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul requires 2-d tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul inner extents differ: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data
    return _from_op(data, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g),
                    "matmul")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError("transpose requires a 2-d tensor")
    # Unchecked: moves values only.
    return _from_op(np.ascontiguousarray(a.data.T), (a,), (lambda g: g.T,),
                    "transpose", checked=False)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)
    # Unchecked: moves values only.
    return _from_op(data, (a,), (lambda g: g.reshape(a.data.shape),), "reshape",
                    checked=False)


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
    grads = tuple(lambda g, lo=lo, hi=hi: g[lo:hi]
                  for lo, hi in zip(offsets[:-1], offsets[1:]))
    # Unchecked: moves values only.
    return _from_op(data, tuple(parts), grads, "concat_rows", checked=False)


def _softmax(a: Tensor, axis: int, step: str) -> Tensor:
    """Softmax along ``axis`` of a 2-d tensor, each line shifted by its max."""
    if a.data.ndim != 2:
        raise DimensionError(f"{step} requires a 2-d tensor")
    if a.data.shape[axis] == 0:
        raise DimensionError(f"{step} of a {a.data.shape} tensor: the softmax "
                             "axis is empty")
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        shifted = np.maximum(shifted, -745.0)  # exp underflows to 0 below this
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def a_grad(g: Array) -> Array:
        dot = (g * y).sum(axis=axis, keepdims=True)
        return y * (g - dot)

    # Unchecked: every value lies in [0, 1]. The shift and the clamp keep exp
    # finite, and each line sums to at least the exp(0) = 1 of its maximum.
    return _from_op(y, (a,), (a_grad,), step, checked=False)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction for stability."""
    return _softmax(a, 1, "softmax_rows")


def softmax_cols(a: Tensor) -> Tensor:
    """Column-wise softmax: ``softmax_rows`` of the transpose, transposed."""
    return _softmax(a, 0, "softmax_cols")


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

    def a_grad(g: Array) -> Array:
        gm = g.mean(axis=1, keepdims=True)
        gy = (g * y).mean(axis=1, keepdims=True)
        return (g - gm - y * gy) * inv

    return _from_op(y, (a,), (a_grad,), "channel_norm")


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; the input must be non-negative."""
    if a.data.size and float(a.data.min()) < 0.0:
        raise NumericError("sqrt: negative input")
    y = np.sqrt(a.data)
    return _from_op(y, (a,), (lambda g: g * (0.5 / y),), "sqrt")


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """Elementwise max(floor, x); subgradient 0 on the clamped side."""
    mask = a.data > floor
    data = np.maximum(a.data, floor)
    return _from_op(data, (a,), (lambda g: g * mask,), "clamp_min")


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    y = x * cdf

    def a_grad(g: Array) -> Array:
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return g * (cdf + x * pdf)

    # Unchecked: |y| <= |x|.
    return _from_op(y, (a,), (a_grad,), "gelu", checked=False)


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())
    return _from_op(data, (a,), (lambda g: np.full(a.data.shape, g),), "sum_all")


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.sum() / n)
    return _from_op(data, (a,), (lambda g: np.full(a.data.shape, g / n),),
                    "mean_all")


def im2col(x: Array, kh: int, kw: int,
           pad: int | tuple[int, int]) -> tuple[Array, tuple[int, int]]:
    """Unfold a (C, H, W) array into (C*kh*kw, out_h*out_w) patch columns.

    ``pad`` is one margin for both spatial axes or a (rows, columns) pair;
    a negative margin crops that many values from each end of its axis.
    The columns are always a fresh array of their own, never a view of ``x``,
    refused before any allocation if over the array budget.
    """
    ph, pw = (pad, pad) if isinstance(pad, int) else pad
    c, h, w = x.shape
    out_h = h + 2 * ph - kh + 1
    out_w = w + 2 * pw - kw + 1
    check_array_size(c * kh * kw * out_h * out_w, f"im2col of a {c}x{h}x{w} map")
    xp = np.zeros((c, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    top, left, cut_h, cut_w = max(ph, 0), max(pw, 0), max(-ph, 0), max(-pw, 0)
    xp[:, top:top + h - 2 * cut_h, left:left + w - 2 * cut_w] = \
        x[:, cut_h:h - cut_h, cut_w:w - cut_w]
    sc, sh, sw = xp.strides
    shape = (c, kh, kw, out_h, out_w)
    windows = np.ndarray(shape, np.float64, xp, 0, (sc, sh, sw, sh, sw))
    cols = np.empty(shape, dtype=np.float64)
    cols[...] = windows
    return cols.reshape(c * kh * kw, out_h * out_w), (out_h, out_w)


def conv2d(x: Tensor, w: Tensor, b: Tensor, pad: int = 1) -> Tensor:
    """2-d convolution of a (C_in, H, W) map, zero-padded by ``pad``, with
    (C_out, C_in, kh, kw) kernels. The input gradient is one gather GEMM:
    the flipped, channel-swapped kernels times the patch columns of the
    output gradient padded by (kh - 1 - pad, kw - 1 - pad)."""
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise DimensionError("conv2d expects (C,H,W) input and (O,C,kh,kw) kernels")
    cin, h, ww = x.data.shape
    cout, cin_w, kh, kw = w.data.shape
    if cin != cin_w:
        raise DimensionError(f"conv2d channel mismatch: {cin} vs {cin_w}")
    if b.data.shape != (cout,):
        raise DimensionError("conv2d bias must have one entry per output channel")
    if min(kh, kw, h, ww) < 1 or pad < 0:
        raise DimensionError(
            f"conv2d needs a kernel and an input of at least 1x1 and a pad of at "
            f"least 0, got a {kh}x{kw} kernel, a {h}x{ww} input and pad {pad}")
    if kh > h + 2 * pad or kw > ww + 2 * pad:
        raise DimensionError(
            f"conv2d kernel {kh}x{kw} exceeds the {h}x{ww} input padded by {pad}")
    cols, (oh, ow) = im2col(x.data, kh, kw, pad)
    data = w.data.reshape(cout, cin * kh * kw) @ cols
    data += b.data[:, None]
    data = data.reshape(cout, oh, ow)

    def x_grad(g: Array) -> Array:
        w_flip = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        g_cols = im2col(g, kh, kw, (kh - 1 - pad, kw - 1 - pad))[0]
        # Contiguous: a reversed view would skip BLAS and sum in another order.
        w_mat = np.ascontiguousarray(w_flip).reshape(cin, cout * kh * kw)
        return (w_mat @ g_cols).reshape(cin, h, ww)

    return _from_op(data, (x, w, b), (
        x_grad,
        lambda g: (g.reshape(cout, oh * ow) @ cols.T).reshape(w.data.shape),
        lambda g: g.reshape(cout, oh * ow).sum(axis=1)), "conv2d")


@dataclass
class Parameter:
    """A named trainable tensor."""

    name: str
    value: Tensor

    def __post_init__(self) -> None:
        self.value.requires_grad = True
