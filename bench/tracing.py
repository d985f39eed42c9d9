"""Spans around calls into the artbank modules, recorded from outside.

``Tracer.instrument`` rebinds each listed public function in every
``artbank`` module namespace (and each listed method on its class) to a
wrapper that records one span per call; ``restore`` puts the originals back.
Nothing under ``src/`` changes: the wrappers replace the names that the
program looks up at call time. Private helpers such as ``_check_finite`` and
the per-op backward closures are not reachable this way; their time lands in
the self time of the public function that calls them.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the operation id that was current
when the span opened (``None`` outside operations, for example in set-up).
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name). Several functions may share a span name
# when they are the same layer seen through different entry points.
FUNCTIONS = [
    ("artbank.tensor", "conv2d", "tensor.conv2d"),
    ("artbank.tensor", "im2col", "tensor.im2col"),
    ("artbank.tensor", "gelu", "tensor.gelu"),
    ("artbank.tensor", "softmax_rows", "tensor.softmax_rows"),
    ("artbank.tensor", "matmul", "tensor.matmul"),
    ("artbank.attention", "ssam_forward", "attention.encode"),
    ("artbank.attention", "sanet_forward", "attention.encode"),
    ("artbank.bank", "encode_prompt", "bank.encode_prompt"),
    ("artbank.bank", "assemble_condition", "bank.assemble_condition"),
    ("artbank.bank", "create_entry", "bank.create_entry"),
    ("artbank.bank", "save_bank", "bank.save_bank"),
    ("artbank.bank", "load_bank", "bank.load_bank"),
    ("artbank.diffusion", "q_sample", "diffusion.q_sample"),
    ("artbank.diffusion", "sample", "diffusion.sample"),
    ("artbank.diffusion", "train_naive", "diffusion.train_naive"),
    ("artbank.diffusion", "train_ispb", "diffusion.train_ispb"),
    ("artbank.diffusion", "ispb_eval_loss", "diffusion.ispb_eval_loss"),
    ("artbank.diffusion", "save_checkpoint", "diffusion.save_checkpoint"),
    ("artbank.diffusion", "load_checkpoint", "diffusion.load_checkpoint"),
    ("artbank.optim", "adam_step", "optim.adam_step"),
    ("artbank.inversion", "stochastic_invert", "inversion.invert"),
    ("artbank.inversion", "stylize", "inversion.stylize"),
    ("artbank.metrics", "ssim", "metrics.ssim"),
    ("artbank.metrics", "gram_style_score", "metrics.gram_style_score"),
    ("artbank.metrics", "signature_of", "metrics.signature_of"),
    ("artbank.metrics", "convergence_benchmark", "metrics.convergence_benchmark"),
    ("artbank.data_io", "gen_style_collection", "data_io.gen_style_collection"),
    ("artbank.data_io", "gen_content_image", "data_io.gen_content_image"),
]

# (module, class, method, span name).
METHODS = [
    ("artbank.tensor", "Tensor", "backward", "tensor.backward"),
    ("artbank.diffusion", "Denoiser", "predict_noise", "diffusion.predict_noise"),
]

# Counts recorded at a span boundary: span name -> (count name, f(args, kwargs)).
COUNTERS = {
    "optim.adam_step": ("optim.values_updated",
                        lambda args, kwargs: sum(p.value.data.size for p in args[0])),
}

# Spans the benchmark opens around its own bookkeeping, not a layer.
BENCH_PREFIX = "bench."


class NullTracer:
    """Stands in for a tracer in untraced runs; records nothing."""

    op = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Records spans and counts; see the module docstring."""

    def __init__(self) -> None:
        # Parallel columns rather than one list per span: appending floats
        # and strings allocates no new containers, so the recorder adds no
        # work to the cyclic garbage collector while the program runs.
        self._name: list[str] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        self._op: list = []
        self.op = None
        self.counts: dict[tuple, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, value: float) -> None:
        self.counts[(self.op, name)] += value

    def _open(self, name: str) -> int:
        idx = len(self._name)
        self._name.append(name)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @property
    def spans(self) -> list[tuple]:
        """Every span recorded so far as ``(name, start, end, parent, op)``."""
        return list(zip(self._name, self._start, self._end, self._parent, self._op))

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.count(counter[0], counter[1](args, kwargs))
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def instrument(self) -> None:
        """Rebind every listed function and method to a span-recording wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "artbank" or n.startswith("artbank."))]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def restore(self) -> None:
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched.clear()

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta,
                                 "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_table(spans: list[tuple], ops: list) -> dict[str, dict[str, float]]:
    """Per span name: calls and self seconds per operation, over ``ops``.

    Only spans opened inside one of the listed operations count; spans of
    the benchmark's own bookkeeping (names under ``bench.``) are kept so the
    caller can tell glue from layer time.
    """
    wanted = set(ops)
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        if s[4] in wanted:
            calls[s[0]] += 1
            self_s[s[0]] += t
    n = max(1, len(wanted))
    return {name: {"calls_per_op": calls[name] / n,
                   "self_ms_per_op": 1e3 * self_s[name] / n}
            for name in sorted(calls)}


def durations(spans: list[tuple], name: str, ops=None) -> list[float]:
    """Inclusive durations in seconds of every span called ``name``; with
    ``ops`` given, only those opened inside one of these operations."""
    wanted = None if ops is None else set(ops)
    return [s[2] - s[1] for s in spans
            if s[0] == name and (wanted is None or s[4] in wanted)]
