"""A hostile-input sweep of the exported calls that take tensors, sequences,
images, timesteps and files: ``assemble_condition``, ``sample``,
``Denoiser.predict_noise``, ``stochastic_invert``, ``stylize``,
``signature_of``, ``adam_step``, ``save_bank``/``load_bank`` and
``save_checkpoint``/``load_checkpoint``.

The inputs are empty sequences (no tokens, images, entries, parameters or
file bytes), tensors of the wrong rank or with an empty axis, timesteps
outside the schedule, and images whose largest activation is over the array
budget. Each call gives a result or an ``ArtBankError``; an ``OSError`` only
where the call reads or writes a file; a bank or checkpoint that saves
loads back to the same bytes. None allocates an array over the
budget: the sweep runs under a budget of ``_BUDGET`` bytes, and
tracemalloc's peak over each call, which is at least its largest array,
stays within it. Nothing starts a thread or a process.

Wrong Python types are out of scope: a float timestep or count is not
refused (``q_sample(..., t=2.5)`` raises ``IndexError``).
"""

import os
import threading
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import artbank.tensor as tensor_mod
from artbank.attention import SsamParams
from artbank.bank import (StyleBank, StyleBankEntry, TokenEmbeddingSeq,
                          assemble_condition, bank_bytes, create_entry,
                          encode_prompt, load_bank, save_bank)
from artbank.data_io import gen_content_image
from artbank.diffusion import (Denoiser, LatentState, checkpoint_bytes,
                               load_checkpoint, make_schedule, sample,
                               save_checkpoint)
from artbank.errors import ArtBankError
from artbank.inversion import InversionConfig, stochastic_invert, stylize
from artbank.metrics import signature_of
from artbank.optim import AdamState, adam_step
from artbank.tensor import Parameter, Tensor

_BUDGET = 1 << 18  # 32,768 float64 values
_WIDTH = 4  # the denoiser's width and condition width, and the entries' C
_T = 10
# Ranks 0 to 4, with and without an empty axis.
_SHAPES = [(), (0,), (4,), (0, 4), (4, 0), (2, 4), (4, 3), (3, 4),
           (3, 6, 6), (1, 6, 6), (3, 0, 6), (3, 6, 0), (0, 6, 6), (4, 3, 1),
           (1, 3, 6, 6)]
_TIMESTEPS = (-1, 0, 1, _T, _T + 1, 10**400)


@pytest.fixture(scope="module")
def rig():
    d = Denoiser(3, _WIDTH, _WIDTH, seed=0, timesteps=_T)
    d.freeze()
    bank = StyleBank()
    bank.add(create_entry("s", "a", _WIDTH, 3, seed=0))
    bank.add(create_entry("narrow", "a", _WIDTH - 1, 3, seed=0))
    # A 40 x 40 RGB image (38 KiB) and the few copies a call makes of it fit
    # the budget, so tracemalloc's peak can show that the first conv's
    # patch matrix over it, 27 values per pixel, is refused, not allocated.
    return SimpleNamespace(
        d=d, sched=make_schedule(_T), bank=bank,
        rgb=gen_content_image("photo", 6, 1),
        gray=gen_content_image("photo", 6, 1, channels=1),
        dot=gen_content_image("photo", 1, 1),
        small=gen_content_image("photo", 4, 1),
        big=gen_content_image("photo", 40, 1))


def _assemble_condition(r):
    seq = encode_prompt("a *", "", _WIDTH)
    for shape in _SHAPES:
        yield f"v_m {shape}", lambda s=shape: assemble_condition(
            seq, Tensor(np.zeros(s)))
    yield "no style", lambda: assemble_condition(seq, None)
    yield "bare placeholder", lambda: assemble_condition(
        encode_prompt("*", "", _WIDTH), None)
    for shape in _SHAPES:
        for tokens, pi in (([], 0), (["*"], 0), (["a", "*"], 1), (["a", "*"], -1),
                           (["a", "*"], 0), (["a", "*"], 2)):
            yield f"seq {tokens} at {pi}, {shape}", lambda t=tokens, i=pi, s=shape: (
                assemble_condition(TokenEmbeddingSeq(t, np.zeros(s), i),
                                   Tensor(np.zeros((_WIDTH, 2)))))


def _sample(r):
    for shape in _SHAPES + [(3, 40, 40)]:
        for t in _TIMESTEPS:
            yield f"z {shape} at t={t}", lambda s=shape, t=t: sample(
                r.d, r.sched, None, LatentState(Tensor(np.zeros(s)), t))
    for shape in _SHAPES:
        yield f"condition {shape}", lambda s=shape: sample(
            r.d, r.sched, Tensor(np.zeros(s)),
            LatentState(Tensor(np.zeros((3, 6, 6))), 2))
    yield "other schedule", lambda: sample(
        r.d, make_schedule(_T - 1), None, LatentState(Tensor(np.zeros((3, 6, 6))), 2))


def _predict_noise(r):
    for shape in _SHAPES + [(3, 40, 40)]:
        for t in _TIMESTEPS:
            yield f"z {shape} at t={t}", lambda s=shape, t=t: r.d.predict_noise(
                LatentState(Tensor(np.zeros(s)), t), None)


def _stochastic_invert(r):
    for name in ("rgb", "gray", "dot", "big"):
        for strength in (0.0, 1e-9, 0.5, 1.0, 1.5, float("nan")):
            yield f"{name} at {strength}", lambda n=name, s=strength: (
                stochastic_invert(r.d, r.sched, getattr(r, n),
                                  InversionConfig(s, seed=1)))
    yield "other schedule", lambda: stochastic_invert(
        r.d, make_schedule(_T + 1), r.rgb, InversionConfig())
    yield "unfrozen", lambda: stochastic_invert(
        Denoiser(3, _WIDTH, _WIDTH, timesteps=_T), r.sched, r.rgb, InversionConfig())


def _stylize(r):
    for style_id in ("s", "narrow", "missing"):
        for name in ("rgb", "gray", "dot", "big"):
            for inverted in (True, False):
                yield f"{style_id} on {name}, inverted={inverted}", (
                    lambda i=style_id, n=name, v=inverted: stylize(
                        r.d, r.sched, r.bank, i, getattr(r, n),
                        InversionConfig(0.3), use_inversion=v))
    yield "empty bank", lambda: stylize(r.d, r.sched, StyleBank(), "s", r.rgb,
                                        InversionConfig())


def _signature_of(r):
    for names in ((), ("rgb",), ("gray",), ("small",), ("dot",), ("big",),
                  ("rgb", "gray"), ("rgb", "small")):
        yield f"{names}", lambda ns=names: signature_of([getattr(r, n) for n in ns])


def _adam_step(r):
    def step(value, grad, state, lr=1e-3):
        p = Parameter("p", Tensor(np.zeros(value)))
        p.value.grad = None if grad is None else np.zeros(grad)
        return adam_step([p], state, lr)

    yield "no parameters", lambda: adam_step([], AdamState())
    yield "no parameters, used state", lambda: adam_step(
        [], AdamState(1, np.zeros(4), np.zeros(4)))
    for value in _SHAPES:
        for grad in (None, value, *_SHAPES[:4]):
            yield f"value {value}, gradient {grad}", lambda v=value, g=grad: step(
                v, g, AdamState())
    for m, v in (((4,), (4,)), ((3,), (3,)), ((2, 2), (2, 2)), ((4,), None),
                 (None, (4,)), ((4,), (2, 2)), ((), ()), ((0,), (0,))):
        yield f"state m {m}, v {v}", lambda m=m, v=v: step(
            (2, 2), (2, 2), AdamState(1, None if m is None else np.zeros(m),
                                      None if v is None else np.zeros(v)))
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        yield f"lr {lr}", lambda lr=lr: step((2,), (2,), AdamState(), lr)


def _entry(shapes):
    params = {name: Parameter(name, Tensor(np.zeros(shape)))
              for name, shape in shapes.items()}
    return StyleBankEntry("s", "a", "a *", params.pop("i_m"), SsamParams(**params))


def _round_trip(path, save, load, to_bytes, value):
    save(value, path)
    assert to_bytes(load(path)) == path.read_bytes()


def _write(path, raw, load):
    path.write_bytes(raw)
    return load(path)


def _bank_files(r, tmp):
    good = {"i_m": (2, 3), "w_q": (2, 2), "w_k": (2, 2), "w_v": (2, 2),
            "w_col": (3, 1), "w_row": (1, 3), "alpha": ()}
    yield "empty bank", lambda: _round_trip(tmp / "empty.ispb", save_bank,
                                            load_bank, bank_bytes, StyleBank())
    yield "bank", lambda: _round_trip(tmp / "bank.ispb", save_bank, load_bank,
                                      bank_bytes, r.bank)
    for name in good:
        for shape in _SHAPES[:8]:
            def build(n=name, s=shape):
                bank = StyleBank()
                bank.add(_entry({**good, n: s}))
                _round_trip(tmp / "wrong.ispb", save_bank, load_bank, bank_bytes, bank)
            yield f"{name} of shape {shape}", build
    raw = bank_bytes(r.bank)
    for cut in (0, 3, 4, 6, 10, len(raw) // 2, len(raw) - 1):
        yield f"first {cut} bytes", lambda c=cut: _write(tmp / "cut.ispb",
                                                          raw[:c], load_bank)
    yield "missing file", lambda: load_bank(tmp / "missing.ispb")
    yield "directory", lambda: save_bank(r.bank, tmp)


def _checkpoint_files(r, tmp):
    yield "checkpoint", lambda: _round_trip(tmp / "d.abdn", save_checkpoint,
                                            load_checkpoint, checkpoint_bytes, r.d)
    raw = checkpoint_bytes(r.d)
    for cut in (0, 3, 4, 6, 10, 26, len(raw) // 2, len(raw) - 1):
        yield f"first {cut} bytes", lambda c=cut: _write(tmp / "cut.abdn",
                                                          raw[:c], load_checkpoint)
    yield "missing file", lambda: load_checkpoint(tmp / "missing.abdn")
    yield "directory", lambda: save_checkpoint(r.d, tmp)


_SWEEPS = {
    "assemble_condition": _assemble_condition,
    "sample": _sample,
    "Denoiser.predict_noise": _predict_noise,
    "stochastic_invert": _stochastic_invert,
    "stylize": _stylize,
    "signature_of": _signature_of,
    "adam_step": _adam_step,
}
_FILE_SWEEPS = {"save_bank/load_bank": _bank_files,
                "save_checkpoint/load_checkpoint": _checkpoint_files}


def _refuse(*args, **kwargs):
    raise AssertionError("started a thread or a process")


@pytest.mark.parametrize("name", list(_SWEEPS) + list(_FILE_SWEEPS))
def test_hostile_inputs_end_in_a_result_or_an_artbank_error(name, rig, tmp_path):
    if name in _SWEEPS:
        calls, files = _SWEEPS[name](rig), False
    else:
        calls, files = _FILE_SWEEPS[name](rig, tmp_path), True
    escapes = []
    tracemalloc.start()
    try:
        with mock.patch.object(tensor_mod, "MAX_ARRAY_BYTES", _BUDGET), \
                mock.patch.object(os, "fork", _refuse), \
                mock.patch.object(threading.Thread, "start", _refuse):
            for label, call in calls:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    call()
                except ArtBankError:
                    pass
                except OSError as exc:
                    if not files:
                        escapes.append(f"{label}: {exc!r}")
                except Exception as exc:
                    escapes.append(f"{label}: {exc!r}")
                peak = tracemalloc.get_traced_memory()[1] - base
                if peak > _BUDGET:
                    escapes.append(f"{label}: {peak} bytes allocated at once")
    finally:
        tracemalloc.stop()
    assert not escapes
