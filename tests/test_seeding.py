"""The one seed module: every generator and every hashed seed comes from
``artbank.seeding``, and its one check refuses a negative seed."""

import ast
import hashlib
import os
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artbank
import artbank.tensor as tensor_mod
from artbank.bank import check_prompt, create_entry, encode_prompt
from artbank.data_io import (default_style_specs, gen_content_image,
                             gen_style_collection)
from artbank.diffusion import (Denoiser, ispb_eval_loss, make_schedule,
                               train_ispb, train_naive)
from artbank.errors import ArtBankError, ConfigError
from artbank.inversion import InversionConfig, probe_noise
from artbank import seeding


def test_hash_seed_is_the_sha256_prefix():
    data = b"a painting by Monet *"
    digest = hashlib.sha256(data).digest()
    assert seeding.hash_seed(data) == int.from_bytes(digest[:8], "little")
    assert (seeding.derive_seed(-1, "denoiser-init")
            == seeding.hash_seed(b"-1:denoiser-init"))


def _tiny_set():
    """A 4x4 RGB image and a 4-step schedule."""
    return [gen_content_image("photo", 4, 0)], make_schedule(4)


def _denoiser(frozen=False, seed=0):
    d = Denoiser(3, 2, 4, seed, timesteps=4)
    if frozen:
        d.freeze()
    return d


def _entry():
    return create_entry("s", "a", 4, 2)


def test_negative_seed_refused_where_a_generator_is_seeded():
    images, sched = _tiny_set()
    spec = default_style_specs()["blobs"]
    for call in (lambda: create_entry("s", "a", 4, 2, seed=-1),
                 lambda: gen_style_collection(spec, 1, 4, -1),
                 lambda: gen_content_image("photo", 4, -1),
                 lambda: train_naive(_denoiser(), images, ["a *"], sched, 1, -1),
                 lambda: train_ispb(_denoiser(frozen=True), _entry(), images,
                                    sched, 1, -1)):
        with pytest.raises(ConfigError, match="seed must be at least 0, got -1"):
            call()
    # A root seed hashed with a label may be any integer.
    assert _denoiser(seed=-1).width == 2
    assert np.isfinite(ispb_eval_loss(_denoiser(frozen=True), _entry(), images,
                                      sched, seed=-1))
    assert probe_noise(InversionConfig(0.5, -1), (3, 4, 4)).shape == (3, 4, 4)


def test_only_seeding_hashes_or_names_pcg64():
    offenders = []
    for path in sorted(Path(artbank.__file__).parent.glob("*.py")):
        if path.name == "seeding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [a.name for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name in ("hashlib", "PCG64")]
    assert not offenders


_NO_UTF8 = "\udcff"  # a lone surrogate: what a file name's byte 0xff decodes to


@pytest.mark.parametrize("call, what", [
    pytest.param(lambda: check_prompt(f"a {_NO_UTF8} *", "x"), "template",
                 id="check_prompt-template"),
    pytest.param(lambda: check_prompt("by {artist} *", _NO_UTF8), "artist",
                 id="check_prompt-artist"),
    pytest.param(lambda: encode_prompt(f"a {_NO_UTF8} *", "x", 4), "template",
                 id="encode_prompt-template"),
    pytest.param(lambda: encode_prompt("by {artist} *", _NO_UTF8, 4), "artist",
                 id="encode_prompt-artist"),
    pytest.param(lambda: create_entry("s", "x", 4, 2, template=f"a {_NO_UTF8} *"),
                 "template", id="create_entry-template"),
    pytest.param(lambda: create_entry("s", _NO_UTF8, 4, 2), "artist",
                 id="create_entry-artist"),
    pytest.param(lambda: create_entry(_NO_UTF8, "x", 4, 2), "style_id",
                 id="create_entry-style_id"),
    pytest.param(lambda: seeding.derive_seed(0, _NO_UTF8), "seed label",
                 id="derive_seed"),
])
def test_text_without_utf8_refused(call, what):
    """Text is hashed and saved as UTF-8, so text that has no UTF-8 form is
    refused where it is first checked. Unrefused, ``check_prompt`` and
    ``create_entry`` passed it on, and the others raised
    ``UnicodeEncodeError``."""
    with pytest.raises(ConfigError, match=f"^{what} must be valid UTF-8$"):
        call()


_SEEDS = (-2**63, -1, 0, 2**64 - 1, 2**64, 2**200)
_SIZES = (-3, 0, 1, "over")
_BUDGET = 1 << 16  # 8,192 float64 values


def _refuse(*args, **kwargs):
    raise AssertionError("started a thread or a process")


def _sweep_calls():
    """Each call with a seed and a size, and the size its ``"over"`` stands
    for under ``_BUDGET``. The trainers' size is their step count, whose loss
    trace the budget bounds; ``ispb_eval_loss`` and ``probe_noise`` (whose
    shape is always an image's) take a seed only."""
    images, sched = _tiny_set()
    spec = default_style_specs()["stripes"]
    return {
        "create_entry": (91, lambda seed, n: create_entry("s", "a", n, n, seed)),
        "gen_style_collection": (
            53, lambda seed, n: gen_style_collection(spec, 1, n, seed)),
        "gen_content_image": (53, lambda seed, n: gen_content_image("photo", n, seed)),
        "encode_prompt": (4097, lambda seed, n: encode_prompt("a *", "", n)),
        "Denoiser": (31, lambda seed, n: Denoiser(3, n, 4, seed, 4)),
        "train_naive": (8193, lambda seed, n: train_naive(
            _denoiser(), images, ["a *"], sched, n, seed)),
        "train_ispb": (8193, lambda seed, n: train_ispb(
            _denoiser(frozen=True), _entry(), images, sched, n, seed)),
        "ispb_eval_loss": (None, lambda seed, n: ispb_eval_loss(
            _denoiser(frozen=True), _entry(), images, sched, seed)),
        "probe_noise": (None, lambda seed, n: probe_noise(
            InversionConfig(0.5, seed), (3, 4, 4))),
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hostile_seeds_and_sizes_end_in_a_result_or_an_artbank_error(data):
    """Any of these seeds with any of these sizes gives a result or an
    ``ArtBankError``; a size other than 1 is always refused. Nothing starts
    a thread or a process."""
    with mock.patch.object(tensor_mod, "MAX_ARRAY_BYTES", _BUDGET), \
            mock.patch.object(os, "fork", _refuse), \
            mock.patch.object(threading.Thread, "start", _refuse):
        calls = _sweep_calls()
        name = data.draw(st.sampled_from(sorted(calls)))
        over, call = calls[name]
        seed = data.draw(st.sampled_from(_SEEDS))
        size = data.draw(st.sampled_from(_SIZES if over else (1,)))
        n = over if size == "over" else size
        try:
            call(seed, n)
        except ArtBankError:
            return
        assert n == 1, (name, seed, n)
