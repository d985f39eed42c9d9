"""End-to-end CLI behavior with a tiny on-disk dataset."""

import argparse
import contextlib
import hashlib
import io
import os
import re
import struct
import tempfile
import threading
from dataclasses import fields
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artbank.bank as bank_mod
import artbank.cli as cli_mod
import artbank.data_io as data_io
import artbank.diffusion as diffusion
import artbank.tensor as tensor_mod
from artbank import desk, metrics
from artbank.bank import StyleBank, bank_bytes, create_entry, save_bank
from artbank.cli import build_config, build_parser, parse_config_file, run
from artbank.data_io import (ImageSample, default_style_specs,
                             gen_content_image, gen_style_collection, read_ppm,
                             write_ppm)
from artbank.errors import ConfigError, DimensionError
from artbank.seeding import derive_seed


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small two-family dataset plus one content image."""
    root = tmp_path_factory.mktemp("data")
    specs = default_style_specs()
    for name in ("stripes", "checks"):
        sub = root / name
        sub.mkdir()
        for i, img in enumerate(gen_style_collection(specs[name], 6, 8, seed=3)):
            write_ppm(img, sub / f"img_{i:03d}.ppm")
    content = root / "content.ppm"
    write_ppm(gen_content_image("shapes", 8, seed=5), content)
    return root


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 12\nlr = 0.01  # comment\n\n# full line comment\n"
                   "style_id = checks\n")
    values = parse_config_file(cfg)
    assert values == {"steps": "12", "lr": "0.01", "style_id": "checks"}


def test_config_file_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not an assignment\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)


def test_config_values_take_field_types(tmp_path):
    # Each key is read through a command that takes it.
    cfg = tmp_path / "typed.cfg"
    cfg.write_text("steps = 12\nlr = 0.01\ntemplate = a photo *\n")
    train = build_parser().parse_args(["train-bank", "--config", str(cfg)])
    resolved = build_config(train)
    assert resolved.steps == 12 and type(resolved.steps) is int
    assert resolved.lr == 0.01 and type(resolved.lr) is float
    assert resolved.template == "a photo *"
    flag_cfg = tmp_path / "flag.cfg"
    stylize = build_parser().parse_args(["stylize", "--config", str(flag_cfg)])
    flag_cfg.write_text("no_inversion = yes\n")
    assert build_config(stylize).no_inversion is True
    flag_cfg.write_text("no_inversion = off\n")
    assert build_config(stylize).no_inversion is False
    for args, path, bad in ((train, cfg, "steps = 1.5"), (train, cfg, "lr = fast"),
                            (stylize, flag_cfg, "no_inversion = maybe")):
        path.write_text(bad + "\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            build_config(args)


@pytest.mark.parametrize("argv, text, key, command", [
    (["bank", "inspect"], "seed = 5\nsteps = 9\n", "seed", "bank inspect"),
    (["eval"], "steps = 9\n", "steps", "eval"),
    (["stylize"], "strength = 0.5\nlr = 0.1\n", "lr", "stylize"),
    # The checkpoint sets an entry's width.
    (["train-bank"], "channels = 12\n", "channels", "train-bank"),
    (["bench-attn"], "channels = 12\n", "channels", "bench-attn"),
    # The checkpoint sets the schedule.
    (["train-bank"], "timesteps = 7\n", "timesteps", "train-bank"),
    (["stylize"], "timesteps = 50\n", "timesteps", "stylize"),
    (["bench-attn"], "timesteps = 1000\n", "timesteps", "bench-attn"),
])
def test_config_key_the_command_does_not_take_exits_2(tmp_path, capsys, argv,
                                                      text, key, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run([*argv, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"artbank: error: config key {key!r} is not a setting of "
                   f"'{command}'"]


# Every subcommand's flags as (option strings, dest, type or const, choices).
_COMMON_FLAGS = [
    (("--config",), "config", "str", None),
]
_SEED = (("--seed",), "seed", "int", None)
_FLAG_SURFACE = {
    "pretrain": [
        _SEED,
        (("--data",), "data_root", "str", None),
        (("--checkpoint",), "checkpoint_path", "str", None),
        (("--steps",), "steps", "int", None),
        (("--width",), "width", "int", None),
        (("--channels",), "channels", "int", None),
        (("--timesteps",), "timesteps", "int", None),
        (("--lr",), "lr", "float", None),
        (("--loss-csv",), "loss_csv", "str", None),
    ],
    "train-bank": [
        _SEED,
        (("--data",), "data_root", "str", None),
        (("--checkpoint",), "checkpoint_path", "str", None),
        (("--bank",), "bank_path", "str", None),
        (("--style-id",), "style_id", "str", None),
        (("--artist",), "artist", "str", None),
        (("--template",), "template", "str", None),
        (("--steps",), "steps", "int", None),
        (("--positions",), "positions", "int", None),
        (("--lr",), "lr", "float", None),
        (("--attention",), "attention", "str", ("ssam", "adaattn")),
        (("--loss-csv",), "loss_csv", "str", None),
    ],
    "stylize": [
        _SEED,
        (("--checkpoint",), "checkpoint_path", "str", None),
        (("--bank",), "bank_path", "str", None),
        (("--style-id",), "style_id", "str", None),
        (("--content",), "content_path", "str", None),
        (("--out",), "out_path", "str", None),
        (("--strength",), "strength", "float", None),
        (("--no-inversion",), "no_inversion", "const=True", None),
    ],
    "bench-attn": [
        _SEED,
        (("--data",), "data_root", "str", None),
        (("--checkpoint",), "checkpoint_path", "str", None),
        (("--style-id",), "style_id", "str", None),
        (("--variants",), "variants", "str", None),
        (("--bench-seeds",), "bench_seeds", "int", None),
        (("--threshold",), "threshold", "float", None),
        (("--max-iters",), "max_iters", "int", None),
        (("--positions",), "positions", "int", None),
        (("--lr",), "lr", "float", None),
        (("--out",), "out_path", "str", None),
    ],
    "eval": [
        (("--content",), "content_path", "str", None),
        (("--stylized",), "stylized_path", "str", None),
        (("--style-dir",), "style_dir", "str", None),
        (("--out",), "out_path", "str", None),
    ],
    "bank inspect": [
        (("--bank",), "bank_path", "str", None),
    ],
}


def _leaf_parsers(parser, prefix=()):
    """Yield (command path, parser) for every subcommand that runs."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, prefix + (name,))


def _flag_row(action):
    if action.nargs == 0:
        kind = f"const={action.const!r}"
    else:
        kind = action.type.__name__ if action.type else "str"
    return tuple(action.option_strings), action.dest, kind, action.choices


def test_flag_surface():
    surface = {path: [_flag_row(a) for a in p._actions
                      if not isinstance(a, argparse._HelpAction)]
               for path, p in _leaf_parsers(build_parser())}
    assert surface == {path: _COMMON_FLAGS + rows
                       for path, rows in _FLAG_SURFACE.items()}


def _listed_fields(table):
    for command in table.values():
        if isinstance(command.handler, dict):
            yield from _listed_fields(command.handler)
        else:
            yield from command.fields.split()


def test_every_setting_is_listed_by_a_command():
    # A field no command lists is a setting no run can change.
    assert set(_listed_fields(cli_mod.COMMANDS)) == {
        f.name for f in fields(cli_mod.RunConfig)}


@pytest.fixture(scope="module")
def untrained_checkpoint(tmp_path_factory):
    # A fresh denoiser's output conv is zero, so its prediction would ignore
    # the condition and every bank-entry gradient would be zero.
    d = diffusion.Denoiser(3, 8, 12, seed=0)
    w = d.conv4_w.value.data
    w[...] = np.random.default_rng(0).normal(size=w.shape) * 0.3
    path = tmp_path_factory.mktemp("ck") / "untrained.abdn"
    diffusion.save_checkpoint(d, path)
    return path


@pytest.fixture(scope="module")
def tiny_runs(dataset, untrained_checkpoint, tmp_path_factory):
    """Each command's settings for a tiny run: steps <= 3, width 8,
    positions 4, 8x8 images; pretrain's schedule has 10 timesteps, the
    others use the checkpoint's 100. Output paths are relative."""
    bank = str(tmp_path_factory.mktemp("bank") / "b.ispb")
    one = StyleBank()
    one.add(create_entry("checks", "checks", 12, 4, seed=0))
    save_bank(one, bank)
    checkpoint, content = str(untrained_checkpoint), str(dataset / "content.ppm")
    return {
        "pretrain": {"data_root": str(dataset), "checkpoint_path": "ck.abdn",
                     "steps": "2", "width": "8", "channels": "12",
                     "timesteps": "10", "loss_csv": "loss.csv"},
        "train-bank": {"data_root": str(dataset), "checkpoint_path": checkpoint,
                       "bank_path": "bank.ispb", "style_id": "checks",
                       "steps": "2", "positions": "4", "loss_csv": "loss.csv"},
        "stylize": {"checkpoint_path": checkpoint, "bank_path": bank,
                    "style_id": "checks", "content_path": content,
                    "out_path": "out.ppm"},
        "bench-attn": {"data_root": str(dataset), "checkpoint_path": checkpoint,
                       "style_id": "checks", "variants": "ssam,sanet",
                       "bench_seeds": "3", "positions": "4",
                       "out_path": "bench.csv"},
        "eval": {"content_path": content, "stylized_path": content,
                 "style_dir": str(dataset / "checks"), "out_path": "eval.csv"},
        "bank inspect": {"bank_path": bank},
    }


def _flags(command):
    """``command``'s flag actions by the setting they set."""
    parser = dict(_leaf_parsers(build_parser()))[command]
    return {a.dest: a for a in parser._actions
            if a.option_strings and a.dest != "help"}


def _argv(command, values):
    flags = _flags(command)
    argv = command.split()
    for dest, value in values.items():
        flag = flags[dest].option_strings[0]
        argv.append(flag if flags[dest].nargs == 0 else f"{flag}={value}")
    return argv


def test_tiny_runs_exit_0(tiny_runs, tmp_path, monkeypatch, capsys):
    # So the fuzz below starts from runs that work. bench-attn's would
    # train 6 jobs for up to 5,000 steps each.
    monkeypatch.chdir(tmp_path)
    for command, values in tiny_runs.items():
        if command != "bench-attn":
            assert run(_argv(command, values)) == 0


_HOSTILE = ("0", "-1", "1", "1000000000000", "nan", "inf", "\udcff")


def _refuse(*args, **kwargs):
    raise AssertionError("started a thread or a process")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hostile_settings_exit_0_or_2(tiny_runs, data):
    """Any of these values in any of a command's settings ends in exit 0, or
    exit 2 with an error line; never in a traceback. ``bench-attn`` always
    gets a ``--max-iters`` it refuses, so it stops before it reads the
    checkpoint or an image, or its worker pool starts. Each example runs in a
    fresh working directory."""
    command = data.draw(st.sampled_from(sorted(tiny_runs)))
    bench = command == "bench-attn"
    hostile = data.draw(st.dictionaries(st.sampled_from(sorted(_flags(command))),
                                        st.sampled_from(_HOSTILE),
                                        min_size=0 if bench else 1, max_size=2))
    if bench:
        hostile.setdefault("max_iters", data.draw(st.sampled_from(_HOSTILE)))
    argv = _argv(command, {**tiny_runs[command], **hostile})
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    reads = []

    def spy(read):
        return lambda *args: reads.append(args) or read(*args)

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(os, "fork", _refuse), \
            mock.patch.object(threading.Thread, "start", _refuse), \
            mock.patch.object(diffusion, "load_checkpoint",
                              spy(diffusion.load_checkpoint)), \
            mock.patch.object(data_io, "read_ppm", spy(data_io.read_ppm)):
        os.chdir(tmp)
        try:
            code = cli_mod.run(argv)
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code == 0 or (code == 2 and any("error:" in line for line in lines)), \
        (argv, code, lines)
    assert not (bench and reads), (argv, reads)


# Settings under which each command would run.
_RUNNABLE = {
    "pretrain": ["--seed", "7", "--steps", "1", "--width", "8", "--channels", "12"],
    "train-bank": ["--seed", "7", "--steps", "1", "--positions", "4"],
    "bench-attn": ["--seed", "7", "--bench-seeds", "3", "--max-iters", "100",
                   "--positions", "4"],
}


@pytest.mark.parametrize("command, setting, message", [
    *(pytest.param(command, source, "lr must be finite and positive, got 0.0",
                   id=f"{command}-{source}")
      for command in ("pretrain", "train-bank", "bench-attn")
      for source in ("flag", "config")),
    *(pytest.param(command, ["--lr", lr], f"lr must be finite and positive, got {got}",
                   id=f"{command}-lr-{lr}")
      for command, lr, got in (("pretrain", "-1", "-1.0"), ("pretrain", "nan", "nan"),
                               ("train-bank", "-1", "-1.0"))),
    *(pytest.param(command, ["--steps", steps],
                   f"steps must be at least 1, got {steps}",
                   id=f"{command}-steps-{steps}")
      for command, steps in (("pretrain", "0"), ("pretrain", "-3"),
                             ("train-bank", "0"))),
    # An empty value is no value.
    pytest.param("train-bank", ["--style-id", ""],
                 "train-bank requires --style-id", id="train-bank-no-style-id"),
    *(pytest.param("bench-attn", ["--threshold", value],
                   f"loss_threshold must be finite and positive, got {got}",
                   id=f"bench-attn-threshold-{value}")
      for value, got in (("0", "0.0"), ("nan", "nan"), ("-1", "-1.0"),
                         ("inf", "inf"))),
    pytest.param("bench-attn", ["--max-iters", "50"],
                 "max_iters must be at least the 100-step moving-average "
                 "window, got 50", id="bench-attn-max-iters-50"),
    pytest.param("bench-attn", ["--bench-seeds", "2"],
                 "the benchmark needs at least 3 seeds",
                 id="bench-attn-bench-seeds-2"),
    pytest.param("bench-attn", ["--variants", "film"],
                 "unknown attention variant: 'film'",
                 id="bench-attn-variants-film"),
    pytest.param("bench-attn", ["--variants", ","],
                 "variants must name at least one encoder",
                 id="bench-attn-variants-empty"),
    # Each variant is one row of the report, so a repeat would train and
    # print it twice.
    pytest.param("bench-attn", ["--variants", "ssam,ssam"],
                 "repeated attention variant: 'ssam'",
                 id="bench-attn-variants-repeated"),
    pytest.param("stylize", ["--strength", "0"],
                 "strength must lie in (0, 1]: 0.0", id="stylize-strength-0"),
    pytest.param("stylize", ["--out", ""], "stylize requires an output path",
                 id="stylize-no-out"),
    pytest.param("train-bank", ["--template", "no placeholder"],
                 "template must contain exactly one '*' token, found 0: "
                 "'no placeholder'", id="train-bank-template-no-placeholder"),
    pytest.param("train-bank", ["--artist", "x *"],
                 "prompt must contain exactly one '*' token, found 2: "
                 "'a painting by x * *'", id="train-bank-artist-placeholder"),
    *(pytest.param("train-bank", [f"--{key}", value], f"{key} must be valid UTF-8",
                   id=f"train-bank-{key}-undecodable")
      for key, value in (("artist", "\udcff"), ("template", "a \udcff *"))),
    *(pytest.param(command, ["--positions", size], message,
                   id=f"{command}-positions-{size}")
      for command in ("train-bank", "bench-attn")
      for size, message in (
          ("0", "entry positions must be at least 1, got 0"),
          ("100000", "an entry with positions=100000 needs a 74.5 GiB array; "
                     "the limit is 256 MiB per array"))),
    pytest.param("pretrain", ["--width", "1"],
                 "width must be >= 2 and cond_dim >= 1", id="pretrain-width-1"),
    pytest.param("pretrain", ["--channels", "0"],
                 "width must be >= 2 and cond_dim >= 1", id="pretrain-channels-0"),
    *(pytest.param("pretrain", ["--timesteps", steps],
                   f"timesteps must lie in [1, 10000], got {steps}",
                   id=f"pretrain-timesteps-{steps}") for steps in ("0", "10001")),
    # The same refusals with the value last, after settings that would run,
    # so a bad --steps or --max-iters overrides a good one.
    *(pytest.param(command, [*_RUNNABLE[command], flag, value], message,
                   id=f"{command}-{flag[2:]}-{value}-after-runnable-settings")
      for command, flag, value, message in (
          ("pretrain", "--steps", "0", "steps must be at least 1, got 0"),
          ("train-bank", "--steps", "0", "steps must be at least 1, got 0"),
          ("bench-attn", "--threshold", "0",
           "loss_threshold must be finite and positive, got 0.0"),
          ("bench-attn", "--max-iters", "50",
           "max_iters must be at least the 100-step moving-average window, "
           "got 50"),
          ("pretrain", "--timesteps", "10001",
           "timesteps must lie in [1, 10000], got 10001"))),
])
def test_setting_refused_before_any_file_is_read(dataset, untrained_checkpoint,
                                                 tmp_path, capsys, monkeypatch,
                                                 command, setting, message):
    """A setting that needs no file (``lr`` from a flag or a config file,
    and the others) is refused with one error line before the checkpoint,
    the bank or any image is read, and no output file is written."""
    reads = []
    for module, reader in ((diffusion, "load_checkpoint"),
                           (bank_mod, "load_bank"), (data_io, "read_ppm")):
        monkeypatch.setattr(module, reader, lambda *a: reads.append(a))
    out = tmp_path / "never"
    bank = tmp_path / "b.ispb"
    save_bank(StyleBank(), bank)
    entry = ["--checkpoint", str(untrained_checkpoint), "--style-id", "checks"]
    data = ["--data", str(dataset)]
    base = {"pretrain": [*data, "--checkpoint", str(out)],
            "train-bank": [*data, *entry, "--bank", str(out)],
            "bench-attn": [*data, *entry, "--out", str(out)],
            "stylize": [*entry, "--bank", str(bank), "--content",
                        str(dataset / "content.ppm"), "--out", str(out)]}[command]
    if setting == "flag":
        setting = ["--lr", "0"]
    elif setting == "config":
        cfg = tmp_path / "lr.cfg"
        cfg.write_text("lr = 0\n")
        setting = ["--config", str(cfg)]
    code = run([command, *base, *setting])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"artbank: error: {message}"]
    assert reads == []
    assert not out.exists()


def _pool(root, names, per_dir=2):
    """A pretraining pool under ``root``: one directory per name, each with
    ``per_dir`` images."""
    for name in names:
        sub = root / name
        sub.mkdir(parents=True)
        for i, img in enumerate(gen_style_collection(
                default_style_specs()["checks"], per_dir, 8, seed=1)):
            write_ppm(img, sub / f"img_{i}.ppm")
    return root


def test_pool_directory_prompt_refused_before_any_file_is_read(
        tmp_path, capsys, monkeypatch):
    """A pool directory whose name adds a second placeholder token to its
    prompt is refused before any image or checkpoint is read."""
    root = _pool(tmp_path / "data", ["stripes", "x *"])
    reads = []
    for module, reader in ((diffusion, "load_checkpoint"),
                           (bank_mod, "load_bank"), (data_io, "read_ppm")):
        monkeypatch.setattr(module, reader, lambda *a: reads.append(a))
    out = tmp_path / "never.abdn"
    code = run(["pretrain", "--data", str(root), "--checkpoint", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "artbank: error: prompt must contain exactly one '*' token, found 2: "
        "'a painting by x * *'"]
    assert reads == []
    assert not out.exists()


def test_pool_skips_an_empty_directory_whatever_its_name(tmp_path, capsys):
    root = _pool(tmp_path / "data", ["stripes", "checks"])
    (root / "x *").mkdir()
    out = tmp_path / "ck.abdn"
    code = run(["pretrain", "--data", str(root), "--checkpoint", str(out),
                "--steps", "1", "--width", "8", "--channels", "12",
                "--timesteps", "20"])
    assert code == 0 and out.is_file()
    assert "pretrained 1 steps on 4 images;" in capsys.readouterr().out


def test_pool_directory_trains_under_its_own_name(tmp_path):
    """A directory named ``Mo{artist}net`` is not pretrained on as ``Monet``."""
    def checkpoint(name):
        root = _pool(tmp_path / name / "data", [name])
        out = tmp_path / name / "ck.abdn"
        assert run(["pretrain", "--data", str(root), "--checkpoint", str(out),
                    "--steps", "3", "--width", "8", "--channels", "12",
                    "--timesteps", "20"]) == 0
        return out.read_bytes()

    assert checkpoint("Mo{artist}net") != checkpoint("Monet")


@pytest.mark.parametrize("command, size, gib", [
    # The 100000 x 100000 attention map alone would need 74.5 GiB.
    pytest.param("train-bank", ["--positions", "100000"], "74.5", id="train-bank"),
    pytest.param("bench-attn", ["--positions", "100000"], "74.5", id="bench-attn"),
    # conv2's 200000 x 200000 x 3 x 3 kernel, and the 8 x 1e11 key projection.
    pytest.param("pretrain", ["--width", "200000"], "2682.2", id="pretrain-width"),
    pytest.param("pretrain", ["--width", "8", "--channels", "100000000000"],
                 "5960.5", id="pretrain-channels"),
    # Over the step-count range, which bounds the schedule's values.
    pytest.param("pretrain", ["--timesteps", "1000000000000000"],
                 "timesteps must lie in [1, 10000], got 1000000000000000",
                 id="pretrain-timesteps"),
])
def test_oversized_setting_exits_2(dataset, untrained_checkpoint, tmp_path,
                                   capsys, command, size, gib):
    out = tmp_path / "never"
    entry = ["--checkpoint", str(untrained_checkpoint), "--style-id", "checks"]
    target = {"train-bank": [*entry, "--bank", str(out), "--steps", "1"],
              "bench-attn": [*entry, "--out", str(out), "--bench-seeds", "3",
                             "--max-iters", "100"],
              "pretrain": ["--checkpoint", str(out), "--steps", "1"]}[command]
    code = run([command, "--data", str(dataset), *target, *size])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("artbank: error:")
    # ``gib`` is the GiB figure of a budget refusal, or the whole message.
    assert err[0] == f"artbank: error: {gib}" or (
        f"{gib} GiB" in err[0] and "256 MiB per array" in err[0])
    assert not out.exists()


@pytest.mark.parametrize("command, counts, gib", [
    # 3 default variants x 1e12 seeds x 5,000 steps of float64 losses.
    ("bench-attn", ["--bench-seeds", "1000000000000"], "111758709.0"),
    # No variant: refused by the empty-variants rule before the count.
    pytest.param("bench-attn", ["--variants", ",", "--bench-seeds",
                                "1000000000000"],
                 "variants must name at least one encoder",
                 id="bench-attn-no-variant"),
    ("bench-attn", ["--max-iters", "1000000000000"], "111758.7"),
    ("pretrain", ["--steps", "1000000000000"], "7450.6"),
    ("train-bank", ["--steps", "1000000000000"], "7450.6"),
])
def test_terabyte_count_refused_before_any_file_is_read(tmp_path, capsys,
                                                       monkeypatch, command,
                                                       counts, gib):
    # A seed derived or a file read (none exists) would fail otherwise.
    def no_seed(*args):
        raise AssertionError("derived a seed")

    monkeypatch.setattr(cli_mod, "derive_seed", no_seed)
    missing = tmp_path / "missing"
    paths = {"pretrain": ["--checkpoint", str(missing)],
             "train-bank": ["--checkpoint", str(missing), "--bank", str(missing),
                            "--style-id", "checks"],
             "bench-attn": ["--checkpoint", str(missing), "--style-id",
                            "checks"]}[command]
    code = run([command, "--data", str(missing), *paths, *counts])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("artbank: error:")
    # ``gib`` is the GiB figure of a budget refusal, or the whole message.
    assert err[0] == f"artbank: error: {gib}" or (
        f"needs a {gib} GiB array" in err[0] and "256 MiB per array" in err[0])


@pytest.mark.parametrize("lr, diverged", [("1e10", True), ("1e-3", False)])
def test_pretrain_summary_says_when_training_diverged(dataset, tmp_path,
                                                      capsys, lr, diverged):
    ck = tmp_path / "ck.abdn"
    code = run(["pretrain", "--data", str(dataset), "--checkpoint", str(ck),
                "--steps", "20", "--width", "8", "--channels", "12",
                "--timesteps", "20", "--seed", "7", "--lr", lr])
    assert code == 0 and ck.is_file()
    summary = capsys.readouterr().out.splitlines()[-1]
    assert ("training diverged: each of the last 19 losses is above the "
            "step-1 loss" in summary) is diverged


@pytest.mark.parametrize("command", ["pretrain", "train-bank"])
def test_trainer_summary_ends_with_wall_time_and_rate(dataset, untrained_checkpoint,
                                                      tmp_path, capsys, command):
    out = tmp_path / "artifact"
    target = {"pretrain": ["--checkpoint", str(out), "--width", "8",
                           "--channels", "12", "--timesteps", "20"],
              "train-bank": ["--checkpoint", str(untrained_checkpoint), "--bank",
                             str(out), "--style-id", "checks", "--positions",
                             "4"]}[command]
    code = run([command, "--data", str(dataset), "--steps", "3", *target])
    assert code == 0 and out.is_file()
    summary = capsys.readouterr().out.splitlines()[-1]
    m = re.search(r"; in (\d+\.\d\d) s \((\d+\.\d) steps/s\)$", summary)
    assert m and float(m[2]) > 0, summary
    assert f"-> {out}; in " in summary


@pytest.mark.parametrize("budget, what", [
    (4096, "a 16x16 image"),  # under the content's 6,144 pixel bytes
    (100_000, "the content image of 16x16 pixels at denoiser width=8"),
])
def test_oversized_content_image_exits_2(untrained_checkpoint, tmp_path, capsys,
                                         monkeypatch, budget, what):
    content = tmp_path / "big.ppm"
    write_ppm(gen_content_image("photo", 16, seed=1), content)
    monkeypatch.setattr(tensor_mod, "MAX_ARRAY_BYTES", budget)
    bank = StyleBank()
    bank.add(create_entry("checks", "checks", 12, 4, seed=0))
    save_bank(bank, tmp_path / "b.ispb")
    out = tmp_path / "never.ppm"
    code = run(["stylize", "--checkpoint", str(untrained_checkpoint), "--bank",
                str(tmp_path / "b.ispb"), "--style-id", "checks", "--content",
                str(content), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1, err
    assert err[0].startswith(f"artbank: error: {what} needs a 0.0 GiB array")
    assert not out.exists()


def _stylize_argv(checkpoint, bank, content, out):
    return ["stylize", "--checkpoint", str(checkpoint), "--bank", str(bank),
            "--style-id", "checks", "--content", str(content), "--out", str(out)]


@pytest.mark.parametrize("over", ["warn", "raise"])
def test_huge_stored_value_exits_2(dataset, untrained_checkpoint, tmp_path,
                                   capsys, over):
    # A finite but huge style-matrix value overflows in the encoder. Under
    # pytest.ini's filter numpy's warning is raised as a RuntimeWarning;
    # under errstate(over="raise") as a FloatingPointError.
    bank = StyleBank()
    entry = create_entry("checks", "checks", 12, 4, seed=0)
    entry.i_m.value.data[0, 0] = 1e200
    bank.add(entry)
    save_bank(bank, tmp_path / "huge.ispb")
    out = tmp_path / "never.ppm"
    with np.errstate(over=over):
        code = run(_stylize_argv(untrained_checkpoint, tmp_path / "huge.ispb",
                                 dataset / "content.ppm", out))
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1, err
    assert err[0].startswith("artbank: error: overflow encountered in "), err
    assert not out.exists()


def test_gray_content_against_rgb_checkpoint_exits_2(untrained_checkpoint,
                                                      tiny_runs, tmp_path, capsys):
    content = tmp_path / "gray.pgm"
    write_ppm(gen_content_image("shapes", 8, seed=5, channels=1), content)
    out = tmp_path / "never.ppm"
    code = run(_stylize_argv(untrained_checkpoint, tiny_runs["stylize"]["bank_path"],
                             content, out))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "artbank: error: the content image has 1 channels, the denoiser takes "
        "in_channels=3"]
    assert not out.exists()


# The files each reading command takes, by setting: a mutated copy of one
# replaces it.
_READ_FILES = {"stylize": ("checkpoint_path", "bank_path", "content_path"),
               "bank inspect": ("bank_path",),
               "eval": ("content_path", "stylized_path")}


def _mutated(raw, data):
    """``raw`` cut short, or with one to three bits flipped."""
    if data.draw(st.booleans()):
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    for pos, bit in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                                 st.integers(0, 7)),
                                       min_size=1, max_size=3)):
        out[pos] ^= 1 << bit
    return bytes(out)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupt_files_exit_0_or_2(tiny_runs, data):
    """A truncated or bit-flipped copy of a tiny checkpoint, bank or PPM
    ends in exit 0, or exit 2 with one error line; never in a traceback.
    Each example runs in a fresh working directory."""
    command = data.draw(st.sampled_from(sorted(_READ_FILES)))
    setting = data.draw(st.sampled_from(_READ_FILES[command]))
    values = dict(tiny_runs[command])
    with open(values[setting], "rb") as fh:
        raw = _mutated(fh.read(), data)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(os, "fork", _refuse), \
            mock.patch.object(threading.Thread, "start", _refuse):
        os.chdir(tmp)
        try:
            with open("mutated", "wb") as fh:
                fh.write(raw)
            values[setting] = os.path.join(tmp, "mutated")
            code = cli_mod.run(_argv(command, values))
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code == 0 and lines == [] or (
        code == 2 and len(lines) == 1 and lines[0].startswith("artbank: error: ")), \
        (command, setting, code, lines)


def test_config_value_outside_choices_exits_2(tiny_runs, tmp_path,
                                              monkeypatch, capsys):
    # Refused before the (missing) checkpoint is read.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "film.cfg").write_text("attention = film\n")
    values = {**tiny_runs["train-bank"], "checkpoint_path": "missing.abdn"}
    assert run([*_argv("train-bank", values), "--config", "film.cfg"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "artbank: error: config key 'attention': invalid choice 'film' "
        "(choose from ssam, adaattn)"]


def test_config_line_lists_the_file_keys(tiny_runs, tmp_path, monkeypatch,
                                         capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("attention = adaattn\nsteps = 5\n")
    assert run([*_argv("train-bank", tiny_runs["train-bank"]),
                "--config", "run.cfg"]) == 0
    config = capsys.readouterr().out.splitlines()[0].split()
    assert "attention='adaattn'" in config and "steps=2" in config  # flag wins


def test_undecodable_config_file_exits_2(dataset, untrained_checkpoint,
                                         tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"artist = Andr\xe9\n")
    out = tmp_path / "never"
    code = run(["train-bank", "--config", str(cfg), "--data", str(dataset),
                "--checkpoint", str(untrained_checkpoint), "--bank", str(out),
                "--style-id", "checks", "--positions", "4", "--steps", "1"])
    assert code == 2
    assert f"config file {cfg} is not valid UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_bank_inspect_empty_bank(tmp_path, capsys):
    path = tmp_path / "empty.ispb"
    save_bank(StyleBank(), path)
    code = run(["bank", "inspect", "--bank", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == f"config: bank_path={str(path)!r}"  # no seed
    assert "0 entries" in out


def test_bank_inspect_lists_entries(tmp_path, capsys):
    path = tmp_path / "two.ispb"
    bank = StyleBank()
    bank.add(create_entry("alpha", "Artist A", 6, 3, seed=1))
    bank.add(create_entry("beta", "Artist B", 6, 3, seed=2))
    save_bank(bank, path)
    code = run(["bank", "inspect", "--bank", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "alpha" in out and "beta" in out and "C=6" in out


def test_bank_inspect_corrupt_string_exits_2(tmp_path, capsys):
    bank = StyleBank()
    bank.add(create_entry("alpha", "Artist A", 6, 3, seed=1))
    raw = bytearray(bank_bytes(bank))
    raw[14] = 0xFF  # first style id byte
    path = tmp_path / "corrupt.ispb"
    path.write_bytes(bytes(raw))
    code = run(["bank", "inspect", "--bank", str(path)])
    assert code == 2
    assert "style_id is not valid UTF-8" in capsys.readouterr().err


def test_unknown_flag_nonzero_exit(capsys):
    # The vocabulary is fixed and ``train-bank --template '*'`` makes the
    # drop-text entry, so neither has a flag; the checkpoint sets an entry's
    # width; ``eval`` and ``bank inspect`` draw no randomness, so they take
    # no seed.
    for argv in (["stylize", "--frobnicate"], ["pretrain", "--vocab-seed", "5"],
                 ["train-bank", "--drop-text"], ["train-bank", "--channels", "12"],
                 ["bench-attn", "--channels", "12"], ["eval", "--seed", "5"],
                 ["bank", "inspect", "--seed", "42"]):
        assert run(argv) == 2


def test_missing_file_nonzero_exit(tmp_path, capsys):
    code = run(["stylize", "--checkpoint", str(tmp_path / "nope.abdn"),
                "--bank", str(tmp_path / "nope.ispb"),
                "--style-id", "x", "--content", str(tmp_path / "c.ppm"),
                "--out", str(tmp_path / "o.ppm")])
    assert code != 0
    assert "not found" in capsys.readouterr().err


def test_eval_empty_directories_exit_2(tmp_path, capsys):
    content, stylized = tmp_path / "c", tmp_path / "s"
    content.mkdir()
    stylized.mkdir()
    out = tmp_path / "e.csv"
    code = run(["eval", "--content", str(content), "--stylized",
                str(stylized), "--out", str(out)])
    assert code == 2
    assert f"no .ppm/.pgm images under {content}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_empty_style_dir_exits_2(dataset, tmp_path, capsys):
    style = tmp_path / "style"
    style.mkdir()
    content = str(dataset / "content.ppm")
    out = tmp_path / "e.csv"
    code = run(["eval", "--content", content, "--stylized", content,
                "--style-dir", str(style), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"artbank: error: no .ppm/.pgm images under {style}"]
    assert not out.exists()


def test_eval_style_score_below_5x5_exits_2(tmp_path, capsys):
    dirs = {name: tmp_path / name for name in ("c", "s", "style")}
    for d in dirs.values():
        d.mkdir()
    write_ppm(gen_content_image("shapes", 4, seed=1), dirs["c"] / "a.ppm")
    write_ppm(gen_content_image("photo", 4, seed=2), dirs["s"] / "a.ppm")
    write_ppm(gen_content_image("photo", 4, seed=3), dirs["style"] / "b.ppm")
    out = tmp_path / "e.csv"
    code = run(["eval", "--content", str(dirs["c"]), "--stylized",
                str(dirs["s"]), "--style-dir", str(dirs["style"]),
                "--out", str(out)])
    assert code == 2
    assert "at least 5x5" in capsys.readouterr().err
    assert not out.exists()


def test_runs_print_config_and_seed(dataset, tmp_path, capsys):
    pretrain = ["pretrain", "--data", str(dataset), "--checkpoint",
                str(tmp_path / "ck.abdn"), "--steps", "1", "--width", "8",
                "--channels", "12"]
    for seed, shown in ((["--seed", "42"], "seed=42"), ([], "seed=0")):
        assert run([*pretrain, *seed]) == 0
        config = capsys.readouterr().out.splitlines()[0]
        assert config.startswith("config:") and shown in config.split()


def _bench_attn(dataset, checkpoint, out):
    return run(["bench-attn", "--data", str(dataset), "--checkpoint",
                str(checkpoint), "--style-id", "checks", "--positions", "4",
                "--bench-seeds", "3", "--max-iters", "300",
                "--threshold", "1.0", "--variants", "ssam,sanet", "--seed", "7",
                "--out", str(out)])


def test_entry_width_comes_from_the_checkpoint(dataset, untrained_checkpoint,
                                               tmp_path, capsys):
    # No flag sets the width: both commands make 12-wide entries for the
    # 12-wide checkpoint.
    bank_path = tmp_path / "b.ispb"
    assert run(["train-bank", "--data", str(dataset), "--checkpoint",
                str(untrained_checkpoint), "--bank", str(bank_path),
                "--style-id", "checks", "--steps", "2", "--positions", "4"]) == 0
    assert _bench_attn(dataset, untrained_checkpoint, tmp_path / "b.csv") == 0
    capsys.readouterr()
    assert run(["bank", "inspect", "--bank", str(bank_path)]) == 0
    assert "checks: artist='checks' template='a painting by {artist} *' C=12 N=4" \
        in capsys.readouterr().out


@pytest.mark.parametrize("command, value", [
    ("stylize", "50"), ("stylize", "1000"), ("train-bank", "7"),
    ("bench-attn", "10"),
])
def test_schedule_flag_exits_2(tiny_runs, tmp_path, monkeypatch, capsys,
                               command, value):
    # The 100-step checkpoint sets the schedule: no flag can name another.
    monkeypatch.chdir(tmp_path)
    assert run([*_argv(command, tiny_runs[command]), "--timesteps", value]) == 2
    assert "unrecognized arguments: --timesteps" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_version_1_checkpoint_exits_2(tiny_runs, untrained_checkpoint,
                                      tmp_path, monkeypatch, capsys):
    # The version-1 layout of the same network: no timesteps field.
    raw = untrained_checkpoint.read_bytes()
    v1 = tmp_path / "v1.abdn"
    v1.write_bytes(raw[:4] + struct.pack("<H", 1) + raw[6:18] + raw[22:])
    monkeypatch.chdir(tmp_path)
    for command in ("train-bank", "stylize", "bench-attn"):
        values = {**tiny_runs[command], "checkpoint_path": str(v1)}
        assert run(_argv(command, values)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "artbank: error: unsupported checkpoint version: 1"]
    assert list(tmp_path.iterdir()) == [v1]


def test_train_bank_changes_the_entry_it_creates(tiny_runs, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(_argv("train-bank", tiny_runs["train-bank"])) == 0
    created = StyleBank()
    created.add(create_entry("checks", "checks", 12, 4,
                             seed=derive_seed(0, "entry:checks")))
    assert (tmp_path / "bank.ispb").read_bytes() != bank_bytes(created)


def test_bench_attn_csv_same_bytes_pooled_and_in_process(
        dataset, untrained_checkpoint, tmp_path, capsys, monkeypatch):
    csv = {}
    for workers in (2, 1):
        monkeypatch.setattr(metrics, "_workers",
                            lambda jobs, environ, cores: min(jobs, workers))
        csv[workers] = tmp_path / f"bench-{workers}.csv"
        assert _bench_attn(dataset, untrained_checkpoint, csv[workers]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        where = "in-process" if workers == 1 else "on 2 worker processes"
        assert re.fullmatch(rf"6 jobs {where} in [0-9.]+ s \([0-9.]+ jobs/s\)",
                            summary)
    assert csv[2].read_bytes() == csv[1].read_bytes()
    assert "ssam,4877073297239533922,110,1," in csv[1].read_text()


def test_bench_attn_seeds_are_criterion_07s(dataset, untrained_checkpoint,
                                            tmp_path, capsys, monkeypatch):
    # bench-attn and desk.convergence (criterion 07 and scripts/reproduce.py)
    # train at the same seeds for the same root seed.
    out = tmp_path / "bench.csv"
    assert run(["bench-attn", "--data", str(dataset), "--checkpoint",
                str(untrained_checkpoint), "--style-id", "checks",
                "--positions", "4", "--bench-seeds", "3", "--max-iters", "100",
                "--variants", "ssam", "--seed", "7", "--out", str(out)]) == 0
    csv_seeds = [int(row.split(",")[1])
                 for row in out.read_text().splitlines()[1:]]
    seen = []
    monkeypatch.setattr(desk, "convergence_benchmark",
                        lambda d, images, variants, seeds, **kw: seen.append(seeds))
    base = SimpleNamespace(backbone=None, style_collection=None, sched=None,
                           root_seed=7)
    desk.convergence(base, ["ssam"], n_seeds=3)
    assert csv_seeds == seen[0] and len(set(csv_seeds)) == 3


def test_bench_attn_worker_error_exits_2(dataset, untrained_checkpoint,
                                         tmp_path, capsys, monkeypatch):
    gray = tmp_path / "gray" / "checks"
    gray.mkdir(parents=True)
    spec = default_style_specs()["checks"]
    for i, img in enumerate(gen_style_collection(spec, 3, 8, seed=3)):
        write_ppm(ImageSample.from_array(img.pixels.mean(axis=2)),
                  gray / f"img_{i}.pgm")
    monkeypatch.setattr(metrics, "_workers",
                        lambda jobs, environ, cores: min(jobs, 2))
    out = tmp_path / "never.csv"
    # Refused before the pool starts.
    assert _bench_attn(gray.parent, untrained_checkpoint, out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("artbank: error: image 0 has 1")

    def fails(*args, **kwargs):
        raise DimensionError("raised in a training job")

    # Raised inside a worker.
    monkeypatch.setattr(metrics, "train_ispb", fails)
    assert _bench_attn(dataset, untrained_checkpoint, out) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["artbank: error: raised in a training job"]
    assert not out.exists()


class TestPipeline:
    def test_full_pipeline_and_determinism(self, dataset, tmp_path, capsys):
        ck = tmp_path / "backbone.abdn"
        bank_path = tmp_path / "styles.ispb"
        out_img = tmp_path / "styled.ppm"
        style_args = ["stylize", "--checkpoint", str(ck), "--bank",
                      str(bank_path), "--style-id", "checks", "--content",
                      str(dataset / "content.ppm"), "--out", str(out_img),
                      "--strength", "0.5", "--seed", "7"]

        code = run(["pretrain", "--data", str(dataset), "--checkpoint",
                    str(ck), "--steps", "60", "--width", "8", "--channels",
                    "12", "--timesteps", "20", "--seed", "7"])
        assert code == 0
        assert ck.is_file()

        code = run(["train-bank", "--data", str(dataset), "--checkpoint",
                    str(ck), "--bank", str(bank_path), "--style-id", "checks",
                    "--steps", "40", "--positions", "4", "--seed", "7"])
        assert code == 0
        assert bank_path.is_file()

        assert run(style_args) == 0
        first = out_img.read_bytes()
        img = read_ppm(out_img)
        assert img.width == 8 and img.height == 8

        # identical config + seed => byte-identical artifacts
        assert run(style_args) == 0
        assert out_img.read_bytes() == first
        capsys.readouterr()

    def test_pipeline_artifacts_pinned(self, dataset, tmp_path, capsys):
        """The CLI chain's files, by SHA-256: checkpoint, bank, stylized PPM
        and both trainers' loss CSVs.

        Like ``tests/test_desk.py``'s pins, the values hold for numpy 2.4.6
        with the scipy-openblas 0.3.31 BLAS on x86-64; another numpy or BLAS
        build may round differently. A change that moves any of them must
        say so and pin the new ones.
        """
        files = {name: tmp_path / name for name in (
            "backbone.abdn", "styles.ispb", "styled.ppm", "pretrain.csv",
            "bank.csv")}
        assert run(["pretrain", "--data", str(dataset), "--checkpoint",
                    str(files["backbone.abdn"]), "--steps", "12", "--width",
                    "8", "--channels", "12", "--loss-csv",
                    str(files["pretrain.csv"]), "--seed", "3",
                    "--timesteps", "10"]) == 0
        assert run(["train-bank", "--data", str(dataset), "--checkpoint",
                    str(files["backbone.abdn"]), "--bank",
                    str(files["styles.ispb"]), "--style-id", "stripes",
                    "--steps", "8", "--positions", "4", "--loss-csv",
                    str(files["bank.csv"]), "--seed", "3"]) == 0
        assert run(["stylize", "--checkpoint", str(files["backbone.abdn"]),
                    "--bank", str(files["styles.ispb"]), "--style-id",
                    "stripes", "--content", str(dataset / "content.ppm"),
                    "--out", str(files["styled.ppm"]), "--strength", "0.5",
                    "--seed", "3"]) == 0
        capsys.readouterr()
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in files.items()}
        assert digests == {
            "backbone.abdn":
                "690bfe09959f60967ce18012c6fcba3574cf7d204c75e1b3e6d71ac07143fde9",
            "styles.ispb":
                "006630e6cdc1619e64842f3c8385efb846648a23d3d51fb89a21c0a61085d4ed",
            "styled.ppm":
                "b6ba660ba495f1b07efa3d0200e081fbd6927c51e11f646cf81154c5bcca6602",
            "pretrain.csv":
                "71367e276d433e0d2611bf51f1d6764dd60e58f995c3725be9d739c195916f2a",
            "bank.csv":
                "dedd815b7431c20f22c577c262300fdab5095e9899b404b337aa21c532fba0f8",
        }

    def test_duplicate_style_id_rejected(self, tiny_runs, tmp_path,
                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = _argv("train-bank", tiny_runs["train-bank"])
        assert run(args) == 0
        assert run(args) != 0
        assert "already present" in capsys.readouterr().err

    def test_duplicate_style_id_refused_before_training(
            self, dataset, untrained_checkpoint, tmp_path, capsys, monkeypatch):
        bank_path = tmp_path / "s6.ispb"
        existing = StyleBank()
        existing.add(create_entry("stripes", "a", 12, 4, seed=1))
        save_bank(existing, bank_path)
        before = bank_path.read_bytes()
        calls = []
        monkeypatch.setattr(diffusion, "train_ispb",
                            lambda *a, **k: calls.append(a) or [])
        code = run(["train-bank", "--data", str(dataset), "--checkpoint",
                    str(untrained_checkpoint), "--bank", str(bank_path),
                    "--style-id", "stripes", "--steps", "2", "--positions", "4"])
        assert code == 2
        assert "already present" in capsys.readouterr().err
        assert calls == []
        assert bank_path.read_bytes() == before

    def test_sanet_from_config_file_rejected(self, tiny_runs, tmp_path,
                                             monkeypatch, capsys):
        # The bank format has no slot for sanet's output projection, so the
        # choices refuse it, by flag or by file, before the (missing)
        # checkpoint is read.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sanet.cfg").write_text("attention = sanet\n")
        values = {**tiny_runs["train-bank"], "checkpoint_path": "missing.abdn"}
        assert run([*_argv("train-bank", values), "--config", "sanet.cfg"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "artbank: error: config key 'attention': invalid choice 'sanet' "
            "(choose from ssam, adaattn)"]
        assert run(_argv("train-bank", {**values, "attention": "sanet"})) == 2
        assert "invalid choice: 'sanet'" in capsys.readouterr().err
        assert not (tmp_path / "bank.ispb").exists()

    def test_drop_text_entry_from_bare_template(self, tiny_runs, tmp_path,
                                                monkeypatch, capsys):
        # The text ablation: an entry whose prompt is the placeholder alone.
        monkeypatch.chdir(tmp_path)
        assert run(_argv("train-bank",
                         {**tiny_runs["train-bank"], "template": "*"})) == 0
        capsys.readouterr()
        assert run(["bank", "inspect", "--bank", "bank.ispb"]) == 0
        assert "checks: artist='checks' template='*'" in capsys.readouterr().out
        assert run(_argv("stylize",
                         {**tiny_runs["stylize"], "bank_path": "bank.ispb"})) == 0
        assert read_ppm(tmp_path / "out.ppm").width == 8

    def test_stylize_unknown_style_id(self, tiny_runs, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.chdir(tmp_path)
        code = run(_argv("stylize", {**tiny_runs["stylize"], "style_id": "plaid"}))
        assert code != 0
        assert "plaid" in capsys.readouterr().err

    def test_dimension_mismatch_between_checkpoint_and_bank(
            self, dataset, untrained_checkpoint, tmp_path, capsys):
        # The checkpoint sets the width of the entries trained for it, so
        # only two files can disagree: a 16-wide entry, a 12-wide backbone.
        bank = StyleBank()
        bank.add(create_entry("checks", "checks", 16, 4, seed=0))
        save_bank(bank, tmp_path / "s3.ispb")
        out = tmp_path / "never.ppm"
        code = run(["stylize", "--checkpoint", str(untrained_checkpoint),
                    "--bank", str(tmp_path / "s3.ispb"), "--style-id", "checks",
                    "--content", str(dataset / "content.ppm"), "--out",
                    str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "artbank: error: bank entry width 16 does not match checkpoint "
            "condition width 12"]
        assert not out.exists()

    def test_eval_subcommand(self, dataset, tmp_path, capsys):
        out_csv = tmp_path / "eval.csv"
        content = dataset / "content.ppm"
        code = run(["eval", "--content", str(content), "--stylized",
                    str(content), "--style-dir", str(dataset / "checks"),
                    "--out", str(out_csv)])
        assert code == 0
        text = out_csv.read_text()
        assert "ssim" in text.splitlines()[0]
        assert "1.0" in text  # self-similarity
        capsys.readouterr()

    def test_loss_csv_emitted(self, dataset, tmp_path, capsys):
        ck = tmp_path / "b4.abdn"
        loss_csv = tmp_path / "loss.csv"
        code = run(["pretrain", "--data", str(dataset), "--checkpoint",
                    str(ck), "--steps", "8", "--width", "8", "--channels",
                    "12", "--timesteps", "10", "--seed", "1",
                    "--loss-csv", str(loss_csv)])
        assert code == 0
        lines = loss_csv.read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 9
        capsys.readouterr()
