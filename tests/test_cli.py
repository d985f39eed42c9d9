"""End-to-end CLI behavior with a tiny on-disk dataset."""

import argparse

import numpy as np
import pytest

import artbank.diffusion as diffusion
from artbank.bank import StyleBank, bank_bytes, create_entry, save_bank
from artbank.cli import build_config, build_parser, parse_config_file, run
from artbank.data_io import (default_style_specs, gen_content_image,
                             gen_style_collection, read_ppm, write_ppm)
from artbank.errors import ConfigError


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
    cfg = tmp_path / "typed.cfg"
    cfg.write_text("steps = 12\nlr = 0.01\ndrop_text = yes\n"
                   "no_inversion = off\ntemplate = a photo *\n")
    args = build_parser().parse_args(["bank", "inspect", "--config", str(cfg)])
    resolved = build_config(args)
    assert resolved.steps == 12 and type(resolved.steps) is int
    assert resolved.lr == 0.01 and type(resolved.lr) is float
    assert resolved.drop_text is True and resolved.no_inversion is False
    assert resolved.template == "a photo *"
    for bad in ("steps = 1.5", "lr = fast", "drop_text = maybe"):
        cfg.write_text(bad + "\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            build_config(args)


# Every subcommand's flags as (option strings, dest, type or const, choices).
_COMMON_FLAGS = [
    (("--config",), "config", "str", None),
    (("--seed",), "seed", "int", None),
    (("--vocab-seed",), "vocab_seed", "int", None),
]
_FLAG_SURFACE = {
    "pretrain": [
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
        (("--data",), "data_root", "str", None),
        (("--checkpoint",), "checkpoint_path", "str", None),
        (("--bank",), "bank_path", "str", None),
        (("--style-id",), "style_id", "str", None),
        (("--artist",), "artist", "str", None),
        (("--template",), "template", "str", None),
        (("--steps",), "steps", "int", None),
        (("--channels",), "channels", "int", None),
        (("--positions",), "positions", "int", None),
        (("--timesteps",), "timesteps", "int", None),
        (("--lr",), "lr", "float", None),
        (("--attention",), "attention", "str", ("ssam", "adaattn", "sanet")),
        (("--drop-text",), "drop_text", "const=True", None),
        (("--loss-csv",), "loss_csv", "str", None),
    ],
    "stylize": [
        (("--checkpoint",), "checkpoint_path", "str", None),
        (("--bank",), "bank_path", "str", None),
        (("--style-id",), "style_id", "str", None),
        (("--content",), "content_path", "str", None),
        (("--out",), "out_path", "str", None),
        (("--strength",), "strength", "float", None),
        (("--timesteps",), "timesteps", "int", None),
        (("--no-inversion",), "no_inversion", "const=True", None),
    ],
    "bench-attn": [
        (("--data",), "data_root", "str", None),
        (("--checkpoint",), "checkpoint_path", "str", None),
        (("--style-id",), "style_id", "str", None),
        (("--variants",), "variants", "str", None),
        (("--bench-seeds",), "bench_seeds", "int", None),
        (("--threshold",), "threshold", "float", None),
        (("--max-iters",), "max_iters", "int", None),
        (("--channels",), "channels", "int", None),
        (("--positions",), "positions", "int", None),
        (("--timesteps",), "timesteps", "int", None),
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


@pytest.mark.parametrize("vocab_seed", ["-1", str(2**64)])
def test_out_of_range_vocab_seed_exits_2(dataset, tmp_path, capsys, vocab_seed):
    ck = tmp_path / "never.abdn"
    code = run(["pretrain", "--data", str(dataset), "--checkpoint", str(ck),
                "--steps", "1", "--width", "8", "--vocab-seed", vocab_seed])
    assert code == 2
    assert "vocab_seed must lie in" in capsys.readouterr().err
    assert not ck.exists()


@pytest.fixture(scope="module")
def untrained_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ck") / "untrained.abdn"
    diffusion.save_checkpoint(diffusion.Denoiser(3, 8, 12, seed=0), path)
    return path


@pytest.mark.parametrize("command, flag, value", [
    ("pretrain", "--lr", "-1"),
    ("pretrain", "--lr", "nan"),
    ("train-bank", "--lr", "-1"),
    ("pretrain", "--steps", "0"),
    ("pretrain", "--steps", "-3"),
    ("train-bank", "--steps", "0"),
    ("train-bank", "--artist", "\udcff"),
    ("train-bank", "--template", "a \udcff *"),
    ("bench-attn", "--variants", ","),
    ("bench-attn", "--max-iters", "50"),
    ("bench-attn", "--threshold", "0"),
    ("bench-attn", "--threshold", "nan"),
    ("bench-attn", "--threshold", "-1"),
    ("bench-attn", "--threshold", "inf"),
])
def test_unusable_training_setting_exits_2(dataset, untrained_checkpoint,
                                           tmp_path, capsys, command, flag,
                                           value):
    out = tmp_path / "never"
    common = ["--data", str(dataset), "--channels", "12", "--seed", "7"]
    args = {
        "pretrain": ["--checkpoint", str(out), "--steps", "1", "--width", "8"],
        "train-bank": ["--checkpoint", str(untrained_checkpoint), "--bank",
                       str(out), "--style-id", "checks", "--steps", "1",
                       "--positions", "4"],
        "bench-attn": ["--checkpoint", str(untrained_checkpoint), "--out",
                       str(out), "--style-id", "checks", "--bench-seeds", "3",
                       "--max-iters", "100", "--positions", "4"],
    }[command]
    code = run([command, *common, *args, flag, value])
    assert code == 2
    assert f"{flag[2:].replace('-', '_')} must" in capsys.readouterr().err
    assert not out.exists()


def test_undecodable_config_file_exits_2(dataset, untrained_checkpoint,
                                         tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"artist = Andr\xe9\n")
    out = tmp_path / "never"
    code = run(["train-bank", "--config", str(cfg), "--data", str(dataset),
                "--checkpoint", str(untrained_checkpoint), "--bank", str(out),
                "--style-id", "checks", "--channels", "12", "--positions", "4",
                "--steps", "1"])
    assert code == 2
    assert f"config file {cfg} is not valid UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_bank_inspect_empty_bank(tmp_path, capsys):
    path = tmp_path / "empty.ispb"
    save_bank(StyleBank(), path)
    code = run(["bank", "inspect", "--bank", str(path)])
    out = capsys.readouterr().out
    assert code == 0
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
    assert run(["stylize", "--frobnicate"]) != 0


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


def test_runs_print_config_and_seed(tmp_path, capsys):
    path = tmp_path / "cfgbank.ispb"
    save_bank(StyleBank(), path)
    run(["bank", "inspect", "--bank", str(path), "--seed", "42"])
    out = capsys.readouterr().out
    assert "config:" in out and "seed=42" in out


class TestPipeline:
    def test_full_pipeline_and_determinism(self, dataset, tmp_path, capsys):
        ck = tmp_path / "backbone.abdn"
        bank_path = tmp_path / "styles.ispb"
        out_img = tmp_path / "styled.ppm"
        train_common = ["--seed", "7", "--channels", "12", "--timesteps", "20"]
        style_args = ["stylize", "--checkpoint", str(ck), "--bank",
                      str(bank_path), "--style-id", "checks", "--content",
                      str(dataset / "content.ppm"), "--out", str(out_img),
                      "--strength", "0.5", "--seed", "7",
                      "--timesteps", "20"]

        code = run(["pretrain", "--data", str(dataset), "--checkpoint",
                    str(ck), "--steps", "60", "--width", "8"] + train_common)
        assert code == 0
        assert ck.is_file()

        code = run(["train-bank", "--data", str(dataset), "--checkpoint",
                    str(ck), "--bank", str(bank_path), "--style-id", "checks",
                    "--steps", "40", "--positions", "4"] + train_common)
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

    def test_duplicate_style_id_rejected(self, dataset, tmp_path, capsys):
        ck = tmp_path / "b.abdn"
        bank_path = tmp_path / "s.ispb"
        common = ["--seed", "7", "--channels", "12", "--timesteps", "10"]
        assert run(["pretrain", "--data", str(dataset), "--checkpoint",
                    str(ck), "--steps", "5", "--width", "8"] + common) == 0
        args = ["train-bank", "--data", str(dataset), "--checkpoint", str(ck),
                "--bank", str(bank_path), "--style-id", "stripes", "--steps",
                "2", "--positions", "4"] + common
        assert run(args) == 0
        assert run(args) != 0
        assert "already present" in capsys.readouterr().err

    def test_duplicate_style_id_refused_before_training(self, dataset, tmp_path,
                                                        capsys, monkeypatch):
        ck = tmp_path / "b6.abdn"
        bank_path = tmp_path / "s6.ispb"
        diffusion.save_checkpoint(diffusion.Denoiser(3, 8, 12, seed=0), ck)
        existing = StyleBank()
        existing.add(create_entry("stripes", "a", 12, 4, seed=1))
        save_bank(existing, bank_path)
        before = bank_path.read_bytes()
        calls = []
        monkeypatch.setattr(diffusion, "train_ispb",
                            lambda *a, **k: calls.append(a) or [])
        code = run(["train-bank", "--data", str(dataset), "--checkpoint",
                    str(ck), "--bank", str(bank_path), "--style-id", "stripes",
                    "--steps", "2", "--channels", "12", "--positions", "4"])
        assert code == 2
        assert "already present" in capsys.readouterr().err
        assert calls == []
        assert bank_path.read_bytes() == before

    def test_sanet_from_config_file_rejected(self, dataset, tmp_path, capsys):
        # A config file bypasses argparse's choices, so train-bank's own
        # guard must refuse the encoder the bank format cannot store.
        ck = tmp_path / "b5.abdn"
        bank_path = tmp_path / "s5.ispb"
        common = ["--seed", "7", "--channels", "12", "--timesteps", "10"]
        assert run(["pretrain", "--data", str(dataset), "--checkpoint",
                    str(ck), "--steps", "5", "--width", "8"] + common) == 0
        cfg = tmp_path / "sanet.cfg"
        cfg.write_text("attention = sanet\n")
        code = run(["train-bank", "--config", str(cfg), "--data",
                    str(dataset), "--checkpoint", str(ck), "--bank",
                    str(bank_path), "--style-id", "checks", "--steps", "2",
                    "--positions", "4"] + common)
        assert code == 2
        assert "does not fit the bank format" in capsys.readouterr().err
        assert not bank_path.exists()

    def test_stylize_unknown_style_id(self, dataset, tmp_path, capsys):
        ck = tmp_path / "b2.abdn"
        bank_path = tmp_path / "s2.ispb"
        common = ["--seed", "7", "--channels", "12", "--timesteps", "10"]
        assert run(["pretrain", "--data", str(dataset), "--checkpoint",
                    str(ck), "--steps", "5", "--width", "8"] + common) == 0
        assert run(["train-bank", "--data", str(dataset), "--checkpoint",
                    str(ck), "--bank", str(bank_path), "--style-id", "checks",
                    "--steps", "2", "--positions", "4"] + common) == 0
        code = run(["stylize", "--checkpoint", str(ck), "--bank",
                    str(bank_path), "--style-id", "plaid", "--content",
                    str(dataset / "content.ppm"), "--out",
                    str(tmp_path / "x.ppm"), "--seed", "7",
                    "--timesteps", "10"])
        assert code != 0
        assert "plaid" in capsys.readouterr().err

    def test_dimension_mismatch_between_checkpoint_and_bank(self, dataset,
                                                            tmp_path, capsys):
        ck = tmp_path / "b3.abdn"
        common = ["--seed", "7", "--timesteps", "10"]
        assert run(["pretrain", "--data", str(dataset), "--checkpoint",
                    str(ck), "--steps", "5", "--width", "8", "--channels",
                    "12"] + common) == 0
        code = run(["train-bank", "--data", str(dataset), "--checkpoint",
                    str(ck), "--bank", str(tmp_path / "s3.ispb"),
                    "--style-id", "checks", "--steps", "2", "--channels",
                    "16", "--positions", "4"] + common)
        assert code != 0
        err = capsys.readouterr().err
        assert "12" in err and "16" in err

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
