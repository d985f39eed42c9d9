"""Command-line pipeline: pretrain the backbone, train bank entries,
stylize images, and run the benchmark/evaluation tools.

All randomness flows from one root ``--seed`` split by labeled hashing, so
identical configs produce byte-identical artifacts. A ``key = value`` config
file can supply defaults; explicit CLI flags override it.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import bank as bank_mod
from . import data_io, diffusion, inversion, metrics
from .errors import ArtBankError, ConfigError
from .seeding import derive_seed

PROG = "artbank"


@dataclass
class RunConfig:
    """Resolved settings for one CLI invocation."""

    data_root: str = ""
    bank_path: str = ""
    checkpoint_path: str = ""
    content_path: str = ""
    out_path: str = ""
    loss_csv: str = ""
    style_id: str = ""
    artist: str = ""
    template: str = bank_mod.DEFAULT_TEMPLATE
    channels: int = bank_mod.DEFAULT_CHANNELS
    positions: int = bank_mod.DEFAULT_POSITIONS
    width: int = 32
    timesteps: int = 100
    steps: int = 1000
    lr: float = 1e-3
    seed: int = 0
    vocab_seed: int = bank_mod.DEFAULT_VOCAB_SEED
    strength: float = 0.6
    no_inversion: bool = False
    attention: str = "ssam"
    drop_text: bool = False
    variants: str = "ssam,sanet,adaattn"
    bench_seeds: int = 5
    threshold: float = 0.85
    max_iters: int = 5000
    style_dir: str = ""
    stylized_path: str = ""

    def describe(self, keys: list[str]) -> str:
        parts = [f"{k}={getattr(self, k)!r}" for k in sorted(set(keys + ['seed']))]
        return "config: " + " ".join(parts)


def parse_config_file(path: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not valid UTF-8") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce(key: str, raw: str):
    kind = type(getattr(RunConfig, key))
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            if key not in known:
                raise ConfigError(f"unknown config key: {key!r}")
            setattr(cfg, key, _coerce(key, raw))
    for key in known:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    # Paths may hold any bytes, but these texts are hashed as UTF-8.
    for key in ("style_id", "artist", "template"):
        try:
            getattr(cfg, key).encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{key} must be valid UTF-8") from None
    return cfg


def _require(path: str, what: str,
             exists: Callable[[Path], bool] = Path.is_file) -> str:
    """Return ``path`` if it is set and passes ``exists`` (a ``Path``
    predicate such as ``Path.is_dir``); otherwise raise ``ConfigError``."""
    if not path:
        raise ConfigError(f"missing required path for {what}")
    if not exists(Path(path)):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _image_files(root: Path) -> list[Path]:
    return sorted(root.glob("*.ppm")) + sorted(root.glob("*.pgm"))


def _load_dir_images(root: Path) -> list[data_io.ImageSample]:
    return [data_io.read_ppm(p) for p in _image_files(root)]


def _load_backbone(cfg: RunConfig) -> diffusion.Denoiser:
    """The frozen checkpoint, checked against the configured bank width."""
    d = diffusion.load_checkpoint(_require(cfg.checkpoint_path, "checkpoint"))
    d.freeze()
    if d.cond_dim != cfg.channels:
        raise ConfigError(
            f"checkpoint expects condition width {d.cond_dim} but "
            f"channels={cfg.channels} was requested")
    return d


def _load_style_images(cfg: RunConfig) -> list[data_io.ImageSample]:
    """The images of the style collection ``<data_root>/<style_id>``."""
    root = Path(_require(cfg.data_root, "dataset root", Path.is_dir))
    style_dir = _require(str(root / cfg.style_id), "style directory", Path.is_dir)
    images = _load_dir_images(Path(style_dir))
    if not images:
        raise ConfigError(f"no .ppm/.pgm images under {style_dir}")
    return images


def _load_pool(root: Path) -> tuple[list[data_io.ImageSample], list[str]]:
    """All images under the dataset root, prompted by their directory name."""
    images: list[data_io.ImageSample] = []
    prompts: list[str] = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()) or [root]:
        imgs = _load_dir_images(sub)
        images.extend(imgs)
        prompts.extend([f"a painting by {sub.name} *"] * len(imgs))
    return images, prompts


def _record_loss(trace: list[float], path: str) -> float:
    """Write the per-step losses to ``path`` if set; return the final loss."""
    if path:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss"])
            for i, loss in enumerate(trace, start=1):
                writer.writerow([i, repr(loss)])
    return trace[-1]


def cmd_pretrain(cfg: RunConfig) -> int:
    root = Path(_require(cfg.data_root, "dataset root", Path.is_dir))
    if not cfg.checkpoint_path:
        raise ConfigError("pretrain requires a checkpoint output path")
    images, prompts = _load_pool(root)
    if not images:
        raise ConfigError(f"no .ppm/.pgm images under {root}")
    sched = diffusion.make_schedule(cfg.timesteps)
    d = diffusion.Denoiser(in_channels=images[0].channels, width=cfg.width,
                           cond_dim=cfg.channels,
                           seed=derive_seed(cfg.seed, "denoiser-init"))
    trace = diffusion.train_naive(d, images, prompts, sched, cfg.steps,
                                  seed=derive_seed(cfg.seed, "pretrain"),
                                  lr=cfg.lr, vocab_seed=cfg.vocab_seed)
    diffusion.save_checkpoint(d, cfg.checkpoint_path)
    final = _record_loss(trace, cfg.loss_csv)
    print(f"pretrained {cfg.steps} steps on {len(images)} images; "
          f"final loss {final:.4f}; checkpoint -> {cfg.checkpoint_path}")
    return 0


def cmd_train_bank(cfg: RunConfig) -> int:
    d = _load_backbone(cfg)
    if not cfg.style_id:
        raise ConfigError("train-bank requires --style-id")
    if not cfg.bank_path:
        raise ConfigError("train-bank requires a bank output path")
    images = _load_style_images(cfg)
    if cfg.attention not in ("ssam", "adaattn"):
        raise ConfigError(
            "train-bank supports the ssam and adaattn encoders; the sanet "
            "baseline is benchmark-only because its extra projection does "
            "not fit the bank format")
    bank = (bank_mod.load_bank(cfg.bank_path)
            if Path(cfg.bank_path).is_file() else bank_mod.StyleBank())
    template = "*" if cfg.drop_text else cfg.template
    entry = bank_mod.create_entry(
        cfg.style_id, cfg.artist or cfg.style_id, cfg.channels, cfg.positions,
        seed=derive_seed(cfg.seed, f"entry:{cfg.style_id}"), template=template)
    bank.add(entry)  # refuses a duplicate id before any training step
    trace = diffusion.train_ispb(d, entry, images, diffusion.make_schedule(cfg.timesteps),
                                 cfg.steps, seed=derive_seed(cfg.seed, "train-bank"),
                                 lr=cfg.lr, vocab_seed=cfg.vocab_seed,
                                 variant=cfg.attention)
    bank_mod.save_bank(bank, cfg.bank_path)
    final = _record_loss(trace, cfg.loss_csv)
    print(f"trained entry '{cfg.style_id}' for {cfg.steps} steps on "
          f"{len(images)} images; final loss {final:.4f}; "
          f"bank -> {cfg.bank_path}")
    return 0


def cmd_stylize(cfg: RunConfig) -> int:
    d = diffusion.load_checkpoint(_require(cfg.checkpoint_path, "checkpoint"))
    d.freeze()
    bank = bank_mod.load_bank(_require(cfg.bank_path, "bank"))
    content = data_io.read_ppm(_require(cfg.content_path, "content image"))
    if not cfg.out_path:
        raise ConfigError("stylize requires an output path")
    entry = bank.get(cfg.style_id)
    if entry.channels != d.cond_dim:
        raise ConfigError(
            f"bank entry width {entry.channels} does not match checkpoint "
            f"condition width {d.cond_dim}")
    inv_cfg = inversion.InversionConfig(
        strength=cfg.strength, seed=derive_seed(cfg.seed, "stylize"))
    result = inversion.stylize(d, diffusion.make_schedule(cfg.timesteps), bank,
                               cfg.style_id, content, inv_cfg,
                               vocab_seed=cfg.vocab_seed,
                               use_inversion=not cfg.no_inversion)
    data_io.write_ppm(result, cfg.out_path)
    print(f"stylized {cfg.content_path} with '{cfg.style_id}' -> {cfg.out_path}")
    return 0


def cmd_bench_attn(cfg: RunConfig) -> int:
    d = _load_backbone(cfg)
    images = _load_style_images(cfg)
    variants = [v.strip() for v in cfg.variants.split(",") if v.strip()]
    seeds = [derive_seed(cfg.seed, f"bench:{i}") for i in range(cfg.bench_seeds)]
    reports = metrics.convergence_benchmark(
        d, images, variants, seeds, cfg.threshold, cfg.max_iters,
        sched=diffusion.make_schedule(cfg.timesteps), channels=cfg.channels,
        positions=cfg.positions, lr=cfg.lr, vocab_seed=cfg.vocab_seed)
    if cfg.out_path:
        metrics.write_convergence_csv(reports, cfg.out_path)
    print(metrics.format_convergence_table(reports))
    return 0


def _paired_paths(a: str, b: str) -> list[tuple[Path, Path]]:
    pa, pb = Path(a), Path(b)
    if pa.is_file() and pb.is_file():
        return [(pa, pb)]
    if pa.is_dir() and pb.is_dir():
        left, right = _image_files(pa), _image_files(pb)
        if len(left) != len(right):
            raise ConfigError("content and stylized directories differ in size")
        return list(zip(left, right))
    raise ConfigError("content and stylized paths must both be files or both dirs")


def cmd_eval(cfg: RunConfig) -> int:
    pairs = _paired_paths(
        _require(cfg.content_path, "content path", Path.exists),
        _require(cfg.stylized_path, "stylized path", Path.exists))
    signature = None
    if cfg.style_dir:
        collection = _load_dir_images(Path(_require(cfg.style_dir,
                                                        "style directory", Path.is_dir)))
        if not collection:
            raise ConfigError(f"no images under {cfg.style_dir}")
        signature = metrics.signature_of(collection)
    rows = []
    for content_p, stylized_p in pairs:
        content = data_io.read_ppm(content_p)
        stylized = data_io.read_ppm(stylized_p)
        row = {"content": str(content_p), "stylized": str(stylized_p),
               "ssim": repr(metrics.ssim(content, stylized))}
        if signature is not None:
            row["style_score_stylized"] = repr(
                metrics.gram_style_score(stylized, signature).value)
            row["style_score_content"] = repr(
                metrics.gram_style_score(content, signature).value)
        rows.append(row)
    headers = list(rows[0].keys()) if rows else ["content", "stylized", "ssim"]
    if cfg.out_path:
        with open(cfg.out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=headers)
            writer.writeheader()
            writer.writerows(rows)
    for row in rows:
        print(" ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def cmd_bank_inspect(cfg: RunConfig) -> int:
    bank = bank_mod.load_bank(_require(cfg.bank_path, "bank"))
    print(f"bank {cfg.bank_path}: {len(bank)} entries")
    for e in bank.entries():
        print(f"  {e.style_id}: artist={e.artist!r} template={e.template!r} "
              f"C={e.channels} N={e.positions}")
    return 0


class Command(NamedTuple):
    """A subcommand's handler (or table of nested subcommands), help line
    and the ``RunConfig`` fields it takes as flags."""

    handler: Callable[[RunConfig], int] | dict[str, Command]
    help: str
    fields: str = ""


COMMANDS: dict[str, Command] = {
    "pretrain": Command(
        cmd_pretrain, "train the denoiser backbone",
        "data_root checkpoint_path steps width channels timesteps lr loss_csv"),
    "train-bank": Command(
        cmd_train_bank, "train one bank entry",
        "data_root checkpoint_path bank_path style_id artist template steps "
        "channels positions timesteps lr attention drop_text loss_csv"),
    "stylize": Command(
        cmd_stylize, "render a content image in a style",
        "checkpoint_path bank_path style_id content_path out_path strength "
        "timesteps no_inversion"),
    "bench-attn": Command(
        cmd_bench_attn, "attention-encoder convergence benchmark",
        "data_root checkpoint_path style_id variants bench_seeds threshold "
        "max_iters channels positions timesteps lr out_path"),
    "eval": Command(
        cmd_eval, "SSIM and style scores for image pairs",
        "content_path stylized_path style_dir out_path"),
    "bank": Command(
        {"inspect": Command(cmd_bank_inspect, "list a bank's entries",
                            "bank_path")},
        "bank file tools"),
}


def _add_commands(parser: argparse.ArgumentParser, dest: str,
                  table: dict[str, Command]) -> None:
    """Add one subparser per table entry. Each takes ``--config``, ``--seed``,
    ``--vocab-seed`` and its entry's fields; a field's flag is its name minus
    a ``_path``/``_root`` suffix, dashed, and takes the field's type."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, command in table.items():
        p = sub.add_parser(name, help=command.help)
        if isinstance(command.handler, dict):
            _add_commands(p, f"{name}_command", command.handler)
            continue
        p.add_argument("--config", help="key = value config file")
        for field in ["seed", "vocab_seed"] + command.fields.split():
            kind = type(getattr(RunConfig, field))
            opts: dict = {"dest": field, "help": (
                "root seed (default 0)" if field == "seed" else None)}
            if kind is bool:
                opts.update(action="store_const", const=True)
            elif field == "attention":
                opts["choices"] = tuple(diffusion.ENCODERS)
            elif kind is not str:
                opts["type"] = kind
            flag = re.sub(r"_(path|root)$", "", field).replace("_", "-")
            p.add_argument("--" + flag, **opts)
        p.set_defaults(func=command.handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=PROG, description=__doc__)
    _add_commands(parser, "command", COMMANDS)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
        provided = [k for k in (f.name for f in fields(RunConfig))
                    if getattr(args, k, None) is not None]
        print(cfg.describe(provided))
        return args.func(cfg)
    except (ArtBankError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
