"""Command-line pipeline: pretrain the backbone, train bank entries,
stylize images, and run the benchmark/evaluation tools.

All randomness flows from one root ``--seed`` split by labeled hashing, so
identical configs produce byte-identical artifacts. A ``key = value`` config
file can supply defaults; explicit CLI flags override it.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

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
    text = Path(path).read_text(encoding="utf-8")
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


def _load_dir_images(root: Path) -> list[data_io.ImageSample]:
    files = sorted(root.glob("*.ppm")) + sorted(root.glob("*.pgm"))
    return [data_io.read_ppm(p) for p in files]


def _load_style_images(cfg: RunConfig) -> list[data_io.ImageSample]:
    """The images of the style collection ``<data_root>/<style_id>``."""
    root = Path(_require(cfg.data_root, "dataset root", Path.is_dir))
    style_dir = _require(str(root / cfg.style_id), "style directory",
                         Path.is_dir)
    images = _load_dir_images(Path(style_dir))
    if not images:
        raise ConfigError(f"no .ppm/.pgm images under {style_dir}")
    return images


def _load_pool(root: Path) -> tuple[list[data_io.ImageSample], list[str]]:
    """All images under the dataset root, prompted by their directory name."""
    images: list[data_io.ImageSample] = []
    prompts: list[str] = []
    subdirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not subdirs:
        imgs = _load_dir_images(root)
        return imgs, [f"a painting by {root.name} *"] * len(imgs)
    for sub in subdirs:
        imgs = _load_dir_images(sub)
        images.extend(imgs)
        prompts.extend([f"a painting by {sub.name} *"] * len(imgs))
    return images, prompts


def _write_loss_csv(trace: list[float], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for i, loss in enumerate(trace, start=1):
            writer.writerow([i, repr(loss)])


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
    if cfg.loss_csv:
        _write_loss_csv(trace, cfg.loss_csv)
    final = trace[-1] if trace else float("nan")
    print(f"pretrained {cfg.steps} steps on {len(images)} images; "
          f"final loss {final:.4f}; checkpoint -> {cfg.checkpoint_path}")
    return 0


def cmd_train_bank(cfg: RunConfig) -> int:
    d = diffusion.load_checkpoint(_require(cfg.checkpoint_path, "checkpoint"))
    d.freeze()
    if d.cond_dim != cfg.channels:
        raise ConfigError(
            f"checkpoint expects condition width {d.cond_dim} but the bank "
            f"is configured with channels={cfg.channels}")
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
    if cfg.loss_csv:
        _write_loss_csv(trace, cfg.loss_csv)
    final = trace[-1] if trace else float("nan")
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
    d = diffusion.load_checkpoint(_require(cfg.checkpoint_path, "checkpoint"))
    d.freeze()
    if d.cond_dim != cfg.channels:
        raise ConfigError(
            f"checkpoint expects condition width {d.cond_dim} but "
            f"channels={cfg.channels} was requested")
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
        left = sorted(pa.glob("*.ppm")) + sorted(pa.glob("*.pgm"))
        right = sorted(pb.glob("*.ppm")) + sorted(pb.glob("*.pgm"))
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int, help="root seed (default 0)")
    p.add_argument("--vocab-seed", dest="vocab_seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train the denoiser backbone")
    _add_common(p)
    p.add_argument("--data", dest="data_root")
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--steps", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--timesteps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--loss-csv", dest="loss_csv")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-bank", help="train one bank entry")
    _add_common(p)
    p.add_argument("--data", dest="data_root")
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--bank", dest="bank_path")
    p.add_argument("--style-id", dest="style_id")
    p.add_argument("--artist")
    p.add_argument("--template")
    p.add_argument("--steps", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--positions", type=int)
    p.add_argument("--timesteps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--attention", choices=tuple(diffusion.ENCODERS))
    p.add_argument("--drop-text", dest="drop_text", action="store_const",
                   const=True)
    p.add_argument("--loss-csv", dest="loss_csv")
    p.set_defaults(func=cmd_train_bank)

    p = sub.add_parser("stylize", help="render a content image in a style")
    _add_common(p)
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--bank", dest="bank_path")
    p.add_argument("--style-id", dest="style_id")
    p.add_argument("--content", dest="content_path")
    p.add_argument("--out", dest="out_path")
    p.add_argument("--strength", type=float)
    p.add_argument("--timesteps", type=int)
    p.add_argument("--no-inversion", dest="no_inversion", action="store_const",
                   const=True)
    p.set_defaults(func=cmd_stylize)

    p = sub.add_parser("bench-attn", help="attention-encoder convergence benchmark")
    _add_common(p)
    p.add_argument("--data", dest="data_root")
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--style-id", dest="style_id")
    p.add_argument("--variants")
    p.add_argument("--bench-seeds", dest="bench_seeds", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--positions", type=int)
    p.add_argument("--timesteps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--out", dest="out_path")
    p.set_defaults(func=cmd_bench_attn)

    p = sub.add_parser("eval", help="SSIM and style scores for image pairs")
    _add_common(p)
    p.add_argument("--content", dest="content_path")
    p.add_argument("--stylized", dest="stylized_path")
    p.add_argument("--style-dir", dest="style_dir")
    p.add_argument("--out", dest="out_path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bank", help="bank file tools")
    bank_sub = p.add_subparsers(dest="bank_command", required=True)
    pi = bank_sub.add_parser("inspect", help="list a bank's entries")
    _add_common(pi)
    pi.add_argument("--bank", dest="bank_path")
    pi.set_defaults(func=cmd_bank_inspect)

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
