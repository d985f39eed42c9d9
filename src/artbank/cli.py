"""Command-line pipeline: pretrain the backbone, train bank entries,
stylize images, and run the benchmark/evaluation tools.

All randomness flows from one root ``--seed`` split by labeled hashing, so
identical configs produce byte-identical artifacts on the same numpy and
scipy build and kernels (numpy's active SIMD targets, OpenBLAS's core). A
``key = value`` config file can supply defaults; explicit flags override it.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import bank as bank_mod
from . import attention, data_io, diffusion, inversion, metrics
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
    strength: float = 0.6
    no_inversion: bool = False
    attention: str = "ssam"
    variants: str = "ssam,sanet,adaattn"
    bench_seeds: int = 5
    threshold: float = 0.85
    max_iters: int = 5000
    style_dir: str = ""
    stylized_path: str = ""

    def describe(self, keys: list[str]) -> str:
        return "config: " + " ".join(f"{k}={getattr(self, k)!r}" for k in sorted(keys))


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


# The values a setting may take, for its flag and its config file key alike.
CHOICES: dict[str, tuple[str, ...]] = {"attention": attention.BANK_ENCODERS}


def _coerce(key: str, raw: str):
    kind = type(getattr(RunConfig, key))
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from None
    choices = CHOICES.get(key)
    if choices is not None and value not in choices:
        raise ConfigError(f"config key {key!r}: invalid choice {raw!r} "
                          f"(choose from {', '.join(choices)})")
    return value


def build_config(args: argparse.Namespace) -> RunConfig:
    """The defaults, overridden by the ``--config`` file's keys, overridden by
    the flags given. A file key must be a field the command takes as a flag."""
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            if key not in known:
                raise ConfigError(f"unknown config key: {key!r}")
            if key not in args.flag_fields:
                raise ConfigError(f"config key {key!r} is not a setting of "
                                  f"'{args.command_name}'")
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


def _read_images(root: Path) -> list[data_io.ImageSample]:
    """The images of one directory; refuses a directory that has none."""
    files = _image_files(root)
    if not files:
        raise ConfigError(f"no .ppm/.pgm images under {root}")
    return [data_io.read_ppm(p) for p in files]


def _load_backbone(cfg: RunConfig) -> tuple[diffusion.Denoiser,
                                             diffusion.NoiseSchedule]:
    """The frozen checkpoint and the schedule it was trained on. Its
    ``cond_dim`` is the width of every bank entry made or used for it."""
    d = diffusion.load_checkpoint(_require(cfg.checkpoint_path, "checkpoint"))
    d.freeze()
    return d, diffusion.make_schedule(d.timesteps)


def _load_style_images(cfg: RunConfig) -> list[data_io.ImageSample]:
    """The images of the style collection ``<data_root>/<style_id>``."""
    root = Path(_require(cfg.data_root, "dataset root", Path.is_dir))
    return _read_images(Path(_require(str(root / cfg.style_id),
                                      "style directory", Path.is_dir)))


def _load_pool(root: Path) -> tuple[list[data_io.ImageSample], list[str]]:
    """All images under the dataset root, prompted by their directory name.
    Each directory's prompt is checked before any image is read; a
    directory without images is skipped."""
    listed = {sub: _image_files(sub) for sub in
              sorted(p for p in root.iterdir() if p.is_dir()) or [root]}
    prompts = [bank_mod.check_prompt(bank_mod.DEFAULT_TEMPLATE, sub.name)
               for sub, files in listed.items() for _ in files]
    if not prompts:
        raise ConfigError(f"no .ppm/.pgm images under {root}")
    return ([data_io.read_ppm(p) for files in listed.values() for p in files],
            prompts)


def _record_loss(trace: list[float], path: str) -> str:
    """Write the per-step losses to ``path`` if set; return the summary
    clause: the final loss, and a warning when every loss of the last
    window lies above the loss of step 1, the only one taken before any
    update (a run that blows up at once has no clean first window)."""
    if path:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss"])
            for i, loss in enumerate(trace, start=1):
                writer.writerow([i, repr(loss)])
    summary = f"final loss {trace[-1]:.4f}"
    window = min(metrics.MOVING_AVG_WINDOW, len(trace) - 1)
    if window and min(trace[-window:]) > trace[0]:
        summary += (f"; training diverged: each of the last {window} losses "
                    f"is above the step-1 loss {trace[0]:.4g}")
    return summary


def _throughput(steps: int, wall: float) -> str:
    return f"in {wall:.2f} s ({steps / wall:.1f} steps/s)"


def cmd_pretrain(cfg: RunConfig) -> int:
    diffusion.check_training(cfg.steps, cfg.lr)
    diffusion.check_denoiser(cfg.width, cfg.channels, cfg.timesteps)
    root = Path(_require(cfg.data_root, "dataset root", Path.is_dir))
    if not cfg.checkpoint_path:
        raise ConfigError("pretrain requires a checkpoint output path")
    images, prompts = _load_pool(root)
    sched = diffusion.make_schedule(cfg.timesteps)
    d = diffusion.Denoiser(in_channels=images[0].channels, width=cfg.width,
                           cond_dim=cfg.channels, timesteps=cfg.timesteps,
                           seed=derive_seed(cfg.seed, "denoiser-init"))
    t0 = time.perf_counter()
    trace = diffusion.train_naive(d, images, prompts, sched, cfg.steps,
                                  seed=derive_seed(cfg.seed, "pretrain"), lr=cfg.lr)
    wall = time.perf_counter() - t0
    diffusion.save_checkpoint(d, cfg.checkpoint_path)
    summary = _record_loss(trace, cfg.loss_csv)
    print(f"pretrained {cfg.steps} steps on {len(images)} images; "
          f"{summary}; checkpoint -> {cfg.checkpoint_path}; "
          f"{_throughput(len(trace), wall)}")
    return 0


def cmd_train_bank(cfg: RunConfig) -> int:
    diffusion.check_training(cfg.steps, cfg.lr)
    if not cfg.style_id:
        raise ConfigError("train-bank requires --style-id")
    if not cfg.bank_path:
        raise ConfigError("train-bank requires a bank output path")
    artist = cfg.artist or cfg.style_id
    bank_mod.check_prompt(cfg.template, artist)
    bank_mod.check_entry_dim("positions", cfg.positions)
    d, sched = _load_backbone(cfg)
    images = _load_style_images(cfg)
    bank = (bank_mod.load_bank(cfg.bank_path)
            if Path(cfg.bank_path).is_file() else bank_mod.StyleBank())
    entry = bank_mod.create_entry(
        cfg.style_id, artist, d.cond_dim, cfg.positions,
        seed=derive_seed(cfg.seed, f"entry:{cfg.style_id}"), template=cfg.template)
    bank.add(entry)  # refuses a duplicate id before any training step
    t0 = time.perf_counter()
    trace = diffusion.train_ispb(d, entry, images, sched, cfg.steps,
                                 seed=derive_seed(cfg.seed, "train-bank"),
                                 lr=cfg.lr, variant=cfg.attention)
    wall = time.perf_counter() - t0
    bank_mod.save_bank(bank, cfg.bank_path)
    summary = _record_loss(trace, cfg.loss_csv)
    print(f"trained entry '{cfg.style_id}' for {cfg.steps} steps on "
          f"{len(images)} images; {summary}; bank -> {cfg.bank_path}; "
          f"{_throughput(len(trace), wall)}")
    return 0


def cmd_stylize(cfg: RunConfig) -> int:
    inv_cfg = inversion.InversionConfig(
        strength=cfg.strength, seed=derive_seed(cfg.seed, "stylize"))
    if not cfg.out_path:
        raise ConfigError("stylize requires an output path")
    bank = bank_mod.load_bank(_require(cfg.bank_path, "bank"))
    content = data_io.read_ppm(_require(cfg.content_path, "content image"))
    d, sched = _load_backbone(cfg)
    result = inversion.stylize(d, sched, bank, cfg.style_id, content, inv_cfg,
                               use_inversion=not cfg.no_inversion)
    data_io.write_ppm(result, cfg.out_path)
    print(f"stylized {cfg.content_path} with '{cfg.style_id}' -> {cfg.out_path}")
    return 0


def cmd_bench_attn(cfg: RunConfig) -> int:
    variants = [v.strip() for v in cfg.variants.split(",") if v.strip()]
    metrics.check_benchmark(variants, cfg.bench_seeds, cfg.threshold,
                            cfg.max_iters, cfg.lr, cfg.positions)
    d, sched = _load_backbone(cfg)
    images = _load_style_images(cfg)
    seeds = metrics.convergence_seeds(cfg.seed, cfg.bench_seeds)
    t0 = time.perf_counter()
    reports = metrics.convergence_benchmark(
        d, images, variants, seeds, cfg.threshold, cfg.max_iters,
        sched=sched, positions=cfg.positions, lr=cfg.lr)
    wall = time.perf_counter() - t0
    if cfg.out_path:
        metrics.write_convergence_csv(reports, cfg.out_path)
    print(metrics.format_convergence_table(reports))
    print(metrics.job_summary(len(variants) * len(seeds), wall))
    return 0


def _paired_paths(a: str, b: str) -> list[tuple[Path, Path]]:
    pa, pb = Path(a), Path(b)
    if pa.is_file() and pb.is_file():
        return [(pa, pb)]
    if pa.is_dir() and pb.is_dir():
        left, right = _image_files(pa), _image_files(pb)
        if not left:
            raise ConfigError(f"no .ppm/.pgm images under {pa}")
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
        signature = metrics.signature_of(_read_images(Path(_require(
            cfg.style_dir, "style directory", Path.is_dir))))
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
    if cfg.out_path:
        with open(cfg.out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
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
    and the ``RunConfig`` fields it takes as flags. A command lists ``seed``
    only if it draws randomness; its config line always shows the seed."""

    handler: Callable[[RunConfig], int] | dict[str, Command]
    help: str
    fields: str = ""


COMMANDS: dict[str, Command] = {
    "pretrain": Command(
        cmd_pretrain, "train the denoiser backbone",
        "seed data_root checkpoint_path steps width channels timesteps lr "
        "loss_csv"),
    "train-bank": Command(
        cmd_train_bank, "train one bank entry",
        "seed data_root checkpoint_path bank_path style_id artist template "
        "steps positions lr attention loss_csv"),
    "stylize": Command(
        cmd_stylize, "render a content image in a style",
        "seed checkpoint_path bank_path style_id content_path out_path "
        "strength no_inversion"),
    "bench-attn": Command(
        cmd_bench_attn, "attention-encoder convergence benchmark",
        "seed data_root checkpoint_path style_id variants bench_seeds "
        "threshold max_iters positions lr out_path"),
    "eval": Command(
        cmd_eval, "SSIM and style scores for image pairs",
        "content_path stylized_path style_dir out_path"),
    "bank": Command(
        {"inspect": Command(cmd_bank_inspect, "list a bank's entries",
                            "bank_path")},
        "bank file tools"),
}


def _add_commands(parser: argparse.ArgumentParser, dest: str,
                  table: dict[str, Command], prefix: str = "") -> None:
    """Add one subparser per table entry. Each takes ``--config`` and its
    entry's fields; a field's flag is its name minus a ``_path``/``_root``
    suffix, dashed, and takes the field's type."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, command in table.items():
        p = sub.add_parser(name, help=command.help)
        if isinstance(command.handler, dict):
            _add_commands(p, f"{name}_command", command.handler, f"{prefix}{name} ")
            continue
        p.add_argument("--config", help="key = value config file")
        names = command.fields.split()
        for field in names:
            kind = type(getattr(RunConfig, field))
            opts: dict = {"dest": field, "help": (
                "root seed (default 0)" if field == "seed" else None)}
            if kind is bool:
                opts.update(action="store_const", const=True)
            elif kind is not str:
                opts["type"] = kind
            if field in CHOICES:
                opts["choices"] = CHOICES[field]
            flag = re.sub(r"_(path|root)$", "", field).replace("_", "-")
            p.add_argument("--" + flag, **opts)
        p.set_defaults(func=command.handler, flag_fields=names,
                       command_name=prefix + name)


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
        print(cfg.describe(args.flag_fields))
        return args.func(cfg)
    except (ArtBankError, OSError, FloatingPointError, RuntimeWarning) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
