"""Desk-scale quality metrics and the attention-encoder convergence benchmark.

Structure preservation is measured with SSIM over sliding 8x8 uniform
windows. Style affinity uses cosine similarity between Gram matrices of a
fixed, seeded random convolutional feature bank -- a stand-in for learned
embedding similarity that still separates the procedural style families.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import seeding
from .bank import DEFAULT_VOCAB_SEED, create_entry
from .data_io import ImageSample
from .diffusion import (Denoiser, NoiseSchedule, encoder_builder,
                        ispb_eval_loss, train_ispb)
from .errors import ConfigError, DimensionError
from .tensor import Tensor, clamp_min, conv2d

SSIM_WINDOW = 8
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2

GRAM_BANK_SEED = 2718
GRAM_CHANNELS = 16
MOVING_AVG_WINDOW = 100


def _window_means(x: np.ndarray, k: int) -> np.ndarray:
    """Means of all k x k windows of a 2-d array via an integral image."""
    c = np.cumsum(np.cumsum(x, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    sums = c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]
    return sums / (k * k)


def ssim(a: ImageSample, b: ImageSample) -> float:
    """Mean structural similarity over sliding windows and channels."""
    if (a.width, a.height, a.channels) != (b.width, b.height, b.channels):
        raise DimensionError("ssim requires images of identical dimensions")
    k = min(SSIM_WINDOW, a.height, a.width)
    values = []
    for ch in range(a.channels):
        x = a.pixels[:, :, ch]
        y = b.pixels[:, :, ch]
        mu_x = _window_means(x, k)
        mu_y = _window_means(y, k)
        # Population (divisor N) second moments per window.
        var_x = _window_means(x * x, k) - mu_x * mu_x
        var_y = _window_means(y * y, k) - mu_y * mu_y
        cov = _window_means(x * y, k) - mu_x * mu_y
        num = (2.0 * (mu_x * mu_y) + SSIM_C1) * (2.0 * cov + SSIM_C2)
        den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (var_x + var_y + SSIM_C2)
        values.append(num / den)
    return float(np.mean(np.stack(values)))


@functools.cache
def _gram_convs() -> tuple[Tensor, Tensor]:
    """The feature bank: two frozen random 3x3 conv layers drawn from
    ``GRAM_BANK_SEED``, (GRAM_CHANNELS, 3, 3, 3) then
    (GRAM_CHANNELS, GRAM_CHANNELS, 3, 3)."""
    rng = seeding.rng(GRAM_BANK_SEED)
    conv1 = rng.normal(0.0, 1.0 / math.sqrt(3 * 9),
                       size=(GRAM_CHANNELS, 3, 3, 3))
    conv2 = rng.normal(0.0, 1.0 / math.sqrt(GRAM_CHANNELS * 9),
                       size=(GRAM_CHANNELS, GRAM_CHANNELS, 3, 3))
    return Tensor(conv1), Tensor(conv2)


def _gram_vector(img: ImageSample) -> np.ndarray:
    """Vectorized Gram matrix of the feature bank's rectified responses.
    Two valid 3x3 convolutions leave no feature position below 5x5."""
    if min(img.height, img.width) < 5:
        raise DimensionError(
            f"Gram features need an image of at least 5x5 pixels, got "
            f"{img.width}x{img.height}")
    conv1, conv2 = _gram_convs()
    x = img.to_tensor()
    if img.channels == 1:
        x = Tensor(np.repeat(x.data, 3, axis=0))
    zero = Tensor(np.zeros(GRAM_CHANNELS))
    f = clamp_min(conv2d(x, conv1, zero, pad=0), 0.0)
    f = clamp_min(conv2d(f, conv2, zero, pad=0), 0.0).data
    flat = f.reshape(f.shape[0], -1)
    gram = (flat @ flat.T) / flat.shape[1]
    return gram.reshape(-1)


@dataclass(frozen=True)
class StyleScore:
    """Cosine similarity of Gram features, in [-1, 1]."""

    value: float


def signature_of(collection: Sequence[ImageSample]) -> np.ndarray:
    """Unit-normalized mean of per-image vectorized Gram matrices."""
    if not collection:
        raise ConfigError("signature requires a non-empty collection")
    mean = np.mean([_gram_vector(img) for img in collection], axis=0)
    norm = float(np.linalg.norm(mean))
    return mean / norm if norm > 0.0 else mean


def gram_style_score(img: ImageSample, signature: np.ndarray) -> StyleScore:
    vec = _gram_vector(img)
    norm = float(np.linalg.norm(vec)) * float(np.linalg.norm(signature))
    if norm == 0.0:
        return StyleScore(0.0)
    return StyleScore(float(np.dot(vec, signature) / norm))


@dataclass
class ConvergenceReport:
    """Iterations-to-threshold for one attention variant across seeds."""

    variant: str
    seeds: list[int]
    iterations_to_threshold: list[int | None]
    threshold: float
    median_iters: int | None


def _crossing_detector(threshold: float) -> Callable[[float], bool]:
    """A function fed one step's loss per call, in order, that returns
    ``True`` once the trailing ``MOVING_AVG_WINDOW``-step mean loss is below
    ``threshold``. The only copy of the crossing rule: ``train_ispb``'s hook
    and ``iterations_to_threshold`` both run it."""
    csum = [0.0]
    k = MOVING_AVG_WINDOW

    def crossed(loss: float) -> bool:
        csum.append(csum[-1] + loss)
        n = len(csum) - 1
        return n >= k and (csum[n] - csum[n - k]) / k < threshold

    return crossed


def iterations_to_threshold(trace: Sequence[float], threshold_frac: float,
                            initial_loss: float) -> int | None:
    """First iteration whose trailing moving-average loss drops below
    ``threshold_frac`` times ``initial_loss``, a probe evaluation of the
    untrained entry.

    A crossing in the first full window is censored (the true one may lie
    earlier), so it is returned as the window length with a
    ``RuntimeWarning``.
    """
    crossed = _crossing_detector(threshold_frac * initial_loss)
    step = next((i for i, loss in enumerate(trace, start=1) if crossed(loss)),
                None)  # 1-based iteration index
    if step == MOVING_AVG_WINDOW:
        warnings.warn(
            f"loss is already below {threshold_frac} x initial in the first "
            f"{step}-step window; the crossing is censored at {step}",
            RuntimeWarning, stacklevel=2)
    return step


def _median_or_none(values: list[int | None]) -> int | None:
    """Median with non-converged runs treated as +inf; None if it lands on one."""
    ordered = sorted(values, key=lambda v: math.inf if v is None else v)
    n = len(ordered)
    if n % 2:
        return ordered[n // 2]
    lo, hi = ordered[n // 2 - 1], ordered[n // 2]
    if lo is None or hi is None:
        return None
    return (lo + hi) // 2


def _bench_one(d: Denoiser, collection: Sequence[ImageSample],
               sched: NoiseSchedule, variant: str, seed: int,
               loss_threshold: float, max_iters: int, channels: int,
               positions: int, lr: float, vocab_seed: int) -> int | None:
    entry = create_entry(f"bench-{variant}", "benchmark", channels, positions,
                         seed=seeding.derive_seed(seed, f"bench-entry-{variant}"))
    initial = ispb_eval_loss(d, entry, collection, sched, seed=seed,
                             vocab_seed=vocab_seed, variant=variant)
    crossed = _crossing_detector(loss_threshold * initial)
    trace = train_ispb(d, entry, collection, sched, max_iters, seed=seed,
                       lr=lr, vocab_seed=vocab_seed, variant=variant,
                       on_step=lambda r: crossed(r.loss))
    return iterations_to_threshold(trace, loss_threshold, initial)


def convergence_benchmark(d: Denoiser, collection: Sequence[ImageSample],
                          variants: Sequence[str], seeds: Sequence[int],
                          loss_threshold: float, max_iters: int, *,
                          sched: NoiseSchedule, channels: int = 64,
                          positions: int = 16, lr: float = 1e-3,
                          vocab_seed: int = DEFAULT_VOCAB_SEED
                          ) -> list[ConvergenceReport]:
    """Train a fresh entry per (variant, seed) and report how many
    iterations each needs to cross the relative loss threshold.

    Each job stops at its crossing, which later steps cannot change, so
    ``max_iters`` is a ceiling, not a cost: only a job that never crosses
    trains all of it. The reports are those of full-budget runs.
    """
    if not variants:
        raise ConfigError("variants must name at least one encoder")
    if len(seeds) < 3:
        raise ConfigError("the benchmark needs at least 3 seeds")
    if not (math.isfinite(loss_threshold) and loss_threshold > 0.0):
        raise ConfigError(f"loss_threshold must be finite and positive, "
                          f"got {loss_threshold}")
    if max_iters < MOVING_AVG_WINDOW:
        raise ConfigError(
            f"max_iters must be at least the {MOVING_AVG_WINDOW}-step "
            f"moving-average window, got {max_iters}")
    for v in variants:  # reject an unknown name before any job trains
        encoder_builder(v)
    reports = []
    for variant in variants:
        iters = [_bench_one(d, collection, sched, variant, seed,
                            loss_threshold, max_iters, channels, positions,
                            lr, vocab_seed)
                 for seed in seeds]
        reports.append(ConvergenceReport(
            variant=variant, seeds=list(seeds), iterations_to_threshold=iters,
            threshold=loss_threshold, median_iters=_median_or_none(iters)))
    return reports


def write_convergence_csv(reports: Sequence[ConvergenceReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "iterations", "converged",
                         "threshold", "median_iterations"])
        for r in reports:
            median = "" if r.median_iters is None else r.median_iters
            for seed, iters in zip(r.seeds, r.iterations_to_threshold):
                writer.writerow([
                    r.variant, seed,
                    "" if iters is None else iters,
                    int(iters is not None), r.threshold, median,
                ])


def format_convergence_table(reports: Sequence[ConvergenceReport]) -> str:
    lines = [f"{'variant':<10} {'median iters':>12}  per-seed"]
    for r in reports:
        per_seed = ", ".join("n/c" if i is None else str(i)
                             for i in r.iterations_to_threshold)
        median = "n/c" if r.median_iters is None else str(r.median_iters)
        lines.append(f"{r.variant:<10} {median:>12}  [{per_seed}]")
    return "\n".join(lines)
