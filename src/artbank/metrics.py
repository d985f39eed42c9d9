"""Desk-scale quality metrics and the attention-encoder convergence benchmark.

Structure preservation is measured with SSIM over sliding 8x8 uniform
windows. Style affinity uses cosine similarity between Gram matrices of a
fixed, seeded random convolutional feature bank -- a stand-in for learned
embedding similarity that still separates the procedural style families.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import re
import warnings
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import seeding
from .attention import ENCODERS
from .bank import (StyleBankEntry, check_entry_dim, create_entry,
                   entry_condition)
from .data_io import ImageSample
from .diffusion import (Denoiser, NoiseSchedule, check_images, check_schedule,
                        probe_losses, train_ispb)
from .errors import ConfigError, DimensionError, NumericError
from .optim import check_lr
from .tensor import Tensor, check_array_size, clamp_min, conv2d

SSIM_WINDOW = 8
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2

GRAM_BANK_SEED = 2718
GRAM_CHANNELS = 16
MOVING_AVG_WINDOW = 100

# OpenBLAS takes its thread count from the first of these that holds a
# positive count, in this order, and otherwise starts one thread per core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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


def _gram_vector(img: ImageSample) -> np.ndarray:
    """Vectorized Gram matrix of the rectified responses of the feature bank,
    two random 3x3 conv layers drawn from ``GRAM_BANK_SEED``. Their two
    valid convolutions leave no feature position below 5x5."""
    if min(img.height, img.width) < 5:
        raise DimensionError(
            f"Gram features need an image of at least 5x5 pixels, got "
            f"{img.width}x{img.height}")
    rng = seeding.rng(GRAM_BANK_SEED)
    conv1 = Tensor(rng.normal(0.0, 1.0 / math.sqrt(3 * 9),
                              size=(GRAM_CHANNELS, 3, 3, 3)))
    conv2 = Tensor(rng.normal(0.0, 1.0 / math.sqrt(GRAM_CHANNELS * 9),
                              size=(GRAM_CHANNELS, GRAM_CHANNELS, 3, 3)))
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
    if np.shape(signature) != (GRAM_CHANNELS ** 2,):
        raise DimensionError(f"a Gram signature holds {GRAM_CHANNELS ** 2} "
                             f"values, got shape {np.shape(signature)}")
    if not np.isfinite(signature).all():
        raise NumericError("a Gram signature must be finite")
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


def _bench_entry(variant: str, seed: int, channels: int,
                 positions: int) -> StyleBankEntry:
    """The fresh entry a (variant, seed) job probes and trains."""
    return create_entry(f"bench-{variant}", "benchmark", channels, positions,
                        seed=seeding.derive_seed(seed, f"bench-entry-{variant}"))


def _probe_job(d: Denoiser, collection: Sequence[ImageSample],
               sched: NoiseSchedule, variants: Sequence[str], positions: int,
               seed: int) -> list[float]:
    """One seed's probe job: each variant's initial probe loss, all variants
    sharing each draw's trunk."""
    conds = [entry_condition(_bench_entry(v, seed, d.cond_dim, positions), v,
                             seed)[1]().detach() for v in variants]
    return probe_losses(d, conds, collection, sched, seed)


def _train_job(d: Denoiser, collection: Sequence[ImageSample],
               sched: NoiseSchedule, variant: str, seed: int,
               loss_threshold: float, max_iters: int, positions: int,
               lr: float, initial: float) -> list[float]:
    """One training job: a fresh entry's loss trace, trained up to its
    crossing of ``loss_threshold`` times its ``initial`` probe loss."""
    entry = _bench_entry(variant, seed, d.cond_dim, positions)
    crossed = _crossing_detector(loss_threshold * initial)
    return train_ispb(d, entry, collection, sched, max_iters, seed=seed,
                      lr=lr, variant=variant, on_step=lambda r: crossed(r.loss))


def _workers(jobs: int, environ: Mapping[str, str], cores: int) -> int:
    """Processes to run ``jobs`` independent jobs on ``cores`` usable cores
    when each process starts the BLAS threads ``environ`` asks OpenBLAS for:
    one per ``cores // threads``, so no core runs two spinning BLAS threads.
    A count that is not a positive integer is unset, as OpenBLAS reads it
    (``atoi``), and OpenBLAS starts no more threads than cores."""
    threads = cores
    for key in BLAS_THREAD_VARS:
        count = re.match(r"\s*\+?(\d+)", environ.get(key, ""))
        if count and int(count[1]) > 0:
            threads = min(int(count[1]), cores)
            break
    return min(jobs, cores // threads)


def job_workers(jobs: int) -> int:
    """Processes ``convergence_benchmark`` runs ``jobs`` jobs on: 1, meaning
    in this process, where ``fork`` is unavailable, else the ``_workers``
    rule for this process's environment and usable cores."""
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return _workers(jobs, os.environ, cores)


def job_summary(jobs: int, wall: float) -> str:
    """The closing line of a benchmark run: its job count, where the jobs
    ran (``job_workers``), the wall time and the jobs per second."""
    workers = job_workers(jobs)
    where = "in-process" if workers == 1 else f"on {workers} worker processes"
    return f"{jobs} jobs {where} in {wall:.2f} s ({jobs / wall:.2f} jobs/s)"


def _resolved(result: Any) -> Future:
    future: Future = Future()
    future.set_result(result)
    return future


@contextlib.contextmanager
def _job_pool(workers: int):
    """Yields ``submit(fn, *args)``, which returns a future of ``fn(*args)``:
    run on one of ``workers`` forked processes, ``fn`` and ``args`` pickled
    on the way in, or, when ``workers`` is 1, in this process at once, the
    future already resolved. So a job may take another job's result as its
    argument. An error a job raises reaches the caller with its type; a
    worker that dies raises ``BrokenProcessPool``. An error that leaves the
    block cancels the jobs no worker has taken yet; those already handed
    out still finish."""
    if workers == 1:
        yield lambda fn, *args: _resolved(fn(*args))
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            yield pool.submit
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def convergence_seeds(root_seed: int, n: int) -> list[int]:
    """The seeds ``bench:<i>`` of ``root_seed``, i < n: ``bench-attn``'s and
    criterion 07's (``desk.convergence``)."""
    return [seeding.derive_seed(root_seed, f"bench:{i}") for i in range(n)]


def check_benchmark(variants: Sequence[str], n_seeds: int, loss_threshold: float,
                    max_iters: int, lr: float, positions: int) -> None:
    """``convergence_benchmark``'s rule for the settings that need no file."""
    if not variants:
        raise ConfigError("variants must name at least one encoder")
    if n_seeds < 3:
        raise ConfigError("the benchmark needs at least 3 seeds")
    if not (math.isfinite(loss_threshold) and loss_threshold > 0.0):
        raise ConfigError(f"loss_threshold must be finite and positive, "
                          f"got {loss_threshold}")
    check_lr(lr)
    if max_iters < MOVING_AVG_WINDOW:
        raise ConfigError(f"max_iters must be at least the {MOVING_AVG_WINDOW}"
                          f"-step moving-average window, got {max_iters}")
    for i, v in enumerate(variants):
        if v not in ENCODERS:
            raise ConfigError(f"unknown attention variant: {v!r}")
        if v in variants[:i]:
            raise ConfigError(f"repeated attention variant: {v!r}")
    check_entry_dim("positions", positions)
    check_array_size(len(variants) * n_seeds * max_iters,
                     f"{n_seeds} seeds' loss traces of up to {max_iters} "
                     f"steps for {len(variants)} variants")


def convergence_benchmark(d: Denoiser, collection: Sequence[ImageSample],
                          variants: Sequence[str], seeds: Sequence[int],
                          loss_threshold: float, max_iters: int, *,
                          sched: NoiseSchedule, positions: int = 16,
                          lr: float = 1e-3) -> list[ConvergenceReport]:
    """Train a fresh entry per (variant, seed) and report how many
    iterations each needs to cross the relative loss threshold. Each entry
    is ``d.cond_dim`` wide, the one width the frozen backbone takes, and
    ``positions`` long.

    Each job stops at its crossing, which later steps cannot change, so
    ``max_iters`` is a ceiling, not a cost: only a job that never crosses
    trains all of it. The reports are those of full-budget runs.

    Each job's threshold is relative to its entry's initial probe loss.
    The variants at one seed score the same probe draws, so each seed's
    probe is one job that computes each draw's trunk once for all variants
    and returns each variant's initial loss, ``ispb_eval_loss``'s bit for
    bit. As each seed's probe returns, in seed order, that seed's training
    jobs are submitted, each given its initial loss.

    All jobs are independent and fully seeded, on one pool of
    ``job_workers`` forked processes; the crossings, and the warning for a
    censored one, are worked out here, in job order, from the traces the
    workers return, so the reports do not depend on the worker count.
    """
    check_benchmark(variants, len(seeds), loss_threshold, max_iters, lr, positions)
    check_images(d, collection)
    check_schedule(d, sched)
    check_entry_dim("channels", d.cond_dim)
    # Per variant, each seed's (initial loss, training future), in seed order.
    trains: list[list] = [[] for _ in variants]
    reports = []
    with _job_pool(job_workers(len(variants) * len(seeds))) as submit:
        probes = [submit(_probe_job, d, collection, sched, variants, positions,
                         seed) for seed in seeds]
        for seed, probe in zip(seeds, probes):
            for variant, runs, initial in zip(variants, trains, probe.result()):
                runs.append((initial, submit(
                    _train_job, d, collection, sched, variant, seed,
                    loss_threshold, max_iters, positions, lr, initial)))
        for variant, runs in zip(variants, trains):
            iters = [iterations_to_threshold(trace.result(), loss_threshold,
                                             initial) for initial, trace in runs]
            reports.append(ConvergenceReport(
                variant=variant, seeds=list(seeds),
                iterations_to_threshold=iters, threshold=loss_threshold,
                median_iters=_median_or_none(iters)))
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
