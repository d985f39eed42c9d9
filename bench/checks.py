"""Output checks, counted per operation instead of crashing the run.

Each check raises ``CheckFailed`` with a message. ``Ledger.op`` wraps one
operation: a failed check or any ``ArtBankError`` raised inside it marks that
operation failed and the run goes on; any other exception is a defect of the
benchmark itself and propagates.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np


class CheckFailed(Exception):
    """An operation's output is not what the program promises."""


class Ledger:
    """Counts operations attempted and failed, with the first messages."""

    MAX_MESSAGES = 20

    def __init__(self, error_types: tuple[type[BaseException], ...]) -> None:
        self.error_types = error_types
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    @contextlib.contextmanager
    def op(self, label: str):
        self.attempted += 1
        try:
            yield
        except (CheckFailed, *self.error_types) as exc:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(f"{label}: {type(exc).__name__}: {exc}")


def losses_finite(losses) -> None:
    if len(losses) == 0:
        raise CheckFailed("no losses recorded")
    bad = [i for i, v in enumerate(losses) if not math.isfinite(v)]
    if bad:
        raise CheckFailed(f"non-finite loss at step {bad[0]} of {len(losses)}")


def bit_exact(before: bytes, after: bytes, what: str) -> None:
    if before != after:
        raise CheckFailed(f"{what} round trip changed the bytes "
                          f"({len(before)} -> {len(after)} bytes)")


def stylized_image(pixels: np.ndarray, content_pixels: np.ndarray) -> None:
    """A stylized image has the content's shape, is finite and lies in [0, 1]."""
    if pixels.shape != content_pixels.shape:
        raise CheckFailed(f"shape {pixels.shape} != content {content_pixels.shape}")
    if not np.all(np.isfinite(pixels)):
        raise CheckFailed("non-finite pixel")
    if float(pixels.min()) < 0.0 or float(pixels.max()) > 1.0:
        raise CheckFailed(f"pixel outside [0, 1]: [{pixels.min()}, {pixels.max()}]")


def convergence_reports(reports, variants, n_seeds: int, max_iters: int,
                        window: int) -> None:
    """One report per variant, in order, each with ``n_seeds`` seeds whose
    crossing iterations are None or lie in [window, max_iters]."""
    got = [getattr(r, "variant", None) for r in reports]
    if got != list(variants):
        raise CheckFailed(f"report variants {got} != {list(variants)}")
    for r in reports:
        if len(r.seeds) != n_seeds or len(r.iterations_to_threshold) != n_seeds:
            raise CheckFailed(f"{r.variant}: {len(r.seeds)} seeds, "
                              f"{len(r.iterations_to_threshold)} results, "
                              f"expected {n_seeds}")
        for it in r.iterations_to_threshold:
            if it is not None and not (window <= it <= max_iters):
                raise CheckFailed(f"{r.variant}: crossing {it} outside "
                                  f"[{window}, {max_iters}]")
        if r.median_iters is not None and not (window <= r.median_iters <= max_iters):
            raise CheckFailed(f"{r.variant}: median {r.median_iters} out of range")
