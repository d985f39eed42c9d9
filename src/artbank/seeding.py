"""Labeled seed derivation so every component draws from one root seed."""

import hashlib

import numpy as np


def derive_seed(root: int, label: str) -> int:
    """Derive a 64-bit child seed from a root seed and a text label."""
    digest = hashlib.sha256(f"{root}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def rng(seed: int) -> np.random.Generator:
    """The one generator type every component draws from, seeded as given."""
    return np.random.Generator(np.random.PCG64(seed))


def rng_for(root: int, label: str) -> np.random.Generator:
    """Deterministic generator for one labeled component."""
    return rng(derive_seed(root, label))
