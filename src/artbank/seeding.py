"""Labeled seed derivation so every component draws from one root seed."""

import hashlib

import numpy as np

from .errors import ConfigError


def hash_seed(data: bytes) -> int:
    """A 64-bit seed: the first 8 bytes of the data's SHA-256, little-endian."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


def derive_seed(root: int, label: str) -> int:
    """Derive a 64-bit child seed from a root seed and a text label."""
    return hash_seed(f"{root}:{label}".encode("utf-8"))


def rng(seed: int) -> np.random.Generator:
    """The one generator type every component draws from, seeded as given."""
    if seed < 0:
        raise ConfigError(f"seed must be at least 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def rng_for(root: int, label: str) -> np.random.Generator:
    """Deterministic generator for one labeled component."""
    return rng(derive_seed(root, label))
