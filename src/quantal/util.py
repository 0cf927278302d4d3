"""Small shared helpers: rounding, seed derivation, hashing."""

from __future__ import annotations

import hashlib
import math

import numpy as np


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero toward +inf.

    Python's built-in round() rounds halves to even, which would make
    exception counts depend on parity; all count rounding in this package
    goes through here instead.
    """
    return int(math.floor(x + 0.5))


def stable_seed(*parts) -> int:
    """Derive a 64-bit seed from arbitrary labels, stable across runs.

    Uses SHA-256 of the stringified parts, so the mapping does not depend
    on PYTHONHASHSEED or interpreter version.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single RNG construction point."""
    if seed < 0:
        raise ValueError(f"seed must be unsigned, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
