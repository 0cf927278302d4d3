"""Small shared helpers: rounding, config number checks, seed derivation,
hashing, input-file decoding and the CPU count."""

from __future__ import annotations

import hashlib
import math
import numbers
import os

import numpy as np


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero toward +inf.

    Python's built-in round() rounds halves to even, which would make
    exception counts depend on parity; all count rounding in this package
    goes through here instead.
    """
    return int(math.floor(x + 0.5))


def finite(name: str, v):
    """v, if it is a finite real number: not a bool, a string or an infinity."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValueError(f"{name} must be a finite number, got {v!r}")
    return v


def whole(name: str, v, minimum: int) -> int:
    """v as an int, if it is an integer >= minimum: not a bool, a float or a string.

    The check never goes through float(), so 64-bit seeds stay exact.
    """
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {v!r}")
    return int(v)


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


def utf8_text(data: bytes, path) -> str:
    """An input file's bytes as UTF-8 text; a refusal names the file and the
    line of the first byte that does not decode."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path} line {line}: not UTF-8: {exc}") from None


def usable_cpus() -> int:
    """The CPUs this process may run on: scoring's threads and a sweep's
    pool workers, one per CPU.  Restricting the process's CPUs (taskset,
    say) lowers both."""
    return len(os.sched_getaffinity(0))
