"""Thread count of the OpenBLAS libraries mapped into this process.

numpy and scipy each ship their own OpenBLAS, and each spins up one
thread per core for every matmul.  Two callers that each bring such a
pool (two scoring threads, or two sweep worker processes) oversubscribe
the cores, and OpenBLAS serializes concurrent callers.  So code that
runs BLAS calls in parallel pins every OpenBLAS to one thread first.

The libraries are found through ``/proc/self/maps`` and driven through
``ctypes``, looked up on each call rather than at import.  Where none is
found (no ``/proc``, or a BLAS other than OpenBLAS), every function here
does nothing and reports zero libraries.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from typing import Callable, NamedTuple

MAPS = "/proc/self/maps"
# Symbol prefixes and suffixes of OpenBLAS builds: plain, numpy/scipy's
# renamed scipy_openblas, and their 64-bit-integer (ILP64) variants.
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


class OpenBLAS(NamedTuple):
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _bind(path: str) -> OpenBLAS | None:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return OpenBLAS(get, set_)
    return None


def libraries() -> list[OpenBLAS]:
    """Every OpenBLAS currently mapped into this process, once each."""
    try:
        with open(MAPS, encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5].strip())}
    found = (_bind(path) for path in sorted(paths) if os.path.isfile(path))
    return [lib for lib in found if lib is not None]


def pin_one_thread() -> int:
    """Set every OpenBLAS to one thread; returns how many libraries were set.

    Also the initializer of sweep pool workers, so it takes no arguments.
    """
    libs = libraries()
    for lib in libs:
        lib.set_threads(1)
    return len(libs)


@contextlib.contextmanager
def one_thread():
    """Pin every OpenBLAS to one thread inside the block, then restore each count.

    Yields the number of libraries pinned, 0 when none was found.  The
    counts are process-wide, so two threads must not enter this block at
    the same time.
    """
    libs = libraries()
    old = [lib.get_threads() for lib in libs]
    for lib in libs:
        lib.set_threads(1)
    try:
        yield len(libs)
    finally:
        for lib, n in zip(libs, old):
            lib.set_threads(n)
