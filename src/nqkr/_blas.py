"""Thread counts of the OpenBLAS libraries this process has loaded.

The only module that talks to the BLAS itself. It finds each mapped OpenBLAS
in /proc/self/maps and binds the get/set thread-count pair the library
exports; numpy's wheel and scipy's each bring their own. The lookup runs once
per process. Where it finds none (another platform, MKL, Accelerate),
`thread_count` is None and `one_thread` does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable

# Exported names of the thread-count pair, by build: scipy-openblas wheels
# prefix and (for the 64-bit integer build) suffix them.
_SYMBOL_PATTERNS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@lru_cache(maxsize=None)
def _libraries() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of every loaded OpenBLAS, in map order."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ()
    paths = dict.fromkeys(
        path for path in (line.split()[-1] for line in maps.splitlines())
        if path.startswith("/") and "openblas" in path.lower())
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _SYMBOL_PATTERNS:
            get = getattr(lib, pattern.format("get"), None)
            set_ = getattr(lib, pattern.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                found.append((get, set_))
                break
    return tuple(found)


def thread_count() -> int | None:
    """Thread count of the first loaded OpenBLAS, or None where none is found."""
    libraries = _libraries()
    return libraries[0][0]() if libraries else None


@contextmanager
def one_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    Each library's previous count is restored on exit, also when the block
    raises.
    """
    libraries = _libraries()
    previous = [get() for get, _ in libraries]
    for _, set_ in libraries:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(libraries, previous):
            set_(count)
