"""Kernel acceleration switch.

Hot loops live in :mod:`tracelab._kernels` and are compiled with numba when
it is importable, unless ``TRACELAB_NUMBA=0`` requests the interpreted path.
There, the hottest kernels run as their twins in :mod:`tracelab._twins`,
which compute exactly what the source computes, and the rest run the source
on numpy scalars. Seeded integer results never
depend on the switch; only throughput does. Float-valued kernels agree across
paths to roundoff (the interpreted path may sum in a different order).

Dense linear algebra runs on one BLAS thread (:func:`one_blas_thread`).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

import numpy as np

from . import _twins

_FALSY = ("0", "false", "off", "no")


def _env_wants_numba() -> bool:
    return os.environ.get("TRACELAB_NUMBA", "1").strip().lower() not in _FALSY


NUMBA_ENABLED = False
_njit = None
if _env_wants_numba():
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:
        NUMBA_ENABLED = False


def kernel(fn):
    """Decorator for kernel entry points.

    Compiled with ``@njit(cache=True)`` when numba is active. On the
    interpreted path a kernel with a twin in :mod:`tracelab._twins` becomes
    that twin, whose ``__wrapped__`` still runs the source. The source runs
    under ``errstate(over="ignore")``: the RNG arithmetic wraps uint64 on
    purpose, and numpy scalars warn on wraparound where compiled code (and
    the C semantics it follows) does not.
    """
    if NUMBA_ENABLED:
        return _njit(cache=True)(fn)

    @functools.wraps(fn)
    def wrapper(*args):
        with np.errstate(over="ignore"):
            return fn(*args)

    if fn.__name__ not in _twins.__all__:
        return wrapper
    twin = getattr(_twins, fn.__name__)
    twin.__wrapped__ = wrapper
    return twin


def kernel_inner(fn):
    """Decorator for helpers only ever called from inside kernels.

    Same as :func:`kernel` under numba; left bare on the interpreted path
    so per-step calls skip the errstate context switch (the enclosing
    entry point already holds one).
    """
    if NUMBA_ENABLED:
        return _njit(cache=True)(fn)
    return fn


# (set, get) thread-count symbol pairs of the OpenBLAS builds numpy links,
# in lookup order: plain, 64-bit-integer, and the scipy-openblas wheels'
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("openblas", "scipy_openblas") for suffix in ("", "64_"))


@functools.cache
def _openblas() -> tuple:
    """``(path, set, get)``: the OpenBLAS file mapped into this process and
    its thread-count functions, found through ``/proc/self/maps`` on first
    use; () on any other BLAS or OS."""
    try:
        with open("/proc/self/maps") as maps:
            # only a line's path field can contain the name
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    except OSError:
        return ()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return path, set_threads, get_threads
    return ()


@contextlib.contextmanager
def one_blas_thread():
    """Run the enclosed dense BLAS/LAPACK work on one OpenBLAS thread, then
    restore the previous count; a no-op on any other BLAS. Also a decorator.

    Two reasons. Results: a threaded ``eigh`` splits its work by thread
    count, so its last bits would depend on the machine's cores. Cost: after
    a threaded call OpenBLAS's idle threads busy-wait for more work, which
    burned about 0.1 s of CPU per call on the sizes tracelab solves.
    """
    blas = _openblas()
    if not blas:
        yield
        return
    _, set_threads, get_threads = blas
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def blas_info() -> dict:
    """Basename of the OpenBLAS file whose thread count tracelab pins (None
    when there is none) and whether its dense solves run on one thread."""
    blas = _openblas()
    return {"library": os.path.basename(blas[0]) if blas else None,
            "one_thread": bool(blas)}
