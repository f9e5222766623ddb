"""Kernel acceleration switch.

Hot loops live in :mod:`tracelab._kernels` and are compiled with numba when
it is importable, unless ``TRACELAB_NUMBA=0`` requests the interpreted path.
There, the hottest kernels run as their twins in :mod:`tracelab._twins`,
which compute exactly what the source computes, and the rest run the source
on numpy scalars. Seeded integer results never
depend on the switch; only throughput does. Float-valued kernels agree across
paths to roundoff (the interpreted path may sum in a different order).
"""

from __future__ import annotations

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
