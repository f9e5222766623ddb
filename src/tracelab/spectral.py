"""Spectral measurements: extreme adjacency eigenvalues, effective
resistances through Laplacian solves, and total-variation mixing profiles.

Graphs up to ``dense_limit`` vertices go through LAPACK (``numpy.linalg.eigh``)
on the dense adjacency matrix; larger ones through power iteration on the
shifted operators A + dI and dI - A restricted to the mean-zero subspace,
which isolates the second-largest and smallest adjacency eigenvalues of a
regular graph without forming the matrix. Resistances come from
conjugate-gradient Laplacian solves, again on the mean-zero subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import _accel
from . import _kernels as K
from .graphs import Graph, GraphError, connectivity_profile


class SpectralError(RuntimeError):
    """Iteration failed to reach its tolerance."""


# fixed, documented seed for the power-iteration start vectors; a numerical
# detail, not an experiment seed
_EIGEN_SEED = 0x51B0


def _neighbor_sums(g: Graph, x: np.ndarray) -> np.ndarray:
    """A @ x via the compiled kernel or a reduceat fallback."""
    if _accel.NUMBA_ENABLED:
        out = np.empty_like(x)
        K.adj_matvec(g.indptr, g.indices, x, out)
        return out
    m = g.indices.size
    if m == 0:
        return np.zeros(g.n, dtype=x.dtype)
    offsets = np.minimum(g.indptr[:-1], m - 1)
    s = np.add.reduceat(x[g.indices], offsets)
    s[g.indptr[:-1] == g.indptr[1:]] = 0
    return s


@dataclass(frozen=True)
class SpectralSummary:
    """Certified spectral profile of a regular graph.

    ``lambda_abs`` is max(|lambda2|, |lambda_min|), the quantity the walk
    bounds consume; ``ratio`` is d / lambda_abs. ``residual`` is the larger
    eigenpair residual norm(A x - lambda x) of the two returned eigenvalues,
    on either path. ``iterations`` counts power-iteration steps and is 0 on
    the dense path.
    """

    n: int
    d: int
    lambda2: float
    lambda_min: float
    lambda_abs: float
    ratio: float
    method: str
    residual: float
    iterations: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "d": self.d,
            "lambda2": self.lambda2,
            "lambda_min": self.lambda_min,
            "lambda_abs": self.lambda_abs,
            "ratio": self.ratio if math.isfinite(self.ratio) else None,
            "method": self.method,
            "residual": self.residual,
            "iterations": self.iterations,
        }


def _power_extreme(g: Graph, d: int, sign: int, tol: float, max_iter: int):
    """Top eigenvalue of d*I + sign*A on the mean-zero subspace.

    Returns the corresponding adjacency eigenvalue (lambda2 for sign=+1,
    lambda_min for sign=-1), the final residual, and iterations used.
    """
    n = g.n
    x = K.stream_floats(_EIGEN_SEED, 0 if sign > 0 else 1, n) - 0.5
    x -= x.mean()
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        x = np.zeros(n)
        x[0], x[1] = 1.0, -1.0
        nx = math.sqrt(2.0)
    x /= nx
    scale = max(2.0 * d, 1.0)
    res = math.inf
    for it in range(1, max_iter + 1):
        y = d * x + sign * _neighbor_sums(g, x)
        y -= y.mean()
        rq = float(x @ y)
        res = float(np.linalg.norm(y - rq * x))
        if res <= tol * scale:
            lam = rq - d if sign > 0 else d - rq
            return lam, res, it
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            # x spans the kernel of the shifted operator: exact eigenpair
            lam = rq - d if sign > 0 else d - rq
            return lam, 0.0, it
        x = y / ny
    raise SpectralError(f"power iteration stalled at residual {res:.3e} after {max_iter} steps")


def eigen_extremes(g: Graph, tol: float = 1e-8, max_iter: int = 200_000,
                   method: str = "auto", dense_limit: int = 512) -> SpectralSummary:
    """Second-largest and smallest adjacency eigenvalues of a regular graph.

    ``method`` is "dense" (LAPACK on the full matrix), "iterative" (shifted
    power iteration), or "auto" (dense up to ``dense_limit`` vertices).
    ``tol`` and ``max_iter`` bound the power iteration only.
    """
    d = g.regular_degree
    if d is None:
        raise GraphError("eigen_extremes needs a regular graph")
    if g.n < 2:
        raise GraphError("eigen_extremes needs at least two vertices")
    if method == "auto":
        method = "dense" if g.n <= dense_limit else "iterative"
    if method == "dense":
        a = g.adjacency_matrix()
        evals, evecs = np.linalg.eigh(a)
        lam2 = float(evals[-2])
        lam_min = float(evals[0])
        residual = max(float(np.linalg.norm(a @ evecs[:, k] - evals[k] * evecs[:, k]))
                       for k in (-2, 0))
        iterations = 0
    elif method == "iterative":
        lam2, r2, i2 = _power_extreme(g, d, +1, tol, max_iter)
        lam_min, rm, im = _power_extreme(g, d, -1, tol, max_iter)
        residual = max(r2, rm)
        iterations = i2 + im
    else:
        raise GraphError(f"unknown method {method!r}")
    lam_abs = max(abs(lam2), abs(lam_min))
    ratio = d / lam_abs if lam_abs > 0 else math.inf
    return SpectralSummary(n=g.n, d=d, lambda2=lam2, lambda_min=lam_min,
                           lambda_abs=lam_abs, ratio=ratio, method=method,
                           residual=residual, iterations=iterations)


# ---------------------------------------------------------------------------
# effective resistance
# ---------------------------------------------------------------------------


def _solve_laplacian(g: Graph, b: np.ndarray, tol: float, max_iter: int | None) -> np.ndarray:
    """Mean-zero solution of L x = b by conjugate gradients.

    The right side is projected onto the mean-zero subspace where the
    Laplacian of a connected graph is positive definite; iterates are
    re-projected each step to stop drift along the kernel.
    """
    n = g.n
    deg = g.degrees.astype(np.float64)
    b = b - b.mean()
    bn = float(np.linalg.norm(b))
    x = np.zeros(n)
    if bn == 0.0:
        return x
    if max_iter is None:
        max_iter = 20 * n + 200
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for _ in range(max_iter):
        q = deg * p - _neighbor_sums(g, p)
        q -= q.mean()
        denom = float(p @ q)
        if denom <= 0.0:
            raise SpectralError("laplacian solve broke down (graph connected?)")
        alpha = rs / denom
        x += alpha * p
        r -= alpha * q
        r -= r.mean()
        rs_next = float(r @ r)
        if math.sqrt(rs_next) <= tol * bn:
            x -= x.mean()
            return x
        p = r + (rs_next / rs) * p
        rs = rs_next
    raise SpectralError(f"cg missed tolerance: residual {math.sqrt(rs):.3e} vs {tol * bn:.3e}")


def effective_resistance(g: Graph, u: int, v: int, tol: float = 1e-10,
                         max_iter: int | None = None) -> float:
    """Two-point effective resistance with unit conductances on the edges."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError("vertex out of range")
    if u == v:
        return 0.0
    connected, _ = connectivity_profile(g)
    if not connected:
        raise GraphError("effective resistance needs a connected graph")
    b = np.zeros(g.n)
    b[u] = 1.0
    b[v] = -1.0
    x = _solve_laplacian(g, b, tol, max_iter)
    return float(x[u] - x[v])


def resistance_matrix(g: Graph, tol: float = 1e-10, max_iter: int | None = None) -> np.ndarray:
    """All-pairs effective resistances via n - 1 Laplacian solves.

    Column v of the potential table is the mean-zero solution for the
    source pair (v, 0); the pairwise combination
    R[u, v] = X[u, u] + X[v, v] - X[u, v] - X[v, u] then covers every pair.
    """
    connected, _ = connectivity_profile(g)
    if not connected:
        raise GraphError("effective resistance needs a connected graph")
    n = g.n
    x_cols = np.zeros((n, n))
    b = np.zeros(n)
    for v in range(1, n):
        b[:] = 0.0
        b[v] = 1.0
        b[0] = -1.0
        x_cols[:, v] = _solve_laplacian(g, b, tol, max_iter)
    diag = np.diag(x_cols).copy()
    r = diag[:, None] + diag[None, :] - x_cols - x_cols.T
    np.fill_diagonal(r, 0.0)
    return r


# ---------------------------------------------------------------------------
# mixing profiles
# ---------------------------------------------------------------------------

_TV_LIMIT = 5000


def tv_distance_profile(g: Graph, start: int, t_max: int) -> np.ndarray:
    """Exact TV distance to uniform after 0..t_max steps from ``start``.

    Regular graphs only (the walk's stationary law must be uniform). Entry t
    is half the l1 distance between the t-step law and uniform; the sequence
    is non-increasing whether or not the walk mixes.
    """
    d = g.regular_degree
    if d is None or d == 0:
        raise GraphError("tv profile needs a regular graph of positive degree")
    if not (0 <= start < g.n):
        raise GraphError("start out of range")
    if g.n > _TV_LIMIT:
        raise GraphError(f"exact tv profile capped at n = {_TV_LIMIT}")
    if t_max < 0:
        raise GraphError("t_max must be >= 0")
    p = np.zeros(g.n)
    p[start] = 1.0
    target = 1.0 / g.n
    out = np.empty(t_max + 1)
    out[0] = 0.5 * float(np.abs(p - target).sum())
    for t in range(1, t_max + 1):
        p = _neighbor_sums(g, p) / d
        out[t] = 0.5 * float(np.abs(p - target).sum())
    return out


def empirical_mixing_time(g: Graph, xi: float, max_steps: int = 4096) -> int:
    """Smallest t where the worst-start TV distance to uniform drops below xi.

    Exact distribution iteration from every start. Bipartite graphs never
    mix (parity pins TV at 1/2 or more for half the time steps), so they are
    rejected up front, as are disconnected ones.
    """
    if not (0.0 < xi < 1.0):
        raise GraphError("xi must be in (0, 1)")
    d = g.regular_degree
    if d is None or d == 0:
        raise GraphError("mixing time needs a regular graph of positive degree")
    if g.n > _TV_LIMIT:
        raise GraphError(f"empirical mixing capped at n = {_TV_LIMIT}")
    connected, bipartite = connectivity_profile(g)
    if not connected:
        raise GraphError("mixing time needs a connected graph")
    if bipartite:
        raise GraphError("bipartite walk never mixes to uniform")
    target = 1.0 / g.n
    worst = 0
    for start in range(g.n):
        p = np.zeros(g.n)
        p[start] = 1.0
        t = 0
        while 0.5 * float(np.abs(p - target).sum()) >= xi:
            if t >= max_steps:
                raise SpectralError(f"no mixing below xi={xi} within {max_steps} steps")
            p = _neighbor_sums(g, p) / d
            t += 1
        if t > worst:
            worst = t
    return worst
