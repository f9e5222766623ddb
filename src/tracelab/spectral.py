"""Spectral measurements: extreme adjacency eigenvalues, effective
resistances through Laplacian solves, and total-variation mixing profiles.

Graphs up to 512 vertices go through LAPACK (``numpy.linalg.eigh``) on the
dense adjacency matrix; larger ones through one Lanczos run on the
mean-zero subspace, whose Krylov basis gives both the second-largest and
the smallest adjacency eigenvalue of a regular graph without forming the
matrix. Resistances come from one dense LAPACK solve against the Laplacian,
capped at ``DENSE_SOLVE_LIMIT`` vertices.

Every dense solve here, and the hitting-time solve in :mod:`tracelab.bounds`,
runs on one BLAS thread (``_accel.one_blas_thread``). A threaded ``eigh``
splits its work by thread count, so at n = 512 its last bits differed
between one and two threads; pinned, every float depends on the inputs
alone. OpenBLAS's idle threads also busy-wait after each threaded call,
which cost more CPU than the threads saved at these sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from ._accel import one_blas_thread
from .graphs import Graph, GraphError, connectivity_profile


class SpectralError(RuntimeError):
    """A solve or iteration failed to reach its tolerance."""


# fixed, documented seed for the Lanczos start vector; a numerical detail,
# not an experiment seed
_EIGEN_SEED = 0x51B0

# Above this many vertices eigen_extremes runs Lanczos instead of forming the
# dense adjacency matrix.
_DENSE_EIGEN_LIMIT = 512

# Cap on the dense n x n solves (resistances here, hitting times in bounds).
DENSE_SOLVE_LIMIT = 2000


def _neighbor_sums(g: Graph, x: np.ndarray) -> np.ndarray:
    """A @ x: each row's neighbour entries summed with one ``reduceat``."""
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
    on either path. ``iterations`` counts the Lanczos path's matrix-vector
    products (two of them for the explicit residuals) and is 0 on the dense
    path.
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


@one_blas_thread()
def _lanczos_extremes(g: Graph, d: int, tol: float):
    """lambda2 and lambda_min of a regular graph from one Lanczos run.

    The run stays on the mean-zero subspace, where lambda2 is the top of the
    spectrum, and reorthogonalises every new vector against the whole basis.
    It stops once the cheap residual bounds beta_k |s_k| of both extreme Ritz
    pairs pass half of ``tol * 2d`` (the other half is room for roundoff in
    the explicit residual norm(A y - theta y), which is what gets reported),
    or when the subspace is exhausted. Returns
    ``(lambda2, lambda_min, residual, matvecs)``.
    """
    n = g.n
    limit = tol * max(2.0 * d, 1.0)
    q = K.stream_floats(_EIGEN_SEED, 0, n) - 0.5
    q -= q.mean()
    q /= np.linalg.norm(q)
    # the basis grows by doubling: a full (n - 1) x n block is the dense
    # matrix this path exists to avoid
    basis = np.empty((min(64, n - 1), n))
    alphas: list[float] = []
    betas: list[float] = []
    for k in range(n - 1):
        if k == basis.shape[0]:
            basis = np.vstack([basis, np.empty((min(k, n - 1 - k), n))])
        basis[k] = q
        w = _neighbor_sums(g, q)
        w -= w.mean()
        alphas.append(float(q @ w))
        for _ in range(2):
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        beta = float(np.linalg.norm(w))
        # the small eigh costs more than a matvec, so the stopping test runs
        # every 8th step, at breakdown and on the last step
        if beta <= limit / 2 or k % 8 == 7 or k == n - 2:
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            theta, s = np.linalg.eigh(t)
            if beta * max(abs(s[-1, -1]), abs(s[-1, 0])) <= limit / 2 or k == n - 2:
                break
        betas.append(beta)
        q = w / beta
    matvecs = len(alphas)
    residual = 0.0
    for j in (-1, 0):
        y = basis[:matvecs].T @ s[:, j]
        residual = max(residual, float(np.linalg.norm(_neighbor_sums(g, y) - theta[j] * y)))
    if residual > limit:
        raise SpectralError(f"lanczos residual {residual:.3e} above {limit:.3e}")
    return float(theta[-1]), float(theta[0]), residual, matvecs + 2


def eigen_extremes(g: Graph, tol: float = 1e-8, method: str = "auto") -> SpectralSummary:
    """Second-largest and smallest adjacency eigenvalues of a regular graph.

    ``method`` is "dense" (LAPACK on the full matrix), "iterative"
    (Lanczos), or "auto" (dense up to 512 vertices). ``tol`` must be > 0
    and bounds the Lanczos residual only, relative to 2d.
    """
    d = g.regular_degree
    if d is None:
        raise GraphError("eigen_extremes needs a regular graph")
    if g.n < 2:
        raise GraphError("eigen_extremes needs at least two vertices")
    if not tol > 0:
        raise GraphError("tol must be > 0")
    if method == "auto":
        method = "dense" if g.n <= _DENSE_EIGEN_LIMIT else "iterative"
    if method == "dense":
        a = g.adjacency_matrix()
        with one_blas_thread():
            evals, evecs = np.linalg.eigh(a)
            residual = max(float(np.linalg.norm(a @ evecs[:, k] - evals[k] * evecs[:, k]))
                           for k in (-2, 0))
        lam2 = float(evals[-2])
        lam_min = float(evals[0])
        iterations = 0
    elif method == "iterative":
        lam2, lam_min, residual, iterations = _lanczos_extremes(g, d, tol)
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


def _laplacian_solve(g: Graph, b: np.ndarray) -> np.ndarray:
    """Mean-zero X with L X = B, for right-hand sides B with mean-zero columns.

    L + J/n (J all ones) acts as L on the mean-zero subspace and as the
    identity on the constants, so it is nonsingular on a connected graph and
    one dense LAPACK solve gives X.
    """
    if g.n > DENSE_SOLVE_LIMIT:
        raise GraphError(f"dense resistance solve capped at n = {DENSE_SOLVE_LIMIT}")
    connected, _ = connectivity_profile(g)
    if not connected:
        raise GraphError("effective resistance needs a connected graph")
    with one_blas_thread():
        return np.linalg.solve(g.laplacian_matrix() + 1.0 / g.n, b)


def effective_resistance(g: Graph, u: int, v: int) -> float:
    """Two-point effective resistance with unit conductances on the edges."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError("vertex out of range")
    if u == v:
        return 0.0
    b = np.zeros(g.n)
    b[u] = 1.0
    b[v] = -1.0
    x = _laplacian_solve(g, b)
    return float(x[u] - x[v])


def resistance_matrix(g: Graph) -> np.ndarray:
    """All-pairs effective resistances from the Laplacian pseudoinverse X:
    R[u, v] = X[u, u] + X[v, v] - 2 X[u, v]."""
    n = g.n
    x = _laplacian_solve(g, np.eye(n) - 1.0 / n)
    diag = np.diag(x)
    r = diag[:, None] + diag[None, :] - x - x.T
    np.fill_diagonal(r, 0.0)
    return r


# ---------------------------------------------------------------------------
# mixing profiles
# ---------------------------------------------------------------------------

_TV_LIMIT = 5000
# steps empirical_mixing_time iterates from a start before it gives up
_MIXING_STEPS = 4096


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


def empirical_mixing_time(g: Graph, xi: float) -> int:
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
            if t >= _MIXING_STEPS:
                raise SpectralError(f"no mixing below xi={xi} within {_MIXING_STEPS} steps")
            p = _neighbor_sums(g, p) / d
            t += 1
        if t > worst:
            worst = t
    return worst
