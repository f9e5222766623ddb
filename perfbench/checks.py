"""Output checks. Each takes plain values (rows, arrays, intervals) and
returns a list of failure messages, empty when the output is right.

The expected values come from :mod:`reference` or from numpy/scipy, never
from tracelab and never from a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref


def graph_shape(n: int, d: int, indptr, indices) -> list[str]:
    """The CSR arrays describe a simple d-regular graph on n vertices."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indptr.size != n + 1 or indices.size != n * d:
        return [f"graph has {indptr.size - 1} vertices / {indices.size} slots, "
                f"want {n} / {n * d}"]
    if (np.diff(indptr) != d).any():
        return [f"graph is not {d}-regular"]
    rows = np.repeat(np.arange(n), d)
    if (rows == indices).any():
        return ["graph has a self-loop"]
    keys = np.sort(rows * n + indices)
    if (keys[1:] == keys[:-1]).any():
        return ["graph has a repeated edge"]
    back = np.sort(indices * n + rows)
    if not np.array_equal(keys, back):
        return ["graph adjacency is not symmetric"]
    return []


def adjacency(n: int, indptr, indices) -> np.ndarray:
    """Dense adjacency matrix built from CSR arrays."""
    a = np.zeros((n, n))
    rows = np.repeat(np.arange(n), np.diff(np.asarray(indptr)))
    a[rows, np.asarray(indices, dtype=np.int64)] = 1.0
    return a


def cover_rows(rows, adj: list[list[int]], seed: int, trials: int,
               pool: list[int]) -> list[tuple[int, str]]:
    """Worst-start cover rows ``[unit, start, cover_step, censored]`` against
    a reference replay; failures come back as ``(unit, message)``."""
    bad = []
    for unit, start, step, censored in rows:
        want_start = pool[unit // trials]
        if censored or step is None:
            bad.append((unit, "censored"))
            continue
        want = ref.cover_walk(adj, want_start, ref.Stream(seed, unit))
        if (start, step) != (want_start, want):
            bad.append((unit, f"(start, cover_step) = ({start}, {step}), "
                              f"reference ({want_start}, {want})"))
    return bad


def worst_start_mean(rows) -> float:
    """Largest per-start mean cover step."""
    by_start: dict[int, list[int]] = {}
    for _, start, step, _ in rows:
        by_start.setdefault(start, []).append(step)
    return max(sum(s) / len(s) for s in by_start.values())


def hamilton_cycle(cycle, n: int, trace_edges: set[tuple[int, int]]) -> list[str]:
    """The cycle visits all n vertices once and uses only traversed edges."""
    seq = [int(v) for v in cycle]
    if sorted(seq) != list(range(n)):
        return [f"cycle of length {len(seq)} does not visit each vertex once"]
    for i, a in enumerate(seq):
        b = seq[(i + 1) % n]
        if (min(a, b), max(a, b)) not in trace_edges:
            return [f"cycle edge ({a}, {b}) was never traversed"]
    return []


def trace_witness(n: int, covered: bool, trace_edges: set[tuple[int, int]]):
    """A vertex whose trace degree rules out a Hamilton cycle: degree 0 on an
    uncovered walk, degree < 2 otherwise. None when there is none."""
    deg = [0] * n
    for a, b in trace_edges:
        deg[a] += 1
        deg[b] += 1
    v = min(range(n), key=deg.__getitem__)
    if deg[v] < (1 if not covered else 2):
        return v, deg[v]
    return None


def eigen_pair(lambda2: float, lambda_min: float, a: np.ndarray, d: int,
               tol: float = 1e-8) -> list[str]:
    """lambda2 and lambda_min agree with numpy's eigvalsh to tol * d."""
    ev = np.linalg.eigvalsh(a)
    bad = []
    for name, got, want in (("lambda2", lambda2, ev[-2]), ("lambda_min", lambda_min, ev[0])):
        if not abs(got - want) <= tol * d:
            bad.append(f"{name} {got!r} vs eigvalsh {want!r}")
    return bad


def resistances(r: np.ndarray, a: np.ndarray, d: int, lam: float,
                tol: float = 1e-8) -> list[str]:
    """Resistances match the Laplacian pseudo-inverse, Foster's sum is
    n - 1, and every pair lies in 2/(d+1) <= R <= 2/(d - lam)."""
    n = a.shape[0]
    lp = np.linalg.pinv(np.diag(a.sum(axis=1)) - a)
    dg = np.diag(lp)
    want = dg[:, None] + dg[None, :] - 2.0 * lp
    np.fill_diagonal(want, 0.0)
    bad = []
    err = float(np.abs(r - want).max())
    if not err <= tol:
        bad.append(f"resistances off the pseudo-inverse by {err:.3e}")
    foster = float((r * a).sum() / 2.0)
    if not abs(foster - (n - 1)) <= tol * n:
        bad.append(f"Foster sum {foster!r}, want {n - 1}")
    off = r[~np.eye(n, dtype=bool)]
    lo, hi = 2.0 / (d + 1), 2.0 / (d - lam)
    if not (off.min() >= lo - 1e-12 and off.max() <= hi + 1e-12):
        bad.append(f"resistance range [{off.min()!r}, {off.max()!r}] "
                   f"outside [{lo!r}, {hi!r}]")
    return bad


def cover_bound(cover_upper: float, n: int, d: int, lam: float) -> list[str]:
    """cover_upper = (1/2) n d (4/(d - lam) - 2/(d + 1)) * H_n."""
    h_n = sum(1.0 / k for k in range(1, n + 1))
    want = 0.5 * n * d * (4.0 / (d - lam) - 2.0 / (d + 1)) * h_n
    if not abs(cover_upper - want) <= 1e-9 * want:
        return [f"cover_upper {cover_upper!r}, formula gives {want!r}"]
    return []


def hit_probability(n: int, d: int, indices, u: int, v: int, horizon: int) -> float:
    """Exact P(a walk from u reaches v within horizon steps), by iterating
    the walk's law with v absorbing."""
    nbrs = np.asarray(indices, dtype=np.int64).reshape(n, d)
    q = np.zeros(n)
    q[u] = 1.0
    hit = 0.0
    for _ in range(horizon):
        q = q[nbrs].sum(axis=1) / d
        hit += q[v]
        q[v] = 0.0
    return hit


def _binom_sf(k: int, trials: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(trials, p), summed in log space."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    lp, lq = math.log(p), math.log1p(-p)
    base = math.lgamma(trials + 1)
    terms = [base - math.lgamma(j + 1) - math.lgamma(trials - j + 1) + j * lp + (trials - j) * lq
             for j in range(k, trials + 1)]
    top = max(terms)
    return math.exp(top) * math.fsum(math.exp(t - top) for t in terms)


def clopper_pearson(hits: int, trials: int, level: float) -> tuple[float, float]:
    """Exact two-sided interval: scipy's beta quantiles when scipy imports,
    otherwise bisection on a log-space binomial tail."""
    alpha = 1.0 - level
    try:
        from scipy.stats import beta
    except ImportError:
        beta = None
    if beta is not None:
        lo = 0.0 if hits == 0 else float(beta.ppf(alpha / 2, hits, trials - hits + 1))
        hi = 1.0 if hits == trials else float(beta.ppf(1 - alpha / 2, hits + 1, trials - hits))
        return lo, hi

    def solve(k: int, target: float) -> float:
        a, b = 0.0, 1.0  # P(X >= k) rises with p
        for _ in range(200):
            mid = 0.5 * (a + b)
            if _binom_sf(k, trials, mid) < target:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    lo = 0.0 if hits == 0 else solve(hits, alpha / 2)
    hi = 1.0 if hits == trials else solve(hits + 1, 1 - alpha / 2)
    return lo, hi


def probe_interval(hits: int, trials: int, level: float, interval,
                   p_exact: float, tol: float = 1e-9) -> list[str]:
    """The reported interval is the Clopper-Pearson one, and the hit count
    sits within five standard deviations of trials * p_exact."""
    bad = []
    want = clopper_pearson(hits, trials, level)
    for name, got, w in zip(("low", "high"), interval, want):
        if not abs(got - w) <= tol:
            bad.append(f"ci {name} {got!r}, Clopper-Pearson {w!r}")
    sd = math.sqrt(trials * p_exact * (1.0 - p_exact))
    if not abs(hits - trials * p_exact) <= 5.0 * sd + 1.0:
        bad.append(f"{hits} hits in {trials} trials is more than 5 sd from "
                   f"the exact probability {p_exact:.6f}")
    return bad
