"""Closed-form bounds and exact small-instance baselines.

Covers first-step hitting-time solves, the resistance identity for hitting
times, Matthews-style cover bounds, the spectral hitting-time sandwich, a
spectral mixing-time bound, exhaustive and sampled mixing-lemma checks, and
the binomial tail machinery used by the visit-count experiments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import _kernels as K
from ._accel import one_blas_thread
from .graphs import (Graph, GraphError, connectivity_profile, mask_of,
                     neighbor_masks, popcounts)
from .spectral import DENSE_SOLVE_LIMIT, resistance_matrix


class BudgetError(RuntimeError):
    """An exhaustive sweep would exceed its work budget."""


def harmonic(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k, exactly summed."""
    if k < 0:
        raise ValueError("harmonic index must be >= 0")
    return math.fsum(1.0 / i for i in range(1, k + 1))


# ---------------------------------------------------------------------------
# hitting times
# ---------------------------------------------------------------------------


def hitting_times_to(g: Graph, v: int) -> np.ndarray:
    """Expected steps to reach ``v`` from every start, by dense solve.

    First-step equations with v absorbing: (I - Q) h = 1 on the other
    vertices, Q the walk restricted away from v. Dense LU keeps this exact
    up to conditioning; it shares the resistance solves' size cap.
    """
    if not (0 <= v < g.n):
        raise GraphError("vertex out of range")
    if g.n > DENSE_SOLVE_LIMIT:
        raise GraphError(f"dense hitting solve capped at n = {DENSE_SOLVE_LIMIT}")
    connected, _ = connectivity_profile(g)
    if not connected:
        raise GraphError("hitting times need a connected graph")
    n = g.n
    if n == 1:
        return np.zeros(1)
    idx = np.concatenate([np.arange(v), np.arange(v + 1, n)])
    deg = g.degrees.astype(np.float64)
    p = g.adjacency_matrix() / deg[:, None]
    a = np.eye(n - 1) - p[np.ix_(idx, idx)]
    with one_blas_thread():
        h = np.linalg.solve(a, np.ones(n - 1))
    out = np.zeros(n)
    out[idx] = h
    return out


def hitting_time_exact(g: Graph, u: int, v: int) -> float:
    """Expected steps of the walk from u until it first sits on v."""
    if not (0 <= u < g.n):
        raise GraphError("vertex out of range")
    return float(hitting_times_to(g, v)[u])


def hitting_time_tetali(g: Graph, resistances: np.ndarray, u: int, v: int) -> float:
    """Hitting time from pairwise resistances alone:

        H(u, v) = (1/2) * sum_w deg(w) * (R[u,v] - R[u,w] + R[v,w])

    Evaluated verbatim; the w = u and w = v terms participate. Feeding the
    same identity from an independently computed resistance matrix gives a
    cross-check route that shares nothing with the dense solve.
    """
    n = g.n
    if resistances.shape != (n, n):
        raise GraphError("resistance matrix shape mismatch")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError("vertex out of range")
    deg = g.degrees.astype(np.float64)
    total = float(deg.sum())
    return 0.5 * (total * float(resistances[u, v])
                  - float(deg @ resistances[u])
                  + float(deg @ resistances[v]))


def foster_sum(g: Graph, resistances: np.ndarray) -> float:
    """Sum of effective resistances over the edges (n - 1 on connected graphs)."""
    lo, hi = g.edge_array()
    return float(resistances[lo, hi].sum())


# ---------------------------------------------------------------------------
# cover-time bounds
# ---------------------------------------------------------------------------


def matthews_bounds(mu_minus: float, mu_plus: float, n: int,
                    convention: str = "n-1") -> tuple[float, float]:
    """Cover-time bracket from hitting-time extremes.

    Upper: mu_plus * H_n. Lower: mu_minus * H_k with k = n - 1 by default;
    ``convention="n"`` selects H_n on both sides. The convention only moves
    the lower bound by mu_minus / n.
    """
    if convention not in ("n-1", "n"):
        raise ValueError("convention must be 'n-1' or 'n'")
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 <= mu_minus <= mu_plus):
        raise ValueError("need 0 <= mu_minus <= mu_plus")
    k = n - 1 if convention == "n-1" else n
    return mu_minus * harmonic(k), mu_plus * harmonic(n)


def resistance_bounds(d: int, lam: float) -> tuple[float, float]:
    """Per-pair resistance sandwich for a d-regular graph with |spectrum| <= lam:
    2/(d+1) <= R <= 2/(d - lam)."""
    if not (0.0 < lam < d):
        raise ValueError("need 0 < lam < d")
    return 2.0 / (d + 1), 2.0 / (d - lam)


@dataclass(frozen=True)
class SpectralCoverBound:
    """Hitting-time sandwich and the cover bound it implies.

    ``h_lower``/``h_upper`` bracket every pairwise hitting time;
    ``cover_upper`` is the Matthews bound h_upper * H_n. The flags say
    whether each side of the sandwich lies inside the (1 +/- 0.1*eps) n
    band that makes the bracket useful.
    """

    n: int
    d: int
    lam: float
    eps: float
    h_lower: float
    h_upper: float
    cover_upper: float
    lower_in_band: bool
    upper_in_band: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n, "d": self.d, "lambda": self.lam, "eps": self.eps,
            "h_lower": self.h_lower, "h_upper": self.h_upper,
            "cover_upper": self.cover_upper,
            "lower_in_band": self.lower_in_band,
            "upper_in_band": self.upper_in_band,
        }


def cover_time_spectral_bound(n: int, d: int, lam: float, eps: float = 0.1) -> SpectralCoverBound:
    """Hitting-time sandwich for an (n, d, lam) graph plus its cover bound.

        h_lower = (1/2) n d (4/(d+1) - 2/(d-lam))
        h_upper = (1/2) n d (4/(d-lam) - 2/(d+1))
        cover_upper = h_upper * H_n

    Both sandwich sides are also tested against the (1 +/- 0.1 eps) n band.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 < lam < d):
        raise ValueError("need 0 < lam < d")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    h_lower = 0.5 * n * d * (4.0 / (d + 1) - 2.0 / (d - lam))
    h_upper = 0.5 * n * d * (4.0 / (d - lam) - 2.0 / (d + 1))
    cover_upper = h_upper * harmonic(n)
    lo_band = (1.0 - 0.1 * eps) * n
    hi_band = (1.0 + 0.1 * eps) * n
    return SpectralCoverBound(
        n=n, d=d, lam=lam, eps=eps,
        h_lower=h_lower, h_upper=h_upper, cover_upper=cover_upper,
        lower_in_band=h_lower >= lo_band,
        upper_in_band=h_upper <= hi_band,
    )


def mixing_time_bound(n: int, d: int, lam: float, xi: float) -> float:
    """Steps after which worst-start TV distance is provably below xi:

        ((1/2) log n + log(1/(2 xi))) / (1 - lam/d)

    Natural logs. Requires lam < d, so connected non-bipartite instances.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 < xi < 1.0):
        raise ValueError("xi must be in (0, 1)")
    if not (0.0 < lam < d):
        raise ValueError("need 0 < lam < d")
    return (0.5 * math.log(n) + math.log(1.0 / (2.0 * xi))) / (1.0 - lam / d)


@dataclass(frozen=True)
class BoundsReport:
    """Everything the spectral data of one graph buys.

    Hitting-time sandwich, Matthews cover bracket fed by it (the lower side
    clamped at zero when the sandwich goes slack), and the TV mixing bound
    when a target xi was given.
    """

    n: int
    d: int
    lam: float
    eps: float
    xi: float | None
    h_lower: float
    h_upper: float
    cover_lower: float
    cover_upper: float
    mixing_bound: float | None
    convention: str
    lower_in_band: bool
    upper_in_band: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n, "d": self.d, "lambda": self.lam, "eps": self.eps,
            "xi": self.xi, "h_lower": self.h_lower, "h_upper": self.h_upper,
            "cover_lower": self.cover_lower, "cover_upper": self.cover_upper,
            "mixing_bound": self.mixing_bound, "convention": self.convention,
            "lower_in_band": self.lower_in_band, "upper_in_band": self.upper_in_band,
        }


def bounds_report(n: int, d: int, lam: float, eps: float = 0.1,
                  xi: float | None = None, convention: str = "n-1") -> BoundsReport:
    sb = cover_time_spectral_bound(n, d, lam, eps)
    mu_minus = max(sb.h_lower, 0.0)
    cover_lower, cover_upper = matthews_bounds(mu_minus, sb.h_upper, n, convention)
    mix = mixing_time_bound(n, d, lam, xi) if xi is not None else None
    return BoundsReport(
        n=n, d=d, lam=lam, eps=eps, xi=xi,
        h_lower=sb.h_lower, h_upper=sb.h_upper,
        cover_lower=cover_lower, cover_upper=cover_upper,
        mixing_bound=mix, convention=convention,
        lower_in_band=sb.lower_in_band, upper_in_band=sb.upper_in_band,
    )


# ---------------------------------------------------------------------------
# resistance / hitting table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResistanceHittingTable:
    """All-pairs resistances and (optionally) hitting times, with provenance."""

    n: int
    resistance: np.ndarray
    hitting: np.ndarray | None
    resistance_method: str
    hitting_method: str | None

    def foster_total(self, g: Graph) -> float:
        return foster_sum(g, self.resistance)


def build_table(g: Graph, hitting: str | None = None) -> ResistanceHittingTable:
    """Resistance table for ``g``; ``hitting`` in {None, "tetali", "exact"}
    additionally fills the hitting-time matrix by the named route."""
    r = resistance_matrix(g)
    h = None
    if hitting == "tetali":
        deg = g.degrees.astype(np.float64)
        total = float(deg.sum())
        # vectorized form of the per-pair identity
        with one_blas_thread():
            du = r @ deg
        h = 0.5 * (total * r - du[:, None] + du[None, :])
    elif hitting == "exact":
        h = np.zeros((g.n, g.n))
        for v in range(g.n):
            h[:, v] = hitting_times_to(g, v)
    elif hitting is not None:
        raise ValueError("hitting must be None, 'tetali', or 'exact'")
    return ResistanceHittingTable(
        n=g.n, resistance=r, hitting=h,
        resistance_method="laplacian-dense",
        hitting_method=hitting,
    )


# ---------------------------------------------------------------------------
# expander mixing checks
# ---------------------------------------------------------------------------

_EXACT_MIXING_LIMIT = 16


@dataclass(frozen=True)
class MixingCheckReport:
    """Outcome of a mixing-lemma audit.

    Ratios are measured deviation over allowance, so anything <= 1 is slack;
    ``violations`` counts comparisons where the deviation beat the allowance
    by more than ``slack``.
    """

    mode: str
    single_max_ratio: float
    pair_max_ratio: float
    singles_checked: int
    pairs_checked: int
    violations: int
    slack: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "single_max_ratio": self.single_max_ratio,
            "pair_max_ratio": self.pair_max_ratio,
            "singles_checked": self.singles_checked,
            "pairs_checked": self.pairs_checked,
            "violations": self.violations,
            "slack": self.slack,
            "passed": self.passed,
        }


def expander_mixing_check(g: Graph, lam: float, mode: str = "exact",
                          samples: int = 64, seed: int = 0,
                          slack: float = 1e-9) -> MixingCheckReport:
    """Audit the mixing-lemma inequalities on a d-regular graph.

    Single sets:  |e(S) - d s^2 / (2n)| <= lam * s / 2.
    Disjoint pairs:  |e(S,T) - d s t / n| <= lam * sqrt(s t).

    ``mode="exact"`` sweeps every subset and every disjoint pair (n <= 16).
    ``mode="sampled"`` draws ``samples`` sets per power-of-two size stratum
    from the stream ``(seed, 0)``; pair strata use two disjoint same-size
    draws. ``lam`` must be > 0, so every allowance is positive.
    """
    d = g.regular_degree
    if d is None:
        raise GraphError("mixing check needs a regular graph")
    if not lam > 0:
        raise GraphError("lam must be > 0")
    n = g.n
    if mode == "exact":
        if n > _EXACT_MIXING_LIMIT:
            raise BudgetError(f"exact mixing sweep capped at n = {_EXACT_MIXING_LIMIT}")
        nbr = neighbor_masks(g)
        top = 1 << n
        pop = popcounts(top)
        # e[m] = edges inside subset m; a set whose top vertex is v adds
        # v's edges into the lower part
        e = np.zeros(top, dtype=np.int64)
        low = np.arange(top, dtype=np.int64)
        for v, mask in enumerate(nbr):
            e[1 << v:2 << v] = e[:1 << v] + pop[low[:1 << v] & mask]
        s = pop[1:].astype(np.float64)
        dev = np.abs(e[1:].astype(np.float64) - d * s * s / (2.0 * n))
        allow = lam * s / 2.0
        single_max = float((dev / allow).max())
        single_viol = int((dev > allow + slack).sum())
        pair_max, pair_viol = K.pair_mixing_scan(
            np.array(nbr, dtype=np.int64), np.int64(n), np.int64(d), float(lam),
            pop, e, float(slack))
        pairs_checked = (3 ** n - 2 ** (n + 1) + 1) // 2
        return MixingCheckReport(
            mode="exact",
            single_max_ratio=single_max,
            pair_max_ratio=float(pair_max),
            singles_checked=top - 1,
            pairs_checked=pairs_checked,
            violations=single_viol + int(pair_viol),
            slack=slack,
        )
    if mode != "sampled":
        raise GraphError(f"unknown mode {mode!r}")
    if samples < 1:
        raise GraphError("samples must be >= 1")
    nbr = neighbor_masks(g)
    orders = K.shuffles(n, seed, 0)
    single_max = 0.0
    pair_max = 0.0
    violations = 0
    checked = 0
    s = 1
    while s <= n // 2:
        allow = lam * s / 2.0
        allowp = lam * s
        for order in itertools.islice(orders, samples):
            a, b = order[:s].tolist(), order[s:2 * s].tolist()
            amask, bmask = mask_of(a), mask_of(b)
            es = sum((nbr[v] & amask).bit_count() for v in a) // 2
            est = sum((nbr[v] & bmask).bit_count() for v in a)
            dev = abs(es - d * s * s / (2.0 * n))
            devp = abs(est - d * s * s / float(n))
            single_max = max(single_max, dev / allow)
            pair_max = max(pair_max, devp / allowp)
            violations += int(dev > allow + slack) + int(devp > allowp + slack)
            checked += 1
        s *= 2
    return MixingCheckReport(
        mode="sampled", single_max_ratio=single_max, pair_max_ratio=pair_max,
        singles_checked=checked, pairs_checked=checked,
        violations=violations, slack=slack,
    )


# ---------------------------------------------------------------------------
# binomial machinery
# ---------------------------------------------------------------------------


def _binom_logpmf(n: int, p: float, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_cdf(n: int, p: float, t: int) -> float:
    """P(X <= t) for X ~ Bin(n, p), by direct pmf summation."""
    if t < 0:
        return 0.0
    if t >= n:
        return 1.0
    return min(1.0, math.fsum(math.exp(_binom_logpmf(n, p, k)) for k in range(0, t + 1)))


def binomial_tail_bound(n: int, p: float, t: int) -> float:
    """Closed-form lower-tail bound  t * C(n, t) p^t (1-p)^(n-t).

    Valid for integer 0 <= t <= n p, where the pmf is still climbing toward
    the mode; it then dominates P(X < t) (strict inequality: the bound packs
    t copies of the largest term below the mode). It does NOT dominate
    P(X <= t) in general; see the t = 1 case where P(X <= 1) - bound =
    (1-p)^n > 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    if t != int(t) or t < 0:
        raise ValueError("t must be a nonnegative integer")
    t = int(t)
    if t > n * p:
        raise ValueError("bound only holds for t <= n * p")
    if t == 0:
        return 0.0
    return t * math.exp(_binom_logpmf(n, p, t))


def paley_zygmund_lower(mean: float, second_moment: float) -> float:
    """P(Z > 0) >= mean^2 / E[Z^2] for a nonnegative variable Z."""
    if mean < 0.0:
        raise ValueError("mean must be >= 0 (nonnegative variable)")
    if second_moment <= 0.0:
        if mean == 0.0:
            return 0.0
        raise ValueError("second moment must be positive when the mean is")
    if mean * mean > second_moment * (1.0 + 1e-12):
        raise ValueError("second moment below mean^2 is impossible")
    return min(1.0, mean * mean / second_moment)


def visit_lower_bound(c: float, eps: float = 0.5) -> float:
    """Per-window target-visit probability floor (1 - eps) / sqrt(c)."""
    if c < 1.0:
        raise ValueError("c must be >= 1")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    return (1.0 - eps) / math.sqrt(c)


def exact_binomial_ci(hits: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Clopper-Pearson interval by bisection on the exact binomial CDF."""
    if not (0 <= hits <= trials) or trials < 1:
        raise ValueError("need 0 <= hits <= trials, trials >= 1")
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    alpha = 1.0 - level

    def _solve(target: float, k: int) -> float:
        # p with binomial_cdf(trials, p, k) == target; cdf decreases in p.
        # The p-free part of each log pmf is formed once, in _binom_logpmf's
        # order, so each step sums the same floats binomial_cdf would (its
        # cap at 1 cannot change a comparison with target < 1). numpy's
        # float64 add and multiply round as Python's do, term for term.
        head = math.lgamma(trials + 1)
        coef = np.array([head - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
                         for j in range(k + 1)])
        j = np.arange(k + 1, dtype=np.float64)
        rest = trials - j
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lp, lq = math.log(mid), math.log1p(-mid)
            cdf = math.fsum(map(math.exp, (coef + j * lp + rest * lq).tolist()))
            # once mid is lo or hi, this update leaves a fixed point
            settled = mid == lo or mid == hi
            if cdf > target:
                lo = mid
            else:
                hi = mid
            if settled:
                break
        return 0.5 * (lo + hi)

    lower = 0.0 if hits == 0 else _solve(1.0 - alpha / 2.0, hits - 1)
    upper = 1.0 if hits == trials else _solve(alpha / 2.0, hits)
    return lower, upper
