"""Expansion certificates and Hamiltonicity: exhaustive and sampled
expander checks, an exact cycle decision for small graphs, a randomized
rotation-extension search, and the two trace thresholds (first time every
vertex touches an edge, first time the trace turns Hamiltonian).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels as K
from .bounds import BudgetError
from .graphs import (Graph, GraphError, connectivity_profile, mask_of,
                     neighbor_masks, union_of)
from .walks import WalkTrace, simulate_walk, trace_prefix_graph

_DP_LIMIT = 24


class HamiltonError(RuntimeError):
    """Internal consistency failure in a cycle search."""


# ---------------------------------------------------------------------------
# expansion / joinedness certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpanderCheck:
    """Result of one certification sweep.

    ``witness`` is a violating set (or pair of sets) when ``passed`` is
    False; re-validating it needs nothing but the graph. ``exhaustive``
    distinguishes a proof (every candidate examined) from sampled evidence.
    """

    kind: str
    c: float
    passed: bool
    mode: str
    set_size: int
    checked: int
    exhaustive: bool
    witness: tuple | None


def _check_sweep(c: float, mode: str, samples: int) -> None:
    if c < 1.0:
        raise GraphError("c must be >= 1")
    if mode == "sampled":
        if samples < 1:
            raise GraphError("samples must be >= 1")
    elif mode != "exact":
        raise GraphError(f"unknown mode {mode!r}")


def _sweep(kind: str, c: float, mode: str, set_size: int, candidates,
           violates) -> ExpanderCheck:
    """Test ``candidates`` in order; the first one ``violates`` flags stops
    the sweep as the witness. A pass is exhaustive in exact mode only."""
    checked = 0
    for cand in candidates:
        checked += 1
        if violates(cand):
            return ExpanderCheck(kind=kind, c=c, passed=False, mode=mode,
                                 set_size=set_size, checked=checked,
                                 exhaustive=False, witness=cand)
    return ExpanderCheck(kind=kind, c=c, passed=True, mode=mode, set_size=set_size,
                         checked=checked, exhaustive=mode == "exact", witness=None)


def check_expansion(g: Graph, c: float, mode: str = "exact", samples: int = 64,
                    seed: int = 0, budget: int = 2_000_000) -> ExpanderCheck:
    """Check |N(X)| >= c |X| for vertex sets up to size floor(n / (2c)).

    Exact mode enumerates every candidate set (and is a proof when it
    passes); the enumeration size is pre-checked against ``budget``.
    Sampled mode draws ``samples`` sets per size from stream ``(seed, 0)``.
    The first violation stops the sweep and is returned as the witness.
    """
    _check_sweep(c, mode, samples)
    n = g.n
    cap = int(math.floor(n / (2.0 * c)))
    nbr = neighbor_masks(g)
    if mode == "exact":
        total = sum(math.comb(n, s) for s in range(1, cap + 1))
        if total > budget:
            raise BudgetError(
                f"exact expansion sweep needs {total} sets (budget {budget}); use sampled mode")
        sets = (x for s in range(1, cap + 1) for x in itertools.combinations(range(n), s))
    else:
        orders = K.shuffles(n, seed, 0)
        sets = (tuple(sorted(order[:s].tolist())) for s in range(1, cap + 1)
                for order in itertools.islice(orders, samples))

    def violates(x):
        return (union_of(nbr, x) & ~mask_of(x)).bit_count() < c * len(x)

    return _sweep("expansion", c, mode, cap, sets, violates)


def check_joinedness(g: Graph, c: float, mode: str = "exact", samples: int = 64,
                     seed: int = 0, budget: int = 2_000_000) -> ExpanderCheck:
    """Check that every two disjoint vertex sets of the target size touch.

    Exact mode uses size floor(n / (2c)) (the largest size the definition
    constrains) and enumerates unordered disjoint pairs; sampled mode uses
    size ceil(n / (2c)) and draws ``samples`` disjoint pairs per call.
    A missing edge between some pair is returned as the witness.
    """
    _check_sweep(c, mode, samples)
    n = g.n
    nbr = neighbor_masks(g)
    if mode == "exact":
        size = int(math.floor(n / (2.0 * c)))
        total = math.comb(n, size) * math.comb(n - size, size) // 2
        if total > budget:
            raise BudgetError(
                f"exact joinedness sweep needs {total} pairs (budget {budget}); use sampled mode")
        # each unordered pair once, the set holding the smaller least vertex
        # first; size 0 has no pairs
        pairs = ((a, b) for a in itertools.combinations(range(n), size) if size
                 for b in itertools.combinations(
                     [v for v in range(a[0] + 1, n) if v not in a], size))
    else:
        size = int(math.ceil(n / (2.0 * c)))
        if 2 * size > n:
            raise GraphError("cannot draw two disjoint sets of that size")
        pairs = ((tuple(sorted(order[:size].tolist())),
                  tuple(sorted(order[size:2 * size].tolist())))
                 for order in itertools.islice(K.shuffles(n, seed, 0), samples))

    def violates(pair):
        a, b = pair
        return union_of(nbr, a) & mask_of(b) == 0

    return _sweep("joinedness", c, mode, size, pairs, violates)


@dataclass(frozen=True)
class ExpanderCertificate:
    c: float
    expansion: ExpanderCheck
    joinedness: ExpanderCheck

    @property
    def certified(self) -> bool:
        return self.expansion.passed and self.joinedness.passed


def certify_expander(g: Graph, c: float, mode: str = "exact", samples: int = 64,
                     seed: int = 0, budget: int = 2_000_000) -> ExpanderCertificate:
    """Run both expander checks at parameter ``c``."""
    return ExpanderCertificate(
        c=c,
        expansion=check_expansion(g, c, mode=mode, samples=samples, seed=seed, budget=budget),
        joinedness=check_joinedness(g, c, mode=mode, samples=samples, seed=seed, budget=budget),
    )


# ---------------------------------------------------------------------------
# exact Hamiltonicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleResult:
    """Outcome of a cycle search.

    ``status`` is "found" (cycle attached, verified), "proven-absent"
    (an exhaustive search, or any method when the Hamilton certificate
    rules a cycle out), or "budget-exhausted". ``work`` reports method-specific
    effort counters.
    """

    status: str
    cycle: tuple[int, ...] | None
    method: str
    work: dict[str, int]

    @property
    def found(self) -> bool:
        return self.status == "found"


def _rules_out_cycle(g: Graph) -> bool:
    """Hamilton certificate: fewer than 3 vertices, a vertex of degree < 2,
    or a disconnected graph leaves no Hamilton cycle."""
    return g.n < 3 or int(g.degrees.min()) < 2 or not connectivity_profile(g)[0]


def verify_cycle(g: Graph, cycle: Sequence[int]) -> bool:
    """Is ``cycle`` a Hamilton cycle of g (every vertex once, edges real)?"""
    n = g.n
    seq = [int(v) for v in cycle]
    if len(seq) != n or n < 3 or min(seq) < 0 or max(seq) >= n:
        return False
    order = np.array(seq, dtype=np.int64)
    if np.bincount(order, minlength=n).max() > 1:
        return False
    # each step, the closing one too, as a key u * n + v among the CSR's keys
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(g.indptr)) + g.indices
    want = order * n + np.roll(order, -1)
    at = np.searchsorted(keys, want)
    return not (at == keys.size).any() and bool((keys[at] == want).all())


def _reconstruct_cycle(dp: np.ndarray, nbr: np.ndarray, n: int) -> list[int]:
    full = (1 << n) - 1
    closing = int(dp[full]) & int(nbr[0])
    v = (closing & -closing).bit_length() - 1
    seq: list[int] = []
    mask = full
    cur = v
    while mask != 1:
        seq.append(cur)
        prev = mask ^ (1 << cur)
        cand = int(dp[prev]) & int(nbr[cur])
        if cand == 0:
            raise HamiltonError("dp table inconsistent during reconstruction")
        cur = (cand & -cand).bit_length() - 1
        mask = prev
    seq.append(0)
    seq.reverse()
    return seq


def _exact_dp(g: Graph) -> CycleResult:
    n = g.n
    nbr = np.array(neighbor_masks(g), dtype=np.int64)
    dp = np.zeros(1 << n, dtype=np.uint32)
    K.ham_dp(nbr, np.int64(n), dp)
    work = {"masks": 1 << (n - 1)}
    if int(dp[(1 << n) - 1]) & int(nbr[0]):
        cycle = _reconstruct_cycle(dp, nbr, n)
        if not verify_cycle(g, cycle):
            raise HamiltonError("reconstructed cycle failed verification")
        return CycleResult(status="found", cycle=tuple(cycle), method="exact", work=work)
    return CycleResult(status="proven-absent", cycle=None, method="exact", work=work)


def _exact_branch_bound(g: Graph, budget: int) -> CycleResult:
    """Depth-first search with degree- and connectivity-based pruning."""
    n = g.n
    by_degree = sorted(range(n), key=lambda v: (g.degree(v), v))
    rank = {v: i for i, v in enumerate(by_degree)}
    adj = [sorted((int(w) for w in g.neighbors(v)), key=lambda w: rank[w])
           for v in range(n)]
    nbrmask = neighbor_masks(g)
    full = (1 << n) - 1

    def feasible(visited: int, end: int) -> bool:
        free = full & ~visited
        if free == 0:
            return True
        # every free vertex still needs two usable slots (free neighbors,
        # the current endpoint, or the cycle anchor 0)
        probe = free
        while probe:
            low = probe & -probe
            v = low.bit_length() - 1
            avail = (nbrmask[v] & free).bit_count()
            if (nbrmask[v] >> end) & 1:
                avail += 1
            if nbrmask[v] & 1:
                avail += 1
            if avail < 2:
                return False
            probe ^= low
        # free vertices plus the endpoint must stay in one piece
        seen = 1 << end
        frontier = [end]
        while frontier:
            x = frontier.pop()
            cand = nbrmask[x] & (free | (1 << end)) & ~seen
            while cand:
                low = cand & -cand
                seen |= low
                frontier.append(low.bit_length() - 1)
                cand ^= low
        return (free & ~seen) == 0

    path = [0]
    visited = 1
    iters = [iter(adj[0])]
    expansions = 0
    while iters:
        if expansions > budget:
            return CycleResult(status="budget-exhausted", cycle=None,
                               method="exact", work={"expansions": expansions})
        moved = False
        for w in iters[-1]:
            if (visited >> w) & 1:
                continue
            expansions += 1
            if len(path) == n - 1:
                if (nbrmask[w] & 1) and verify_cycle(g, path + [w]):
                    return CycleResult(status="found", cycle=tuple(path + [w]),
                                       method="exact", work={"expansions": expansions})
                continue
            if not feasible(visited | (1 << w), w):
                continue
            path.append(w)
            visited |= 1 << w
            iters.append(iter(adj[w]))
            moved = True
            break
        if not moved:
            iters.pop()
            v = path.pop()
            if path:
                visited &= ~(1 << v)
    return CycleResult(status="proven-absent", cycle=None, method="exact",
                       work={"expansions": expansions})


def hamiltonian_exact(g: Graph, method: str = "auto",
                      budget: int = 20_000_000) -> CycleResult:
    """Decide Hamiltonicity exactly.

    Subset DP (complete and budget-free) up to 24 vertices; beyond that a
    pruned depth-first search that may return "budget-exhausted" instead of
    an answer. The Hamilton certificate (n < 3, a vertex of degree < 2, or
    a disconnected graph) short-circuits to proven-absent.
    """
    n = g.n
    if _rules_out_cycle(g):
        return CycleResult(status="proven-absent", cycle=None, method="exact",
                           work={"masks": 0})
    if method == "auto":
        method = "dp" if n <= _DP_LIMIT else "bb"
    if method == "dp":
        if n > _DP_LIMIT:
            raise BudgetError(f"subset dp capped at n = {_DP_LIMIT}")
        return _exact_dp(g)
    if method == "bb":
        return _exact_branch_bound(g, budget)
    raise GraphError(f"unknown method {method!r}")


def hamiltonian_posa(g: Graph, seed: int, max_rotations: int | None = None,
                     max_restarts: int = 50, stream: int = 0) -> CycleResult:
    """Randomized rotation-extension search. It proves absence only through
    the Hamilton certificate (n < 3, a vertex of degree < 2, or a
    disconnected graph), checked before any search; otherwise it either
    finds a cycle or exhausts its budget.

    Defaults: 100 n rotations per restart, 50 restarts. A returned cycle is
    always verified before it leaves this function.
    """
    if max_rotations is not None and max_rotations < 1:
        raise GraphError("max_rotations must be >= 1")
    if max_restarts < 0:
        raise GraphError("max_restarts must be >= 0")
    n = g.n
    if _rules_out_cycle(g):
        return CycleResult(status="proven-absent", cycle=None, method="posa",
                           work={"rotations": 0, "restarts": 0})
    if max_rotations is None:
        max_rotations = 100 * n
    state = K.stream_state(seed, stream)
    path = np.empty(n, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    status, rotations, restarts = K.posa_cycle(
        g.indptr, g.indices, np.int64(n), state,
        np.int64(max_rotations), np.int64(max_restarts), path, pos)
    work = {"rotations": int(rotations), "restarts": int(restarts)}
    if int(status) == 1:
        cycle = tuple(int(v) for v in path)
        if not verify_cycle(g, cycle):
            raise HamiltonError("search returned a non-cycle")
        return CycleResult(status="found", cycle=cycle, method="posa", work=work)
    return CycleResult(status="budget-exhausted", cycle=None, method="posa", work=work)


# ---------------------------------------------------------------------------
# trace thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TauResult:
    """Edge-touch and Hamiltonicity thresholds of one walk trace.

    ``tau1``: first step after which every vertex meets a trace edge.
    ``tau_hc``: first step whose trace prefix carries a Hamilton cycle;
    exact when the prefix checker proved its answers, otherwise a verified
    upper bound. Censoring means the walk budget ended first.
    """

    start: int
    length: int
    tau1: int | None
    tau_hc: int | None
    exact: bool
    censored: bool
    probes: int


def _prefix_hamiltonian(trace: WalkTrace, upto: int, exact: bool, seed: int,
                        probe: int, budget: int | None) -> bool:
    g = trace_prefix_graph(trace, upto)
    if exact:
        return hamiltonian_exact(g).found
    res = hamiltonian_posa(g, seed, max_rotations=budget,
                           stream=K.AUX_STREAM + probe)
    return res.found


def tau_times(g: Graph, start: int, length: int, seed: int,
              checker_budget: int | None = None) -> TauResult:
    """Both trace thresholds for a single walk of up to ``length`` steps.

    The Hamiltonicity threshold is located by bisection over the recorded
    first-traversal steps (trace prefixes only grow, so the exact predicate
    is monotone). Graphs beyond the exact-checker cap fall back to the
    rotation-extension search per probe; every positive probe is verified,
    so the reported value is a sound upper bound, flagged non-exact.
    """
    if checker_budget is not None and checker_budget < 1:
        raise GraphError("checker_budget must be >= 1")
    trace = simulate_walk(g, start, length, seed, stream=0)
    exact = g.n <= _DP_LIMIT
    if not trace.covered:
        return TauResult(start=start, length=length, tau1=None, tau_hc=None,
                         exact=exact, censored=True, probes=0)
    tau1 = max(int(trace.first_visit_step.max()), 1)
    steps = trace.edge_step
    probes = 0
    if not _prefix_hamiltonian(trace, length, exact, seed, probes, checker_budget):
        return TauResult(start=start, length=length, tau1=tau1, tau_hc=None,
                         exact=exact, censored=True, probes=1)
    probes = 1
    lo, hi = 0, steps.size - 1  # invariant: prefix through steps[hi] is hamiltonian
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if _prefix_hamiltonian(trace, int(steps[mid]), exact, seed, probes, checker_budget):
            hi = mid
        else:
            lo = mid + 1
    return TauResult(start=start, length=length, tau1=tau1,
                     tau_hc=int(steps[hi]), exact=exact, censored=False,
                     probes=probes)
