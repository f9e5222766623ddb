"""Seeded random walks and the measurements built on them.

Every operation takes a master seed and derives one RNG stream per trial
from ``(seed, trial_index)``, so results are reproducible for any worker
count and trials can run in any order. Auxiliary draws (start pools) use
stream indices offset by ``AUX_STREAM`` and never collide with trials.

Visit counts include the starting position: a length-L walk distributes
L + 1 visits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels as K, _twins
from ._accel import NUMBA_ENABLED
from .bounds import exact_binomial_ci
from .graphs import Graph, GraphError, connectivity_profile

AUX_STREAM = K.AUX_STREAM

# The xoshiro256++ step and the splitmix64 finaliser as Python source (numba
# keeps them as ``py_func``). Given uint64 arrays they work elementwise: the
# step advances every column of a uint64[4, lanes] state at once.
_next64 = getattr(K._next64, "py_func", K._next64)
_mix64 = getattr(K._mix64, "py_func", K._mix64)

# sample size for start pools on graphs too large to enumerate every start
START_POOL_SAMPLE = 32


def _check_start(g: Graph, start: int) -> None:
    if not (0 <= start < g.n):
        raise GraphError("start out of range")
    if g.n > 1 and g.degree(start) == 0:
        raise GraphError("start vertex is isolated")


def _check_length(length: int) -> None:
    if length < 0:
        raise GraphError("length must be >= 0")


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise GraphError("delta must be in (0, 1)")


def _check_probe(g: Graph, u: int, v: int, horizon: int) -> None:
    _check_start(g, u)
    if g.n == 1:
        raise GraphError("return probe needs at least two vertices")
    if not (0 <= v < g.n):
        raise GraphError("vertex out of range")
    if horizon < 1:
        raise GraphError("horizon must be >= 1")


def _require_connected(g: Graph) -> None:
    connected, _ = connectivity_profile(g)
    if not connected:
        raise GraphError("walk statistics need a connected graph")


def default_budget(n: int) -> int:
    """Step budget that cover experiments fall back to: 500 n max(1, ln n)."""
    return int(math.ceil(500.0 * n * max(1.0, math.log(max(n, 2)))))


def start_pool(g: Graph, seed: int, limit: int = 200,
               sample: int = START_POOL_SAMPLE) -> tuple[int, ...]:
    """Deterministic pool of start vertices: everything when n <= limit,
    otherwise a seeded sample without replacement (auxiliary stream)."""
    if sample < 1:
        raise GraphError("sample must be >= 1")
    if g.n <= limit:
        return tuple(range(g.n))
    order = next(K.shuffles(g.n, seed, AUX_STREAM))
    return tuple(int(v) for v in order[:sample])


# ---------------------------------------------------------------------------
# single-walk trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkTrace:
    """One finished walk: counts, first-visit steps, and the trace edges.

    Edge arrays are in first-traversal order, endpoints low-first; the
    vertex sequence itself is not retained (the trace and the counts are
    what the downstream analyses consume).
    """

    n: int
    start: int
    length: int
    seed: int
    stream: int
    visit_counts: np.ndarray
    first_visit_step: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_step: np.ndarray

    @property
    def covered(self) -> bool:
        return bool((self.first_visit_step >= 0).all())

    @property
    def cover_step(self) -> int | None:
        if not self.covered:
            return None
        return int(self.first_visit_step.max())

    @property
    def edge_count(self) -> int:
        return int(self.edge_u.size)


def _walk_path(g: Graph, state: np.ndarray, start: int, length: int) -> np.ndarray:
    """The ``length``-step vertex sequence from ``start`` on ``state``."""
    path = np.empty(length + 1, dtype=np.int64)
    K.walk_trace(g.indptr, g.indices, np.int64(start), np.int64(length), state, path)
    return path


def simulate_walk(g: Graph, start: int, length: int, seed: int, stream: int = 0) -> WalkTrace:
    """Run one walk of ``length`` steps from ``start`` on stream
    ``(seed, stream)`` and record its trace.

    The walk's whole vertex path is held while the trace is built: 8
    (length + 1) bytes, plus a few temporaries of that size.
    """
    _check_start(g, start)
    _check_length(length)
    n = g.n
    if n == 1 and length > 0:
        raise GraphError("cannot step on a single-vertex graph")
    path = _walk_path(g, K.stream_state(seed, stream), start, length)
    first = np.full(n, -1, dtype=np.int64)
    vertices, at = np.unique(path, return_index=True)
    first[vertices] = at
    lo = np.minimum(path[:-1], path[1:])
    hi = np.maximum(path[:-1], path[1:])
    # step - 1 of each edge's first traversal, in step order
    new = np.unique(lo * n + hi, return_index=True)[1]
    new.sort()
    return WalkTrace(
        n=n, start=start, length=length, seed=seed, stream=stream,
        visit_counts=np.bincount(path, minlength=n), first_visit_step=first,
        edge_u=lo[new].astype(np.int32), edge_v=hi[new].astype(np.int32),
        edge_step=new + 1,
    )


def trace_graph(trace: WalkTrace) -> Graph:
    """The undirected graph of edges the walk actually used."""
    return Graph.from_edges(trace.n, np.column_stack([trace.edge_u, trace.edge_v]))


def trace_prefix_graph(trace: WalkTrace, upto_step: int) -> Graph:
    """Trace restricted to edges first used at or before ``upto_step``."""
    keep = trace.edge_step <= upto_step
    return Graph.from_edges(trace.n, np.column_stack([trace.edge_u[keep], trace.edge_v[keep]]))


def min_visit_ratio(trace: WalkTrace) -> float:
    """min_v visits(v) / ln n, the load-balance figure; 0 when uncovered."""
    if trace.n < 2:
        raise GraphError("ratio needs n >= 2")
    if not trace.covered:
        return 0.0
    return float(trace.visit_counts.min()) / math.log(trace.n)


# ---------------------------------------------------------------------------
# per-trial primitives (unit index == stream index)
# ---------------------------------------------------------------------------


def _trial_start(g: Graph, seed: int, unit: int, start: int | None
                 ) -> tuple[np.ndarray, int]:
    """State of stream ``(seed, unit)`` and the trial's start vertex: drawn
    uniformly from the stream when ``start`` is None, else checked."""
    state = K.stream_state(seed, unit)
    if start is None:
        start = int(K.draw_ints(state, g.n, 1)[0])
    else:
        _check_start(g, start)
    return state, start


def _walk(g: Graph, state: np.ndarray, start: int, length: int, delta: float,
          stop_mode: int) -> tuple[int, int, int, np.ndarray]:
    """One ``K.walk_stats`` pass from ``start`` on a fresh visit array;
    returns ``(cover_step, blanket_step, steps_taken, visits)``."""
    visits = np.zeros(g.n, dtype=np.int64)
    cover, blanket, steps = K.walk_stats(g.indptr, g.indices, np.int64(start),
                                         np.int64(length), float(delta),
                                         np.int64(stop_mode), state, visits)
    return int(cover), int(blanket), int(steps), visits


def cover_trial(g: Graph, seed: int, unit: int, budget: int | None = None,
                start: int | None = None) -> tuple[int, int]:
    """One cover trial on stream ``(seed, unit)``.

    Draws the start uniformly from the stream when ``start`` is None.
    Returns ``(start, cover_step)`` with -1 for a censored trial. Capping
    ``budget`` at a fixed walk length turns this into a strong-cover trial.
    """
    if budget is None:
        budget = default_budget(g.n)
    state, start = _trial_start(g, seed, unit, start)
    cover, _, _, _ = _walk(g, state, start, budget, 0.0, 1)
    return start, cover


def blanket_trial(g: Graph, seed: int, unit: int, delta: float,
                  budget: int | None = None, start: int | None = None
                  ) -> tuple[int, int, int]:
    """One blanket trial on stream ``(seed, unit)``; returns
    ``(start, cover_step, blanket_step)``, -1 where the budget hit first."""
    _check_delta(delta)
    if budget is None:
        budget = 4 * default_budget(g.n)
    state, start = _trial_start(g, seed, unit, start)
    cover, blanket, _, _ = _walk(g, state, start, budget, delta, 2)
    return start, cover, blanket


def visits_trial(g: Graph, seed: int, unit: int, length: int,
                 start: int | None = None) -> tuple[int, bool, int, float]:
    """One fixed-length walk on stream ``(seed, unit)``; returns
    ``(start, covered, min_visits, min_visits / ln n)`` with ratio 0 when
    the walk failed to cover."""
    _check_length(length)
    state, start = _trial_start(g, seed, unit, start)
    cover, _, _, visits = _walk(g, state, start, length, 0.0, 0)
    covered = cover >= 0
    mn = int(visits.min())
    ratio = (mn / math.log(g.n)) if covered and g.n >= 2 else 0.0
    return start, covered, mn, ratio


def return_probe_trial(g: Graph, seed: int, unit: int, u: int, v: int,
                       horizon: int) -> int:
    """One hit-within-horizon trial on stream ``(seed, unit)``: 1 when the
    walk from u touches v within ``horizon`` steps."""
    _check_probe(g, u, v, horizon)
    return int(K.hit_within_count(g.indptr, g.indices, np.int64(u), np.int64(v),
                                  np.int64(horizon), K.stream_state(seed, unit)))


# ---------------------------------------------------------------------------
# batched trials: units lo..hi-1 at once
# ---------------------------------------------------------------------------

# The interpreted backend runs a batch as lockstep lanes, lane i on stream
# (seed, lo + i), each drawing exactly what its per-trial kernel would. Lanes
# walk a block at a time: one _twins._block call gives every live lane its
# next k raw outputs (GF(2) jump-ahead sub-lanes, 32 steps each), and
# _block_path turns them into the lanes' next k vertices, a (k, lanes) path.
# On a graph where every vertex has degree d, the block's picks come from one
# in-place modulo, each step is one gather and one add on CSR positions, and
# one gather per block turns the positions into vertices; other graphs take
# the CSR step indices[base[cur] + raw % deg[cur]].
# The trial's bookkeeping then runs once per block on the whole path: a cover
# lane's first-visit steps through np.minimum.at and a cumulative count of
# its new vertices, a probe lane's hit as any v in its column. A lane is
# dropped only at a block's end; the steps it walked after its trial ended
# are discarded, so every output is the per-trial kernel's. With 80 lanes on
# random_regular(500, 16, 0) a step costs about 3.2-3.6 us of walking and
# 5.1 us of block drawing on a 2-vCPU x86 machine.
#
# A block holds at most _BLOCK_CELLS outputs (k = 32 times a power of two of
# at most 128): 80 cover lanes draw 256 steps a block, 1000 probe lanes 32.
# Larger blocks make fewer, wider sub-lane passes but hold more memory: on
# the benchmark's walk_cover, 2**17 cells cut the round by about 9% and
# raised peak RSS by 2.5 MB (7%); 2**15 did not move it. Every walk-step
# bound is a vertex degree, so when an output a block will use falls below
# the largest degree's rejection threshold (0 for power-of-two degrees), the
# block's state is restored and its steps redraw one at a time through
# _lane_ints, as the per-trial kernels do.
#
# Below _MIN_LANES cover lanes or _MIN_PROBE_LANES probe lanes the per-trial
# kernels' Python-int twins are faster: every block pays a fixed numpy cost
# that only several lanes amortise, and a short per-trial probe pays mostly
# its set-up, so probes cross over sooner. Per-trial time over lane time,
# median of 5 seeds on a 2-vCPU x86 machine, two runs: cover on
# random_regular(500, 16, 0) 0.95-1.09 at 4 lanes, 1.37-1.48 at 6,
# 1.73-1.93 at 8, 2.4-2.5 at 12; probes on random_regular(1000, 16, 0) at
# horizon 250 0.91-1.07 at 2 lanes, 1.19-1.30 at 3, and at horizon 30
# 0.96-1.01 at 2, 1.41-1.83 at 3. Graphs whose steps take the CSR path and
# whose cover times spread widely cross over later, since a batch lasts as
# long as its slowest lane: cover on counterexample_expander(200, 8) 0.6-0.8
# at 8 lanes, 0.9-1.0 at 12, 1.2-1.9 at 16, and on path_graph(60) 0.6 at 8
# and 12, 1.0 at 16.
# A chunk holds _CHUNK_CELLS // n lanes, so a cover chunk's (lane, vertex)
# first-visit array stays within _CHUNK_CELLS cells.
_MIN_LANES = 6
_MIN_PROBE_LANES = 3
_CHUNK_CELLS = 1 << 20
_BLOCK_CELLS = 1 << 15


def _lockstep(lanes: int, least: int | None = None) -> bool:
    """Run a batch of ``lanes`` units as lanes? ``least`` defaults to
    ``_MIN_LANES``."""
    return not NUMBA_ENABLED and lanes >= (_MIN_LANES if least is None else least)


def _chunks(lo: int, hi: int, n: int):
    size = max(1, _CHUNK_CELLS // n)
    for a in range(lo, hi, size):
        yield a, min(a + size, hi)


def _lane_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """uint64[4, hi - lo]: column i is the state of stream ``(seed, lo + i)``,
    ``K.stream_state``'s splitmix64 walk run on every column at once."""
    z = np.uint64(int(seed) & K.MASK64) + K.GOLDEN * (np.arange(lo, hi, dtype=np.uint64) + K.U1)
    state = np.empty((4, hi - lo), dtype=np.uint64)
    for k in range(4):
        z = z + K.GOLDEN
        state[k] = _mix64(z)
    state[0] = np.where((state == K.U0).all(axis=0), K.GOLDEN, state[0])
    return state


def _threshold(bound):
    """``_randint``'s rejection threshold (2**64 - bound) % bound, as uint64
    (0 for an isolated vertex's bound 0)."""
    return (np.uint64(0) - bound) % np.maximum(bound, np.uint64(1))


def _lane_ints(state: np.ndarray, bound, threshold) -> np.ndarray:
    """One ``_randint`` per column of ``state``: uniform uint64 in [0, bound)
    by threshold rejection; ``bound`` and ``threshold`` are uint64 scalars or
    per-lane arrays. A lane whose output falls below its threshold redraws
    alone, on its own state, until it clears it."""
    r = _next64(state)
    low = r < threshold
    if np.count_nonzero(low):
        threshold = np.broadcast_to(threshold, r.shape)
        for i in low.nonzero()[0]:
            s = state[:, i].copy()
            while r[i] < threshold[i]:
                r[i] = _next64(s)
            state[:, i] = s
    return r % bound


def _walk_tables(g: Graph) -> tuple:
    """Per-vertex uint64 CSR offset, degree and rejection threshold; and,
    when every vertex has degree d > 0, ``ahead = indices * d`` as intp:
    ``ahead[i]`` is where the neighbour list of the vertex at CSR position i
    starts. Else ``ahead`` is None."""
    deg = np.diff(g.indptr).astype(np.uint64)
    d = g.regular_degree
    ahead = g.indices.astype(np.intp) * d if d else None
    return g.indptr[:-1].astype(np.uint64), deg, _threshold(deg), ahead


def _block_steps(lanes: int, left: int) -> int:
    """Walk steps per block for ``lanes`` lanes with ``left`` steps to go:
    32 times a power of two, at most 128, the smallest that covers ``left``
    or the largest that keeps the block within ``_BLOCK_CELLS``."""
    fit = _BLOCK_CELLS // (_twins._LANE_STEPS * lanes)
    need = -(-left // _twins._LANE_STEPS)
    subs = min(_twins._MAX_LANES, 1 << max(fit.bit_length() - 1, 0),
               1 << (need - 1).bit_length())
    return _twins._LANE_STEPS * subs


def _block_path(g: Graph, tables: tuple, state: np.ndarray, floor: int,
                cur: np.ndarray, left: int) -> np.ndarray:
    """Walk every lane ``count = min(k, left)`` steps on from its vertex in
    ``cur`` and return the vertices it visits, a (count, lanes) array of
    ``g.indices.dtype``; ``state`` (uint64[4, lanes]) advances in place.

    One ``_twins._block`` of k = ``_block_steps`` rows feeds every step.
    When an output the path would use is below ``floor``, the state is
    restored and the steps draw one at a time through ``_lane_ints``."""
    base, deg, threshold, ahead = tables
    k = _block_steps(state.shape[1], left)
    count = min(k, left)
    saved = state.copy() if floor else None
    rows = _twins._block(state, k)
    path = np.empty((count, state.shape[1]), dtype=g.indices.dtype)
    if floor and int(rows[:count].min()) < floor:
        state[:] = saved
        for t in range(count):
            path[t] = cur = g.indices[base[cur] + _lane_ints(state, deg[cur], threshold[cur])]
    elif ahead is not None:
        # The picks become CSR positions in place: a lane at vertex c that
        # picks p moves to indices[c * d + p], and the position after it is
        # ahead[c * d + p] + the next pick. Every pick is below d, so its
        # uint64 bits read as the same intp.
        d = g.regular_degree
        pos = np.remainder(rows[:count], np.uint64(d), out=rows[:count]).view(np.intp)
        pos[0] += cur * np.intp(d)
        for t in range(1, count):
            np.add(ahead.take(pos[t - 1]), pos[t], out=pos[t])
        np.take(g.indices, pos, out=path)
    else:
        for t in range(count):
            path[t] = cur = g.indices[base[cur] + rows[t] % deg[cur]]
    return path


def _cover_lanes(g: Graph, seed: int, lo: int, hi: int, budget: int,
                 starts: Sequence[int] | None) -> tuple[np.ndarray, np.ndarray]:
    n = g.n
    state = _lane_states(seed, lo, hi)
    if starts is None:
        bound = np.uint64(n)
        start = _lane_ints(state, bound, _threshold(bound)).astype(np.int64)
    else:
        start = np.asarray(starts, dtype=np.int64)
    steps = np.full(hi - lo, -1 if n > 1 else 0, dtype=np.int64)
    if n == 1:
        return start, steps
    tables = _walk_tables(g)
    floor = int(tables[2].max())
    lane = np.arange(hi - lo, dtype=np.int64)
    # a lane's offset into the flat (lane, vertex) first-visit array
    row = (lane * n).astype(g.indices.dtype)
    dtype = np.int32 if budget < 2**31 - 1 else np.int64
    first = np.full((hi - lo) * n, np.iinfo(dtype).max, dtype=dtype)
    first[row + start] = 0
    left = np.full(hi - lo, n - 1, dtype=np.int64)
    cur, done = start, 0
    while done < budget:
        path = _block_path(g, tables, state, floor, cur, budget - done)
        cur = path[-1].copy()
        cells = np.add(path, row, out=path)
        at = np.arange(done + 1, done + len(path) + 1, dtype=dtype)[:, None]
        done += len(path)
        # a cell's first visit is its smallest step, repeats included
        np.minimum.at(first, cells, np.broadcast_to(at, cells.shape))
        new = first[cells]
        np.equal(new, at, out=new)
        np.cumsum(new, axis=0, out=new)
        gained = new[-1]
        covered = gained >= left
        if np.count_nonzero(covered):
            # a lane covers at the first row whose count reaches its left
            steps[lane[covered]] = at[(new[:, covered] < left[covered]).sum(axis=0), 0]
            keep = ~covered
            lane, row, cur, left, gained, state = (lane[keep], row[keep], cur[keep],
                                                   left[keep], gained[keep], state[:, keep])
            if not lane.size:
                break
        left -= gained
        del path, cells, new, gained  # freed before the next block is drawn
    return start, steps


def _probe_lanes(g: Graph, seed: int, lo: int, hi: int, u: int, v: int,
                 horizon: int) -> np.ndarray:
    tables = _walk_tables(g)
    floor = int(tables[2].max())
    state = _lane_states(seed, lo, hi)
    hits = np.zeros(hi - lo, dtype=np.int64)
    lane = np.arange(hi - lo, dtype=np.int64)
    cur, done = np.full(hi - lo, u, dtype=g.indices.dtype), 0
    while done < horizon:
        path = _block_path(g, tables, state, floor, cur, horizon - done)
        done += len(path)
        cur = path[-1]
        hit = (path == v).any(axis=0)
        if np.count_nonzero(hit):
            hits[lane[hit]] = 1
            keep = ~hit
            lane, cur, state = lane[keep], cur[keep], state[:, keep]
            if not lane.size:
                break
    return hits


def cover_trials(g: Graph, seed: int, lo: int, hi: int, budget: int | None = None,
                 starts: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``cover_trial`` for every unit in ``lo..hi-1``, as int64 arrays
    ``(starts, cover_steps)`` indexed by ``unit - lo``.

    ``starts`` gives each unit's start vertex, or None to draw every start
    from its stream. The outputs equal the per-trial calls bit for bit.
    """
    if budget is None:
        budget = default_budget(g.n)
    if starts is not None:
        if len(starts) != hi - lo:
            raise GraphError("starts needs one vertex per unit")
        for v in set(starts):
            _check_start(g, v)
    if not _lockstep(hi - lo):
        pairs = [cover_trial(g, seed, unit, budget,
                             None if starts is None else starts[unit - lo])
                 for unit in range(lo, hi)]
        return (np.array([p[0] for p in pairs], dtype=np.int64),
                np.array([p[1] for p in pairs], dtype=np.int64))
    with np.errstate(over="ignore"):
        parts = [_cover_lanes(g, seed, a, b, budget,
                              None if starts is None else starts[a - lo:b - lo])
                 for a, b in _chunks(lo, hi, g.n)]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]))


def probe_trials(g: Graph, seed: int, lo: int, hi: int, u: int, v: int,
                 horizon: int) -> np.ndarray:
    """``return_probe_trial`` for every unit in ``lo..hi-1``, as an int64
    array of hits indexed by ``unit - lo``, equal to the per-trial calls."""
    _check_probe(g, u, v, horizon)
    if not _lockstep(hi - lo, _MIN_PROBE_LANES):
        return np.array([return_probe_trial(g, seed, unit, u, v, horizon)
                         for unit in range(lo, hi)], dtype=np.int64)
    with np.errstate(over="ignore"):
        parts = [_probe_lanes(g, seed, a, b, u, v, horizon)
                 for a, b in _chunks(lo, hi, g.n)]
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# cover-time estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverSummary:
    """Per-trial cover steps plus the usual aggregates.

    ``cover_steps`` holds -1 for censored trials (budget hit first); the
    aggregates ignore those but ``censored`` counts them. In worst-start
    mode the trials field is per start, rows are ordered pool-major, and
    the worst (largest) per-start mean is reported alongside its vertex.
    """

    trials: int
    budget: int
    seed: int
    worst_start_mode: bool
    pool: tuple[int, ...]
    starts: np.ndarray
    cover_steps: np.ndarray
    censored: int
    mean: float
    stderr: float
    smallest: int
    largest: int
    per_start_mean: dict[int, float] | None
    worst_start: int | None
    worst_mean: float | None


def step_moments(steps: Sequence[int]) -> tuple[float, float, int, int]:
    """``(mean, stderr, min, max)`` of uncensored step counts; NaN means and
    -1 extremes when there are none."""
    arr = np.asarray(steps, dtype=np.float64)
    if arr.size == 0:
        return math.nan, math.nan, -1, -1
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), stderr, int(arr.min()), int(arr.max())


def rank_starts(starts: Sequence[int], steps: Sequence[int]
                ) -> tuple[dict[int, float], int, float]:
    """Mean cover step per start vertex, and the worst start.

    ``steps`` holds -1 for a censored walk. A start none of whose walks
    covered has mean NaN and ranks worst; ties go to the larger vertex id.
    Returns ``(per_start_mean, worst_start, worst_mean)``.
    """
    by_start: dict[int, list[int]] = {}
    for v, step in zip(starts, steps):
        by_start.setdefault(int(v), []).append(int(step))
    per_start = {}
    for v, block in by_start.items():
        good = [step for step in block if step >= 0]
        per_start[v] = float(np.mean(good)) if good else math.nan
    worst = max(per_start, key=lambda v: (
        math.inf if math.isnan(per_start[v]) else per_start[v], v))
    return per_start, worst, per_start[worst]


def cover_time_empirical(g: Graph, trials: int, seed: int, worst_start: bool = False,
                         start: int | None = None, budget: int | None = None,
                         sample_starts: int = START_POOL_SAMPLE) -> CoverSummary:
    """Monte Carlo cover times.

    Default mode: ``trials`` walks, each from its own uniformly drawn start
    (or the fixed ``start`` if given), trial i on stream ``(seed, i)``.
    Worst-start mode: ``trials`` walks from every pool vertex; the pool is
    every vertex up to n = 200 and a 32-vertex seeded sample beyond; walk
    for pool slot j, repeat k runs on stream ``(seed, j * trials + k)``.
    """
    if trials < 1:
        raise GraphError("trials must be >= 1")
    _require_connected(g)
    n = g.n
    if budget is None:
        budget = default_budget(n)
    if worst_start:
        pool = start_pool(g, seed, sample=sample_starts)
        units = len(pool) * trials
    else:
        pool = ()
        units = trials
    if worst_start:
        fixed = [pool[unit // trials] for unit in range(units)]
    else:
        fixed = None if start is None else [start] * units
    starts, steps = cover_trials(g, seed, 0, units, budget, fixed)
    uncensored = steps[steps >= 0]
    mean, stderr, smallest, largest = step_moments(uncensored)
    per_start = None
    worst_v = None
    worst_mean = None
    if worst_start:
        per_start, worst_v, worst_mean = rank_starts(starts, steps)
    return CoverSummary(
        trials=trials, budget=budget, seed=seed, worst_start_mode=worst_start,
        pool=pool, starts=starts, cover_steps=steps,
        censored=int((steps < 0).sum()), mean=mean, stderr=stderr,
        smallest=smallest, largest=largest, per_start_mean=per_start,
        worst_start=worst_v, worst_mean=worst_mean,
    )


@dataclass(frozen=True)
class StrongCoverEstimate:
    """Fraction of fixed-length walks that covered the whole graph."""

    length: int
    trials: int
    seed: int
    pool: tuple[int, ...]
    starts: np.ndarray
    cover_steps: np.ndarray
    covered: int
    fraction: float
    ci_low: float
    ci_high: float
    ci_level: float


def strong_cover_estimate(g: Graph, length: int, trials: int, seed: int,
                          ci_level: float = 0.95) -> StrongCoverEstimate:
    """Estimate P(walk of ``length`` steps covers G), round-robin over the
    start pool, one stream per trial."""
    if trials < 1:
        raise GraphError("trials must be >= 1")
    _check_length(length)
    _require_connected(g)
    pool = start_pool(g, seed)
    starts, steps = cover_trials(g, seed, 0, trials, length,
                                 [pool[trial % len(pool)] for trial in range(trials)])
    covered = int((steps >= 0).sum())
    lo, hi = exact_binomial_ci(covered, trials, ci_level)
    return StrongCoverEstimate(
        length=length, trials=trials, seed=seed, pool=pool,
        starts=starts, cover_steps=steps, covered=covered,
        fraction=covered / trials, ci_low=lo, ci_high=hi, ci_level=ci_level,
    )


# ---------------------------------------------------------------------------
# blanket times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlanketResult:
    delta: float
    start: int
    cover_step: int | None
    blanket_step: int | None
    censored: bool
    steps: int


def blanket_time(g: Graph, start: int, delta: float, seed: int,
                 budget: int | None = None, stream: int = 0) -> BlanketResult:
    """First step t >= cover time with min_v visits >= delta * t / n.

    This is ``blanket_trial`` from ``start`` on stream ``(seed, stream)``.
    The condition is checked at every step from the cover step on, so the
    returned step is exact for this sample path; ``censored`` means the
    budget ran out first, and ``steps`` is the blanket step or the budget.
    """
    # argument errors take precedence over a disconnected graph
    _check_delta(delta)
    _check_start(g, start)
    _require_connected(g)
    if budget is None:
        budget = 4 * default_budget(g.n)
    _, cover, blanket = blanket_trial(g, seed, stream, delta, budget=budget, start=start)
    return BlanketResult(
        delta=delta, start=start,
        cover_step=None if cover < 0 else cover,
        blanket_step=None if blanket < 0 else blanket,
        censored=blanket < 0, steps=budget if blanket < 0 else blanket,
    )


@dataclass(frozen=True)
class CoverStats:
    """Cover step, blanket steps per delta, and visit-count extremes of a
    single fixed-length walk."""

    start: int
    length: int
    cover_step: int | None
    blanket_steps: dict[float, int | None]
    min_visits: int
    max_visits: int
    min_visit_ratio: float


def cover_stats(g: Graph, start: int, length: int, seed: int,
                deltas: Sequence[float] = (0.1,), stream: int = 0) -> CoverStats:
    """Walk ``length`` steps once and report cover/blanket/visit statistics.

    The same stream is replayed once per delta (the kernel tracks a single
    blanket threshold per pass), so all numbers describe one sample path.
    """
    _check_start(g, start)
    _check_length(length)
    for delta in deltas:
        _check_delta(delta)
    blankets: dict[float, int | None] = {}
    for delta in deltas or (0.0,):
        cover, blanket, _, visits = _walk(g, K.stream_state(seed, stream), start,
                                          length, delta, 0)
        blankets[float(delta)] = None if blanket < 0 else blanket
    mn = int(visits.min())
    ratio = 0.0
    if cover >= 0 and g.n >= 2:
        ratio = mn / math.log(g.n)
    return CoverStats(
        start=start, length=length,
        cover_step=None if cover < 0 else cover,
        blanket_steps=blankets if deltas else {}, min_visits=mn,
        max_visits=int(visits.max()), min_visit_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# return probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnProbeResult:
    u: int
    v: int
    horizon: int
    trials: int
    hits: int
    estimate: float
    ci_low: float
    ci_high: float
    ci_level: float


def return_probe(g: Graph, u: int, v: int, horizon: int, trials: int, seed: int,
                 ci_level: float = 0.95) -> ReturnProbeResult:
    """Fraction of ``horizon``-step walks from u that touch v, with an exact
    binomial confidence interval. Trial i runs on stream ``(seed, i)``."""
    _check_probe(g, u, v, horizon)
    if trials < 1:
        raise GraphError("trials must be >= 1")
    hits = int(probe_trials(g, seed, 0, trials, u, v, horizon).sum())
    lo, hi = exact_binomial_ci(hits, trials, ci_level)
    return ReturnProbeResult(
        u=u, v=v, horizon=horizon, trials=trials, hits=hits,
        estimate=hits / trials, ci_low=lo, ci_high=hi, ci_level=ci_level,
    )


# ---------------------------------------------------------------------------
# segmented visit experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentedVisitReport:
    """Pooled segment-hit statistics across trials.

    Each trial draws its own start and target from its stream, walks
    ``length`` steps, and scores one hit per segment whose post-burn-in
    window touches the target. ``rho_values`` holds min-visits / ln n per
    trial (0 when that walk did not cover).
    """

    length: int
    trials: int
    seed: int
    c: float
    window: int
    burn_in: int
    segments_per_trial: int
    total_segments: int
    total_hits: int
    hit_frequency: float
    ci_low: float
    ci_high: float
    ci_level: float
    starts: np.ndarray
    targets: np.ndarray
    segment_hits: np.ndarray
    rho_values: np.ndarray


def segmented_visit_experiment(g: Graph, length: int, c: float, trials: int,
                               seed: int, ci_level: float = 0.95) -> SegmentedVisitReport:
    """Cut walks into burn-in + window segments and count window visits.

    Window T = round(n / sqrt(c)) and burn-in ceil(10 ln n); positions
    0..length are split into complete segments of T + burn-in. The pooled
    per-segment hit frequency estimates the single-window visit
    probability, the quantity the (1 - eps)/sqrt(c) floor speaks to.
    """
    if c < 1.0:
        raise GraphError("c must be >= 1")
    if trials < 1:
        raise GraphError("trials must be >= 1")
    _require_connected(g)
    n = g.n
    if n < 2:
        raise GraphError("need n >= 2")
    window = max(1, int(round(n / math.sqrt(c))))
    burn = int(math.ceil(10.0 * math.log(n)))
    seg_len = window + burn
    if length + 1 < seg_len:
        raise GraphError(f"length {length} shorter than one segment ({seg_len})")
    nseg = (length + 1) // seg_len
    starts = np.empty(trials, dtype=np.int64)
    targets = np.empty(trials, dtype=np.int64)
    seg_hits = np.empty(trials, dtype=np.int64)
    rho = np.empty(trials, dtype=np.float64)
    logn = math.log(n)
    for trial in range(trials):
        state = K.stream_state(seed, trial)
        u, v = (int(x) for x in K.draw_ints(state, n, 2))
        path = _walk_path(g, state, u, length)
        # a segment scores when the target shows up after its burn-in; the
        # trailing partial segment is not scored but its visits count
        windows = path[:nseg * seg_len].reshape(nseg, seg_len)[:, burn:]
        starts[trial] = u
        targets[trial] = v
        seg_hits[trial] = np.count_nonzero((windows == v).any(axis=1))
        mn = int(np.bincount(path, minlength=n).min())
        rho[trial] = (mn / logn) if mn > 0 else 0.0
    total_segments = nseg * trials
    total_hits = int(seg_hits.sum())
    lo, hi = exact_binomial_ci(total_hits, total_segments, ci_level)
    return SegmentedVisitReport(
        length=length, trials=trials, seed=seed, c=c,
        window=window, burn_in=burn, segments_per_trial=nseg,
        total_segments=total_segments, total_hits=total_hits,
        hit_frequency=total_hits / total_segments,
        ci_low=lo, ci_high=hi, ci_level=ci_level,
        starts=starts, targets=targets, segment_hits=seg_hits, rho_values=rho,
    )
