"""Hot numeric kernels: the source numba compiles.

Everything here is written against plain numpy arrays with explicit integer
types so the same source compiles under ``@njit`` and runs interpreted.
Without numba, the draws (``draw_uints``, ``draw_ints``), ``shuffle_ints``,
the walks (``walk_stats``, the path kernel ``walk_trace``,
``hit_within_count``), ``posa_cycle`` and the Held-Karp table ``ham_dp`` run
as their twins in :mod:`tracelab._twins` instead (``_accel.kernel`` swaps
them in). From ``_twins.BLOCK_MIN`` draws on, the draw, shuffle and path
twins draw their raw outputs in numpy blocks and replay the scalar loop
whenever a draw would be rejected, and the shuffle twin applies its swaps
as one numpy permutation. Only the expander-mixing pair scan runs
this source on numpy scalars. Integer-valued kernels (walks, shuffles,
searches) are bit-identical on every path, and so is ``stream_floats``,
which converts ``draw_uints`` outputs.

RNG: xoshiro256++ streams. A stream is addressed by ``(seed, index)``; its
state is four splitmix64 outputs seeded at ``seed + GOLDEN * (index + 1)``.
Distinct indices give statistically independent streams, so one master seed
drives any number of trials, one stream per trial index. Auxiliary draws
(start pools, probe targets) use indices offset by ``AUX_STREAM`` to stay
clear of trial streams.
"""

from __future__ import annotations

import numpy as np

from ._accel import kernel, kernel_inner

U0 = np.uint64(0)
U1 = np.uint64(1)
GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_R17 = np.uint64(17)
_R19 = np.uint64(19)
_R23 = np.uint64(23)
_R27 = np.uint64(27)
_R30 = np.uint64(30)
_R31 = np.uint64(31)
_R41 = np.uint64(41)
_R45 = np.uint64(45)

MASK64 = (1 << 64) - 1

# Streams at index >= AUX_STREAM are reserved for auxiliary draws so that
# trial streams can always be indexed 0..trials-1.
AUX_STREAM = 1 << 32


@kernel_inner
def _mix64(z):
    z = (z ^ (z >> _R30)) * _MIX_A
    z = (z ^ (z >> _R27)) * _MIX_B
    return z ^ (z >> _R31)


@kernel_inner
def _stream(seed, index, s):
    # splitmix64 walk from a per-index base; four outputs form the state.
    base = seed + GOLDEN * (np.uint64(index) + U1)
    z = base
    nonzero = False
    for k in range(4):
        z = z + GOLDEN
        w = _mix64(z)
        s[k] = w
        if w != U0:
            nonzero = True
    if not nonzero:
        s[0] = GOLDEN


@kernel_inner
def _next64(s):
    # xoshiro256++: output = rotl(s0 + s3, 23) + s0
    x = s[0] + s[3]
    out = ((x << _R23) | (x >> _R41)) + s[0]
    t = s[1] << _R17
    s[2] ^= s[0]
    s[3] ^= s[1]
    s[1] ^= s[2]
    s[0] ^= s[3]
    s[2] ^= t
    y = s[3]
    s[3] = (y << _R45) | (y >> _R19)
    return out


@kernel_inner
def _randint(s, n):
    # Unbiased integer in [0, n) by threshold rejection.
    bound = np.uint64(n)
    threshold = (U0 - bound) % bound
    r = _next64(s)
    while r < threshold:
        r = _next64(s)
    return np.int64(r % bound)


def stream_state(seed: int, index: int) -> np.ndarray:
    """State of stream ``(seed, index)`` as a fresh uint64[4] array."""
    s = np.empty(4, dtype=np.uint64)
    with np.errstate(over="ignore"):
        _stream(np.uint64(int(seed) & MASK64), np.int64(index), s)
    return s


@kernel
def draw_uints(state, count):
    """Next ``count`` raw uint64 outputs of ``state``, advancing it."""
    out = np.empty(count, dtype=np.uint64)
    for i in range(count):
        out[i] = _next64(state)
    return out


@kernel
def draw_ints(state, bound, count):
    """Next ``count`` uniform draws from [0, bound) on ``state``, advancing it."""
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        out[i] = _randint(state, np.int64(bound))
    return out


def stream_uints(seed: int, index: int, count: int) -> np.ndarray:
    """First ``count`` raw uint64 outputs of stream ``(seed, index)``."""
    return draw_uints(stream_state(seed, index), count)


def stream_ints(seed: int, index: int, count: int, bound: int) -> np.ndarray:
    """``count`` iid uniform draws from [0, bound) on stream ``(seed, index)``."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return draw_ints(stream_state(seed, index), bound, count)


def stream_floats(seed: int, index: int, count: int) -> np.ndarray:
    """``count`` iid uniform floats in [0, 1) on stream ``(seed, index)``:
    the top 53 bits of each raw output, times 2**-53."""
    return (stream_uints(seed, index, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


@kernel
def shuffle_ints(arr, state):
    """Fisher-Yates shuffle in place, driven by ``state``."""
    for i in range(arr.size - 1, 0, -1):
        j = _randint(state, np.int64(i + 1))
        tmp = arr[i]
        arr[i] = arr[j]
        arr[j] = tmp


def shuffles(n: int, seed: int, index: int):
    """Endless Fisher-Yates shuffles of 0..n-1 on stream ``(seed, index)``;
    every item is the same array, reshuffled in place."""
    state = stream_state(seed, index)
    order = np.arange(n, dtype=np.int64)
    while True:
        shuffle_ints(order, state)
        yield order


# ---------------------------------------------------------------------------
# random-walk kernels
# ---------------------------------------------------------------------------


@kernel
def walk_stats(indptr, indices, start, length, delta, stop_mode, state, visits):
    """Run one random walk and track cover / blanket progress.

    ``visits`` must be a zeroed int64[n] array; on return it holds visit
    counts (the start position counts, so the total is steps_taken + 1).
    ``stop_mode``: 0 walks all ``length`` steps, 1 stops at cover,
    2 stops at the delta-blanket step. The blanket condition is
    ``min_v visits[v] >= delta * t / n``, first checked at the cover step.

    Returns ``(cover_step, blanket_step, steps_taken)`` with -1 for events
    that did not occur within the budget.
    """
    n = np.int64(indptr.size - 1)
    cur = np.int64(start)
    visits[cur] = 1
    if n == 1:
        return np.int64(0), np.int64(0), np.int64(0)
    cover_step = np.int64(-1)
    blanket_step = np.int64(-1)
    cur_min = np.int64(0)
    at_min = np.int64(n - 1)
    for step in range(1, length + 1):
        base = indptr[cur]
        deg = indptr[cur + 1] - base
        cur = np.int64(indices[base + _randint(state, deg)])
        old = visits[cur]
        visits[cur] = old + 1
        if old == cur_min:
            at_min -= 1
            if at_min == 0:
                cur_min += 1
                cnt = np.int64(0)
                for v in range(n):
                    if visits[v] == cur_min:
                        cnt += 1
                at_min = cnt
                if cover_step < 0 and cur_min >= 1:
                    cover_step = np.int64(step)
                    if stop_mode == 1:
                        return cover_step, blanket_step, np.int64(step)
        if cover_step >= 0 and blanket_step < 0:
            if np.float64(cur_min) * np.float64(n) >= delta * np.float64(step):
                blanket_step = np.int64(step)
                if stop_mode == 2:
                    return cover_step, blanket_step, np.int64(step)
    return cover_step, blanket_step, np.int64(length)


@kernel
def walk_trace(indptr, indices, start, length, state, path):
    """Walk ``length`` steps from ``start``, writing the vertex sequence
    into ``path`` (int64[length + 1]): ``path[t]`` is the vertex at step t."""
    cur = np.int64(start)
    path[0] = cur
    for step in range(1, length + 1):
        base = indptr[cur]
        deg = indptr[cur + 1] - base
        cur = np.int64(indices[base + _randint(state, deg)])
        path[step] = cur


@kernel
def hit_within_count(indptr, indices, u, v, horizon, state):
    """1 when one walk from ``u`` reaches ``v`` within ``horizon`` steps,
    else 0."""
    cur = np.int64(u)
    for _ in range(horizon):
        base = indptr[cur]
        deg = indptr[cur + 1] - base
        cur = np.int64(indices[base + _randint(state, deg)])
        if cur == v:
            return np.int64(1)
    return np.int64(0)


# ---------------------------------------------------------------------------
# Hamiltonicity kernels
# ---------------------------------------------------------------------------


@kernel
def posa_cycle(indptr, indices, n, state, max_rotations, max_restarts, path, pos):
    """Randomized rotation-extension search for a Hamilton cycle.

    Grows a path from a random start, extending with a uniformly chosen
    unvisited neighbor of the endpoint; when stuck, rotates about a uniform
    eligible anchor (a neighbor of the endpoint sitting at path position
    <= len - 3) and keeps going. A full path that closes into a cycle wins.
    Budgets: ``max_rotations`` per restart, ``max_restarts`` fresh starts.

    ``path`` (int64[n]) receives the cycle order on success; ``pos`` is
    int64[n] scratch. Returns ``(status, rotations, restarts)`` where status
    is 1 on success, 0 when the budget ran out.
    """
    if n < 3:
        return np.int64(0), np.int64(0), np.int64(0)
    total_rot = np.int64(0)
    for restart in range(max_restarts):
        for v in range(n):
            pos[v] = -1
        first = _randint(state, np.int64(n))
        path[0] = first
        pos[first] = 0
        plen = np.int64(1)
        rot = np.int64(0)
        while rot < max_rotations:
            end = path[plen - 1]
            base = indptr[end]
            deg = indptr[end + 1] - base
            fresh = np.int64(0)
            for k in range(deg):
                if pos[indices[base + k]] < 0:
                    fresh += 1
            if fresh > 0:
                pick = _randint(state, fresh)
                nxt = np.int64(-1)
                c = np.int64(0)
                for k in range(deg):
                    w = np.int64(indices[base + k])
                    if pos[w] < 0:
                        if c == pick:
                            nxt = w
                            break
                        c += 1
                path[plen] = nxt
                pos[nxt] = plen
                plen += 1
                continue
            if plen == n:
                for k in range(deg):
                    if np.int64(indices[base + k]) == path[0]:
                        return np.int64(1), total_rot + rot, np.int64(restart)
            eligible = np.int64(0)
            for k in range(deg):
                i = pos[np.int64(indices[base + k])]
                if 0 <= i and i <= plen - 3:
                    eligible += 1
            if eligible == 0:
                break
            pick = _randint(state, eligible)
            anchor = np.int64(-1)
            c = np.int64(0)
            for k in range(deg):
                i = pos[np.int64(indices[base + k])]
                if 0 <= i and i <= plen - 3:
                    if c == pick:
                        anchor = i
                        break
                    c += 1
            lo = anchor + 1
            hi = plen - 1
            while lo < hi:
                a = path[lo]
                b = path[hi]
                path[lo] = b
                path[hi] = a
                pos[b] = lo
                pos[a] = hi
                lo += 1
                hi -= 1
            rot += 1
        total_rot += rot
    return np.int64(0), total_rot, np.int64(max_restarts)


@kernel
def ham_dp(nbr, n, dp):
    """Held-Karp endpoint bitsets over all vertex subsets containing 0.

    ``nbr[v]`` is the int64 adjacency bitmask of v; ``dp`` a zeroed
    uint32[2**n] table. After the run, bit v of ``dp[mask]`` says a
    spanning path of ``mask`` from vertex 0 to v exists. Returns
    ``dp[full]``.
    """
    dp[1] = np.uint32(1)
    full = (np.int64(1) << np.int64(n)) - 1
    for mask in range(3, full + 1, 2):
        acc = np.uint32(0)
        bits = np.int64(mask) >> 1
        v = np.int64(1)
        while bits != 0:
            if bits & 1:
                prev = np.int64(mask) ^ (np.int64(1) << v)
                if (np.int64(dp[prev]) & nbr[v]) != 0:
                    acc |= np.uint32(np.int64(1) << v)
            bits >>= 1
            v += 1
        dp[mask] = acc
    return dp[full]


# ---------------------------------------------------------------------------
# exact expander-mixing pair scan (n <= 16)
# ---------------------------------------------------------------------------


@kernel
def pair_mixing_scan(nbr, n, d, lam, pop, e, slack):
    """Exhaustive two-set mixing scan over unordered disjoint pairs.

    For each disjoint S, T the crossing count e(S,T) = e[S|T] - e[S] - e[T]
    is compared against d|S||T|/n with allowance lam * sqrt(|S||T|).
    Returns ``(max_ratio, violations)`` where ratio is deviation over
    allowance and a violation means deviation > allowance + slack.
    """
    full = (np.int64(1) << np.int64(n)) - 1
    maxr = 0.0
    viol = np.int64(0)
    for S in range(1, full + 1):
        s = pop[S & 0xFFFF] + pop[(S >> 16) & 0xFFFF]
        comp = full ^ np.int64(S)
        T = comp
        while T != 0:
            if S < T:
                t = pop[T & 0xFFFF] + pop[(T >> 16) & 0xFFFF]
                joint = np.int64(S) | T
                est = e[joint] - e[S] - e[T]
                expect = np.float64(d * s * t) / np.float64(n)
                allow = lam * np.sqrt(np.float64(s * t))
                dev = abs(np.float64(est) - expect)
                if allow > 0.0:
                    r = dev / allow
                    if r > maxr:
                        maxr = r
                    if dev > allow + slack:
                        viol += 1
                elif dev > slack:
                    viol += 1
            T = (T - 1) & comp
    return maxr, viol
