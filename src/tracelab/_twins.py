"""Twins of the hot kernels, for the interpreted backend.

Run without numba, the :mod:`tracelab._kernels` source works on numpy
scalars, and every uint64 operation and array read pays for a boxed numpy
value. Each function here computes what its ``_kernels`` namesake computes,
the same draws, outputs, return value and final RNG state, without that
cost. The draws, ``shuffle_ints``, the walks (``walk_stats``, the path
kernel ``walk_trace``, ``hit_within_count``) and ``posa_cycle`` run on
Python ints and lists: the xoshiro256++ state as four ints masked to 64
bits, the CSR as lists. ``ham_dp`` fills its table with whole-array numpy
operations, one popcount layer at a time. Results are written back into the
caller's arrays and ``state``, so callers cannot tell the two apart.

``_accel.kernel`` puts a twin in place of its namesake at import when numba
is off; the numba path compiles the ``_kernels`` source and never calls
this module. ``tests/test_twins.py`` holds every twin to its source.
"""

from __future__ import annotations

import numpy as np

from .graphs import popcounts

__all__ = ["draw_uints", "draw_ints", "shuffle_ints", "walk_stats", "walk_trace",
           "hit_within_count", "posa_cycle", "ham_dp"]

MASK64 = (1 << 64) - 1


def _next64(s: list) -> int:
    """xoshiro256++ step on a list state: output = rotl(s0 + s3, 23) + s0."""
    s0, s1, s2, s3 = s
    x = (s0 + s3) & MASK64
    out = (((x << 23) | (x >> 41)) + s0) & MASK64
    t = (s1 << 17) & MASK64
    s2 ^= s0
    s3 ^= s1
    s[1] = s1 ^ s2
    s[0] = s0 ^ s3
    s[2] = s2 ^ t
    s[3] = ((s3 << 45) | (s3 >> 19)) & MASK64
    return out


def _randint(s: list, n: int) -> int:
    """Uniform int in [0, n) by threshold rejection. The threshold is
    2**64 % n, what uint64 ``(0 - n) % n`` gives; Python's ``(-n) % n`` is 0."""
    threshold = (1 << 64) % n
    r = _next64(s)
    while r < threshold:
        r = _next64(s)
    return r % n


def draw_uints(state, count):
    s = state.tolist()
    out = np.array([_next64(s) for _ in range(count)], dtype=np.uint64)
    state[:] = s
    return out


def draw_ints(state, bound, count):
    # The source passes the bound through int64 to uint64, so it is taken
    # mod 2**64, and casts each draw to int64, so draws >= 2**63 wrap.
    bound = int(bound) & MASK64
    s = state.tolist()
    out = np.array([_randint(s, bound) for _ in range(count)], dtype=np.uint64)
    state[:] = s
    return out.view(np.int64)


def shuffle_ints(arr, state):
    a = arr.tolist()
    s = state.tolist()
    for i in range(len(a) - 1, 0, -1):
        j = _randint(s, i + 1)
        a[i], a[j] = a[j], a[i]
    arr[:] = a
    state[:] = s


def walk_stats(indptr, indices, start, length, delta, stop_mode, state, visits):
    n = len(indptr) - 1
    cur = int(start)
    if n == 1:
        visits[cur] = 1
        return 0, 0, 0
    ip = indptr.tolist()
    ix = indices.tolist()
    s = state.tolist()
    vis = visits.tolist()
    vis[cur] = 1
    cover_step = blanket_step = -1
    cur_min = 0
    at_min = n - 1
    steps = int(length)
    for step in range(1, steps + 1):
        base = ip[cur]
        cur = ix[base + _randint(s, ip[cur + 1] - base)]
        old = vis[cur]
        vis[cur] = old + 1
        if old == cur_min:
            at_min -= 1
            if at_min == 0:
                cur_min += 1
                at_min = vis.count(cur_min)
                if cover_step < 0:
                    cover_step = step
                    if stop_mode == 1:
                        steps = step
                        break
        if cover_step >= 0 and blanket_step < 0 and cur_min * n >= delta * step:
            blanket_step = step
            if stop_mode == 2:
                steps = step
                break
    visits[:] = vis
    state[:] = s
    return cover_step, blanket_step, steps


def walk_trace(indptr, indices, start, length, state, path):
    ip = indptr.tolist()
    ix = indices.tolist()
    s = state.tolist()
    cur = int(start)
    seq = [cur]
    for _ in range(int(length)):
        base = ip[cur]
        cur = ix[base + _randint(s, ip[cur + 1] - base)]
        seq.append(cur)
    path[:] = seq
    state[:] = s


def hit_within_count(indptr, indices, u, v, horizon, state):
    ip = indptr.tolist()
    ix = indices.tolist()
    s = state.tolist()
    cur = int(u)
    v = int(v)
    hit = 0
    for _ in range(int(horizon)):
        base = ip[cur]
        cur = ix[base + _randint(s, ip[cur + 1] - base)]
        if cur == v:
            hit = 1
            break
    state[:] = s
    return hit


def posa_cycle(indptr, indices, n, state, max_rotations, max_restarts, path, pos):
    n = int(n)
    if n < 3:
        return 0, 0, 0
    ip = indptr.tolist()
    ix = indices.tolist()
    s = state.tolist()
    order = path.tolist()
    where = pos.tolist()
    max_rotations = int(max_rotations)
    total_rot = 0
    found = False
    for restart in range(int(max_restarts)):
        where = [-1] * n
        first = _randint(s, n)
        order[0] = first
        where[first] = 0
        plen = 1
        rot = 0
        while rot < max_rotations:
            end = order[plen - 1]
            nbrs = ix[ip[end]:ip[end + 1]]
            fresh = [w for w in nbrs if where[w] < 0]
            if fresh:
                nxt = fresh[_randint(s, len(fresh))]
                order[plen] = nxt
                where[nxt] = plen
                plen += 1
                continue
            if plen == n and order[0] in nbrs:
                found = True
                break
            # every neighbour is on the path here
            last = plen - 3
            eligible = [i for i in [where[w] for w in nbrs] if i <= last]
            if not eligible:
                break
            anchor = eligible[_randint(s, len(eligible))]
            order[anchor + 1:plen] = order[plen - 1:anchor:-1]
            for k in range(anchor + 1, plen):
                where[order[k]] = k
            rot += 1
        total_rot += rot
        if found:
            break
    state[:] = s
    path[:] = order
    pos[:] = where
    if found:
        return 1, total_rot, restart
    return 0, total_rot, int(max_restarts)


def ham_dp(nbr, n, dp):
    # Masks in order of popcount: a mask's table entry reads only entries
    # one bit smaller, so each layer is a handful of whole-array operations.
    n = int(n)
    size = 1 << n
    dp[1] = 1
    odd = np.arange(1, size, 2, dtype=np.int64)
    odd_pc = popcounts(size)[odd]
    for layer in range(2, n + 1):
        lm = odd[odd_pc == layer]
        if lm.size == 0:
            continue
        for v in range(1, n):
            bit = np.int64(1) << v
            mv = lm[(lm & bit) != 0]
            if mv.size == 0:
                continue
            prev = mv ^ bit
            ok = (dp[prev].astype(np.int64) & int(nbr[v])) != 0
            dp[mv[ok]] |= np.uint32(bit)
    return dp[size - 1]
