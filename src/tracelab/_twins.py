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

Block draws. From ``BLOCK_MIN`` draws on, ``draw_uints``, ``draw_ints``,
``shuffle_ints`` and ``walk_trace`` take their raw outputs from ``_block``,
which runs the one stream as numpy sub-lanes at fixed offsets (a GF(2) jump
ahead) and returns exactly what the scalar loop would draw. A bounded draw
redraws an output below its rejection threshold, which moves every later
draw, so when any block output falls below the largest threshold of the
draws it feeds, the twin discards the block and replays its scalar loop
from the saved state. The jump tables are built on the first block-sized
draw, not at import. ``walk_stats``, ``hit_within_count`` and
``posa_cycle`` stop early, so they draw one output at a time.

``_block`` also takes many streams at once, one per column of a
uint64[4, L] state, and gives each its next k outputs: the lockstep cover
and probe lanes of :mod:`tracelab.walks` draw their walk steps that way,
with the same floor check and a step-at-a-time fallback.

``_accel.kernel`` puts a twin in place of its namesake at import when numba
is off; the numba path compiles the ``_kernels`` source and never calls
this module. ``tests/test_twins.py`` holds every twin to its source.
"""

from __future__ import annotations

import functools

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


# Block draws. The xoshiro256++ state transition T is linear over GF(2), so
# T^k is a 256 x 256 bit matrix for every k. _block runs each stream it is
# given as sub-lanes that start _LANE_STEPS steps apart: sub-lane j starts at
# T^(j * _LANE_STEPS) s, so its next _LANE_STEPS outputs are the stream's
# outputs from j * _LANE_STEPS on. Sub-lane starts are doubled from s through
# _jumps()[k], the matrix of T^(_LANE_STEPS * 2**k) stored as one XOR table
# per 4-bit nibble of the state: a state's image is the XOR of its 64
# nibbles' rows.
_LANE_STEPS = 32
# sub-lanes per stream and pass, and the columns one table gather takes
_MAX_LANES = 128
_PASS_DRAWS = _MAX_LANES * _LANE_STEPS
# Draw counts from here on take _block. Its floor, one pass of a few lanes,
# took 0.66-0.76 ms on a 2-vCPU x86 machine, where the scalar loop pays
# 1.1 us per raw output and 1.36 us per bounded draw: about 600 draws.
BLOCK_MIN = 600
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64).reshape(1, 16, 1)
_NIBBLE_ROWS = np.arange(0, 64 * 16, 16).reshape(64, 1)


def _lane_step():
    """The ``_kernels`` xoshiro step as Python: on a uint64[4, lanes] state
    it steps every column at once. Imported on use, because ``_kernels``
    imports this module (through ``_accel``)."""
    from ._kernels import _next64
    return getattr(_next64, "py_func", _next64)


def _apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The linear map stored in ``table`` applied to each column of
    ``states`` (uint64[4, columns]), ``_MAX_LANES`` columns at a time, so
    each (64, columns, 4) gather stays within 256 KB."""
    parts = []
    for i in range(0, states.shape[1], _MAX_LANES):
        part = states[:, i:i + _MAX_LANES]
        rows = ((part[:, None, :] >> _NIBBLE_SHIFTS) & np.uint64(15)).reshape(64, -1)
        rows = rows.astype(np.intp) + _NIBBLE_ROWS
        parts.append(np.bitwise_xor.reduce(np.take(table, rows, axis=0), axis=0).T)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _table(images: np.ndarray) -> np.ndarray:
    """Nibble table of the linear map whose image of state bit b (bit
    b % 64 of word b // 64) is column b of ``images``: uint64[64 * 16, 4],
    row 16 p + v the image of value v in nibble p (state bits 4 p .. 4 p + 3)."""
    bits = images.T.reshape(64, 4, 4)
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    values = np.arange(16)
    for i in range(4):
        table[:, (values >> i) & 1 == 1] ^= bits[:, i, None, :]
    return table.reshape(64 * 16, 4)


@functools.cache
def _jumps() -> tuple:
    """Nibble tables of T^(_LANE_STEPS * 2**k) for every doubling a pass
    makes, built on the first block-sized draw (32 KB each): the first by
    stepping the 256 unit states, each later one by squaring."""
    step = _lane_step()
    bits = np.arange(256)
    images = np.zeros((4, 256), dtype=np.uint64)
    images[bits // 64, bits] = np.uint64(1) << (bits % 64).astype(np.uint64)
    for _ in range(_LANE_STEPS):
        step(images)
    tables = [_table(images)]
    while len(tables) < _MAX_LANES.bit_length() - 1:
        images = _apply(tables[-1], images)
        tables.append(_table(images))
    return tuple(tables)


def _block(s, m: int) -> np.ndarray:
    """The next ``m`` raw outputs of every state in ``s``, advancing each by
    ``m``: what ``m`` calls of ``_next64`` give. ``s`` is one state (a list
    or a uint64[4] array), drawn as uint64[m], or a uint64[4, L] array with
    one state per column, drawn as uint64[m, L].

    A pass draws up to ``_PASS_DRAWS`` outputs of every column: the column
    becomes up to ``_MAX_LANES`` sub-lanes ``_LANE_STEPS`` steps apart, all
    stepped ``_LANE_STEPS`` times at once. The last sub-lane may feed fewer
    steps; its state after them is where the column's next pass starts."""
    step = _lane_step()
    jumps = _jumps()
    cur = np.array(s, dtype=np.uint64)
    shape = cur.shape
    cur = cur.reshape(4, -1)
    cols = cur.shape[1]
    out = np.empty((m, cols), dtype=np.uint64)
    done = 0
    while done < m:
        count = min(m - done, _PASS_DRAWS)
        subs = -(-count // _LANE_STEPS)
        # column j * cols + c is sub-lane j of stream c
        lanes = cur
        k = 0
        while lanes.shape[1] < subs * cols:
            more = _apply(jumps[k], lanes[:, :subs * cols - lanes.shape[1]])
            lanes = np.concatenate([lanes, more], axis=1)
            k += 1
        rows = np.empty((_LANE_STEPS, subs * cols), dtype=np.uint64)
        last = count - (subs - 1) * _LANE_STEPS
        for t in range(_LANE_STEPS):
            rows[t] = step(lanes)
            if t + 1 == last:
                cur = lanes[:, -cols:].copy()
        rows = rows.reshape(_LANE_STEPS, subs, cols).transpose(1, 0, 2)
        out[done:done + count] = rows.reshape(-1, cols)[:count]
        done += count
    final = cur.reshape(shape)
    s[:] = final.tolist() if isinstance(s, list) else final
    return out if len(shape) == 2 else out[:, 0]


def _unrejected(state, count, floor):
    """The next ``count`` raw outputs of ``state`` from ``_block``, advancing
    ``state``; None, with ``state`` untouched, below ``BLOCK_MIN`` or when
    an output is below ``floor``. A caller passes a floor at or above every
    rejection threshold its draws use, so on None it replays its scalar loop
    and redraws exactly where the source does."""
    if count < BLOCK_MIN:
        return None
    s = state.copy()
    raw = _block(s, int(count))
    if int(raw.min()) < floor:
        return None
    state[:] = s
    return raw


def draw_uints(state, count):
    if count >= BLOCK_MIN:
        return _block(state, int(count))
    s = state.tolist()
    out = np.array([_next64(s) for _ in range(count)], dtype=np.uint64)
    state[:] = s
    return out


def draw_ints(state, bound, count):
    # The source passes the bound through int64 to uint64, so it is taken
    # mod 2**64, and casts each draw to int64, so draws >= 2**63 wrap.
    bound = int(bound) & MASK64
    raw = _unrejected(state, count, (1 << 64) % bound)
    if raw is not None:
        return (raw % np.uint64(bound)).view(np.int64)
    s = state.tolist()
    out = np.array([_randint(s, bound) for _ in range(count)], dtype=np.uint64)
    state[:] = s
    return out.view(np.int64)


def shuffle_ints(arr, state):
    a = arr.tolist()
    i = len(a) - 1
    while i > 0:
        # draws for positions i down to i - count + 1, one pass at a time, so
        # few picks are held as Python ints; every bound is at most i + 1
        count = min(i, _PASS_DRAWS)
        raw = _unrejected(state, count, i + 1)
        if raw is None:
            s = state.tolist()
            picks = [_randint(s, k + 1) for k in range(i, i - count, -1)]
            state[:] = s
        else:
            picks = (raw % np.arange(i + 1, i + 1 - count, -1, dtype=np.uint64)).tolist()
        for k, j in zip(range(i, i - count, -1), picks):
            a[k], a[j] = a[j], a[k]
        i -= count
    arr[:] = a


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
    # every step's bound is a degree, so every threshold is below the largest
    floor = int(np.diff(indptr).max())
    cur = int(start)
    seq = [cur]
    left = int(length)
    while left > 0:
        count = min(left, _PASS_DRAWS)
        raw = _unrejected(state, count, floor)
        if raw is None:
            s = state.tolist()
            for _ in range(count):
                base = ip[cur]
                cur = ix[base + _randint(s, ip[cur + 1] - base)]
                seq.append(cur)
            state[:] = s
        else:
            for r in raw.tolist():
                base = ip[cur]
                cur = ix[base + r % (ip[cur + 1] - base)]
                seq.append(cur)
        left -= count
    path[:] = seq


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
