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
ahead), steps them in place, up to ``_WIDE_DRAWS`` outputs in one pass, and
returns exactly what the scalar loop would draw. A lone stream's sub-lanes
are 8, 16 or 32 steps long, the shortest of which ``_WIDE_LANES`` cover the
draw, so a short draw takes fewer steps of more sub-lanes. A bounded draw
redraws an output below its rejection threshold, which moves every later
draw, so when any block output falls below the largest threshold of the
draws it feeds, the twin discards the block and replays its scalar loop
from the saved state. The jump tables are indexed by the log2 of their jump
length, 3 to 13 (11 tables, 8 to 8192 steps), and each is built when a pass
first needs it, not at import. ``walk_stats``, ``hit_within_count`` and
``posa_cycle`` stop early, so they draw one output at a time.

Shuffles. Below ``BLOCK_MIN`` draws ``shuffle_ints`` runs the Fisher-Yates
swap loop on a list. From there on it keeps every step's pick in one array
and resolves the swaps with numpy (``_swap_order``). Step k swaps positions
k and picks[k] <= k, and no later step touches position k, so position k
ends with what position picks[k] held when step k ran: what the last step
to run before it with the same pick, the least such step j > k, brought in,
else the starting value. Step j brought in what position j held when it ran:
what the least step that picks j brought in (all such steps are above j,
as picks[j] < j), else the starting value. Each link climbs, so pointer
doubling follows every chain at once, and one gather applies the result,
element for element the loop's.

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
# given as sub-lanes that start L steps apart: sub-lane j starts at
# T^(j * L) s, so its next L outputs are the stream's outputs from j * L on.
# L is _LANE_STEPS for several streams; a lone stream takes the shortest of
# 8, 16 and 32 whose _WIDE_LANES sub-lanes cover its draw, since a pass costs
# L steps of 12 ufunc calls and only a doubling more per twice the sub-lanes.
# Sub-lane starts are doubled from s through _jumps(e), the matrix of
# T^(2**e) stored as one XOR table per 4-bit nibble of the state: a state's
# image is the XOR of its 64 nibbles' rows. A pass of 2**k sub-lanes uses
# e = log2(L) .. log2(L) + k - 1, so e runs from 3 to 13. _steps moves every
# sub-lane one step with 12 in-place ufunc calls on preallocated rows, its
# outputs written straight into the result.
_LANE_STEPS = 32
# sub-lanes per stream and pass of several streams; columns per table gather
_MAX_LANES = 128
_PASS_DRAWS = _MAX_LANES * _LANE_STEPS
# a lone stream's sub-lanes per pass, and their shortest length
_WIDE_LANES = 512
_WIDE_DRAWS = _WIDE_LANES * _LANE_STEPS
_SHORT_STEPS = 8
# Draw counts from here on take _block. Its floor, one pass of a few lanes,
# took 0.24-0.25 ms on a 2-vCPU x86 machine, where the scalar loop paid
# 0.6 us per raw output and 0.7 us per bounded draw: about 400 draws.
BLOCK_MIN = 400
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64).reshape(1, 16, 1)
_NIBBLE_ROWS = np.arange(0, 64 * 16, 16).reshape(64, 1)
# 0-d arrays: a ufunc converts a numpy scalar operand anew on every call
_R17, _R19, _R23, _R41, _R45 = (np.array(r, dtype=np.uint64) for r in (17, 19, 23, 41, 45))


def _steps(lanes: np.ndarray, rows) -> None:
    """The ``_kernels`` xoshiro256++ step, in place, on every state of
    ``lanes`` (uint64[4, ...]) once per array in ``rows``, into which it
    writes that step's outputs."""
    s0, s1, s2, s3 = lanes
    low, high, flip = lanes[:2], lanes[2:], lanes[:1:-1]
    x = np.empty_like(s0)
    y = np.empty_like(s0)
    for row in rows:
        np.add(s0, s3, out=x)
        np.left_shift(x, _R23, out=y)
        np.right_shift(x, _R41, out=x)
        np.bitwise_or(x, y, out=x)
        np.add(x, s0, out=row)
        np.left_shift(s1, _R17, out=y)
        # (s2, s3) ^= (s0, s1), then (s0, s1) ^= (s3, s2)
        np.bitwise_xor(high, low, out=high)
        np.bitwise_xor(low, flip, out=low)
        np.bitwise_xor(s2, y, out=s2)
        np.left_shift(s3, _R45, out=y)
        np.right_shift(s3, _R19, out=s3)
        np.bitwise_or(s3, y, out=s3)


def _apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The linear map stored in ``table`` applied to each column of
    ``states`` (uint64[4, columns]), ``_MAX_LANES`` columns at a time, so
    each (64, columns, 4) gather stays within 256 KB."""
    parts = []
    for i in range(0, states.shape[1], _MAX_LANES):
        rows = states[:, None, i:i + _MAX_LANES] >> _NIBBLE_SHIFTS
        rows &= np.uint64(15)  # below 16, so its bits read as the same intp
        rows = rows.reshape(64, -1).view(np.intp)
        rows += _NIBBLE_ROWS
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
def _jumps(e: int) -> np.ndarray:
    """Nibble table of T^(2**e), e >= 3, built when a pass first jumps that
    far (32 KB): T^8 by stepping the 256 unit states, each later one by
    squaring the one before."""
    if 1 << e > _SHORT_STEPS:
        prev = _jumps(e - 1)
        # the unit states' images are the rows of nibble values 1, 2, 4 and 8
        images = _apply(prev, prev.reshape(64, 16, 4)[:, [1, 2, 4, 8]].reshape(256, 4).T)
    else:
        bits = np.arange(256)
        images = np.zeros((4, 256), dtype=np.uint64)
        images[bits // 64, bits] = np.uint64(1) << (bits % 64).astype(np.uint64)
        _steps(images, np.empty((_SHORT_STEPS, 256), dtype=np.uint64))
    return _table(images)


def _block(s, m: int) -> np.ndarray:
    """The next ``m`` raw outputs of every state in ``s``, advancing each by
    ``m``: what ``m`` calls of ``_next64`` give. ``s`` is one state (a list
    or a uint64[4] array), drawn as uint64[m], or a uint64[4, L] array with
    one state per column, drawn as uint64[m, L].

    A pass draws up to ``_PASS_DRAWS`` outputs of every column: the column
    becomes up to ``_MAX_LANES`` sub-lanes ``_LANE_STEPS`` steps apart, all
    stepped ``_LANE_STEPS`` times at once. A lone column takes up to
    ``_WIDE_LANES`` sub-lanes of 8, 16 or 32 steps, the shortest that cover
    ``m`` in one pass, and up to ``_WIDE_DRAWS`` outputs a pass. The last
    sub-lane may feed fewer steps; its state after them is where the
    column's next pass starts."""
    cur = np.array(s, dtype=np.uint64)
    shape = cur.shape
    cur = cur.reshape(4, -1)
    cols = cur.shape[1]
    steps = _LANE_STEPS
    if cols == 1:
        steps = _SHORT_STEPS
        while steps < _LANE_STEPS and steps * _WIDE_LANES < m:
            steps *= 2
    per_pass = (_WIDE_LANES if cols == 1 else _MAX_LANES) * steps
    log = steps.bit_length() - 1
    out = np.empty((-(-m // steps) * steps, cols), dtype=np.uint64)
    done = 0
    while done < m:
        count = min(m - done, per_pass)
        subs = -(-count // steps)
        # column j * cols + c is sub-lane j of stream c
        lanes = np.empty((4, subs * cols), dtype=np.uint64)
        lanes[:, :cols] = cur
        for k in range((subs - 1).bit_length()):
            more = lanes[:, cols << k:cols << (k + 1)]
            more[:] = _apply(_jumps(log + k), lanes[:, :more.shape[1]])
        # step t of sub-lane j is output row done + j * steps + t
        rows = out[done:done + subs * steps].reshape(subs, steps, cols)
        lanes = lanes.reshape(4, subs, cols)
        rows = rows.transpose(1, 0, 2)
        last = count - (subs - 1) * steps
        _steps(lanes, rows[:last])
        cur = lanes[:, -1].copy()
        _steps(lanes, rows[last:])
        done += count
    final = cur.reshape(shape)
    s[:] = final.tolist() if isinstance(s, list) else final
    return out[:m] if len(shape) == 2 else out[:m, 0]


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
    size = len(arr)
    if size - 1 < BLOCK_MIN:
        a = arr.tolist()
        s = state.tolist()
        for k in range(size - 1, 0, -1):
            j = _randint(s, k + 1)
            a[k], a[j] = a[j], a[k]
        state[:] = s
        arr[:] = a
        return
    # picks[k] is the position step k swaps with; step 0 swaps 0 with itself
    picks = np.zeros(size, dtype=np.int64)
    i = size - 1
    while i > 0:
        # draws for steps i down to i - count + 1, one pass at a time; every
        # bound is at most i + 1
        count = min(i, _WIDE_DRAWS)
        raw = _unrejected(state, count, i + 1)
        if raw is None:
            s = state.tolist()
            picks[i:i - count:-1] = [_randint(s, k + 1) for k in range(i, i - count, -1)]
            state[:] = s
        else:
            picks[i:i - count:-1] = raw % np.arange(i + 1, i + 1 - count, -1, dtype=np.uint64)
        i -= count
    arr[:] = arr[_swap_order(picks)]


def _swap_order(picks):
    """``perm`` with ``arr[perm]`` what the swap loop leaves in ``arr`` when
    step k swaps positions k and picks[k] (see Shuffles above)."""
    size = picks.size
    order = np.argsort(picks * size + np.arange(size))
    grouped = picks[order]
    # order[r + 1] is the least step above order[r] with its pick
    same = np.flatnonzero(grouped[1:] == grouped[:-1])
    # value_at[j] links j to the least step that picks j; chased to its end,
    # it is where the value position j held when step j ran started
    heads = np.flatnonzero(np.diff(grouped, prepend=-1))
    value_at = np.arange(size)
    value_at[grouped[heads]] = order[heads]
    # freed before the doubling, which holds the most arrays at once
    del grouped, heads
    while True:
        further = value_at[value_at]
        if np.array_equal(further, value_at):
            break
        value_at = further
    perm = picks.copy()
    perm[order[same]] = value_at[order[same + 1]]
    return perm


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
        count = min(left, _WIDE_DRAWS)
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
