"""Reference computations that share no code with tracelab.

The RNG follows the stream layout documented in ``tracelab._kernels``: a
stream ``(seed, index)`` is xoshiro256++ seeded with four splitmix64
outputs taken from ``seed + GOLDEN * (index + 1)``; bounded integers use
threshold rejection; a walk step picks among a vertex's neighbours in
sorted order. Everything here is plain Python integers, so it can replay
any tracelab walk, shuffle or pairing without importing the package.
"""

from __future__ import annotations

import math

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
AUX_STREAM = 1 << 32


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


class Stream:
    """xoshiro256++ stream ``(seed, index)``."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: int, index: int):
        z = (seed + GOLDEN * (index + 1)) & M64
        words = []
        for _ in range(4):
            z = (z + GOLDEN) & M64
            words.append(_mix64(z))
        if not any(words):
            words[0] = GOLDEN
        self.s0, self.s1, self.s2, self.s3 = words

    def next64(self) -> int:
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        x = (s0 + s3) & M64
        out = ((((x << 23) | (x >> 41)) & M64) + s0) & M64
        t = (s1 << 17) & M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self.s0, self.s1, self.s2 = s0, s1, s2
        self.s3 = ((s3 << 45) | (s3 >> 19)) & M64
        return out

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound) by threshold rejection."""
        threshold = ((1 << 64) - bound) % bound
        r = self.next64()
        while r < threshold:
            r = self.next64()
        return r % bound


def shuffle(items: list, stream: Stream) -> None:
    """Fisher-Yates shuffle in place, last position first."""
    for i in range(len(items) - 1, 0, -1):
        j = stream.randint(i + 1)
        items[i], items[j] = items[j], items[i]


def sorted_adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for row in adj:
        row.sort()
    return adj


def csr_adjacency(indptr, indices) -> list[list[int]]:
    """Neighbour lists of a CSR structure, as plain sorted Python lists."""
    ptr = [int(x) for x in indptr]
    idx = [int(x) for x in indices]
    return [sorted(idx[ptr[v]:ptr[v + 1]]) for v in range(len(ptr) - 1)]


def random_regular_edges(n: int, d: int, seed: int) -> list[tuple[int, int]]:
    """Stub pairing with collision re-shuffles (the pairing model), stream
    ``(seed, 0)``: shuffle all stubs, keep simple pairs, re-shuffle only the
    colliding leftovers, start over when the leftovers cannot pair."""
    stream = Stream(seed, 0)
    for _ in range(1000):
        stubs = [v for v in range(n) for _ in range(d)]
        taken: set[int] = set()
        edges: list[tuple[int, int]] = []
        for _ in range(200):
            shuffle(stubs, stream)
            leftover = []
            for i in range(0, len(stubs), 2):
                a, b = stubs[i], stubs[i + 1]
                lo, hi = (a, b) if a < b else (b, a)
                if a == b or lo * n + hi in taken:
                    leftover += (a, b)
                    continue
                taken.add(lo * n + hi)
                edges.append((lo, hi))
            if not leftover:
                return edges
            stubs = leftover
            verts = sorted(set(stubs))
            if not any(a * n + b not in taken
                       for i, a in enumerate(verts) for b in verts[i + 1:]):
                break
    raise RuntimeError(f"no simple {d}-regular pairing on {n} vertices")


def start_pool(n: int, seed: int, sample: int = 32, limit: int = 200) -> list[int]:
    """Worst-start pool: every vertex up to ``limit``, else a seeded sample."""
    if n <= limit:
        return list(range(n))
    order = list(range(n))
    shuffle(order, Stream(seed, AUX_STREAM))
    return order[:sample]


def derived_seeds(seed: int, unit: int, n: int) -> tuple[int, int, int]:
    """Per-trial (graph seed, walk seed, start) from the auxiliary stream."""
    s = Stream(seed, AUX_STREAM + unit)
    return s.next64(), s.next64(), s.randint(n)


def cover_walk(adj: list[list[int]], start: int, stream: Stream) -> int:
    """Steps until every vertex has been visited."""
    n = len(adj)
    seen = bytearray(n)
    seen[start] = 1
    left = n - 1
    cur = start
    step = 0
    while left:
        row = adj[cur]
        cur = row[stream.randint(len(row))]
        step += 1
        if not seen[cur]:
            seen[cur] = 1
            left -= 1
    return step


def trace_walk(adj: list[list[int]], start: int, length: int,
               stream: Stream) -> tuple[bytearray, set[tuple[int, int]]]:
    """Visited flags and the set of traversed edges (low endpoint first)."""
    seen = bytearray(len(adj))
    seen[start] = 1
    edges: set[tuple[int, int]] = set()
    cur = start
    for _ in range(length):
        row = adj[cur]
        nxt = row[stream.randint(len(row))]
        edges.add((cur, nxt) if cur < nxt else (nxt, cur))
        seen[nxt] = 1
        cur = nxt
    return seen, edges


def hits_within(adj: list[list[int]], u: int, v: int, horizon: int,
                stream: Stream) -> int:
    """1 when a walk from u reaches v within ``horizon`` steps."""
    cur = u
    for _ in range(horizon):
        row = adj[cur]
        cur = row[stream.randint(len(row))]
        if cur == v:
            return 1
    return 0


def ceil_walk_length(multiplier: float, n: int) -> int:
    return int(math.ceil(multiplier * n * math.log(max(n, 2))))
