"""Immutable graph container, vertex-set helpers, and edge-list text I/O.

Graphs are simple and undirected, vertices are 0..n-1, and the adjacency
structure is CSR with sorted neighbor lists. Arrays are frozen after
construction so instances can be shared across workers without copies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np


class GraphError(ValueError):
    """Malformed graph input: loops, duplicates, bad ranges, bad counts."""


@dataclass(frozen=True)
class Graph:
    n: int
    indptr: np.ndarray
    indices: np.ndarray
    regular_degree: int | None = field(default=None)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "Graph":
        """Build from undirected edges: an iterable of vertex pairs or an
        (m, 2) integer array.

        Rejects loops, duplicate edges (in either orientation), and
        endpoints outside 0..n-1.
        """
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise GraphError("edges must be vertex pairs")
        u, v = pairs.reshape(-1, 2).T
        m = len(u)
        if m:
            if ((u < 0) | (u >= n) | (v < 0) | (v >= n)).any():
                raise GraphError("edge endpoint out of range")
            if (u == v).any():
                raise GraphError("self-loop rejected")
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            keys = lo * n + hi
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            if m > 1 and (keys[1:] == keys[:-1]).any():
                raise GraphError("duplicate edge rejected")
            lo, hi = lo[order], hi[order]
        else:
            lo = hi = u
        heads = np.concatenate([lo, hi])
        tails = np.concatenate([hi, lo])
        order = np.argsort(heads * n + tails, kind="stable")
        heads = heads[order]
        tails = tails[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, heads + 1, 1)
        np.cumsum(indptr, out=indptr)
        indices = tails.astype(np.int32)
        degs = np.diff(indptr)
        reg = int(degs[0]) if n and (degs == degs[0]).all() else None
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return Graph(n=n, indptr=indptr, indices=indices, regular_degree=reg)

    # -- basic accessors ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return int(self.indices.size) // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        k = int(np.searchsorted(row, v))
        return k < row.size and int(row[k]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Canonical enumeration: (u, v) with u < v, ascending lexicographic."""
        lo, hi = self.edge_array()
        return zip(lo.tolist(), hi.tolist())

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical edge endpoints as two arrays (low, high)."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        cols = self.indices.astype(np.int64)
        keep = rows < cols
        return rows[keep], cols[keep]

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        a[rows, self.indices] = 1.0
        return a

    def laplacian_matrix(self) -> np.ndarray:
        a = -self.adjacency_matrix()
        a[np.diag_indices(self.n)] = self.degrees.astype(np.float64)
        return a


def connectivity_profile(g: Graph) -> tuple[bool, bool]:
    """(connected, bipartite) by BFS 2-coloring over every component."""
    indptr = g.indptr.tolist()
    indices = g.indices.tolist()
    color = [-1] * g.n
    bipartite = True
    components = 0
    for root in range(g.n):
        if color[root] >= 0:
            continue
        components += 1
        color[root] = 0
        q = deque([root])
        while q:
            x = q.popleft()
            cx = color[x]
            for y in indices[indptr[x]:indptr[x + 1]]:
                if color[y] < 0:
                    color[y] = 1 - cx
                    q.append(y)
                elif color[y] == cx:
                    bipartite = False
    return components == 1, bipartite


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices of an n-vertex graph, kept sorted."""

    n: int
    members: tuple[int, ...]

    @staticmethod
    def of(n: int, vertices: Iterable[int]) -> "VertexSet":
        ms = sorted(set(int(v) for v in vertices))
        if ms and (ms[0] < 0 or ms[-1] >= n):
            raise GraphError("vertex out of range")
        return VertexSet(n=n, members=tuple(ms))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, v: int) -> bool:
        i = np.searchsorted(self.members, v) if self.members else 0
        return i < len(self.members) and self.members[int(i)] == v

    def as_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        if self.members:
            mask[list(self.members)] = True
        return mask


def edges_between(g: Graph, s: VertexSet, t: VertexSet) -> int:
    """Edge count across two disjoint vertex sets."""
    if set(s.members) & set(t.members):
        raise GraphError("sets must be disjoint")
    tmask = t.as_mask()
    total = 0
    for v in s:
        total += int(tmask[g.neighbors(v)].sum())
    return total


def internal_edges(g: Graph, s: VertexSet) -> int:
    """Edge count inside one vertex set."""
    smask = s.as_mask()
    twice = 0
    for v in s:
        twice += int(smask[g.neighbors(v)].sum())
    return twice // 2


def neighborhood(g: Graph, s: VertexSet) -> VertexSet:
    """External neighborhood N(S): vertices adjacent to S, minus S itself."""
    if not s.members:
        return VertexSet(n=g.n, members=())
    parts = [g.neighbors(v) for v in s]
    out = np.unique(np.concatenate(parts))
    keep = ~np.isin(out, np.fromiter(s.members, dtype=np.int64, count=len(s.members)))
    return VertexSet(n=g.n, members=tuple(int(v) for v in out[keep]))


def neighbor_masks(g: Graph) -> list[int]:
    """Adjacency bitmask of every vertex: bit w of entry v is set when v ~ w."""
    out = []
    for v in range(g.n):
        acc = 0
        for w in g.neighbors(v):
            acc |= 1 << int(w)
        out.append(acc)
    return out


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex set: bit v is set for every v in ``vertices``."""
    acc = 0
    for v in vertices:
        acc |= 1 << v
    return acc


def union_of(nbr: list[int], vertices: Iterable[int]) -> int:
    """OR of the neighbour masks ``nbr[v]`` over ``vertices``."""
    acc = 0
    for v in vertices:
        acc |= nbr[v]
    return acc


def popcounts(top: int) -> np.ndarray:
    """Set-bit count of every mask in [0, top), as int64; top <= 2**32."""
    a = np.arange(top, dtype=np.uint32)
    a = a - ((a >> 1) & np.uint32(0x55555555))
    a = (a & np.uint32(0x33333333)) + ((a >> 2) & np.uint32(0x33333333))
    a = (a + (a >> 4)) & np.uint32(0x0F0F0F0F)
    return ((a * np.uint32(0x01010101)) >> 24).astype(np.int64)


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------
#
# Line 1: "n m". Then m lines "u v". Writers emit u < v in ascending
# lexicographic order; readers accept any order but reject duplicates,
# loops, bad ranges, and count mismatches.


def format_edge_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_text(text: str) -> Graph:
    rows = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not rows:
        raise GraphError("empty edge list")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphError("header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphError("header must be two integers") from exc
    if n < 1 or m < 0:
        raise GraphError("header out of range")
    if len(rows) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphError(f"bad edge line: {ln!r}") from exc
    return Graph.from_edges(n, edges)


def write_edge_file(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_edge_text(g))


def read_edge_file(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_text(fh.read())
