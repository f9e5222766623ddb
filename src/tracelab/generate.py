"""Graph generators: random regular graphs, a slow-cover construction,
and deterministic fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import _kernels as K
from .graphs import Graph, GraphError


class GenerationError(RuntimeError):
    """Sampler gave up within its restart budget."""


FAMILIES = ("random_regular", "counterexample", "complete", "cycle", "path", "petersen")


@dataclass(frozen=True)
class GenSpec:
    """Declarative description of a graph instance.

    ``family`` picks the generator; ``n`` the vertex count; ``d`` the degree
    (random_regular only); ``c`` the attachment count (counterexample only);
    ``seed`` the sampler seed (random families only, ignored elsewhere).
    """

    family: str
    n: int
    d: int | None = None
    c: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise GraphError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise GraphError("n must be positive")
        if self.family == "random_regular":
            if self.d is None:
                raise GraphError("random_regular needs d")
            if self.seed is None:
                raise GraphError("random_regular needs a seed")
            if not (0 < self.d < self.n):
                raise GraphError("need 0 < d < n")
            if (self.n * self.d) % 2:
                raise GraphError("n * d must be even")
        elif self.family == "counterexample":
            if self.c is None:
                raise GraphError("counterexample needs c")
            if self.c < 1:
                raise GraphError("c must be >= 1")
            if 2 * self.c > self.n - 2:
                raise GraphError("need 2c <= n - 2")
            if self.c > 1.1 * self.n / math.log(self.n):
                raise GraphError("c too large for this n")
        elif self.family == "cycle":
            if self.n < 3:
                raise GraphError("cycle needs n >= 3")
        elif self.family == "petersen":
            if self.n != 10:
                raise GraphError("petersen is a 10-vertex graph")

    def build(self) -> Graph:
        if self.family == "random_regular":
            return random_regular(self.n, self.d, self.seed)
        if self.family == "counterexample":
            return counterexample_expander(self.n, self.c)
        if self.family == "complete":
            return complete_graph(self.n)
        if self.family == "cycle":
            return cycle_graph(self.n)
        if self.family == "path":
            return path_graph(self.n)
        return petersen_graph()

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"family": self.family, "n": self.n}
        if self.d is not None:
            out["d"] = self.d
        if self.c is not None:
            out["c"] = self.c
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "GenSpec":
        allowed = {"family", "n", "d", "c", "seed"}
        unknown = set(data) - allowed
        if unknown:
            raise GraphError(f"unknown graph keys: {sorted(unknown)}")
        if "family" not in data or "n" not in data:
            raise GraphError("graph needs 'family' and 'n'")
        return GenSpec(
            family=data["family"],
            n=int(data["n"]),
            d=None if data.get("d") is None else int(data["d"]),
            c=None if data.get("c") is None else int(data["c"]),
            seed=None if data.get("seed") is None else int(data["seed"]),
        )


# ---------------------------------------------------------------------------
# random regular graphs (pairing model with stub repair)
# ---------------------------------------------------------------------------


def _is_taken(keys: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Which ``keys`` are in ``taken``: sorted edge keys ``lo * n + hi`` and,
    last, a sentinel above every key, so every search lands inside."""
    return taken[np.searchsorted(taken, keys)] == keys


def _suitable(stubs: np.ndarray, taken: np.ndarray, n: int) -> bool:
    # Is there any pairable (distinct, unused) pair among the leftover stubs?
    verts = np.flatnonzero(np.bincount(stubs))
    for i in range(verts.size - 1):
        if not _is_taken(verts[i] * n + verts[i + 1:], taken).all():
            return True
    return False


def _pairing_attempt(n: int, d: int, state: np.ndarray, max_rounds: int):
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    taken = np.array([n * n], dtype=np.int64)
    lows: list[np.ndarray] = []
    highs: list[np.ndarray] = []
    for _ in range(max_rounds):
        K.shuffle_ints(stubs, state)
        pairs = stubs.reshape(-1, 2)
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        keys = lo * n + hi
        fresh = np.flatnonzero((lo != hi) & ~_is_taken(keys, taken))
        # a key that repeats within the round pairs only at its first pair
        new_keys, first = np.unique(keys[fresh], return_index=True)
        keep = np.zeros(len(pairs), dtype=bool)
        keep[fresh[first]] = True
        taken = np.insert(taken, np.searchsorted(taken, new_keys), new_keys)
        lows.append(lo[keep])
        highs.append(hi[keep])
        stubs = pairs[~keep].ravel()
        if not stubs.size:
            return np.column_stack([np.concatenate(lows), np.concatenate(highs)])
        if not _suitable(stubs, taken, n):
            return None
    return None


def random_regular(n: int, d: int, seed: int, max_restarts: int = 1000) -> Graph:
    """Sample a simple d-regular graph on n vertices (pairing model).

    Pairs shuffled edge stubs, keeps the simple pairs, and re-shuffles only
    the colliding leftovers; a fresh attempt starts when the leftovers can
    no longer be paired at all. The output distribution is the usual
    pairing-model one, close to but not exactly uniform over simple
    d-regular graphs. Deterministic per ``seed``.
    """
    GenSpec(family="random_regular", n=n, d=d, seed=seed)
    state = K.stream_state(seed, 0)
    for _ in range(max_restarts):
        edges = _pairing_attempt(n, d, state, max_rounds=200)
        if edges is not None:
            return Graph.from_edges(n, edges)
    raise GenerationError(
        f"no simple {d}-regular pairing on {n} vertices after {max_restarts} attempts"
    )


# ---------------------------------------------------------------------------
# slow-cover construction
# ---------------------------------------------------------------------------


def counterexample_expander(n: int, c: int) -> Graph:
    """Near-complete graph with two lightly attached outside vertices.

    Vertices 2..n-1 form a clique; vertex 0 joins the first c clique
    vertices and vertex 1 the next c, so both have degree exactly c while
    expansion stays at least c for small sets. Random walks cover this
    graph slowly: reaching the outside vertices takes about n/c tries of
    cost n each, against n log n for the clique bulk.
    """
    GenSpec(family="counterexample", n=n, c=c)
    edges = [(u, v) for u in range(2, n - 1) for v in range(u + 1, n)]
    edges.extend((0, v) for v in range(2, 2 + c))
    edges.extend((1, v) for v in range(2 + c, 2 + 2 * c))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((u, v) for u in range(n - 1) for v in range(u + 1, n)))


def cycle_graph(n: int) -> Graph:
    GenSpec(family="cycle", n=n)
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)
