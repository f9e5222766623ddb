"""Each Python-int twin against the kernel source it stands in for, run
interpreted: return value, every array argument afterwards and the final
RNG state must be identical."""

import numpy as np
import pytest

from tracelab import (NUMBA_ENABLED, _kernels as K, _twins, complete_graph,
                      counterexample_expander, cycle_graph, path_graph,
                      petersen_graph, random_regular, simulate_walk, trace_graph)
from tracelab.graphs import neighbor_masks
from tracelab.harness import ExperimentConfig, _derived_seeds

GRAPHS = {
    "regular": random_regular(60, 4, 1),
    "counterexample": counterexample_expander(30, 3),
    "cycle": cycle_graph(12),
}


def source(name):
    """The kernel source, run interpreted on numpy scalars."""
    fn = getattr(K, name)
    return getattr(fn, "py_func", None) or fn.__wrapped__


def plain(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tolist()
    if isinstance(value, tuple):
        return tuple(int(x) for x in value)
    return None if value is None else int(value)


def both(name, *args):
    """Run twin and source on copies of ``args``; return the twin's result
    and its copies of the arguments."""
    copies = [[a.copy() if isinstance(a, np.ndarray) else a for a in args]
              for _ in range(2)]
    got = getattr(_twins, name)(*copies[0])
    with np.errstate(over="ignore"):
        want = source(name)(*copies[1])
    assert plain(got) == plain(want), name
    for mine, theirs in zip(*copies):
        if isinstance(mine, np.ndarray):
            assert plain(mine) == plain(theirs), name
    return got, copies[0]


def test_twins_are_what_the_package_calls():
    if NUMBA_ENABLED:
        pytest.skip("numba compiles the source instead")
    for name in _twins.__all__:
        assert K.__dict__[name] is getattr(_twins, name)


def test_draws():
    state = K.stream_state(7, 0)
    both("draw_uints", state, 9)
    both("draw_uints", state, 0)
    for bound in (1, 2, 3, 97, 2**40 + 5, np.uint64(97), np.int64(12), np.int64(-3)):
        both("draw_ints", state, bound, 20)


def test_draw_ints_rejection_path(monkeypatch):
    """At bound 2**63 + 1 the threshold is 2**63 - 1, so about half of all
    outputs are redrawn. A twin whose threshold is Python's (-n) % n, which
    is always 0, keeps them and must fail the comparison."""
    bound = np.uint64(2**63 + 1)
    state = K.stream_state(21, 0)
    raw = K.draw_uints(state.copy(), 40)
    assert 0 < int((raw < np.uint64(2**63 - 1)).sum()) < 40
    both("draw_ints", state, bound, 40)

    def keep_all(s, n):
        threshold = (-n) % n
        r = _twins._next64(s)
        while r < threshold:
            r = _twins._next64(s)
        return r % n

    monkeypatch.setattr(_twins, "_randint", keep_all)
    with pytest.raises(AssertionError):
        both("draw_ints", state, bound, 40)


@pytest.mark.parametrize("size", [0, 1, 2, 7, 8000])
def test_shuffle(size):
    stubs = np.repeat(np.arange(500, dtype=np.int64), 16)[:size]
    both("shuffle_ints", stubs, K.stream_state(3, 0))


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_walk_stats(name, mode):
    g = GRAPHS[name]
    for length, delta in ((10 * g.n, 0.0), (g.n, 0.1), (40 * g.n, 0.5), (40 * g.n, 0.9)):
        both("walk_stats", g.indptr, g.indices, np.int64(1), np.int64(length),
             delta, np.int64(mode), K.stream_state(5, mode),
             np.zeros(g.n, dtype=np.int64))


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_walk_stats_single_vertex(mode):
    g = complete_graph(1)
    got, _ = both("walk_stats", g.indptr, g.indices, np.int64(0), np.int64(5), 0.1,
                  np.int64(mode), K.stream_state(5, 0), np.zeros(1, dtype=np.int64))
    assert got == (0, 0, 0)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_walk_trace(name):
    g = GRAPHS[name]
    for length in (0, 7, 20 * g.n):
        both("walk_trace", g.indptr, g.indices, np.int64(2), np.int64(length),
             K.stream_state(9, length), np.full(length + 1, -5, dtype=np.int64))


def test_hit_within_count():
    g = GRAPHS["regular"]
    nb = int(g.neighbors(0)[0])
    hits = []
    for unit in range(40):
        for v, horizon in ((nb, 3), (0, 6), (30, 2)):
            got, _ = both("hit_within_count", g.indptr, g.indices, np.int64(0),
                          np.int64(v), np.int64(horizon), K.stream_state(6, unit))
            hits.append(got)
    assert 0 < sum(hits) < len(hits)


def posa_args(g, seed, max_rotations, max_restarts):
    return (g.indptr, g.indices, np.int64(g.n), K.stream_state(seed, 1),
            np.int64(max_rotations), np.int64(max_restarts),
            np.full(g.n, -3, dtype=np.int64), np.full(g.n, -3, dtype=np.int64))


def test_posa_small_and_found():
    for n in (1, 2):
        got, _ = both("posa_cycle", *posa_args(complete_graph(n), 1, 10, 5))
        assert got == (0, 0, 0)
    g = random_regular(64, 8, 3)
    got, _ = both("posa_cycle", *posa_args(g, 5, 100 * g.n, 50))
    assert got[0] == 1
    got, _ = both("posa_cycle", *posa_args(GRAPHS["counterexample"], 2, 3, 4))
    assert got[0] == 0


def test_posa_exhausted():
    """Criterion 7's trial 48 at seed 2024: the trace has a vertex of degree
    1, so the full 50-restart budget runs out."""
    cfg = ExperimentConfig.from_dict({
        "version": 1, "experiment": "trace_hamilton",
        "graph": {"family": "random_regular", "n": 200, "d": 16},
        "trials": 50, "seed": 2024, "walk": {"multiplier": 1.5}})
    gseed, wseed, start = _derived_seeds(cfg.seed, 48, 200)
    graph = cfg.graph_spec(seed_override=gseed).build()
    tg = trace_graph(simulate_walk(graph, start, cfg.resolve_length(200), wseed))
    assert int(tg.degrees.min()) < 2
    got, _ = both("posa_cycle", *posa_args(tg, wseed, 100 * tg.n, 50))
    assert got[0] == 0 and got[1] > 0 and got[2] == 50


@pytest.mark.parametrize("g, hamiltonian", [
    (complete_graph(3), True), (cycle_graph(7), True), (path_graph(6), False),
    (petersen_graph(), False), (random_regular(10, 3, 0), None),
    (random_regular(8, 4, 1), None)])
def test_ham_dp(g, hamiltonian):
    nbr = np.array(neighbor_masks(g), dtype=np.int64)
    got, _ = both("ham_dp", nbr, np.int64(g.n), np.zeros(1 << g.n, dtype=np.uint32))
    if hamiltonian is not None:
        assert bool(int(got) & int(nbr[0])) == hamiltonian
