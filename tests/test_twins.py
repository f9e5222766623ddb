"""Each Python-int twin against the kernel source it stands in for, run
interpreted: return value, every array argument afterwards and the final
RNG state must be identical. Draw counts on both sides of ``BLOCK_MIN`` run
the scalar loop and the block draws."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from tracelab import (NUMBA_ENABLED, _kernels as K, _twins, complete_graph,
                      counterexample_expander, cycle_graph, path_graph,
                      petersen_graph, random_regular, simulate_walk, trace_graph)
from tracelab.graphs import neighbor_masks
from tracelab.harness import ExperimentConfig, _derived_seeds

BLOCK_MIN = _twins.BLOCK_MIN
LANE = _twins._LANE_STEPS

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
    for count in (9, 0, BLOCK_MIN - 1, BLOCK_MIN, BLOCK_MIN + 1):
        both("draw_uints", state, count)
    for bound in (1, 2, 3, 97, 2**40 + 5, np.uint64(97), np.int64(12), np.int64(-3)):
        for count in (20, BLOCK_MIN - 1, BLOCK_MIN):
            both("draw_ints", state, bound, count)


# around the cutoff, lane counts 1, 16 and 128 (one full pass) with a
# partial lane either side, and ten passes
BLOCK_COUNTS = sorted({BLOCK_MIN - 1, BLOCK_MIN, BLOCK_MIN + 1, LANE - 1, LANE + 1,
                       16 * LANE - 1, 16 * LANE + 1, _twins._PASS_DRAWS - 1,
                       _twins._PASS_DRAWS, _twins._PASS_DRAWS + 1, 40_000})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_block_is_the_scalar_stream(seed):
    """``_block(s, m)`` returns the source's next m outputs and leaves the
    state where the source leaves it."""
    state = K.stream_state(seed, 0)
    want, states, done = [], {}, 0
    with np.errstate(over="ignore"):
        for m in BLOCK_COUNTS:
            want += source("draw_uints")(state, m - done).tolist()
            states[m], done = state.tolist(), m
    for m in BLOCK_COUNTS:
        s = K.stream_state(seed, 0).tolist()
        assert _twins._block(s, m).tolist() == want[:m], m
        assert s == states[m], m


@pytest.mark.parametrize("lanes", [1, 3, 80])
@pytest.mark.parametrize("k", [LANE, 2 * LANE, 16 * LANE, _twins._PASS_DRAWS])
def test_block_of_many_streams(lanes, k):
    """``_block`` on a uint64[4, lanes] state: column c of the result is
    stream c's next k outputs, and column c of the state ends where that
    stream's scalar loop leaves it."""
    states = np.stack([K.stream_state(11, unit) for unit in range(lanes)], axis=1)
    got = _twins._block(states, k)
    assert got.shape == (k, lanes)
    for c in range(lanes):
        s = K.stream_state(11, c).tolist()
        assert got[:, c].tolist() == [_twins._next64(s) for _ in range(k)], c
        assert states[:, c].tolist() == s, c


def test_jump_tables_are_built_on_first_block():
    code = ("import tracelab as tl\n"
            "g = tl.random_regular(8, 4, 1)\n"
            "tl.simulate_walk(g, 0, 60, 1)\n"
            "print(tl._twins._jumps.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "0"


def test_draw_ints_rejection_path(monkeypatch):
    """At bound 2**63 + 1 the threshold is 2**63 - 1, so about half of all
    outputs are redrawn. A twin whose threshold is Python's (-n) % n, which
    is always 0, keeps them and must fail the comparison."""
    bound = np.uint64(2**63 + 1)
    state = K.stream_state(21, 0)
    raw = K.draw_uints(state.copy(), 40)
    assert 0 < int((raw < np.uint64(2**63 - 1)).sum()) < 40
    both("draw_ints", state, bound, 40)
    both("draw_ints", state, bound, BLOCK_MIN + 100)

    def keep_all(s, n):
        threshold = (-n) % n
        r = _twins._next64(s)
        while r < threshold:
            r = _twins._next64(s)
        return r % n

    monkeypatch.setattr(_twins, "_randint", keep_all)
    with pytest.raises(AssertionError):
        both("draw_ints", state, bound, 40)


@pytest.mark.parametrize("size", [0, 1, 2, 7, BLOCK_MIN, BLOCK_MIN + 1, 8000])
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
    for length in (0, 7, 20 * g.n, BLOCK_MIN - 1, BLOCK_MIN, 5000):
        both("walk_trace", g.indptr, g.indices, np.int64(2), np.int64(length),
             K.stream_state(9, length), np.full(length + 1, -5, dtype=np.int64))


@pytest.mark.parametrize("name", ["draw_ints", "shuffle_ints", "walk_trace"])
def test_block_rejection_replays_the_scalar_loop(monkeypatch, name):
    """A block output below a draw's rejection floor must send the twin back
    to its scalar loop. One output is forced to 0, below every floor here
    (2**64 % 5 is 1; shuffles and walks use their largest bound), and a twin
    that kept the block would differ from the source."""
    real = _twins._block

    def with_a_zero(s, m):
        out = real(s, m)
        out[m // 2] = 0
        return out

    monkeypatch.setattr(_twins, "_block", with_a_zero)
    g = GRAPHS["counterexample"]
    args = {"draw_ints": (K.stream_state(4, 0), 5, 2 * BLOCK_MIN),
            "shuffle_ints": (np.arange(2 * BLOCK_MIN, dtype=np.int64), K.stream_state(4, 0)),
            "walk_trace": (g.indptr, g.indices, np.int64(2), np.int64(2 * BLOCK_MIN),
                           K.stream_state(4, 0), np.zeros(2 * BLOCK_MIN + 1, dtype=np.int64))}
    both(name, *args[name])


# sha256 of indptr then indices, recorded before the block draws and the
# numpy pairing round
CSR_PINS = {
    (200, 16, 1000):
        "d22438b665e9c789dec6120168f2dd8a4daaeb5689b3f7649be7f8ea6d8acda0",
    (200, 16, 1001):
        "4c1bb1b358d7623de80a68988dda86e5ebe7631f17e66ce3c372a6306f13fd11",
    (200, 16, 1002):
        "60a808b64be32bf8609a1c330b1c8f3c4e25d3661d0212012f7040024ad956de",
    (200, 16, 1003):
        "ae8a28e25078cb24e97bd25a29d31a9f88572b1347c8d0e41228ec7c6fec1b17",
    (500, 16, 0):
        "09aa5e039df0107c7b3a9464e04621a921fe5ce8cb9f1c70bc6124259110f3bd",
    (1000, 16, 0):
        "320a1664c0c2b114c0938c0c9ab8c6d9875a844092121dd7fe759d7338fbba66",
    (1000, 64, 0):
        "2dd4a26d5717c9fbdb5202e26f3f2be4916901a515afe9194691ff1bc99f3076",
}


@pytest.mark.parametrize("n, d, seed", sorted(CSR_PINS))
def test_random_regular_pinned(n, d, seed):
    g = random_regular(n, d, seed)
    csr = g.indptr.astype("<i8").tobytes() + g.indices.astype("<i4").tobytes()
    assert hashlib.sha256(csr).hexdigest() == CSR_PINS[n, d, seed]


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


# a lone stream's pass is _WIDE_DRAWS outputs: one short of it, exactly one,
# one past it and several passes
WIDE_COUNTS = [_twins._WIDE_DRAWS - 1, _twins._WIDE_DRAWS, _twins._WIDE_DRAWS + 1, 40_000]


@pytest.mark.parametrize("m", WIDE_COUNTS)
def test_wide_pass_is_the_scalar_stream(m):
    """A lone stream's ``_block`` and ``draw_uints`` around the wide pass
    give the scalar loop's outputs and leave its final state."""
    s = K.stream_state(13, 0).tolist()
    want = [_twins._next64(s) for _ in range(m)]
    for draw in (_twins._block, _twins.draw_uints):
        state = K.stream_state(13, 0)
        assert draw(state, m).tolist() == want, (draw.__name__, m)
        assert state.tolist() == s, (draw.__name__, m)


@pytest.mark.parametrize("size", [16_000, 20_000])
def test_shuffle_across_wide_passes(size):
    stubs = np.repeat(np.arange(size // 16, dtype=np.int64), 16)
    both("shuffle_ints", stubs, K.stream_state(8, 0))


def test_walk_trace_longer_than_a_wide_pass():
    g = GRAPHS["counterexample"]
    length = _twins._WIDE_DRAWS + 2 * LANE + 5
    both("walk_trace", g.indptr, g.indices, np.int64(2), np.int64(length),
         K.stream_state(10, 0), np.zeros(length + 1, dtype=np.int64))
