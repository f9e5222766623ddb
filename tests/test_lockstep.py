"""Lockstep lanes against the per-trial kernels: every lane of
``cover_trials`` / ``probe_trials`` must reproduce the trial it stands for,
bit for bit, whatever the graph, budget or chunking."""

import numpy as np
import pytest

from tracelab import (GraphError, NUMBA_ENABLED, _kernels as K, _twins, complete_graph,
                      counterexample_expander, cover_trial, cycle_graph, path_graph,
                      random_regular, return_probe_trial, walks)


@pytest.fixture
def lockstep(monkeypatch):
    """Run batches of any size as lanes on either backend."""
    monkeypatch.setattr(walks, "NUMBA_ENABLED", False)
    monkeypatch.setattr(walks, "_MIN_LANES", 1)
    monkeypatch.setattr(walks, "_MIN_PROBE_LANES", 1)


def lanes_vs_trials(g, seed, lo, hi, budget=None, starts=None):
    assert walks._lockstep(hi - lo)
    vs, steps = walks.cover_trials(g, seed, lo, hi, budget, starts)
    got = list(zip(vs.tolist(), steps.tolist()))
    want = [cover_trial(g, seed, unit, budget,
                        None if starts is None else starts[unit - lo])
            for unit in range(lo, hi)]
    assert got == want
    return steps


@pytest.mark.parametrize("g", [random_regular(60, 4, 1), counterexample_expander(30, 3),
                               complete_graph(50), cycle_graph(12)],
                         ids=["regular", "counterexample", "complete", "cycle"])
def test_cover_lanes_match_trials(lockstep, g):
    lanes_vs_trials(g, 7, 0, 24)
    lanes_vs_trials(g, 7, 5, 17, starts=[(3 * unit) % g.n for unit in range(5, 17)])


def test_censoring_budget(lockstep):
    steps = lanes_vs_trials(random_regular(60, 4, 2), 3, 0, 40, budget=260)
    assert (steps < 0).any() and (steps >= 0).any()
    steps = lanes_vs_trials(cycle_graph(12), 3, 0, 8, budget=0)
    assert (steps == -1).all()


def test_single_vertex(lockstep):
    steps = lanes_vs_trials(complete_graph(1), 4, 0, 6, budget=0)
    assert (steps == 0).all()
    lanes_vs_trials(complete_graph(1), 4, 0, 6, starts=[0] * 6)


def test_chunk_boundaries(lockstep, monkeypatch):
    g = random_regular(40, 6, 3)
    monkeypatch.setattr(walks, "_CHUNK_CELLS", 3 * g.n)
    assert len(list(walks._chunks(2, 13, g.n))) == 4
    lanes_vs_trials(g, 11, 2, 13)
    lanes_vs_trials(g, 11, 2, 13, starts=list(range(11)))
    probes_vs_trials(g, 11, 2, 13, 0, 1, 30)


def probes_vs_trials(g, seed, lo, hi, u, v, horizon):
    assert walks._lockstep(hi - lo)
    got = walks.probe_trials(g, seed, lo, hi, u, v, horizon).tolist()
    assert got == [return_probe_trial(g, seed, unit, u, v, horizon)
                   for unit in range(lo, hi)]
    return got


def test_probe_lanes_match_trials(lockstep):
    g = random_regular(60, 6, 4)
    hits = probes_vs_trials(g, 5, 0, 200, 0, 0, 40)
    assert 0 < sum(hits) < 200
    nb = int(g.neighbors(0)[0])
    hits = probes_vs_trials(g, 5, 10, 210, 0, nb, 12)
    assert 0 < sum(hits) < 200
    probes_vs_trials(counterexample_expander(30, 3), 6, 0, 50, 0, 1, 25)
    probes_vs_trials(cycle_graph(12), 6, 0, 50, 3, 3, 9)


def test_batch_path_choice(monkeypatch):
    monkeypatch.setattr(walks, "NUMBA_ENABLED", False)
    assert not walks._lockstep(walks._MIN_LANES - 1)
    assert walks._lockstep(walks._MIN_LANES)
    monkeypatch.setattr(walks, "NUMBA_ENABLED", True)
    assert not walks._lockstep(10_000)


def test_lane_draw_rejection_path():
    """With bound 2**63 + 1 the threshold is 2**63 - 1, so about half of all
    outputs reject; each lane must still draw what its own stream draws."""
    bound = np.uint64(2**63 + 1)
    lanes, count, seed = 48, 6, 21
    state = walks._lane_states(seed, 0, lanes)
    with np.errstate(over="ignore"):
        threshold = walks._threshold(bound)
        drawn = np.array([walks._lane_ints(state, bound, threshold)
                          for _ in range(count)])
    assert threshold == np.uint64(2**63 - 1)
    first = [K.stream_uints(seed, i, 1)[0] for i in range(lanes)]
    assert 0 < sum(x < threshold for x in first) < lanes
    for i in range(lanes):
        own = K.stream_state(seed, i)
        want = K.draw_ints(own, bound, count)
        assert drawn[:, i].astype(np.int64).tolist() == want.tolist()
        assert state[:, i].tolist() == own.tolist()


def test_starts_need_one_vertex_per_unit():
    with pytest.raises(GraphError):
        walks.cover_trials(cycle_graph(12), 1, 0, 5, starts=[0, 1])


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_lane_states_are_the_stream_states(seed):
    for unit in (0, 1, 2**32 - 1, K.AUX_STREAM, K.AUX_STREAM + 7):
        got = walks._lane_states(seed, unit, unit + 3)
        for i in range(3):
            assert got[:, i].tolist() == K.stream_state(seed, unit + i).tolist()


def test_lane_states_all_zero_fix_up(monkeypatch):
    """A stream whose four splitmix64 outputs are all 0 starts at s0 =
    GOLDEN; no real seed reaches it, so the finaliser is replaced by 0."""
    if NUMBA_ENABLED:
        pytest.skip("stream_state runs compiled")
    monkeypatch.setattr(K, "_mix64", lambda z: z ^ z)
    monkeypatch.setattr(walks, "_mix64", lambda z: z ^ z)
    want = K.stream_state(5, 2).tolist()
    assert want == [int(K.GOLDEN), 0, 0, 0]
    assert walks._lane_states(5, 2, 4)[:, 0].tolist() == want


def test_budgets_at_the_block_length(lockstep):
    """Budgets and horizons one short of, at and one past a block: lanes
    finish inside the first block, at its end and one step into the next."""
    lanes = 40
    k = walks._block_steps(lanes, 10**9)
    g = random_regular(80, 4, 1)
    assert walks._block_steps(1, 10**9) == _twins._PASS_DRAWS
    assert walks._block_steps(lanes, k + 1) == k
    assert walks._block_steps(lanes, 40) == 2 * _twins._LANE_STEPS
    finished = []
    for budget in (k - 1, k, k + 1):
        steps = lanes_vs_trials(g, 3, 0, lanes, budget=budget)
        finished.append(int((steps >= 0).sum()))
        assert 0 < finished[-1] < lanes
        hits = probes_vs_trials(cycle_graph(60), 3, 0, lanes, 0, 30, budget)
        assert 0 < sum(hits) < lanes
    assert finished == sorted(finished)


def test_floor_above_zero(lockstep):
    """Degree 6 does not divide 2**64, so a walk step rejects outputs below
    2**64 % 6 = 4, and the lanes check each block against that floor."""
    g = random_regular(60, 6, 4)
    assert int(walks._walk_tables(g)[2].max()) == 4
    lanes_vs_trials(g, 8, 0, 30)
    probes_vs_trials(g, 8, 0, 30, 0, 1, 40)


def test_block_below_the_floor_steps_one_at_a_time(lockstep, monkeypatch):
    """A block output below the floor sends the lanes back to drawing one
    step at a time. Every lanes block gets a 0 in its last lane's first
    row, which every live lane uses. Where the real output is not a
    multiple of 6 the 0 moves that step, so lanes that kept the block would
    walk elsewhere than their trials."""
    g = random_regular(60, 6, 4)
    real = _twins._block
    moved = []

    def with_a_zero(s, m):
        out = real(s, m)
        if out.ndim == 2:
            moved.append(int(out[0, -1]) % 6 != 0)
            out[0, -1] = 0
        return out

    monkeypatch.setattr(_twins, "_block", with_a_zero)
    for run in (lambda: lanes_vs_trials(g, 10, 0, 30),
                lambda: lanes_vs_trials(g, 10, 0, 30, starts=[7] * 30),
                lambda: probes_vs_trials(g, 10, 0, 30, 0, 1, 80)):
        moved.clear()
        run()
        assert any(moved)


def test_cover_steps_at_block_ends(lockstep, monkeypatch):
    """With 32-step blocks, lanes that cover on a block's last step and on
    the next block's first step still equal their trials: the block's
    bookkeeping counts a lane's new vertices up to the right row."""
    monkeypatch.setattr(walks, "_BLOCK_CELLS", 1)
    lanes = 200
    assert walks._block_steps(lanes, 10**9) == _twins._LANE_STEPS
    g = random_regular(30, 4, 1)
    steps = lanes_vs_trials(g, 5, 0, lanes)
    residues = set((steps % _twins._LANE_STEPS).tolist())
    assert {0, 1} <= residues
    probes_vs_trials(g, 5, 0, lanes, 0, 1, 3 * _twins._LANE_STEPS)


def test_budget_beyond_int32(lockstep):
    """A budget of 2**40 keeps first visits in int64; the lanes still cover
    at the steps their trials do."""
    steps = lanes_vs_trials(complete_graph(6), 9, 0, 20, budget=2**40)
    assert (steps > 0).all()


def test_general_step_loop_matches_the_regular_one(lockstep, monkeypatch):
    """On a regular graph the lanes step through CSR positions and
    ``ahead``; with ``ahead`` withheld they take the general CSR step, and
    both equal the per-trial calls."""
    g = random_regular(60, 4, 1)
    assert walks._walk_tables(g)[3].tolist() == (g.indices * 4).tolist()
    regular = lanes_vs_trials(g, 12, 0, 30).tolist()
    hits = probes_vs_trials(g, 12, 0, 30, 0, 1, 40)
    real = walks._walk_tables
    monkeypatch.setattr(walks, "_walk_tables", lambda h: real(h)[:3] + (None,))
    assert lanes_vs_trials(g, 12, 0, 30).tolist() == regular
    assert probes_vs_trials(g, 12, 0, 30, 0, 1, 40) == hits
    for h in (path_graph(60), counterexample_expander(30, 3)):
        assert real(h)[3] is None
        lanes_vs_trials(h, 12, 0, 30)
        probes_vs_trials(h, 12, 0, 30, 0, h.n - 1, 200)
