"""Lockstep lanes against the per-trial kernels: every lane of
``cover_trials`` / ``probe_trials`` must reproduce the trial it stands for,
bit for bit, whatever the graph, budget or chunking."""

import numpy as np
import pytest

from tracelab import (GraphError, _kernels as K, complete_graph,
                      counterexample_expander, cover_trial, cycle_graph,
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
