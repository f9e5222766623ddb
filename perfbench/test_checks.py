"""Tests of the benchmark's reference computations and output checks.

    python3 -m pytest perfbench -q

Each check must pass tracelab's real output and reject a slightly corrupted
copy of it; the reference walker must replay tracelab's streams exactly.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracelab as tl  # noqa: E402
from tracelab import _kernels  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402


@pytest.mark.parametrize("seed,index", [(0, 0), (7, 3), (2**64 - 5, ref.AUX_STREAM + 9)])
def test_stream_matches_kernel_streams(seed, index):
    s = ref.Stream(seed, index)
    assert [s.next64() for _ in range(16)] == [int(x) for x in
                                              _kernels.stream_uints(seed, index, 16)]
    s = ref.Stream(seed, index)
    assert [s.randint(37) for _ in range(64)] == [int(x) for x in
                                                 _kernels.stream_ints(seed, index, 64, 37)]


def test_pairing_matches_random_regular():
    for seed in range(4):
        g = tl.random_regular(40, 6, seed)
        assert ref.sorted_adjacency(40, ref.random_regular_edges(40, 6, seed)) == \
            ref.csr_adjacency(g.indptr, g.indices)


def test_cover_walk_matches_cover_trial():
    g = tl.random_regular(30, 4, 3)
    adj = ref.csr_adjacency(g.indptr, g.indices)
    for unit in range(6):
        assert tl.cover_trial(g, 11, unit, start=2) == \
            (2, ref.cover_walk(adj, 2, ref.Stream(11, unit)))


def test_start_pool_matches():
    g = tl.random_regular(260, 4, 1)
    assert tuple(ref.start_pool(260, 5)) == tl.start_pool(g, 5)


def _cover_rows(seed=5, trials=2):
    cfg = tl.ExperimentConfig.from_dict({
        "version": 1, "experiment": "cover", "seed": seed, "trials": trials,
        "graph": {"family": "random_regular", "n": 24, "d": 4, "seed": 9},
        "params": {"worst_start": True}})
    rows = [tuple(r) for r in tl.run_experiment(cfg, workers=1).rows]
    adj = ref.sorted_adjacency(24, ref.random_regular_edges(24, 4, 9))
    return rows, adj, ref.start_pool(24, seed)


def test_cover_rows_reject_a_step_off_by_one():
    rows, adj, pool = _cover_rows()
    assert checks.cover_rows(rows, adj, 5, 2, pool) == []
    unit, start, step, censored = rows[7]
    rows[7] = (unit, start, step + 1, censored)
    assert [u for u, _ in checks.cover_rows(rows, adj, 5, 2, pool)] == [7]


def _found_trace():
    g = tl.random_regular(24, 6, 2)
    trace = tl.simulate_walk(g, 0, 3000, 4)
    edges = {(int(a), int(b)) for a, b in zip(trace.edge_u, trace.edge_v)}
    adj = ref.csr_adjacency(g.indptr, g.indices)
    seen, replayed = ref.trace_walk(adj, 0, 3000, ref.Stream(4, 0))
    assert all(seen) and replayed == edges
    res = tl.hamiltonian_posa(tl.trace_graph(trace), 4)
    assert res.found
    return res.cycle, edges


def test_cycle_check_rejects_a_non_trace_edge():
    cycle, edges = _found_trace()
    assert checks.hamilton_cycle(cycle, 24, edges) == []
    a, b = cycle[3], cycle[4]
    assert checks.hamilton_cycle(cycle, 24, edges - {(min(a, b), max(a, b))})
    assert checks.hamilton_cycle(cycle[:-1] + (cycle[0],), 24, edges)


def test_trace_witness():
    path = {(0, 1), (1, 2), (2, 3)}
    assert checks.trace_witness(4, True, path) == (0, 1)
    assert checks.trace_witness(5, False, path) == (4, 0)
    assert checks.trace_witness(4, True, path | {(0, 3)}) is None


def test_interval_check_rejects_a_moved_endpoint():
    hits, trials = 530, 2500
    lo, hi = tl.exact_binomial_ci(hits, trials, 0.99)
    assert checks.probe_interval(hits, trials, 0.99, (lo, hi), 0.21) == []
    assert checks.probe_interval(hits, trials, 0.99, (lo + 1e-6, hi), 0.21)
    assert checks.probe_interval(hits, trials, 0.99, (lo, hi - 1e-6), 0.21)
    assert checks.probe_interval(hits, trials, 0.99, (lo, hi), 0.30)


def test_interval_fallback_matches_scipy(monkeypatch):
    pytest.importorskip("scipy")
    want = checks.clopper_pearson(530, 2500, 0.99)
    monkeypatch.setitem(sys.modules, "scipy.stats", None)
    got = checks.clopper_pearson(530, 2500, 0.99)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_hit_probability_on_complete_graph():
    g = tl.complete_graph(6)
    p = checks.hit_probability(6, 5, g.indices, 0, 1, 7)
    assert abs(p - (1 - (4 / 5) ** 7)) < 1e-15


def test_eigen_check_rejects_a_moved_lambda2():
    g = tl.random_regular(40, 6, 2)
    s = tl.eigen_extremes(g)
    a = checks.adjacency(40, g.indptr, g.indices)
    assert checks.eigen_pair(s.lambda2, s.lambda_min, a, 6) == []
    assert checks.eigen_pair(s.lambda2 + 1e-6, s.lambda_min, a, 6)


def test_resistance_and_bound_checks_reject_corruption():
    g = tl.random_regular(40, 6, 2)
    s = tl.eigen_extremes(g)
    a = checks.adjacency(40, g.indptr, g.indices)
    r = tl.resistance_matrix(g)
    assert checks.resistances(r, a, 6, s.lambda_abs) == []
    r[3, 5] += 1e-6
    assert checks.resistances(r, a, 6, s.lambda_abs)
    bound = tl.cover_time_spectral_bound(40, 6, s.lambda_abs).cover_upper
    assert checks.cover_bound(bound, 40, 6, s.lambda_abs) == []
    assert checks.cover_bound(bound * (1 + 1e-6), 40, 6, s.lambda_abs)


def test_graph_shape_rejects_a_repeated_edge():
    g = tl.random_regular(20, 4, 1)
    assert checks.graph_shape(20, 4, g.indptr, g.indices) == []
    bad = g.indices.copy()
    bad[1] = bad[0]
    assert checks.graph_shape(20, 4, g.indptr, bad)
