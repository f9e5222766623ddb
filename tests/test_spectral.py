"""Eigenvalue, resistance, and mixing oracles.

Everything here is checked against numpy.linalg dense routines or closed
forms; the package's own solvers never grade their own homework.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from tracelab import (GraphError, complete_graph, cycle_graph,
                      effective_resistance, eigen_extremes,
                      empirical_mixing_time, foster_sum, mixing_time_bound,
                      path_graph, petersen_graph, random_regular,
                      resistance_matrix, tv_distance_profile)
from tracelab.graphs import Graph


def eig_oracle(g):
    vals = np.linalg.eigvalsh(g.adjacency_matrix())
    return vals[-2], vals[0]


def test_eigen_extremes_fixtures():
    for g, lam2, lam_min in [
        (complete_graph(8), -1.0, -1.0),
        (cycle_graph(6), 1.0, -2.0),
        (cycle_graph(5), 2 * math.cos(2 * math.pi / 5), 2 * math.cos(4 * math.pi / 5)),
        (petersen_graph(), 1.0, -2.0),
    ]:
        s = eigen_extremes(g)
        assert abs(s.lambda2 - lam2) < 1e-8
        assert abs(s.lambda_min - lam_min) < 1e-8
        assert abs(s.lambda_abs - max(abs(lam2), abs(lam_min))) < 1e-8


def test_eigen_extremes_vs_dense_oracle():
    for seed in range(4):
        g = random_regular(40, 6, seed)
        want2, want_min = eig_oracle(g)
        s = eigen_extremes(g)
        assert abs(s.lambda2 - want2) < 1e-7
        assert abs(s.lambda_min - want_min) < 1e-7
        assert s.ratio == pytest.approx(6.0 / s.lambda_abs)


def test_iterative_agrees_with_dense():
    g = random_regular(60, 8, 7)
    dense = eigen_extremes(g, method="dense")
    it = eigen_extremes(g, method="iterative", tol=1e-10)
    assert abs(dense.lambda2 - it.lambda2) < 1e-6
    assert abs(dense.lambda_min - it.lambda_min) < 1e-6
    assert dense.method == "dense"
    assert it.method == "iterative"
    assert dense.residual < 1e-9
    assert dense.iterations == 0


def test_eigen_disconnected_shows_no_gap():
    """lambda2 == d is the spectral fingerprint of a disconnected graph;
    the summary reports it rather than raising."""
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    s = eigen_extremes(g)
    assert s.lambda2 == pytest.approx(1.0, abs=1e-9)
    assert s.ratio == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("method", ["dense", "iterative"])
@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan])
def test_eigen_extremes_rejects_nonpositive_tol(method, tol):
    """The dense path never reads tol, and a NaN tol would switch off the
    Lanczos stopping test, so a tol that is not > 0 is refused up front."""
    with pytest.raises(GraphError, match="tol must be > 0"):
        eigen_extremes(petersen_graph(), tol=tol, method=method)


def resistance_oracle(g, u, v):
    lap = g.laplacian_matrix()
    pinv = np.linalg.pinv(lap)
    return pinv[u, u] + pinv[v, v] - 2 * pinv[u, v]


def test_effective_resistance_closed_forms():
    # complete graph: R = 2/n between any pair
    g = complete_graph(5)
    assert effective_resistance(g, 0, 3) == pytest.approx(0.4, abs=1e-10)
    # cycle: two arcs in parallel, R = k (n - k) / n
    g = cycle_graph(9)
    for k in range(1, 9):
        assert effective_resistance(g, 0, k) == pytest.approx(k * (9 - k) / 9, abs=1e-9)
    # path: series resistors
    g = path_graph(7)
    assert effective_resistance(g, 1, 5) == pytest.approx(4.0, abs=1e-9)


def test_resistance_matrix_vs_pinv():
    for g in [petersen_graph(), random_regular(24, 4, 5), path_graph(9)]:
        r = resistance_matrix(g)
        assert np.allclose(np.diag(r), 0.0)
        assert np.allclose(r, r.T, atol=1e-9)
        for u in range(0, g.n, 3):
            for v in range(1, g.n, 4):
                assert r[u, v] == pytest.approx(resistance_oracle(g, u, v), abs=1e-8)


def test_foster_sum():
    for g in [complete_graph(7), petersen_graph(), random_regular(20, 3, 1),
              path_graph(8)]:
        r = resistance_matrix(g)
        assert foster_sum(g, r) == pytest.approx(g.n - 1, abs=1e-8)


def tv_oracle(g, start, t):
    p = g.adjacency_matrix() / g.regular_degree
    dist = np.zeros(g.n)
    dist[start] = 1.0
    for _ in range(t):
        dist = dist @ p
    return 0.5 * np.abs(dist - 1.0 / g.n).sum()


def test_tv_profile_matches_matrix_powers():
    g = random_regular(16, 4, 2)
    prof = tv_distance_profile(g, 3, 12)
    for t in range(13):
        assert prof[t] == pytest.approx(tv_oracle(g, 3, t), abs=1e-12)


def test_tv_profile_non_increasing():
    g = random_regular(32, 6, 0)
    prof = tv_distance_profile(g, 0, 40)
    assert np.all(np.diff(prof) <= 1e-12)


def test_empirical_mixing_time():
    g = random_regular(32, 8, 4)
    s = eigen_extremes(g)
    for xi in (0.25, 0.05):
        t = empirical_mixing_time(g, xi)
        bound = mixing_time_bound(g.n, 8, s.lambda_abs, xi)
        assert t <= math.ceil(bound)
        # minimality: worst-start TV still above xi one step earlier
        if t > 0:
            worst = max(tv_oracle(g, v, t - 1) for v in range(g.n))
            assert worst > xi


def test_mixing_rejects_bipartite():
    with pytest.raises(GraphError):
        empirical_mixing_time(cycle_graph(8), 0.1)


@pytest.mark.parametrize("seed", [0, 2261692086460027444])
def test_iterative_large_graphs_match_eigvalsh(seed):
    """Power iteration needed 9,770 and 128,347 steps on these two graphs;
    Lanczos needs a few hundred matvecs at most."""
    g = random_regular(1000, 16, seed)
    want2, want_min = eig_oracle(g)
    s = eigen_extremes(g, method="iterative")
    assert abs(s.lambda2 - want2) < 1e-9 * 16
    assert abs(s.lambda_min - want_min) < 1e-9 * 16
    assert s.iterations < 300
    assert s.residual <= 1e-8 * 2 * 16


@pytest.mark.parametrize("g", [
    complete_graph(8), cycle_graph(5), petersen_graph(),
    Graph.from_edges(4, [(0, 1), (2, 3)]), complete_graph(2),
    random_regular(8, 4, 1),
], ids=["K8", "C5", "petersen", "2K2", "K2", "rr8-4"])
def test_iterative_breakdown_cases_match_eigvalsh(g):
    """Graphs with few distinct eigenvalues exhaust the Krylov space early."""
    want2, want_min = eig_oracle(g)
    s = eigen_extremes(g, method="iterative")
    assert abs(s.lambda2 - want2) < 1e-9
    assert abs(s.lambda_min - want_min) < 1e-9
    assert s.iterations <= g.n + 1


def test_resistance_dense_cap():
    g = cycle_graph(2001)
    with pytest.raises(GraphError):
        resistance_matrix(g)
    with pytest.raises(GraphError):
        effective_resistance(g, 0, 1)


BLAS_PROBE = """
from tracelab import eigen_extremes, random_regular, resistance_matrix
s = eigen_extremes(random_regular(512, 16, 5), method="dense")
r = resistance_matrix(random_regular(200, 16, 3))
print(s.lambda2.hex(), s.lambda_min.hex(), s.residual.hex(), float(r.sum()).hex())
"""


def run_blas_probe(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dense_floats_ignore_blas_thread_count():
    """The dense solves run on one BLAS thread, so their bits cannot depend
    on how many the process was given."""
    assert run_blas_probe("1") == run_blas_probe("2")


def test_one_blas_thread_pins_and_restores():
    from tracelab._accel import _openblas, blas_info, one_blas_thread
    if not _openblas():
        pytest.skip("no OpenBLAS thread-count symbols in this process")
    get_threads = _openblas()[2]
    before = get_threads()
    with one_blas_thread():
        assert get_threads() == 1
        with one_blas_thread():
            assert get_threads() == 1
        assert get_threads() == 1
    assert get_threads() == before
    assert blas_info()["one_thread"] and "openblas" in blas_info()["library"]
