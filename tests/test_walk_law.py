"""The cover-time law of the lockstep lanes against the exact law.

The pair (visited set S, position v) of a simple random walk is a Markov
chain, and the walk has covered by step t exactly when S is full at t.
Propagating the chain's distribution forward gives P(C <= t) for every t
(Aldous-Fill, *Reversible Markov Chains*, ch. 6). Its mean is checked
against closed forms, and 20,000 lane walks are held to it: the
Kolmogorov-Smirnov distance must lie inside the DKW band at ALPHA. The
seed and alpha were fixed before the first run.
"""

import math

import numpy as np
import pytest

from tracelab import complete_graph, cycle_graph, path_graph, petersen_graph
from tracelab.walks import cover_trials

SEED = 11
ALPHA = 0.01
WALKS = 20_000


def exact_cover_cdf(g, start):
    """``F[t] = P(C <= t)`` for the walk from ``start``, up to the first t
    with 1 - F[t] < 1e-12."""
    n = g.n
    masks = np.arange(1 << n, dtype=np.int64)
    deg = np.diff(g.indptr)
    src = np.repeat(np.arange(n), deg)  # one entry per directed edge v -> u
    dst = g.indices.astype(np.int64)
    # cell (S, v) sits at S * n + v; each directed edge moves every S
    source = (masks[:, None] * n + src).ravel()
    target = ((masks[:, None] | (1 << dst)) * n + dst).ravel()
    weight = np.tile(1.0 / deg[src], 1 << n)
    p = np.zeros((1 << n) * n)
    p[(1 << start) * n + start] = 1.0
    full = ((1 << n) - 1) * n
    cdf = [p[full:].sum()]
    while 1.0 - cdf[-1] >= 1e-12:
        p = np.bincount(target, weights=p[source] * weight, minlength=p.size)
        cdf.append(p[full:].sum())
    return np.array(cdf)


def cdf_mean(cdf):
    return float((1.0 - cdf).sum())


@pytest.mark.parametrize("graph,start,mean", [
    (complete_graph(8), 0, 7 * sum(1 / k for k in range(1, 8))),
    (cycle_graph(9), 0, 9 * 8 / 2),
    (path_graph(7), 0, 6 ** 2),
    (petersen_graph(), 0, 30.4059),
], ids=["K8", "C9", "P7-end", "petersen"])
def test_exact_law_has_the_known_mean(graph, start, mean):
    assert cdf_mean(exact_cover_cdf(graph, start)) == pytest.approx(mean, abs=1e-4)


@pytest.mark.parametrize("graph", [
    complete_graph(8), cycle_graph(9), path_graph(7), petersen_graph(),
], ids=["K8", "C9", "P7-end", "petersen"])
def test_lane_walks_follow_the_exact_law(graph):
    cdf = exact_cover_cdf(graph, 0)
    _, steps = cover_trials(graph, SEED, 0, WALKS, starts=[0] * WALKS)
    assert steps.min() >= graph.n - 1
    counts = np.bincount(steps, minlength=cdf.size)
    # both CDFs step only at integers, and beyond the oracle's horizon the
    # exact one is 1 to within 1e-12, so its last step bounds the rest
    empirical = np.cumsum(counts)[:cdf.size] / WALKS
    ks = np.abs(empirical - cdf).max()
    band = math.sqrt(math.log(2 / ALPHA) / (2 * WALKS))
    assert ks < band, (ks, band)
