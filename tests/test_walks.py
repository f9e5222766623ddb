"""Walk invariants: visit accounting, cover/blanket ordering, stream
reproducibility, and the per-trial primitives the harness builds on."""

import dataclasses
import json
import math

import numpy as np
import pytest

from tracelab import _kernels as K
from tracelab import (GraphError, blanket_time, blanket_trial, complete_graph,
                      counterexample_expander, cover_stats,
                      cover_time_empirical, cover_trial, cycle_graph,
                      default_budget, path_graph, random_regular,
                      return_probe, return_probe_trial,
                      segmented_visit_experiment, simulate_walk, start_pool,
                      strong_cover_estimate, trace_graph, trace_prefix_graph,
                      visits_trial)
from tracelab.graphs import Graph


def test_visit_counts_include_start():
    g = cycle_graph(6)
    tr = simulate_walk(g, 2, 100, 0)
    assert tr.visit_counts.sum() == 101
    assert tr.first_visit_step[2] == 0


def test_walk_reproducible_and_stream_sensitive():
    g = random_regular(32, 4, 0)
    a = simulate_walk(g, 0, 500, 7)
    b = simulate_walk(g, 0, 500, 7)
    c = simulate_walk(g, 0, 500, 7, stream=1)
    assert np.array_equal(a.visit_counts, b.visit_counts)
    assert np.array_equal(a.edge_step, b.edge_step)
    assert not np.array_equal(a.visit_counts, c.visit_counts)


def test_cover_step_is_max_first_visit():
    g = random_regular(24, 3, 5)
    tr = simulate_walk(g, 0, 5000, 3)
    assert tr.covered
    assert tr.cover_step == tr.first_visit_step.max()


def test_k2_cover_in_one_step():
    g = complete_graph(2)
    tr = simulate_walk(g, 0, 1, 0)
    assert tr.covered and tr.cover_step == 1
    assert tr.edge_count == 1


def test_single_vertex_walk():
    g = Graph.from_edges(1, [])
    tr = simulate_walk(g, 0, 0, 0)
    assert tr.covered and tr.visit_counts.tolist() == [1]
    with pytest.raises(GraphError):
        simulate_walk(g, 0, 5, 0)


def test_trace_graph_and_prefix():
    g = random_regular(20, 4, 1)
    tr = simulate_walk(g, 0, 300, 2)
    tg = trace_graph(tr)
    assert tg.edge_count == tr.edge_count
    for u, v in tg.edges():
        assert g.has_edge(u, v)
    mid = int(tr.edge_step[tr.edge_count // 2])
    pg = trace_prefix_graph(tr, mid)
    assert pg.edge_count == int((tr.edge_step <= mid).sum())
    full = trace_prefix_graph(tr, tr.length)
    assert full.edge_count == tg.edge_count


def test_cover_trial_matches_simulated_walk():
    """cover_trial with a fixed start consumes exactly the same stream as
    simulate_walk, so the cover step must agree."""
    g = random_regular(16, 4, 3)
    _, cover = cover_trial(g, 11, 0, budget=10000, start=5)
    tr = simulate_walk(g, 5, 10000, 11, stream=0)
    assert cover == tr.cover_step


def test_cover_time_empirical_default_mode():
    g = complete_graph(12)
    cs = cover_time_empirical(g, 200, 3)
    assert cs.censored == 0
    # coupon collector: 11 H_11 = 33.2
    want = 11 * sum(1.0 / k for k in range(1, 12))
    assert abs(cs.mean - want) < 4 * cs.stderr + 2.0
    again = cover_time_empirical(g, 200, 3)
    assert np.array_equal(cs.cover_steps, again.cover_steps)


def test_cover_time_empirical_worst_start():
    g = path_graph(8)
    cs = cover_time_empirical(g, 300, 1, worst_start=True)
    assert cs.worst_start_mode
    assert cs.pool == tuple(range(8))
    assert cs.cover_steps.size == 8 * 300
    # a path is covered fastest from its ends; the worst start is interior
    assert cs.worst_start not in (0, 1, 6, 7)
    assert cs.worst_mean == max(cs.per_start_mean.values())
    assert cs.worst_mean >= cs.mean


def test_cover_time_empirical_refuses_a_start_in_worst_start_mode():
    """Worst-start mode walks from every pool vertex, so a fixed start would
    be ignored; a null start is the default."""
    g = complete_graph(12)
    with pytest.raises(GraphError, match="worst-start"):
        cover_time_empirical(g, 4, 1, worst_start=True, start=3)
    cs = cover_time_empirical(g, 4, 1, worst_start=True, start=None)
    assert cs.pool == tuple(range(12))


def test_cover_censoring():
    g = cycle_graph(64)
    cs = cover_time_empirical(g, 10, 0, budget=10)
    assert cs.censored == 10
    assert math.isnan(cs.mean)


def test_per_trial_walks_reject_negative_budget():
    g = complete_graph(6)
    with pytest.raises(GraphError, match="budget must be >= 0"):
        cover_trial(g, 1, 0, -5)
    with pytest.raises(GraphError, match="budget must be >= 0"):
        blanket_trial(g, 1, 0, 0.1, budget=-5)
    with pytest.raises(GraphError, match="budget must be >= 0"):
        blanket_time(g, 0, 0.1, 1, budget=-5)
    assert cover_trial(g, 1, 0, 0, start=2) == (2, -1)


def test_strong_cover_estimate():
    g = complete_graph(10)
    # 5 n log n steps cover K_10 essentially always
    est = strong_cover_estimate(g, 115, 100, 4)
    assert est.fraction >= 0.95
    assert est.ci_low <= est.fraction <= est.ci_high
    short = strong_cover_estimate(g, 3, 100, 4)
    assert short.fraction <= 0.1


def test_blanket_after_cover():
    g = random_regular(24, 4, 2)
    for unit in range(5):
        _, cover, blanket = blanket_trial(g, 9, unit, 0.1)
        assert cover >= 0 and blanket >= cover
    res = blanket_time(g, 0, 0.1, 9)
    assert not res.censored
    assert res.blanket_step >= res.cover_step


def test_blanket_result_is_json_ready():
    g = random_regular(24, 4, 2)
    for budget in (None, 10):
        res = blanket_time(g, 0, 0.1, 9, budget=budget)
        assert res.censored is (budget == 10)
        assert type(res.censored) is bool
        json.dumps(dataclasses.asdict(res))


def test_blanket_condition_holds_at_reported_step():
    g = complete_graph(9)
    res = blanket_time(g, 0, 0.3, 5)
    t = res.blanket_step
    st = cover_stats(g, 0, t, 5, deltas=(0.3,))
    assert st.min_visits * g.n >= 0.3 * t
    assert st.blanket_steps[0.3] == t


def test_blanket_delta_monotone():
    g = random_regular(20, 4, 7)
    lo = blanket_time(g, 0, 0.05, 3).blanket_step
    hi = blanket_time(g, 0, 0.5, 3).blanket_step
    assert lo <= hi


def test_cover_stats_replays_one_path():
    g = random_regular(18, 4, 4)
    st = cover_stats(g, 0, 2000, 8, deltas=(0.1, 0.3))
    tr = simulate_walk(g, 0, 2000, 8)
    assert st.cover_step == tr.cover_step
    assert st.min_visits == tr.visit_counts.min()
    assert st.blanket_steps[0.1] <= st.blanket_steps[0.3]


def test_default_budget_formula():
    assert default_budget(1) == 500
    assert default_budget(100) == math.ceil(500 * 100 * math.log(100))


def test_start_pool():
    g = complete_graph(10)
    assert start_pool(g, 0) == tuple(range(10))
    big = random_regular(300, 4, 0)
    pool = start_pool(big, 5)
    assert len(pool) == 32
    assert len(set(pool)) == 32
    assert pool == start_pool(big, 5)
    assert pool != start_pool(big, 6)
    # the first shuffle of 0..n-1 on stream (5, AUX_STREAM)
    assert pool[:8] == (227, 299, 62, 297, 279, 243, 44, 59)


def test_return_probe():
    g = complete_graph(2)
    res = return_probe(g, 0, 1, 1, 50, 3)
    assert res.hits == 50 and res.estimate == 1.0
    g = complete_graph(10)
    res = return_probe(g, 0, 1, 5, 2000, 3)
    # P(hit within 5) = 1 - (8/9)^5 = 0.4448
    want = 1 - (8 / 9) ** 5
    assert abs(res.estimate - want) < 0.05
    assert res.ci_low < want < res.ci_high


def test_return_probe_trial_aggregates_to_batch():
    g = complete_graph(6)
    hits = sum(return_probe_trial(g, 13, i, 0, 3, 4) for i in range(100))
    batch = return_probe(g, 0, 3, 4, 100, 13)
    assert hits == batch.hits


def test_visits_trial():
    g = complete_graph(8)
    start, covered, mn, rho = visits_trial(g, 2, 0, 500)
    assert 0 <= start < 8
    assert covered and mn >= 1
    assert rho == pytest.approx(mn / math.log(8))
    _, covered2, _, rho2 = visits_trial(g, 2, 1, 1)
    assert not covered2 and rho2 == 0.0


def test_segmented_visit_experiment():
    g = random_regular(64, 16, 1)
    rep = segmented_visit_experiment(g, 4000, 4.0, 25, 6)
    assert rep.window == 32
    assert rep.burn_in == math.ceil(10 * math.log(64))
    assert rep.segments_per_trial == (4000 + 1) // (rep.window + rep.burn_in)
    assert rep.total_segments == rep.segments_per_trial * 25
    assert rep.total_hits == rep.segment_hits.sum()
    assert 0.0 <= rep.hit_frequency <= 1.0
    assert rep.segment_hits.max() <= rep.segments_per_trial
    # reproducible
    again = segmented_visit_experiment(g, 4000, 4.0, 25, 6)
    assert np.array_equal(rep.segment_hits, again.segment_hits)


@pytest.mark.parametrize("g", [random_regular(60, 4, 1), counterexample_expander(30, 3),
                               cycle_graph(12)], ids=["regular", "counterexample", "cycle"])
def test_simulate_walk_matches_path_replay(g):
    """Visits, first visits and the low-first trace edges in first-traversal
    order, recounted from the path kernel's vertex sequence."""
    for length in (0, 7, 20 * g.n):
        path = np.empty(length + 1, dtype=np.int64)
        K.walk_trace(g.indptr, g.indices, np.int64(2), np.int64(length),
                     K.stream_state(9, 1), path)
        visits = [0] * g.n
        first = [-1] * g.n
        edges = {}  # insertion order is first-traversal order
        prev = None
        for step, v in enumerate(path.tolist()):
            visits[v] += 1
            if first[v] < 0:
                first[v] = step
            if prev is not None:
                assert g.has_edge(prev, v)
                edges.setdefault((min(prev, v), max(prev, v)), step)
            prev = v
        tr = simulate_walk(g, 2, length, 9, stream=1)
        assert tr.visit_counts.tolist() == visits
        assert tr.first_visit_step.tolist() == first
        assert list(zip(tr.edge_u.tolist(), tr.edge_v.tolist(), tr.edge_step.tolist())) \
            == [(u, v, step) for (u, v), step in edges.items()]
        assert [a.dtype for a in (tr.visit_counts, tr.first_visit_step, tr.edge_u,
                                  tr.edge_v, tr.edge_step)] == ["int64"] * 2 + ["int32"] * 2 + ["int64"]


def test_segmented_visits_match_plain_loop():
    """Every trial walked again one draw per step: segment scores with a
    trailing partial segment that is not scored, and rho over all visits.
    Some segments see the target only at their last burn-in position, and
    those must not score."""
    g = cycle_graph(12)
    # segments of 25 burn-in + 6 window positions; the trailing 30 reach
    # into a window that must not score
    length, c, trials, seed = 122, 4.0, 12, 1
    rep = segmented_visit_experiment(g, length, c, trials, seed)
    seg_len = rep.window + rep.burn_in
    nseg = (length + 1) // seg_len
    assert rep.segments_per_trial == nseg and (length + 1) % seg_len > rep.burn_in
    trailing = late = 0
    for trial in range(trials):
        state = K.stream_state(seed, trial)
        u, v = K.draw_ints(state, g.n, 2).tolist()
        cur = u
        visits = [0] * g.n
        hit = [False] * (nseg + 1)
        burn_end = [False] * (nseg + 1)
        for p in range(length + 1):
            if p:
                nbrs = g.neighbors(cur)
                cur = int(nbrs[K.draw_ints(state, nbrs.size, 1)[0]])
            visits[cur] += 1
            seg, pos = divmod(p, seg_len)
            if pos >= rep.burn_in and cur == v:
                hit[seg] = True
            if pos == rep.burn_in - 1 and cur == v:
                burn_end[seg] = True
        trailing += hit[nseg]
        late += sum(b and not h for b, h in zip(burn_end[:nseg], hit))
        assert (rep.starts[trial], rep.targets[trial]) == (u, v)
        assert rep.segment_hits[trial] == sum(hit[:nseg])
        mn = min(visits)
        assert rep.rho_values[trial] == (mn / math.log(g.n) if mn else 0.0)
    assert 0 < rep.total_hits < rep.total_segments
    assert trailing > 0 and late > 0


def test_segmented_rejects_short_walk():
    g = random_regular(64, 16, 1)
    with pytest.raises(GraphError):
        segmented_visit_experiment(g, 10, 4.0, 5, 0)


def test_walk_rejects_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        cover_time_empirical(g, 5, 0)
