import math
import time

import numpy as np
import pytest

from tracelab import (BudgetError, Graph, GraphError, HamiltonError,
                      certify_expander, check_expansion, check_joinedness,
                      complete_graph, counterexample_expander, cycle_graph,
                      hamiltonian_exact, hamiltonian_posa, path_graph,
                      petersen_graph, random_regular, simulate_walk,
                      tau_times, trace_graph, trace_prefix_graph,
                      verify_cycle)
from tracelab import _kernels as K
from tracelab import harness


def star_graph(n):
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def gnp_graph(n, seed):
    """Erdos-Renyi G(n, 1/2) built from the package stream."""
    edges = []
    r = K.stream_floats(seed, 0, n * (n - 1) // 2)
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if r[k] < 0.5:
                edges.append((u, v))
            k += 1
    return Graph.from_edges(n, edges)


def test_expansion_complete_graph():
    g = complete_graph(12)
    chk = check_expansion(g, 4.0)
    assert chk.passed and chk.exhaustive
    assert chk.set_size == 1  # floor(12 / 8)
    assert chk.witness is None


def test_expansion_star_fails_with_valid_witness():
    g = star_graph(16)
    chk = check_expansion(g, 2.0)
    assert not chk.passed
    assert chk.witness is not None
    x = set(chk.witness)
    nb = {int(w) for v in x for w in g.neighbors(v)} - x
    assert len(nb) < 2.0 * len(x)


def test_expansion_sampled_mode():
    g = random_regular(128, 8, 0)
    chk = check_expansion(g, 2.0, mode="sampled", samples=32, seed=1)
    assert chk.mode == "sampled"
    assert not chk.exhaustive
    assert chk.passed


def test_sampled_witnesses_pinned():
    """Sampled sweeps draw their sets from shuffles on stream (seed, 0); the
    pinned witnesses and counts hold the draws and the mask tests fixed."""
    chk = check_expansion(random_regular(50, 6, 50), 6.0, mode="sampled",
                          samples=16, seed=3)
    assert (chk.passed, chk.checked, chk.witness) == (False, 17, (15, 26))
    chk = check_joinedness(cycle_graph(100), 10.0, mode="sampled", samples=8, seed=4)
    assert (chk.passed, chk.checked) == (False, 3)
    assert chk.witness == ((34, 42, 47, 52, 98), (6, 24, 30, 44, 62))
    chk = check_joinedness(random_regular(60, 4, 1), 6.0, mode="sampled",
                           samples=8, seed=2)
    assert (chk.passed, chk.checked) == (False, 7)
    assert chk.witness == ((5, 17, 23, 32, 34), (30, 41, 45, 46, 50))


def test_expansion_budget():
    g = random_regular(128, 8, 0)
    with pytest.raises(BudgetError):
        check_expansion(g, 1.0, budget=100)


def test_joinedness_counterexample_passes():
    g = counterexample_expander(20, 3)
    chk = check_joinedness(g, 3.0)
    assert chk.passed and chk.exhaustive
    assert chk.set_size == 3


def test_joinedness_fails_on_split_graph():
    """Two cliques joined by one vertex: opposite-side sets see no edge."""
    edges = []
    for u in range(0, 5):
        for v in range(u + 1, 5):
            edges.append((u, v))
    for u in range(5, 10):
        for v in range(u + 1, 10):
            edges.append((u, v))
    edges.append((4, 5))
    g = Graph.from_edges(10, edges)
    chk = check_joinedness(g, 2.5)  # size floor(10/5) = 2
    assert not chk.passed
    a, b = chk.witness
    assert not set(a) & set(b)
    assert not any(g.has_edge(u, v) for u in a for v in b)


def test_sweep_arguments_checked_even_without_sets():
    """Mode and sample count are rejected up front, also when the target set
    size is 0 and no candidate would ever be drawn."""
    g = complete_graph(3)
    for check in (check_expansion, check_joinedness):
        with pytest.raises(GraphError, match="unknown mode"):
            check(g, 4.0, mode="bogus")
        with pytest.raises(GraphError, match="samples"):
            check(g, 4.0, mode="sampled", samples=0)
        assert check(g, 4.0, samples=0).passed  # exact mode ignores samples


def test_certify_counterexample():
    g = counterexample_expander(16, 2)
    cert = certify_expander(g, 2.0)
    assert cert.certified
    assert cert.expansion.exhaustive and cert.joinedness.exhaustive


def test_sampled_pass_is_not_certified():
    """A sampled sweep that finds no violation is evidence, not a proof."""
    cert = certify_expander(counterexample_expander(16, 2), 2.0, mode="sampled", samples=8)
    assert cert.expansion.passed and cert.joinedness.passed
    assert not cert.expansion.exhaustive and not cert.joinedness.exhaustive
    assert not cert.certified


def test_certificate_star_fails():
    cert = certify_expander(star_graph(16), 2.0)
    assert not cert.certified
    assert not cert.expansion.passed


def test_verify_cycle():
    g = cycle_graph(6)
    assert verify_cycle(g, [0, 1, 2, 3, 4, 5])
    assert verify_cycle(g, [3, 4, 5, 0, 1, 2])
    assert not verify_cycle(g, [0, 2, 4, 1, 3, 5])
    assert not verify_cycle(g, [0, 1, 2, 3, 4])
    assert not verify_cycle(g, [0, 1, 2, 3, 4, 4])
    assert not verify_cycle(complete_graph(2), [0, 1])


def test_exact_fixtures():
    assert hamiltonian_exact(cycle_graph(9)).found
    assert hamiltonian_exact(complete_graph(7)).found
    res = hamiltonian_exact(petersen_graph())
    assert res.status == "proven-absent"
    assert not hamiltonian_exact(path_graph(6)).found
    assert not hamiltonian_exact(star_graph(5)).found


def test_exact_cycle_is_verified():
    g = random_regular(14, 4, 2)
    res = hamiltonian_exact(g)
    if res.found:
        assert verify_cycle(g, res.cycle)
        assert res.cycle[0] == 0


def test_exact_dp_and_branch_bound_agree():
    for seed in range(8):
        g = gnp_graph(11, seed)
        dp = hamiltonian_exact(g, method="dp")
        bb = hamiltonian_exact(g, method="bb")
        assert dp.found == bb.found
        if dp.found:
            assert verify_cycle(g, dp.cycle) and verify_cycle(g, bb.cycle)


def test_exact_too_small():
    assert hamiltonian_exact(complete_graph(2)).status == "proven-absent"
    assert hamiltonian_exact(Graph.from_edges(1, [])).status == "proven-absent"


def test_posa_finds_on_dense_graphs():
    g = complete_graph(16)
    res = hamiltonian_posa(g, 0)
    assert res.found
    assert verify_cycle(g, res.cycle)
    assert res.work["restarts"] == 0


def test_posa_found_implies_exact_found():
    hits = 0
    for seed in range(30):
        g = gnp_graph(12, 100 + seed)
        posa = hamiltonian_posa(g, seed)
        if posa.found:
            hits += 1
            assert verify_cycle(g, posa.cycle)
            assert hamiltonian_exact(g).found
    assert hits > 0


def test_posa_reproducible():
    g = random_regular(40, 4, 9)
    a = hamiltonian_posa(g, 5)
    b = hamiltonian_posa(g, 5)
    assert a.status == b.status
    assert a.cycle == b.cycle
    assert a.work == b.work


def test_posa_budget_exhaustion():
    """Petersen has minimum degree 3 and no Hamilton cycle: the degree
    certificate passes, so the search runs and spends its whole budget."""
    res = hamiltonian_posa(petersen_graph(), 0, max_rotations=50, max_restarts=2)
    assert res.status == "budget-exhausted"
    assert res.cycle is None
    assert res.work["restarts"] == 2 and res.work["rotations"] > 0


@pytest.mark.parametrize("budget", [{"max_rotations": 0}, {"max_rotations": -3},
                                    {"max_restarts": -1}],
                         ids=["rotations-0", "rotations-negative", "restarts-negative"])
def test_posa_refuses_budgets_with_no_search(budget):
    """A search with no rotations per restart, or fewer than no restarts,
    cannot run; it is refused, not reported as budget-exhausted. No
    restarts at all stays legal."""
    with pytest.raises(GraphError):
        hamiltonian_posa(complete_graph(8), 1, **budget)
    res = hamiltonian_posa(complete_graph(8), 1, max_restarts=0)
    assert res.status == "budget-exhausted" and res.work == {"rotations": 0, "restarts": 0}


@pytest.mark.parametrize("budget", [0, -5])
def test_tau_refuses_a_checker_budget_below_one(budget):
    with pytest.raises(GraphError, match="checker_budget"):
        tau_times(random_regular(64, 8, 0), 0, 800, 5, checker_budget=budget)


def test_tau_refuses_a_checker_budget_on_the_exact_path():
    """At n <= 24 every probe runs the subset dp, which has no budget."""
    with pytest.raises(GraphError, match="checker_budget"):
        tau_times(random_regular(16, 4, 1), 0, 800, 2, checker_budget=1)


@pytest.mark.parametrize("method", ["auto", "dp"])
def test_exact_refuses_a_budget_for_the_dp(method):
    with pytest.raises(GraphError, match="budget"):
        hamiltonian_exact(petersen_graph(), method=method, budget=1)
    # the certificate does not answer first
    with pytest.raises(GraphError, match="budget"):
        hamiltonian_exact(path_graph(5), method=method, budget=1)


def test_exact_refuses_an_unknown_method_before_the_certificate():
    with pytest.raises(GraphError, match="unknown method"):
        hamiltonian_exact(path_graph(5), method="bogus")


@pytest.mark.parametrize("g", [
    Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5)]),
    Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
], ids=["degree-1", "isolated"])
def test_posa_degree_certificate(g):
    """A vertex of degree < 2 answers proven-absent before any search."""
    res = hamiltonian_posa(g, 0)
    assert res.status == "proven-absent" and res.cycle is None
    assert res.work == {"rotations": 0, "restarts": 0}


def test_disconnected_graph_certified_by_both_searches():
    """Two disjoint triangles: minimum degree 2, but disconnected, so both
    searches answer proven-absent and posa spends no search work."""
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    res = hamiltonian_posa(g, 1)
    assert res.status == "proven-absent" and res.cycle is None
    assert res.work == {"rotations": 0, "restarts": 0}
    assert hamiltonian_exact(g).status == "proven-absent"


CRITERION_7 = harness.ExperimentConfig.from_dict({
    "version": 1, "experiment": "trace_hamilton",
    "graph": {"family": "random_regular", "n": 200, "d": 16},
    "trials": 50, "seed": 2024, "walk": {"multiplier": 1.5}})


def test_criterion_7_trial_48_certified_without_search():
    """Criterion 7's trial 48 (seed 2024): the walk covers and its trace has
    a degree-1 vertex, so posa answers at once and the harness row records
    no search work."""
    gseed, wseed, start = harness._derived_seeds(CRITERION_7.seed, 48, 200)
    graph = CRITERION_7.graph_spec(seed_override=gseed).build()
    tg = trace_graph(simulate_walk(graph, start, CRITERION_7.resolve_length(200), wseed))
    assert int(tg.degrees.min()) == 1
    t0 = time.perf_counter()
    res = hamiltonian_posa(tg, wseed, stream=1)
    assert time.perf_counter() - t0 < 0.1
    assert res.status == "proven-absent"
    row = harness._row_range(CRITERION_7, None, None, 48, 49)[0]
    cols = harness.COLUMNS["trace_hamilton"]
    got = {c: row[cols.index(c)] for c in ("covered", "found", "rotations", "restarts")}
    assert got == {"covered": 1, "found": 0, "rotations": 0, "restarts": 0}


def test_tau_invariants():
    g = random_regular(16, 4, 1)
    res = tau_times(g, 0, 800, 2)
    assert not res.censored and res.exact
    assert res.tau_hc >= res.tau1 + 1
    # the reported step is tight: prefix hamiltonian there, not one edge earlier
    tr = simulate_walk(g, 0, 800, 2, stream=0)
    assert hamiltonian_exact(trace_prefix_graph(tr, res.tau_hc)).found
    steps = tr.edge_step[tr.edge_step < res.tau_hc]
    if steps.size >= 16:
        prev = int(steps.max())
        assert not hamiltonian_exact(trace_prefix_graph(tr, prev)).found


def test_tau1_matches_cover():
    g = random_regular(16, 4, 1)
    tr = simulate_walk(g, 0, 800, 2, stream=0)
    res = tau_times(g, 0, 800, 2)
    assert res.tau1 == max(int(tr.first_visit_step.max()), 1)


def test_tau_censored_on_short_walk():
    g = random_regular(64, 4, 3)
    res = tau_times(g, 0, 10, 0)
    assert res.censored
    assert res.tau_hc is None


def test_tau_heuristic_flagged_beyond_exact_cap():
    g = random_regular(30, 6, 4)
    length = int(6 * 30 * math.log(30))
    res = tau_times(g, 0, length, 1)
    assert not res.exact
    if res.tau_hc is not None:
        assert res.tau_hc >= res.tau1 + 1
        tr = simulate_walk(g, 0, length, 1, stream=0)
        pg = trace_prefix_graph(tr, res.tau_hc)
        assert hamiltonian_exact(pg, method="bb").found


def test_hamilton_error_hierarchy():
    assert issubclass(HamiltonError, RuntimeError)
    with pytest.raises(GraphError):
        tau_times(random_regular(16, 4, 1), 99, 10, 0)


def test_verify_cycle_rejects_every_kind_of_non_cycle():
    g = cycle_graph(6)
    ok = [2, 3, 4, 5, 0, 1]
    assert verify_cycle(g, np.array(ok))
    assert verify_cycle(g, np.array(ok, dtype=np.int32))
    assert verify_cycle(g, (v for v in ok))
    assert verify_cycle(g, tuple(ok))
    assert not verify_cycle(g, [2, 3, 4, 5, 0, 6])
    assert not verify_cycle(g, [2, 3, 4, 5, 0, -1])
    assert not verify_cycle(g, [2, 3, 4, 5, 0, 0])
    assert not verify_cycle(g, ok + [2])
    assert not verify_cycle(g, ok[:-1])
    assert not verify_cycle(g, [])
    # a Hamilton path whose closing edge is missing
    assert not verify_cycle(path_graph(6), [0, 1, 2, 3, 4, 5])
    assert not verify_cycle(Graph.from_edges(4, []), [0, 1, 2, 3])


@pytest.mark.parametrize("budget", [-5, 0])
def test_branch_and_bound_refuses_budgets_below_one(budget):
    """A search allowed no expansion cannot answer; it is refused, as posa
    refuses max_rotations below one."""
    with pytest.raises(GraphError):
        hamiltonian_exact(random_regular(30, 4, 1), method="bb", budget=budget)


@pytest.mark.parametrize("budget", [1, 2, 50])
def test_branch_and_bound_keeps_its_budget(budget):
    """An exhausted search reports exactly its budget: it stops before the
    expansion that would pass it, even inside one node's children."""
    res = hamiltonian_exact(random_regular(40, 3, 2), method="bb", budget=budget)
    assert res.status == "budget-exhausted"
    assert res.work == {"expansions": budget}
