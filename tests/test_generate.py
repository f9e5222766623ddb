"""Generator contracts: regularity, determinism, fixture structure, and the
spec-dict roundtrip."""

import numpy as np
import pytest

from tracelab import (GenSpec, GenerationError, GraphError, complete_graph,
                      connectivity_profile, counterexample_expander,
                      cycle_graph, path_graph, petersen_graph, random_regular)


def test_random_regular_is_simple_and_regular():
    for n, d, seed in [(10, 3, 0), (20, 4, 1), (50, 7, 2), (64, 16, 3)]:
        g = random_regular(n, d, seed)
        assert g.n == n
        assert np.all(g.degrees == d)
        for v in range(n):
            nb = g.neighbors(v)
            assert v not in nb
            assert len(set(nb.tolist())) == nb.size


def test_random_regular_deterministic():
    a = random_regular(30, 5, 42)
    b = random_regular(30, 5, 42)
    c = random_regular(30, 5, 43)
    assert list(a.edges()) == list(b.edges())
    assert list(a.edges()) != list(c.edges())


def test_random_regular_forced_outcome():
    """n = 4, d = 3 has exactly one simple realization, K_4, so every seed
    must land there no matter how many repair rounds it takes."""
    for seed in range(10):
        g = random_regular(4, 3, seed)
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_random_regular_rejects_bad_parameters():
    with pytest.raises(GraphError):
        GenSpec(family="random_regular", n=5, d=3, seed=0)  # odd nd
    with pytest.raises(GraphError):
        GenSpec(family="random_regular", n=4, d=4, seed=0)  # d >= n
    with pytest.raises(GraphError):
        GenSpec(family="random_regular", n=4, d=0, seed=0)
    with pytest.raises(GraphError):
        GenSpec(family="random_regular", n=4, d=3)  # seed required


def test_counterexample_structure():
    n, c = 30, 3
    g = counterexample_expander(n, c)
    assert g.n == n
    assert g.neighbors(0).tolist() == [2, 3, 4]
    assert g.neighbors(1).tolist() == [5, 6, 7]
    assert not g.has_edge(0, 1)
    # interior is a clique
    for u in range(2, n):
        for v in range(u + 1, n):
            assert g.has_edge(u, v)
    connected, _ = connectivity_profile(g)
    assert connected


def test_counterexample_parameter_window():
    with pytest.raises(GraphError):
        GenSpec(family="counterexample", n=10, c=0)
    with pytest.raises(GraphError):
        GenSpec(family="counterexample", n=10, c=5)  # 2c > n - 2
    # c bounded by 1.1 n / ln n
    with pytest.raises(GraphError):
        GenSpec(family="counterexample", n=100, c=30)


def test_fixture_families():
    k = complete_graph(6)
    assert k.edge_count == 15
    cyc = cycle_graph(7)
    assert np.all(cyc.degrees == 2)
    assert cyc.has_edge(6, 0)
    pth = path_graph(5)
    assert pth.edge_count == 4
    assert pth.degrees.tolist() == [1, 2, 2, 2, 1]


def test_petersen_shape():
    g = petersen_graph()
    assert g.n == 10
    assert np.all(g.degrees == 3)
    assert g.edge_count == 15
    # girth 5: no triangles, no 4-cycles
    a = g.adjacency_matrix()
    a3 = np.linalg.matrix_power(a, 3)
    assert np.trace(a3) == 0
    a4 = np.linalg.matrix_power(a, 4)
    # spectrum {3, 1^5, (-2)^4}: trace A^4 = 81 + 5 + 64 = 150
    assert np.all(np.diag(a4) == 15)


def test_spec_roundtrip_and_unknown_keys():
    spec = GenSpec(family="random_regular", n=12, d=3, seed=9)
    again = GenSpec.from_dict({"family": "random_regular", "n": 12, "d": 3,
                               "seed": 9})
    assert again == spec
    assert list(again.build().edges()) == list(spec.build().edges())
    with pytest.raises(GraphError):
        GenSpec.from_dict({"family": "complete", "n": 5, "bogus": 1})
    with pytest.raises(GraphError):
        GenSpec.from_dict({"family": "nope", "n": 5})


def test_spec_build_matches_direct_call():
    assert list(GenSpec(family="petersen", n=10).build().edges()) == \
        list(petersen_graph().edges())
    assert list(GenSpec(family="cycle", n=9).build().edges()) == \
        list(cycle_graph(9).edges())


def test_generation_budget_error_type():
    assert issubclass(GenerationError, RuntimeError)


def test_first_keys_is_unique_with_first_index():
    """The pairing round's first-occurrence helper against
    ``np.unique(..., return_index=True)``: keys with many repeats, keys
    without any, one key, and none."""
    from tracelab.generate import _first_keys
    rng = np.random.default_rng(3)
    cases = [rng.integers(0, 50, 2000), rng.integers(0, 5, 300),
             rng.permutation(1000), np.array([7]), np.zeros(40, dtype=np.int64),
             np.empty(0, dtype=np.int64)]
    for keys in cases:
        keys = keys.astype(np.int64)
        got_keys, got_first = _first_keys(keys)
        want_keys, want_first = np.unique(keys, return_index=True)
        assert got_keys.tolist() == want_keys.tolist()
        assert got_first.tolist() == want_first.tolist()
