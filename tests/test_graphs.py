import numpy as np
import pytest

from tracelab import (Graph, GraphError, connectivity_profile, format_edge_text,
                      parse_edge_text)
from tracelab.generate import (complete_graph, counterexample_expander, cycle_graph, path_graph,
                               petersen_graph, random_regular)
from tracelab.graphs import mask_of, neighbor_masks, union_of


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4
    assert g.edge_count == 4
    assert g.degrees.tolist() == [2, 2, 2, 2]
    assert g.neighbors(0).tolist() == [1, 3]


def test_from_edges_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph.from_edges(0, [])


def test_from_edges_input_forms_agree():
    """A list, a generator and an (m, 2) array of the same edges give the
    same CSR; so do an empty list and an empty array."""
    edges = [(3, 1), (2, 0), (1, 0), (4, 2), (0, 4)]
    forms = [edges, (e for e in edges), np.array(edges, dtype=np.int64),
             np.array(edges, dtype=np.int32)]
    graphs = [Graph.from_edges(5, form) for form in forms]
    for g in graphs[1:]:
        assert g.indptr.tolist() == graphs[0].indptr.tolist()
        assert g.indices.tolist() == graphs[0].indices.tolist()
        assert g.indices.dtype == graphs[0].indices.dtype
        assert g.regular_degree == graphs[0].regular_degree
    for empty in ([], iter(()), np.empty((0, 2), dtype=np.int64)):
        g = Graph.from_edges(3, empty)
        assert g.indptr.tolist() == [0, 0, 0, 0] and g.indices.size == 0
    for bad, message in ((np.array([[0, 3]]), "out of range"),
                         (np.array([[1, 1]]), "self-loop"),
                         (np.array([[0, 1], [1, 0]]), "duplicate"),
                         ([(0, 1, 2)], "pairs")):
        with pytest.raises(GraphError, match=message):
            Graph.from_edges(3, bad)


def test_neighbors_sorted_and_has_edge():
    g = Graph.from_edges(5, [(2, 0), (4, 2), (2, 1), (2, 3)])
    assert g.neighbors(2).tolist() == [0, 1, 3, 4]
    assert g.has_edge(2, 4) and g.has_edge(4, 2)
    assert not g.has_edge(0, 1)
    assert not g.has_edge(3, 3)


def test_edges_canonical_order():
    g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 0)])
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 3)]
    lo, hi = g.edge_array()
    assert lo.tolist() == [0, 0, 1]
    assert hi.tolist() == [1, 2, 3]


def test_adjacency_and_laplacian():
    g = cycle_graph(5)
    a = g.adjacency_matrix()
    lap = g.laplacian_matrix()
    assert np.array_equal(a, a.T)
    assert a.sum() == 2 * g.edge_count
    assert np.array_equal(lap, np.diag(g.degrees) - a)
    assert np.allclose(lap.sum(axis=1), 0.0)


def test_isolated_vertex_allowed():
    g = Graph.from_edges(3, [(0, 1)])
    assert g.degree(2) == 0
    assert g.neighbors(2).size == 0


def test_connectivity_profile():
    assert connectivity_profile(path_graph(6)) == (True, True)
    assert connectivity_profile(cycle_graph(6)) == (True, True)
    assert connectivity_profile(cycle_graph(5)) == (True, False)
    assert connectivity_profile(complete_graph(4)) == (True, False)
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    connected, _ = connectivity_profile(g)
    assert not connected


def test_edge_text_roundtrip():
    g = petersen_graph()
    text = format_edge_text(g)
    h = parse_edge_text(text)
    assert h.n == g.n
    assert list(h.edges()) == list(g.edges())
    first = text.splitlines()[0].split()
    assert first == ["10", "15"]


def test_parse_edge_text_strict():
    with pytest.raises(GraphError):
        parse_edge_text("2 1\n0 1\n0 1\n")
    with pytest.raises(GraphError):
        parse_edge_text("2 2\n0 1\n")
    with pytest.raises(GraphError):
        parse_edge_text("x 1\n0 1\n")
    with pytest.raises(GraphError):
        parse_edge_text("")


def test_edge_file_roundtrip(tmp_path):
    from tracelab import read_edge_file, write_edge_file
    g = complete_graph(5)
    path = tmp_path / "k5.txt"
    write_edge_file(g, path)
    h = read_edge_file(path)
    assert list(h.edges()) == list(g.edges())


def test_set_edge_counts_against_brute_force():
    """The bitmask set layer's edge counts and external neighbourhood, as the
    expander sweeps and the mixing audit form them, against pair scans."""
    g = petersen_graph()
    nbr = neighbor_masks(g)
    rng = np.random.default_rng(0)
    for _ in range(25):
        verts = rng.permutation(10)
        a = verts[:3].tolist()
        b = verts[3:6].tolist()
        amask, bmask = mask_of(a), mask_of(b)
        want_between = sum(1 for u in a for v in b if g.has_edge(u, v))
        assert sum((nbr[u] & bmask).bit_count() for u in a) == want_between
        want_internal = sum(1 for i, u in enumerate(a)
                            for v in a[i + 1:] if g.has_edge(u, v))
        assert sum((nbr[u] & amask).bit_count() for u in a) == 2 * want_internal
        want_nb = set()
        for u in a:
            want_nb.update(int(w) for w in g.neighbors(u))
        want_nb -= set(a)
        assert union_of(nbr, a) & ~amask == mask_of(want_nb)


def stable_sort_csr(n, edges):
    """``Graph.from_edges``'s CSR as it was built with two stable argsorts
    and ``np.add.at``, kept here as the reference."""
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.argsort(lo * n + hi, kind="stable")
    lo, hi = lo[order], hi[order]
    heads = np.concatenate([lo, hi])
    tails = np.concatenate([hi, lo])
    order = np.argsort(heads * n + tails, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, heads[order] + 1, 1)
    return np.cumsum(indptr).tolist(), tails[order].astype(np.int32).tolist()


def test_from_edges_matches_the_stable_sort_build():
    """Shuffled and flipped edge lists of irregular graphs, some with
    isolated vertices, give the CSR the stable-sort build gives."""
    rng = np.random.default_rng(5)
    cases = [(1, np.empty((0, 2), dtype=np.int64)), (5, [(4, 0)])]
    for g in (path_graph(30), counterexample_expander(40, 4), random_regular(60, 6, 2)):
        lo, hi = g.edge_array()
        cases.append((g.n, np.column_stack([lo, hi])))
    for n, m in ((50, 40), (200, 300)):
        g = random_regular(n, 8, m)
        lo, hi = g.edge_array()
        keep = rng.permutation(len(lo))[:m]
        cases.append((n, np.column_stack([lo[keep], hi[keep]])))
    for n, edges in cases:
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        for _ in range(3):
            shuffled = edges[rng.permutation(len(edges))]
            flip = rng.random(len(edges)) < 0.5
            shuffled[flip] = shuffled[flip, ::-1]
            g = Graph.from_edges(n, shuffled)
            assert (g.indptr.tolist(), g.indices.tolist()) == stable_sort_csr(n, shuffled)
            assert g.indices.dtype == np.int32


def test_from_edges_rejects_a_repeat_among_many():
    edges = [(i, i + 1) for i in range(99)] + [(70, 69)]
    with pytest.raises(GraphError, match="duplicate"):
        Graph.from_edges(100, edges)
