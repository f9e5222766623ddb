import numpy as np
import pytest

from tracelab import (Graph, GraphError, VertexSet, connectivity_profile,
                      edges_between, format_edge_text, internal_edges,
                      neighborhood, parse_edge_text)
from tracelab.generate import complete_graph, cycle_graph, path_graph, petersen_graph


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


def test_vertex_set_validation():
    s = VertexSet.of(5, [3, 1])
    assert s.members == (1, 3)
    # set semantics: duplicates collapse
    assert VertexSet.of(5, [1, 1]).members == (1,)
    with pytest.raises(GraphError):
        VertexSet.of(5, [5])
    mask = s.as_mask()
    assert mask.tolist() == [False, True, False, True, False]


def test_set_edge_counts_against_brute_force():
    g = petersen_graph()
    rng = np.random.default_rng(0)
    for _ in range(25):
        verts = rng.permutation(10)
        a = VertexSet.of(10, verts[:3].tolist())
        b = VertexSet.of(10, verts[3:6].tolist())
        want_between = sum(1 for u in a.members for v in b.members if g.has_edge(u, v))
        assert edges_between(g, a, b) == want_between
        want_internal = sum(1 for i, u in enumerate(a.members)
                            for v in a.members[i + 1:] if g.has_edge(u, v))
        assert internal_edges(g, a) == want_internal
        nb = neighborhood(g, a)
        want_nb = set()
        for u in a.members:
            want_nb.update(int(w) for w in g.neighbors(u))
        want_nb -= set(a.members)
        assert set(nb.members) == want_nb


def test_edges_between_requires_disjoint():
    g = complete_graph(4)
    with pytest.raises(GraphError):
        edges_between(g, VertexSet.of(4, [0, 1]), VertexSet.of(4, [1, 2]))
