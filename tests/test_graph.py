"""Graph-layer checks: incidence/cycle/path matrices are exact integer objects,
triple enumeration matches the degree formulas, and index-graph component
counts are structural invariants."""

import numpy as np
import pytest

from sarod import (
    Bipartition,
    Graph,
    augment_anchor_clique,
    edge_code,
    enumerate_triples,
    fundamental_cycle_basis,
    incidence_matrix,
    path_matrix,
    triple_index_components,
)
from sarod.construction import generate
from sarod.graph import GraphError, bfs_spanning_tree
from sarod.snl import SolverConfig, build_network, localize_network, solution_residuals

from conftest import random_connected_graph


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(3, ((1, 1),))
    with pytest.raises(GraphError):
        Graph(3, ((2, 1),))
    with pytest.raises(GraphError):
        Graph(3, ((1, 2), (1, 2)))
    with pytest.raises(GraphError):
        Graph(2, ((1, 3),))


def test_incidence_single_edge():
    H = incidence_matrix(Graph(2, ((1, 2),)))
    assert H.tolist() == [[-1, 1]]


def test_incidence_row_sums_and_rank():
    tri = Graph(3, ((1, 2), (1, 3), (2, 3)))
    H = incidence_matrix(tri)
    assert np.all(H.sum(axis=1) == 0)
    assert np.linalg.matrix_rank(H) == 2
    k4 = Graph(4, tuple((i, j) for i in range(1, 5) for j in range(i + 1, 5)))
    assert np.linalg.matrix_rank(incidence_matrix(k4)) == 3


def test_cycle_basis_tree_is_empty():
    tree = Graph(4, ((1, 2), (2, 3), (2, 4)))
    assert fundamental_cycle_basis(tree).matrix.shape == (0, 3)


def test_cycle_basis_triangle():
    tri = Graph(3, ((1, 2), (1, 3), (2, 3)))
    cb = fundamental_cycle_basis(tri)
    assert cb.matrix.shape == (1, 3)
    assert set(np.abs(cb.matrix[0])) == {1}


def test_cycle_basis_orthogonal_to_incidence():
    g = Graph(4, ((1, 2), (1, 3), (2, 3), (3, 4), (1, 4)))
    cb = fundamental_cycle_basis(g)
    assert cb.matrix.shape[0] == g.m - g.n + 1 == 2
    assert np.all(cb.matrix @ incidence_matrix(g) == 0)


def test_cycle_basis_exact_on_random_graphs(rng):
    for _ in range(25):
        g = random_connected_graph(int(rng.integers(4, 10)), rng)
        C = fundamental_cycle_basis(g).matrix
        assert C.shape[0] == g.m - g.n + 1
        assert C.dtype.kind == "i"
        assert np.all(C @ incidence_matrix(g) == 0)


def test_cycle_basis_requires_connected():
    g = Graph(4, ((1, 2), (3, 4)))
    with pytest.raises(GraphError, match="not connected"):
        fundamental_cycle_basis(g)


def test_path_matrix_chain():
    g = Graph(3, ((1, 2), (2, 3)))
    P = path_matrix(g, 1).matrix
    assert P[0].tolist() == [0, 0]
    assert P[2].tolist() == [1, 1]


def test_path_matrix_base_row_zero(rng):
    g = random_connected_graph(6, rng)
    for base in (1, 3, 6):
        P = path_matrix(g, base).matrix
        assert np.all(P[base - 1] == 0)


def test_path_matrix_telescopes_positions(rng):
    g = random_connected_graph(7, rng)
    p = rng.normal(size=(7, 2))
    vecs = np.array([p[j - 1] - p[i - 1] for (i, j) in g.edges])
    for base in (1, 4):
        P = path_matrix(g, base).matrix
        x = p[base - 1] + P @ vecs
        assert np.allclose(x, p, atol=1e-12)


def test_path_matrix_tree_differences_lie_in_cycle_space(rng):
    for _ in range(10):
        g = random_connected_graph(7, rng)
        C = fundamental_cycle_basis(g).matrix
        P1 = path_matrix(g, 2).matrix
        P2 = path_matrix(g, 2, reverse_neighbors=True).matrix
        stacked = np.vstack([C, P1 - P2])
        assert np.linalg.matrix_rank(stacked) == np.linalg.matrix_rank(C)


def test_shared_spanning_tree():
    g = Graph(4, ((1, 2), (1, 3), (2, 3), (3, 4), (1, 4)))
    assert fundamental_cycle_basis(g).tree_parent == path_matrix(g, 3).tree_parent


def test_bfs_tree_reverse_differs_on_cycles():
    g = Graph(4, ((1, 2), (1, 3), (2, 4), (3, 4)))
    t1 = bfs_spanning_tree(g)[0]
    t2 = bfs_spanning_tree(g, reverse_neighbors=True)[0]
    assert t1 != t2


def _loop_tree_reference(g, reverse_neighbors):
    """Queue-based BFS from vertex 1 and root-path rows, one vertex at a time."""
    adj = g.neighbors()
    eidx = g.edge_index()
    parent, parent_edge = [0] * (g.n + 1), [-1] * (g.n + 1)
    order, seen = [1], {1}
    for u in order:
        for w in adj[u][::-1] if reverse_neighbors else adj[u]:
            if w not in seen:
                seen.add(w)
                parent[w], parent_edge[w] = u, eidx[(min(u, w), max(u, w))]
                order.append(w)
    rows = np.zeros((g.n + 1, g.m), dtype=int)
    for v in order[1:]:
        e = parent_edge[v]
        rows[v] = rows[parent[v]]
        rows[v, e] += 1 if g.edges[e] == (parent[v], v) else -1
    chords = [e for e in range(g.m) if e not in set(parent_edge)]
    C = np.array([rows[g.edges[e][0]] - rows[g.edges[e][1]] + np.eye(g.m, dtype=int)[e] for e in chords], dtype=int)
    return tuple(parent), tuple(parent_edge), rows, C.reshape(len(chords), g.m)


def _reference_graphs(rng):
    graphs = [random_connected_graph(int(rng.integers(4, 11)), rng, p) for p in (0.3, 0.5, 0.8) for _ in range(10)]
    for recipe in ("quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal"):
        for n in (12, 70):
            g = generate(recipe, n, 0).framework.graph
            graphs += [g, augment_anchor_clique(g, [1, 2, 3])]
    return graphs


def test_spanning_tree_matches_loop_reference(rng):
    for g in _reference_graphs(rng):
        for reverse in (False, True):
            parent, parent_edge, rows, C = _loop_tree_reference(g, reverse)
            assert bfs_spanning_tree(g, reverse_neighbors=reverse) == (parent, parent_edge)
            cb = fundamental_cycle_basis(g, reverse_neighbors=reverse)
            assert cb.tree_parent == parent
            assert cb.matrix.dtype == C.dtype and np.array_equal(cb.matrix, C)
            for base in (1, 2, g.n):
                pm = path_matrix(g, base, reverse_neighbors=reverse)
                assert pm.tree_parent == parent
                assert pm.matrix.dtype == rows.dtype and np.array_equal(pm.matrix, rows[1:] - rows[base])


def test_spanning_tree_cached_read_only():
    g = Graph(4, ((1, 2), (1, 3), (2, 3), (3, 4)))
    tree = g.spanning_tree()
    assert g.spanning_tree() is tree and g.spanning_tree(True) is not tree
    with pytest.raises(ValueError):
        tree.root_rows[1, 0] = 5
    with pytest.raises(ValueError):
        g.spanning_tree(True).root_rows[0, 0] = 1


def test_localization_builds_the_vertex_tree_once(monkeypatch):
    import sarod.graph

    builds = []
    original = sarod.graph._spanning_tree

    def counted(g, reverse):
        builds.append(reverse)
        return original(g, reverse)

    monkeypatch.setattr(sarod.graph, "_spanning_tree", counted)
    net = build_network(generate("mix-D2A1", 16, 2).framework, [1, 2])
    result = localize_network(net, config=SolverConfig(starts=5))
    solution_residuals(net, result.solution)
    assert result.solution.info["zero_clusters"] >= 1
    assert builds == [False]


def test_enumerate_triples_star():
    g = Graph(7, ((2, 4), (4, 5), (4, 7)))
    bip = Bipartition.from_a_set(7, [4])
    sa, rod = enumerate_triples(g, bip, "full")
    assert sa.triples == ((4, 2, 5), (4, 2, 7), (4, 5, 7))
    sa_red, _ = enumerate_triples(g, bip, "reduced")
    assert sa_red.triples == ((4, 2, 5), (4, 2, 7))


def test_triple_counts_match_degree_formula(rng):
    for _ in range(10):
        g = random_connected_graph(8, rng)
        bip = Bipartition(tuple("A" for _ in range(8)))
        sa, rod = enumerate_triples(g, bip, "full")
        expect = sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in range(1, 9))
        assert len(sa) == expect and len(rod) == 0
        sa_red, _ = enumerate_triples(g, bip, "reduced")
        assert len(sa_red) == sum(max(g.degree(v) - 1, 0) for v in range(1, 9))


def test_degree_one_vertex_contributes_no_triples():
    g = Graph(3, ((1, 2), (2, 3)))
    sa, rod = enumerate_triples(g, Bipartition(("A", "D", "A")), "full")
    assert len(sa) == 0 and len(rod) == 1


def test_edge_code_examples():
    # Codes used by the index-graph figure: 2=a12, 30=a56 on six vertices.
    assert edge_code(1, 2, 6) == 2
    assert edge_code(5, 6, 6) == 30
    assert edge_code(6, 5, 6) == 30


def test_index_components_reference_graph():
    # Six-vertex graph whose SA index graph has five components while the
    # RoD index graph is connected (V_A = {2}).
    g = Graph.from_edges(6, [(1, 2), (1, 4), (2, 3), (2, 5), (2, 6), (3, 4), (4, 5), (5, 6)])
    bip = Bipartition.from_a_set(6, [2])
    sa, rod = enumerate_triples(g, bip, "full")
    labels_sa, c_sa = triple_index_components(sa, g)
    labels_rod, c_rod = triple_index_components(rod, g)
    assert c_sa == 5
    assert c_rod == 1
    # Components are numbered by their smallest edge index: the three edges
    # at the A apex 2 join edge (1, 2); the others stand alone.
    assert labels_sa.tolist() == [0, 1, 0, 0, 0, 2, 3, 4]
    assert labels_rod.tolist() == [0] * 8


def test_index_components_empty_triples():
    g = Graph(4, ((1, 2), (2, 3), (3, 4)))
    from sarod.graph import TripleIndexSet

    _, c = triple_index_components(TripleIndexSet("sa", ()), g)
    assert c == g.m


def test_triple_index_set_needs_one_edge_pair_per_triple():
    from sarod.graph import TripleIndexSet

    with pytest.raises(GraphError):
        TripleIndexSet("sa", ((1, 2, 3),))


def test_index_components_star_single():
    g = Graph(4, ((1, 2), (1, 3), (1, 4)))
    sa, _ = enumerate_triples(g, Bipartition.from_a_set(4, [1]), "full")
    _, c = triple_index_components(sa, g)
    assert c == 1


def test_component_count_invariant_under_relabeling(rng):
    for _ in range(8):
        n = 7
        g = random_connected_graph(n, rng)
        bip = Bipartition.from_a_set(n, [1, 3])
        sa, _ = enumerate_triples(g, bip, "full")
        _, c0 = triple_index_components(sa, g)
        perm = rng.permutation(n) + 1
        relabel = {v: int(perm[v - 1]) for v in range(1, n + 1)}
        g2 = Graph.from_edges(n, [(relabel[i], relabel[j]) for (i, j) in g.edges])
        bip2 = Bipartition.from_a_set(n, [relabel[1], relabel[3]])
        sa2, _ = enumerate_triples(g2, bip2, "full")
        _, c2 = triple_index_components(sa2, g2)
        assert c0 == c2


def test_augment_anchor_clique():
    g = Graph(4, ((1, 2), (2, 3), (3, 4)))
    same = augment_anchor_clique(g, [1, 2])
    assert same.edges == g.edges
    wider = augment_anchor_clique(g, [1, 2, 3])
    assert wider.edges[: g.m] == g.edges
    assert set(wider.edges) - set(g.edges) == {(1, 3)}
    full = augment_anchor_clique(Graph(3, ()), [1, 2, 3])
    assert full.m == 3
    with pytest.raises(GraphError, match="n_a >= 2"):
        augment_anchor_clique(g, [2])
