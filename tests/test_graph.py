"""Graph-layer checks: incidence/cycle/path matrices are exact integer objects,
triple enumeration matches the degree formulas, and index-graph component
counts are structural invariants."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import sarod.graph
from sarod import (
    Bipartition,
    Framework,
    Graph,
    augment_anchor_clique,
    enumerate_triples,
    fundamental_cycle_basis,
    incidence_matrix,
    path_matrix,
    triple_index_components,
)
from sarod.construction import generate
from sarod.graph import GraphError, tree_sums, vertex_graph
from sarod.snl import SolverConfig, build_network, localize_network, solution_residuals

from conftest import random_connected_graph, random_framework, relabelled_graph


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
    assert fundamental_cycle_basis(tree).toarray().shape == (0, 3)


def test_cycle_basis_triangle():
    tri = Graph(3, ((1, 2), (1, 3), (2, 3)))
    cb = fundamental_cycle_basis(tri).toarray()
    assert cb.shape == (1, 3)
    assert set(np.abs(cb[0])) == {1}


def test_cycle_basis_orthogonal_to_incidence():
    g = Graph(4, ((1, 2), (1, 3), (2, 3), (3, 4), (1, 4)))
    cb = fundamental_cycle_basis(g).toarray()
    assert cb.shape[0] == g.m - g.n + 1 == 2
    assert np.all(cb @ incidence_matrix(g) == 0)


def test_cycle_basis_exact_on_random_graphs(rng):
    for _ in range(25):
        g = random_connected_graph(int(rng.integers(4, 10)), rng)
        C = fundamental_cycle_basis(g).toarray()
        assert C.shape[0] == g.m - g.n + 1
        assert C.dtype.kind == "i"
        assert np.all(C @ incidence_matrix(g) == 0)


def test_cycle_basis_requires_connected():
    g = Graph(4, ((1, 2), (3, 4)))
    with pytest.raises(GraphError, match="not connected"):
        fundamental_cycle_basis(g)


def test_path_matrix_chain():
    g = Graph(3, ((1, 2), (2, 3)))
    P = path_matrix(g, 1)
    assert P[0].tolist() == [0, 0]
    assert P[2].tolist() == [1, 1]


def test_path_matrix_base_row_zero(rng):
    g = random_connected_graph(6, rng)
    for base in (1, 3, 6):
        P = path_matrix(g, base)
        assert np.all(P[base - 1] == 0)


def test_path_matrix_telescopes_positions(rng):
    g = random_connected_graph(7, rng)
    p = rng.normal(size=(7, 2))
    vecs = np.array([p[j - 1] - p[i - 1] for (i, j) in g.edges])
    for base in (1, 4):
        P = path_matrix(g, base)
        x = p[base - 1] + P @ vecs
        assert np.allclose(x, p, atol=1e-12)


def reversed_ids(g):
    """The graph with vertex v renamed n + 1 - v: its spanning tree is a second tree of g.

    Edge k stays edge k, with its canonical orientation flipped.
    """
    return relabelled_graph(g, g.n - 1 - np.arange(g.n))


def test_path_matrix_tree_differences_lie_in_cycle_space(rng):
    for _ in range(10):
        g = random_connected_graph(7, rng)
        C = fundamental_cycle_basis(g).toarray()
        P1 = path_matrix(g, 2)
        # The second tree's path matrix, back in g's vertex ids and edge orientations.
        P2 = -path_matrix(reversed_ids(g), g.n - 1)[::-1]
        p = rng.normal(size=(7, 2))
        vecs = np.array([p[j - 1] - p[i - 1] for (i, j) in g.edges])
        assert np.allclose(p[1] + P2 @ vecs, p, atol=1e-12)
        stacked = np.vstack([C, P1 - P2])
        assert np.linalg.matrix_rank(stacked) == np.linalg.matrix_rank(C)


def test_shared_spanning_tree():
    # The cycle basis and the path matrix read the same tree: chord (u, v)'s
    # cycle is u -> v, then the tree path v -> u, so its row is P[u] - P[v]
    # plus the chord, for the path matrix P from any base.
    g = Graph(4, ((1, 2), (1, 3), (2, 3), (3, 4), (1, 4)))
    C, P = fundamental_cycle_basis(g).toarray(), path_matrix(g, 3)
    chords = [e for e in range(g.m) if e not in g.spanning_tree.parent_edge]
    for row, e in zip(C, chords):
        u, v = g.edges[e]
        assert np.array_equal(row, P[u - 1] - P[v - 1] + np.eye(g.m, dtype=int)[e])


def test_bfs_tree_reverse_differs_on_cycles():
    g = Graph(4, ((1, 2), (1, 3), (2, 4), (3, 4)))
    assert set(g.spanning_tree.parent_edge) != set(reversed_ids(g).spanning_tree.parent_edge)


def _loop_tree_reference(g):
    """Queue-based BFS from vertex 1 and root-path rows, one vertex at a time."""
    adj = g.neighbors()
    eidx = g.edge_index()
    parent, parent_edge = [0] * (g.n + 1), [-1] * (g.n + 1)
    order, seen = [1], {1}
    for u in order:
        for w in adj[u]:
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
    return graphs + [reversed_ids(g) for g in graphs]


def test_spanning_tree_matches_loop_reference(rng):
    for g in _reference_graphs(rng):
        parent, parent_edge, rows, C = _loop_tree_reference(g)
        assert (g.spanning_tree.parent, g.spanning_tree.parent_edge) == (parent, parent_edge)
        R = g.spanning_tree.root_paths.toarray()
        assert R.dtype == rows.dtype and np.array_equal(R, rows[1:])
        cb = fundamental_cycle_basis(g).toarray()
        assert cb.dtype == C.dtype and np.array_equal(cb, C)
        # Row by row with ascending edges, the order the closure sums in.
        coo = fundamental_cycle_basis(g).tocoo()
        assert np.array_equal(np.stack([coo.row, coo.col]), np.nonzero(C))
        for base in (1, 2, g.n):
            pm = path_matrix(g, base)
            assert pm.dtype == rows.dtype and np.array_equal(pm, rows[1:] - rows[base])


def test_tree_sums_depth_counts_root_path_edges(rng):
    # The depth from the doubling loop is the edge count of each vertex's root path.
    for g in _reference_graphs(rng):
        rows = _loop_tree_reference(g)[2]
        depth = tree_sums(vertex_graph(g), [0], np.zeros((g.m, 0)))[3]
        assert np.array_equal(depth, np.count_nonzero(rows[1:], axis=1))


def test_spanning_tree_cached_read_only():
    g = Graph(4, ((1, 2), (1, 3), (2, 3), (3, 4)))
    tree = g.spanning_tree
    assert g.spanning_tree is tree
    for array in (tree.root_paths.data, tree.root_paths.indices, tree.root_paths.indptr):
        with pytest.raises(ValueError):
            array[0] = 5
    assert Graph(4, g.edges).spanning_tree is not tree  # one cache per instance


def _doubling_root_paths(g):
    """Root paths by sparse pointer doubling over the BFS tree (R + up @ R, up @ up): the reference for the level gather."""
    parent, entry, _, _ = tree_sums(vertex_graph(g), [0], np.zeros((g.m, 0)))
    child = np.flatnonzero(parent >= 0)
    R = csr_matrix((np.sign(entry[child]), (child, np.abs(entry[child]) - 1)), shape=(g.n, g.m))
    up = csr_matrix((np.ones(len(child), dtype=int), (child, parent[child])), shape=(g.n, g.n))
    while up.nnz:
        R, up = R + up @ R, up @ up
    R.sort_indices()
    return R


@pytest.mark.parametrize("recipe", ["quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal"])
def test_root_paths_match_pointer_doubling(recipe):
    # Gathered one tree level at a time, R has the doubling construction's
    # CSR arrays exactly, dtypes included.
    for n in (70, 2000):
        g = generate(recipe, n, 0).framework.graph
        for graph in (g, augment_anchor_clique(g, [1, 2, 3])):
            R, ref = graph.spanning_tree.root_paths, _doubling_root_paths(graph)
            for part in ("data", "indices", "indptr"):
                got, want = getattr(R, part), getattr(ref, part)
                assert got.dtype == want.dtype and np.array_equal(got, want), (recipe, n, part)


def test_triple_pairing_built_once_per_graph_and_mode():
    # The graph-only part of the enumeration is built once per graph and
    # mode and shared by a framework and its swap, whose SA and RoD sets
    # trade places; a new graph instance builds its own, equal one.
    fw = generate("mix-D2A1", 30, 0).framework
    g = fw.graph
    for mode in ("full", "reduced"):
        sa, rod = enumerate_triples(g, fw.bipartition, mode)
        pairing = sarod.graph._pairing(g, mode)
        sa_s, rod_s = enumerate_triples(g, fw.swapped().bipartition, mode)
        assert sarod.graph._pairing(g, mode) is pairing
        assert (sa_s.triples, rod_s.triples) == (rod.triples, sa.triples)
        assert np.array_equal(sa_s.e1, rod.e1) and np.array_equal(rod_s.e2, sa.e2)
        with pytest.raises(ValueError):
            pairing[0][0, 0] = 0
        fresh = enumerate_triples(Graph(g.n, g.edges), fw.bipartition, mode)
        assert [s.triples for s in fresh] == [sa.triples, rod.triples]
    assert sarod.graph._pairing(g, "full") is not sarod.graph._pairing(g, "reduced")


def test_localization_builds_the_vertex_tree_once(monkeypatch):
    builds = []
    original = sarod.graph._spanning_tree

    def counted(g):
        builds.append(g)
        return original(g)

    monkeypatch.setattr(sarod.graph, "_spanning_tree", counted)
    net = build_network(generate("mix-D2A1", 16, 2).framework, [1, 2])
    result = localize_network(net, config=SolverConfig(starts=5))
    solution_residuals(net, result.solution)
    assert result.solution.info["zero_clusters"] >= 1
    assert builds == [net.graph]


def test_each_propagation_side_builds_one_index_graph(monkeypatch):
    # Components and the potential walk share one index graph per side.
    calls = []
    original = sarod.graph.signed_graph

    def counted(*args):
        calls.append(args)
        return original(*args)

    net = build_network(generate("mix-D2A1", 16, 2).framework, [1, 2])
    monkeypatch.setattr(sarod.graph, "signed_graph", counted)
    net.bearing_param
    assert len(calls) == 1
    net.distance_param
    assert len(calls) == 2


def test_enumerate_triples_star():
    g = Graph(7, ((2, 4), (4, 5), (4, 7)))
    bip = Bipartition.from_a_set(7, [4])
    sa, rod = enumerate_triples(g, bip, "full")
    assert sa.triples == ((4, 2, 5), (4, 2, 7), (4, 5, 7))
    sa_red, _ = enumerate_triples(g, bip, "reduced")
    assert sa_red.triples == ((4, 2, 5), (4, 2, 7))


def _triples_loop_reference(g, bip, mode):
    """SA and RoD triples from a per-vertex loop over each ascending adjacency list."""
    adj = g.neighbors()
    sa, rod = [], []
    for u in range(1, g.n + 1):
        nbrs = adj[u]
        if len(nbrs) < 2:
            continue
        target = sa if bip.attr(u) == "A" else rod
        if mode == "full":
            for a in range(len(nbrs)):
                for b in range(a + 1, len(nbrs)):
                    target.append((u, nbrs[a], nbrs[b]))
        else:
            for k in nbrs[1:]:
                target.append((u, nbrs[0], k))
    return sa, rod


def test_enumerate_triples_edge_pairs_match_dict_lookup(rng):
    # The vectorized enumeration gives the loop's triples in the loop's
    # order and the per-triple dict lookup's (e1, e2) arrays bit for bit,
    # including graphs whose edges are not in sorted order (anchor cliques
    # append edges, and a shuffled edge tuple).
    frameworks = [generate(recipe, n, seed).framework
                  for recipe in ("quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal") for n in (12, 70) for seed in range(2)]
    for n in (5, 9, 14):
        fw = random_framework(n, rng)
        shuffled = Graph(n, tuple(fw.graph.edges[k] for k in rng.permutation(fw.graph.m)))
        frameworks.append(Framework(shuffled, fw.bipartition, fw.points))
    for fw in frameworks:
        for g in (fw.graph, augment_anchor_clique(fw.graph, (1, 2, fw.n))):
            eidx = g.edge_index()
            for mode in ("full", "reduced"):
                sets = enumerate_triples(g, fw.bipartition, mode)
                for t, ref_triples in zip(sets, _triples_loop_reference(g, fw.bipartition, mode)):
                    assert t.triples == tuple(ref_triples)
                    ref_index = np.array(ref_triples, dtype=int).reshape(-1, 3) - 1
                    assert t.vertex_index.dtype == ref_index.dtype and np.array_equal(t.vertex_index, ref_index)
                    ref = np.array([[eidx[(min(u, x), max(u, x))] for x in (v, w)] for (u, v, w) in t.triples], dtype=int).reshape(-1, 2)
                    for got, want in ((t.e1, ref[:, 0]), (t.e2, ref[:, 1])):
                        assert got.dtype == want.dtype and np.array_equal(got, want)


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

    none = np.zeros(0, dtype=int)
    _, c = triple_index_components(TripleIndexSet(none.reshape(0, 3), none, none), g)
    assert c == g.m


def test_triple_index_set_needs_one_edge_pair_per_triple():
    from sarod.graph import TripleIndexSet

    with pytest.raises(GraphError, match="one \\(e1, e2\\) edge-index pair per triple"):
        TripleIndexSet(np.array([[0, 1, 2]]), np.zeros(0, dtype=int), np.zeros(0, dtype=int))


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
