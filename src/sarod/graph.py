"""Graph structure, incidence/cycle/path matrices, and measurement-triple index sets.

Vertices are 1-based integers 1..n.  Edges are stored as (i, j) pairs with
i < j; the position of an edge in ``Graph.edges`` is its canonical edge
index, used consistently by every matrix in the package.  The canonical
orientation of an edge is tail = smaller id, head = larger id, so the
incidence matrix row of edge (i, j) has -1 at column i and +1 at column j.

All matrices produced here (incidence, cycle basis, path matrices) are
integer-valued, so identities like C @ H == 0 hold exactly.  Every
breadth-first forest is one walk, ``tree_sums``, over a ``signed_graph``
(the vertex graph or a triple index graph); its one pointer-doubling loop
gives each node's summed steps and depth.  Each ``Graph`` builds its one
vertex spanning tree at most once, and that tree keeps its root paths as
one sparse signed matrix R (``SpanningTree.root_paths``), gathered one
tree level at a time from those depths: the cycle basis and the path
matrices are read off R's rows, and nothing holds a dense (n, m) copy.
Each ``Graph`` also pairs its incident edges into measurement triples once
per mode, as 0-based arrays; a bipartition only slices them into the SA
and RoD ``TripleIndexSet``s, which are those three arrays and nothing else
(the 1-based tuples that key a ``MeasurementSet`` are derived on demand).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

__all__ = [
    "Graph",
    "Bipartition",
    "TripleIndexSet",
    "incidence_matrix",
    "SpanningTree",
    "fundamental_cycle_basis",
    "path_matrix",
    "enumerate_triples",
    "signed_graph",
    "index_graph",
    "vertex_graph",
    "tree_sums",
    "triple_index_components",
    "augment_anchor_clique",
]


class GraphError(ValueError):
    """Raised for structurally invalid graphs or graph operations."""


def _check_edge(i, j, n: int):
    """Raise the ``GraphError`` naming what is wrong with edge (i, j); return if it is valid."""
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (i, j)):
        raise GraphError(f"edge ({i!r},{j!r}): vertex ids must be integers")
    if not (1 <= i <= n and 1 <= j <= n):
        raise GraphError(f"edge ({i},{j}) references a vertex outside 1..{n}")
    if i == j:
        raise GraphError(f"self-loop at vertex {i}")
    if i > j:
        raise GraphError(f"edge ({i},{j}) must be stored with smaller id first")


@dataclass(frozen=True)
class Graph:
    """Undirected graph with a canonical edge order and orientation."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        # One chained test per edge; _check_edge names the fault.
        for (i, j) in self.edges:
            if not (type(i) is int and type(j) is int and 1 <= i < j <= self.n):
                _check_edge(i, j, self.n)
        if len(set(self.edges)) != len(self.edges):
            i, j = next(e for e, count in Counter(self.edges).items() if count > 1)
            raise GraphError(f"duplicate edge ({i},{j})")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        canon = tuple((min(i, j), max(i, j)) for i, j in edges)
        return Graph(n, canon)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: k for k, e in enumerate(self.edges)}

    def neighbors(self) -> list[list[int]]:
        """Adjacency lists (ascending), indexed by vertex id; entry 0 unused."""
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for (i, j) in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        for lst in adj:
            lst.sort()
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for (i, j) in self.edges if i == v or j == v)

    def is_connected(self) -> bool:
        return connected_components(vertex_graph(self), directed=False)[0] == 1

    @cached_property
    def spanning_tree(self) -> "SpanningTree":
        """The graph's one spanning tree, built at most once: cycle closure and recovery need no other."""
        return _spanning_tree(self)


@dataclass(frozen=True)
class Bipartition:
    """Per-vertex sensing attribute: 'A' (signed angles) or 'D' (distance ratios)."""

    attrs: tuple[str, ...]

    def __post_init__(self):
        # Two counts test the whole tuple (a set would refuse unhashable JSON values); only a failure finds the vertex.
        if self.attrs.count("A") + self.attrs.count("D") != len(self.attrs):
            v, a = next((v, a) for v, a in enumerate(self.attrs, start=1) if a not in ("A", "D"))
            raise GraphError(f"vertex {v}: attr must be 'A' or 'D', got {a!r}")

    @staticmethod
    def from_a_set(n: int, a_vertices: Iterable[int]) -> "Bipartition":
        a_set = set(a_vertices)
        return Bipartition(tuple("A" if v in a_set else "D" for v in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.attrs)

    def attr(self, v: int) -> str:
        return self.attrs[v - 1]

    def a_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.attrs[v - 1] == "A")

    def d_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.attrs[v - 1] == "D")

    def swapped(self) -> "Bipartition":
        return Bipartition(tuple("D" if a == "A" else "A" for a in self.attrs))

    def is_nontrivial(self) -> bool:
        return bool(self.a_vertices()) and bool(self.d_vertices())


@dataclass(frozen=True, eq=False)
class TripleIndexSet:
    """Measurement triples (apex, v, w) with v < w and (apex, v), (apex, w) edges, as three arrays.

    Compared by identity: array fields define no ``==``.
    """

    vertex_index: np.ndarray  # (T, 3) 0-based vertex indices (apex, v, w), one row per triple
    e1: np.ndarray  # (T,) canonical index of edge (apex, v)
    e2: np.ndarray  # (T,) canonical index of edge (apex, w)

    def __post_init__(self):
        if not len(self.e1) == len(self.e2) == len(self.vertex_index):
            raise GraphError("need one (e1, e2) edge-index pair per triple")
        t = self.vertex_index
        repeated = (t[:, 0] == t[:, 1]) | (t[:, 0] == t[:, 2]) | (t[:, 1] == t[:, 2])
        if repeated.any():
            raise GraphError(f"triple {tuple((t[repeated.argmax()] + 1).tolist())} must have three distinct vertices")

    @property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        """The triples as 1-based vertex-id tuples, the keys of a ``MeasurementSet``; derived on each read."""
        return tuple(map(tuple, (self.vertex_index + 1).tolist()))

    def __len__(self) -> int:
        return len(self.vertex_index)


@dataclass(frozen=True)
class SpanningTree:
    """Breadth-first spanning tree from vertex 1 with its signed root paths R, one sparse nonzero per path edge."""

    parent: tuple[int, ...]  # parent id per vertex (0 for the root), 1-based slots
    parent_edge: tuple[int, ...]  # canonical index of the edge to the parent (-1 for the root)
    root_paths: csr_matrix  # R, (n, m) read-only sparse ints: row v - 1 is the signed edge indicator of the path 1 -> v


def incidence_matrix(g: Graph) -> np.ndarray:
    """Signed m x n incidence matrix: row e has -1 at the tail, +1 at the head."""
    H = np.zeros((g.m, g.n), dtype=int)
    for e, (i, j) in enumerate(g.edges):
        H[e, i - 1] = -1
        H[e, j - 1] = 1
    return H


def fundamental_cycle_basis(g: Graph) -> csr_matrix:
    """Cycle basis from the graph's BFS spanning tree: a sparse (m-n+1, m) int matrix C.

    Non-tree edge (u, v) gives the cycle u -> v, then the tree path v -> u:
    its row is R[u] - R[v] plus the chord's indicator, from the root paths R,
    so the shared prefix above the two ends cancels.  Rows ascend by chord
    index and every row keeps sorted columns and no stored zeros.
    """
    tree = g.spanning_tree
    chords = np.setdiff1d(np.arange(g.m), tree.parent_edge)
    ends = np.array(g.edges, dtype=int).reshape(-1, 2)[chords] - 1
    R = tree.root_paths
    return R[ends[:, 0]] - R[ends[:, 1]] + csr_matrix((np.ones(len(chords), dtype=int), (np.arange(len(chords)), chords)), shape=(len(chords), g.m))


def path_matrix(g: Graph, base: int) -> np.ndarray:
    """Dense (n, m) path matrix R - R[base] from the root paths: row v - 1 is the signed tree path base -> v.

    A reference for analysis and tests; recovery multiplies by R instead.
    """
    if not (1 <= base <= g.n):
        raise GraphError(f"base vertex {base} not in 1..{g.n}")
    rows = g.spanning_tree.root_paths.toarray()
    return rows - rows[base - 1]


def _spanning_tree(g: Graph) -> SpanningTree:
    """BFS tree from vertex 1 over ascending neighbours, and its root paths gathered one tree level per step."""
    parent, entry, _, depth = tree_sums(vertex_graph(g), [0], np.zeros((g.m, 0)))
    if np.count_nonzero(parent < 0) > 1:
        raise GraphError("graph not connected")
    by_level = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[by_level], np.arange(depth.max() + 2))
    # The root path of every vertex on level d is its parent's path and then its own entry:
    # one (count, d) array of signed entries per level, each row kept at its vertex's CSR slots.
    indptr = np.concatenate([[0], np.cumsum(depth)])
    codes = np.empty(indptr[-1], dtype=entry.dtype)
    row, paths = np.zeros(g.n, dtype=np.intp), np.zeros((1, 0), dtype=entry.dtype)
    for d in range(1, len(bounds) - 1):
        level = by_level[bounds[d] : bounds[d + 1]]
        row[level] = np.arange(len(level))
        paths = np.column_stack([paths[row[parent[level]]], entry[level]])
        codes[indptr[level][:, None] + np.arange(d)] = paths
    R = csr_matrix((np.sign(codes), np.abs(codes) - 1, indptr), shape=(g.n, g.m))
    R.sort_indices()
    for a in (R.data, R.indices, R.indptr):
        a.flags.writeable = False
    return SpanningTree((0, *(parent + 1).tolist()), (-1, *(np.abs(entry) - 1).tolist()), R)


def _pairing(g: Graph, mode: str):
    """(t, e1, e2): every triple (apex, v, w) of ``mode`` as a (T, 3) array of 0-based vertex indices, and the indices of edges (apex, v), (apex, w).

    Only the graph enters, so each ``Graph`` builds it once per mode, kept
    read-only in its instance dict (the graph is frozen); a framework and
    its swap share it.
    """
    cache = g.__dict__
    key = f"_pairing_{mode}"
    if key not in cache:
        # Half-edges (apex, neighbour) sorted by apex, then neighbour, list each apex's ascending
        # adjacency in turn; ``slot`` is a half-edge's position in its apex's list.
        ends = np.array(g.edges, dtype=int).reshape(-1, 2) - 1
        half = np.concatenate([ends, ends[:, ::-1]])
        order = np.lexsort((half[:, 1], half[:, 0]))
        apex, nbr, edge = half[order, 0], half[order, 1], order % max(g.m, 1)
        deg = np.bincount(apex, minlength=g.n)
        slot = np.arange(len(apex)) - (np.cumsum(deg) - deg)[apex]
        # Slot a pairs with every later slot b of its apex (full), or only slot 0 does (reduced).
        later = deg[apex] - 1 - slot
        count = later if mode == "full" else np.where(slot == 0, later, 0)
        first = np.repeat(np.arange(len(apex)), count)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
        arrays = np.column_stack([apex[first], nbr[first], nbr[second]]), edge[first], edge[second]
        for a in arrays:
            a.flags.writeable = False
        cache[key] = arrays
    return cache[key]


def enumerate_triples(g: Graph, bip: Bipartition, mode: str = "full"):
    """Triple index sets (SA, RoD) over g.

    ``full`` emits every pair of incident edges at each apex; ``reduced``
    emits only the pairs anchored at the apex's minimum neighbor (a spanning
    subset, deg(u)-1 triples per vertex), useful as a rigidity-matrix
    row reduction.  Each set keeps the order of ``_pairing`` and slices its
    arrays; no tuple of triples is built.
    """
    if mode not in ("full", "reduced"):
        raise GraphError(f"unknown triple mode {mode!r}")
    if bip.n != g.n:
        raise GraphError("bipartition size does not match graph")
    t, e1, e2 = _pairing(g, mode)
    is_sa = (np.array(bip.attrs) == "A")[t[:, 0]]
    return TripleIndexSet(t[is_sa], e1[is_sa], e2[is_sa]), TripleIndexSet(t[~is_sa], e1[~is_sa], e2[~is_sa])


def signed_graph(a: np.ndarray, b: np.ndarray, size: int) -> csr_matrix:
    """Sparse graph on ``size`` nodes: entry k joins a[k] -> b[k] with +(k + 1) and b[k] -> a[k] with -(k + 1)."""
    k = np.arange(1, len(a) + 1)
    return csr_matrix((np.concatenate([k, -k]), (np.concatenate([a, b]), np.concatenate([b, a]))), shape=(size, size))


def index_graph(t: TripleIndexSet, m: int) -> csr_matrix:
    """Triple index graph over m edges: triple k joins its edges e1 -> e2 with +(k + 1).

    Two edges share at most one apex, so each edge pair carries at most one
    triple.
    """
    return signed_graph(t.e1, t.e2, m)


def vertex_graph(g: Graph) -> csr_matrix:
    """Vertex graph over 0-based ids, edge e joining tail -> head with +(e + 1)."""
    ends = np.array(g.edges, dtype=int).reshape(-1, 2) - 1
    return signed_graph(*ends.T, g.n)


def tree_sums(graph: csr_matrix, roots, steps: np.ndarray):
    """Breadth-first forest of a signed graph from ``roots``, and each node's summed steps and depth.

    Walking entry +-(k + 1) adds +-``steps[k]``.  A hub node joined to every
    root makes one traversal (ascending neighbours) span the forest.  Returns
    per node the tree parent (-1 at roots and unreached nodes), the entry
    walked into it (0 there), the steps summed along the path from its root
    and that path's edge count (0 there), both from one pointer-doubling loop.
    """
    size = graph.shape[0]
    # The hub is row ``size``, appended to the CSR arrays.  Their rows must be sorted, as ``signed_graph``
    # builds them and the key lookup below needs; ``roots`` ascend too.
    data, indices, indptr = np.append(graph.data, np.ones(len(roots))), np.append(graph.indices, roots), np.append(graph.indptr, graph.nnz + len(roots))
    order, pred = breadth_first_order(csr_matrix((data, indices, indptr), shape=(size + 1, size + 1)), size, return_predecessors=True)
    reached = order[1:]  # every node but the hub
    up = np.full(size + 1, size)
    up[reached] = pred[reached]
    child = reached[up[reached] < size]
    # The tree entry (up, child), looked up by its row-major key among the sorted CSR entries.
    keys = np.repeat(np.arange(size + 1), np.diff(indptr)) * (size + 1) + indices
    k = data[np.searchsorted(keys, up[child] * (size + 1) + child)].astype(int)
    entry = np.zeros(size, dtype=int)
    entry[child] = k
    parent = np.where(up[:size] == size, -1, up[:size])
    sums = np.zeros((size + 1, *steps.shape[1:]), dtype=steps.dtype)
    sums[child] = (np.sign(k) * steps[np.abs(k) - 1].T).T
    depth = np.zeros(size + 1, dtype=np.intp)
    depth[child] = 1
    # Pointer doubling: sums[v] holds the steps, depth[v] the tree edges, from up[v] down to v.
    while np.any(up != size):
        sums, depth, up = sums + sums[up], depth + depth[up], up[up]
    return parent, entry, sums[:size], depth[:size]


def triple_index_components(t: TripleIndexSet, g: Graph):
    """Connected components of the triple index graph, over all edges of g.

    Index-graph nodes are the canonical edge indices of g; each triple
    (u, v, w) joins the indices of edges (u, v) and (u, w).  An edge
    incident to no triple is its own component.  Returns (labels, count)
    with ``labels`` an m-vector of component ids in 0..count-1, numbered
    by smallest edge index.
    """
    count, labels = connected_components(index_graph(t, g.m), directed=False)
    return labels, int(count)


def augment_anchor_clique(g: Graph, anchors: Iterable[int]) -> Graph:
    """Add every missing anchor-anchor edge; existing edge indices are preserved."""
    anchor_list = sorted(set(anchors))
    if len(anchor_list) < 2:
        raise GraphError("need n_a >= 2 anchors (a single anchor leaves a free rotation)")
    for a in anchor_list:
        if not (1 <= a <= g.n):
            raise GraphError(f"anchor {a} not a vertex")
    present = set(g.edges)
    new_edges = list(g.edges)
    for x in range(len(anchor_list)):
        for y in range(x + 1, len(anchor_list)):
            e = (anchor_list[x], anchor_list[y])
            if e not in present:
                new_edges.append(e)
                present.add(e)
    return Graph(g.n, tuple(new_edges))
