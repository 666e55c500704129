"""Graph structure, incidence/cycle/path matrices, and measurement-triple index sets.

Vertices are 1-based integers 1..n.  Edges are stored as (i, j) pairs with
i < j; the position of an edge in ``Graph.edges`` is its canonical edge
index, used consistently by every matrix in the package.  The canonical
orientation of an edge is tail = smaller id, head = larger id, so the
incidence matrix row of edge (i, j) has -1 at column i and +1 at column j.

All matrices produced here (incidence, cycle basis, path matrices) are
integer-valued, so identities like C @ H == 0 hold exactly.  Every
spanning-tree sum is one breadth-first forest walk, ``tree_sums``, over a
``signed_graph`` (the vertex graph or a triple index graph); each ``Graph``
builds its vertex tree at most once per orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_tree, connected_components

__all__ = [
    "Graph",
    "Bipartition",
    "TripleIndexSet",
    "CycleBasis",
    "PathMatrix",
    "edge_code",
    "incidence_matrix",
    "SpanningTree",
    "bfs_spanning_tree",
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


@dataclass(frozen=True)
class Graph:
    """Undirected graph with a canonical edge order and orientation."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        seen = set()
        for (i, j) in self.edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise GraphError(f"edge ({i},{j}) references a vertex outside 1..{self.n}")
            if i == j:
                raise GraphError(f"self-loop at vertex {i}")
            if i > j:
                raise GraphError(f"edge ({i},{j}) must be stored with smaller id first")
            if (i, j) in seen:
                raise GraphError(f"duplicate edge ({i},{j})")
            seen.add((i, j))

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

    def spanning_tree(self, reverse_neighbors: bool = False) -> "SpanningTree":
        """BFS spanning tree from vertex 1, built at most once per graph and orientation (see ``_spanning_tree``)."""
        # Cached in the instance dict, as functools.cached_property does on frozen classes.
        trees = self.__dict__.setdefault("_spanning_trees", {})
        if reverse_neighbors not in trees:
            trees[reverse_neighbors] = _spanning_tree(self, reverse_neighbors)
        return trees[reverse_neighbors]


@dataclass(frozen=True)
class Bipartition:
    """Per-vertex sensing attribute: 'A' (signed angles) or 'D' (distance ratios)."""

    attrs: tuple[str, ...]

    def __post_init__(self):
        for a in self.attrs:
            if a not in ("A", "D"):
                raise GraphError(f"attribute must be 'A' or 'D', got {a!r}")

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


@dataclass(frozen=True)
class TripleIndexSet:
    """Measurement triples (apex, v, w) with v < w and (apex,v), (apex,w) edges."""

    kind: str  # "sa" | "rod"
    triples: tuple[tuple[int, int, int], ...]
    # Canonical indices of edges (apex, v) and (apex, w), per triple.
    e1: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int), compare=False, repr=False)
    e2: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int), compare=False, repr=False)
    # The triples as a (T, 3) array of 0-based vertex indices (apex, v, w).
    vertex_index: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not len(self.e1) == len(self.e2) == len(self.triples):
            raise GraphError("need one (e1, e2) edge-index pair per triple")
        t = np.array(self.triples, dtype=int).reshape(-1, 3)
        repeated = (t[:, 0] == t[:, 1]) | (t[:, 0] == t[:, 2]) | (t[:, 1] == t[:, 2])
        if repeated.any():
            raise GraphError(f"triple {self.triples[int(repeated.argmax())]} must have three distinct vertices")
        object.__setattr__(self, "vertex_index", t - 1)

    def __len__(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class SpanningTree:
    """Breadth-first spanning tree from vertex 1 with its signed root-path rows."""

    parent: tuple[int, ...]  # parent id per vertex (0 for the root), 1-based slots
    parent_edge: tuple[int, ...]  # canonical index of the edge to the parent (-1 for the root)
    root_rows: np.ndarray  # (n, m) read-only ints: row v - 1 is the signed edge indicator of the path 1 -> v


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental-cycle matrix of a spanning tree; C @ H == 0 exactly."""

    matrix: np.ndarray  # (m-n+1, m) ints
    tree_parent: tuple[int, ...]  # parent id per vertex (0 for the root), 1-based slots


@dataclass(frozen=True)
class PathMatrix:
    """Signed tree-path indicator rows from a base vertex; row ``base`` is zero."""

    matrix: np.ndarray  # (n, m) ints
    base: int
    tree_parent: tuple[int, ...]


def edge_code(i: int, j: int, n: int) -> int:
    """Scalar code of edge {i,j} in a graph on n vertices: (min-1)*n + max."""
    lo, hi = (i, j) if i < j else (j, i)
    return (lo - 1) * n + hi


def incidence_matrix(g: Graph) -> np.ndarray:
    """Signed m x n incidence matrix: row e has -1 at the tail, +1 at the head."""
    H = np.zeros((g.m, g.n), dtype=int)
    for e, (i, j) in enumerate(g.edges):
        H[e, i - 1] = -1
        H[e, j - 1] = 1
    return H


def bfs_spanning_tree(g: Graph, reverse_neighbors: bool = False):
    """(parent, parent_edge) of the graph's BFS spanning tree from vertex 1."""
    tree = g.spanning_tree(reverse_neighbors)
    return tree.parent, tree.parent_edge


def fundamental_cycle_basis(g: Graph, reverse_neighbors: bool = False) -> CycleBasis:
    """Cycle basis from the graph's BFS spanning tree; exactly m-n+1 rows.

    Non-tree edge (u, v) gives the cycle u -> v, then the tree path v -> u.
    """
    tree = g.spanning_tree(reverse_neighbors)
    chords = np.setdiff1d(np.arange(g.m), tree.parent_edge)
    ends = np.array(g.edges, dtype=int).reshape(-1, 2)[chords] - 1
    C = tree.root_rows[ends[:, 0]] - tree.root_rows[ends[:, 1]]
    C[np.arange(len(chords)), chords] += 1
    return CycleBasis(C, tree.parent)


def path_matrix(g: Graph, base: int, reverse_neighbors: bool = False) -> PathMatrix:
    """Path matrix with the given base vertex, from the graph's BFS spanning tree."""
    if not (1 <= base <= g.n):
        raise GraphError(f"base vertex {base} not in 1..{g.n}")
    tree = g.spanning_tree(reverse_neighbors)
    return PathMatrix(tree.root_rows - tree.root_rows[base - 1], base, tree.parent)


def _spanning_tree(g: Graph, reverse: bool) -> SpanningTree:
    """BFS tree over ascending neighbours, or descending ones with ``reverse`` (a second tree for
    tree-independence checks; renaming v to n + 1 - v turns descending order into ascending)."""
    root = g.n - 1 if reverse else 0
    # A tree path uses an edge at most once, so int8 sums are exact and keep pointer doubling cache-sized.
    parent, entry, rows = tree_sums(vertex_graph(g, relabel=reverse), [root], np.eye(g.m, dtype=np.int8))
    if np.count_nonzero(parent < 0) > 1:
        raise GraphError("graph not connected")
    if reverse:  # back from the relabelled ids
        parent, entry, rows = np.where(parent < 0, -1, g.n - 1 - parent)[::-1], entry[::-1], rows[::-1]
    rows = rows.astype(int)
    rows.flags.writeable = False
    return SpanningTree((0, *(parent + 1).tolist()), (-1, *(np.abs(entry) - 1).tolist()), rows)


def enumerate_triples(g: Graph, bip: Bipartition, mode: str = "full"):
    """Triple index sets (SA, RoD) over g.

    ``full`` emits every pair of incident edges at each apex; ``reduced``
    emits only the pairs anchored at the apex's minimum neighbor (a spanning
    subset, deg(u)-1 triples per vertex), useful as a rigidity-matrix
    row reduction.
    """
    if mode not in ("full", "reduced"):
        raise GraphError(f"unknown triple mode {mode!r}")
    if bip.n != g.n:
        raise GraphError("bipartition size does not match graph")
    adj = g.neighbors()
    sa: list[tuple[int, int, int]] = []
    rod: list[tuple[int, int, int]] = []
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
            j0 = nbrs[0]
            for k in nbrs[1:]:
                target.append((u, j0, k))
    eidx = g.edge_index()

    def index_set(kind, triples):
        e = np.array([[eidx[(min(u, x), max(u, x))] for x in (v, w)] for (u, v, w) in triples], dtype=int).reshape(-1, 2)
        return TripleIndexSet(kind, tuple(triples), e[:, 0], e[:, 1])

    return index_set("sa", sa), index_set("rod", rod)


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


def vertex_graph(g: Graph, relabel: bool = False) -> csr_matrix:
    """Vertex graph over 0-based ids, edge e joining tail -> head with +(e + 1); ``relabel`` renames v to n + 1 - v."""
    ends = np.array(g.edges, dtype=int).reshape(-1, 2) - 1
    return signed_graph(*(g.n - 1 - ends if relabel else ends).T, g.n)


def tree_sums(graph: csr_matrix, roots, steps: np.ndarray):
    """Breadth-first forest of a signed graph from ``roots``, and each node's summed steps.

    Walking entry +-(k + 1) adds +-``steps[k]``.  A hub node joined to every
    root makes one traversal (ascending neighbours) span the forest.  Returns
    per node the tree parent (-1 at roots and unreached nodes), the entry
    walked into it (0 there) and the steps summed along the path from its root.
    """
    size = graph.shape[0]
    # The hub is row ``size``, appended to the CSR arrays; ``roots`` ascend, as sorted rows need.
    hub = (np.append(graph.data, np.ones(len(roots))), np.append(graph.indices, roots), np.append(graph.indptr, graph.nnz + len(roots)))
    tree = breadth_first_tree(csr_matrix(hub, shape=(size + 1, size + 1)), size).tocoo()
    inner = tree.row < size
    child, k = tree.col[inner], tree.data[inner].astype(int)
    up = np.full(size + 1, size)
    up[child] = tree.row[inner]
    entry = np.zeros(size, dtype=int)
    entry[child] = k
    parent = np.where(up[:size] == size, -1, up[:size])
    sums = np.zeros((size + 1, *steps.shape[1:]), dtype=steps.dtype)
    sums[child] = (np.sign(k) * steps[np.abs(k) - 1].T).T
    # Pointer doubling: sums[v] holds the steps from up[v] down to v.
    while np.any(up != size):
        sums, up = sums + sums[up], up[up]
    return parent, entry, sums[:size]


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
        raise GraphError("need n_a >= 2 anchors")
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
