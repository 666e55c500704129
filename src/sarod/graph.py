"""Graph structure, incidence/cycle/path matrices, and measurement-triple index sets.

Vertices are 1-based integers 1..n.  Edges are stored as (i, j) pairs with
i < j; the position of an edge in ``Graph.edges`` is its canonical edge
index, used consistently by every matrix in the package.  The canonical
orientation of an edge is tail = smaller id, head = larger id, so the
incidence matrix row of edge (i, j) has -1 at column i and +1 at column j.

All matrices produced here (incidence, cycle basis, path matrices) are
integer-valued, so identities like C @ H == 0 hold exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Graph",
    "Bipartition",
    "TripleIndexSet",
    "CycleBasis",
    "PathMatrix",
    "edge_code",
    "incidence_matrix",
    "bfs_spanning_tree",
    "fundamental_cycle_basis",
    "path_matrix",
    "enumerate_triples",
    "index_graph",
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
        ij = np.array(self.edges, dtype=int).reshape(-1, 2) - 1
        adj = csr_matrix((np.ones(len(ij)), (ij[:, 0], ij[:, 1])), shape=(self.n, self.n))
        return connected_components(adj, directed=False)[0] == 1


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
class CycleBasis:
    """Fundamental-cycle matrix of a spanning tree; C @ H == 0 exactly."""

    matrix: np.ndarray  # (m-n+1, m) ints
    tree_parent: tuple[int, ...]  # parent id per vertex (0 for the root), 1-based slots

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]


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


def bfs_spanning_tree(g: Graph, root: int = 1, reverse_neighbors: bool = False):
    """BFS spanning tree from ``root``.

    Returns (parent, parent_edge) where parent[v] is the BFS parent of v
    (0 at the root) and parent_edge[v] the canonical index of the tree edge
    joining them.  ``reverse_neighbors`` visits neighbors in descending order,
    which yields a different tree on cyclic graphs; it exists so that
    tree-independence properties can be exercised.
    """
    if not g.is_connected():
        raise GraphError("graph not connected")
    adj = g.neighbors()
    eidx = g.edge_index()
    parent = [0] * (g.n + 1)
    parent_edge = [-1] * (g.n + 1)
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        nbrs = adj[u][::-1] if reverse_neighbors else adj[u]
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                parent_edge[w] = eidx[(min(u, w), max(u, w))]
                queue.append(w)
    return tuple(parent), tuple(parent_edge)


def _root_path_rows(g: Graph, parent, parent_edge, root: int) -> np.ndarray:
    """Row v = signed edge-indicator of the tree path root -> v."""
    rows = np.zeros((g.n + 1, g.m), dtype=int)
    order = deque([root])
    children: list[list[int]] = [[] for _ in range(g.n + 1)]
    for v in range(1, g.n + 1):
        if v != root:
            children[parent[v]].append(v)
    while order:
        u = order.popleft()
        for v in children[u]:
            e = parent_edge[v]
            i, j = g.edges[e]
            sign = 1 if (u, v) == (i, j) else -1
            rows[v] = rows[u]
            rows[v, e] += sign
            order.append(v)
    return rows


def fundamental_cycle_basis(g: Graph, reverse_neighbors: bool = False) -> CycleBasis:
    """Cycle basis from the shared BFS spanning tree; exactly m-n+1 rows."""
    parent, parent_edge = bfs_spanning_tree(g, reverse_neighbors=reverse_neighbors)
    tree_edges = {e for e in parent_edge if e >= 0}
    root_rows = _root_path_rows(g, parent, parent_edge, root=1)
    rows = []
    for e, (u, v) in enumerate(g.edges):
        if e in tree_edges:
            continue
        # Cycle: traverse e from u to v, then the tree path v -> u.
        z = root_rows[u] - root_rows[v]
        z[e] += 1
        rows.append(z)
    C = np.array(rows, dtype=int).reshape(len(rows), g.m)
    return CycleBasis(C, tuple(parent))


def path_matrix(g: Graph, base: int, reverse_neighbors: bool = False) -> PathMatrix:
    """Path matrix with the given base vertex, built from the shared BFS tree."""
    if not (1 <= base <= g.n):
        raise GraphError(f"base vertex {base} not in 1..{g.n}")
    parent, parent_edge = bfs_spanning_tree(g, reverse_neighbors=reverse_neighbors)
    root_rows = _root_path_rows(g, parent, parent_edge, root=1)
    P = root_rows[1:] - root_rows[base]
    return PathMatrix(P, base, tuple(parent))


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


def index_graph(t: TripleIndexSet, m: int) -> csr_matrix:
    """Triple index graph over m edges as a sparse matrix with entries +-(k + 1).

    Triple k joins its edges e1 -> e2 with +(k + 1) and e2 -> e1 with
    -(k + 1).  Two edges share at most one apex, so each edge pair carries
    at most one triple.
    """
    k = np.arange(1, len(t) + 1)
    rows = np.concatenate([t.e1, t.e2])
    cols = np.concatenate([t.e2, t.e1])
    return csr_matrix((np.concatenate([k, -k]), (rows, cols)), shape=(m, m))


def triple_index_components(t: TripleIndexSet, g: Graph):
    """Connected components of the triple index graph, over all edges of g.

    Index-graph vertices are the edge codes of g; each triple (u, v, w)
    joins the codes of edges (u, v) and (u, w).  An edge incident to no
    triple is its own component.  Returns (labels, count) with ``labels``
    an m-vector of component ids in 0..count-1, numbered by smallest edge
    index.
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
