"""Sensor-network localization from signed-angle and distance-ratio data.

The network couples an anchor-augmented framework (every anchor pair gains
an edge whose bearing and distance are known) with exact per-triple
measurements.  Each datum is stored once, as an array in solver order
(angles and ratios in triple order, anchor pairs ascending); a
``MeasurementSet``, keyed by triple, is gathered into them once by
``build_network``.  Localization runs edge-based: unknowns are the m canonical
edge bearings and distances, constrained by

- rotation relations within each SA triple,
- ratio relations within each RoD triple,
- cycle closure (signed edge displacements around each fundamental cycle
  sum to zero), and
- the anchor-pair bearings/distances.

Propagation over the triple index graphs resolves each connected component
up to one free reference (a 2-vector per SA component, a positive scalar
per RoD component); the component containing an anchor edge is pinned.
Both sides run one walk: angles (SA) and log-ratios (RoD) are additive
potentials summed along a spanning tree of each component, and one
vectorized check bounds every triple's closure mismatch.  Each network
propagates each side once (``SensorNetwork.bearing_param`` /
``distance_param``), and every solution carries the same evidence: both
component counts, free dimensions and worst closure mismatches.

Localization is one solve, ``localize_network``.  Its regime is read off
the input, not chosen: ``"sa"`` when every bearing propagates, ``"rod"``
when every distance does, ``"general"`` otherwise.  Every regime solves one
system: the cycle closure C (d * b) = 0 in the free references x = (w, y)
of propagation: a free edge's bearing is its SA reference rotated by
R(phi_e), its distance its RoD reference scaled by rho_e, in units of the
largest anchor distance (so verdicts and ranks do not depend on scale).
It is linear on every network (``closure_system``): each distinct product
y_k w_c on an edge free on both sides gets its own 2-vector column z_ck
(``info["lifted_pairs"]``).  Its null dimension gives the ranks of the
full distance and bearing systems.  One certified sparse LU decides its
rank, or one dense SVD when the certificate cannot;
``info["factorization"]`` names which.  A trivial null space is an exact
answer, in every regime.  A nontrivial one with free SA components keeps
one multi-start over the null coordinates, one batched
Levenberg-Marquardt run on the lifted products z_ck = y_k w_c and the
unit norms of the free references that the null space moves (the active
components, ``info["active_components"]``); the others add their
constant norm residual to every start's objective.
``localizability_check`` reads its verdict off that same solve.
``assemble_distance_system`` and ``assemble_bearing_system`` build the
full systems for analysis.  Each edge displacement is stated once, D0 +
J x (``SensorNetwork.displacement_map``), the closure is (C kron I_2) J
with the sparse cycle basis C (``SensorNetwork.cycles``), and positions
are recovered by telescoping edge displacements from an anchor with one
sparse product by the root paths of the graph's breadth-first vertex tree
(``SpanningTree.root_paths``); neither C nor the root paths is held dense.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, structural_rank
from scipy.sparse.linalg import splu

from .geometry import Framework, MeasurementSet, rigidity_function, rotation, wrap_angle
from .graph import Graph, TripleIndexSet, augment_anchor_clique, enumerate_triples, fundamental_cycle_basis, index_graph, tree_sums
from .rigidity import DEFAULT_RTOL, _batched_lm, _svd_factor

__all__ = [
    "InfeasibleMeasurementsError",
    "SensorNetwork",
    "SolverConfig",
    "EdgeSolution",
    "LocalizationResult",
    "build_network",
    "propagate_bearings",
    "propagate_distances",
    "assemble_distance_system",
    "assemble_bearing_system",
    "closure_system",
    "recover_positions",
    "localizability_check",
    "localize_network",
    "mean_squared_error",
]


class InfeasibleMeasurementsError(ValueError):
    """Raised when measurements are mutually inconsistent around an index cycle."""


@dataclass(frozen=True)
class SolverConfig:
    """Settable solver options, checked once at construction (hence frozen), plus the fixed tolerances every solve uses."""

    seed: int = 0
    starts: int = 20
    rtol: float = DEFAULT_RTOL
    zero_tol: ClassVar[float] = 1e-16  # accept threshold on the squared-residual objective
    active_tol: ClassVar[float] = 1e-12  # a free SA component whose null-basis block exceeds this moves in the multi-start
    cluster_tol: ClassVar[float] = 1e-6
    consistency_tol: ClassVar[float] = 1e-8  # closure and anchor-agreement bound in propagation

    def __post_init__(self):
        if not (isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (isinstance(self.starts, (int, np.integer)) and not isinstance(self.starts, bool) and self.starts >= 1):
            raise ValueError(f"starts must be a positive integer, got {self.starts!r}")
        if not 0.0 < self.rtol < 1.0:
            raise ValueError(f"rtol must lie in (0, 1), got {self.rtol}")


@dataclass(frozen=True)
class SensorNetwork:
    """Anchor-augmented framework plus measurements and anchor targets, as read-only arrays (what is derived from them is cached)."""

    framework: Framework  # graph already carries the anchor clique
    anchors: tuple[int, ...]
    sa_triples: TripleIndexSet
    rod_triples: TripleIndexSet
    sa: np.ndarray  # (len(sa_triples),) signed angles in [0, 2*pi)
    rod: np.ndarray  # (len(rod_triples),) distance ratios > 0
    anchor_edges: np.ndarray  # (pairs,) canonical edge of each anchor pair (i, j), pairs in ascending order
    anchor_bearings: np.ndarray  # (pairs, 2) unit bearing from i to j, in the same order
    anchor_distances: np.ndarray  # (pairs,) distance from i to j, in the same order

    def __post_init__(self):
        for name in ("sa", "rod", "anchor_edges", "anchor_bearings", "anchor_distances"):
            a = np.array(getattr(self, name))
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def graph(self) -> Graph:
        return self.framework.graph

    @property
    def truth(self) -> np.ndarray:
        return self.framework.points

    @cached_property
    def unit(self) -> float:
        """The length unit of localization: the largest anchor distance."""
        return float(self.anchor_distances.max())

    @cached_property
    def cycles(self) -> csr_matrix:
        """The sparse fundamental cycle basis C, (m - n + 1, m) with entries +-1.0, computed once per network."""
        return fundamental_cycle_basis(self.graph).astype(float)

    @cached_property
    def bearing_param(self) -> "EdgeParameterization":
        """Bearings propagated over the SA index graph, computed once per network."""
        return propagate_bearings(self)

    @cached_property
    def distance_param(self) -> "EdgeParameterization":
        """Distances propagated over the RoD index graph, computed once per network."""
        return propagate_distances(self)

    @cached_property
    def lifted_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The lifted products z_ck = y_k w_c of ``closure_system``, computed once per network.

        Per edge its product (-1 unless free on both sides), and per product
        its free SA and RoD references (c, k), (P, 2) in ascending order.
        """
        bear, dist = self.bearing_param, self.distance_param
        both = ~bear.resolved & ~dist.resolved
        pairs, inverse = np.unique(np.column_stack([bear.column[both], dist.column[both]]), axis=0, return_inverse=True)
        pair = np.full(self.graph.m, -1)
        pair[both] = inverse.reshape(-1)
        return pair, pairs

    @cached_property
    def displacement_map(self) -> tuple[csr_matrix, np.ndarray]:
        """Every edge displacement d_e b_e as D0 + J x in the free references x = (w, y, z), in anchor units, computed once per network.

        J is sparse, (2m, columns), rows 2e and 2e + 1 holding edge e's two
        coordinates: d0_e R(phi_e) on w_c when only its bearing is free,
        rho_e b0_e on y_k when only its distance is free, rho_e R(phi_e) on
        z_ck when both are, nothing when both are resolved.  D0 (m, 2) holds
        the resolved displacements d0_e b0_e (zero on every free edge).
        """
        bear, dist = self.bearing_param, self.distance_param
        pair, pairs = self.lifted_pairs
        d0 = dist.offset / self.unit
        e = np.flatnonzero(~bear.resolved)  # a 2 x 2 block on w_c or z_ck
        lifted = pair[e] >= 0
        t = np.where(lifted, bear.dim + dist.dim + 2 * pair[e], 2 * bear.column[e])
        scale = np.where(lifted, dist.transport[e], d0[e])
        cos, sin = scale * np.cos(bear.transport[e]), scale * np.sin(bear.transport[e])
        k = np.flatnonzero(bear.resolved & ~dist.resolved)  # a column on y_k
        y, rho_b = bear.dim + dist.column[k], dist.transport[k, None] * bear.offset[k]
        rows = np.concatenate([2 * e, 2 * e + 1, 2 * e, 2 * e + 1, 2 * k, 2 * k + 1])
        cols = np.concatenate([t, t, t + 1, t + 1, y, y])
        vals = np.concatenate([cos, sin, -sin, cos, rho_b[:, 0], rho_b[:, 1]])
        J = csr_matrix((vals, (rows, cols)), shape=(2 * self.graph.m, bear.dim + dist.dim + 2 * len(pairs)))
        return J, d0[:, None] * bear.offset


def build_network(fw: Framework, anchors, measurements: MeasurementSet | None = None) -> SensorNetwork:
    """Assemble the localization problem instance.

    Adds the anchor clique and takes exact measurements over the augmented
    triple sets from ``rigidity_function``, or checks a supplied
    ``MeasurementSet`` (no triple missing or unknown, values finite, ratios
    positive) and gathers it in triple order, angles wrapped.  Anchors are
    integer vertex ids (a float, bool or string is refused);
    ``augment_anchor_clique`` refuses fewer than two.
    """
    bad = [a for a in anchors if not isinstance(a, (int, np.integer)) or isinstance(a, bool)]
    if bad:
        raise ValueError(f"anchor ids must be integers, got {bad[0]!r}")
    anchor_list = tuple(sorted(set(int(a) for a in anchors)))
    g_hat = augment_anchor_clique(fw.graph, anchor_list)
    sa_t, rod_t = enumerate_triples(g_hat, fw.bipartition, "full")
    if measurements is None:
        sa, rod = np.split(rigidity_function(fw.points, sa_t, rod_t), [len(sa_t)])
    else:
        sa_keys, rod_keys = sa_t.triples, rod_t.triples
        missing = [t for t in sa_keys if t not in measurements.sa]
        missing += [t for t in rod_keys if t not in measurements.rod]
        if missing:
            raise ValueError(f"measurements missing for {len(missing)} triples, e.g. {missing[0]}")
        known_sa, known_rod = set(sa_keys), set(rod_keys)
        extra = [t for t in measurements.sa if t not in known_sa] + [t for t in measurements.rod if t not in known_rod]
        if extra:
            raise ValueError(f"measurements reference unknown triples, e.g. {extra[0]}")
        for kind, values in (("SA", measurements.sa), ("RoD", measurements.rod)):
            bad = [t for t, v in values.items() if not math.isfinite(v)]
            if bad:
                raise ValueError(f"{kind} measurement at {bad[0]} is not finite: {values[bad[0]]}")
        bad = [t for t, v in measurements.rod.items() if not v > 0]
        if bad:
            raise ValueError(f"distance ratios must be positive, got {measurements.rod[bad[0]]} at {bad[0]}")
        sa = wrap_angle(np.array([measurements.sa[t] for t in sa_keys], dtype=float))
        rod = np.array([measurements.rod[t] for t in rod_keys], dtype=float)
    pairs = list(itertools.combinations(anchor_list, 2))  # (i, j) with i < j, ascending
    tail, head = np.array(pairs).T
    e = fw.points[head - 1] - fw.points[tail - 1]
    # Row norms through matmul, which rounds as the 1-D ``np.linalg.norm`` does (its ``axis`` form does not).
    d = np.sqrt((e[:, None, :] @ e[:, :, None]).ravel())
    edges = [g_hat.edges.index(pair) for pair in pairs]
    return SensorNetwork(Framework(g_hat, fw.bipartition, fw.points), anchor_list, sa_t, rod_t, sa, rod, edges, e / d[:, None], d)


# --- propagation over triple index components ------------------------------


@dataclass(frozen=True)
class EdgeParameterization:
    """Affine solution set over the m canonical edges, in O(m) storage.

    ``offset`` carries the resolved values (zeros on unresolved edges).  An
    unresolved edge is the free reference of its component (a 2-vector per
    SA component, a positive scalar per RoD component) rotated by R(phi_e)
    or scaled by rho_e, its ``transport``.  ``closure_mismatch`` is the
    worst transport mismatch over all triples (radians for bearings,
    log-ratio for distances).
    """

    labels: np.ndarray  # (m,) component ids
    n_components: int
    offset: np.ndarray  # (m, 2) bearings or (m,) distances
    transport: np.ndarray  # (m,) angle phi_e (bearings) or scale rho_e (distances) from the component reference
    column: np.ndarray  # (m,) free reference t of each edge (coordinates 2t, 2t + 1 or t), -1 if resolved
    dim: int  # free coordinates: 2 per free SA component, 1 per free RoD component
    closure_mismatch: float

    @property
    def resolved(self) -> np.ndarray:
        return self.column < 0

    @property
    def fully_resolved(self) -> bool:
        return bool(self.resolved.all())


def _sa_signs(net: SensorNetwork):
    """Per SA triple (u, v, w): signs of edges (u, v) and (u, w).

    A sign is +1 when the apex is the canonical tail (apex bearing = edge bearing).
    """
    tri = net.sa_triples.vertex_index
    return np.where(tri[:, 0] < tri[:, 1], 1.0, -1.0), np.where(tri[:, 0] < tri[:, 2], 1.0, -1.0)


def _centered(x: np.ndarray, period: float | None) -> np.ndarray:
    return x if period is None else np.mod(x + period / 2, period) - period / 2


def _propagate(net: SensorNetwork, triples: TripleIndexSet, steps: np.ndarray, anchor_values: np.ndarray, period: float | None, side: str):
    """Additive potentials over one triple index graph, pinned by the anchor edges.

    Triple k carries the potential of its edge e1 to its edge e2 by adding
    ``steps[k]``.  The index graph is built once: its components come from
    it, and each component's smallest edge is its root, at potential 0;
    every other edge sums the steps along a breadth-first tree from it
    (``graph.tree_sums``, the walk the vertex spanning tree uses too).  A
    component holding an anchor edge is shifted to reproduce the anchor
    value there (``anchor_values``, one per ``net.anchor_edges``).  Returns
    (labels, count, potentials, pinned potentials (NaN on free components),
    free reference count, per edge its free reference index (-1 if pinned),
    worst closure mismatch); mismatches above the consistency tolerance
    raise ``InfeasibleMeasurementsError``.
    """
    graph = index_graph(triples, net.graph.m)
    n_comp, labels = connected_components(graph, directed=False)
    roots = np.unique(labels, return_index=True)[1]
    pot = tree_sums(graph, roots, steps)[2]
    tol = SolverConfig.consistency_tol
    mismatch = float(np.max(np.abs(_centered(pot[triples.e2] - pot[triples.e1] - steps, period)), initial=0.0))
    if not mismatch <= tol:  # NaN fails too
        raise InfeasibleMeasurementsError(f"infeasible {side} data: worst closure mismatch {mismatch:.3e} around an index cycle (tolerance {tol:g})")
    comp = labels[net.anchor_edges]
    shift = anchor_values - pot[net.anchor_edges]
    ref = np.full(n_comp, np.nan)
    ref[comp] = shift
    if np.any(np.abs(_centered(shift - ref[comp], period)) > tol):
        raise InfeasibleMeasurementsError(f"infeasible {side} data: anchor values disagree within a component")
    free = np.isnan(ref)
    column = np.where(free[labels], np.cumsum(free)[labels] - 1, -1)
    return labels, n_comp, pot, pot + ref[labels], int(free.sum()), column, mismatch


def propagate_bearings(net: SensorNetwork) -> EdgeParameterization:
    """Resolve edge bearings per SA-index component.

    Within a component every edge bearing is a fixed rotation R(phi_e) of
    the component reference; anchor-pair edges pin their component, other
    components contribute a free 2-vector each.  Inconsistent rotations
    around an index cycle raise ``InfeasibleMeasurementsError``.
    """
    s1, s2 = _sa_signs(net)
    steps = np.where(s1 * s2 < 0, net.sa + np.pi, net.sa)
    b = net.anchor_bearings.T
    labels, n_comp, phi, angle, n_free, column, mismatch = _propagate(net, net.sa_triples, steps, np.arctan2(b[1], b[0]), 2.0 * np.pi, "SA")
    offset = np.nan_to_num(np.column_stack([np.cos(angle), np.sin(angle)]))
    return EdgeParameterization(labels, n_comp, offset, phi, column, 2 * n_free, mismatch)


def propagate_distances(net: SensorNetwork) -> EdgeParameterization:
    """Resolve edge distances per RoD-index component (ratios transported as log-sums)."""
    labels, n_comp, log_rho, log_d, n_free, column, mismatch = _propagate(net, net.rod_triples, np.log(net.rod), np.log(net.anchor_distances), None, "RoD")
    return EdgeParameterization(labels, n_comp, np.nan_to_num(np.exp(log_d)), np.exp(log_rho), column, n_free, mismatch)


# --- linear systems ---------------------------------------------------------


def assemble_distance_system(net: SensorNetwork, bearings: np.ndarray):
    """Stacked linear system A d = y on the m edge distances.

    Rows: the cycle signs times each bearing coordinate (rhs 0), one row
    per RoD triple (-kappa at the (r,s)-edge, +1 at the (r,t)-edge, rhs 0),
    and one row per anchor pair (rhs the anchor distance).  Needs a full
    bearing vector.
    """
    g = net.graph
    C = net.cycles.toarray()
    Cb = (C[:, None, :] * bearings.T).reshape(-1, g.m)
    n_rows = Cb.shape[0] + len(net.rod_triples) + len(net.anchor_edges)
    A = np.zeros((n_rows, g.m))
    y = np.zeros(n_rows)
    A[: Cb.shape[0]] = Cb
    rows = Cb.shape[0] + np.arange(len(net.rod_triples))
    A[rows, net.rod_triples.e1] = -net.rod
    A[rows, net.rod_triples.e2] = 1.0
    rows = Cb.shape[0] + len(net.rod_triples) + np.arange(len(net.anchor_edges))
    A[rows, net.anchor_edges] = 1.0
    y[rows] = net.anchor_distances
    return A, y


@dataclass(frozen=True)
class LinearSystem:
    """A x = rhs with its rank, null basis and minimum-norm least-squares solution.

    ``matrix`` is a dense array for the full bearing system
    (``assemble_bearing_system``) and a ``scipy.sparse`` CSC matrix for
    ``closure_system``; the full distance system is a plain ``(A, y)``
    pair (``assemble_distance_system``).
    ``factorization`` names what decided the rank: ``"dense-svd"`` (one
    SVD, rank = #{sigma_i > rtol * sigma_max}) or ``"sparse-lu"`` (one
    sparse LU with a bound proving that this cut gives full row rank, so
    the verdict is the SVD's; see ``_lu_solved``).
    """

    matrix: np.ndarray | csc_matrix
    rhs: np.ndarray
    rank: int
    null_basis: np.ndarray  # (columns, null_dim)
    min_norm_solution: np.ndarray
    factorization: str = "dense-svd"

    @property
    def null_dim(self) -> int:
        return self.null_basis.shape[1]


def _solved(A: np.ndarray, rhs: np.ndarray, rtol: float) -> LinearSystem:
    """The system with rank, null basis and min-norm solution from one SVD, cut as gelsd's cond=rtol."""
    rank, s, u, vt = _svd_factor(A, rtol)
    return LinearSystem(A, rhs, rank, vt[rank:].T, vt[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank]))


def _completed(A: csc_matrix, G: np.ndarray) -> csc_matrix:
    """[A; G] as CSC, each column listing A's entries and then G's, as ``vstack`` gives them."""
    (r, c), k = A.shape, G.shape[0]
    indptr = A.indptr + k * np.arange(c + 1)
    own = np.arange(A.nnz) + k * np.repeat(np.arange(c), np.diff(A.indptr))
    stacked = np.ones(indptr[-1], dtype=bool)
    stacked[own] = False
    indices, data = np.empty(indptr[-1], dtype=A.indices.dtype), np.empty(indptr[-1])
    indices[own], data[own] = A.indices, A.data
    indices[stacked], data[stacked] = np.tile(np.arange(r, r + k), c), G.T.ravel()
    return csc_matrix((data, indices, indptr), shape=(r + k, c))


# Columns of the inverse held at once by the certificate.  Of 32, 48, 64, 96, 128 and 256, 48 solved the five
# recipes' closures at n = 140, 300 and 1000 fastest in total (one BLAS thread); 256 was up to 30 % slower.
_LU_BLOCK = 48


def _lu_solved(A: csc_matrix, rhs: np.ndarray, rtol: float) -> LinearSystem | None:
    """The r x c system from one sparse LU, or None when its certificate cannot decide the rank.

    Every square or wide A is completed to a square A_hat = [A; G] by a
    fixed seeded Gaussian block G of c - r rows (none when A is square),
    each of norm ||A||_F / sqrt(c).  Then sigma_max(A) <= ||A||_F and, by
    interlacing, sigma_r(A) >= sigma_min(A_hat) >= 1 / ||A_hat^-1||_F, so
    the bound rtol ||A||_F ||A_hat^-1||_F < 1/2 proves that all r singular
    values lie above twice the cut rtol * sigma_max: the rank is r, the
    SVD's verdict.  The inverse is solved for in blocks of identity
    columns and never held whole; one pass over the blocks gives the
    bound's sum and the null space, spanned by the last c - r columns
    A_hat^-1 [0; I].  The minimum-norm solution is A_hat^-1 [rhs; 0], one
    more solve, with its null component removed: summing the blocks times
    [rhs; 0] would multiply by the explicit inverse, which is not backward
    stable, and an extra column on a block would write all of its pages.
    An empty, tall or structurally rank-deficient A (on which SuperLU
    writes BLAS errors to stdout), a singular LU or a failed bound: None.
    """
    r, c = A.shape
    if not 0 < r <= c or structural_rank(A) < r:
        return None
    norm = float(np.linalg.norm(A.data))
    G = np.random.default_rng(0).standard_normal((c - r, c))
    G *= norm / math.sqrt(c) / np.linalg.norm(G, axis=1, keepdims=True)
    A_hat = _completed(A, G)
    try:
        lu = splu(A_hat)
    except RuntimeError:  # exactly singular
        return None
    inverse_sq, bound_sq = 0.0, (0.5 / (rtol * norm)) ** 2
    null = np.empty((c, c - r), order="F")
    for k in range(0, c, _LU_BLOCK):
        # Columns k.. of A_hat^-1.  A C-order identity block writes only the pages near its diagonal, so
        # its memory stays mostly untouched; the solution comes back in Fortran order.
        X = lu.solve(np.eye(c, min(_LU_BLOCK, c - k), -k))
        inverse_sq += float(X.ravel(order="F") @ X.ravel(order="F"))
        if not inverse_sq < bound_sq:  # NaN fails too
            return None
        if k + X.shape[1] > r:  # the block reaches the null columns r..c-1
            null[:, max(k - r, 0) : k + X.shape[1] - r] = X[:, max(r - k, 0) :]
        del X  # not held through the next block's solve
    # Fortran order, as the SVD's vt[rank:].T: the multi-start's contractions run fastest on it.
    N = np.asfortranarray(np.linalg.qr(null)[0])
    x = lu.solve(np.concatenate([rhs, np.zeros(c - r)]))
    return LinearSystem(A, rhs, r, N, x - N @ (N.T @ x), "sparse-lu")


def assemble_bearing_system(net: SensorNetwork, distances: np.ndarray, rtol: float = DEFAULT_RTOL) -> LinearSystem:
    """Stacked linear system on the 2m stacked edge bearings.

    Rows: distance-scaled cycle closure (kron of the weighted cycle basis
    with I_2, distances in units of the largest anchor distance so that the
    rank cut does not depend on units), one 2-row block per SA triple
    enforcing the rotation relation in canonical edge coordinates, and one
    2-row block per anchor pair pinning its bearing.  Returns the system
    with its rank, null-space basis, and minimum-norm solution at the
    shared tolerance, all from one SVD.
    """
    g = net.graph
    sa = net.sa_triples
    C = net.cycles.toarray()
    C1 = np.kron(C * (distances / net.unit), np.eye(2))
    n_rows = C1.shape[0] + 2 * len(sa) + 2 * len(net.anchor_edges)
    A = np.zeros((n_rows, 2 * g.m))
    z = np.zeros(n_rows)
    A[: C1.shape[0]] = C1
    # One 2x2 block row per SA triple: s2 I on edge e2, -s1 R(theta) on edge e1.
    s1, s2 = _sa_signs(net)
    blocks = A[C1.shape[0] : C1.shape[0] + 2 * len(sa)].reshape(len(sa), 2, g.m, 2)
    k = np.arange(len(sa))
    blocks[k, :, sa.e2, :] = s2[:, None, None] * np.eye(2)
    blocks[k, :, sa.e1, :] = -s1[:, None, None] * rotation(net.sa).transpose(2, 0, 1)
    # One 2x2 identity block row per anchor pair, on its edge.
    rows = C1.shape[0] + 2 * len(sa) + 2 * np.arange(len(net.anchor_edges))[:, None] + [0, 1]
    A[rows, 2 * net.anchor_edges[:, None] + [0, 1]] = 1.0
    z[rows] = net.anchor_bearings
    return _solved(A, z, rtol)


def closure_system(net: SensorNetwork, rtol: float = DEFAULT_RTOL) -> LinearSystem:
    """Cycle closure C (d * b) = 0 as one sparse linear system in the free references of propagation.

    Columns: the kw bearing references w, the ky distance references y
    (in units of the largest anchor distance), then one 2-vector z_ck per
    distinct product y_k w_c on an edge free on both sides
    (``SensorNetwork.lifted_pairs``), so the closure is linear on every
    network.  Rows: both coordinates of every fundamental cycle,
    2(m - n + 1) in all.  The SA triples, RoD triples and anchor pairs hold
    by construction; z_ck = y_k w_c is left to the multi-start.

    The matrix is A = (C kron I_2) J from the edge displacements D0 + J x
    (``SensorNetwork.displacement_map``), as ``scipy.sparse`` CSC, and the
    right-hand side is -C D0.  A stores no exact zero, and only its rows
    that hold an entry are factored (none for a cycle without a free edge,
    such as the anchor clique's own, or one whose free columns cancel).  One
    sparse LU decides their rank when its certificate proves full row rank
    (``_lu_solved``); otherwise (a tall or rank-deficient closure, or a
    bound too weak to decide) the dense SVD of ``_solved`` does, and
    ``factorization`` says which.  ``matrix`` and ``rhs`` keep every cycle,
    so residuals on them count the dropped ones too.
    """
    (J, D0), C = net.displacement_map, net.cycles
    row = np.repeat(2 * np.arange(C.shape[0]), np.diff(C.indptr))
    # C kron I_2 from C's arrays (scipy.sparse.kron takes 5-9 times as long); the CSR product drops exact zeros.
    kron = csr_matrix((np.tile(C.data, 2), (np.concatenate([row, row + 1]), np.concatenate([2 * C.indices, 2 * C.indices + 1]))), shape=(2 * C.shape[0], J.shape[0]))
    A = kron @ J
    rows = np.flatnonzero(np.diff(A.indptr))
    A, rhs = A.tocsc(), -(C @ D0).ravel()
    system = _lu_solved(A[rows], rhs[rows], rtol) or _solved(A[rows].toarray(), rhs[rows], rtol)
    return replace(system, matrix=A, rhs=rhs)


# --- solvers ----------------------------------------------------------------


@dataclass
class EdgeSolution:
    """Per-edge bearings/distances plus the solve verdict and evidence."""

    bearings: np.ndarray  # (m, 2)
    distances: np.ndarray  # (m,)
    method: str
    status: str  # localizable | unlocalizable | heuristic-unique | heuristic-ambiguous | solver-failed | infeasible
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("localizable", "heuristic-unique")


def _unit_norm_defect(b: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.norm(b, axis=1) - 1.0))) if b.size else 0.0


def _evidence(net: SensorNetwork) -> dict:
    """Connectivity evidence shared by every solution: both propagations' counts, free dimensions and mismatches."""
    bear, dist = net.bearing_param, net.distance_param
    return {
        "sa_components": bear.n_components,
        "rod_components": dist.n_components,
        "free_bearing_dim": bear.dim,
        "free_distance_dim": dist.dim,
        "sa_closure_mismatch": bear.closure_mismatch,
        "rod_closure_mismatch": dist.closure_mismatch,
    }


def _edges_at(net: SensorNetwork, x: np.ndarray):
    """Bearings and distances (in units of the largest anchor distance) at free references x = (w, y), or a batch of them.

    A free edge gathers its reference through ``column`` and rotates it by
    R(phi_e) or scales it by rho_e; resolved edges keep their offsets.
    """
    bear, dist = net.bearing_param, net.distance_param
    batch = x.shape[:-1]
    b = np.broadcast_to(bear.offset, batch + bear.offset.shape).copy()
    d = np.broadcast_to(dist.offset / net.unit, batch + dist.offset.shape).copy()
    e = np.flatnonzero(~bear.resolved)
    t, cos, sin = 2 * bear.column[e], np.cos(bear.transport[e]), np.sin(bear.transport[e])
    w0, w1 = x[..., t], x[..., t + 1]
    b[..., e, 0], b[..., e, 1] = cos * w0 - sin * w1, sin * w0 + cos * w1
    e = np.flatnonzero(~dist.resolved)
    d[..., e] = dist.transport[e] * x[..., bear.dim + dist.column[e]]
    return b, d


def _latin_hypercube(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n points of a Latin hypercube in [0, 1)^d, drawn as scipy.stats.qmc.LatinHypercube draws them from ``rng``: the offsets, then one permutation per dimension."""
    u = rng.uniform(size=(n, d))
    return (rng.permuted(np.tile(np.arange(1, n + 1), (d, 1)), axis=1).T - u) / n


def _cluster_zeros(net: SensorNetwork, xs, objectives, config: SolverConfig, method: str, info: dict) -> EdgeSolution:
    """Cluster the starts that reached a zero with positive distances by recovered position.

    Every such zero is recovered in one batched sparse product; the zeros
    then join clusters in start order: a zero joins the first cluster
    whose representative, its best zero, lies within ``cluster_tol`` x
    max(unit, R), R the representative's largest distance from the base
    anchor (a far zero converges only to the zero test's relative
    accuracy).  The first cluster answers: exact zeros' objectives are
    rounding noise, so which cluster they favour is not evidence.  One
    cluster is ``heuristic-unique``, more are ``heuristic-ambiguous``.
    """
    xs, objectives = np.asarray(xs), np.asarray(objectives)
    zero = objectives < config.zero_tol
    b, d = _edges_at(net, xs[zero])
    positive = np.all(d > 0, axis=1)
    b, d, obj = b[positive], d[positive] * net.unit, objectives[zero][positive]
    positions = recover_positions(net, b, d, warn=False)
    base = min(net.anchors) - 1
    radius = config.cluster_tol * np.maximum(net.unit, np.max(np.linalg.norm(positions - positions[:, base : base + 1], axis=2), axis=1))
    reps: list[int] = []  # per cluster, its best zero so far
    for k in range(len(obj)):
        j = next((j for j, r in enumerate(reps) if np.max(np.linalg.norm(positions[k] - positions[r], axis=1)) < radius[r]), None)
        if j is None:
            reps.append(k)
        elif obj[k] < obj[reps[j]]:
            reps[j] = k
    info.update(objective_best=float(np.min(objectives)), starts=len(objectives), heuristic=True, zero_clusters=len(reps))
    if not reps:
        b, d = _edges_at(net, xs[0])
        return EdgeSolution(b, d * net.unit, method, "infeasible" if np.any(zero) else "solver-failed", info)
    return EdgeSolution(b[reps[0]], d[reps[0]], method, "heuristic-unique" if len(reps) == 1 else "heuristic-ambiguous", info)


def _null_starts(net: SensorNetwork, system: LinearSystem, config: SolverConfig) -> np.ndarray:
    """The multi-start's starts in the null coordinates t of ``system``, (starts, null_dim).

    Start 0 is t = 0.  The others are a Latin hypercube over the constraint
    set, projected by t = N^T (x - x0): a unit w_c per free SA reference, a
    y_k per free RoD reference log-uniform in [1e-2, 1e2] anchor units, and
    z_ck = y_k w_c.
    """
    kc, ky = net.bearing_param.dim // 2, net.distance_param.dim
    c, k = net.lifted_pairs[1].T
    u = _latin_hypercube(np.random.default_rng(config.seed).spawn(1)[0], config.starts - 1, kc + ky)
    angle, y = 2.0 * np.pi * u[:, :kc], 10.0 ** (4.0 * u[:, kc:] - 2.0)
    w = np.stack([np.cos(angle), np.sin(angle)], axis=2)
    x = np.concatenate([w.reshape(len(u), -1), y, (y[:, k, None] * w[:, c]).reshape(len(u), -1)], axis=1)
    return np.concatenate([np.zeros((1, system.null_dim)), (x - system.min_norm_solution) @ system.null_basis])


def _solve(net: SensorNetwork, config: SolverConfig | None = None) -> EdgeSolution:
    """The one localization solve: the regime read off propagation, then the cycle closure.

    The regime is ``"sa"`` when every bearing propagates, else ``"rod"``
    when every distance does, else ``"general"``.  Every network solves one
    linear closure (``closure_system``, its lifted products counted in
    ``info["lifted_pairs"]``, its factored rows in ``info["closure_rows"]``).
    A trivial null space gives the exact answer (``localizable``, or
    ``infeasible`` if a distance is not positive), with the worst unit-norm
    and, when lifted, product defect |z_ck - y_k w_c|.
    With no free SA component every null direction keeps the closure, so a
    nontrivial null space is ``unlocalizable``.  Otherwise one batched
    Levenberg-Marquardt run moves every start t (``_null_starts``) to a zero
    of r_c = |w_c|^2 - 1 per free SA component c and z_ck - y_k w_c per
    lifted product, at x = x0 + N t; distinct zeros with positive distances
    are clustered by position.  The full systems' ranks follow from the null
    dimension whenever the other side is fully propagated.

    Only the active components' unit norms move: those whose null-basis
    block Nw_c (N orthonormal, so the test is scale-free) has an entry above
    tau = ``active_tol``, counted in ``info["active_components"]``.  An
    inactive one adds its constant r_c(0)^2 to every start's objective, so
    one off the unit circle still fails the zero test.  What that neglects
    is |r_c(t) - r_c(0)| <= delta = 2 |w0_c| sqrt(2L) tau |t| + 2L tau^2 |t|^2,
    so the 2-norm read by the zero test, |r| < sqrt(``zero_tol``) = 1e-8,
    moves by at most sqrt(K) delta over K inactive components: 5.7e-9 at a
    zero within |t| <= 10, L = 4 and K = 10^4 (mix-D2A1's zeros lie within
    |t| <= 3.2 up to n = 1000).  With no active component and no lifted
    product no start moves.
    """
    config = config or SolverConfig()
    bear, dist = net.bearing_param, net.distance_param
    pairs = net.lifted_pairs[1]
    m, kw, ky = net.graph.m, bear.dim, dist.dim
    method = "sa" if bear.fully_resolved else "rod" if dist.fully_resolved else "general"
    info = {**_evidence(net), "m": m, "variables": kw + ky + 2 * len(pairs), "lifted_pairs": len(pairs)}
    system = closure_system(net, config.rtol)
    L = info["null_dim"] = system.null_dim
    info["factorization"] = system.factorization
    info["closure_rows"] = int(np.count_nonzero(system.matrix.getnnz(axis=1)))
    if bear.fully_resolved:
        info["rank_distance_system"] = m - L
    if dist.fully_resolved:
        info["rank_bearing_system"] = 2 * m - L
    x0, N = system.min_norm_solution, system.null_basis
    # The rows of w_c, y_k and z_ck in x for every lifted product.
    iw, iy = 2 * pairs[:, :1] + [0, 1], kw + pairs[:, 1]
    iz = kw + ky + 2 * np.arange(len(pairs))[:, None] + [0, 1]
    if L == 0 or kw == 0:
        b, d = _edges_at(net, x0)
        d = d * net.unit
        info["closure_residual"] = float(np.linalg.norm(system.matrix @ x0 - system.rhs))
        info["unit_norm_defect"] = _unit_norm_defect(b)
        if len(pairs):
            info["product_defect"] = float(np.max(np.abs(x0[iz] - x0[iy, None] * x0[iw])))
        status = "localizable" if L == 0 else "unlocalizable"
        if status == "localizable" and np.any(d <= 0):
            status = "infeasible"
            info["note"] = "solved distances not strictly positive"
        return EdgeSolution(b, d, method, status, info)

    Nw, w0 = N[:kw].reshape(-1, 2, L), x0[:kw].reshape(-1, 2)
    active = np.max(np.abs(Nw), axis=(1, 2)) > config.active_tol
    Nw, w0, inactive = Nw[active], w0[active], (w0[~active] ** 2).sum(axis=1) - 1.0
    info["active_components"] = len(Nw)
    Pw, Py, Pz = N[iw], N[iy], N[iz]

    def residuals(t):
        w = w0 + np.einsum("cjl,sl->scj", Nw, t)
        r, J = (w * w).sum(axis=2) - 1.0, 2.0 * np.einsum("scj,cjl->scl", w, Nw)
        if not len(pairs):
            return r, J
        pw, py, pz = x0[iw] + np.einsum("pjl,sl->spj", Pw, t), x0[iy] + t @ Py.T, x0[iz] + np.einsum("pjl,sl->spj", Pz, t)
        rp = (pz - py[..., None] * pw).reshape(len(t), -1)
        Jp = (Pz - pw[..., None] * Py[:, None, :] - py[..., None, None] * Pw).reshape(len(t), -1, L)
        return np.concatenate([r, rp], axis=1), np.concatenate([J, Jp], axis=1)

    t, r = _batched_lm(_null_starts(net, system, config), residuals, 4.0 * np.finfo(float).eps)  # with no residual, no start moves
    return _cluster_zeros(net, x0 + t @ N.T, np.sum(r * r, axis=1) + float(inactive @ inactive), config, method, info)


# --- recovery and entry points ----------------------------------------------


def recover_positions(net: SensorNetwork, bearings: np.ndarray, distances: np.ndarray, warn: bool = True) -> np.ndarray:
    """Positions by telescoping signed edge displacements from an anchor.

    The base vertex is the lowest-index anchor, and x = x_base + (R - R_base)
    (d * b): the graph's sparse root paths R (``SpanningTree.root_paths``)
    sum the displacements d * b from vertex 1 to every vertex, and the base
    row is subtracted, the path matrix product without forming it.
    Bearings (..., m, 2) and distances (..., m) may carry leading batch
    axes; one sparse product then recovers every configuration, (..., n, 2).
    A warning is issued when the other anchors are not reproduced (gauge
    drift) to within 1e-6 of the largest anchor distance.
    """
    base = min(net.anchors)
    steps = distances[..., None] * bearings
    batch = steps.shape[:-2]
    sums = net.graph.spanning_tree.root_paths @ np.moveaxis(steps, -2, 0).reshape(net.graph.m, -1)
    sums = np.moveaxis(sums.reshape((net.graph.n,) + batch + (2,)), 0, -2)
    x = net.truth[base - 1] + (sums - sums[..., base - 1 : base, :])
    if warn:
        anchors = np.array(net.anchors) - 1
        drift = float(np.max(np.linalg.norm(x[..., anchors, :] - net.truth[anchors], axis=-1), initial=0.0))
        if drift > 1e-6 * net.unit:
            warnings.warn(f"gauge drift: anchor residual {drift:.3e} (largest anchor distance {net.unit:.3e})", stacklevel=2)
    return x


def mean_squared_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.sum((np.asarray(estimate) - np.asarray(truth)) ** 2, axis=1)))


def solution_residuals(net: SensorNetwork, solution: EdgeSolution) -> dict:
    """Worst constraint violations of an edge solution, per constraint family.

    Rotation and ratio residuals cover every measurement triple, cycle
    residuals every fundamental cycle, anchor residuals every anchor pair;
    ``unit_norm`` is the largest deviation of a bearing from unit length.
    """
    b, d = solution.bearings, solution.distances
    sa, rod = net.sa_triples, net.rod_triples
    s1, s2 = _sa_signs(net)
    rotated = np.einsum("ijk,kj->ki", rotation(net.sa), s1[:, None] * b[sa.e1])
    rot_res = np.max(np.linalg.norm(s2[:, None] * b[sa.e2] - rotated, axis=1), initial=0.0)
    d2 = d[rod.e2]
    ratio_res = np.max(np.abs(d2 - net.rod * d[rod.e1]) / np.maximum(d2, 1e-300), initial=0.0)
    cyc_res = float(np.max(np.abs(net.cycles @ (d[:, None] * b)), initial=0.0))
    E = net.anchor_edges
    miss = b[E] - net.anchor_bearings
    # Row norms through matmul, which rounds as the 1-D ``np.linalg.norm`` does (its ``axis`` form does not).
    miss_b = np.sqrt((miss[:, None, :] @ miss[:, :, None]).ravel())
    anchor_res = float(max(0.0, *miss_b, *np.abs(d[E] - net.anchor_distances)))
    return {
        "rotation": float(rot_res),
        "ratio": float(ratio_res),
        "cycle": cyc_res,
        "anchor": anchor_res,
        "unit_norm": _unit_norm_defect(b),
        "min_distance": float(np.min(d)) if d.size else 0.0,
    }


@dataclass
class LocalizationResult:
    solution: EdgeSolution
    positions: np.ndarray
    mse: float

    @property
    def method(self) -> str:
        """The regime the solve took: ``"sa"``, ``"rod"`` or ``"general"``."""
        return self.solution.method


def localize_network(net: SensorNetwork, config: SolverConfig | None = None) -> LocalizationResult:
    """Localize the network and recover positions; the regime is read off the input.

    Bearings that all propagate give the ``"sa"`` regime, distances that all
    propagate the ``"rod"`` regime, and anything else ``"general"``.  Every
    regime runs the same closure solve, reported in ``result.method``.
    """
    sol = _solve(net, config)
    x = recover_positions(net, sol.bearings, sol.distances, warn=False)
    return LocalizationResult(sol, x, mean_squared_error(x, net.truth))


def localizability_check(net: SensorNetwork, config: SolverConfig | None = None) -> tuple[str, dict]:
    """Localizability verdict of the localization solve, with its evidence.

    A closure with a trivial null space, or a nontrivial one and no free
    SA component, is exact and keeps the solve status (``localizable``,
    ``unlocalizable``, ``infeasible``).  The multi-start (a nontrivial null
    space with unit norms and lifted products to meet) says so with
    ``heuristic: True``: ``heuristic-unique`` for one cluster of
    zeros, ``heuristic-ambiguous`` for two or more, and ``solver-failed`` or
    ``infeasible`` as the solve reports them when no zero with positive
    distances was found.  Warns when all anchors share one sensing
    attribute: the exact localizability criteria assume both kinds.
    """
    if len({net.framework.bipartition.attr(a) for a in net.anchors}) < 2:
        warnings.warn("anchors all share one sensing attribute; the exact localizability criteria assume both kinds", stacklevel=2)
    sol = _solve(net, config)
    return sol.status, sol.info


# --- names benchmarks/tracing.py wraps by attribute -------------------------
# Nothing in the package calls these: localization factors through
# _lu_solved or _svd_factor and solves in _solve, recovery multiplies by the
# sparse root paths, build_network takes exact measurements straight from
# rigidity_function, propagation labels components on the index graph it
# walks, and rigidity's least_squares imports scipy.optimize lazily.
from scipy.linalg import lstsq  # noqa: E402, F401

from .geometry import synthesize_measurements  # noqa: E402, F401
from .graph import path_matrix, triple_index_components  # noqa: E402, F401
from .rigidity import least_squares, null_space, numerical_rank  # noqa: E402, F401

solve_sa_connected = solve_rod_connected = solve_disconnected = _solve
