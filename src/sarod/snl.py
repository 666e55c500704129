"""Sensor-network localization from signed-angle and distance-ratio data.

The network couples an anchor-augmented framework (every anchor pair gains
an edge whose bearing and distance are known) with exact per-triple
measurements.  Localization runs edge-based: unknowns are the m canonical
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
Unless an edge is free on both sides it is linear (``closure_system``),
and its null dimension gives the ranks of the full distance and bearing
systems.  One certified sparse LU decides its rank, or one dense SVD when
the certificate cannot; ``info["factorization"]`` names which.  A trivial
null space is an exact answer, in every regime.  A nontrivial one with
free SA components keeps a multi-start over the null coordinates only, one
batched Levenberg-Marquardt run on the unit norms of the free references.
Edges free on both sides make the closure bilinear; the same batched
solver then runs a multi-start over all of (w, y).
``localizability_check`` reads its verdict off that same solve.
``assemble_distance_system`` and ``assemble_bearing_system`` build the
full systems for analysis.  The cycle closure reads the signed entries of
the sparse fundamental cycle basis (``SensorNetwork.cycle_entries``), and
positions are recovered by telescoping edge displacements from an anchor
with one sparse product by the root paths of the graph's breadth-first
vertex tree (``SpanningTree.root_paths``); neither is held dense.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse import vstack as sparse_vstack
from scipy.sparse.linalg import splu

from .geometry import Framework, MeasurementSet, check_distinct, rotation, synthesize_measurements, wrap_angle
from .graph import Graph, TripleIndexSet, augment_anchor_clique, enumerate_triples, fundamental_cycle_basis, index_graph, tree_sums, triple_index_components
from .rigidity import _batched_lm, _svd_factor

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
    rtol: float = 1e-8
    zero_tol: ClassVar[float] = 1e-16  # accept threshold on the squared-residual objective
    cluster_tol: ClassVar[float] = 1e-6
    positivity_eps: ClassVar[float] = 1e-6
    consistency_tol: ClassVar[float] = 1e-8  # closure and anchor-agreement bound in propagation
    box_half_width: ClassVar[float] = 2.0

    def __post_init__(self):
        if not (isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (isinstance(self.starts, (int, np.integer)) and not isinstance(self.starts, bool) and self.starts >= 1):
            raise ValueError(f"starts must be a positive integer, got {self.starts!r}")
        if not 0.0 < self.rtol < 1.0:
            raise ValueError(f"rtol must lie in (0, 1), got {self.rtol}")


@dataclass(frozen=True)
class SensorNetwork:
    """Anchor-augmented framework plus exact measurements and anchor targets."""

    framework: Framework  # graph already carries the anchor clique
    anchors: tuple[int, ...]
    sa_triples: TripleIndexSet
    rod_triples: TripleIndexSet
    sa: dict
    rod: dict
    anchor_bearings: dict  # canonical edge -> unit 2-vector, anchor pairs (i, j) in ascending order
    anchor_distances: dict  # canonical edge -> float, in the same order

    @property
    def graph(self) -> Graph:
        return self.framework.graph

    @property
    def truth(self) -> np.ndarray:
        return self.framework.points

    @cached_property
    def anchor_edges(self) -> np.ndarray:
        """Canonical indices of the anchor-pair edges, in ``anchor_distances`` order."""
        eidx = self.graph.edge_index()
        return np.array([eidx[e] for e in self.anchor_distances], dtype=int)

    @cached_property
    def unit(self) -> float:
        """The length unit of localization: the largest anchor distance."""
        return max(self.anchor_distances.values())

    @cached_property
    def cycle_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of the sparse fundamental cycle basis, computed once per network: cycle, edge and sign (+-1.0) of each, row by row."""
        C = fundamental_cycle_basis(self.graph).tocoo()
        return C.row, C.col, C.data.astype(float)

    @cached_property
    def bearing_param(self) -> "EdgeParameterization":
        """Bearings propagated over the SA index graph, computed once per network."""
        return propagate_bearings(self)

    @cached_property
    def distance_param(self) -> "EdgeParameterization":
        """Distances propagated over the RoD index graph, computed once per network."""
        return propagate_distances(self)


def build_network(fw: Framework, anchors, measurements: MeasurementSet | None = None) -> SensorNetwork:
    """Assemble the localization problem instance.

    Adds the anchor clique, synthesizes exact measurements over the
    augmented triple sets (or validates user-supplied ones for coverage),
    and precomputes anchor-pair bearings and distances.  Needs at least two
    anchors, given as integer vertex ids (a float, bool or string is refused).
    """
    bad = [a for a in anchors if not isinstance(a, (int, np.integer)) or isinstance(a, bool)]
    if bad:
        raise ValueError(f"anchor ids must be integers, got {bad[0]!r}")
    anchor_list = tuple(sorted(set(int(a) for a in anchors)))
    if len(anchor_list) < 2:
        raise ValueError("need n_a >= 2 anchors (a single anchor leaves a free rotation)")
    check_distinct(fw.points)
    g_hat = augment_anchor_clique(fw.graph, anchor_list)
    fw_hat = Framework(g_hat, fw.bipartition, fw.points)
    sa_t, rod_t = enumerate_triples(g_hat, fw.bipartition, "full")
    if measurements is None:
        ms = synthesize_measurements(fw.points, sa_t, rod_t)
    else:
        missing = [t for t in sa_t.triples if t not in measurements.sa]
        missing += [t for t in rod_t.triples if t not in measurements.rod]
        if missing:
            raise ValueError(f"measurements missing for {len(missing)} triples, e.g. {missing[0]}")
        known_sa, known_rod = set(sa_t.triples), set(rod_t.triples)
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
        ms = MeasurementSet({t: float(wrap_angle(v)) for t, v in measurements.sa.items()}, dict(measurements.rod))
    anchor_b = {}
    anchor_d = {}
    p = fw.points
    for x in range(len(anchor_list)):
        for y in range(x + 1, len(anchor_list)):
            i, j = anchor_list[x], anchor_list[y]
            e = p[j - 1] - p[i - 1]
            d = float(np.linalg.norm(e))
            anchor_b[(i, j)] = e / d
            anchor_d[(i, j)] = d
    return SensorNetwork(fw_hat, anchor_list, sa_t, rod_t, ms.sa, ms.rod, anchor_b, anchor_d)


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


def _sa_relations(net: SensorNetwork):
    """Per SA triple (u, v, w): signs of edges (u, v) and (u, w), and the measured angle.

    A sign is +1 when the apex is the canonical tail (apex bearing = edge bearing).
    """
    tri = net.sa_triples.vertex_index
    s1 = np.where(tri[:, 0] < tri[:, 1], 1.0, -1.0)
    s2 = np.where(tri[:, 0] < tri[:, 2], 1.0, -1.0)
    theta = np.array([net.sa[t] for t in net.sa_triples.triples], dtype=float)
    return s1, s2, theta


def _rod_ratios(net: SensorNetwork) -> np.ndarray:
    return np.array([net.rod[t] for t in net.rod_triples.triples], dtype=float)


def _centered(x: np.ndarray, period: float | None) -> np.ndarray:
    return x if period is None else np.mod(x + period / 2, period) - period / 2


def _propagate(net: SensorNetwork, triples: TripleIndexSet, steps: np.ndarray, anchor_values: np.ndarray, period: float | None, side: str):
    """Additive potentials over one triple index graph, pinned by the anchor edges.

    Triple k carries the potential of its edge e1 to its edge e2 by adding
    ``steps[k]``.  Each component's smallest edge is its root, at potential
    0; every other edge sums the steps along a breadth-first tree from it
    (``graph.tree_sums``, the walk the vertex spanning tree uses too).  A
    component holding an anchor edge is shifted to reproduce the anchor
    value there (``anchor_values``, one per ``net.anchor_edges``).  Returns
    (labels, count, potentials, pinned potentials (NaN on free components),
    free reference count, per edge its free reference index (-1 if pinned),
    worst closure mismatch); mismatches above the consistency tolerance
    raise ``InfeasibleMeasurementsError``.
    """
    g = net.graph
    labels, n_comp = triple_index_components(triples, g)
    roots = np.unique(labels, return_index=True)[1]
    pot = tree_sums(index_graph(triples, g.m), roots, steps)[2]
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
    s1, s2, theta = _sa_relations(net)
    steps = np.where(s1 * s2 < 0, theta + np.pi, theta)
    b = np.array(list(net.anchor_bearings.values()))
    labels, n_comp, phi, angle, n_free, column, mismatch = _propagate(net, net.sa_triples, steps, np.arctan2(b[:, 1], b[:, 0]), 2.0 * np.pi, "SA")
    offset = np.nan_to_num(np.column_stack([np.cos(angle), np.sin(angle)]))
    return EdgeParameterization(labels, n_comp, offset, phi, column, 2 * n_free, mismatch)


def propagate_distances(net: SensorNetwork) -> EdgeParameterization:
    """Resolve edge distances per RoD-index component (ratios transported as log-sums)."""
    anchors = np.log(list(net.anchor_distances.values()))
    labels, n_comp, log_rho, log_d, n_free, column, mismatch = _propagate(net, net.rod_triples, np.log(_rod_ratios(net)), anchors, None, "RoD")
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
    C = fundamental_cycle_basis(g).toarray().astype(float)
    Cb = (C[:, None, :] * bearings.T).reshape(-1, g.m)
    n_rows = Cb.shape[0] + len(net.rod_triples) + len(net.anchor_distances)
    A = np.zeros((n_rows, g.m))
    y = np.zeros(n_rows)
    A[: Cb.shape[0]] = Cb
    rows = Cb.shape[0] + np.arange(len(net.rod_triples))
    A[rows, net.rod_triples.e1] = -_rod_ratios(net)
    A[rows, net.rod_triples.e2] = 1.0
    rows = Cb.shape[0] + len(net.rod_triples) + np.arange(len(net.anchor_edges))
    A[rows, net.anchor_edges] = 1.0
    y[rows] = list(net.anchor_distances.values())
    return A, y


@dataclass(frozen=True)
class LinearSystem:
    """A x = rhs with its rank, null basis and minimum-norm least-squares solution.

    ``matrix`` is a dense array for the full distance and bearing systems
    and a ``scipy.sparse`` CSC matrix for ``closure_system``.
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


_LU_BLOCK = 256  # columns of the inverse held at once by the certificate


def _lu_solved(A: csc_matrix, rhs: np.ndarray, rtol: float) -> LinearSystem | None:
    """The r x c system from one sparse LU, or None when its certificate cannot decide the rank.

    A wide A is completed to a square A_hat = [A; G] by a fixed seeded
    Gaussian block G of c - r rows, each of norm ||A||_F / sqrt(c).  Then
    sigma_max(A) <= ||A||_F and, by interlacing, sigma_r(A) >=
    sigma_min(A_hat) >= 1 / ||A_hat^-1||_F, so the bound
    rtol ||A||_F ||A_hat^-1||_F < 1/2 proves that all r singular values lie
    above twice the cut rtol * sigma_max: the rank is r, the SVD's verdict.
    The inverse is summed in column blocks and never held whole.  The null
    space is spanned by A_hat^-1 [0; I] and the minimum-norm solution is
    A_hat^-1 [rhs; 0] with its null component removed.  A tall system, an
    exactly singular LU or a failed bound give None.
    """
    r, c = A.shape
    if not 0 < r <= c:
        return None
    norm = float(np.linalg.norm(A.data))
    A_hat = A
    if r < c:
        G = np.random.default_rng(0).standard_normal((c - r, c))
        G *= norm / math.sqrt(c) / np.linalg.norm(G, axis=1, keepdims=True)
        A_hat = sparse_vstack([A, csc_matrix(G)], format="csc")
    try:
        lu = splu(A_hat)
    except RuntimeError:  # exactly singular
        return None
    inverse_sq, bound_sq = 0.0, (0.5 / (rtol * norm)) ** 2
    for k in range(0, c, _LU_BLOCK):
        inverse_sq += float(np.sum(lu.solve(np.eye(c, min(_LU_BLOCK, c - k), -k)) ** 2))
        if not inverse_sq < bound_sq:  # NaN fails too
            return None
    # Fortran order, as the SVD's vt[rank:].T: the multi-start's contractions run fastest on it.
    N = np.asfortranarray(np.linalg.qr(lu.solve(np.eye(c, c - r, -r)))[0])
    x = lu.solve(np.concatenate([rhs, np.zeros(c - r)]))
    return LinearSystem(A, rhs, r, N, x - N @ (N.T @ x), "sparse-lu")


def assemble_bearing_system(net: SensorNetwork, distances: np.ndarray, rtol: float = 1e-8) -> LinearSystem:
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
    C = fundamental_cycle_basis(g).toarray().astype(float)
    C1 = np.kron(C * (distances / net.unit), np.eye(2))
    n_rows = C1.shape[0] + 2 * len(sa) + 2 * len(net.anchor_bearings)
    A = np.zeros((n_rows, 2 * g.m))
    z = np.zeros(n_rows)
    A[: C1.shape[0]] = C1
    # One 2x2 block row per SA triple: s2 I on edge e2, -s1 R(theta) on edge e1.
    s1, s2, theta = _sa_relations(net)
    blocks = A[C1.shape[0] : C1.shape[0] + 2 * len(sa)].reshape(len(sa), 2, g.m, 2)
    k = np.arange(len(sa))
    blocks[k, :, sa.e2, :] = s2[:, None, None] * np.eye(2)
    blocks[k, :, sa.e1, :] = -s1[:, None, None] * rotation(theta).transpose(2, 0, 1)
    # One 2x2 identity block row per anchor pair, on its edge.
    rows = C1.shape[0] + 2 * len(sa) + 2 * np.arange(len(net.anchor_edges))[:, None] + [0, 1]
    A[rows, 2 * net.anchor_edges[:, None] + [0, 1]] = 1.0
    z[rows] = list(net.anchor_bearings.values())
    return _solved(A, z, rtol)


def _cycle_sums(net: SensorNetwork, distances: np.ndarray, bearings: np.ndarray) -> np.ndarray:
    """C (d * b) summed in edge order from the signed cycle entries, (..., m - n + 1, 2) for a batch of (d, b) or one."""
    cycle, edge, sign = net.cycle_entries
    n_cyc = net.graph.m - net.graph.n + 1
    w = sign * distances[..., edge]
    batch = w.shape[:-1]
    bins = (n_cyc * np.arange(math.prod(batch))[:, None] + cycle).ravel()
    sums = [np.bincount(bins, (w * bearings[..., edge, j]).ravel(), minlength=n_cyc * math.prod(batch)) for j in (0, 1)]
    return np.stack(sums, axis=-1).reshape(batch + (n_cyc, 2))


def _closure_entries(net: SensorNetwork, bearings: np.ndarray, distances: np.ndarray):
    """The nonzeros (rows, cols, vals) of the closure Jacobian d(C (d * b))/dx at bearings b and distances d.

    Each signed cycle entry (cycle c, edge e, sign s) puts on rows 2c,
    2c + 1 the block s d_e R(phi_e) on a free bearing's two columns and
    s rho_e b_e on a free distance's column; repeated (row, col) pairs sum.
    For a batch of (b, d), vals is (..., nnz) and rows and cols are shared.
    """
    bear, dist = net.bearing_param, net.distance_param
    cycle, edge, sign = net.cycle_entries
    r0, r1 = 2 * cycle, 2 * cycle + 1
    k = np.flatnonzero(bear.column[edge] >= 0)
    e, t = edge[k], 2 * bear.column[edge[k]]
    sd = sign[k] * distances[..., e]
    cos, sin = sd * np.cos(bear.transport[e]), sd * np.sin(bear.transport[e])
    rows, cols, vals = [r0[k], r1[k], r0[k], r1[k]], [t, t, t + 1, t + 1], [cos, sin, -sin, cos]
    k = np.flatnonzero(dist.column[edge] >= 0)
    e, t = edge[k], bear.dim + dist.column[edge[k]]
    scale = sign[k] * dist.transport[e]
    rows += [r0[k], r1[k]]
    cols += [t, t]
    vals += [scale * bearings[..., e, 0], scale * bearings[..., e, 1]]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals, axis=-1)


def closure_system(net: SensorNetwork, rtol: float = 1e-8) -> LinearSystem:
    """Cycle closure C (d * b) = 0 as one sparse linear system in the free references of propagation.

    Columns: the kw bearing references w, then the ky distance references
    y (in units of the largest anchor distance).  Rows: both coordinates of
    every fundamental cycle, 2(m - n + 1) in all.  The SA triples, RoD
    triples and anchor pairs hold by construction.  ``d * b`` is bilinear
    in (w, y) only on edges free on both sides, so without them the closure
    is exactly linear; with them this raises ``ValueError``.

    The matrix is the closure Jacobian (``_closure_entries``) at the
    propagated offsets (b0, d0), as ``scipy.sparse`` CSC, and the
    right-hand side is -C (d0 * b0).  One sparse LU decides the rank when
    its certificate proves full row rank (``_lu_solved``); otherwise (a
    tall or rank-deficient closure, or a bound too weak to decide) the
    dense SVD of ``_solved`` does, and ``factorization`` says which.
    """
    bear, dist = net.bearing_param, net.distance_param
    if np.any(~bear.resolved & ~dist.resolved):
        raise ValueError("an edge is free on both sides, so the closure is bilinear")
    d0, b0 = dist.offset / net.unit, bear.offset
    rows, cols, vals = _closure_entries(net, b0, d0)
    shape = (2 * (net.graph.m - net.graph.n + 1), bear.dim + dist.dim)
    A = csc_matrix((vals, (rows, cols)), shape=shape)
    rhs = -_cycle_sums(net, d0, b0).ravel()
    return _lu_solved(A, rhs, rtol) or replace(_solved(A.toarray(), rhs, rtol), matrix=A)


# --- solvers ----------------------------------------------------------------


@dataclass
class EdgeSolution:
    """Per-edge bearings/distances plus the solve verdict and evidence."""

    bearings: np.ndarray  # (m, 2)
    distances: np.ndarray  # (m,)
    method: str
    status: str  # localizable | unlocalizable | heuristic-unique | ambiguous | solver-failed | infeasible
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
    then join clusters in start order, each cluster represented by its
    best zero.  The first cluster answers: exact zeros' objectives are
    rounding noise, so which cluster they favour is not evidence.  One
    cluster is ``heuristic-unique``.
    """
    xs, objectives = np.asarray(xs), np.asarray(objectives)
    zero = objectives < config.zero_tol
    b, d = _edges_at(net, xs[zero])
    positive = np.all(d > 0, axis=1)
    b, d, obj = b[positive], d[positive] * net.unit, objectives[zero][positive]
    positions = recover_positions(net, b, d, warn=False)
    reps: list[int] = []  # per cluster, its best zero so far
    for k in range(len(obj)):
        j = next((j for j, r in enumerate(reps) if np.max(np.linalg.norm(positions[k] - positions[r], axis=1)) < config.cluster_tol * net.unit), None)
        if j is None:
            reps.append(k)
        elif obj[k] < obj[reps[j]]:
            reps[j] = k
    info.update(objective_best=float(np.min(objectives)), starts=len(objectives), heuristic=True, zero_clusters=len(reps))
    if not reps:
        b, d = _edges_at(net, xs[0])
        return EdgeSolution(b, d * net.unit, method, "infeasible" if np.any(zero) else "solver-failed", info)
    return EdgeSolution(b[reps[0]], d[reps[0]], method, "heuristic-unique" if len(reps) == 1 else "ambiguous", info)


def _solve(net: SensorNetwork, config: SolverConfig | None = None) -> EdgeSolution:
    """The one localization solve: the regime read off propagation, then the cycle closure.

    The regime is ``"sa"`` when every bearing propagates, else ``"rod"``
    when every distance does, else ``"general"``.  Without an edge free on
    both sides the closure is linear.  A trivial null space gives the exact
    answer (``localizable``, or ``infeasible`` if a distance is not
    positive).  With no free SA component every null direction keeps the
    closure, so a nontrivial null space is ``unlocalizable``.  Otherwise one
    batched Levenberg-Marquardt run moves every start z (the zero vector,
    then a Latin hypercube over +-``box_half_width``) to a zero of
    |w_c|^2 - 1, one residual per free SA component c, at w = w0 + N z;
    distinct zeros are clustered by position.  The ranks of the full
    distance and bearing systems follow from the null dimension whenever
    the other side is fully propagated.  ``info["factorization"]`` names
    what decided the closure's rank (``closure_system``).
    """
    config = config or SolverConfig()
    bear, dist = net.bearing_param, net.distance_param
    m, kw = net.graph.m, bear.dim
    method = "sa" if bear.fully_resolved else "rod" if dist.fully_resolved else "general"
    info = {**_evidence(net), "m": m, "variables": kw + dist.dim}
    if np.any(~bear.resolved & ~dist.resolved):
        return _bilinear_solve(net, config, method, info)
    system = closure_system(net, config.rtol)
    L = info["null_dim"] = system.null_dim
    info["factorization"] = system.factorization
    if bear.fully_resolved:
        info["rank_distance_system"] = m - L
    if dist.fully_resolved:
        info["rank_bearing_system"] = 2 * m - L
    x0 = system.min_norm_solution
    if L == 0 or kw == 0:
        b, d = _edges_at(net, x0)
        d = d * net.unit
        info["closure_residual"] = float(np.linalg.norm(system.matrix @ x0 - system.rhs))
        info["unit_norm_defect"] = _unit_norm_defect(b)
        status = "localizable" if L == 0 else "unlocalizable"
        if status == "localizable" and np.any(d <= 0):
            status = "infeasible"
            info["note"] = "solved distances not strictly positive"
        return EdgeSolution(b, d, method, status, info)

    N = system.null_basis
    Nw = N[:kw].reshape(-1, 2, L)
    w0 = x0[:kw].reshape(-1, 2)

    def norms(z):
        w = w0 + np.einsum("cjl,sl->scj", Nw, z)
        return (w * w).sum(axis=2) - 1.0, 2.0 * np.einsum("scj,cjl->scl", w, Nw)

    starts = np.zeros((config.starts, L))
    if config.starts > 1:
        pts = _latin_hypercube(np.random.default_rng(config.seed).spawn(1)[0], config.starts - 1, L)
        starts[1:] = (2.0 * pts - 1.0) * config.box_half_width
    z, r = _batched_lm(starts, norms, 4.0 * np.finfo(float).eps)
    return _cluster_zeros(net, x0 + z @ N.T, np.sum(r * r, axis=1), config, method, info)


def _bilinear_solve(net: SensorNetwork, config: SolverConfig, method: str, info: dict) -> EdgeSolution:
    """Multi-start over all free references x = (w, y) when an edge is free on both sides.

    The closure is then bilinear.  One batched Levenberg-Marquardt run
    minimizes the cycle closure, the unit norms of the free SA references
    and a hinge below ``positivity_eps`` on the distances (in units of the
    largest anchor distance) from a Latin hypercube of starts; distinct
    zeros are clustered by position, so the verdict is heuristic.  The
    closure and its Jacobian come from ``_cycle_sums`` and ``_closure_entries``.
    """
    bear, dist = net.bearing_param, net.distance_param
    kw, ky = bear.dim, dist.dim
    eps = config.positivity_eps
    comp = np.arange(kw).reshape(-1, 2)  # the coordinates of each free SA reference
    rows, kc = 2 * (net.graph.m - net.graph.n + 1), len(comp)
    free = np.flatnonzero(~dist.resolved)
    hinge_rows, hinge_cols, rho = rows + kc + free, kw + dist.column[free], dist.transport[free]

    def stacked(x):
        """Residuals (S, T) and Jacobians (S, T, kw + ky) of every start in the batch x."""
        b, d = _edges_at(net, x)
        r = np.concatenate([_cycle_sums(net, d, b).reshape(len(x), rows), (x[:, comp] ** 2).sum(axis=2) - 1.0, np.maximum(0.0, eps - d)], axis=1)
        J = np.zeros(r.shape + (kw + ky,))
        i, j, vals = _closure_entries(net, b, d)
        np.add.at(J, (slice(None), i, j), vals)
        J[:, rows + np.arange(kc)[:, None], comp] = 2.0 * x[:, comp]
        J[:, hinge_rows, hinge_cols] = -rho * (d[:, free] < eps)
        return r, J

    scale_guess = float(np.mean(list(net.anchor_distances.values()))) / net.unit
    starts = (2.0 * _latin_hypercube(np.random.default_rng(config.seed).spawn(1)[0], config.starts, kw + ky) - 1.0) * config.box_half_width
    starts[:, kw:] = np.abs(starts[:, kw:]) * scale_guess + 0.1 * scale_guess
    x, r = _batched_lm(starts, stacked, 4.0 * np.finfo(float).eps)
    return _cluster_zeros(net, x, np.sum(r * r, axis=1), config, method, info)


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
    s1, s2, theta = _sa_relations(net)
    rotated = np.einsum("ijk,kj->ki", rotation(theta), s1[:, None] * b[sa.e1])
    rot_res = np.max(np.linalg.norm(s2[:, None] * b[sa.e2] - rotated, axis=1), initial=0.0)
    d2 = d[rod.e2]
    ratio_res = np.max(np.abs(d2 - _rod_ratios(net) * d[rod.e1]) / np.maximum(d2, 1e-300), initial=0.0)
    cyc_res = float(np.max(np.abs(_cycle_sums(net, d, b)), initial=0.0))
    E = net.anchor_edges
    miss = b[E] - np.array(list(net.anchor_bearings.values()))
    # Row norms through matmul, which rounds as the 1-D ``np.linalg.norm`` does (its ``axis`` form does not).
    miss_b = np.sqrt((miss[:, None, :] @ miss[:, :, None]).ravel())
    anchor_res = float(max(0.0, *miss_b, *np.abs(d[E] - list(net.anchor_distances.values()))))
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

    A linear closure with a trivial null space, or a nontrivial one and no
    free SA component, is exact and keeps the solve status (``localizable``,
    ``unlocalizable``, ``infeasible``).  The multi-start cases (a nontrivial
    null space with unit-norm constraints, or an edge free on both sides)
    say so with ``heuristic: True``: ``heuristic-unique`` for one cluster of
    zeros, ``heuristic-ambiguous`` for two or more, and ``solver-failed`` or
    ``infeasible`` as the solve reports them when no zero with positive
    distances was found.  Warns when all anchors share one sensing
    attribute: the exact localizability criteria assume both kinds.
    """
    if len({net.framework.bipartition.attr(a) for a in net.anchors}) < 2:
        warnings.warn("anchors all share one sensing attribute; the exact localizability criteria assume both kinds", stacklevel=2)
    sol = _solve(net, config)
    return ("heuristic-ambiguous" if sol.status == "ambiguous" else sol.status), sol.info


# --- names benchmarks/tracing.py wraps by attribute -------------------------
# Nothing in the package calls these: localization factors through
# _lu_solved or _svd_factor and solves in _solve, recovery multiplies by the
# sparse root paths, and rigidity's least_squares imports scipy.optimize lazily.
from scipy.linalg import lstsq  # noqa: E402, F401

from .graph import path_matrix  # noqa: E402, F401
from .rigidity import least_squares, null_space, numerical_rank  # noqa: E402, F401

solve_sa_connected = solve_rod_connected = solve_disconnected = _solve
