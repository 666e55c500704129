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

Three solvers cover the connectivity regimes: a linear distance solve when
all bearings resolve, a (possibly null-space-parameterized) bearing solve
when all distances resolve, and a reduced nonlinear solve over the free
references when neither side resolves.  ``localize_network`` picks the
regime, and ``localizability_check`` reads its verdict off that same
localization.  The bearing system's cycle rows and the nonlinear solve
take distances in units of the largest anchor distance, so verdicts and
ranks do not depend on scale.  Positions are recovered by telescoping
edge displacements along the graph's cached spanning tree from an anchor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.linalg import lstsq
from scipy.optimize import least_squares
from scipy.stats import qmc

from .geometry import Framework, MeasurementSet, check_distinct, rotation, synthesize_measurements, wrap_angle
from .graph import Graph, TripleIndexSet, augment_anchor_clique, enumerate_triples, fundamental_cycle_basis, index_graph, path_matrix, tree_sums, triple_index_components
# benchmarks/tracing.py wraps numerical_rank, null_space and lstsq on this module.
from .rigidity import _svd_factor, null_space, numerical_rank  # noqa: F401

__all__ = [
    "InfeasibleMeasurementsError",
    "SensorNetwork",
    "SolverConfig",
    "EdgeSolution",
    "LocalizationResult",
    "build_network",
    "cycle_bearing_matrix",
    "propagate_bearings",
    "propagate_distances",
    "assemble_distance_system",
    "assemble_bearing_system",
    "solve_sa_connected",
    "solve_rod_connected",
    "solve_disconnected",
    "recover_positions",
    "localizability_check",
    "localize_network",
    "mean_squared_error",
]


class InfeasibleMeasurementsError(ValueError):
    """Raised when measurements are mutually inconsistent around an index cycle."""


@dataclass
class SolverConfig:
    """Settable solver options, plus the fixed tolerances every solve uses."""

    seed: int = 0
    starts: int = 20
    rtol: float = 1e-8
    zero_tol: ClassVar[float] = 1e-16  # accept threshold on the squared-residual objective
    cluster_tol: ClassVar[float] = 1e-6
    positivity_eps: ClassVar[float] = 1e-6
    consistency_tol: ClassVar[float] = 1e-8  # closure and anchor-agreement bound in propagation
    box_half_width: ClassVar[float] = 2.0


@dataclass(frozen=True)
class SensorNetwork:
    """Anchor-augmented framework plus exact measurements and anchor targets."""

    framework: Framework  # graph already carries the anchor clique
    anchors: tuple[int, ...]
    sa_triples: TripleIndexSet
    rod_triples: TripleIndexSet
    sa: dict
    rod: dict
    anchor_bearings: dict  # canonical edge -> unit 2-vector
    anchor_distances: dict  # canonical edge -> float

    @property
    def graph(self) -> Graph:
        return self.framework.graph

    @property
    def truth(self) -> np.ndarray:
        return self.framework.points

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
    anchors; warns when all anchors share one sensing attribute (the
    stricter anchor assumption is only needed for the localizability
    equivalences, not for solving).
    """
    anchor_list = tuple(sorted(set(int(a) for a in anchors)))
    if len(anchor_list) < 2:
        raise ValueError("need n_a >= 2 anchors (a single anchor leaves a free rotation)")
    check_distinct(fw.points)
    g_hat = augment_anchor_clique(fw.graph, anchor_list)
    fw_hat = Framework(g_hat, fw.bipartition, fw.points)
    attrs = {fw.bipartition.attr(a) for a in anchor_list}
    if len(attrs) < 2:
        warnings.warn("anchors all share one sensing attribute; the exact localizability criteria assume both kinds", stacklevel=2)
    sa_t, rod_t = enumerate_triples(g_hat, fw.bipartition, "full")
    if measurements is None:
        ms = synthesize_measurements(fw.points, sa_t, rod_t)
    else:
        missing = [t for t in sa_t.triples if t not in measurements.sa]
        missing += [t for t in rod_t.triples if t not in measurements.rod]
        if missing:
            raise ValueError(f"measurements missing for {len(missing)} triples, e.g. {missing[0]}")
        extra = [t for t in measurements.sa if t not in set(sa_t.triples)]
        extra += [t for t in measurements.rod if t not in set(rod_t.triples)]
        if extra:
            raise ValueError(f"measurements reference unknown triples, e.g. {extra[0]}")
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
    """Affine solution set over the m canonical edges.

    ``offset`` carries the resolved values (zeros on unresolved edges);
    ``basis`` spans the free directions (one 2-column block per unresolved
    SA component, one positive column per unresolved RoD component).
    ``closure_mismatch`` is the worst transport mismatch over all triples
    (radians for bearings, log-ratio for distances).
    """

    labels: np.ndarray  # (m,) component ids
    n_components: int
    offset: np.ndarray  # (m, 2) bearings or (m,) distances
    basis: np.ndarray  # (2m, 2k) or (m, k)
    resolved: np.ndarray  # (m,) bool
    closure_mismatch: float

    @property
    def fully_resolved(self) -> bool:
        return bool(self.resolved.all())

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


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


def _propagate(net: SensorNetwork, triples: TripleIndexSet, steps: np.ndarray, anchor_values: dict, period: float | None, side: str):
    """Additive potentials over one triple index graph, pinned by the anchor edges.

    Triple k carries the potential of its edge e1 to its edge e2 by adding
    ``steps[k]``.  Each component's smallest edge is its root, at potential
    0; every other edge sums the steps along a breadth-first tree from it
    (``graph.tree_sums``, the walk the vertex spanning tree uses too).  A
    component holding an anchor edge is shifted to reproduce the anchor
    value there.  Returns (labels, count, potentials, pinned potentials (NaN
    on free components), free component ids, worst closure mismatch);
    mismatches above the consistency tolerance raise
    ``InfeasibleMeasurementsError``.
    """
    g = net.graph
    labels, n_comp = triple_index_components(triples, g)
    roots = np.unique(labels, return_index=True)[1]
    pot = tree_sums(index_graph(triples, g.m), roots, steps)[2]
    tol = SolverConfig.consistency_tol
    mismatch = float(np.max(np.abs(_centered(pot[triples.e2] - pot[triples.e1] - steps, period)), initial=0.0))
    if mismatch > tol:
        raise InfeasibleMeasurementsError(f"infeasible {side} data: worst closure mismatch {mismatch:.3e} around an index cycle (tolerance {tol:g})")
    eidx = g.edge_index()
    edges = np.array([eidx[e] for e in anchor_values], dtype=int)
    shift = np.array(list(anchor_values.values()), dtype=float) - pot[edges]
    ref = np.full(n_comp, np.nan)
    ref[labels[edges]] = shift
    if np.any(np.abs(_centered(shift - ref[labels[edges]], period)) > tol):
        raise InfeasibleMeasurementsError(f"infeasible {side} data: anchor values disagree within a component")
    return labels, n_comp, pot, pot + ref[labels], np.flatnonzero(np.isnan(ref)), mismatch


def propagate_bearings(net: SensorNetwork) -> EdgeParameterization:
    """Resolve edge bearings per SA-index component.

    Within a component every edge bearing is a fixed rotation of the
    component reference; anchor-pair edges pin their component, other
    components contribute a free 2-vector each.  Inconsistent rotations
    around an index cycle raise ``InfeasibleMeasurementsError``.
    """
    s1, s2, theta = _sa_relations(net)
    steps = np.where(s1 * s2 < 0, theta + np.pi, theta)
    anchors = {e: float(np.arctan2(b[1], b[0])) for e, b in net.anchor_bearings.items()}
    labels, n_comp, phi, angle, free, mismatch = _propagate(net, net.sa_triples, steps, anchors, 2.0 * np.pi, "SA")
    e = np.flatnonzero(np.isnan(angle))
    t = np.searchsorted(free, labels[e])
    c, s = np.cos(phi[e]), np.sin(phi[e])
    basis = np.zeros((2 * net.graph.m, 2 * len(free)))
    basis[2 * e, 2 * t], basis[2 * e + 1, 2 * t] = c, s  # R(phi) e_x
    basis[2 * e, 2 * t + 1], basis[2 * e + 1, 2 * t + 1] = -s, c  # R(phi) e_y
    offset = np.nan_to_num(np.column_stack([np.cos(angle), np.sin(angle)]))
    return EdgeParameterization(labels, n_comp, offset, basis, ~np.isnan(angle), mismatch)


def propagate_distances(net: SensorNetwork) -> EdgeParameterization:
    """Resolve edge distances per RoD-index component (ratios transported as log-sums)."""
    anchors = {e: float(np.log(d)) for e, d in net.anchor_distances.items()}
    labels, n_comp, log_rho, log_d, free, mismatch = _propagate(net, net.rod_triples, np.log(_rod_ratios(net)), anchors, None, "RoD")
    e = np.flatnonzero(np.isnan(log_d))
    basis = np.zeros((net.graph.m, len(free)))
    basis[e, np.searchsorted(free, labels[e])] = np.exp(log_rho[e])
    offset = np.nan_to_num(np.exp(log_d))
    return EdgeParameterization(labels, n_comp, offset, basis, ~np.isnan(log_d), mismatch)


# --- linear systems ---------------------------------------------------------


def cycle_bearing_matrix(g: Graph, bearings: np.ndarray) -> np.ndarray:
    """Column-wise pairing of cycle-basis signs with edge bearings, 2(m-n+1) x m."""
    C = fundamental_cycle_basis(g).matrix.astype(float)
    return (C[:, None, :] * bearings.T).reshape(-1, g.m)


def assemble_distance_system(net: SensorNetwork, bearings: np.ndarray):
    """Stacked linear system A d = y on the m edge distances.

    Rows: the cycle bearing matrix (rhs 0), one row per RoD triple
    (-kappa at the (r,s)-edge, +1 at the (r,t)-edge, rhs 0), and one row
    per anchor pair (rhs the anchor distance).  Needs a full bearing
    vector.
    """
    g = net.graph
    eidx = g.edge_index()
    Cb = cycle_bearing_matrix(g, bearings)
    n_rows = Cb.shape[0] + len(net.rod_triples) + len(net.anchor_distances)
    A = np.zeros((n_rows, g.m))
    y = np.zeros(n_rows)
    A[: Cb.shape[0]] = Cb
    rows = Cb.shape[0] + np.arange(len(net.rod_triples))
    A[rows, net.rod_triples.e1] = -_rod_ratios(net)
    A[rows, net.rod_triples.e2] = 1.0
    r = Cb.shape[0] + len(net.rod_triples)
    for (i, j), d_star in sorted(net.anchor_distances.items()):
        A[r, eidx[(i, j)]] = 1.0
        y[r] = d_star
        r += 1
    return A, y


@dataclass(frozen=True)
class BearingSystem:
    matrix: np.ndarray  # (t, 2m)
    rhs: np.ndarray
    rank: int
    null_dim: int
    null_basis: np.ndarray  # (2m, L)
    min_norm_solution: np.ndarray  # (2m,)


def assemble_bearing_system(net: SensorNetwork, distances: np.ndarray, rtol: float = 1e-8) -> BearingSystem:
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
    eidx = g.edge_index()
    sa = net.sa_triples
    C = fundamental_cycle_basis(g).matrix.astype(float)
    C1 = np.kron(C * (distances / max(net.anchor_distances.values())), np.eye(2))
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
    r = C1.shape[0] + 2 * len(sa)
    for (i, j), b_star in sorted(net.anchor_bearings.items()):
        e = eidx[(i, j)]
        A[r : r + 2, 2 * e : 2 * e + 2] = np.eye(2)
        z[r : r + 2] = b_star
        r += 2
    rank, basis, sol = _min_norm_solve(A, z, rtol)
    return BearingSystem(A, z, rank, 2 * g.m - rank, basis, sol)


def _min_norm_solve(A: np.ndarray, rhs: np.ndarray, rtol: float):
    """(rank, null basis, min-norm least-squares solution) of A x = rhs from one SVD, cut as gelsd's cond=rtol."""
    rank, s, u, vt = _svd_factor(A, rtol)
    x = vt[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank])
    return rank, vt[rank:].T, x


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


def solve_sa_connected(net: SensorNetwork, config: SolverConfig | None = None) -> EdgeSolution:
    """Bearings by propagation, distances by one linear least-squares solve.

    Localizable exactly when the distance system has full column rank m.
    """
    config = config or SolverConfig()
    if not net.bearing_param.fully_resolved:
        raise ValueError("bearings unresolved; use disconnected solver")
    info = _evidence(net)
    b = net.bearing_param.offset
    A, y = assemble_distance_system(net, b)
    rank, _, d = _min_norm_solve(A, y, config.rtol)
    status = "localizable" if rank == net.graph.m else "unlocalizable"
    info.update(
        rank_distance_system=rank,
        m=net.graph.m,
        distance_residual=float(np.linalg.norm(A @ d - y)),
        unit_norm_defect=_unit_norm_defect(b),
    )
    if status == "localizable" and np.any(d <= 0):
        status = "infeasible"
        info["note"] = "solved distances not strictly positive"
    return EdgeSolution(b, d, "sa-connected", status, info)


def _cluster_positions(net: SensorNetwork, candidates, tol_scale: float, method: str, info: dict) -> EdgeSolution:
    """Cluster candidate (b, d) zeros by recovered positions; the best zero answers, unique if one cluster."""
    scale = max(net.anchor_distances.values())
    reps = []
    for b, d, obj in candidates:
        x = recover_positions(net, b, d, warn=False)
        new = True
        for rep in reps:
            if np.max(np.linalg.norm(x - rep["positions"], axis=1)) < tol_scale * scale:
                new = False
                if obj < rep["objective"]:
                    rep.update(bearings=b, distances=d, positions=x, objective=obj)
                break
        if new:
            reps.append({"bearings": b, "distances": d, "positions": x, "objective": obj})
    info["zero_clusters"] = len(reps)
    best = min(reps, key=lambda r: r["objective"])
    return EdgeSolution(best["bearings"], best["distances"], method, "heuristic-unique" if len(reps) == 1 else "ambiguous", info)


def solve_rod_connected(net: SensorNetwork, config: SolverConfig | None = None) -> EdgeSolution:
    """Distances by propagation, bearings from the bearing system.

    With a trivial null space the minimum-norm solution is the answer;
    otherwise the unit-norm defect is minimized over the null-space
    coordinates by damped Gauss-Newton from multiple seeded starts, and
    distinct converged zeros are clustered to assess uniqueness.
    """
    config = config or SolverConfig()
    if not net.distance_param.fully_resolved:
        raise ValueError("distances unresolved; use disconnected solver")
    info = _evidence(net)
    d = net.distance_param.offset
    system = assemble_bearing_system(net, d, config.rtol)
    info.update(rank_bearing_system=system.rank, null_dim=system.null_dim, m=net.graph.m)
    if system.null_dim == 0:
        b = system.min_norm_solution.reshape(-1, 2)
        info["bearing_residual"] = float(np.linalg.norm(system.matrix @ system.min_norm_solution - system.rhs))
        info["unit_norm_defect"] = _unit_norm_defect(b)
        return EdgeSolution(b, d, "rod-connected", "localizable", info)

    L = system.null_dim
    b0 = system.min_norm_solution
    N = system.null_basis

    def bearing_stack(w):
        return b0 + N @ w

    def residuals(w):
        b = bearing_stack(w).reshape(-1, 2)
        return (b * b).sum(axis=1) - 1.0

    def jac(w):
        b = bearing_stack(w)
        return 2.0 * (N * b[:, None]).reshape(-1, 2, L).sum(axis=1)

    rng = np.random.default_rng(config.seed)
    sampler = qmc.LatinHypercube(d=L, seed=rng)
    starts = [np.zeros(L)]
    if config.starts > 1:
        pts = sampler.random(config.starts - 1)
        starts += list((2.0 * pts - 1.0) * config.box_half_width)
    zeros = []
    best_obj = np.inf
    for w0 in starts:
        sol = least_squares(residuals, w0, jac=jac, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        obj = float(np.sum(sol.fun**2))
        best_obj = min(best_obj, obj)
        if obj < config.zero_tol:
            b = bearing_stack(sol.x).reshape(-1, 2)
            zeros.append((b, d, obj))
    info.update(objective_best=best_obj, starts=len(starts), heuristic=True, zero_clusters=0)
    if not zeros:
        return EdgeSolution(b0.reshape(-1, 2), d, "rod-connected", "solver-failed", info)
    return _cluster_positions(net, zeros, config.cluster_tol, "rod-connected", info)


def solve_disconnected(net: SensorNetwork, config: SolverConfig | None = None) -> EdgeSolution:
    """Joint solve over the free bearing/distance references of all components.

    Minimizes the squared cycle-closure and unit-norm residuals over the
    affine parameterizations from propagation, with a quadratic penalty
    against nonpositive distances; feasibility is re-checked at accepted
    zeros.  Distances are solved in units of the largest anchor distance,
    so the positivity margin and the zero threshold are relative bounds.
    """
    config = config or SolverConfig()
    bear, dist = net.bearing_param, net.distance_param
    g = net.graph
    m = g.m
    C = fundamental_cycle_basis(g).matrix.astype(float)
    kw = bear.dim
    ky = dist.dim
    NB = bear.basis  # (2m, kw)
    ND = dist.basis  # (m, ky), dimensionless ratios
    b0 = bear.offset.ravel()
    unit = max(net.anchor_distances.values())
    d0 = dist.offset / unit
    eps = config.positivity_eps
    scale_guess = float(np.mean(list(net.anchor_distances.values()))) / unit

    def split(x):
        return x[:kw], x[kw:]

    def bearings_of(w):
        return (b0 + NB @ w).reshape(m, 2)

    def distances_of(y):
        return d0 + ND @ y

    def residuals(x):
        w, y = split(x)
        b = bearings_of(w)
        d = distances_of(y)
        v = d[:, None] * b
        r_cyc = np.column_stack([C @ v[:, 0], C @ v[:, 1]]).ravel()
        r_norm = (b * b).sum(axis=1) - 1.0
        r_pos = np.maximum(0.0, eps - d)
        return np.concatenate([r_cyc, r_norm, r_pos])

    def jacobian(x):
        w, y = split(x)
        b = bearings_of(w)
        d = distances_of(y)
        ncyc = C.shape[0]
        J = np.zeros((2 * ncyc + m + m, kw + ky))
        NBx = NB[0::2]  # (m, kw): x-components of the bearing basis
        NBy = NB[1::2]
        # cycle rows, interleaved (cycle, x) then (cycle, y)
        J[0 : 2 * ncyc : 2, :kw] = C @ (d[:, None] * NBx)
        J[1 : 2 * ncyc : 2, :kw] = C @ (d[:, None] * NBy)
        J[0 : 2 * ncyc : 2, kw:] = C @ (b[:, 0:1] * ND)
        J[1 : 2 * ncyc : 2, kw:] = C @ (b[:, 1:2] * ND)
        J[2 * ncyc : 2 * ncyc + m, :kw] = 2.0 * (b[:, 0:1] * NBx + b[:, 1:2] * NBy)
        active = d < eps
        J[2 * ncyc + m :, kw:] = -(ND * active[:, None])
        return J

    # The cycle rows are linear in w for fixed d and linear in y for fixed
    # b (exactly linear jointly when no edge is free on both sides), so a
    # few alternating least-squares sweeps give an excellent start.
    def smart_start():
        x0 = np.zeros(kw + ky)
        x0[kw:] = scale_guess
        for _ in range(3):
            w, y = split(x0)
            d = distances_of(y)
            if kw:
                Aw = np.vstack([C @ (d[:, None] * NB[0::2]), C @ (d[:, None] * NB[1::2])])
                rw = -np.concatenate([C @ (d * b0[0::2]), C @ (d * b0[1::2])])
                w = lstsq(Aw, rw, cond=config.rtol, lapack_driver="gelsd")[0]
            b = (b0 + NB @ w).reshape(m, 2)
            if ky:
                Ay = np.vstack([C @ (b[:, 0:1] * ND), C @ (b[:, 1:2] * ND)])
                ry = -np.concatenate([C @ (b[:, 0] * d0), C @ (b[:, 1] * d0)])
                y = lstsq(Ay, ry, cond=config.rtol, lapack_driver="gelsd")[0]
            x0 = np.concatenate([w, y])
        return x0

    dim = kw + ky
    starts = [smart_start()]
    if dim and config.starts > 1:
        pts = qmc.LatinHypercube(d=dim, seed=np.random.default_rng(config.seed)).random(config.starts - 1)
        for row in pts:
            x0 = (2.0 * row - 1.0) * config.box_half_width
            x0[kw:] = np.abs(x0[kw:]) * scale_guess + 0.1 * scale_guess
            starts.append(x0)

    zeros = []
    best_obj = np.inf
    positivity_failures = 0
    for x0 in starts:
        if dim == 0:
            sol_x, obj = x0, float(np.sum(residuals(x0) ** 2))
        else:
            sol = least_squares(residuals, x0, jac=jacobian, method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
            sol_x = sol.x
            obj = float(np.sum(sol.fun**2))
        best_obj = min(best_obj, obj)
        if obj < config.zero_tol:
            w, y = split(sol_x)
            d = distances_of(y)
            if np.all(d > 0):
                zeros.append((bearings_of(w), d * unit, obj))
            else:
                positivity_failures += 1
    info = {**_evidence(net), "variables": dim, "objective_best": best_obj, "starts": len(starts), "heuristic": True, "zero_clusters": 0}
    if not zeros:
        status = "infeasible" if positivity_failures else "solver-failed"
        return EdgeSolution(bear.offset, dist.offset, "disconnected", status, info)
    return _cluster_positions(net, zeros, config.cluster_tol, "disconnected", info)


# --- recovery and dispatch --------------------------------------------------


def recover_positions(net: SensorNetwork, bearings: np.ndarray, distances: np.ndarray, warn: bool = True, reverse_tree: bool = False) -> np.ndarray:
    """Positions by telescoping signed edge displacements from an anchor.

    The base vertex is the lowest-index anchor; its true position seeds the
    tree-path accumulation x = x_base + P (d * b) along the graph's cached
    spanning tree.  A warning is issued when the other anchors are not
    reproduced (gauge drift).
    """
    base = min(net.anchors)
    P = path_matrix(net.graph, base, reverse_neighbors=reverse_tree).matrix.astype(float)
    disp = distances[:, None] * bearings
    x = net.truth[base - 1] + P @ disp
    if warn:
        drift = max(np.linalg.norm(x[a - 1] - net.truth[a - 1]) for a in net.anchors)
        if drift > 1e-6:
            warnings.warn(f"gauge drift: anchor residual {drift:.3e}", stacklevel=2)
    return x


def mean_squared_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.sum((np.asarray(estimate) - np.asarray(truth)) ** 2, axis=1)))


def solution_residuals(net: SensorNetwork, solution: EdgeSolution) -> dict:
    """Worst constraint violations of an edge solution, per constraint family.

    Rotation and ratio residuals cover every measurement triple, cycle
    residuals every fundamental cycle, anchor residuals every anchor pair;
    ``unit_norm`` is the largest deviation of a bearing from unit length.
    """
    g = net.graph
    eidx = g.edge_index()
    b, d = solution.bearings, solution.distances
    sa, rod = net.sa_triples, net.rod_triples
    s1, s2, theta = _sa_relations(net)
    rotated = np.einsum("ijk,kj->ki", rotation(theta), s1[:, None] * b[sa.e1])
    rot_res = np.max(np.linalg.norm(s2[:, None] * b[sa.e2] - rotated, axis=1), initial=0.0)
    d2 = d[rod.e2]
    ratio_res = np.max(np.abs(d2 - _rod_ratios(net) * d[rod.e1]) / np.maximum(d2, 1e-300), initial=0.0)
    Cb = cycle_bearing_matrix(g, b)
    cyc_res = float(np.max(np.abs(Cb @ d))) if Cb.size else 0.0
    anchor_res = 0.0
    for (i, j), b_star in net.anchor_bearings.items():
        e = eidx[(i, j)]
        anchor_res = max(anchor_res, float(np.linalg.norm(b[e] - b_star)))
        anchor_res = max(anchor_res, abs(d[e] - net.anchor_distances[(i, j)]))
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
    method: str


def localize_network(net: SensorNetwork, method: str = "auto", config: SolverConfig | None = None) -> LocalizationResult:
    """Run the solver matching the measurement connectivity (or the requested one)."""
    if method == "auto":
        method = "sa" if net.bearing_param.fully_resolved else "rod" if net.distance_param.fully_resolved else "general"
    solvers = {"sa": solve_sa_connected, "rod": solve_rod_connected, "general": solve_disconnected}
    if method not in solvers:
        raise ValueError(f"unknown method {method!r}")
    sol = solvers[method](net, config)
    x = recover_positions(net, sol.bearings, sol.distances, warn=False)
    return LocalizationResult(sol, x, mean_squared_error(x, net.truth), method)


def localizability_check(net: SensorNetwork, config: SolverConfig | None = None) -> tuple[str, dict]:
    """Localizability verdict of the "auto" localization, with its evidence.

    The exact regimes (all bearings resolve: distance-system rank; all
    distances resolve with a trivial bearing null space) keep the solve
    status.  The multi-start regimes give ``heuristic-unique`` or
    ``heuristic-ambiguous`` and say so with ``heuristic: True``.
    """
    sol = localize_network(net, "auto", config).solution
    if not sol.info.get("heuristic"):
        return sol.status, sol.info
    return ("heuristic-unique" if sol.status == "heuristic-unique" else "heuristic-ambiguous"), sol.info
