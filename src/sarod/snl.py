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
Three solvers cover the connectivity regimes: a linear distance solve when
all bearings resolve, a (possibly null-space-parameterized) bearing solve
when all distances resolve, and a reduced nonlinear solve over the free
references when neither side resolves.  Positions are recovered by
telescoping edge displacements along spanning-tree paths from an anchor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lstsq
from scipy.optimize import least_squares
from scipy.stats import qmc

from .geometry import Framework, MeasurementSet, check_distinct, rotation, synthesize_measurements, wrap_angle
from .graph import Graph, TripleIndexSet, augment_anchor_clique, enumerate_triples, fundamental_cycle_basis, path_matrix, triple_index_components
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
    """

    kind: str  # "bearing" | "distance"
    labels: np.ndarray  # (m,) component ids
    n_components: int
    offset: np.ndarray  # (m, 2) bearings or (m,) distances
    basis: np.ndarray  # (2m, 2k) or (m, k)
    free_components: tuple[int, ...]
    resolved: np.ndarray  # (m,) bool

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
    tri = np.array(net.sa_triples.triples, dtype=int).reshape(-1, 3)
    s1 = np.where(tri[:, 0] < tri[:, 1], 1.0, -1.0)
    s2 = np.where(tri[:, 0] < tri[:, 2], 1.0, -1.0)
    theta = np.array([net.sa[t] for t in net.sa_triples.triples], dtype=float)
    return s1, s2, theta


def _rod_ratios(net: SensorNetwork) -> np.ndarray:
    return np.array([net.rod[t] for t in net.rod_triples.triples], dtype=float)


def _component_walk(net: SensorNetwork, triples: TripleIndexSet, deltas, combine, check, start_value):
    """Generic BFS over a triple index graph, accumulating per-edge transport.

    ``deltas[k]`` is the transport across triple k (from its edge ``e1`` to
    its edge ``e2``); ``combine(acc, delta, forward)`` transports the
    accumulator across the index edge; ``check(expected, actual)``
    validates closure on non-tree index edges.
    """
    g = net.graph
    adj: list[list[tuple[int, object]]] = [[] for _ in range(g.m)]
    for e1, e2, delta in zip(triples.e1.tolist(), triples.e2.tolist(), deltas):
        adj[e1].append((e2, (delta, True)))
        adj[e2].append((e1, (delta, False)))
    labels = np.full(g.m, -1, dtype=int)
    value = [start_value] * g.m
    n_comp = 0
    for root in range(g.m):
        if labels[root] >= 0:
            continue
        labels[root] = n_comp
        value[root] = start_value
        stack = [root]
        while stack:
            e = stack.pop()
            for (f, (delta, forward)) in adj[e]:
                cand = combine(value[e], delta, forward)
                if labels[f] < 0:
                    labels[f] = n_comp
                    value[f] = cand
                    stack.append(f)
                else:
                    check(value[f], cand)
        n_comp += 1
    return labels, n_comp, value


def propagate_bearings(net: SensorNetwork, tol: float = 1e-8) -> EdgeParameterization:
    """Resolve edge bearings per SA-index component.

    Within a component every edge bearing is a fixed rotation of the
    component reference; anchor-pair edges pin their component, other
    components contribute a free 2-vector each.  Inconsistent rotations
    around an index cycle raise ``InfeasibleMeasurementsError``.
    """
    g = net.graph
    eidx = g.edge_index()
    s1, s2, theta = _sa_relations(net)
    theta = np.where(s1 * s2 < 0, theta + np.pi, theta)

    def combine(phi, theta, forward):
        return phi + theta if forward else phi - theta

    def check(expected, actual):
        err = np.mod(expected - actual + np.pi, 2.0 * np.pi) - np.pi
        if abs(err) > tol:
            raise InfeasibleMeasurementsError(f"infeasible SA data: rotation mismatch {err:.3e} around an index cycle")

    labels, n_comp, phi = _component_walk(net, net.sa_triples, theta.tolist(), combine, check, 0.0)
    phi = np.array(phi)

    offset = np.zeros((g.m, 2))
    resolved = np.zeros(g.m, dtype=bool)
    comp_ref: dict[int, np.ndarray] = {}
    for (i, j), b_star in net.anchor_bearings.items():
        e = eidx[(i, j)]
        c = labels[e]
        ref = rotation(-phi[e]) @ b_star
        if c in comp_ref:
            if np.linalg.norm(comp_ref[c] - ref) > tol:
                raise InfeasibleMeasurementsError("infeasible SA data: anchor bearings disagree within a component")
        else:
            comp_ref[c] = ref
    for e in range(g.m):
        c = labels[e]
        if c in comp_ref:
            offset[e] = rotation(phi[e]) @ comp_ref[c]
            resolved[e] = True
    free = tuple(c for c in range(n_comp) if c not in comp_ref)
    basis = np.zeros((2 * g.m, 2 * len(free)))
    for t, c in enumerate(free):
        for e in np.nonzero(labels == c)[0]:
            R = rotation(phi[e])
            basis[2 * e : 2 * e + 2, 2 * t] = R[:, 0]
            basis[2 * e : 2 * e + 2, 2 * t + 1] = R[:, 1]
    return EdgeParameterization("bearing", labels, n_comp, offset, basis, free, resolved)


def propagate_distances(net: SensorNetwork, tol: float = 1e-8) -> EdgeParameterization:
    """Resolve edge distances per RoD-index component (multiplicative transport)."""
    g = net.graph
    eidx = g.edge_index()

    def combine(rho, kappa, forward):
        return rho * kappa if forward else rho / kappa

    def check(expected, actual):
        if abs(expected / actual - 1.0) > tol:
            raise InfeasibleMeasurementsError(f"infeasible RoD data: ratio mismatch {expected / actual - 1.0:.3e} around an index cycle")

    labels, n_comp, rho = _component_walk(net, net.rod_triples, _rod_ratios(net).tolist(), combine, check, 1.0)
    rho = np.array(rho)

    offset = np.zeros(g.m)
    resolved = np.zeros(g.m, dtype=bool)
    comp_scale: dict[int, float] = {}
    for (i, j), d_star in net.anchor_distances.items():
        e = eidx[(i, j)]
        c = labels[e]
        scale = d_star / rho[e]
        if c in comp_scale:
            if abs(comp_scale[c] / scale - 1.0) > tol:
                raise InfeasibleMeasurementsError("infeasible RoD data: anchor distances disagree within a component")
        else:
            comp_scale[c] = scale
    for e in range(g.m):
        c = labels[e]
        if c in comp_scale:
            offset[e] = rho[e] * comp_scale[c]
            resolved[e] = True
    free = tuple(c for c in range(n_comp) if c not in comp_scale)
    basis = np.zeros((g.m, len(free)))
    for t, c in enumerate(free):
        mask = labels == c
        basis[mask, t] = rho[mask]
    return EdgeParameterization("distance", labels, n_comp, offset, basis, free, resolved)


# --- linear systems ---------------------------------------------------------


def cycle_bearing_matrix(g: Graph, bearings: np.ndarray) -> np.ndarray:
    """Column-wise pairing of cycle-basis signs with edge bearings, 2(m-n+1) x m."""
    C = fundamental_cycle_basis(g).matrix.astype(float)
    ncyc = C.shape[0]
    Cb = np.zeros((2 * ncyc, g.m))
    Cb[0::2] = C * bearings[:, 0]
    Cb[1::2] = C * bearings[:, 1]
    return Cb


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
    with I_2), one 2-row block per SA triple enforcing the rotation
    relation in canonical edge coordinates, and one 2-row block per anchor
    pair pinning its bearing.  Returns the system with its rank, null-space
    basis, and minimum-norm solution at the shared tolerance, all from one
    SVD.
    """
    g = net.graph
    eidx = g.edge_index()
    sa = net.sa_triples
    C = fundamental_cycle_basis(g).matrix.astype(float)
    C1 = np.kron(C * distances, np.eye(2))
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
class SolverConfig:
    seed: int = 0
    starts: int = 20
    rtol: float = 1e-8
    zero_tol: float = 1e-16  # accept threshold on the squared-residual objective
    cluster_tol: float = 1e-6
    positivity_eps: float = 1e-6
    consistency_tol: float = 1e-8
    box_half_width: float = 2.0


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


def solve_sa_connected(net: SensorNetwork, config: SolverConfig | None = None) -> EdgeSolution:
    """Bearings by propagation, distances by one linear least-squares solve.

    Localizable exactly when the distance system has full column rank m.
    """
    config = config or SolverConfig()
    state = propagate_bearings(net, config.consistency_tol)
    if not state.fully_resolved:
        raise ValueError("bearings unresolved; use disconnected solver")
    b = state.offset
    A, y = assemble_distance_system(net, b)
    rank, _, d = _min_norm_solve(A, y, config.rtol)
    residual = float(np.linalg.norm(A @ d - y))
    status = "localizable" if rank == net.graph.m else "unlocalizable"
    info = {
        "rank_distance_system": rank,
        "m": net.graph.m,
        "distance_residual": residual,
        "unit_norm_defect": _unit_norm_defect(b),
        "sa_components": state.n_components,
    }
    if status == "localizable" and np.any(d <= 0):
        status = "infeasible"
        info["note"] = "solved distances not strictly positive"
    return EdgeSolution(b, d, "sa-connected", status, info)


def _cluster_positions(net: SensorNetwork, candidates, tol_scale: float):
    """Group candidate (b, d) zeros whose recovered positions coincide."""
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
    return reps


def solve_rod_connected(net: SensorNetwork, config: SolverConfig | None = None) -> EdgeSolution:
    """Distances by propagation, bearings from the bearing system.

    With a trivial null space the minimum-norm solution is the answer;
    otherwise the unit-norm defect is minimized over the null-space
    coordinates by damped Gauss-Newton from multiple seeded starts, and
    distinct converged zeros are clustered to assess uniqueness.
    """
    config = config or SolverConfig()
    state = propagate_distances(net, config.consistency_tol)
    if not state.fully_resolved:
        raise ValueError("distances unresolved; use disconnected solver")
    d = state.offset
    system = assemble_bearing_system(net, d, config.rtol)
    info = {
        "rank_bearing_system": system.rank,
        "null_dim": system.null_dim,
        "m": net.graph.m,
        "rod_components": state.n_components,
    }
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
    info["objective_best"] = best_obj
    info["starts"] = len(starts)
    if not zeros:
        return EdgeSolution(b0.reshape(-1, 2), d, "rod-connected", "solver-failed", info)
    reps = _cluster_positions(net, zeros, config.cluster_tol)
    info["zero_clusters"] = len(reps)
    best = min(reps, key=lambda r: r["objective"])
    status = "heuristic-unique" if len(reps) == 1 else "ambiguous"
    return EdgeSolution(best["bearings"], best["distances"], "rod-connected", status, info)


def solve_disconnected(net: SensorNetwork, config: SolverConfig | None = None) -> EdgeSolution:
    """Joint solve over the free bearing/distance references of all components.

    Minimizes the squared cycle-closure and unit-norm residuals over the
    affine parameterizations from propagation, with a quadratic penalty
    against nonpositive distances; feasibility is re-checked at accepted
    zeros.
    """
    config = config or SolverConfig()
    bear = propagate_bearings(net, config.consistency_tol)
    dist = propagate_distances(net, config.consistency_tol)
    g = net.graph
    m = g.m
    C = fundamental_cycle_basis(g).matrix.astype(float)
    kw = bear.dim
    ky = dist.dim
    NB = bear.basis  # (2m, kw)
    ND = dist.basis  # (m, ky)
    b0 = bear.offset.ravel()
    d0 = dist.offset
    eps = config.positivity_eps
    scale_guess = float(np.mean(list(net.anchor_distances.values())))

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

    def objective(x):
        r = residuals(x)
        return float(np.sum(r**2))

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

    rng = np.random.default_rng(config.seed)
    dim = kw + ky
    starts = []
    if dim == 0:
        starts = [np.zeros(0)]
    else:
        starts.append(smart_start())
        if config.starts > 1:
            sampler = qmc.LatinHypercube(d=dim, seed=rng)
            pts = sampler.random(config.starts - 1)
            for row in pts:
                x0 = (2.0 * row - 1.0) * config.box_half_width
                x0[kw:] = np.abs(x0[kw:]) * scale_guess + 0.1 * scale_guess
                starts.append(x0)

    zeros = []
    best_obj = np.inf
    positivity_failures = 0
    for x0 in starts:
        if dim == 0:
            obj = objective(x0)
            sol_x = x0
        else:
            sol = least_squares(residuals, x0, jac=jacobian, method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
            sol_x = sol.x
            obj = float(np.sum(sol.fun**2))
        best_obj = min(best_obj, obj)
        if obj < config.zero_tol:
            w, y = split(sol_x)
            d = distances_of(y)
            if np.all(d > 0):
                zeros.append((bearings_of(w), d, obj))
            else:
                positivity_failures += 1
    info = {
        "free_bearing_dim": kw,
        "free_distance_dim": ky,
        "variables": dim,
        "sa_components": bear.n_components,
        "rod_components": dist.n_components,
        "objective_best": best_obj,
        "starts": len(starts),
    }
    if not zeros:
        status = "infeasible" if positivity_failures else "solver-failed"
        return EdgeSolution(bear.offset, dist.offset, "disconnected", status, info)
    reps = _cluster_positions(net, zeros, config.cluster_tol)
    info["zero_clusters"] = len(reps)
    best = min(reps, key=lambda r: r["objective"])
    status = "heuristic-unique" if len(reps) == 1 else "ambiguous"
    return EdgeSolution(best["bearings"], best["distances"], "disconnected", status, info)


# --- recovery and dispatch --------------------------------------------------


def recover_positions(net: SensorNetwork, bearings: np.ndarray, distances: np.ndarray, base: int | None = None, warn: bool = True, reverse_tree: bool = False) -> np.ndarray:
    """Positions by telescoping signed edge displacements from an anchor.

    The base vertex defaults to the lowest-index anchor; its true position
    seeds the tree-path accumulation x = x_base + P (d * b).  A warning is
    issued when the other anchors are not reproduced (gauge drift).
    """
    if base is None:
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


def localizability_check(net: SensorNetwork, config: SolverConfig | None = None) -> tuple[str, dict]:
    """Dispatching localizability verdict with its evidence.

    Fully resolved bearings reduce the question to the distance-system rank
    (exact); fully resolved distances with a trivial bearing null space are
    exact as well; anything else falls back to the multi-start uniqueness
    heuristic and says so.
    """
    config = config or SolverConfig()
    bear = propagate_bearings(net, config.consistency_tol)
    dist = propagate_distances(net, config.consistency_tol)
    evidence = {
        "sa_components": bear.n_components,
        "rod_components": dist.n_components,
        "free_bearing_dim": bear.dim,
        "free_distance_dim": dist.dim,
    }
    if bear.fully_resolved:
        A, _ = assemble_distance_system(net, bear.offset)
        rank, _ = numerical_rank(A, config.rtol)
        evidence["rank_distance_system"] = rank
        evidence["m"] = net.graph.m
        return ("localizable" if rank == net.graph.m else "unlocalizable"), evidence
    if dist.fully_resolved:
        system = assemble_bearing_system(net, dist.offset, config.rtol)
        evidence["rank_bearing_system"] = system.rank
        evidence["null_dim"] = system.null_dim
        if system.null_dim == 0:
            return "localizable", evidence
        sol = solve_rod_connected(net, config)
        evidence["zero_clusters"] = sol.info.get("zero_clusters", 0)
        evidence["heuristic"] = True
        return ("heuristic-unique" if sol.status == "heuristic-unique" else "heuristic-ambiguous"), evidence
    sol = solve_disconnected(net, config)
    evidence["zero_clusters"] = sol.info.get("zero_clusters", 0)
    evidence["heuristic"] = True
    return ("heuristic-unique" if sol.status == "heuristic-unique" else "heuristic-ambiguous"), evidence


@dataclass
class LocalizationResult:
    solution: EdgeSolution
    positions: np.ndarray
    mse: float
    method: str


def localize_network(net: SensorNetwork, method: str = "auto", config: SolverConfig | None = None) -> LocalizationResult:
    """Run the solver matching the measurement connectivity (or the requested one)."""
    config = config or SolverConfig()
    if method == "auto":
        _, c_a = triple_index_components(net.sa_triples, net.graph)
        if c_a == 1 or propagate_bearings(net, config.consistency_tol).fully_resolved:
            method = "sa"
        else:
            _, c_d = triple_index_components(net.rod_triples, net.graph)
            if c_d == 1 or propagate_distances(net, config.consistency_tol).fully_resolved:
                method = "rod"
            else:
                method = "general"
    if method == "sa":
        sol = solve_sa_connected(net, config)
    elif method == "rod":
        sol = solve_rod_connected(net, config)
    elif method == "general":
        sol = solve_disconnected(net, config)
    else:
        raise ValueError(f"unknown method {method!r}")
    x = recover_positions(net, sol.bearings, sol.distances, warn=False)
    return LocalizationResult(sol, x, mean_squared_error(x, net.truth), method)
