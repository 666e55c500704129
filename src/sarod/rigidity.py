"""Rigidity matrix assembly, rank tests, duality, and quadrilateral criteria.

The rigidity matrix stacks one row per measurement triple (signed angles
first, then distance ratios) and factors through the incidence structure:
rows are assembled in edge coordinates (one 2-block per canonical edge) and
mapped to vertex coordinates by kron(H, I_2).  A framework on n >= 3
vertices is infinitesimally rigid exactly when the matrix has rank 2n - 4;
the four-dimensional null space always contains the two translations, the
rotation field, and the scaling field.

The rank test and the duality check factor the ``reduced`` rows (2m - n
of them, spanning the same row space as the full set) scaled to unit norm,
one SVD per matrix.  A diagonal row scaling leaves the exact rank
unchanged.  With unit rows an SA row is the RoD row of the same triple
times blockdiag(R(pi/2)), up to sign, so swapping the bipartition gives an
orthogonal transform of the matrix and the relative rank cut sees one
spectrum for both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .geometry import (
    Framework,
    as_points,
    check_distinct,
    fit_similarity,
    rigidity_function,
    rot90,
)
from .graph import TripleIndexSet, enumerate_triples, incidence_matrix

__all__ = [
    "RigidityMatrix",
    "RankReport",
    "QuadVerdict",
    "assemble_rigidity_matrix",
    "numerical_rank",
    "null_space",
    "infinitesimal_rigidity_test",
    "duality_check",
    "quad_global_rigidity",
    "equivalent_shape_search",
]

DEFAULT_RTOL = 1e-8


@dataclass(frozen=True)
class RigidityMatrix:
    """Assembled rigidity matrix with its edge-space factorization."""

    matrix: np.ndarray  # (|T|, 2n)
    sa_triples: TripleIndexSet
    rod_triples: TripleIndexSet
    edge_factor: np.ndarray  # (|T|, 2m): SA rows then RoD rows
    incidence_kron: np.ndarray  # (2m, 2n)


@dataclass(frozen=True)
class RankReport:
    rank: int
    required: int
    verdict: str  # "rigid" | "flexible"
    sigma: np.ndarray
    null_basis: np.ndarray  # (2n, dim) orthonormal
    rtol: float
    trivial_motion_residual: float

    @property
    def rigid(self) -> bool:
        return self.verdict == "rigid"

    def to_dict(self) -> dict:
        return {
            "rank": int(self.rank),
            "required": int(self.required),
            "verdict": self.verdict,
            "sigma": [float(s) for s in self.sigma],
            "rtol": float(self.rtol),
            "trivial_motion_residual": float(self.trivial_motion_residual),
        }


def assemble_rigidity_matrix(fw: Framework, mode: str = "full") -> RigidityMatrix:
    """Rigidity matrix of the framework, with SA rows before RoD rows.

    In edge coordinates the SA row of triple (r, s, t) carries
    +b_e1^T R(pi/2)/len_e1 on the (r,s)-edge block and the negated analogue
    on the (r,t)-edge block; the RoD row of (i, j, k) carries
    -kappa b_e1^T/len_e1 and +kappa b_e2^T/len_e2.  Orientation signs of the
    canonical edges cancel, so the blocks are the same whichever way the
    apex sits on each edge.  ``matrix`` (= edge_factor @ incidence_kron) is
    scattered from the same blocks: minus at each edge's tail, plus at its head.
    """
    check_distinct(fw.points)
    sa, rod = enumerate_triples(fw.graph, fw.bipartition, mode)
    ends = np.array(fw.graph.edges, dtype=int).reshape(-1, 2) - 1  # (m, 2): tail, head
    vecs = fw.points[ends[:, 1]] - fw.points[ends[:, 0]]
    lens = np.linalg.norm(vecs, axis=1)
    grad = vecs / (lens**2)[:, None]  # bearing / length, per edge
    kappa = (lens[rod.e2] / lens[rod.e1])[:, None]
    e1, e2 = np.concatenate([sa.e1, rod.e1]), np.concatenate([sa.e2, rod.e2])
    block1 = np.vstack([grad[sa.e1] @ rot90(), -kappa * grad[rod.e1]])
    block2 = np.vstack([-grad[sa.e2] @ rot90(), kappa * grad[rod.e2]])

    n_rows, m, n = len(e1), fw.m, fw.n
    rows = np.arange(n_rows)
    edge = np.zeros((n_rows, m, 2))
    edge[rows, e1] = block1
    edge[rows, e2] = block2
    vert = np.zeros((n_rows, n, 2))
    for e, block in ((e1, block1), (e2, block2)):
        np.add.at(vert, (rows, ends[e, 0]), -block)
        np.add.at(vert, (rows, ends[e, 1]), block)
    hbar = np.kron(incidence_matrix(fw.graph), np.eye(2))
    return RigidityMatrix(vert.reshape(n_rows, 2 * n), sa, rod, edge.reshape(n_rows, 2 * m), hbar)


def _rank(s: np.ndarray, rtol: float) -> int:
    return int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0 else 0


def _svd_factor(matrix, rtol: float = DEFAULT_RTOL):
    """One SVD: (rank, sigma, U, Vt) with rank = #{sigma_i > rtol * sigma_max}.

    Thin unless there are fewer rows than columns, so ``U`` has one column
    per singular value and ``Vt`` is always square: ``Vt[rank:]`` spans the
    null space at the same cut that gives the rank.
    """
    M = np.asarray(matrix, dtype=float)
    rows, cols = M.shape
    if M.size == 0:
        return 0, np.zeros(0), np.zeros((rows, 0)), np.eye(cols)
    u, s, vt = np.linalg.svd(M, full_matrices=rows < cols)
    return _rank(s, rtol), s, u, vt


def numerical_rank(matrix, rtol: float = DEFAULT_RTOL):
    """(rank, singular values) with rank = #{sigma_i > rtol * sigma_max}."""
    M = np.asarray(matrix, dtype=float)
    s = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
    return _rank(s, rtol), s


def null_space(matrix, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Orthonormal null-space basis (columns), at the shared rank tolerance."""
    rank, _, _, vt = _svd_factor(matrix, rtol)
    return vt[rank:].T


def trivial_motions(points) -> np.ndarray:
    """The four shape-preserving velocity fields, stacked as columns (2n, 4)."""
    p = as_points(points)
    n = p.shape[0]
    t1 = np.tile([1.0, 0.0], n)
    t2 = np.tile([0.0, 1.0], n)
    rot = (p @ np.array([[0.0, 1.0], [-1.0, 0.0]])).ravel()  # R(pi/2) p_i per vertex
    scale = p.ravel()
    return np.column_stack([t1, t2, rot, scale])


def _rank_test_matrix(fw: Framework) -> np.ndarray:
    """Reduced rigidity matrix with every row scaled to unit norm (same exact rank and null space)."""
    M = assemble_rigidity_matrix(fw, "reduced").matrix
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def infinitesimal_rigidity_test(fw: Framework, rtol: float = DEFAULT_RTOL) -> RankReport:
    """Rank test: rigid iff rank equals 2n - 4; also checks the trivial null space.

    One SVD of the ``reduced`` matrix with unit-norm rows (see the module
    docstring); ``sigma``, ``null_basis`` and ``trivial_motion_residual``
    refer to that matrix.
    """
    if fw.n < 3:
        raise ValueError("rigidity analysis needs n >= 3")
    M = _rank_test_matrix(fw)
    rank, sigma, _, vt = _svd_factor(M, rtol)
    required = 2 * fw.n - 4
    T = trivial_motions(fw.points)
    smax = sigma[0] if sigma.size else 0.0
    resid = float(np.max(np.linalg.norm(M @ T, axis=0) / (smax * np.linalg.norm(T, axis=0)))) if smax > 0 else 0.0
    verdict = "rigid" if rank == required else "flexible"
    return RankReport(rank, required, verdict, sigma, vt[rank:].T, rtol, resid)


@dataclass(frozen=True)
class DualityResult:
    rank: int
    rank_swapped: int

    @property
    def equal(self) -> bool:
        return self.rank == self.rank_swapped


def duality_check(fw: Framework, rtol: float = DEFAULT_RTOL) -> DualityResult:
    """Rank comparison after swapping the A/D parts of the bipartition.

    Both ranks come from the reduced unit-row matrices of the rank test.
    """
    r1, _ = numerical_rank(_rank_test_matrix(fw), rtol)
    r2, _ = numerical_rank(_rank_test_matrix(fw.swapped()), rtol)
    return DualityResult(r1, r2)


# --- quadrilateral global-rigidity criteria -------------------------------

_QUAD_EDGES = {(1, 2), (2, 3), (3, 4), (1, 4)}


@dataclass(frozen=True)
class QuadVerdict:
    rigid: bool
    case: int  # 1: |A|=3, 2: |A|=1, 3: adjacent A-pair, 4: opposite A-pair
    margin: float  # distance of the deciding quantity from its threshold (scale-normalized)
    boundary: bool
    details: dict

    def to_dict(self) -> dict:
        return {
            "rigid": bool(self.rigid),
            "case": int(self.case),
            "margin": float(self.margin),
            "boundary": bool(self.boundary),
            "details": {k: float(v) for k, v in self.details.items()},
        }


def _collinearity(p, a, b, c) -> float:
    """Normalized |cross| of the two legs at b; zero iff a, b, c collinear."""
    u = p[a - 1] - p[b - 1]
    v = p[c - 1] - p[b - 1]
    cross = abs(u[0] * v[1] - u[1] * v[0])
    return cross / (np.linalg.norm(u) * np.linalg.norm(v))


def _relabel_rotation(points, shift: int) -> np.ndarray:
    """Cyclic relabeling of the 4-cycle: new vertex i is old vertex i+shift."""
    idx = [(i + shift) % 4 for i in range(4)]
    return points[idx]


def quad_global_rigidity(fw: Framework, tol: float = 1e-9) -> QuadVerdict:
    """Global-rigidity criterion for a 4-cycle framework.

    The framework is canonically relabeled (cyclic rotation) so that the
    criterion's reference labels apply.  Equality-type conditions are tested
    with absolute tolerance ``tol`` on scale-normalized residuals; verdicts
    whose deciding quantity lies within ``tol`` of the decision threshold
    are flagged ``boundary``.
    """
    if fw.n != 4 or set(fw.graph.edges) != _QUAD_EDGES:
        raise ValueError("expects 4-cycle on vertices 1..4")
    check_distinct(fw.points)
    a_set = set(fw.bipartition.a_vertices())
    if len(a_set) in (0, 4):
        raise ValueError("quadrilateral criterion needs a nontrivial bipartition")
    p = np.asarray(fw.points, dtype=float)
    side = np.mean([np.linalg.norm(p[i] - p[j]) for i, j in ((0, 1), (1, 2), (2, 3), (3, 0))])

    def theta(q, i, j):
        e = q[j - 1] - q[i - 1]
        return np.arctan2(e[1], e[0])

    def dist(q, i, j):
        return float(np.linalg.norm(q[j - 1] - q[i - 1]))

    if len(a_set) == 3:
        pa = p[[v - 1 for v in sorted(a_set)]]
        u = pa[1] - pa[0]
        v = pa[2] - pa[0]
        coll = abs(u[0] * v[1] - u[1] * v[0]) / (np.linalg.norm(u) * np.linalg.norm(v))
        return QuadVerdict(coll > tol, 1, coll, coll <= tol, {"a_collinearity": coll})

    if len(a_set) == 1:
        apex = next(iter(a_set))
        q = _relabel_rotation(p, apex - 1)  # apex becomes vertex 1
        d_coll = _collinearity(q, 2, 3, 4)
        kite = max(abs(dist(q, 1, 4) - dist(q, 3, 4)), abs(dist(q, 1, 2) - dist(q, 3, 2))) / side
        resid = min(d_coll, kite)
        return QuadVerdict(resid <= tol, 2, resid, resid <= tol, {"d_collinearity": d_coll, "kite_residual": kite})

    adjacent = any({a, b} == a_set for a, b in _QUAD_EDGES)
    if adjacent:
        # Rotate so the A-pair becomes {1, 2}.
        for shift in range(4):
            if {((v - 1 - shift) % 4) + 1 for v in a_set} == {1, 2}:
                break
        q = _relabel_rotation(p, shift)
        margin_raw = dist(q, 1, 2) + 2.0 * dist(q, 3, 4) * np.cos(theta(q, 3, 4) - theta(q, 1, 2))
        margin = margin_raw / side
        return QuadVerdict(
            margin_raw <= 0.0, 3, abs(margin), abs(margin) <= tol,
            {"adjacent_margin": margin, "adjacent_margin_raw": margin_raw},
        )

    # Opposite pair: rotate so the A-pair becomes {1, 3}.
    shift = 0 if a_set == {1, 3} else 1
    q = _relabel_rotation(p, shift)
    d12, d23, d34, d14 = dist(q, 1, 2), dist(q, 2, 3), dist(q, 3, 4), dist(q, 1, 4)
    t124 = theta(q, 1, 4) - theta(q, 1, 2)
    t324 = theta(q, 3, 4) - theta(q, 3, 2)
    disc = (
        d12**2 * d34**2
        + d14**2 * d23**2
        - d14**2 * d12**2 * np.sin(t124) ** 2
        - d34**2 * d23**2 * np.sin(t324) ** 2
        - 2.0 * d12 * d23 * d34 * d14 * np.cos(t324) * np.cos(t124)
    )
    disc_n = abs(disc) / side**4
    prod = (d23 - d12) * (d34 - d14)
    prod_n = prod / side**2
    rigid = disc_n <= tol or prod <= 0.0
    if prod <= 0.0:
        margin = abs(prod_n)
    else:
        margin = min(prod_n, disc_n)
    boundary = margin <= tol
    return QuadVerdict(
        rigid, 4, margin, boundary,
        {"discriminant": disc_n, "sign_product": prod_n, "discriminant_raw": disc, "sign_product_raw": prod},
    )


# --- brute-force equivalent-shape oracle ----------------------------------


def equivalent_shape_search(
    fw: Framework,
    trials: int = 50,
    seed: int = 0,
    residual_tol: float = 1e-10,
    cluster_tol: float = 1e-6,
):
    """Desk-scale search for all shapes satisfying the framework's constraints.

    Multi-start nonlinear least squares on the measurement residual with the
    similarity gauge removed by pinning vertices 1 and 2; distinct converged
    solutions below ``residual_tol`` (max-norm) are clustered modulo
    similarity and returned as configurations.  The true configuration is
    always among the starts, so at least one shape is found.
    """
    if fw.n > 8:
        raise ValueError("oracle is desk-scale only (n <= 8)")
    check_distinct(fw.points)
    sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
    target = rigidity_function(fw.points, sa, rod)
    n_sa = len(sa)
    p = np.asarray(fw.points, dtype=float)
    fixed = p[:2]
    scale = float(np.linalg.norm(p[1] - p[0]))

    def unpack(x):
        return np.vstack([fixed, x.reshape(-1, 2)])

    def residual(x):
        q = unpack(x)
        vals = rigidity_function(q, sa, rod)
        r = vals - target
        r[:n_sa] = np.mod(r[:n_sa] + np.pi, 2.0 * np.pi) - np.pi
        return r

    rng = np.random.default_rng(seed)
    lo = p.min(axis=0) - 0.5 * scale
    hi = p.max(axis=0) + 0.5 * scale

    # Deterministic flip starts: each free vertex reflected across a line
    # through two other vertices.  Flip ambiguities are the dominant
    # second-shape family, and their basins can be tiny.
    flip_starts = []
    for v in range(2, fw.n):
        for a, b in itertools.combinations(range(fw.n), 2):
            if v in (a, b):
                continue
            axis = p[b] - p[a]
            nrm = np.linalg.norm(axis)
            if nrm < 1e-12:
                continue
            axis = axis / nrm
            rel = p[v] - p[a]
            mirrored = p[a] + 2.0 * (rel @ axis) * axis - rel
            q0 = p.copy()
            q0[v] = mirrored
            flip_starts.append(q0[2:].ravel())

    shapes: list[np.ndarray] = []
    for start in range(trials):
        if start == 0:
            x0 = p[2:].ravel()
        elif start <= len(flip_starts):
            x0 = flip_starts[start - 1]
        elif start % 2:
            x0 = rng.uniform(lo, hi, size=(fw.n - 2, 2)).ravel()
        else:
            # Log-radial starts around the pinned edge cover solutions whose
            # overall size differs by orders of magnitude from the input.
            r = scale * 10.0 ** rng.uniform(-1.2, 1.2, size=fw.n - 2)
            phi = rng.uniform(0.0, 2.0 * np.pi, size=fw.n - 2)
            x0 = (p[0] + np.column_stack([r * np.cos(phi), r * np.sin(phi)])).ravel()
        try:
            sol = least_squares(residual, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        except Exception:
            continue
        if not np.all(np.isfinite(sol.x)):
            continue
        q = unpack(sol.x)
        if np.max(np.abs(residual(sol.x))) > residual_tol:
            continue
        if np.min([np.linalg.norm(q[i] - q[j]) for i, j in itertools.combinations(range(fw.n), 2)]) < 1e-9 * scale:
            continue
        is_new = True
        for rep in shapes:
            if np.max(np.linalg.norm(q - rep, axis=1)) < cluster_tol * scale:
                is_new = False
                break
            _, resid, same = fit_similarity(rep, q, tol=cluster_tol * scale)
            if same:
                is_new = False
                break
        if is_new:
            shapes.append(q)
    return shapes
