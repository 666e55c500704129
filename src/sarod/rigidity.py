"""Rigidity matrix assembly, rank tests, duality, and quadrilateral criteria.

The rigidity matrix is the Jacobian of the rigidity function: one row per
measurement triple (signed angles first, then distance ratios), holding the
triple's gradients from ``geometry.measurement_map`` at its apex and its
two neighbors and zeros elsewhere.  A framework on n >= 3 vertices is
infinitesimally rigid exactly when the matrix has rank 2n - 4; the
four-dimensional null space always contains the two translations, the
rotation field, and the scaling field.

The rank test and the duality check use the ``reduced`` rows (2m - n of
them, spanning the same row space as the full set) scaled to unit norm,
as a sparse matrix M (R x N, N = 2n, six entries per row).  A diagonal row
scaling leaves the exact rank unchanged.  With unit rows an SA row is the
RoD row of the same triple with each vertex's pair of entries rotated by
pi/2, up to sign, so swapping the bipartition gives an orthogonal
transform of the matrix, M_s = P S M K (K rotates every vertex's pair of
columns by pi/2, S flips the signs of the SA rows, P puts the former RoD
rows first), and the relative rank cut sees one spectrum for both.

The verdict at a cut ``rtol`` is the one the dense singular values would
give, rank = #{sigma_i > rtol * sigma_1}, but it is first decided by a
certificate (``_RankTest``).  Let Q be an orthonormal basis of the trivial
motions and B = [M; Q^T].  On range(Q)^perp, |Bx| = |Mx|, so by
Courant-Fischer sigma_{N-4}(M) >= sigma_min(B); one Cholesky factorization
of fl(M^T M + Q Q^T) - s I that runs to completion proves sigma_min(B) >= l
once its backward error (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., Thm 10.3) and the rounding of the normal matrix are
charged against the shift s.  With sigma_1 <= ||M||_F, l > 2 rtol ||M||_F
gives sigma_{N-4} > 2 rtol sigma_1; with sigma_1 >= 1 (unit rows),
||M Q||_F / sigma_min(Q) < rtol / 2 gives sigma_{N-3} < rtol sigma_1 / 2.
Together the rank is exactly N - 4, with factor-2 margins that absorb the
SVD's own backward error.  Any other outcome (a failed Cholesky on a
flexible or ill-conditioned framework, or a bound that does not decide)
falls back to the dense singular values.  Each framework's certificates
(one per cut) and its spectrum (once a fallback needed it) are cached on
the framework and shared by the rank test and the duality check.

The duality check proves the swapped rank from the framework's own
certificate, with no second Cholesky.  It assembles M_s from the swapped
bipartition and measures E = M_s - P S M K exactly (sign flips and the
coordinate swap of K round nothing).  For any 4-column border, here K^T Q,
Courant-Fischer gives sigma_{N-4}(M_s) >= sigma_min([M_s; Q^T K]); and
[P S M K; Q^T K] is an orthogonal transform of B, so by Weyl
sigma_min([M_s; Q^T K]) >= l - ||E||_F.  With ||M_s||_F bounding its
sigma_1 and the swapped framework's own measured bound on sigma_{N-3},
the swapped rank is N - 4 under the same two margins.  A framework that
did not certify, or a defect too large for the margin, sends the swapped
framework through its own certificate and spectrum instead.

The equivalent-shape oracle pins vertices 1 and 2 and returns one
configuration per shape.  On a 4-cycle with one to three A-vertices it
enumerates every shape in closed form: a shape with the same measurements
rotates each edge by its bearing class's angle and scales it by its length
class's factor, and the cycle closure leaves two real unknowns, given by a
2 x 2 linear system (three A-vertices), a circle intersection (one) or a
quadratic in one scale (an A-pair).  Any other framework, and a degenerate
4-cycle, gets the random multi-start search, which moves all of its starts
in one batched Levenberg-Marquardt iteration.  Its Jacobian is the rigidity
matrix itself, from the same measurement map and scatter, for the whole
batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .geometry import (
    Framework,
    as_points,
    collinearity,
    fit_similarity,
    measurement_map,
    rigidity_function,
)
from .graph import TripleIndexSet, enumerate_triples


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on first call: nothing in the package calls it, but benchmarks/tracing.py wraps it (and ``rigidity_function``) on this module."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


__all__ = [
    "RigidityMatrix",
    "RankReport",
    "QuadVerdict",
    "assemble_rigidity_matrix",
    "numerical_rank",
    "null_space",
    "infinitesimal_rigidity_test",
    "duality_check",
    "quad_criterion_applies",
    "quad_global_rigidity",
    "equivalent_shape_search",
]

DEFAULT_RTOL = 1e-8
QUAD_TOL = 1e-9  # absolute tolerance of the 4-cycle criterion on scale-normalized residuals
SHAPE_CLUSTER_TOL = 1e-6  # the oracle's shape-clustering radius, in units of |p2 - p1|
SHAPE_RESIDUAL_TOL = 1e-10  # the oracle's measurement residual bound (max-norm)
_QUAD_SINGULAR = 1e-12  # relative size at which the closed-form 4-cycle oracle calls its input degenerate


@dataclass(frozen=True)
class RigidityMatrix:
    """Assembled rigidity matrix with the triples of its rows."""

    matrix: np.ndarray  # (|T|, 2n): SA rows then RoD rows
    sa_triples: TripleIndexSet
    rod_triples: TripleIndexSet


@dataclass(frozen=True)
class RankReport:
    """The rank test's verdict and evidence; ``dataclasses.asdict`` and ``netio``'s encoder make it JSON."""

    rank: int
    required: int
    verdict: str  # "rigid" | "flexible"
    factorization: str  # "cholesky" (certified) | "dense-svd" (fallback)
    sigma_bounds: tuple[float, float]  # lower bound on sigma_rank / sigma_1, upper bound on sigma_(rank+1) / sigma_1
    rtol: float
    trivial_motion_residual: float

    @property
    def rigid(self) -> bool:
        return self.verdict == "rigid"


def _scatter(grads: np.ndarray, t: np.ndarray, n: int) -> np.ndarray:
    """Per-triple gradients (..., T, 3, 2) of ``measurement_map`` as rigidity-matrix rows (..., T, 2n)."""
    rows = np.zeros((*grads.shape[:-2], n, 2))
    rows[..., np.arange(len(t))[:, None], t, :] = grads
    return rows.reshape(*grads.shape[:-2], 2 * n)


def _sparse_rigidity_matrix(fw: Framework, mode: str):
    """(CSR rigidity matrix, SA triples, RoD triples): each row holds its triple's six gradient entries."""
    sa, rod = enumerate_triples(fw.graph, fw.bipartition, mode)
    t = np.concatenate([sa.vertex_index, rod.vertex_index])
    _, grads = measurement_map(fw.points, t, len(sa), gradients=True)
    cols = 2 * t[..., None] + np.arange(2)  # (T, 3, 2), as grads
    matrix = sp.csr_matrix((grads.ravel(), cols.ravel(), np.arange(0, grads.size + 1, 6)), shape=(len(t), 2 * fw.n))
    return matrix, sa, rod


def assemble_rigidity_matrix(fw: Framework, mode: str = "full") -> RigidityMatrix:
    """Rigidity matrix of the framework (the Jacobian of ``rigidity_function``), SA rows before RoD rows."""
    matrix, sa, rod = _sparse_rigidity_matrix(fw, mode)
    return RigidityMatrix(matrix.toarray(), sa, rod)


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


_U = float(np.finfo(float).eps) / 2  # unit roundoff


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of a k-term floating-point sum of products."""
    return k * _U / (1.0 - k * _U)


def _up(x: float, terms: int = 16) -> float:
    """``x`` inflated to bound the exact value of a sum of ``terms`` nonnegative terms (or a short formula)."""
    return x * (1.0 + _gamma(terms))


class _RankTest:
    """One framework's rank-test state: its matrix, certificates and (on fallback) spectrum.

    ``matrix`` is M, the reduced rigidity matrix with every row scaled to
    unit norm (same exact rank and null space), R x N, its first ``n_sa``
    rows the SA rows; ``fro`` is an upper bound on ||M||_F >= sigma_1.
    ``trivial`` is an upper bound on sigma_{N-3}(M) / sigma_1, namely
    ||M Q||_F / sigma_min(Q) with Q the orthonormal QR basis of the trivial
    motions (and sigma_1 >= 1).  ``certified(rtol)`` is a lower bound l on
    sigma_min([M; Q^T]) from one shifted Cholesky per cut (0.0 when it
    fails); ``spectrum()`` the dense singular values, computed at most
    once.  See the module docstring.  ``motions``, a test on the same
    points (the framework a swap came from), lends its Q, ||Q||_F^2 bound
    and drift bound, which depend on the points only; M, ``fro`` and
    ``trivial`` are always this framework's own.
    """

    def __init__(self, fw: Framework, motions: "_RankTest | None" = None):
        M, sa, _ = _sparse_rigidity_matrix(fw, "reduced")
        M.data /= np.repeat(np.linalg.norm(M.data.reshape(-1, 6), axis=1), 6)
        self.points = fw.points
        self.matrix = M
        self.n_sa = len(sa)
        self.fro = math.sqrt(_up(float(M.data @ M.data), M.nnz + 1))
        if motions is None:
            Q = np.linalg.qr(trivial_motions(fw.points))[0]
            self.basis = Q
            self.basis_fro2 = _up(float(np.sum(Q * Q)), Q.size + 1)
            # ||Q^T Q - I||_2 <= ||fl(Q^T Q) - I||_F + gamma_N ||Q||_F^2, and sigma_min(Q)^2 >= 1 - that.
            self.drift = _up(float(np.linalg.norm(Q.T @ Q - np.eye(4))) + _gamma(len(Q)) * self.basis_fro2)
        else:
            self.basis, self.basis_fro2, self.drift = motions.basis, motions.basis_fro2, motions.drift
        Q = self.basis
        MQ = M @ Q
        mq = _up(math.sqrt(_up(float(np.sum(MQ * MQ)), MQ.size + 1)) + _gamma(6) * self.fro * math.sqrt(self.basis_fro2))
        self.trivial = _up(mq / math.sqrt(1.0 - self.drift)) if self.drift < 1.0 else math.inf
        self._certified: dict[float, float] = {}
        self._sigma: np.ndarray | None = None

    @cached_property
    def residual(self) -> float:
        """max_j ||M t_j|| / ||t_j|| over the four trivial motions t_j, measured when first read."""
        T = trivial_motions(self.points)
        return float(np.max(np.linalg.norm(self.matrix @ T, axis=0) / np.linalg.norm(T, axis=0)))

    def certified(self, rtol: float) -> float:
        if rtol not in self._certified:
            self._certified[rtol] = self._certify(rtol)
        return self._certified[rtol]

    def _certify(self, rtol: float) -> float:
        """Lower bound l on sigma_min([M; Q^T]) from one Cholesky of H - s I, H = fl(M^T M + Q Q^T); 0.0 if it fails.

        The shift s = 2 (tau + gamma_{N+1} tr H + e_H + u max h_ii), with
        tau = (2 rtol ||M||_F)^2 and e_H = gamma_{k+1} ||B||_F^2 (k the largest
        column count of B) bounding the rounding of H.  A completed factor
        R^T R = H - s I + dH with |dH| <= gamma_{N+1} |R^T| |R| (Higham, Thm
        10.3) and ||R||_F^2 <= tr H / (1 - gamma_{N+1}) leaves
        lambda_min(B^T B) >= l^2 = s - gamma_{N+1} ||R||_F^2 - u (max h_ii + s) - e_H.
        H is formed column-major, then updated (BLAS syrk, rank 4) and
        factored (LAPACK potrf) in place, upper triangle only: one N x N array.
        """
        M, Q = self.matrix, self.basis
        N = M.shape[1]
        k = int(np.bincount(M.indices, minlength=N).max()) + len(Q.T)
        H = blas.dsyrk(1.0, Q, beta=1.0, c=(M.T @ M).toarray(order="F"), overwrite_c=1)
        diag = np.diagonal(H)
        trace, hmax = _up(float(diag.sum()), N), float(diag.max())
        g = _gamma(N + 1)
        e_h = _gamma(k + 1) * (self.fro**2 + self.basis_fro2)
        s = _up(2.0 * ((2.0 * rtol * self.fro) ** 2 + g * trace + e_h + _U * hmax))
        H.flat[:: N + 1] -= s
        if lapack.dpotrf(H, lower=0, clean=0, overwrite_a=1)[1]:
            return 0.0
        ell2 = s - _up(g * trace / (1.0 - g) + _U * (hmax + s) + e_h)
        return math.sqrt(ell2) * (1.0 - _gamma(4)) if ell2 > 0.0 else 0.0

    def defect(self, source: "_RankTest") -> tuple[float, float]:
        """(upper bound on ||E||_F, measured ||E||_F / ||M||_F) for E = M - P S M' K, M' the matrix of this framework's swap ``source``.

        Both matrices list each triple's six entries in the same vertex
        order, and the swap keeps the triple order within each block, so E
        is formed on the stored entries; other column indices give inf.
        """
        sa = 6 * source.n_sa
        data, indices = source.matrix.data, source.matrix.indices
        if not np.array_equal(self.matrix.indices, np.concatenate([indices[sa:], indices[:sa]])):
            return math.inf, math.inf
        moved = np.concatenate([data[sa:], -data[:sa]]).reshape(-1, 2)[:, ::-1] * [-1.0, 1.0]  # P S M' K: (x, y) -> (-y, x)
        e = self.matrix.data - moved.ravel()
        ee = float(e @ e)
        # Each fl(a - b) is within u of a - b: the +2 terms cover that on the squares.
        return _up(math.sqrt(_up(ee, e.size + 3))), math.sqrt(ee) / float(np.linalg.norm(self.matrix.data))

    def decide_swapped(self, source: "_RankTest", rtol: float):
        """(rank, factorization, defect) of this framework, the swap of ``source``, at the cut ``rtol``.

        ``"transfer"``: source's certificate l, less the bound on ||E||_F,
        exceeds 2 rtol ||M||_F, and this framework's own ``trivial`` is below
        rtol / 2, so the rank is N - 4 (module docstring).  Otherwise its own
        ``decide``.
        """
        bound, defect = self.defect(source)
        ell = source.certified(rtol) if source.trivial < 0.5 * rtol else 0.0
        if ell > bound and self.trivial < 0.5 * rtol and (ell - bound) / self.fro * (1.0 - _gamma(3)) > 2.0 * rtol:
            return self.matrix.shape[1] - 4, "transfer", defect
        rank, factorization, _ = self.decide(rtol)
        return rank, factorization, defect

    def spectrum(self) -> np.ndarray:
        """Dense singular values of M, computed once and read-only."""
        if self._sigma is None:
            _, sigma = numerical_rank(self.matrix.toarray())
            sigma.flags.writeable = False
            self._sigma = sigma
        return self._sigma

    def decide(self, rtol: float):
        """(rank, factorization, sigma_bounds) at the cut rank = #{sigma_i > rtol * sigma_1}."""
        N = self.matrix.shape[1]
        if self.trivial < 0.5 * rtol and (ell := self.certified(rtol)) and (lower := ell / self.fro) > 2.0 * rtol:
            return N - 4, "cholesky", (lower, self.trivial)
        s = self.spectrum()
        rank = _rank(s, rtol)
        ratio = s / s[0] if s.size and s[0] > 0 else np.zeros_like(s)
        return rank, "dense-svd", (float(ratio[rank - 1]) if rank else 0.0, float(ratio[rank]) if rank < s.size else 0.0)


def _rank_test(fw: Framework) -> _RankTest:
    """The framework's ``_RankTest``, built at most once.

    Cached in the framework's instance dict; the framework is frozen and its
    points are a read-only copy, so the cache cannot go stale.  It holds no
    verdict: each caller applies its own ``rtol`` cut.
    """
    if fw.n < 3:
        raise ValueError("rigidity analysis needs n >= 3")
    cache = fw.__dict__
    if "_rank_test" not in cache:
        cache["_rank_test"] = _RankTest(fw)
    return cache["_rank_test"]


def infinitesimal_rigidity_test(fw: Framework, rtol: float = DEFAULT_RTOL) -> RankReport:
    """Rank test: rigid iff rank equals 2n - 4 at the relative cut ``rtol``.

    The rank is that of the ``reduced`` matrix M with unit-norm rows, the one
    the dense singular values would give.  A certified shifted Cholesky
    decides it when it can (``factorization == "cholesky"``); otherwise the
    dense singular values do (``"dense-svd"``).  ``sigma_bounds`` are a lower
    bound on sigma_rank / sigma_1 and an upper bound on sigma_(rank+1) /
    sigma_1, exact ratios on the dense path.  ``trivial_motion_residual`` is
    max_j ||M t_j|| / ||t_j|| over the four trivial motions t_j (sigma_1 >=
    1).  The framework's certificates and spectrum are cached and shared
    with ``duality_check``; ``null_space`` gives a null-space basis when one
    is needed.
    """
    test = _rank_test(fw)
    rank, factorization, bounds = test.decide(rtol)
    required = 2 * fw.n - 4
    verdict = "rigid" if rank == required else "flexible"
    return RankReport(rank, required, verdict, factorization, bounds, rtol, test.residual)


@dataclass(frozen=True)
class DualityResult:
    """Both ranks and how the swapped one was decided; ``dataclasses.asdict`` makes it JSON."""

    rank: int
    rank_swapped: int
    swapped_factorization: str  # "transfer" (from the framework's certificate) | "cholesky" | "dense-svd"
    defect: float  # measured ||M_s - P S M K||_F / ||M_s||_F

    @property
    def equal(self) -> bool:
        return self.rank == self.rank_swapped


def duality_check(fw: Framework, rtol: float = DEFAULT_RTOL) -> DualityResult:
    """Rank comparison after swapping the A/D parts of the bipartition.

    The framework's rank is decided as in ``infinitesimal_rigidity_test``,
    from the state the rank test cached if it ran first.  The swapped
    framework is always assembled anew: its matrix M_s and its trivial
    motion bound are measured (with the framework's own basis Q of the
    trivial motions, which depends on the points only), and so is
    ``defect``, the distance of M_s
    from the rotated, re-signed and re-ordered framework matrix P S M K.
    Its rank is then proved from the framework's certificate
    (``swapped_factorization == "transfer"``: Courant-Fischer, then Weyl
    with ||M_s - P S M K||_F, see the module docstring) or, when that
    certificate is missing or the defect too large, decided by its own
    Cholesky certificate or spectrum (``"cholesky"`` or ``"dense-svd"``).
    """
    test = _rank_test(fw)
    rank = test.decide(rtol)[0]
    return DualityResult(rank, *_RankTest(fw.swapped(), test).decide_swapped(test, rtol))


# --- quadrilateral global-rigidity criteria -------------------------------

_QUAD_EDGES = {(1, 2), (2, 3), (3, 4), (1, 4)}


def quad_criterion_applies(fw: Framework) -> bool:
    """True for a 4-cycle on the edges (1, 2), (2, 3), (3, 4), (1, 4) with both kinds of sensor."""
    return fw.n == 4 and set(fw.graph.edges) == _QUAD_EDGES and fw.bipartition.is_nontrivial()


@dataclass(frozen=True)
class QuadVerdict:
    """The 4-cycle criterion's verdict (numpy scalars allowed); ``dataclasses.asdict`` and ``netio``'s encoder make it JSON."""

    rigid: bool
    case: int  # 1: |A|=3, 2: |A|=1, 3: adjacent A-pair, 4: opposite A-pair
    margin: float  # distance of the deciding quantity from its threshold (scale-normalized)
    boundary: bool
    details: dict


def _relabel_rotation(points, shift: int) -> np.ndarray:
    """Cyclic relabeling of the 4-cycle: new vertex i is old vertex i+shift."""
    idx = [(i + shift) % 4 for i in range(4)]
    return points[idx]


def quad_global_rigidity(fw: Framework) -> QuadVerdict:
    """Global-rigidity criterion for a 4-cycle framework.

    The framework is canonically relabeled (cyclic rotation) so that the
    criterion's reference labels apply.  Equality-type conditions are tested
    with absolute tolerance ``QUAD_TOL`` on scale-normalized residuals;
    verdicts whose deciding quantity lies within ``QUAD_TOL`` of the
    decision threshold are flagged ``boundary``.
    """
    if fw.n != 4 or set(fw.graph.edges) != _QUAD_EDGES:
        raise ValueError("expects 4-cycle on vertices 1..4")
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
        a0, a1, a2 = sorted(a_set)
        coll = collinearity(p[a0 - 1], p[a1 - 1], p[a2 - 1])
        return QuadVerdict(coll > QUAD_TOL, 1, coll, coll <= QUAD_TOL, {"a_collinearity": coll})

    if len(a_set) == 1:
        apex = next(iter(a_set))
        q = _relabel_rotation(p, apex - 1)  # apex becomes vertex 1
        d_coll = collinearity(q[2], q[1], q[3])
        kite = max(abs(dist(q, 1, 4) - dist(q, 3, 4)), abs(dist(q, 1, 2) - dist(q, 3, 2))) / side
        resid = min(d_coll, kite)
        return QuadVerdict(resid <= QUAD_TOL, 2, resid, resid <= QUAD_TOL, {"d_collinearity": d_coll, "kite_residual": kite})

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
            margin_raw <= 0.0, 3, abs(margin), abs(margin) <= QUAD_TOL,
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
    rigid = disc_n <= QUAD_TOL or prod <= 0.0
    if prod <= 0.0:
        margin = abs(prod_n)
    else:
        margin = min(prod_n, disc_n)
    boundary = margin <= QUAD_TOL
    return QuadVerdict(
        rigid, 4, margin, boundary,
        {"discriminant": disc_n, "sign_product": prod_n, "discriminant_raw": disc, "sign_product_raw": prod},
    )


# --- equivalent-shape oracle -----------------------------------------------


def _shape_starts(p: np.ndarray, trials: int, rng: np.random.Generator) -> np.ndarray:
    """The search's ``trials`` starts for vertices 3..n, one flattened row each.

    Start 0 is the input; then each free vertex reflected across a line
    through two other vertices (flip ambiguities are the dominant
    second-shape family, and their basins can be tiny); then uniform draws
    over the padded bounding box (odd index) alternating with log-radial
    draws around vertex 1, which reach shapes of a very different size.
    """
    n = p.shape[0]
    scale = float(np.linalg.norm(p[1] - p[0]))
    lo, hi = p.min(axis=0) - 0.5 * scale, p.max(axis=0) + 0.5 * scale
    starts = [p[2:].ravel()]
    for v, (a, b) in itertools.product(range(2, n), itertools.combinations(range(n), 2)):
        axis = p[b] - p[a]
        nrm = np.linalg.norm(axis)
        if v in (a, b) or nrm < 1e-12:
            continue
        axis = axis / nrm
        rel = p[v] - p[a]
        q0 = p.copy()
        q0[v] = p[a] + 2.0 * (rel @ axis) * axis - rel
        starts.append(q0[2:].ravel())
    del starts[trials:]
    for start in range(len(starts), trials):
        if start % 2:
            starts.append(rng.uniform(lo, hi, size=(n - 2, 2)).ravel())
        else:
            r = scale * 10.0 ** rng.uniform(-1.2, 1.2, size=n - 2)
            phi = rng.uniform(0.0, 2.0 * np.pi, size=n - 2)
            starts.append((p[0] + np.column_stack([r * np.cos(phi), r * np.sin(phi)])).ravel())
    return np.array(starts).reshape(trials, 2 * (n - 2))


def _batched_lm(x: np.ndarray, fun, tiny: float):
    """Levenberg-Marquardt from every row of ``x`` at once; returns the final rows and residuals.

    ``fun`` maps an (S, k) batch to residuals (S, T) and Jacobian (S, T, k).
    One call solves (J^T J + lam diag(J^T J)) delta = -J^T r for all active
    starts.  Each start keeps its own ``lam`` and moves only if its squared
    residual drops.  It stops at residual max-norm ``tiny``, a negligible
    step, blown-up ``lam``, or 100 iterations per unknown (scipy's lm
    default).  Starts with a non-finite residual never move.  The shape
    oracle and the localization null-space search (``sarod.snl``) share it.
    """
    r, jac = fun(x)
    cost = np.sum(r * r, axis=1)
    lam = np.full(len(x), 1e-3)
    active = np.isfinite(cost) & (np.max(np.abs(r), axis=1, initial=0.0) > tiny)
    k = x.shape[1]
    for _ in range(100 * k):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        ji = jac[idx]
        jtj = np.einsum("stk,stl->skl", ji, ji)
        diag = np.einsum("skk->sk", jtj)
        jtj[:, np.arange(k), np.arange(k)] += lam[idx, None] * np.where(diag > 0.0, diag, 1.0)
        step = np.linalg.solve(jtj, -np.einsum("stk,st->sk", ji, r[idx])[..., None])[..., 0]
        trial = x[idx] + step
        r_t, jac_t = fun(trial)
        cost_t = np.sum(r_t * r_t, axis=1)
        better = cost_t < cost[idx]  # False for a non-finite trial
        take = idx[better]
        x[take], r[take], jac[take], cost[take] = trial[better], r_t[better], jac_t[better], cost_t[better]
        lam[idx] = np.where(better, np.maximum(lam[idx] * 0.1, 1e-15), lam[idx] * 10.0)
        negligible = np.linalg.norm(step, axis=1) <= 1e-15 * np.linalg.norm(x[idx], axis=1)
        active[idx] = ~negligible & (lam[idx] < 1e16) & (np.max(np.abs(r[idx]), axis=1, initial=0.0) > tiny)
    return x, r


def _shape_problem(fw: Framework):
    """(triples t, SA count, target values) of the oracle's measurement residual."""
    sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
    return np.concatenate([sa.vertex_index, rod.vertex_index]), len(sa), rigidity_function(fw.points, sa, rod)


def _shape_residual(vals: np.ndarray, target: np.ndarray, n_sa: int) -> np.ndarray:
    """Measurement residual ``vals - target``, angle entries wrapped to [-pi, pi)."""
    r = vals - target
    r[..., :n_sa] = np.mod(r[..., :n_sa] + np.pi, 2.0 * np.pi) - np.pi
    return r


def _distinct_shapes(q: np.ndarray, r: np.ndarray, scale: float, residual_tol: float) -> list[np.ndarray]:
    """The configurations of q (S, n, 2) that are shapes, one per similarity class, in order.

    A configuration is a shape when its residual row of r (S, T) is within
    ``residual_tol`` (max-norm; non-finite fails) and no two of its vertices
    are closer than 1e-9 ``scale`` (|p2 - p1|).  It joins an earlier shape
    when it lies within ``SHAPE_CLUSTER_TOL`` ``scale`` of it, pointwise or
    after a similarity fit.
    """
    n = q.shape[1]
    tol = SHAPE_CLUSTER_TOL * scale
    shapes: list[np.ndarray] = []
    for qi, ok in zip(q, np.all(np.abs(r) <= residual_tol, axis=1)):  # False where non-finite
        if not ok or np.min([np.linalg.norm(qi[i] - qi[j]) for i, j in itertools.combinations(range(n), 2)]) < 1e-9 * scale:
            continue
        if not any(np.max(np.linalg.norm(qi - rep, axis=1)) < tol or fit_similarity(rep, qi, tol=tol)[2] for rep in shapes):
            shapes.append(qi)
    return shapes


def _random_shape_search(fw: Framework, trials: int, seed: int, residual_tol: float) -> list[np.ndarray]:
    """The multi-start search behind ``equivalent_shape_search``, for any framework on n <= 8 vertices."""
    t, n_sa, target = _shape_problem(fw)
    p = np.asarray(fw.points, dtype=float)

    def unpack(x):
        return np.concatenate([np.broadcast_to(p[:2], (len(x), 2, 2)), x.reshape(len(x), -1, 2)], axis=1)

    def residual(x):
        vals, grads = measurement_map(unpack(x), t, n_sa, gradients=True)
        return _shape_residual(vals, target, n_sa), _scatter(grads, t, fw.n)[..., 4:]

    x0 = _shape_starts(p, trials, np.random.default_rng(seed))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # collocated iterates: masked as non-finite
        x, r = _batched_lm(x0, residual, 4.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(target), initial=0.0)))
    return _distinct_shapes(unpack(x), r, float(np.linalg.norm(p[1] - p[0])), residual_tol)


def _cross(u: complex, v: complex) -> float:
    """Planar cross product of two vectors written as complex numbers."""
    return (u.conjugate() * v).imag


def _edge_classes(joints) -> list[int]:
    """Class of each 4-cycle edge when every vertex in ``joints`` ties its two edges together.

    Edge e runs from vertex e to vertex e + 1 (0-based, mod 4), so vertex v
    joins edges v - 1 and v.  Classes are numbered by first edge, so edge 0
    is in class 0.
    """
    label = list(range(4))
    for v in joints:
        label = [label[v - 1] if lab == label[v] else lab for lab in label]
    first: dict[int, int] = {}
    return [first.setdefault(lab, len(first)) for lab in label]


def _quad_configurations(p: np.ndarray, is_a: np.ndarray) -> list[np.ndarray] | None:
    """Every configuration of a 4-cycle with its measurements and vertices 1, 2 fixed, in closed form.

    With edge vectors z_e as complex numbers, a configuration with the same
    measurements has edge vectors y e^(i theta) z_e (y > 0): an A-vertex
    gives its two edges one rotation theta (a bearing class), a D-vertex
    one scale y (a length class).  Edge 0 (vertex 1 to 2) is fixed, and so
    are its two classes, which leaves two real unknowns in the closure
    sum_b,d y_d e^(i theta_b) G[b, d] = 0, with G[b, d] the sum of the z_e
    in bearing class b and length class d:

    - three A-vertices: one bearing class, y1 G01 + y2 G02 = -G00;
    - one A-vertex: one length class, |G0 + e^(i theta1) G1| = |G2|, whose
      two roots theta1 each fix theta2;
    - an A-pair (adjacent or opposite): |G00 + y G01|^2 = |G10 + y G11|^2,
      a quadratic in y, whose positive roots each fix theta.

    Returns the rebuilt configurations, not yet checked against the
    measurements, or None when the input is degenerate at the
    ``_QUAD_SINGULAR`` relative tolerance (a singular linear system, a
    quadratic that vanishes identically, a vanishing class sum): such
    inputs have a continuum of shapes.
    """
    z = (np.roll(p, -1, axis=0) - p) @ np.array([1.0, 1j])
    bear, length = _edge_classes(np.flatnonzero(is_a)), _edge_classes(np.flatnonzero(~is_a))
    G = np.zeros((max(bear) + 1, max(length) + 1), dtype=complex)
    np.add.at(G, (bear, length), z)
    tol = _QUAD_SINGULAR * float(np.vdot(z, z).real)
    roots = []  # (rotation e^(i theta) per bearing class, scale y per length class)
    if len(G) == 1:
        g0, g1, g2 = G[0]
        det = _cross(g1, g2)
        if abs(det) <= tol:
            return None
        roots.append(([1.0], [1.0, _cross(g2, g0) / det, _cross(g0, g1) / det]))  # Cramer's rule
    elif G.shape[1] == 1:
        g0, g1, g2 = G[:, 0]
        if min(abs(g0), abs(g1), abs(g2)) ** 2 <= tol:
            return None
        cos = (abs(g2) ** 2 - abs(g0) ** 2 - abs(g1) ** 2) / (2.0 * abs(g0 * g1))
        half = math.acos(min(max(cos, -1.0), 1.0))  # theta1 + arg(conj(g0) g1) = +-half
        for sign in (1.0, -1.0):
            e1 = np.exp(1j * sign * half) * g0 * g1.conjugate() / abs(g0 * g1)
            u = -(g0 + e1 * g1)
            roots.append(([1.0, e1, u * g2.conjugate() / abs(u * g2)], [1.0]))
    else:
        (g00, g01), (g10, g11) = G
        a = abs(g01) ** 2 - abs(g11) ** 2
        b = 2.0 * ((g00.conjugate() * g01).real - (g10.conjugate() * g11).real)
        c = abs(g00) ** 2 - abs(g10) ** 2
        if max(abs(a), abs(b), abs(c)) <= tol:
            return None
        q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
        for y in (c / q if q else 0.0, q / a if a else 0.0):  # both roots without cancellation
            if not y > 0.0:
                continue
            v, u = g10 + y * g11, -(g00 + y * g01)
            if abs(v) ** 2 <= tol:
                return None
            roots.append(([1.0, u * v.conjugate() / abs(u * v)], [1.0, y]))
    configs = []
    for rot, y in roots:
        if min(y) > 0.0:
            w = np.asarray(y)[length] * np.asarray(rot)[bear] * z
            tail = p[1] @ np.array([1.0, 1j]) + np.cumsum(w[1:3])  # vertices 3 and 4
            configs.append(np.vstack([p[:2], np.column_stack([tail.real, tail.imag])]))
    return configs


def _quad_shapes(fw: Framework, residual_tol: float = SHAPE_RESIDUAL_TOL) -> list[np.ndarray] | None:
    """``equivalent_shape_search`` on a 4-cycle in closed form: the input, then every other shape; None if degenerate."""
    p = np.asarray(fw.points, dtype=float)
    configs = _quad_configurations(p, np.array(fw.bipartition.attrs) == "A")
    if configs is None:
        return None
    t, n_sa, target = _shape_problem(fw)
    q = np.array([p, *configs])
    with np.errstate(divide="ignore", invalid="ignore"):  # a collocated root: masked as non-finite
        vals, _ = measurement_map(q, t, n_sa, gradients=True)
    return _distinct_shapes(q, _shape_residual(vals, target, n_sa), float(np.linalg.norm(p[1] - p[0])), residual_tol)


def equivalent_shape_search(fw: Framework, trials: int = 50, seed: int = 0, residual_tol: float = SHAPE_RESIDUAL_TOL):
    """All shapes satisfying the framework's measurements, for desk-scale frameworks (n <= 8).

    The similarity gauge is removed by pinning vertices 1 and 2.  A shape is
    a configuration whose measurement residual is at most ``residual_tol``
    (max-norm, angles wrapped), with no two vertices closer than 1e-9 |p2 -
    p1|; shapes are clustered modulo similarity (radius
    ``SHAPE_CLUSTER_TOL`` |p2 - p1|).  The input configuration (the search's
    first start) comes first.

    A 4-cycle on the edges (1, 2), (2, 3), (3, 4), (1, 4) with one to
    three A-vertices gets every shape in closed form (``_quad_shapes``): at
    most two candidates from a linear system, a circle intersection or a
    quadratic, each put through the same checks.  Every other framework,
    and a degenerate 4-cycle (which has a continuum of shapes), gets a
    multi-start nonlinear least-squares search: one batched
    Levenberg-Marquardt run (``_batched_lm``) moves all ``trials`` starts
    at once, with the rigidity matrix as analytic Jacobian, from starts
    drawn with ``seed``.  ``trials`` and ``seed`` steer only that search.
    """
    if fw.n > 8:
        raise ValueError("oracle is desk-scale only (n <= 8)")
    shapes = None
    if quad_criterion_applies(fw):
        shapes = _quad_shapes(fw, residual_tol)
    return _random_shape_search(fw, trials, seed, residual_tol) if shapes is None else shapes
