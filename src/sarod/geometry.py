"""Planar configurations, the measurement map, and similarity fitting.

A configuration is an (n, 2) float array of pairwise-distinct positions,
indexed by vertex id - 1.  The signed angle at apex i from neighbor j to
neighbor k is the counter-clockwise rotation in [0, 2*pi) carrying the unit
bearing toward j onto the unit bearing toward k; the distance ratio at apex
i is ||p_k - p_i|| / ||p_j - p_i||.  Both are invariant under uniform
rotations, translations, and positive scalings.  ``measurement_map``
evaluates both, and their gradients (the rows of the rigidity matrix), for
all triples and any number of configurations at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Bipartition, Graph, TripleIndexSet

__all__ = [
    "CollocationError",
    "Framework",
    "MeasurementSet",
    "SimilarityTransform",
    "rotation",
    "wrap_angle",
    "collinearity",
    "signed_angle",
    "ratio_of_distance",
    "measurement_map",
    "rigidity_function",
    "synthesize_measurements",
    "fit_similarity",
]

TWO_PI = 2.0 * np.pi


class CollocationError(ValueError):
    """Raised when distinct vertices share a position (violates Assumption 1)."""


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def wrap_angle(theta):
    """Wrap to [0, 2*pi)."""
    return np.mod(theta, TWO_PI)


def as_points(points) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValueError(f"configuration must have shape (n, 2), got {p.shape}")
    return p


def check_distinct(points: np.ndarray):
    """Raise ``CollocationError`` naming the lowest vertex that shares its position, and its lowest twin.

    Sorts the positions lexicographically (stable, so twins stay in vertex
    order) and compares neighbours with ``==``, so -0.0 equals 0.0.
    """
    p = as_points(points)
    order = np.lexsort(p.T[::-1])
    q = p[order]
    twins = np.flatnonzero((q[1:] == q[:-1]).all(axis=1))
    if twins.size:
        k = twins[np.argmin(order[twins])]
        raise CollocationError(f"collocated nodes (Assumption 1): vertices {order[k] + 1} and {order[k + 1] + 1}")


@dataclass(frozen=True)
class Framework:
    """Graph + bipartition + planar configuration of pairwise-distinct positions (Assumption 1, checked here)."""

    graph: Graph
    bipartition: Bipartition
    points: np.ndarray

    def __post_init__(self):
        p = as_points(self.points)
        if p.shape[0] != self.graph.n:
            raise ValueError("configuration size does not match graph")
        if not np.isfinite(p).all():
            raise ValueError(f"vertex {int(np.argmin(np.isfinite(p).all(axis=1))) + 1}: position is not finite")
        check_distinct(p)
        if self.bipartition.n != self.graph.n:
            raise ValueError("bipartition size does not match graph")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "points", p)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def swapped(self) -> "Framework":
        """The framework with the A/D parts exchanged; it shares the graph and the points, already checked and read-only, so nothing is validated again."""
        fw = object.__new__(Framework)
        for name, value in (("graph", self.graph), ("bipartition", self.bipartition.swapped()), ("points", self.points)):
            object.__setattr__(fw, name, value)
        return fw

    def point(self, v: int) -> np.ndarray:
        return self.points[v - 1]


@dataclass(frozen=True)
class MeasurementSet:
    """Exact per-triple measurements: angles in [0, 2*pi), ratios > 0."""

    sa: dict[tuple[int, int, int], float] = field(default_factory=dict)
    rod: dict[tuple[int, int, int], float] = field(default_factory=dict)


def _bearing(points: np.ndarray, i: int, j: int) -> tuple[np.ndarray, float]:
    e = points[j - 1] - points[i - 1]
    d = float(np.linalg.norm(e))
    if d == 0.0:
        raise CollocationError(f"collocated nodes (Assumption 1): vertices {i} and {j}")
    return e / d, d


def signed_angle(points, triple: tuple[int, int, int]) -> float:
    """Signed angle in [0, 2*pi) at the apex, from the first to the second neighbor.

    Computed as atan2(cross, dot) of the two unit bearings and wrapped,
    which equals the two-branch arccos form but keeps full accuracy near
    0 and pi.
    """
    i, j, k = triple
    if len({i, j, k}) != 3:
        raise ValueError(f"triple {triple} must have three distinct vertices")
    p = as_points(points)
    bij, _ = _bearing(p, i, j)
    bik, _ = _bearing(p, i, k)
    cross = bij[0] * bik[1] - bij[1] * bik[0]
    dot = float(bij @ bik)
    return float(wrap_angle(np.arctan2(cross, dot)))


def ratio_of_distance(points, triple: tuple[int, int, int]) -> float:
    """||p_k - p_i|| / ||p_j - p_i|| at apex i."""
    i, j, k = triple
    if len({i, j, k}) != 3:
        raise ValueError(f"triple {triple} must have three distinct vertices")
    p = as_points(points)
    _, dij = _bearing(p, i, j)
    _, dik = _bearing(p, i, k)
    return dik / dij


def collinearity(apex, b, c) -> float:
    """|u x v| / (|u| |v|) of the legs u = b - apex, v = c - apex: zero iff the three points are collinear.

    A leg of zero length gives 0.0.
    """
    u = b - apex
    v = c - apex
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return abs(u[0] * v[1] - u[1] * v[0]) / (nu * nv)


def measurement_map(q, t: np.ndarray, n_sa: int, gradients: bool = False):
    """Signed angles and distance ratios of the triples ``t``, for configurations q (..., n, 2).

    ``t`` holds (apex, v, w) vertex indices, (T, 3): its first ``n_sa``
    rows are SA triples, the rest RoD triples.  With arms a = q_v - q_apex
    and b = q_w - q_apex the angle is atan2(a x b, a . b) wrapped to
    [0, 2*pi) and the ratio is rho = |b|/|a|.  Returns the values (..., T)
    and, with ``gradients``, also their gradients (..., T, 3, 2) at the
    apex, v and w: the angle has -R a/|a|^2 at v and R b/|b|^2 at w (R the
    rotation by pi/2), the ratio -rho a/|a|^2 and rho b/|b|^2, and the apex
    takes minus their sum.  Collocated arms raise ``CollocationError`` when
    only values are asked for; with ``gradients`` (the batched iterates of
    the shape oracle may collocate) they give non-finite entries instead.
    """
    pts = np.take(q, t, axis=-2)  # (..., T, 3, 2); take is faster than fancy indexing here
    arms = pts[..., 1:, :] - pts[..., :1, :]  # (..., T, 2, 2): apex -> v, apex -> w
    x, y = arms[..., 0], arms[..., 1]
    sq = x * x + y * y
    if not gradients and not sq.all():
        *_, k, arm = np.unravel_index(np.argmin(sq), sq.shape)
        raise CollocationError(f"collocated nodes (Assumption 1): vertices {t[k, 0] + 1} and {t[k, arm + 1] + 1}")
    vals = np.sqrt(sq[..., 1] / sq[..., 0])
    xs, ys = x[..., :n_sa, :], y[..., :n_sa, :]
    vals[..., :n_sa] = wrap_angle(np.arctan2(xs[..., 0] * ys[..., 1] - ys[..., 0] * xs[..., 1], xs[..., 0] * xs[..., 1] + ys[..., 0] * ys[..., 1]))
    if not gradients:
        return vals
    grad = arms / sq[..., None]
    grad[..., :n_sa, :, :] = grad[..., :n_sa, :, ::-1] * [-1.0, 1.0]  # R(pi/2) g
    grad[..., n_sa:, :, :] *= vals[..., n_sa:, None, None]
    grad[..., 0, :] *= -1.0
    return vals, np.concatenate([-grad.sum(axis=-2, keepdims=True), grad], axis=-2)


def rigidity_function(points, sa_triples: TripleIndexSet, rod_triples: TripleIndexSet) -> np.ndarray:
    """Stacked measurement vector: all signed angles first, then all ratios.

    The entry order (SA in ``sa_triples`` order, then RoD in ``rod_triples``
    order) is the row order of the rigidity matrix.  Entries equal
    ``signed_angle`` and ``ratio_of_distance`` of each triple up to
    rounding, evaluated for all triples at once by ``measurement_map``.
    """
    p = as_points(points)
    t = np.concatenate([sa_triples.vertex_index, rod_triples.vertex_index])
    return measurement_map(p, t, len(sa_triples))


def synthesize_measurements(points, sa_triples: TripleIndexSet, rod_triples: TripleIndexSet) -> MeasurementSet:
    """Exact measurements over the given triple sets."""
    vals = rigidity_function(points, sa_triples, rod_triples).tolist()
    n_sa = len(sa_triples)
    return MeasurementSet(dict(zip(sa_triples.triples, vals[:n_sa])), dict(zip(rod_triples.triples, vals[n_sa:])))


@dataclass(frozen=True)
class SimilarityTransform:
    """q = c * R(theta) p + xi with c > 0."""

    c: float
    theta: float
    xi: np.ndarray

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float).reshape(2))

    def apply(self, points) -> np.ndarray:
        p = as_points(points)
        return self.c * p @ rotation(self.theta).T + self.xi


def fit_similarity(p, q, tol: float = 1e-8):
    """Least-squares similarity (positive scale, rotation, translation) from p to q.

    Returns (transform, rms_residual, same_shape) where ``same_shape`` is the
    membership verdict rms_residual < tol.  Reflections are excluded: a
    reflected copy of a non-degenerate configuration yields a positive
    residual.
    """
    p = as_points(p)
    q = as_points(q)
    if p.shape != q.shape:
        raise ValueError("configurations must have the same size")
    n = p.shape[0]
    if n < 2:
        raise ValueError("need at least two points to fit a similarity")
    pc = p - p.mean(axis=0)
    qc = q - q.mean(axis=0)
    denom = float((pc**2).sum())
    if denom == 0.0:
        raise CollocationError("collocated nodes (Assumption 1)")
    sdot = float((pc * qc).sum())
    scross = float((pc[:, 0] * qc[:, 1] - pc[:, 1] * qc[:, 0]).sum())
    theta = float(wrap_angle(np.arctan2(scross, sdot)))
    c = float(np.hypot(sdot, scross) / denom)
    if c <= 0.0:
        # Degenerate target (e.g. all points coincide): fall back to unit scale.
        c = 1.0
    xi = q.mean(axis=0) - c * p.mean(axis=0) @ rotation(theta).T
    t = SimilarityTransform(c, theta, xi)
    resid = float(np.sqrt(((t.apply(p) - q) ** 2).sum(axis=1).mean()))
    return t, resid, resid < tol
