"""Constructive generation of globally rigid frameworks.

Growth operations append vertices to a framework under attribute patterns
that preserve global rigidity: four kinds of single-vertex additions (A1,
D1, A2, D2), the two-vertex addition (one new quadrilateral with exactly
three A-vertices), and two merge operations (adding edges between two rigid
frameworks, contracting coincident vertex pairs).  Recipe generators
compose these into reproducible seeded constructions whose connectivity
signatures drive the localization solvers:

- ``quad2v``: quadrilateralized by 2-vertex additions on existing edges;
  SA-connected; minimal edge count (3n-4)/2 for even n.
- ``bilat-D1A1``: bilateration alternating D1/A1 additions; a Laman graph
  (m = 2n-3); RoD-connected.
- ``mix-D2A1``: D2/A1 additions from a globally rigid kite quadrilateral;
  RoD-connected.
- ``type2D1``: alternating 2-vertex and D1 additions; neither SA- nor
  RoD-connected.
- ``minimal``: 2-vertex additions (+ one D1 when n is odd) hitting the edge
  lower bound exactly.

A recipe grows one construction state in place (points, attributes, edges
and the step log) and builds and validates its ``Framework`` once, at the
end.  Every addition goes through one placement-and-append primitive and
costs O(1): the points sit in one append-only store, each attribute keeps
its vertices in a list appended in id order, and the collocation guard
looks only at the 3 x 3 cells of a uniform grid around each draw.  All
randomness flows from the explicit seed; positions are drawn from the unit
box and resampled until the collinearity and collocation guards pass (a
rejected attempt's points leave the store and the grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .geometry import Framework, collinearity
from .graph import Bipartition, Graph

__all__ = [
    "Construction",
    "ConstructionError",
    "apply_vertex_addition",
    "apply_two_vertex_addition",
    "generate_quadrilateralized",
    "generate_bilateration",
    "generate_mixed",
    "generate_two_step",
    "generate_minimal_rigid",
    "generate",
    "merge_add_edges",
    "merge_contract",
    "RECIPES",
]

COLLINEARITY_TOL = 1e-6
SEPARATION = 1e-6
PLACEMENT_RETRIES = 100
UNIT_BOX = ((0.0, 0.0), (1.0, 1.0))
# Grid cell of the separation guard: twice the separation, so a point within
# SEPARATION of a draw is in one of the 3 x 3 cells around the draw's cell.
_CELL = 2 * SEPARATION


class ConstructionError(ValueError):
    """Raised when an addition's attribute or geometry precondition fails."""


@dataclass
class Construction:
    """A generated framework together with its reproducible build log."""

    framework: Framework
    steps: list = field(default_factory=list)
    recipe: str = ""
    seed: int = 0


def _noncollinear(a, b, c) -> bool:
    return collinearity(a, b, c) > COLLINEARITY_TOL


def _pick(rng, seq):
    """One uniformly drawn element of ``seq``."""
    return seq[rng.integers(len(seq))]


def _check_vertices(fw: Framework, label: str, *ids):
    for v in ids:
        if not 1 <= v <= fw.n:
            raise ConstructionError(f"vertex {v} is not in 1..{fw.n} of the {label} framework")


class _Growth:
    """A network under construction: points, attributes, edges and step log.

    Additions append to it in place, each in O(1): the points sit in one
    append-only list of (x, y) pairs, indexed by a uniform grid for the
    separation guard, and each attribute keeps its vertices in ascending id
    order.  ``framework`` builds and validates the ``Framework`` once, when
    the network is complete.
    """

    def __init__(self, rng, attrs, edges, points=None, noncollinear=()):
        """Vertices 1..len(attrs) joined by ``edges``, at ``points`` or placed under ``noncollinear``."""
        self.rng, self.steps, self.edges = rng, [], list(edges)
        self.attrs, self.by_attr = [], {"A": [], "D": []}
        self.xy, self.grid = [], {}
        for a in attrs:
            self._append_attr(a)
        if points is None:
            self._place(len(attrs), noncollinear)
        else:
            for x, y in points.tolist():
                self._put(x, y)

    @property
    def n(self) -> int:
        return len(self.attrs)

    @property
    def points(self) -> np.ndarray:
        return np.array(self.xy)

    def _attachments(self, attach) -> tuple[int, int]:
        i, j = attach
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ConstructionError(f"bad attachments {attach}")
        return i, j

    def _append_attr(self, attr: str):
        self.attrs.append(attr)
        self.by_attr.setdefault(attr, []).append(len(self.attrs))

    def vertices(self, attr: str) -> list[int]:
        """The vertices with attribute ``attr`` in ascending order; the live list, which callers must not change."""
        return self.by_attr[attr]

    def _at(self, ids) -> np.ndarray:
        return np.array([self.xy[v - 1] for v in ids])

    def _put(self, x: float, y: float):
        self.xy.append((x, y))
        self.grid.setdefault((x // _CELL, y // _CELL), []).append((x, y))

    def _truncate(self, count: int):
        """Drop the points after the first ``count`` from the store and the grid (last in, first out)."""
        while len(self.xy) > count:
            x, y = self.xy.pop()
            self.grid[x // _CELL, y // _CELL].pop()

    def _separated(self, x: float, y: float) -> bool:
        """Whether every stored point lies more than ``SEPARATION`` from (x, y).

        A point within ``SEPARATION`` lies at most half a cell away in each
        coordinate, so in one of the 3 x 3 cells around (x, y), even after
        rounding in the cell index.
        """
        cx, cy = x // _CELL, y // _CELL
        grid = self.grid
        for gx in (cx - 1.0, cx, cx + 1.0):
            for gy in (cy - 1.0, cy, cy + 1.0):
                for px, py in grid.get((gx, gy), ()):
                    dx, dy = px - x, py - y
                    if sqrt(dx * dx + dy * dy) <= SEPARATION:
                        return False
        return True

    def _draw(self) -> tuple[float, float]:
        """A uniform draw from ``UNIT_BOX`` apart from every stored point (x first, then y)."""
        (x0, y0), (x1, y1) = UNIT_BOX
        rng = self.rng
        for _ in range(PLACEMENT_RETRIES):
            x, y = x0 + (x1 - x0) * rng.random(), y0 + (y1 - y0) * rng.random()
            if self._separated(x, y):
                return x, y
        raise ConstructionError("placement failed after retries (collocation guard)")

    def _place(self, count: int, noncollinear=()):
        """Append ``count`` new points, each drawn apart from all before it.

        All new points are redrawn together until every vertex-id triple in
        ``noncollinear`` has non-collinear positions; a rejected attempt's
        points leave the store and the grid before the next one.  A failed
        placement leaves the state partial; every caller then drops it.
        """
        start = len(self.xy)
        for _ in range(PLACEMENT_RETRIES):
            for _ in range(count):
                self._put(*self._draw())
            if all(_noncollinear(*self._at(trio)) for trio in noncollinear):
                return
            self._truncate(start)
        raise ConstructionError("placement failed after retries (collinearity guard)")

    def add(self, kind: str, attach, new_attrs, third: int | None = None, noncollinear=()):
        """Place vertices n+1.. with ``new_attrs`` at attachments (i, j), join them, log the step.

        One new vertex is joined to i, j and ``third`` if given; two new
        vertices close the quadrilateral (j, n+1), (n+1, n+2), (n+2, i).
        No attribute rule is checked here.
        """
        i, j = self._attachments(attach)
        new = list(range(self.n + 1, self.n + 1 + len(new_attrs)))
        self._place(len(new), noncollinear)
        if len(new) == 1:
            self.edges += [(i, new[0]), (j, new[0])] + ([] if third is None else [(third, new[0])])
        else:
            self.edges += [(j, new[0]), (new[0], new[1]), (i, new[1])]
        for a in new_attrs:
            self._append_attr(a)
        step = {"kind": kind, "attach": [int(i), int(j)]}
        if third is not None:
            step["third"] = int(third)
        step["new"] = new
        if len(new) == 2:
            step["attrs"] = list(new_attrs)
        step["pos"] = [[x, y] for x, y in self.xy[-len(new):]]
        self.steps.append(step)

    def vertex_addition(self, kind: str, attach, third: int | None = None):
        """One-vertex addition of the given kind, after checking its attribute rule."""
        i, j = self._attachments(attach)
        a_i, a_j = self.attrs[i - 1], self.attrs[j - 1]
        noncollinear = ()
        if kind == "A1":
            if a_i != "D" and a_j != "D":
                raise ConstructionError("Type A1 needs i in V_D or j in V_D")
        elif kind == "D1":
            if a_i != "A" and a_j != "A":
                raise ConstructionError("Type D1 needs i in V_A or j in V_A")
        elif kind == "A2":
            if a_i != "A" or a_j != "A":
                raise ConstructionError("Type A2 needs both attachments in V_A")
            noncollinear = ((i, j, self.n + 1),)
        elif kind == "D2":
            if a_i != "D" or a_j != "D":
                raise ConstructionError("Type D2 needs both attachments in V_D")
            if third is None or not (1 <= third <= self.n) or third in (i, j):
                raise ConstructionError("Type D2 needs a distinct third vertex")
            if self.attrs[third - 1] != "D":
                raise ConstructionError("Type D2 third vertex must be in V_D")
            if not _noncollinear(*self._at((i, j, third))):
                raise ConstructionError("Type D2 attachment positions are collinear")
        else:
            raise ConstructionError(f"unknown addition kind {kind!r}")
        if third is not None and kind != "D2":
            raise ConstructionError(f"Type {kind} takes no third vertex")
        # The kind's letter is the new vertex's attribute.
        self.add(kind, attach, [kind[0]], third, noncollinear)

    def two_vertex_addition(self, attach, new_attrs):
        """Two-vertex addition, after checking the exactly-three-A rule."""
        i, j = self._attachments(attach)
        a1, a2 = new_attrs
        quad_attrs = (self.attrs[i - 1], self.attrs[j - 1], a1, a2)
        a_quad = tuple(v for v, a in zip((i, j, self.n + 1, self.n + 2), quad_attrs) if a == "A")
        if len(a_quad) != 3:
            raise ConstructionError("2-vertex addition needs exactly three A-vertices among i, j, n+1, n+2")
        self.add("two_vertex", attach, [a1, a2], noncollinear=(a_quad,))

    def framework(self) -> Framework:
        return Framework(Graph(self.n, tuple(self.edges)), Bipartition(tuple(self.attrs)), self.points)


def apply_vertex_addition(fw: Framework, kind: str, attach, rng, third: int | None = None):
    """One-vertex addition of the given kind at attachments (i, j).

    Kind A1 adds an A-vertex and needs a D-attachment; D1 is the mirror.
    A2 adds an A-vertex on two A-attachments and resamples until the three
    A-positions are non-collinear.  D2 adds a D-vertex on two D-attachments
    plus a third edge to an existing D-vertex ``third`` with the three
    attachment positions non-collinear; no other kind takes ``third``.
    Returns (framework, step record).
    """
    growth = _Growth(rng, fw.bipartition.attrs, fw.graph.edges, fw.points)
    growth.vertex_addition(kind, attach, third)
    return growth.framework(), growth.steps[0]


def apply_two_vertex_addition(fw: Framework, attach, new_attrs, rng):
    """Two-vertex addition: vertices n+1, n+2 and edges (j,n+1), (n+1,n+2), (n+2,i).

    Exactly three of {i, j, n+1, n+2} must be A-vertices, and the three
    A-positions are resampled until non-collinear.
    """
    growth = _Growth(rng, fw.bipartition.attrs, fw.graph.edges, fw.points)
    growth.two_vertex_addition(attach, new_attrs)
    return growth.framework(), growth.steps[0]


def _quadrilateralized(n: int, seed: int, defect_quads: int) -> _Growth:
    if n < 4 or n % 2:
        raise ConstructionError("quadrilateralized recipe needs even n >= 4")
    rng = np.random.default_rng(seed)
    growth = _Growth(rng, ("D", "A"), [(1, 2)])
    total = (n - 2) // 2
    for step_no in range(total):
        defective = step_no >= total - defect_quads
        candidates = growth.edges
        if defective:
            candidates = [(u, v) for (u, v) in candidates if growth.attrs[u - 1] == growth.attrs[v - 1] == "A"]
            if not candidates:
                raise ConstructionError("no A-A edge available for a defective quadrilateral")
        u, v = _pick(rng, candidates)
        i, j = (u, v) if rng.integers(2) else (v, u)
        if defective:
            # Bypass the exactly-three-A validation on purpose.
            growth.add("two_vertex_defect", (i, j), ["A", "A"])
            continue
        if growth.attrs[i - 1] != growth.attrs[j - 1]:  # one A-attachment
            new_attrs = ("A", "A")
        else:
            new_attrs = ("A", "D") if rng.integers(2) else ("D", "A")
        growth.two_vertex_addition((i, j), new_attrs)
    return growth


def generate_quadrilateralized(n: int, seed: int = 0, defect_quads: int = 0) -> Construction:
    """Quadrilateralized framework by 2-vertex additions on existing edges.

    With ``defect_quads`` > 0, that many trailing additions place both new
    vertices in V_A on an A-A base edge.  Such quadrilaterals violate the
    exactly-three-A rule, so the result is no longer a valid 2-vertex
    ordering (it stays SA-connected but loses rigidity: each defect drops
    the distance-system rank by one).
    """
    growth = _quadrilateralized(n, seed, defect_quads)
    return Construction(growth.framework(), growth.steps, "quad2v", seed)


def generate_bilateration(n: int, seed: int = 0) -> Construction:
    """Type (D1, A1) bilateration: odd vertices are D, even are A; m = 2n-3.

    Each new D-vertex attaches to one A- and one D-vertex; each new
    A-vertex to two D-vertices.  These are the patterns under which the
    bearing system has full column rank with anchors {1, 2}.
    """
    if n < 3:
        raise ConstructionError("bilateration recipe needs n >= 3")
    rng = np.random.default_rng(seed)
    growth = _Growth(rng, ("D", "A"), [(1, 2)])
    for k in range(3, n + 1):
        a_set = growth.vertices("A")
        d_set = growth.vertices("D")
        if k % 2:  # new D-vertex
            growth.vertex_addition("D1", (_pick(rng, a_set), _pick(rng, d_set)))
        else:  # new A-vertex
            picks = rng.choice(len(d_set), size=2, replace=False)
            growth.vertex_addition("A1", (d_set[picks[0]], d_set[picks[1]]))
    return Construction(growth.framework(), growth.steps, "bilat-D1A1", seed)


def generate_mixed(n: int, seed: int = 0) -> Construction:
    """Alternating A1 and three-edge D additions from a pure-D quadrilateral.

    Each A1 vertex attaches to two D-vertices other than the quadrilateral
    corners 3 and 4; each three-edge D-vertex attaches to two D-vertices
    plus a third edge to an A-vertex (so its bearing row block is pinned by
    a rotation constraint).  Every edge keeps a D-endpoint, so the RoD
    index graph stays connected, while corners 3 and 4 remain the only
    vertices whose edges carry no rotation constraint: the bearing system
    keeps a null space of dimension exactly 4.  The first D-addition
    attaches to (3, 4) so that the unit-norm constraints pin those corners
    uniquely.  For n = 4 + 2k the framework has m = 4 + 5k edges; at
    n = 70 this is 33 additions of each kind and m = 169.
    """
    if n < 6:
        raise ConstructionError("mixed recipe needs n >= 6")
    rng = np.random.default_rng(seed)
    # A generic 4-cycle with all vertices in V_D (flexible on its own).
    growth = _Growth(rng, ("D",) * 4, [(1, 2), (2, 3), (3, 4), (1, 4)], noncollinear=((1, 2, 3), (2, 3, 4)))
    growth.steps.append({"kind": "pure_d_quadrilateral", "new": [1, 2, 3, 4], "pos": growth.points.tolist()})
    while growth.n < n:
        # A1 from an even vertex count, three-edge D from an odd one; the first D (at n = 5) on corners 3, 4.
        d_set = growth.vertices("D")
        if growth.n % 2 == 0:
            # The pool is the D-list without corners 3 and 4, which sit at D-slots 2 and 3.
            picks = rng.choice(len(d_set) - 2, size=2, replace=False)
            growth.vertex_addition("A1", tuple(d_set[k if k < 2 else k + 2] for k in picks))
            continue
        if growth.n == 5:
            i, j = 3, 4
        else:
            picks = rng.choice(len(d_set), size=2, replace=False)
            i, j = d_set[picks[0]], d_set[picks[1]]
        growth.add("D_three_edge", (i, j), ["D"], third=_pick(rng, growth.vertices("A")))
    return Construction(growth.framework(), growth.steps, "mix-D2A1", seed)


def generate_two_step(n: int, seed: int = 0) -> Construction:
    """Alternating two-vertex and D1 additions; neither SA- nor RoD-connected.

    Two-vertex additions place both new vertices in V_A and attach to one
    D-vertex i and one A-vertex j (edges (j, n+1), (n+1, n+2), (n+2, i));
    D1 additions attach to one A- and one D-vertex, leaving one isolated
    D-D edge per step in the SA index graph and two isolated A-A edges per
    two-vertex step in the RoD index graph.
    """
    if n < 4:
        raise ConstructionError("two-step recipe needs n >= 4")
    rng = np.random.default_rng(seed)
    growth = _Growth(rng, ("D", "A"), [(1, 2)])
    next_two = True
    while growth.n < n:
        a_set = growth.vertices("A")
        d_set = growth.vertices("D")
        if next_two and growth.n + 2 <= n:
            growth.two_vertex_addition((_pick(rng, d_set), _pick(rng, a_set)), ("A", "A"))
        else:
            growth.vertex_addition("D1", (_pick(rng, a_set), _pick(rng, d_set)))
        next_two = not next_two
    return Construction(growth.framework(), growth.steps, "type2D1", seed)


def generate_minimal_rigid(n: int, seed: int = 0) -> Construction:
    """Framework hitting the rigidity edge lower bound.

    Even n: (n-2)/2 two-vertex additions, m = (3n-4)/2.  Odd n: two-vertex
    additions to n-1 followed by one D1 addition, m = (3n-3)/2.  Deleting
    any single edge breaks the rank condition.
    """
    if n < 4:
        raise ConstructionError("minimal recipe needs n >= 4")
    growth = _quadrilateralized(n - n % 2, seed, 0)
    if n % 2:
        growth.rng = rng = np.random.default_rng([seed, n])
        growth.vertex_addition("D1", (_pick(rng, growth.vertices("A")), _pick(rng, growth.vertices("D"))))
    return Construction(growth.framework(), growth.steps, "minimal", seed)


RECIPES = {
    "quad2v": generate_quadrilateralized,
    "bilat-D1A1": generate_bilateration,
    "mix-D2A1": generate_mixed,
    "type2D1": generate_two_step,
    "minimal": generate_minimal_rigid,
}


def generate(recipe: str, n: int, seed: int = 0) -> Construction:
    if recipe not in RECIPES:
        raise ConstructionError(f"unknown recipe {recipe!r}; choose from {sorted(RECIPES)}")
    return RECIPES[recipe](n, seed)


def _require_rigid(fw: Framework, label: str):
    from .rigidity import infinitesimal_rigidity_test

    report = infinitesimal_rigidity_test(fw)
    if not report.rigid:
        raise ConstructionError(f"{label} framework fails the rank test (rank {report.rank} != {report.required})")


def merge_add_edges(fw1: Framework, fw2: Framework, pair1, pair2, three_edges: bool = False) -> Framework:
    """Merge two rigid frameworks by adding cross edges.

    With vertices (i, m) of the first framework and (j, k) of the second,
    adds edges (m, k) and (i, j); exactly three of the four must be
    A-vertices with non-collinear positions.  With ``three_edges`` all four
    must be A-vertices (no three collinear) and edges (i, j), (i, k), (m, k)
    are added.  Both inputs must pass the rank test, standing in for the
    global-rigidity precondition of ordering-generated inputs.
    """
    i, m = pair1
    j, k = pair2
    _check_vertices(fw1, "first", i, m)
    _check_vertices(fw2, "second", j, k)
    _require_rigid(fw1, "first")
    _require_rigid(fw2, "second")
    n1 = fw1.n
    jj, kk = j + n1, k + n1
    attrs4 = [fw1.bipartition.attr(i), fw1.bipartition.attr(m), fw2.bipartition.attr(j), fw2.bipartition.attr(k)]
    pts4 = [fw1.point(i), fw1.point(m), fw2.point(j), fw2.point(k)]
    n_a = sum(1 for a in attrs4 if a == "A")
    if three_edges:
        if n_a != 4:
            raise ConstructionError("3-edge merge needs all four chosen vertices in V_A")
        for trio in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            if not _noncollinear(pts4[trio[0]], pts4[trio[1]], pts4[trio[2]]):
                raise ConstructionError("3-edge merge needs the four points non-collinear")
        new_edges = [(i, jj), (i, kk), (m, kk)]
    else:
        if n_a != 3:
            raise ConstructionError("2-edge merge needs exactly three of the four chosen vertices in V_A")
        a_pts = [pt for pt, a in zip(pts4, attrs4) if a == "A"]
        if not _noncollinear(*a_pts):
            raise ConstructionError("2-edge merge needs the three A-positions non-collinear")
        new_edges = [(m, kk), (i, jj)]
    edges = list(fw1.graph.edges) + [(a + n1, b + n1) for (a, b) in fw2.graph.edges] + new_edges
    points = np.vstack([fw1.points, fw2.points])
    attrs = fw1.bipartition.attrs + fw2.bipartition.attrs
    return Framework(Graph.from_edges(n1 + fw2.n, edges), Bipartition(attrs), points)


def merge_contract(fw1: Framework, fw2: Framework, pair_a, pair_b):
    """Merge two rigid frameworks by contracting two coincident vertex pairs.

    Pairs (i, j) and (m, k) with i, m in the first framework and j, k in the
    second must have equal positions (within 1e-9) and equal attributes.
    Both inputs must pass the rank test.  Returns (framework, vertex_map)
    where vertex_map sends each vertex of the second framework to its id in
    the merged one.
    """
    i, j = pair_a
    m, k = pair_b
    _check_vertices(fw1, "first", i, m)
    _check_vertices(fw2, "second", j, k)
    _require_rigid(fw1, "first")
    _require_rigid(fw2, "second")
    if j == k or i == m:
        raise ConstructionError("contraction pairs must use distinct vertices")
    for (u, v) in ((i, j), (m, k)):
        if np.linalg.norm(fw1.point(u) - fw2.point(v)) > 1e-9:
            raise ConstructionError(f"contracted vertices {u} and {v} are not coincident")
        if fw1.bipartition.attr(u) != fw2.bipartition.attr(v):
            raise ConstructionError(f"contracted vertices {u} and {v} have different attributes")
    n1 = fw1.n
    vmap: dict[int, int] = {j: i, k: m}
    next_id = n1 + 1
    for v in range(1, fw2.n + 1):
        if v not in vmap:
            vmap[v] = next_id
            next_id += 1
    edges = set(fw1.graph.edges)
    for (a, b) in fw2.graph.edges:
        u, v = vmap[a], vmap[b]
        if u == v:
            raise ConstructionError("contraction collapses an edge to a loop")
        edges.add((min(u, v), max(u, v)))
    new_points = np.zeros((next_id - 1, 2))
    new_points[:n1] = fw1.points
    attrs = list(fw1.bipartition.attrs) + [""] * (next_id - 1 - n1)
    for v in range(1, fw2.n + 1):
        t = vmap[v]
        if t > n1:
            new_points[t - 1] = fw2.point(v)
            attrs[t - 1] = fw2.bipartition.attr(v)
    merged = Framework(
        Graph(next_id - 1, tuple(sorted(edges))),
        Bipartition(tuple(attrs)),
        new_points,
    )
    return merged, vmap
