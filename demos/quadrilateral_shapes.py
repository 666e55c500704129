"""Walkthrough: when does a measured 4-cycle have a unique shape?

The 4-cycle is the smallest interesting case: it is flexible under pure
angle or pure ratio sensing, but mixing the two can pin the shape up to
similarity.  The criterion depends on how the two A-vertices sit on the
cycle; each verdict below is cross-checked against the equivalent-shape
oracle, which lists every configuration matching the measurements in
closed form (at most two, from a linear system, a circle intersection or
a quadratic in one edge scale).
"""

import numpy as np

from sarod import Bipartition, Framework, Graph, equivalent_shape_search, quad_global_rigidity

QUAD = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))


def show(label, fw):
    verdict = quad_global_rigidity(fw)
    shapes = equivalent_shape_search(fw)
    print(f"{label}: case {verdict.case}, rigid={bool(verdict.rigid)} "
          f"(margin {verdict.margin:.3g}), distinct shapes found: {len(shapes)}")
    return verdict, shapes


# Three A-vertices: rigid exactly when they are not collinear.
p = np.array([[0.0, 0.0], [1.0, 0.1], [1.2, 1.0], [0.1, 1.2]])
show("three A-vertices, generic", Framework(QUAD, Bipartition.from_a_set(4, [1, 2, 3]), p))

# One A-vertex: rigid only on the symmetric exceptional sets, e.g. the kite
# where the opposite D-vertex mirrors the A-vertex.
p2, p4 = np.array([0.0, 0.0]), np.array([2.0, 0.0])
p1 = np.array([0.6, 0.9])
kite = np.vstack([p1, p2, np.array([0.6, -0.9]), p4])
show("one A-vertex, kite", Framework(QUAD, Bipartition.from_a_set(4, [1]), kite))
generic = np.array([[0.0, 0.0], [1.0, 0.1], [1.5, 1.0], [0.2, 1.2]])
show("one A-vertex, generic", Framework(QUAD, Bipartition.from_a_set(4, [1]), generic))

# Adjacent A-pair: the sign of d12 + 2 d34 cos(theta34 - theta12) decides.
# This instance has margin +2, and the oracle finds the documented second
# shape (similar to the one with corners at (2,0) and (1,1)).
p = np.array([[0.0, 0.0], [4.0, 0.0], [3.0, 1.0], [2.0, 1.0]])
v, shapes = show("adjacent A-pair, margin +2", Framework(QUAD, Bipartition.from_a_set(4, [1, 2]), p))
print("   raw margin:", v.details["adjacent_margin_raw"])

# A rigid adjacent-pair instance: reverse the D-side so the margin is negative.
p = np.array([[0.0, 0.0], [1.0, 0.0], [2.1, 0.9], [-1.1, 1.0]])
show("adjacent A-pair, negative margin", Framework(QUAD, Bipartition.from_a_set(4, [1, 2]), p))

# Opposite A-pair: rigid when the side-difference product is non-positive
# (or on the measure-zero discriminant).
s3 = np.sqrt(3.0)
p = np.array([[1.0, s3], [0.0, 0.0], [4.0, 0.0], [2.0, s3]])
v, _ = show("opposite A-pair, both violated", Framework(QUAD, Bipartition.from_a_set(4, [1, 3]), p))
print("   sign product:", v.details["sign_product_raw"], " discriminant:", v.details["discriminant_raw"])
