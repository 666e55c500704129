"""Geometry checks.

The arccos two-branch rule serves as the independent reference for the
signed angle; invariance under similarity transforms, the chain identities
at high-degree vertices, and the similarity fit are exercised on seeded
random data.
"""

import numpy as np
import pytest

from sarod import (
    Bipartition,
    Framework,
    Graph,
    SimilarityTransform,
    enumerate_triples,
    fit_similarity,
    ratio_of_distance,
    rigidity_function,
    signed_angle,
    synthesize_measurements,
)
from sarod.geometry import CollocationError, rotation

from conftest import random_framework

TWO_PI = 2.0 * np.pi


def arccos_branch_angle(p, triple):
    """Reference implementation: two-branch arccos with the rotation test."""
    i, j, k = triple
    p = np.asarray(p, dtype=float)
    bij = (p[j - 1] - p[i - 1]) / np.linalg.norm(p[j - 1] - p[i - 1])
    bik = (p[k - 1] - p[i - 1]) / np.linalg.norm(p[k - 1] - p[i - 1])
    r90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    val = np.arccos(np.clip(bij @ bik, -1.0, 1.0))
    if bik @ (r90 @ bij) >= 0:
        return val
    return TWO_PI - val


def test_signed_angle_axis_cases():
    pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    assert signed_angle(pts, (1, 2, 3)) == 0.0
    assert signed_angle([[0, 0], [1, 0], [0, 1]], (1, 2, 3)) == pytest.approx(np.pi / 2)
    assert signed_angle([[0, 0], [1, 0], [0, -1]], (1, 2, 3)) == pytest.approx(3 * np.pi / 2)


def test_signed_angle_rotates_first_bearing_onto_second(rng):
    for _ in range(50):
        p = rng.normal(size=(3, 2))
        a = signed_angle(p, (1, 2, 3))
        b12 = (p[1] - p[0]) / np.linalg.norm(p[1] - p[0])
        b13 = (p[2] - p[0]) / np.linalg.norm(p[2] - p[0])
        assert np.allclose(rotation(a) @ b12, b13, atol=1e-12)


def test_signed_angle_matches_arccos_branches(rng):
    for _ in range(200):
        p = rng.normal(size=(3, 2))
        b12 = (p[1] - p[0]) / np.linalg.norm(p[1] - p[0])
        b13 = (p[2] - p[0]) / np.linalg.norm(p[2] - p[0])
        cross = abs(b12[0] * b13[1] - b12[1] * b13[0])
        if cross < 1e-14:
            continue  # both branches agree at 0 / pi anyway
        assert signed_angle(p, (1, 2, 3)) == pytest.approx(arccos_branch_angle(p, (1, 2, 3)), abs=1e-12)


def test_ratio_of_distance_values():
    iso = [[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]]
    assert ratio_of_distance(iso, (1, 2, 3)) == pytest.approx(1.0)
    quad = [[0, 0], [4, 0], [3, 1], [2, 1]]
    assert ratio_of_distance(quad, (1, 2, 4)) == pytest.approx(np.sqrt(5) / 4)


def test_chain_identities(rng):
    # At any vertex with three neighbors j < k < l the angle sums and ratio
    # products telescope.
    for _ in range(30):
        p = rng.normal(size=(4, 2))
        ajk = signed_angle(p, (1, 2, 3))
        akl = signed_angle(p, (1, 3, 4))
        ajl = signed_angle(p, (1, 2, 4))
        assert np.mod(ajk + akl - ajl, TWO_PI) == pytest.approx(0.0, abs=1e-12) or np.mod(
            ajk + akl - ajl, TWO_PI
        ) == pytest.approx(TWO_PI, abs=1e-12)
        assert ratio_of_distance(p, (1, 2, 3)) * ratio_of_distance(p, (1, 3, 4)) == pytest.approx(
            ratio_of_distance(p, (1, 2, 4)), rel=1e-12
        )


def test_collocation_raises():
    with pytest.raises(CollocationError):
        signed_angle([[0, 0], [0, 0], [1, 1]], (1, 2, 3))
    with pytest.raises(ValueError):
        ratio_of_distance([[0, 0], [1, 0], [1, 1]], (1, 1, 3))


def test_check_distinct_names_the_lowest_vertex_and_its_lowest_twin():
    from sarod.geometry import check_distinct

    check_distinct([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # Vertices 2, 4 and 5 coincide, and so do 3 and 6: the lowest vertex with a twin is 2, its lowest twin 4.
    three = [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 0.0]]
    with pytest.raises(CollocationError, match="vertices 2 and 4$"):
        check_distinct(three)
    with pytest.raises(CollocationError, match="vertices 1 and 3$"):
        check_distinct([[3.0, 1.0], [0.0, 0.0], [3.0, 1.0]])
    # -0.0 and 0.0 are one position.
    with pytest.raises(CollocationError, match="vertices 1 and 3$"):
        check_distinct([[0.0, -0.0], [1.0, 0.0], [-0.0, 0.0]])
    with pytest.raises(CollocationError, match="vertices 2 and 3$"):
        check_distinct([[5.0, 5.0], [-0.0, 2.0], [0.0, 2.0]])
    # A framework checks Assumption 1 as it is built.
    path = Graph(6, tuple((v, v + 1) for v in range(1, 6)))
    with pytest.raises(CollocationError, match="vertices 2 and 4$"):
        Framework(path, Bipartition.from_a_set(6, [1]), np.array(three))


def test_rigidity_function_triangle_order():
    g = Graph(3, ((1, 2), (1, 3), (2, 3)))
    fw = Framework(g, Bipartition.from_a_set(3, [2]), np.array([[0.0, 0], [1, 0], [0.4, 0.9]]))
    sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
    f = rigidity_function(fw.points, sa, rod)
    assert len(sa) == 1 and len(rod) == 2 and f.shape == (3,)
    assert f[0] == pytest.approx(signed_angle(fw.points, sa.triples[0]))


def test_rigidity_function_matches_per_triple_reference():
    # The vectorized evaluation reproduces signed_angle / ratio_of_distance:
    # ratios to 1e-15 relative, angles to 1e-15 absolute on their [0, 2*pi)
    # range (a relative bound cannot hold for angles near 0).
    from sarod.construction import generate

    for recipe in ("quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal"):
        for n, seed in ((12, 0), (70, 1)):
            fw = generate(recipe, n, seed).framework
            sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
            f = rigidity_function(fw.points, sa, rod)
            angles = np.array([signed_angle(fw.points, t) for t in sa.triples])
            ratios = np.array([ratio_of_distance(fw.points, t) for t in rod.triples])
            assert np.max(np.abs(f[: len(sa)] - angles), initial=0.0) <= 1e-15
            assert np.max(np.abs(f[len(sa) :] - ratios) / ratios, initial=0.0) <= 1e-15
            ms = synthesize_measurements(fw.points, sa, rod)
            assert list(ms.sa) == list(sa.triples) and list(ms.rod) == list(rod.triples)
            assert np.array_equal(np.array(list(ms.sa.values()) + list(ms.rod.values())), f)


def test_rigidity_function_rejects_collocated_and_repeated_vertices():
    g = Graph(3, ((1, 2), (1, 3), (2, 3)))
    sa, rod = enumerate_triples(g, Bipartition.from_a_set(3, [2]), "full")
    with pytest.raises(CollocationError, match="vertices 1 and 3"):
        rigidity_function(np.array([[0.0, 0], [1, 0], [0, 0]]), sa, rod)
    from sarod.graph import TripleIndexSet

    with pytest.raises(ValueError, match="distinct"):
        TripleIndexSet(np.array([[0, 1, 1]]), np.zeros(1, dtype=int), np.zeros(1, dtype=int))


def test_rigidity_function_defined_on_degenerate_triangle():
    # Collinear but not collocated: all entries finite.
    g = Graph(3, ((1, 2), (1, 3), (2, 3)))
    fw = Framework(g, Bipartition.from_a_set(3, [2]), np.array([[0.0, 0], [1, 0], [2.5, 0]]))
    sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
    f = rigidity_function(fw.points, sa, rod)
    assert np.all(np.isfinite(f))


def test_rigidity_function_similarity_invariance(rng):
    for _ in range(20):
        fw = random_framework(int(rng.integers(4, 8)), rng)
        sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
        f0 = rigidity_function(fw.points, sa, rod)
        t = SimilarityTransform(
            c=float(rng.uniform(0.1, 10.0)),
            theta=float(rng.uniform(0, TWO_PI)),
            xi=rng.normal(size=2),
        )
        f1 = rigidity_function(t.apply(fw.points), sa, rod)
        n_sa = len(sa)
        if n_sa:
            d_sa = np.mod(f1[:n_sa] - f0[:n_sa] + np.pi, TWO_PI) - np.pi
            assert np.max(np.abs(d_sa)) < 1e-12
        if len(rod):
            assert np.max(np.abs(f1[n_sa:] - f0[n_sa:]) / np.abs(f0[n_sa:])) < 1e-12


def test_synthesize_measurements_roundtrip(rng):
    fw = random_framework(6, rng)
    sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
    ms = synthesize_measurements(fw.points, sa, rod)
    f = rigidity_function(fw.points, sa, rod)
    stacked = [ms.sa[t] for t in sa.triples] + [ms.rod[t] for t in rod.triples]
    assert np.allclose(stacked, f)
    none = type(sa)(sa.vertex_index[:0], sa.e1[:0], sa.e2[:0])
    empty = synthesize_measurements(fw.points, none, none)
    assert not empty.sa and not empty.rod


def test_fit_similarity_identity(rng):
    p = rng.normal(size=(5, 2))
    t, resid, same = fit_similarity(p, p)
    assert resid == pytest.approx(0.0, abs=1e-12)
    assert same
    assert t.c == pytest.approx(1.0) and t.theta == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(t.xi, 0.0, atol=1e-12)


def test_fit_similarity_recovers_transform(rng):
    for _ in range(25):
        p = rng.normal(size=(6, 2))
        truth = SimilarityTransform(
            c=float(rng.uniform(0.1, 10.0)),
            theta=float(rng.uniform(0, TWO_PI)),
            xi=rng.normal(size=2),
        )
        t, resid, same = fit_similarity(p, truth.apply(p))
        assert same and resid < 1e-10
        assert t.c == pytest.approx(truth.c, rel=1e-10)
        assert np.mod(t.theta - truth.theta, TWO_PI) == pytest.approx(0.0, abs=1e-9) or np.mod(
            t.theta - truth.theta, TWO_PI
        ) == pytest.approx(TWO_PI, abs=1e-9)


def test_fit_similarity_rejects_reflection(rng):
    p = rng.normal(size=(6, 2))
    q = p @ np.diag([1.0, -1.0])
    t, resid, same = fit_similarity(p, q)
    assert t.c > 0
    assert resid > 1e-3
    assert not same


def test_fit_similarity_needs_two_points():
    with pytest.raises(ValueError):
        fit_similarity(np.zeros((1, 2)), np.zeros((1, 2)))
