"""Construction checks: addition preconditions, recipe edge-count closed
forms, connectivity signatures, generic rigidity of generated frameworks,
minimality, the two merge operations, and the generated networks
themselves (pinned by digest)."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from sarod import (
    Bipartition,
    Framework,
    Graph,
    apply_two_vertex_addition,
    apply_vertex_addition,
    enumerate_triples,
    generate,
    generate_bilateration,
    generate_minimal_rigid,
    generate_mixed,
    generate_quadrilateralized,
    generate_two_step,
    infinitesimal_rigidity_test,
    merge_add_edges,
    merge_contract,
    triple_index_components,
)
from sarod.construction import PLACEMENT_RETRIES, ConstructionError
from sarod.geometry import rotation


def small_framework(rng, a_set=(2,)):
    g = Graph(3, ((1, 2), (1, 3), (2, 3)))
    return Framework(g, Bipartition.from_a_set(3, a_set), rng.uniform(0, 1, (3, 2)))


def test_a1_requires_d_attachment(rng):
    fw = small_framework(rng, a_set=(1, 2))
    with pytest.raises(ConstructionError, match="A1"):
        apply_vertex_addition(fw, "A1", (1, 2), rng)
    fw2, step = apply_vertex_addition(fw, "A1", (1, 3), rng)
    assert fw2.n == 4 and fw2.m == 5
    assert fw2.bipartition.attr(4) == "A"
    assert step["kind"] == "A1"


def test_d1_requires_a_attachment(rng):
    fw = small_framework(rng, a_set=(2,))
    with pytest.raises(ConstructionError, match="D1"):
        apply_vertex_addition(fw, "D1", (1, 3), rng)
    fw2, _ = apply_vertex_addition(fw, "D1", (1, 2), rng)
    assert fw2.bipartition.attr(4) == "D"
    # Only D2 adds a third edge, so no other kind may log a third vertex.
    with pytest.raises(ConstructionError, match="no third vertex"):
        apply_vertex_addition(fw, "D1", (1, 2), rng, third=3)


def test_d2_requires_three_d_vertices(rng):
    fw = small_framework(rng, a_set=(2, 3))  # only one D vertex
    with pytest.raises(ConstructionError):
        apply_vertex_addition(fw, "D2", (1, 2), rng, third=3)
    fw = small_framework(rng, a_set=())
    fw = Framework(fw.graph, Bipartition(("D", "D", "D")), fw.points)
    fw2, step = apply_vertex_addition(fw, "D2", (1, 2), rng, third=3)
    assert fw2.m == 6 and step["third"] == 3


def test_a2_noncollinear_placement(rng):
    fw = small_framework(rng, a_set=(1, 2))
    fw2, _ = apply_vertex_addition(fw, "A2", (1, 2), rng)
    p = fw2.points
    u, v = p[1] - p[0], p[3] - p[0]
    assert abs(u[0] * v[1] - u[1] * v[0]) > 1e-8


def test_two_vertex_addition_counts_and_pattern(rng):
    fw = small_framework(rng, a_set=(2,))
    fw2, _ = apply_two_vertex_addition(fw, (1, 2), ("A", "A"), rng)
    assert fw2.n == 5 and fw2.m == fw.m + 3
    assert fw2.graph.edges[-3:] == ((2, 4), (4, 5), (1, 5))
    with pytest.raises(ConstructionError, match="three A-vertices"):
        apply_two_vertex_addition(fw, (1, 3), ("A", "A"), rng)  # both attachments D -> only 2 A


def test_two_vertex_quadrilateral_is_case1_rigid(rng):
    from sarod import quad_global_rigidity

    fw = small_framework(rng, a_set=(2,))
    fw2, step = apply_two_vertex_addition(fw, (1, 2), ("A", "A"), rng)
    i, j = step["attach"]
    v1, v2 = step["new"]
    quad = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    order = [i, j, v1, v2]
    pts = np.array([fw2.point(v) for v in order])
    attrs = [fw2.bipartition.attr(v) for v in order]
    qfw = Framework(quad, Bipartition(tuple(attrs)), pts)
    assert quad_global_rigidity(qfw).rigid


@pytest.mark.parametrize(
    "recipe,n,m_expect",
    [
        ("quad2v", 70, 103),
        ("quad2v", 10, 13),
        ("bilat-D1A1", 70, 137),
        ("bilat-D1A1", 5, 7),
        ("mix-D2A1", 70, 169),
        ("type2D1", 70, 114),
        ("minimal", 6, 7),
        ("minimal", 7, 9),
        ("minimal", 8, 10),
        ("minimal", 9, 12),
    ],
)
def test_recipe_edge_counts(recipe, n, m_expect):
    con = generate(recipe, n, seed=5)
    assert con.framework.n == n
    assert con.framework.m == m_expect


# sha256 over edges, attributes, point bytes and the steps JSON of each generated network.
STABLE_DIGESTS = {
    ("quad2v", 12, 1): "493d213023083b51b9d9c5bade692e424b3e002a7a12c6b64d3b15f02ef3cdaf",
    ("quad2v", 72, 2): "05e5002d63822a0aef03c23d58a1806ab1566897d41773ec245dfb25593ecb51",
    ("bilat-D1A1", 12, 1): "871c3636b2879dd68090a34c5e357c94a86da3da835a280766e7bb24047e21a8",
    ("bilat-D1A1", 71, 2): "ffacca09dc0aad256e4494bb8c29802d6587df05b98c164bfa34e9257d96422b",
    ("mix-D2A1", 12, 1): "b174da3b16c3686fba97bfb2ffd0373ea28834cb8ca8109ed37d57ced0d18bdd",
    ("mix-D2A1", 71, 2): "a5300325eee8776885cfbc59c7adc93fade20eeac3108231dbd50f11cb24de40",
    ("type2D1", 12, 1): "f053e45f984dccc4d9155dad51cf95bf67db03871b88316e2a03137e995df50c",
    ("type2D1", 71, 2): "d19714466ffce5f62beb24ad7745855d3fd73cf57cff6bc25b5752857df99a2f",
    ("minimal", 13, 1): "941a8b26676dabae06f544004d55d6c9df2577ca9c268d9fabaf939968e72b90",
    ("minimal", 70, 2): "8ada7dc908fa2c4d54a8734947bbcc840db9d9eacd383bbf16fa7156cce0d846",
    ("quad2v-defect", 30, 3): "8a1a55b04522e447fbbea83072414d91fe2cdd21b50abc174fb1d5dde040506b",
    ("quad2v", 300, 0): "43209ed5825918910ddd9e0245ca58270e7457f7ea3933116b5789599408207e",
    ("bilat-D1A1", 300, 0): "b54cf00cbd8b9771a499c3ab87cd869d3c1b7c508f589808dbd1eb7732f38138",
    ("mix-D2A1", 300, 0): "1a93f43d139d01c4bcd35681dabf6930aea9f0e792bfde1670de6982456b204a",
    ("type2D1", 300, 0): "1505a09a1d6bf23dacffe7de7f80ee815207851b666c0e8e838a21051162e8ed",
    ("minimal", 300, 0): "43209ed5825918910ddd9e0245ca58270e7457f7ea3933116b5789599408207e",
    ("quad2v", 2000, 0): "1bc9e3fe59704257faf774f447168dcbaad9c3fe8aabb00b1b8dd89621695172",
    ("bilat-D1A1", 2000, 0): "f6b50759ad155c3995eae68275cd4dc3fe08d0709d14ee35ee4b4b5c0ef10568",
    ("mix-D2A1", 2000, 0): "5c842432ab635d687bc4d688d1d9ce5e2172387969ecb4916551c7704039c431",
    ("type2D1", 2000, 0): "e5c4a6e74a8b2368b8cb60cd19f4aa2d626060c1ecb1a44732acb701e84975ad",
    ("minimal", 2000, 0): "1bc9e3fe59704257faf774f447168dcbaad9c3fe8aabb00b1b8dd89621695172",
    ("minimal", 301, 0): "e6bb897dfd9917c47e24480fdb6833a35799ff7cb6c9c278d560790803064876",
    ("minimal", 2001, 0): "315c3781beac87041569f8164102aec3f6220e46fad172d47c895e59cc943d14",
}


def _network_digest(con):
    fw = con.framework
    h = hashlib.sha256()
    h.update(json.dumps(fw.graph.edges).encode())
    h.update("".join(fw.bipartition.attrs).encode())
    h.update(fw.points.tobytes())
    h.update(json.dumps(con.steps).encode())
    return h.hexdigest()


@pytest.mark.parametrize("recipe,n,seed", list(STABLE_DIGESTS))
def test_generated_networks_are_stable(recipe, n, seed):
    # The benchmark and every test draw their networks from these recipes; a
    # changed draw order, placement guard or step record changes the digest.
    if recipe == "quad2v-defect":
        con = generate_quadrilateralized(n, seed, defect_quads=2)
    else:
        con = generate(recipe, n, seed)
    assert _network_digest(con) == STABLE_DIGESTS[(recipe, n, seed)]


@pytest.mark.parametrize("recipe,n", [("quad2v", 30), ("bilat-D1A1", 31), ("mix-D2A1", 31), ("type2D1", 31), ("minimal", 31)])
def test_generate_builds_one_graph_and_one_framework(monkeypatch, recipe, n):
    import sarod.construction as construction

    built = []

    def counting(cls):
        def build(*args):
            built.append(cls.__name__)
            return cls(*args)
        return build

    monkeypatch.setattr(construction, "Graph", counting(Graph))
    monkeypatch.setattr(construction, "Framework", counting(Framework))
    con = generate(recipe, n, seed=4)
    assert sorted(built) == ["Framework", "Graph"]
    assert con.framework.n == n


class StubRng:
    """An rng whose ``random()`` returns the given values in order; positions in the unit box are drawn x first."""

    def __init__(self, values):
        self.values, self.drawn = iter(values), 0

    def random(self):
        self.drawn += 1
        return next(self.values)


def guard_framework():
    # Vertices 1 and 3 sit next to grid-cell borders (cells are 2e-6 wide), so draws near them fall in two cells.
    pts = np.array([[1.8e-6, 0.75], [0.5, 0.5], [0.0, 0.25]])
    return Framework(Graph(3, ((1, 2), (2, 3), (1, 3))), Bipartition.from_a_set(3, (2,)), pts)


def test_collocation_guard_redraws_within_and_at_the_separation():
    # A draw closer than 1e-6 to a point, in its cell or the next one in x or
    # y, is redrawn; one at exactly 1e-6 is too; the next double above 1e-6 is kept.
    just_over = float(np.nextafter(1e-6, 1.0))
    draws = [2.2e-6, 0.75, 5e-7, 0.25 + 5e-7, 1e-6, 0.25, 0.0, 0.25 - 9e-7, just_over, 0.25]
    rng = StubRng(draws)
    fw, step = apply_vertex_addition(guard_framework(), "A1", (1, 2), rng)
    assert rng.drawn == len(draws)
    assert step["pos"] == [[just_over, 0.25]] and fw.point(4).tolist() == [just_over, 0.25]


def test_collocation_guard_gives_up_after_the_retries():
    rng = StubRng(itertools.repeat(0.5))  # every draw lands on vertex 2
    with pytest.raises(ConstructionError, match="collocation guard"):
        apply_vertex_addition(guard_framework(), "A1", (1, 2), rng)
    assert rng.drawn == 2 * PLACEMENT_RETRIES


def test_collinearity_retry_discards_its_points():
    # The first attempt puts vertices 4 and 5 on a line through vertex 2 and
    # is redrawn whole.  Its points are gone: the second attempt draws vertex
    # 4 where vertex 5 was, and that draw is kept, not redrawn.
    draws = [0.25, 0.25, 0.75, 0.75, 0.75, 0.75, 0.25, 0.75]
    rng = StubRng(draws)
    fw, step = apply_two_vertex_addition(guard_framework(), (1, 2), ("A", "A"), rng)
    assert rng.drawn == len(draws)
    assert fw.n == 5 and step["pos"] == [[0.75, 0.75], [0.25, 0.75]]
    assert fw.points[3:].tolist() == step["pos"]


def test_quad2v_requires_even_n():
    with pytest.raises(ConstructionError):
        generate_quadrilateralized(7, 0)


def test_unknown_recipe():
    with pytest.raises(ConstructionError, match="unknown recipe"):
        generate("nope", 10, 0)


def test_connectivity_signatures():
    for seed in range(5):
        fw = generate_quadrilateralized(16, seed).framework
        sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
        assert triple_index_components(sa, fw.graph)[1] == 1

        fw = generate_bilateration(15, seed).framework
        sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
        assert triple_index_components(rod, fw.graph)[1] == 1

        fw = generate_mixed(16, seed).framework
        sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
        assert triple_index_components(rod, fw.graph)[1] == 1

        fw = generate_two_step(16, seed).framework
        sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
        assert triple_index_components(sa, fw.graph)[1] > 1
        assert triple_index_components(rod, fw.graph)[1] > 1


def test_two_step_component_counts_match_construction():
    # 2V and D1 steps contribute fixed component increments: c_A = 1 + #D1,
    # c_D = 1 + 2 * #2V.
    for n, n2v, nd1 in ((70, 23, 22), (10, 3, 2)):
        fw = generate_two_step(n, 3).framework
        sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
        assert triple_index_components(sa, fw.graph)[1] == 1 + nd1
        assert triple_index_components(rod, fw.graph)[1] == 1 + 2 * n2v


def test_generated_frameworks_are_rigid():
    recipes = ["quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal"]
    rng = np.random.default_rng(0)
    for seed in range(6):
        for recipe in recipes:
            n = int(rng.integers(6, 16))
            if recipe in ("quad2v",) and n % 2:
                n += 1
            if recipe == "mix-D2A1" and n < 6:
                n = 6
            rep = infinitesimal_rigidity_test(generate(recipe, n, seed).framework)
            assert rep.rigid, (recipe, n, seed, rep.rank, rep.required)


def test_minimal_edge_deletion_breaks_rigidity():
    for n in (6, 7):
        fw = generate_minimal_rigid(n, seed=2).framework
        for e in range(fw.m):
            edges = tuple(ed for k, ed in enumerate(fw.graph.edges) if k != e)
            sub = Framework(Graph(fw.n, edges), fw.bipartition, fw.points)
            assert not infinitesimal_rigidity_test(sub).rigid


def test_construction_log_is_reproducible():
    c1 = generate("type2D1", 13, seed=9)
    c2 = generate("type2D1", 13, seed=9)
    assert c1.steps == c2.steps
    assert np.array_equal(c1.framework.points, c2.framework.points)


def _merge_inputs(seed):
    fw1 = generate_bilateration(6, seed).framework
    fw2 = generate_quadrilateralized(4, seed + 1).framework
    fw2 = Framework(fw2.graph, fw2.bipartition, fw2.points + np.array([3.0, 0.0]))
    return fw1, fw2


def _find_pairs(fw1, fw2, want_a):
    for i, m in itertools.permutations(range(1, fw1.n + 1), 2):
        for j, k in itertools.permutations(range(1, fw2.n + 1), 2):
            attrs = [fw1.bipartition.attr(i), fw1.bipartition.attr(m), fw2.bipartition.attr(j), fw2.bipartition.attr(k)]
            if sum(a == "A" for a in attrs) == want_a:
                return (i, m), (j, k)
    return None


def test_merge_add_two_edges_preserves_rigidity():
    for seed in (0, 3):
        fw1, fw2 = _merge_inputs(seed)
        pair1, pair2 = _find_pairs(fw1, fw2, want_a=3)
        merged = merge_add_edges(fw1, fw2, pair1, pair2)
        assert merged.m == fw1.m + fw2.m + 2
        rep = infinitesimal_rigidity_test(merged)
        assert rep.rank == 2 * (fw1.n + fw2.n) - 4
        assert rep.rigid


def test_merge_add_edges_attribute_count_enforced():
    fw1, fw2 = _merge_inputs(1)
    pairs = _find_pairs(fw1, fw2, want_a=2)
    if pairs:
        with pytest.raises(ConstructionError, match="three"):
            merge_add_edges(fw1, fw2, *pairs)
    pairs = _find_pairs(fw1, fw2, want_a=4)
    if pairs:
        with pytest.raises(ConstructionError, match="exactly three"):
            merge_add_edges(fw1, fw2, *pairs)
        with pytest.raises(ConstructionError, match="all four"):
            merge_add_edges(fw1, fw2, *_find_pairs(fw1, fw2, want_a=3), three_edges=True)


def test_merge_three_edges_all_a():
    fw1, fw2 = _merge_inputs(2)
    pairs = _find_pairs(fw1, fw2, want_a=4)
    assert pairs is not None
    merged = merge_add_edges(fw1, fw2, *pairs, three_edges=True)
    assert merged.m == fw1.m + fw2.m + 3
    assert infinitesimal_rigidity_test(merged).rigid


def test_merge_contract():
    fw1, fw2 = _merge_inputs(4)
    found = None
    for i, m in itertools.permutations(range(1, fw1.n + 1), 2):
        for j, k in itertools.permutations(range(1, fw2.n + 1), 2):
            if fw1.bipartition.attr(i) == fw2.bipartition.attr(j) and fw1.bipartition.attr(m) == fw2.bipartition.attr(k):
                found = (i, m, j, k)
                break
        if found:
            break
    i, m, j, k = found
    a, b = fw2.point(j), fw2.point(k)
    c, d = fw1.point(i), fw1.point(m)
    scale = np.linalg.norm(d - c) / np.linalg.norm(b - a)
    th = np.arctan2(*(d - c)[::-1]) - np.arctan2(*(b - a)[::-1])
    q = scale * (fw2.points - a) @ rotation(th).T + c
    fw2m = Framework(fw2.graph, fw2.bipartition, q)
    merged, vmap = merge_contract(fw1, fw2m, (i, j), (m, k))
    assert merged.n == fw1.n + fw2.n - 2
    assert vmap[j] == i and vmap[k] == m
    assert infinitesimal_rigidity_test(merged).rigid


def test_merge_contract_rejects_mismatches(rng):
    fw1, fw2 = _merge_inputs(5)
    with pytest.raises(ConstructionError, match="coincident"):
        merge_contract(fw1, fw2, (1, 1), (2, 2))


@pytest.mark.parametrize("pair1,pair2,bad", [((1, 2), (1, 0), 0), ((1, 7), (1, 2), 7), ((0, 2), (1, 2), 0), ((1, 2), (5, 1), 5)])
def test_merges_reject_vertex_ids_out_of_range(pair1, pair2, bad):
    # An id of 0 would otherwise index the last vertex; fw1 has 6 vertices, fw2 has 4.
    fw1, fw2 = _merge_inputs(5)
    with pytest.raises(ConstructionError, match=f"vertex {bad} is not in"):
        merge_add_edges(fw1, fw2, pair1, pair2)
    (i, m), (j, k) = pair1, pair2
    with pytest.raises(ConstructionError, match=f"vertex {bad} is not in"):
        merge_contract(fw1, fw2, (i, j), (m, k))
