"""Acceptance criteria.

One test per criterion, each printing a single PASS line with its measured
quantities (run with ``pytest -v -s tests/test_acceptance.py``).  Expected
structural counts are exact; error bounds and time limits are asserted at
the stated tolerances.
"""

import time

import numpy as np
from sarod import (
    Bipartition,
    Framework,
    Graph,
    build_network,
    duality_check,
    equivalent_shape_search,
    generate,
    generate_bilateration,
    generate_minimal_rigid,
    generate_mixed,
    generate_quadrilateralized,
    generate_two_step,
    infinitesimal_rigidity_test,
    localize_network,
    merge_add_edges,
    merge_contract,
    numerical_rank,
    propagate_bearings,
    propagate_distances,
    quad_global_rigidity,
    recover_positions,
    triple_index_components,
)
from sarod.cli import main as cli_main
from sarod.netio import save_network
from sarod.rigidity import assemble_rigidity_matrix
from sarod.snl import assemble_bearing_system, assemble_distance_system

from conftest import random_framework, relabelled
from test_rigidity import finite_difference_jacobian

RTOL = 1e-8
N_TRIALS = 200

_cache = {}


def trial_suite():
    """200 seeded random frameworks with their assembled matrices."""
    if "trials" not in _cache:
        rng = np.random.default_rng(20240601)
        trials = []
        for _ in range(N_TRIALS):
            fw = random_framework(int(rng.integers(4, 13)), rng)
            trials.append((fw, assemble_rigidity_matrix(fw)))
        _cache["trials"] = trials
    return _cache["trials"]


def test_criterion_01_jacobian_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for fw, rm in trial_suite():
        J = finite_difference_jacobian(fw, rm.sa_triples, rm.rod_triples)
        worst = max(worst, np.linalg.norm(J - rm.matrix) / np.linalg.norm(rm.matrix))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 30.0
    print(f"\n[criterion 1] PASS: {N_TRIALS} frameworks, worst FD relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_trivial_null_space():
    from sarod.rigidity import trivial_motions

    worst = 0.0
    for fw, rm in trial_suite():
        smax = np.linalg.svd(rm.matrix, compute_uv=False)[0]
        for v in trivial_motions(fw.points).T:
            worst = max(worst, float(np.linalg.norm(rm.matrix @ v) / (smax * np.linalg.norm(v))))
    assert worst < 1e-10
    print(f"\n[criterion 2] PASS: trivial motions annihilated, worst residual {worst:.2e}")


def test_criterion_03_rank_bound_and_duality():
    for fw, rm in trial_suite():
        rank, _ = numerical_rank(rm.matrix, RTOL)
        assert rank <= 2 * fw.m - fw.n
        assert duality_check(fw, RTOL).equal
    print(f"\n[criterion 3] PASS: rank bound and bipartition-swap rank equality on {N_TRIALS} trials")


def _random_quad(rng):
    while True:
        p = rng.uniform(0.0, 1.0, (4, 2))
        diffs = p[:, None, :] - p[None, :, :]
        dist = np.sqrt((diffs**2).sum(-1)) + np.eye(4)
        if dist.min() > 0.05:
            return p


def test_criterion_04_quad_checker_vs_oracle():
    t0 = time.perf_counter()
    g = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    rng = np.random.default_rng(77)
    classes = {1: [1, 2, 3], 2: [1], 3: [1, 2], 4: [1, 3]}
    scored = 0
    boundary = 0
    per_case = {}
    for case, a_set in classes.items():
        bip = Bipartition.from_a_set(4, a_set)
        done = 0
        agree = 0
        while done < 100:
            fw = Framework(g, bip, _random_quad(rng))
            verdict = quad_global_rigidity(fw)
            if verdict.margin <= 1e-6 or verdict.boundary:
                boundary += 1
                continue
            shapes = equivalent_shape_search(fw, trials=50, seed=done)
            oracle_rigid = len(shapes) == 1
            assert oracle_rigid == verdict.rigid, (case, verdict, len(shapes), fw.points.tolist())
            agree += 1
            done += 1
            scored += 1
        per_case[case] = agree
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\n[criterion 4] PASS: {scored} scored instances agree ({per_case}), {boundary} boundary reported, {elapsed:.2f}s")


def test_criterion_05_example1_quadrilateralized():
    t0 = time.perf_counter()
    con = generate_quadrilateralized(70, seed=42)
    net = build_network(con.framework, (1, 2))
    assert net.graph.m == 103
    _, c_a = triple_index_components(net.sa_triples, net.graph)
    assert c_a == 1
    bear = propagate_bearings(net)
    A, _ = assemble_distance_system(net, bear.offset)
    rank, _ = numerical_rank(A, RTOL)
    assert rank == 103
    result = localize_network(net)
    assert result.method == "sa"
    assert result.solution.status == "localizable"
    assert result.mse < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0

    # Rank-deficient sibling: quadrilateralized but not by valid 2-vertex
    # additions; rank drops below m and the CLI exits 2.
    sib = generate_quadrilateralized(70, seed=42, defect_quads=2)
    net2 = build_network(sib.framework, (1, 2))
    bear2 = propagate_bearings(net2)
    A2, _ = assemble_distance_system(net2, bear2.offset)
    rank2, _ = numerical_rank(A2, RTOL)
    assert rank2 < net2.graph.m
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sib.json")
        save_network(path, sib.framework, anchors=(1, 2))
        assert cli_main(["localize", "--net", path]) == 2
    print(
        f"\n[criterion 5] PASS: m=103, SA-connected, rank 103, MSE {result.mse:.2e} in {elapsed:.2f}s;"
        f" sibling rank {rank2} < 103, exit 2"
    )


def test_criterion_06_example2_bilateration():
    t0 = time.perf_counter()
    con = generate_bilateration(70, seed=7)
    net = build_network(con.framework, (1, 2))
    assert net.graph.m == 137
    dist = propagate_distances(net)
    assert dist.fully_resolved
    system = assemble_bearing_system(net, dist.offset, RTOL)
    assert system.rank == 4 * 70 - 6 == 274
    assert system.null_dim == 0
    result = localize_network(net)
    assert result.method == "rod"
    assert result.solution.status == "localizable"
    assert result.mse < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 6] PASS: m=137, rank 274, trivial null space, MSE {result.mse:.2e} in {elapsed:.2f}s")


def test_criterion_07_example3_mixed():
    t0 = time.perf_counter()
    con = generate_mixed(70, seed=3)
    net = build_network(con.framework, (1, 2))
    assert net.graph.m == 169
    dist = propagate_distances(net)
    assert dist.fully_resolved
    system = assemble_bearing_system(net, dist.offset, RTOL)
    assert system.rank == 334
    assert system.null_dim == 4
    result = localize_network(net)
    assert result.method == "rod"
    assert result.solution.ok
    assert result.mse < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 7] PASS: m=169, rank 334, null dim 4, MSE {result.mse:.2e} in {elapsed:.2f}s")


def test_criterion_08_example4_two_step():
    t0 = time.perf_counter()
    con = generate_two_step(70, seed=11)
    net = build_network(con.framework, (1, 2))
    assert net.graph.m == 114
    _, c_a = triple_index_components(net.sa_triples, net.graph)
    _, c_d = triple_index_components(net.rod_triples, net.graph)
    assert (c_a, c_d) == (23, 47)
    bear = propagate_bearings(net)
    dist = propagate_distances(net)
    assert bear.dim == 44 == 2 * (c_a - 1)
    assert dist.dim == 46 == c_d - 1
    result = localize_network(net)
    assert result.method == "general"
    assert result.solution.info["variables"] == 90
    assert result.solution.ok
    assert result.mse < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"\n[criterion 8] PASS: m=114, components (23, 47), dims (44, 46), 90-variable solve,"
        f" MSE {result.mse:.2e} in {elapsed:.2f}s"
    )


def _ordered_recipe_cases(count):
    rng = np.random.default_rng(555)
    recipes = ["quad2v", "bilat-D1A1", "type2D1", "minimal"]
    cases = []
    for k in range(count):
        recipe = recipes[k % len(recipes)]
        n = int(rng.integers(6, 31))
        if recipe == "quad2v" and n % 2:
            n += 1
        cases.append((recipe, n, k))
    return cases


def test_criterion_09_construction_suite():
    t0 = time.perf_counter()
    for recipe, n, seed in _ordered_recipe_cases(100):
        rep = infinitesimal_rigidity_test(generate(recipe, n, seed).framework, RTOL)
        assert rep.rigid, (recipe, n, seed, rep.rank, rep.required)

    # Merged frameworks (two-edge, three-edge, contraction) at the combined rank.
    import itertools

    merged_checked = 0
    for seed in range(4):
        fw1 = generate_bilateration(6, seed).framework
        fw2 = generate_quadrilateralized(4, seed + 50).framework
        fw2 = Framework(fw2.graph, fw2.bipartition, fw2.points + np.array([3.0, 0.0]))
        combos = {3: None, 4: None}
        for i, m in itertools.permutations(range(1, 7), 2):
            for j, k in itertools.permutations(range(1, 5), 2):
                attrs = [fw1.bipartition.attr(i), fw1.bipartition.attr(m), fw2.bipartition.attr(j), fw2.bipartition.attr(k)]
                cnt = sum(a == "A" for a in attrs)
                if cnt in combos and combos[cnt] is None:
                    combos[cnt] = ((i, m), (j, k))
        merged = merge_add_edges(fw1, fw2, *combos[3])
        assert infinitesimal_rigidity_test(merged, RTOL).rank == 2 * (fw1.n + fw2.n) - 4
        merged_checked += 1
        if combos[4]:
            merged3 = merge_add_edges(fw1, fw2, *combos[4], three_edges=True)
            assert infinitesimal_rigidity_test(merged3, RTOL).rank == 2 * (fw1.n + fw2.n) - 4
            merged_checked += 1
        # contraction on coincident pairs with equal attributes
        from sarod.geometry import rotation

        found = None
        for i, m in itertools.permutations(range(1, 7), 2):
            for j, k in itertools.permutations(range(1, 5), 2):
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
        merged_c, _ = merge_contract(fw1, Framework(fw2.graph, fw2.bipartition, q), (i, j), (m, k))
        assert infinitesimal_rigidity_test(merged_c, RTOL).rank == 2 * merged_c.n - 4
        merged_checked += 1

    # Minimal frameworks: exact edge counts, rank test broken by any deletion.
    for n in (6, 8, 10, 7, 9):
        fw = generate_minimal_rigid(n, seed=n).framework
        want = (3 * n - 4) // 2 if n % 2 == 0 else (3 * n - 3) // 2
        assert fw.m == want
        assert infinitesimal_rigidity_test(fw, RTOL).rigid
        for e in range(fw.m):
            edges = tuple(ed for idx, ed in enumerate(fw.graph.edges) if idx != e)
            sub = Framework(Graph(fw.n, edges), fw.bipartition, fw.points)
            assert not infinitesimal_rigidity_test(sub, RTOL).rigid
    elapsed = time.perf_counter() - t0
    print(
        f"\n[criterion 9] PASS: 100 orderings rigid, {merged_checked} merges at combined rank,"
        f" minimal counts and deletions verified, {elapsed:.0f}s"
    )


def _dimension_law_networks():
    if "dimnets" not in _cache:
        nets = []
        for seed in range(50):
            for recipe, n in (("quad2v", 14), ("bilat-D1A1", 15), ("mix-D2A1", 14), ("type2D1", 16), ("minimal", 15)):
                nets.append(build_network(generate(recipe, n, seed).framework, (1, 2)))
        _cache["dimnets"] = nets
    return _cache["dimnets"]


def test_criterion_10_dimension_law():
    nets = _dimension_law_networks()
    for net in nets:
        _, c_a = triple_index_components(net.sa_triples, net.graph)
        _, c_d = triple_index_components(net.rod_triples, net.graph)
        bear = propagate_bearings(net)
        dist = propagate_distances(net)
        assert bear.dim == 2 * (c_a - 1), (c_a, bear.dim)
        assert dist.dim == c_d - 1, (c_d, dist.dim)
    print(f"\n[criterion 10] PASS: dimension law holds on {len(nets)} networks (50 seeds x 5 recipes)")


def _exact_recovery(net):
    p = net.truth
    vecs = np.array([p[j - 1] - p[i - 1] for (i, j) in net.graph.edges])
    d = np.linalg.norm(vecs, axis=1)
    return recover_positions(net, vecs / d[:, None], d)


def test_criterion_11_recovery_roundtrip():
    # The second tree is the spanning tree of the network with vertex v renamed n + 1 - v (anchors following).
    nets = _dimension_law_networks()
    worst = 0.0
    for net in nets:
        perm = net.framework.n - 1 - np.arange(net.framework.n)
        other = build_network(relabelled(net.framework, perm), perm[np.array(net.anchors) - 1] + 1)
        for x in (_exact_recovery(net), _exact_recovery(other)[perm]):
            worst = max(worst, float(np.max(np.linalg.norm(x - net.truth, axis=1))))
    assert worst < 1e-10
    print(f"\n[criterion 11] PASS: recovery round trip on {len(nets)} networks, two trees, worst error {worst:.2e}")
