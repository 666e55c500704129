"""Localization-pipeline checks.

Ground-truth substitution is the oracle throughout: true bearings and
distances must satisfy every assembled system, propagation must reproduce
them on resolved components, solvers must recover them, and recovery must
reproduce the configuration under either spanning tree.
"""

import numpy as np
import pytest
from scipy.linalg import lstsq, null_space

from sarod import (
    Bipartition,
    EdgeSolution,
    Framework,
    Graph,
    InfeasibleMeasurementsError,
    MeasurementSet,
    SolverConfig,
    build_network,
    cycle_bearing_matrix,
    generate_bilateration,
    generate_mixed,
    generate_quadrilateralized,
    generate_two_step,
    localizability_check,
    localize_network,
    mean_squared_error,
    propagate_bearings,
    propagate_distances,
    recover_positions,
    solve_disconnected,
    solve_rod_connected,
    solve_sa_connected,
)
from sarod.construction import generate
from sarod.geometry import rotation
from sarod.rigidity import numerical_rank
from sarod.snl import assemble_bearing_system, assemble_distance_system, solution_residuals


def truth_edges(net):
    p = net.truth
    vecs = np.array([p[j - 1] - p[i - 1] for (i, j) in net.graph.edges])
    d = np.linalg.norm(vecs, axis=1)
    return vecs / d[:, None], d


def triangle_network(rng, a_set=(1, 2), anchors=(1, 2)):
    g = Graph(3, ((1, 2), (1, 3), (2, 3)))
    fw = Framework(g, Bipartition.from_a_set(3, a_set), rng.uniform(0, 1, (3, 2)))
    return build_network(fw, anchors)


def test_build_network_idempotent_clique(rng):
    net = triangle_network(rng)
    assert net.graph.m == 3  # anchors already adjacent
    fw = Framework(Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4))), Bipartition.from_a_set(4, [1, 3]), rng.uniform(0, 1, (4, 2)))
    net3 = build_network(fw, [1, 2, 3])
    assert net3.graph.m == 5  # (1,3) added, (1,2)/(2,3) already present
    assert len(net3.anchor_distances) == 3
    with pytest.raises(ValueError, match="n_a >= 2"):
        build_network(fw, [2])


def test_build_network_warns_on_single_attribute_anchors(rng):
    g = Graph(3, ((1, 2), (1, 3), (2, 3)))
    fw = Framework(g, Bipartition.from_a_set(3, [3]), rng.uniform(0, 1, (3, 2)))
    with pytest.warns(UserWarning, match="sensing attribute"):
        build_network(fw, [1, 2])


def test_measurement_ingestion_roundtrip(rng):
    g = Graph(3, ((1, 2), (1, 3), (2, 3)))
    fw = Framework(g, Bipartition.from_a_set(3, [1]), rng.uniform(0, 1, (3, 2)))
    net = build_network(fw, [1, 2])
    ms = MeasurementSet(dict(net.sa), dict(net.rod))
    net2 = build_network(fw, [1, 2], ms)
    assert net2.sa == net.sa and net2.rod == net.rod
    missing = MeasurementSet(dict(list(ms.sa.items())[1:]), dict(ms.rod))
    with pytest.raises(ValueError, match="missing"):
        build_network(fw, [1, 2], missing)
    extra = MeasurementSet({**ms.sa, (3, 1, 2): 0.5}, dict(ms.rod))
    with pytest.raises(ValueError, match="unknown"):
        build_network(fw, [1, 2], extra)


def test_cycle_bearing_matrix_shapes_and_compatibility(rng):
    tree = Graph(4, ((1, 2), (2, 3), (2, 4)))
    b = rng.normal(size=(3, 2))
    b /= np.linalg.norm(b, axis=1)[:, None]
    assert cycle_bearing_matrix(tree, b).shape == (0, 3)

    net = triangle_network(rng)
    bt, dt = truth_edges(net)
    Cb = cycle_bearing_matrix(net.graph, bt)
    assert Cb.shape == (2, 3)
    assert np.max(np.abs(Cb @ dt)) < 1e-12
    assert np.max(np.abs(Cb @ (3.7 * dt))) < 1e-11  # scaling stays compatible


def test_propagation_resolves_connected_sets(rng):
    net = build_network(generate_quadrilateralized(12, 3).framework, [1, 2])
    bear = propagate_bearings(net)
    assert bear.fully_resolved and bear.dim == 0
    bt, dt = truth_edges(net)
    assert np.max(np.abs(bear.offset - bt)) < 1e-10

    net2 = build_network(generate_bilateration(11, 4).framework, [1, 2])
    dist = propagate_distances(net2)
    assert dist.fully_resolved and dist.dim == 0
    bt2, dt2 = truth_edges(net2)
    assert np.max(np.abs(dist.offset - dt2) / dt2) < 1e-10


def test_propagation_dimensions_follow_component_counts(rng):
    for seed in range(6):
        net = build_network(generate_two_step(13, seed).framework, [1, 2])
        bear = propagate_bearings(net)
        dist = propagate_distances(net)
        assert bear.dim == 2 * (bear.n_components - 1)
        assert dist.dim == dist.n_components - 1
        # Ground truth lies in the affine set: residual of the offset on
        # resolved edges is zero and the basis spans the rest.
        bt, dt = truth_edges(net)
        assert np.max(np.abs(bear.offset[bear.resolved] - bt[bear.resolved])) < 1e-10
        assert np.max(np.abs(dist.offset[dist.resolved] - dt[dist.resolved]) / dt[dist.resolved]) < 1e-10


def _walk_reference(m, triples, steps, combine, start):
    """Per-edge BFS transport as a plain loop: labels numbered by smallest edge, and values from each root."""
    adj = [[] for _ in range(m)]
    for k, (e1, e2) in enumerate(zip(triples.e1.tolist(), triples.e2.tolist())):
        adj[e1].append((e2, steps[k], True))
        adj[e2].append((e1, steps[k], False))
    labels, value, count = [-1] * m, [start] * m, 0
    for root in range(m):
        if labels[root] >= 0:
            continue
        labels[root] = count
        queue = [root]
        for e in queue:
            for f, step, forward in adj[e]:
                if labels[f] < 0:
                    labels[f], value[f] = count, combine(value[e], step, forward)
                    queue.append(f)
        count += 1
    return np.array(labels), count, np.array(value)


def test_propagation_matches_loop_reference():
    # Potential sums over a spanning tree equal the loop's products of
    # ratios and sums of rotation angles, to rounding of ~100-step paths.
    for recipe in ("quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal"):
        net = build_network(generate(recipe, 40, 1).framework, [1, 2])
        m, eidx = net.graph.m, net.graph.edge_index()
        rod = [net.rod[t] for t in net.rod_triples.triples]
        labels, count, rho = _walk_reference(m, net.rod_triples, rod, lambda r, k, f: r * k if f else r / k, 1.0)
        dist = propagate_distances(net)
        assert np.array_equal(dist.labels, labels) and dist.n_components == count
        free = ~dist.resolved
        assert np.allclose(dist.basis[free].sum(axis=1), rho[free], rtol=1e-13, atol=0)
        (i, j), d_star = next(iter(net.anchor_distances.items()))
        pinned = dist.resolved & (labels == labels[eidx[(i, j)]])
        assert np.allclose(dist.offset[pinned], rho[pinned] * d_star / rho[eidx[(i, j)]], rtol=1e-13, atol=0)

        tri = np.array(net.sa_triples.triples).reshape(-1, 3)
        theta = np.array([net.sa[t] for t in net.sa_triples.triples])
        steps = theta + np.pi * ((tri[:, 0] < tri[:, 1]) != (tri[:, 0] < tri[:, 2]))
        labels, count, phi = _walk_reference(m, net.sa_triples, steps, lambda a, t, f: a + t if f else a - t, 0.0)
        bear = propagate_bearings(net)
        assert np.array_equal(bear.labels, labels) and bear.n_components == count
        e = np.flatnonzero(~bear.resolved)
        first = bear.basis[:, 0::2]  # R(phi) e_x column of each free component
        assert np.allclose((first[2 * e].sum(axis=1), first[2 * e + 1].sum(axis=1)), (np.cos(phi[e]), np.sin(phi[e])), rtol=0, atol=1e-12)
        (i, j), b_star = next(iter(net.anchor_bearings.items()))
        a = eidx[(i, j)]
        pinned = np.flatnonzero(bear.resolved & (labels == labels[a]))
        ref = np.stack([rotation(x - phi[a]) @ b_star for x in phi[pinned]])
        assert np.allclose(bear.offset[pinned], ref, rtol=0, atol=1e-12)


def test_propagation_detects_inconsistent_measurements(rng):
    # A degree-3 apex emits three triples forming an index-graph cycle, so a
    # single perturbed measurement contradicts the other two.
    k4 = Graph(4, tuple((i, j) for i in range(1, 5) for j in range(i + 1, 5)))
    fw = Framework(k4, Bipartition.from_a_set(4, [1, 2]), rng.uniform(0, 1, (4, 2)))
    net = build_network(fw, [1, 2])
    sa_bad = dict(net.sa)
    key = next(iter(t for t in net.sa if t[0] == 1))
    sa_bad[key] += 0.3
    bad = build_network(fw, [1, 2], MeasurementSet(sa_bad, dict(net.rod)))
    with pytest.raises(InfeasibleMeasurementsError, match=r"SA data: worst closure mismatch 3\.000e-01"):
        propagate_bearings(bad)

    rod_bad = dict(net.rod)
    key = next(iter(t for t in net.rod if t[0] == 3))
    rod_bad[key] *= 1.5
    bad2 = build_network(fw, [1, 2], MeasurementSet(dict(net.sa), rod_bad))
    with pytest.raises(InfeasibleMeasurementsError, match="RoD"):
        propagate_distances(bad2)


def test_distance_system_ground_truth(rng):
    for seed in range(4):
        net = build_network(generate_quadrilateralized(14, seed).framework, [1, 2])
        bt, dt = truth_edges(net)
        A, y = assemble_distance_system(net, bt)
        rows = 2 * (net.graph.m - net.graph.n + 1) + len(net.rod_triples) + 1
        assert A.shape == (rows, net.graph.m)
        assert np.max(np.abs(A @ dt - y)) < 1e-10


def test_bearing_system_ground_truth(rng):
    for seed in range(4):
        net = build_network(generate_bilateration(12, seed).framework, [1, 2])
        bt, dt = truth_edges(net)
        system = assemble_bearing_system(net, dt)
        rows = 2 * (net.graph.m - net.graph.n + 1) + 2 * len(net.sa_triples) + 2
        assert system.matrix.shape == (rows, 2 * net.graph.m)
        assert np.max(np.abs(system.matrix @ bt.ravel() - system.rhs)) < 1e-10


def test_solve_sa_connected_triangle_exact(rng):
    net = triangle_network(rng, a_set=(1, 2))
    sol = solve_sa_connected(net)
    assert sol.status == "localizable"
    x = recover_positions(net, sol.bearings, sol.distances)
    assert np.max(np.linalg.norm(x - net.truth, axis=1)) < 1e-10


def test_solve_sa_connected_requires_resolved_bearings(rng):
    net = build_network(generate_two_step(10, 1).framework, [1, 2])
    with pytest.raises(ValueError, match="disconnected solver"):
        solve_sa_connected(net)


def test_solve_rod_connected_requires_resolved_distances(rng):
    net = build_network(generate_two_step(10, 1).framework, [1, 2])
    with pytest.raises(ValueError, match="disconnected solver"):
        solve_rod_connected(net)


def test_solve_rod_connected_null_case(rng):
    # Mixed recipe keeps a 4-dimensional bearing null space solved by the
    # unit-norm minimization.
    net = build_network(generate_mixed(16, 2).framework, [1, 2])
    sol = solve_rod_connected(net)
    assert sol.info["null_dim"] == 4
    assert sol.status == "heuristic-unique"
    assert abs(np.linalg.norm(sol.bearings, axis=1) - 1.0).max() < 1e-8
    x = recover_positions(net, sol.bearings, sol.distances)
    assert mean_squared_error(x, net.truth) < 1e-16


def test_solve_disconnected_matches_sa_solver(rng):
    # On an SA-connected network the general solver degenerates to zero
    # bearing variables and must agree with the linear path.
    net = build_network(generate_quadrilateralized(12, 7).framework, [1, 2])
    sol_sa = solve_sa_connected(net)
    sol_gen = solve_disconnected(net)
    assert sol_gen.info["free_bearing_dim"] == 0
    assert sol_gen.status in ("localizable", "heuristic-unique")
    xa = recover_positions(net, sol_sa.bearings, sol_sa.distances)
    xg = recover_positions(net, sol_gen.bearings, sol_gen.distances)
    assert np.max(np.linalg.norm(xa - xg, axis=1)) < 1e-8


def test_solve_disconnected_ground_truth_objective(rng):
    net = build_network(generate_two_step(13, 5).framework, [1, 2])
    bear = propagate_bearings(net)
    dist = propagate_distances(net)
    bt, dt = truth_edges(net)
    # Project the truth onto the parameterizations and evaluate the solver's
    # residual stack: it must vanish.
    w = bear.basis.T @ (bt.ravel() - bear.offset.ravel())
    y = dist.basis.T @ (dt - dist.offset)
    scale = (dist.basis.T @ dist.basis).diagonal()
    y = y / np.where(scale > 0, scale, 1.0)
    wb = bear.basis.T @ bear.basis
    w = np.linalg.solve(wb + 1e-15 * np.eye(len(w)), w) if len(w) else w
    b = (bear.offset.ravel() + bear.basis @ w).reshape(-1, 2)
    d = dist.offset + dist.basis @ y
    assert np.max(np.abs(b - bt)) < 1e-8
    assert np.max(np.abs(d - dt)) < 1e-8
    C = cycle_bearing_matrix(net.graph, b)
    assert np.max(np.abs(C @ d)) < 1e-8


def test_recover_positions_roundtrip_two_trees(rng):
    for seed in range(4):
        net = build_network(generate_bilateration(13, seed).framework, [1, 2])
        bt, dt = truth_edges(net)
        x1 = recover_positions(net, bt, dt)
        x2 = recover_positions(net, bt, dt, reverse_tree=True)
        assert np.max(np.linalg.norm(x1 - net.truth, axis=1)) < 1e-10
        assert np.max(np.linalg.norm(x1 - x2, axis=1)) < 1e-10


def test_recover_positions_warns_on_gauge_drift(rng):
    net = triangle_network(rng)
    bt, dt = truth_edges(net)
    with pytest.warns(UserWarning, match="gauge drift"):
        recover_positions(net, bt, dt * 1.5)


def test_localizability_slider_instance():
    # A degree-2 SA vertex strictly between two collinear SA neighbors can
    # slide along the segment: rank-deficient distance system.
    g = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
    fw = Framework(g, Bipartition.from_a_set(4, [1, 3, 4]), np.array([[0.0, 0], [1, 1], [2, 0], [0.7, 0]]))
    net = build_network(fw, [1, 2])
    verdict, evidence = localizability_check(net)
    assert verdict == "unlocalizable"
    assert evidence["rank_distance_system"] < net.graph.m


def test_localizability_anchor_pair_matters():
    # The adjacent-A quadrilateral with positive margin is ambiguous under
    # anchors {1, 2} but becomes localizable with anchors {1, 3}.
    g = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    fw = Framework(g, Bipartition.from_a_set(4, [1, 2]), np.array([[0.0, 0], [4, 0], [3, 1], [2, 1]]))
    v12, _ = localizability_check(build_network(fw, [1, 2]))
    assert v12 in ("heuristic-ambiguous", "unlocalizable")
    v13, _ = localizability_check(build_network(fw, [1, 3]))
    assert v13 in ("heuristic-unique", "localizable")


def test_localize_network_dispatch(rng):
    net = build_network(generate_quadrilateralized(12, 0).framework, [1, 2])
    assert localize_network(net).method == "sa"
    net = build_network(generate_bilateration(11, 0).framework, [1, 2])
    assert localize_network(net).method == "rod"
    net = build_network(generate_two_step(10, 0).framework, [1, 2])
    assert localize_network(net).method == "general"
    with pytest.raises(ValueError, match="unknown method"):
        localize_network(net, "nope")


def test_localize_and_localizability_propagate_once(monkeypatch):
    import sarod.snl

    calls = {"propagate_bearings": 0, "propagate_distances": 0}
    for name in calls:
        original = getattr(sarod.snl, name)

        def counted(net, _name=name, _original=original):
            calls[_name] += 1
            return _original(net)

        monkeypatch.setattr(sarod.snl, name, counted)
    net = build_network(generate_mixed(16, 2).framework, [1, 2])
    verdict, evidence = localizability_check(net)
    result = localize_network(net)
    assert verdict == "heuristic-unique" and result.method == "rod"
    assert calls == {"propagate_bearings": 1, "propagate_distances": 1}


EVIDENCE_KEYS = (
    "sa_components", "rod_components", "free_bearing_dim", "free_distance_dim",
    "sa_closure_mismatch", "rod_closure_mismatch",
)


def test_localize_and_localizability_agree_per_regime():
    # One dispatch: the verdict is the localization's status (exact
    # regimes) or its heuristic reading, and the evidence is its info.
    expected = {"quad2v": ("sa", "localizable"), "bilat-D1A1": ("rod", "localizable"), "type2D1": ("general", "heuristic-unique")}
    for recipe, (method, verdict) in expected.items():
        for seed in range(3):
            fw = generate(recipe, 12, seed).framework
            result = localize_network(build_network(fw, [1, 2]))
            v, evidence = localizability_check(build_network(fw, [1, 2]))
            assert (result.method, v) == (method, verdict), (recipe, seed)
            assert evidence == result.solution.info
            assert evidence.get("heuristic", False) == (method == "general")
            for key in EVIDENCE_KEYS:
                assert key in evidence
            assert max(evidence["sa_closure_mismatch"], evidence["rod_closure_mismatch"]) < 1e-12


def test_localize_rejects_inconsistent_ratio_on_sa_connected_network():
    net = build_network(generate_quadrilateralized(12, 0).framework, [1, 2])
    assert localize_network(net).method == "sa"
    rod = dict(net.rod)
    key = next(t for t in rod if sum(u == t[0] for u, _, _ in rod) >= 3)
    rod[key] *= 1.01
    bad = build_network(net.framework, [1, 2], MeasurementSet(dict(net.sa), rod))
    with pytest.raises(InfeasibleMeasurementsError, match="RoD"):
        localize_network(bad)
    with pytest.raises(InfeasibleMeasurementsError, match="RoD"):
        localizability_check(bad)


SCALE_INVARIANT_INFO = (
    "rank_distance_system", "rank_bearing_system", "null_dim", "sa_components", "rod_components",
    "free_bearing_dim", "free_distance_dim", "zero_clusters",
)


def _moved_localization(fw, scale, turn):
    p = fw.points * scale
    if turn:
        p = p @ rotation(2.1).T + scale * np.array([3.0, -7.0])
    net = build_network(Framework(fw.graph, fw.bipartition, p), [1, 2])
    result = localize_network(net, config=SolverConfig(starts=5))
    info = result.solution.info
    verdict = (result.method, result.solution.status, *(info.get(k) for k in SCALE_INVARIANT_INFO))
    return verdict, np.sqrt(result.mse) / scale


def test_localization_invariant_under_scaling_and_rigid_motion():
    # The sensors see only similarity-invariant quantities, so scaling the
    # network by 1e-6..1e6, rotating and shifting it changes no verdict,
    # rank or component count, and the positions follow the map.
    disagree = []
    for recipe in ("quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal"):
        for seed in range(3):
            fw = generate(recipe, 14 + 2 * (seed % 2), seed).framework
            reference, _ = _moved_localization(fw, 1.0, False)
            for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                for turn in (False, True):
                    verdict, rel_rmse = _moved_localization(fw, scale, turn)
                    if verdict != reference:
                        disagree.append((recipe, seed, scale, turn, reference, verdict))
                    assert rel_rmse <= 1e-9, (recipe, seed, scale, turn, rel_rmse)
    assert not disagree, disagree


def test_solver_config_settable_fields():
    from dataclasses import fields

    assert [f.name for f in fields(SolverConfig)] == ["seed", "starts", "rtol"]
    assert SolverConfig().zero_tol == 1e-16
    with pytest.raises(TypeError):
        SolverConfig(zero_tol=1e-10)


def test_localize_reports_positive_distances_and_unit_bearings(rng):
    for recipe_net in (
        build_network(generate_quadrilateralized(12, 5).framework, [1, 2]),
        build_network(generate_bilateration(11, 5).framework, [1, 2]),
        build_network(generate_two_step(10, 5).framework, [1, 2]),
    ):
        res = localize_network(recipe_net)
        assert res.solution.ok
        assert np.all(res.solution.distances > 0)
        assert np.max(np.abs(np.linalg.norm(res.solution.bearings, axis=1) - 1.0)) < 1e-8
        assert res.mse < 1e-16


def test_equal_ratio_star_resolves_to_anchor_distance(rng):
    # Ratio-1 measurements at a hub make every spoke equal to the anchor
    # pair's distance.
    g = Graph(5, ((1, 2), (1, 3), (1, 4), (1, 5)))
    r = 0.8
    angles = np.array([0.0, 1.3, 2.9, 4.4])
    pts = np.vstack([[0.0, 0.0], np.column_stack([r * np.cos(angles), r * np.sin(angles)])])
    fw = Framework(g, Bipartition.from_a_set(5, [2]), pts)
    net = build_network(fw, [1, 2])
    assert all(v == pytest.approx(1.0) for v in net.rod.values())
    dist = propagate_distances(net)
    assert dist.fully_resolved
    assert np.allclose(dist.offset, r, atol=1e-12)


def test_problem_equivalence_at_recovered_positions(rng):
    # Recovered positions satisfy the original per-node constraints: every
    # measured angle and ratio is reproduced and the anchors are exact.
    from sarod import signed_angle, ratio_of_distance
    from sarod.snl import solution_residuals

    for net in (
        build_network(generate_quadrilateralized(12, 8).framework, [1, 2]),
        build_network(generate_bilateration(11, 8).framework, [1, 2]),
        build_network(generate_two_step(10, 8).framework, [1, 2]),
    ):
        res = localize_network(net)
        assert res.solution.ok
        x = res.positions
        for t, val in net.sa.items():
            diff = np.mod(signed_angle(x, t) - val + np.pi, 2 * np.pi) - np.pi
            assert abs(diff) < 1e-8
        for t, val in net.rod.items():
            assert abs(ratio_of_distance(x, t) / val - 1.0) < 1e-8
        for a in net.anchors:
            assert np.linalg.norm(x[a - 1] - net.truth[a - 1]) < 1e-9
        rep = solution_residuals(net, res.solution)
        assert max(rep["rotation"], rep["ratio"], rep["cycle"], rep["anchor"], rep["unit_norm"]) < 1e-8
        assert rep["min_distance"] > 0


def test_bilateration_bearing_system_full_column_rank():
    # Type (D1, A1) bilateration networks with anchors {1, 2} always give a
    # bearing system of full column rank 4n - 6 (trivial null space).
    import itertools

    cases = list(itertools.product(range(5, 71, 5), (0, 1))) + [(n, 2) for n in (7, 23, 41, 59)]
    for n, seed in cases:
        net = build_network(generate_bilateration(n, seed).framework, [1, 2])
        dist = propagate_distances(net)
        system = assemble_bearing_system(net, dist.offset)
        assert system.rank == 4 * n - 6, (n, seed, system.rank)
        assert system.null_dim == 0


def _reference_factorization(A, rhs, rtol=1e-8):
    """Rank, null basis and min-norm solution from three separate factorizations."""
    rank, _ = numerical_rank(A, rtol)
    x, *_ = lstsq(A, rhs, cond=rtol, lapack_driver="gelsd")
    return rank, null_space(A, rcond=rtol), x


def _bearing_systems():
    for recipe in ("bilat-D1A1", "mix-D2A1"):
        for seed in range(3):
            net = build_network(generate(recipe, 70, seed).framework, [1, 2])
            yield net, propagate_distances(net).offset
    # Fewer rows than columns: one SA triple on a 4-cycle.
    fw = Framework(Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4))), Bipartition.from_a_set(4, [2]),
                   np.array([[0.0, 0.0], [1.0, 0.1], [1.2, 1.0], [0.1, 0.9]]))
    net = build_network(fw, [1, 2])
    yield net, truth_edges(net)[1]


def test_bearing_system_single_svd_matches_reference():
    wide = 0
    for net, d in _bearing_systems():
        system = assemble_bearing_system(net, d)
        A = system.matrix
        wide += A.shape[0] < A.shape[1]
        rank, N, x = _reference_factorization(A, system.rhs)
        assert system.rank == rank
        assert system.null_dim == N.shape[1] == A.shape[1] - rank
        P, P_ref = system.null_basis @ system.null_basis.T, N @ N.T
        assert np.max(np.abs(P - P_ref)) <= 1e-10
        assert np.max(np.abs(system.min_norm_solution - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))
    assert wide == 1


def test_distance_solve_single_svd_matches_reference():
    for seed in range(3):
        net = build_network(generate("quad2v", 70, seed).framework, [1, 2])
        sol = solve_sa_connected(net)
        A, y = assemble_distance_system(net, sol.bearings)
        rank, _, d = _reference_factorization(A, y)
        assert sol.info["rank_distance_system"] == rank == net.graph.m
        assert np.max(np.abs(sol.distances - d)) <= 1e-10 * np.max(d)


def _loop_reference_systems(net, b, d):
    """Per-triple loop assembly of the SA and RoD rows, and their worst residuals."""
    eidx = net.graph.edge_index()

    def eid(u, v):
        return eidx[(min(u, v), max(u, v))]

    def sign(u, v):
        return 1.0 if u < v else -1.0

    m = net.graph.m
    sa_rows = np.zeros((2 * len(net.sa_triples), 2 * m))
    rot_res = 0.0
    for k, (u, v, w) in enumerate(net.sa_triples.triples):
        R = np.array([[np.cos(net.sa[(u, v, w)]), -np.sin(net.sa[(u, v, w)])],
                      [np.sin(net.sa[(u, v, w)]), np.cos(net.sa[(u, v, w)])]])
        e1, e2 = eid(u, v), eid(u, w)
        sa_rows[2 * k : 2 * k + 2, 2 * e2 : 2 * e2 + 2] = sign(u, w) * np.eye(2)
        sa_rows[2 * k : 2 * k + 2, 2 * e1 : 2 * e1 + 2] = -sign(u, v) * R
        rot_res = max(rot_res, np.linalg.norm(sign(u, w) * b[e2] - R @ (sign(u, v) * b[e1])))
    rod_rows = np.zeros((len(net.rod_triples), m))
    ratio_res = 0.0
    for k, (u, v, w) in enumerate(net.rod_triples.triples):
        rod_rows[k, eid(u, v)] = -net.rod[(u, v, w)]
        rod_rows[k, eid(u, w)] = 1.0
        ratio_res = max(ratio_res, abs(d[eid(u, w)] - net.rod[(u, v, w)] * d[eid(u, v)]) / d[eid(u, w)])
    return sa_rows, rod_rows, rot_res, ratio_res


def test_vectorized_assembly_matches_loop_reference():
    for recipe in ("bilat-D1A1", "mix-D2A1", "type2D1"):
        net = build_network(generate(recipe, 30, 4).framework, [1, 2])
        b, d = truth_edges(net)
        noise = np.random.default_rng(4).standard_normal((net.graph.m, 3))  # nonzero residuals
        b, d = b + 1e-3 * noise[:, :2], d * (1.0 + 1e-3 * noise[:, 2])
        sa_rows, rod_rows, rot_res, ratio_res = _loop_reference_systems(net, b, d)
        n_cyc = net.graph.m - net.graph.n + 1
        A_b = assemble_bearing_system(net, d).matrix
        assert np.array_equal(A_b[2 * n_cyc : 2 * n_cyc + len(sa_rows)], sa_rows)
        A_d, _ = assemble_distance_system(net, b)
        assert np.array_equal(A_d[2 * n_cyc : 2 * n_cyc + len(rod_rows)], rod_rows)
        rep = solution_residuals(net, EdgeSolution(b, d, "reference", "localizable"))
        assert rep["rotation"] == pytest.approx(rot_res, rel=1e-12)
        assert rep["ratio"] == pytest.approx(ratio_res, rel=1e-12)
