"""Localization-pipeline checks.

Ground-truth substitution is the oracle throughout: true bearings and
distances must satisfy every assembled system, propagation must reproduce
them on resolved components, solvers must recover them, and recovery must
reproduce the configuration under either spanning tree.
"""

import dataclasses
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import lstsq, null_space
from scipy.optimize import least_squares
from scipy.stats import qmc

import sarod.snl
from sarod import (
    Bipartition,
    EdgeSolution,
    Framework,
    Graph,
    InfeasibleMeasurementsError,
    MeasurementSet,
    SolverConfig,
    build_network,
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
)
from sarod.construction import generate
from sarod.geometry import rotation
from sarod.graph import fundamental_cycle_basis, path_matrix
from sarod.rigidity import _batched_lm, _quad_shapes, _svd_factor, numerical_rank, quad_global_rigidity
from sarod.snl import (
    LinearSystem,
    _cluster_zeros,
    _edges_at,
    _latin_hypercube,
    _lu_solved,
    _solved,
    assemble_bearing_system,
    assemble_distance_system,
    closure_system,
    solution_residuals,
)

from conftest import measurement_set, random_framework, relabelled


def truth_edges(net):
    p = net.truth
    vecs = np.array([p[j - 1] - p[i - 1] for (i, j) in net.graph.edges])
    d = np.linalg.norm(vecs, axis=1)
    return vecs / d[:, None], d


def dense_basis(param):
    """The free directions of an ``EdgeParameterization`` as one dense matrix: the reference for its per-edge transport.

    Bearings give (2m, dim), one column pair R(phi_e) e_x, R(phi_e) e_y per
    free SA component; distances give (m, dim), rho_e in its component's
    column.
    """
    e = np.flatnonzero(~param.resolved)
    t, m = param.column[e], len(param.column)
    if param.offset.ndim == 1:
        basis = np.zeros((m, param.dim))
        basis[e, t] = param.transport[e]
        return basis
    c, s = np.cos(param.transport[e]), np.sin(param.transport[e])
    basis = np.zeros((2 * m, param.dim))
    basis[2 * e, 2 * t], basis[2 * e + 1, 2 * t] = c, s
    basis[2 * e, 2 * t + 1], basis[2 * e + 1, 2 * t + 1] = -s, c
    return basis


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
    # Propagation is cached from the measurement and anchor arrays, so they are read-only copies.
    for name in ("sa", "rod", "anchor_edges", "anchor_bearings", "anchor_distances"):
        assert not getattr(net3, name).flags.writeable, name
    with pytest.raises(ValueError, match="n_a >= 2"):
        build_network(fw, [2])


def test_build_network_refuses_non_integer_anchor_ids(rng):
    # int() would truncate 1.9 and read True and "1" as vertex 1; each is
    # refused by name instead.  Numpy integers are ids.
    fw = Framework(Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4))), Bipartition.from_a_set(4, [1, 3]), rng.uniform(0, 1, (4, 2)))
    for bad in (1.9, True, "1", np.float64(1.0), None):
        with pytest.raises(ValueError, match=re.escape(f"anchor ids must be integers, got {bad!r}")):
            build_network(fw, [bad, 2])
    assert build_network(fw, np.array([2, 1])).anchors == (1, 2)
    assert build_network(fw, [np.int32(1), 3]).anchors == (1, 3)


def test_localizability_check_warns_on_single_attribute_anchors(rng):
    # Only the localizability verdict assumes anchors of both kinds: building
    # and localizing stay silent, and each verdict warns once.
    g = Graph(3, ((1, 2), (1, 3), (2, 3)))
    fw = Framework(g, Bipartition.from_a_set(3, [3]), rng.uniform(0, 1, (3, 2)))
    for anchors, expected in (([1, 2], 1), ([1, 3], 0)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            net = build_network(fw, anchors)
            localize_network(net)
            localizability_check(net)
        assert sum("sensing attribute" in str(w.message) for w in caught) == expected, anchors
        assert len(caught) == expected


def test_measurement_ingestion_roundtrip(rng):
    # Supplied measurements must cover exactly the augmented triple sets,
    # on both sides, with positive ratios.
    g = Graph(3, ((1, 2), (1, 3), (2, 3)))
    fw = Framework(g, Bipartition.from_a_set(3, [1]), rng.uniform(0, 1, (3, 2)))
    net = build_network(fw, [1, 2])
    ms = measurement_set(net)
    net2 = build_network(fw, [1, 2], ms)
    assert net2.sa.tobytes() == net.sa.tobytes() and net2.rod.tobytes() == net.rod.tobytes()
    missing = MeasurementSet(dict(list(ms.sa.items())[1:]), dict(ms.rod))
    with pytest.raises(ValueError, match="missing"):
        build_network(fw, [1, 2], missing)
    extra = MeasurementSet({**ms.sa, (3, 1, 2): 0.5}, dict(ms.rod))
    with pytest.raises(ValueError, match="unknown"):
        build_network(fw, [1, 2], extra)

    fw = generate("mix-D2A1", 30, 1).framework
    net = build_network(fw, [1, 2])
    ms = measurement_set(net)
    rod_key = next(iter(ms.rod))
    apex, v, _ = rod_key
    far = min(w for w in range(v + 1, fw.n + 1) if w not in net.graph.neighbors()[apex])
    cases = (
        ({t: r for t, r in ms.rod.items() if t != rod_key}, f"missing for 1 triples, e.g. {rod_key}"),
        ({**ms.rod, (apex, v, far): 1.0}, f"unknown triples, e.g. {(apex, v, far)}"),
        ({**ms.rod, rod_key: 0.0}, "ratios must be positive, got 0.0"),
        ({**ms.rod, rod_key: -2.0}, "ratios must be positive, got -2.0"),
    )
    for rod, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            build_network(fw, [1, 2], MeasurementSet(dict(ms.sa), rod))
    sa_key = next(iter(ms.sa))
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=re.escape(f"SA measurement at {sa_key} is not finite: {value}")):
            build_network(fw, [1, 2], MeasurementSet({**ms.sa, sa_key: value}, dict(ms.rod)))
        with pytest.raises(ValueError, match=re.escape(f"RoD measurement at {rod_key} is not finite: {value}")):
            build_network(fw, [1, 2], MeasurementSet(dict(ms.sa), {**ms.rod, rod_key: value}))
    # A NaN that reaches propagation fails its closure bound instead of
    # passing as a NaN mismatch.
    for k in range(len(net.sa)):
        sa = net.sa.copy()
        sa[k] = np.nan
        with pytest.raises(InfeasibleMeasurementsError, match="closure mismatch nan"):
            propagate_bearings(dataclasses.replace(net, sa=sa))

    # A supplied set is gathered into triple order whatever its key order:
    # reversed keys give the synthesized arrays byte for byte, and the same
    # localization.  Angles are wrapped: v - 2 pi is exact for v >= pi and
    # wraps back to v exactly, while v + 2 pi rounds, by at most the
    # spacing of floats at 2 pi.
    reference = localize_network(net)
    shift = np.where(net.sa >= np.pi, -2.0 * np.pi, 2.0 * np.pi)
    shifted = dict(zip(net.sa_triples.triples, (net.sa + shift).tolist()))
    for sa in (dict(reversed(ms.sa.items())), shifted):
        net2 = build_network(fw, [1, 2], MeasurementSet(sa, dict(reversed(ms.rod.items()))))
        assert net2.rod.tobytes() == net.rod.tobytes()
        result = localize_network(net2)
        assert (result.solution.status, result.solution.info["zero_clusters"]) == (reference.solution.status, 1)
        if sa is shifted:
            exact = shift < 0
            assert exact.any() and (~exact).any()
            assert net2.sa[exact].tobytes() == net.sa[exact].tobytes()
            assert np.max(np.abs(net2.sa - net.sa)) <= np.spacing(2.0 * np.pi)
            assert np.allclose(result.positions, reference.positions, rtol=0, atol=1e-9)
        else:
            assert net2.sa.tobytes() == net.sa.tobytes()
            assert repr(result.solution.info) == repr(reference.solution.info)
            assert result.positions.tobytes() == reference.positions.tobytes()


def test_cycle_bearing_matrix_shapes_and_compatibility(rng):
    # The cycle bearing matrix heads the distance system: 2(m - n + 1) rows.
    tree = build_network(Framework(Graph(4, ((1, 2), (2, 3), (2, 4))), Bipartition.from_a_set(4, [1, 3]), rng.uniform(0, 1, (4, 2))), [1, 2])
    b = rng.normal(size=(3, 2))
    b /= np.linalg.norm(b, axis=1)[:, None]
    assert assemble_distance_system(tree, b)[0].shape[0] == len(tree.rod_triples) + 1
    assert (tree.cycles @ (np.ones(3)[:, None] * b)).shape == (0, 2)

    net = triangle_network(rng)
    bt, dt = truth_edges(net)
    Cb = assemble_distance_system(net, bt)[0][:2]
    assert np.max(np.abs(Cb @ dt)) < 1e-12
    assert np.max(np.abs(Cb @ (3.7 * dt))) < 1e-11  # scaling stays compatible
    assert np.max(np.abs(net.cycles @ ((3.7 * dt)[:, None] * bt))) < 1e-11


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
        labels, count, rho = _walk_reference(m, net.rod_triples, net.rod, lambda r, k, f: r * k if f else r / k, 1.0)
        dist = propagate_distances(net)
        assert np.array_equal(dist.labels, labels) and dist.n_components == count
        free = ~dist.resolved
        assert np.allclose(dense_basis(dist)[free].sum(axis=1), rho[free], rtol=1e-13, atol=0)
        a, d_star = eidx[(1, 2)], net.anchor_distances[0]  # anchor pair (1, 2)
        pinned = dist.resolved & (labels == labels[a])
        assert np.allclose(dist.offset[pinned], rho[pinned] * d_star / rho[a], rtol=1e-13, atol=0)

        tri = np.array(net.sa_triples.triples).reshape(-1, 3)
        steps = net.sa + np.pi * ((tri[:, 0] < tri[:, 1]) != (tri[:, 0] < tri[:, 2]))
        labels, count, phi = _walk_reference(m, net.sa_triples, steps, lambda a, t, f: a + t if f else a - t, 0.0)
        bear = propagate_bearings(net)
        assert np.array_equal(bear.labels, labels) and bear.n_components == count
        e = np.flatnonzero(~bear.resolved)
        first = dense_basis(bear)[:, 0::2]  # R(phi) e_x column of each free component
        assert np.allclose((first[2 * e].sum(axis=1), first[2 * e + 1].sum(axis=1)), (np.cos(phi[e]), np.sin(phi[e])), rtol=0, atol=1e-12)
        a, b_star = eidx[(1, 2)], net.anchor_bearings[0]
        pinned = np.flatnonzero(bear.resolved & (labels == labels[a]))
        ref = np.stack([rotation(x - phi[a]) @ b_star for x in phi[pinned]])
        assert np.allclose(bear.offset[pinned], ref, rtol=0, atol=1e-12)


def test_propagation_detects_inconsistent_measurements(rng):
    # A degree-3 apex emits three triples forming an index-graph cycle, so a
    # single perturbed measurement contradicts the other two.
    k4 = Graph(4, tuple((i, j) for i in range(1, 5) for j in range(i + 1, 5)))
    fw = Framework(k4, Bipartition.from_a_set(4, [1, 2]), rng.uniform(0, 1, (4, 2)))
    ms = measurement_set(build_network(fw, [1, 2]))
    sa_bad = dict(ms.sa)
    key = next(iter(t for t in ms.sa if t[0] == 1))
    sa_bad[key] += 0.3
    bad = build_network(fw, [1, 2], MeasurementSet(sa_bad, dict(ms.rod)))
    with pytest.raises(InfeasibleMeasurementsError, match=r"SA data: worst closure mismatch 3\.000e-01"):
        propagate_bearings(bad)

    rod_bad = dict(ms.rod)
    key = next(iter(t for t in ms.rod if t[0] == 3))
    rod_bad[key] *= 1.5
    bad2 = build_network(fw, [1, 2], MeasurementSet(dict(ms.sa), rod_bad))
    with pytest.raises(InfeasibleMeasurementsError, match="RoD"):
        propagate_distances(bad2)


def test_propagation_detects_anchors_that_disagree():
    # Three anchors pin the three edges of triangle 1-2-3, which one
    # component holds.  Triple (1, 2, 3) lies on no index cycle, so a wrong
    # measurement there passes the closure check and contradicts the
    # anchors only.
    g = Graph(4, ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)))
    points = np.array([[0.0, 0.0], [1.0, 0.1], [0.4, 1.0], [1.3, 1.2]])
    for a_set, side in (([2, 4], "RoD"), ([1, 4], "SA")):
        fw = Framework(g, Bipartition.from_a_set(4, a_set), points)
        ms = measurement_set(build_network(fw, (1, 2, 3)))
        sa, rod = dict(ms.sa), dict(ms.rod)
        if side == "RoD":
            rod[(1, 2, 3)] *= 1.5
        else:
            sa[(1, 2, 3)] += 0.3
        bad = build_network(fw, (1, 2, 3), MeasurementSet(sa, rod))
        with pytest.raises(InfeasibleMeasurementsError, match=f"infeasible {side} data: anchor values disagree within a component"):
            localize_network(bad)


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
    result = localize_network(net)
    sol = result.solution
    assert (result.method, sol.status) == ("sa", "localizable")
    x = recover_positions(net, sol.bearings, sol.distances)
    assert np.max(np.linalg.norm(x - net.truth, axis=1)) < 1e-10


def test_solve_rod_connected_null_case(rng):
    # Mixed recipe keeps a 4-dimensional bearing null space solved by the
    # unit-norm minimization.
    net = build_network(generate_mixed(16, 2).framework, [1, 2])
    result = localize_network(net)
    sol = result.solution
    assert result.method == "rod"
    assert sol.info["null_dim"] == 4
    assert sol.status == "heuristic-unique"
    assert abs(np.linalg.norm(sol.bearings, axis=1) - 1.0).max() < 1e-8
    x = recover_positions(net, sol.bearings, sol.distances)
    assert mean_squared_error(x, net.truth) < 1e-16


def test_solve_disconnected_ground_truth_objective(rng):
    net = build_network(generate_two_step(13, 5).framework, [1, 2])
    bear = propagate_bearings(net)
    dist = propagate_distances(net)
    bt, dt = truth_edges(net)
    # Project the truth onto the parameterizations and evaluate the solver's
    # residual stack: it must vanish.
    NB, ND = dense_basis(bear), dense_basis(dist)
    w = NB.T @ (bt.ravel() - bear.offset.ravel())
    y = ND.T @ (dt - dist.offset)
    scale = (ND.T @ ND).diagonal()
    y = y / np.where(scale > 0, scale, 1.0)
    wb = NB.T @ NB
    w = np.linalg.solve(wb + 1e-15 * np.eye(len(w)), w) if len(w) else w
    b = (bear.offset.ravel() + NB @ w).reshape(-1, 2)
    d = dist.offset + ND @ y
    assert np.max(np.abs(b - bt)) < 1e-8
    assert np.max(np.abs(d - dt)) < 1e-8
    assert np.max(np.abs(net.cycles @ (d[:, None] * b))) < 1e-8


def test_recover_positions_roundtrip_two_trees(rng):
    # Renaming vertex v to n + 1 - v (anchors following) gives a second spanning tree and base anchor.
    for seed in range(4):
        fw = generate_bilateration(13, seed).framework
        perm = fw.n - 1 - np.arange(fw.n)
        net, other = build_network(fw, [1, 2]), build_network(relabelled(fw, perm), perm[:2] + 1)
        assert set(net.graph.spanning_tree.parent_edge) != set(other.graph.spanning_tree.parent_edge)
        x1 = recover_positions(net, *truth_edges(net))
        x2 = recover_positions(other, *truth_edges(other))[perm]
        assert np.max(np.linalg.norm(x1 - net.truth, axis=1)) < 1e-10
        assert np.max(np.linalg.norm(x1 - x2, axis=1)) < 1e-10


def test_recover_positions_sums_the_path_matrix_rows(rng):
    # The root-path product is the path matrix's telescoping sum
    # x_base + P (d * b) for any edge values, consistent or not, and a batch
    # recovers each of its configurations as one call would.
    for recipe in ("quad2v", "mix-D2A1", "type2D1"):
        net = build_network(generate(recipe, 40, 2).framework, [3, 5])
        m = net.graph.m
        b, d = rng.normal(size=(4, m, 2)), rng.uniform(0.5, 2.0, (4, m))
        P = path_matrix(net.graph, 3)
        batch = recover_positions(net, b, d, warn=False)
        for k in range(4):
            x = recover_positions(net, b[k], d[k], warn=False)
            assert np.max(np.abs(x - (net.truth[2] + P @ (d[k, :, None] * b[k])))) <= 1e-12 * np.max(np.abs(x))
            assert np.array_equal(batch[k], x)


def test_cycle_basis_and_recovery_stay_sparse_at_scale():
    # mix-D2A1 at n = 1000 (m = 2494): the root paths and the cycle basis
    # hold about 10k nonzeros, so building them and recovering positions
    # allocates well under a dense (n, m) int matrix's 19 MiB.
    net = build_network(generate("mix-D2A1", 1000, 0).framework, [1, 2])
    b, d = truth_edges(net)
    tracemalloc.start()
    try:
        C = fundamental_cycle_basis(net.graph)
        x = recover_positions(net, b, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert C.shape == (net.graph.m - net.graph.n + 1, net.graph.m)
    assert np.max(np.abs(x - net.truth)) < 1e-12


def test_recover_positions_warns_on_gauge_drift(rng):
    net = triangle_network(rng)
    bt, dt = truth_edges(net)
    with pytest.warns(UserWarning, match="gauge drift"):
        recover_positions(net, bt, dt * 1.5)


def test_gauge_drift_warning_is_scale_relative():
    # Distances 0.1 % too long move the other anchor by ~6.5e-4 of the anchor distance at every
    # scale: that warns at 1e-6 as at 1e6, and exact edges warn at none.
    fw = generate_bilateration(13, 0).framework
    for scale in (1e-6, 1.0, 1e6):
        net = build_network(Framework(fw.graph, fw.bipartition, fw.points * scale), [1, 2])
        bt, dt = truth_edges(net)
        with pytest.warns(UserWarning, match="gauge drift"):
            recover_positions(net, bt, dt * (1.0 + 1e-3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recover_positions(net, bt, dt)


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
    # The regime is read off the input and is one label on both the
    # solution and the result; there is no knob to force it.
    import inspect

    for net, method in (
        (build_network(generate_quadrilateralized(12, 0).framework, [1, 2]), "sa"),
        (build_network(generate_bilateration(11, 0).framework, [1, 2]), "rod"),
        (build_network(generate_two_step(10, 0).framework, [1, 2]), "general"),
    ):
        result = localize_network(net)
        assert result.method == result.solution.method == method
    assert list(inspect.signature(localize_network).parameters) == ["net", "config"]


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
    # type2D1 has no edge free on both sides and a trivial closure null
    # space, so its verdict is exact; mix-D2A1 keeps a 4-dimensional null
    # space and the multi-start.
    expected = {
        "quad2v": ("sa", "localizable", False),
        "bilat-D1A1": ("rod", "localizable", False),
        "type2D1": ("general", "localizable", False),
        "mix-D2A1": ("rod", "heuristic-unique", True),
    }
    for recipe, (method, verdict, heuristic) in expected.items():
        for seed in range(3):
            fw = generate(recipe, 12, seed).framework
            result = localize_network(build_network(fw, [1, 2]))
            v, evidence = localizability_check(build_network(fw, [1, 2]))
            assert (result.method, v) == (method, verdict), (recipe, seed)
            assert evidence == result.solution.info
            assert evidence.get("heuristic", False) == heuristic
            for key in EVIDENCE_KEYS:
                assert key in evidence
            assert max(evidence["sa_closure_mismatch"], evidence["rod_closure_mismatch"]) < 1e-12


def test_localize_rejects_inconsistent_ratio_on_sa_connected_network():
    net = build_network(generate_quadrilateralized(12, 0).framework, [1, 2])
    assert localize_network(net).method == "sa"
    ms = measurement_set(net)
    rod = dict(ms.rod)
    key = next(t for t in rod if sum(u == t[0] for u, _, _ in rod) >= 3)
    rod[key] *= 1.01
    bad = build_network(net.framework, [1, 2], MeasurementSet(dict(ms.sa), rod))
    with pytest.raises(InfeasibleMeasurementsError, match="RoD"):
        localize_network(bad)
    with pytest.raises(InfeasibleMeasurementsError, match="RoD"):
        localizability_check(bad)


SCALE_INVARIANT_INFO = (
    "rank_distance_system", "rank_bearing_system", "null_dim", "sa_components", "rod_components",
    "free_bearing_dim", "free_distance_dim", "zero_clusters", "closure_rows",
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


def test_localization_invariant_under_vertex_relabelling():
    # Renaming the vertices (anchors following) changes the spanning tree, the triple order and the
    # closure system, but no verdict, rank or component count; the positions follow the renaming.
    disagree = []
    for recipe in ("quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal"):
        for seed in range(4):
            fw = generate(recipe, 30, seed).framework
            perm = np.random.default_rng(seed).permutation(fw.n)
            net, other = build_network(fw, [1, 2]), build_network(relabelled(fw, perm), perm[:2] + 1)
            results = [localize_network(x) for x in (net, other)]
            verdicts = [(r.method, r.solution.status, *(r.solution.info.get(k) for k in SCALE_INVARIANT_INFO)) for r in results]
            if verdicts[0] != verdicts[1]:
                disagree.append((recipe, seed, *verdicts))
            moved = np.max(np.linalg.norm(results[0].positions - results[1].positions[perm], axis=1))
            assert moved <= 1e-9 * net.unit, (recipe, seed, moved)
    assert not disagree, disagree


def test_solver_config_settable_fields():
    from dataclasses import fields

    assert [f.name for f in fields(SolverConfig)] == ["seed", "starts", "rtol"]
    assert SolverConfig().zero_tol == 1e-16
    with pytest.raises(TypeError):
        SolverConfig(zero_tol=1e-10)
    for starts in (0, -3, 2.5, 1.0, True, "5", None):
        with pytest.raises(ValueError, match="starts must be a positive integer"):
            SolverConfig(starts=starts)
    assert SolverConfig(starts=np.int64(5)).starts == 5
    for rtol in (0.0, 1.0, -1e-8, 2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rtol must lie in"):
            SolverConfig(rtol=rtol)
    for seed in (-1, 1.5, True, "3"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SolverConfig(seed=seed)
    assert SolverConfig(seed=np.int64(3)).seed == 3
    config = SolverConfig(starts=1, rtol=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.starts = 0


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
    assert all(v == pytest.approx(1.0) for v in net.rod)
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
        for t, val in zip(net.sa_triples.triples, net.sa):
            diff = np.mod(signed_angle(x, t) - val + np.pi, 2 * np.pi) - np.pi
            assert abs(diff) < 1e-8
        for t, val in zip(net.rod_triples.triples, net.rod):
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
        result = localize_network(net)
        sol = result.solution
        assert result.method == "sa"
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
        R = np.array([[np.cos(net.sa[k]), -np.sin(net.sa[k])], [np.sin(net.sa[k]), np.cos(net.sa[k])]])
        e1, e2 = eid(u, v), eid(u, w)
        sa_rows[2 * k : 2 * k + 2, 2 * e2 : 2 * e2 + 2] = sign(u, w) * np.eye(2)
        sa_rows[2 * k : 2 * k + 2, 2 * e1 : 2 * e1 + 2] = -sign(u, v) * R
        rot_res = max(rot_res, np.linalg.norm(sign(u, w) * b[e2] - R @ (sign(u, v) * b[e1])))
    rod_rows = np.zeros((len(net.rod_triples), m))
    ratio_res = 0.0
    for k, (u, v, w) in enumerate(net.rod_triples.triples):
        rod_rows[k, eid(u, v)] = -net.rod[k]
        rod_rows[k, eid(u, w)] = 1.0
        ratio_res = max(ratio_res, abs(d[eid(u, w)] - net.rod[k] * d[eid(u, v)]) / d[eid(u, w)])
    return sa_rows, rod_rows, rot_res, ratio_res


def _loop_reference_anchor_rows(net, b, d):
    """Anchor rows of the bearing and distance systems, and the worst anchor residual, one pair at a time.

    Each pair's distance is the 1-D ``np.linalg.norm`` of its true displacement.
    """
    eidx, m = net.graph.edge_index(), net.graph.m
    bear_rows, bear_rhs, dist_rows, dist_rhs, res = [], [], [], [], 0.0
    for i, j in itertools.combinations(net.anchors, 2):
        e, step = eidx[(i, j)], net.truth[j - 1] - net.truth[i - 1]
        d_star = float(np.linalg.norm(step))
        b_star = step / d_star
        block = np.zeros((2, 2 * m))
        block[:, 2 * e : 2 * e + 2] = np.eye(2)
        bear_rows.append(block)
        bear_rhs.append(b_star)
        dist_rows.append(np.eye(m)[e])
        dist_rhs.append(d_star)
        res = max(res, float(np.linalg.norm(b[e] - b_star)), abs(d[e] - d_star))
    return np.vstack(bear_rows), np.concatenate(bear_rhs), np.array(dist_rows), np.array(dist_rhs), res


def test_vectorized_assembly_matches_loop_reference():
    cases = (("bilat-D1A1", [1, 2]), ("mix-D2A1", [1, 2]), ("type2D1", [1, 2]), ("bilat-D1A1", [9, 2, 17, 5]), ("mix-D2A1", [3, 1, 2]), ("quad2v", [1, 2, 3, 4, 5, 6]))
    for recipe, anchors in cases:
        net = build_network(generate(recipe, 30, 4).framework, anchors)
        b, d = truth_edges(net)
        noise = np.random.default_rng(4).standard_normal((net.graph.m, 3))  # nonzero residuals
        b, d = b + 1e-3 * noise[:, :2], d * (1.0 + 1e-3 * noise[:, 2])
        sa_rows, rod_rows, rot_res, ratio_res = _loop_reference_systems(net, b, d)
        bear_rows, bear_rhs, dist_rows, dist_rhs, anchor_res = _loop_reference_anchor_rows(net, b, d)
        # The vectorized anchor pass gives every pair's 1-D norm and bearing bit for bit.
        assert net.anchor_distances.tobytes() == dist_rhs.tobytes() and net.anchor_bearings.tobytes() == bear_rhs.tobytes()
        n_cyc = net.graph.m - net.graph.n + 1
        bearing = assemble_bearing_system(net, d)
        assert np.array_equal(bearing.matrix[2 * n_cyc : 2 * n_cyc + len(sa_rows)], sa_rows)
        assert np.array_equal(bearing.matrix[-len(bear_rows) :], bear_rows) and np.array_equal(bearing.rhs[-len(bear_rows) :], bear_rhs)
        A_d, y_d = assemble_distance_system(net, b)
        assert np.array_equal(A_d[2 * n_cyc : 2 * n_cyc + len(rod_rows)], rod_rows)
        assert np.array_equal(A_d[-len(dist_rows) :], dist_rows) and np.array_equal(y_d[-len(dist_rows) :], dist_rhs)
        rep = solution_residuals(net, EdgeSolution(b, d, "reference", "localizable"))
        assert rep["rotation"] == pytest.approx(rot_res, rel=1e-12)
        assert rep["ratio"] == pytest.approx(ratio_res, rel=1e-12)
        assert rep["anchor"] == anchor_res
        # The cycle residual, summed from the signed cycle entries, is the dense cycle matrix's.
        C = fundamental_cycle_basis(net.graph).toarray()
        assert rep["cycle"] == pytest.approx(np.max(np.abs(C @ (d[:, None] * b))), rel=1e-12)


def test_closure_solve_matches_full_systems():
    # The closure over the free references has the null space of the full
    # distance system (SA-connected) or bearing system (RoD-connected), and
    # the answer of their minimum-norm solves; with a nontrivial null space
    # or in the general regime the answer is the truth.  Neither full
    # system depends on scale, so it is factored once, at scale 1, and
    # every scale must reproduce it.
    for recipe in ("quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal"):
        for n in (12, 70, 140):
            for seed in range(3):
                fw = generate(recipe, n, seed).framework
                net = build_network(fw, [1, 2])
                reference, full_null_dim = net.truth, None
                if net.bearing_param.fully_resolved:
                    A, y = assemble_distance_system(net, net.bearing_param.offset)
                    full_null_dim = net.graph.m - numerical_rank(A)[0]
                    d = lstsq(A, y, cond=1e-8, lapack_driver="gelsd")[0]
                    reference = recover_positions(net, net.bearing_param.offset, d, warn=False)
                elif net.distance_param.fully_resolved:
                    full = assemble_bearing_system(net, net.distance_param.offset)
                    full_null_dim = full.null_dim
                    if full.null_dim == 0:
                        reference = recover_positions(net, full.min_norm_solution.reshape(-1, 2), net.distance_param.offset, warn=False)
                radius = np.max(np.linalg.norm(fw.points - fw.points.mean(axis=0), axis=1))
                for scale in (1e-6, 1.0, 1e6):
                    case = (recipe, n, seed, scale)
                    net = build_network(Framework(fw.graph, fw.bipartition, fw.points * scale), [1, 2])
                    result = localize_network(net)
                    info = result.solution.info
                    null_dim = closure_system(net).null_dim
                    if result.method == "sa":
                        assert info["rank_distance_system"] == net.graph.m - null_dim == net.graph.m - full_null_dim, case
                    elif result.method == "rod":
                        assert info["null_dim"] == null_dim == full_null_dim, case
                        assert info["rank_bearing_system"] == 2 * net.graph.m - null_dim, case
                    else:
                        assert info["null_dim"] == null_dim == 0, case
                    assert result.solution.ok, case
                    assert np.max(np.linalg.norm(result.positions - scale * reference, axis=1)) <= 1e-9 * scale * radius, case


QUAD = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))


def _bilinear_k4(rng):
    # Anchors 1, 2 both sense angles, so edge (3, 4), joining the two ratio
    # sensors, is in no SA triple and in the one unpinned RoD component.
    k4 = Graph(4, tuple((i, j) for i in range(1, 5) for j in range(i + 1, 5)))
    return build_network(Framework(k4, Bipartition.from_a_set(4, [1, 2]), rng.uniform(0, 1, (4, 2))), [1, 2])


def reference_bilinear_solve(net, config=None):
    """The bilinear multi-start as one scipy ``least_squares(method="trf")`` call per start.

    An independent oracle for the lifted solve: the bilinear closure in
    all free references x = (w, y), without the lift, with the unit norms
    of the free SA references and a hinge below ``eps`` on the distances
    (in anchor units), from its own box of starts; zeros are clustered as
    the package clusters them.
    """
    config = config or SolverConfig()
    bear, dist = net.bearing_param, net.distance_param
    m, kw, ky = net.graph.m, bear.dim, dist.dim
    C = fundamental_cycle_basis(net.graph).toarray().astype(float)
    NB, ND = dense_basis(bear).reshape(m, 2, kw), dense_basis(dist)
    eps, box_half_width = 1e-6, 2.0
    comp = np.arange(kw).reshape(-1, 2)

    def residuals(x):
        b, d = _edges_at(net, x)
        return np.concatenate([(C @ (d[:, None] * b)).ravel(), (x[comp] ** 2).sum(axis=1) - 1.0, np.maximum(0.0, eps - d)])

    def jacobian(x):
        b, d = _edges_at(net, x)
        J = np.zeros((2 * len(C) + len(comp) + m, kw + ky))
        J[: 2 * len(C), :kw] = (C @ (d[:, None, None] * NB).reshape(m, -1)).reshape(-1, kw)
        J[: 2 * len(C), kw:] = (C @ (b[:, :, None] * ND[:, None, :]).reshape(m, -1)).reshape(-1, ky)
        J[2 * len(C) + np.arange(len(comp))[:, None], comp] = 2.0 * x[comp]
        J[2 * len(C) + len(comp) :, kw:] = -ND * (d < eps)[:, None]
        return J

    scale_guess = float(np.mean(net.anchor_distances)) / net.anchor_distances.max()
    starts = (2.0 * qmc.LatinHypercube(d=kw + ky, seed=np.random.default_rng(config.seed)).random(max(config.starts, 1)) - 1.0) * box_half_width
    starts[:, kw:] = np.abs(starts[:, kw:]) * scale_guess + 0.1 * scale_guess
    sols = [least_squares(residuals, x0, jac=jacobian, method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15) for x0 in starts]
    info = {"variables": kw + ky}
    return _cluster_zeros(net, [s.x for s in sols], [float(np.sum(s.fun**2)) for s in sols], config, "general", info)


def reference_null_search(net, config=None):
    """The null-space multi-start over every free SA component, as the solve ran it before the active-component cut.

    Same closure, starts (``_null_starts``), batched Levenberg-Marquardt
    and clustering as the package's solve; only every component's
    unit-norm residual moves with z, the inactive ones included.  It
    covers networks without lifted products.
    """
    config = config or SolverConfig()
    kw = net.bearing_param.dim
    system = sarod.snl.closure_system(net, config.rtol)
    N, x0, L = system.null_basis, system.min_norm_solution, system.null_dim
    assert L > 0 and kw > 0 and not len(net.lifted_pairs[1]), "the reference covers the unlifted multi-start only"
    Nw, w0 = N[:kw].reshape(-1, 2, L), x0[:kw].reshape(-1, 2)

    def norms(z):
        w = w0 + np.einsum("cjl,sl->scj", Nw, z)
        return (w * w).sum(axis=2) - 1.0, 2.0 * np.einsum("scj,cjl->scl", w, Nw)

    z, r = _batched_lm(sarod.snl._null_starts(net, system, config), norms, 4.0 * np.finfo(float).eps)
    info = {"null_dim": L}
    return _cluster_zeros(net, x0 + z @ N.T, np.sum(r * r, axis=1), config, "rod", info)


def _has_bilinear_edge(net):
    return bool(np.any(~net.bearing_param.resolved & ~net.distance_param.resolved))


def _random_bilinear_networks(count):
    """The first ``count`` random networks (n 5-9, anchors 1, 2, rng 7) with an edge free on both sides."""
    gen, nets = np.random.default_rng(7), []
    while len(nets) < count:
        net = build_network(random_framework(int(gen.integers(5, 10)), gen), [1, 2])
        if _has_bilinear_edge(net):
            nets.append(net)
    return nets


def test_bilinear_solve_matches_trust_region_reference(rng):
    # The lifted solve reaches the verdict of the per-start trust-region
    # reference over the bilinear closure on K4s, on random frameworks with
    # an edge free on both sides and on minimal at odd n (one such edge); a
    # unique answer is the same configuration.
    nets = [_bilinear_k4(rng) for _ in range(5)] + _random_bilinear_networks(6)
    nets += [build_network(generate("minimal", n, 0).framework, [1, 2]) for n in (21, 51)]
    statuses = set()
    for k, net in enumerate(nets):
        result = localize_network(net)
        ref = reference_bilinear_solve(net)
        assert result.method == "general" and result.solution.info["heuristic"] is True, k
        assert result.solution.status == ref.status, (k, ref.status, result.solution.status)
        statuses.add(ref.status)
        if ref.status == "heuristic-unique":
            x_ref = recover_positions(net, ref.bearings, ref.distances, warn=False)
            radius = np.max(np.linalg.norm(net.truth - net.truth.mean(axis=0), axis=1))
            assert np.max(np.linalg.norm(result.positions - x_ref, axis=1)) <= 1e-6 * radius, k
    assert "heuristic-unique" in statuses


@pytest.mark.parametrize("seed", [0, 5, 123])
def test_latin_hypercube_matches_scipy_qmc(seed):
    # The multi-start draws its starts as scipy's LatinHypercube does, from
    # a child spawned off the seeded generator, so starts (and answers) match
    # the sampler the package no longer imports.
    for d in (1, 3, 4, 17, 60):
        for n in (1, 2, 19, 20):
            expected = qmc.LatinHypercube(d=d, seed=np.random.default_rng(seed)).random(n)
            got = _latin_hypercube(np.random.default_rng(seed).spawn(1)[0], n, d)
            assert got.shape == (n, d) and np.array_equal(got, expected), (d, n)


def _refuse_scipy_solvers(monkeypatch):
    import sarod.snl

    def refuse(*args, **kwargs):
        raise AssertionError("scipy solver called")

    monkeypatch.setattr(sarod.snl, "least_squares", refuse)
    monkeypatch.setattr(sarod.snl, "lstsq", refuse)


def test_linear_closure_needs_no_scipy_solve(monkeypatch):
    # Without bilinear edges every regime solves the linear closure with one
    # SVD and, for a nontrivial null space, the batched LM.
    _refuse_scipy_solvers(monkeypatch)
    for recipe, method, status in (("type2D1", "general", "localizable"), ("mix-D2A1", "rod", "heuristic-unique"), ("bilat-D1A1", "rod", "localizable"), ("quad2v", "sa", "localizable")):
        net = build_network(generate(recipe, 40, 0).framework, [1, 2])
        result = localize_network(net)
        assert (result.method, result.solution.status) == (method, status), recipe
        assert result.mse < 1e-20


def test_bilinear_edges_lift_into_the_linear_closure(rng, monkeypatch):
    # An edge free on both sides (the K4 with two angle anchors) gets its
    # product y_k w_c as one more 2-vector column: the closure stays linear,
    # and the one multi-start meets the unit norm and the product, with no
    # scipy solver call.
    _refuse_scipy_solvers(monkeypatch)
    for _ in range(3):
        net = _bilinear_k4(rng)
        both_free = ~net.bearing_param.resolved & ~net.distance_param.resolved
        assert np.flatnonzero(both_free).tolist() == [net.graph.edge_index()[(3, 4)]]
        system = closure_system(net)
        assert system.matrix.shape[1] == 5 and len(net.lifted_pairs[1]) == 1
        result = localize_network(net)
        info = result.solution.info
        assert (result.method, result.solution.status) == ("general", "heuristic-unique")
        assert info["heuristic"] is True and info["zero_clusters"] == 1
        assert (info["variables"], info["lifted_pairs"], info["null_dim"]) == (5, 1, system.null_dim)
        assert info["starts"] == SolverConfig().starts
        assert result.mse < 1e-20
        assert localizability_check(net)[0] == "heuristic-unique"


@pytest.mark.parametrize("n", [101, 301])
def test_minimal_at_odd_n_lifts_one_product(n):
    # One D1 addition leaves one edge free on both sides: one lifted
    # product, a 2-dimensional null space, and the truth as the one zero.
    net = build_network(generate("minimal", n, 0).framework, [1, 2])
    result = localize_network(net)
    info = result.solution.info
    assert (result.solution.status, info["factorization"], info["null_dim"], info["lifted_pairs"]) == ("heuristic-unique", "sparse-lu", 2, 1)
    radius = np.max(np.linalg.norm(net.truth - net.truth.mean(axis=0), axis=1))
    assert np.max(np.linalg.norm(result.positions - net.truth, axis=1)) <= 1e-9 * radius


def test_a_pair_four_cycles_find_the_closed_form_shapes():
    # Adjacent ({1, 2}) and opposite ({1, 3}) A-pair 4-cycles, anchored at
    # 1 and 2, carry one lifted product; the multi-start's zero clusters are
    # the shapes the closed form finds, but for a pinned count of opposite
    # pairs whose second shape no start reaches (at 2.4 to 32 anchor units
    # from vertex 1; the search before the lift missed as many here).
    rng, exceptions = np.random.default_rng(0), []
    for a_set in ([1, 2], [1, 3]):
        done = 0
        while done < 100:
            fw = Framework(QUAD, Bipartition.from_a_set(4, a_set), rng.uniform(0.0, 1.0, (4, 2)))
            if np.min(np.linalg.norm(fw.points[:, None] - fw.points[None], axis=2) + np.eye(4)) <= 0.05:
                continue
            verdict = quad_global_rigidity(fw)
            if not (verdict.margin > 1e-6 and not verdict.boundary):
                continue
            done += 1
            info = localize_network(build_network(fw, [1, 2])).solution.info
            assert info["lifted_pairs"] == 1, (a_set, done)
            if info["zero_clusters"] != len(_quad_shapes(fw)):
                exceptions.append((a_set, done, info["zero_clusters"]))
    assert len(exceptions) == 3, exceptions


def test_far_zeros_join_one_cluster():
    # The 36th opposite A-pair 4-cycle of a 200 + 200 draw of the test above:
    # its second shape puts vertex 4 about 180 anchor units out, where two
    # zeros of that shape lie 4e-5 apart.  The cluster radius grows with the
    # representative's extent, so they join, and the count is the closed
    # form's 2 shapes (3 clusters under an absolute radius).
    points = np.array([[0.09752909616287808, 0.2802373069974956], [0.8474489466751813, 0.4255827659082505],
                       [0.27404391134657835, 0.534901519526517], [0.3302189673009046, 0.30807645459596156]])
    fw = Framework(QUAD, Bipartition.from_a_set(4, [1, 3]), points)
    info = localize_network(build_network(fw, [1, 2])).solution.info
    assert len(_quad_shapes(fw)) == 2
    assert (info["lifted_pairs"], info["zero_clusters"]) == (1, 2)


def _off_circle(monkeypatch, net):
    """Patch ``closure_system`` so that one inactive SA reference of ``net`` sits at 1.1 times its solved value."""
    real_closure, kw = sarod.snl.closure_system, net.bearing_param.dim

    def off_circle(net, rtol):
        system = real_closure(net, rtol)
        blocks = np.max(np.abs(system.null_basis[:kw].reshape(-1, 2, system.null_dim)), axis=(1, 2))
        c = int(np.argmin(blocks))
        assert blocks[c] <= SolverConfig.active_tol
        x0 = system.min_norm_solution.copy()
        x0[2 * c : 2 * c + 2] *= 1.1
        return dataclasses.replace(system, min_norm_solution=x0)

    monkeypatch.setattr(sarod.snl, "closure_system", off_circle)


def test_localizability_check_keeps_a_failed_multi_start(monkeypatch):
    # With one inactive reference off the unit circle no start reaches a
    # zero: the check reports the failure, not two or more solutions.
    net = build_network(generate("mix-D2A1", 70, 0).framework, [1, 2])
    _off_circle(monkeypatch, net)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # both anchors sense angles
        verdict, evidence = localizability_check(net)
    assert verdict == "solver-failed" and evidence["heuristic"] is True and evidence["zero_clusters"] == 0
    assert evidence["objective_best"] > SolverConfig.zero_tol


def test_ambiguous_answer_ignores_the_zeros_objectives(monkeypatch):
    # Exact zeros' objectives are rounding noise: ordering them either way
    # along the starts returns the same cluster, the first one found.
    import sarod.snl

    nets = _random_bilinear_networks(46)
    for k in (2, 25, 41, 44, 45):
        net, calls = nets[k], []
        monkeypatch.setattr(sarod.snl, "_cluster_zeros", lambda *args: calls.append(args) or _cluster_zeros(*args))
        result = localize_network(net)
        monkeypatch.undo()
        assert result.solution.status == "heuristic-ambiguous" and result.solution.info["zero_clusters"] >= 2, k
        _, xs, objectives, config, method, info = calls[0]
        zero = objectives < config.zero_tol
        ramp = np.linspace(1e-3, 0.5, len(objectives)) * config.zero_tol
        for rescaled in (np.where(zero, ramp, objectives), np.where(zero, ramp[::-1], objectives)):
            sol = _cluster_zeros(net, xs, rescaled, config, method, dict(info))
            assert (sol.status, sol.info["zero_clusters"]) == ("heuristic-ambiguous", result.solution.info["zero_clusters"]), k
            x = recover_positions(net, sol.bearings, sol.distances, warn=False)
            assert np.max(np.linalg.norm(x - result.positions, axis=1)) < config.cluster_tol * net.unit, k


def test_null_search_over_active_components_matches_all_component_reference():
    # The multi-start moves only the free SA components whose null-basis
    # block is nonzero; the rest add their constant residual.  On mix-D2A1
    # (null_dim 4) the verdict, cluster count and answer are those of the
    # search over every component, at three scales.
    for n, seed, scale in itertools.product((30, 70, 140, 300), range(5), (1e-6, 1.0, 1e6)):
        base = generate("mix-D2A1", n, seed).framework
        net = build_network(Framework(base.graph, base.bipartition, base.points * scale), [1, 2])
        got, ref = localize_network(net), reference_null_search(net)
        info, case = got.solution.info, (n, seed, scale)
        assert (got.solution.status, info["zero_clusters"], info["null_dim"]) == (ref.status, ref.info["zero_clusters"], ref.info["null_dim"]), case
        assert 0 < info["active_components"] <= info["free_bearing_dim"] // 2, case
        x = recover_positions(net, ref.bearings, ref.distances, warn=False)
        assert np.max(np.abs(got.positions - x)) <= 1e-12 * np.max(np.abs(x)), case


def _pendant_network():
    # Edge (4, 5) is a bridge in no triple: its distance is a RoD component
    # of its own that no cycle constrains, so the closure's null space lies
    # in that distance only, and the one free SA component is determined.
    g = Graph(5, ((1, 3), (1, 4), (2, 3), (2, 4), (4, 5)))
    points = np.array([[0.02, 0.21], [0.3, 0.16], [0.79, 0.17], [0.46, 0.13], [0.78, 0.67]])
    return build_network(Framework(g, Bipartition.from_a_set(5, [2, 4]), points), [1, 2])


def test_null_search_without_active_component_keeps_its_starts(monkeypatch):
    # No free SA component touches the null space: no start moves, and each
    # start is its own answer, as in the search over every component.
    net, runs = _pendant_network(), []
    real_lm = sarod.snl._batched_lm

    def recording(x, fun, tiny):
        before = x.copy()
        z, r = real_lm(x, fun, tiny)
        runs.append((before, z.copy(), r.shape))
        return z, r

    monkeypatch.setattr(sarod.snl, "_batched_lm", recording)
    got = localize_network(net)
    monkeypatch.undo()
    info = got.solution.info
    assert (info["null_dim"], info["free_bearing_dim"], info["active_components"]) == (1, 2, 0)
    (before, after, shape), = runs
    assert shape == (SolverConfig().starts, 0) and np.array_equal(before, after)
    ref = reference_null_search(net)
    # Start 0 (the minimum-norm solution) leaves the bridge at length 0; every other start draws a positive one.
    assert (got.solution.status, info["zero_clusters"]) == (ref.status, ref.info["zero_clusters"]) == ("heuristic-ambiguous", SolverConfig().starts - 1)
    x = recover_positions(net, ref.bearings, ref.distances, warn=False)
    assert np.max(np.abs(got.positions - x)) <= 1e-12 * np.max(np.abs(x))


def test_inactive_component_off_the_unit_circle_keeps_the_verdict_nonzero(monkeypatch):
    # An inactive component's constant |w0|^2 - 1 stays in every start's
    # objective: with one such reference scaled by 1.1 no start reaches a
    # zero, though every active component does.
    net = build_network(generate("mix-D2A1", 70, 0).framework, [1, 2])
    _off_circle(monkeypatch, net)
    sol = localize_network(net).solution
    ref = reference_null_search(net)
    assert (sol.status, sol.info["zero_clusters"]) == (ref.status, ref.info["zero_clusters"]) == ("solver-failed", 0)
    assert sol.info["objective_best"] >= (1.1**2 - 1.0) ** 2 * (1.0 - 1e-9)


def test_closure_system_shape():
    for recipe in ("quad2v", "bilat-D1A1", "mix-D2A1", "type2D1"):
        net = build_network(generate(recipe, 30, 1).framework, [1, 2])
        system = closure_system(net)
        g = net.graph
        assert system.matrix.shape == (2 * (g.m - g.n + 1), net.bearing_param.dim + net.distance_param.dim)
        b, d = truth_edges(net)
        NB, ND = dense_basis(net.bearing_param), dense_basis(net.distance_param)
        x = np.concatenate([NB.T @ (b.ravel() - net.bearing_param.offset.ravel()), ND.T @ (d - net.distance_param.offset) / net.anchor_distances.max()])
        # Each basis column lives on one component's edges, so the columns are
        # orthogonal and projecting the truth recovers its free references.
        x /= np.concatenate([np.diag(NB.T @ NB), np.diag(ND.T @ ND)])
        assert np.max(np.abs(system.matrix @ x - system.rhs)) < 1e-10


def _dense_closure_matrix(net):
    """d(d * b)/dx and d(C (d * b))/dx at the propagated offsets, from the dense cycle matrix and bases: the reference for ``displacement_map`` and ``closure_system``.

    Rows of the first are 2e + j, of the second 2c + j.  An edge free on
    both sides has zero offsets, so it adds nothing to the w and y columns;
    it puts rho_e R(phi_e) on the two columns of its lifted product z_ck,
    one per distinct pair (c, k) in ascending order.
    """
    bear, dist = net.bearing_param, net.distance_param
    m, kw = net.graph.m, bear.dim
    C = fundamental_cycle_basis(net.graph).toarray().astype(float)
    b, d = bear.offset, dist.offset / net.unit
    NB, ND = dense_basis(bear).reshape(m, 2, kw), dense_basis(dist)
    both = np.flatnonzero(~bear.resolved & ~dist.resolved)
    pairs = sorted({(bear.column[e], dist.column[e]) for e in both})
    NZ = np.zeros((m, 2, 2 * len(pairs)))
    for e in both:
        p = pairs.index((bear.column[e], dist.column[e]))
        NZ[e, :, 2 * p : 2 * p + 2] = dist.transport[e] * rotation(bear.transport[e])
    J = np.concatenate([d[:, None, None] * NB, b[:, :, None] * ND[:, None, :], NZ], axis=2)
    return J.reshape(2 * m, -1), (C @ J.reshape(m, -1)).reshape(2 * len(C), -1)


RECIPES = ("quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal")


def test_closure_entries_match_dense_formula():
    # The displacement map and the closure matrix (C kron I_2) J, densified,
    # are the dense basis and C contractions at the propagated offsets on
    # every recipe, on minimal at odd n and on networks with edges free on
    # both sides, whose lifted products take rho_e R(phi_e); D0 holds the
    # resolved displacements, and the closure matrix stores no exact zero.
    gen = np.random.default_rng(11)
    nets = [build_network(generate(recipe, 40, 2).framework, [1, 2]) for recipe in RECIPES]
    nets += [build_network(generate("minimal", 41, 2).framework, [1, 2])]
    nets += [_bilinear_k4(gen) for _ in range(3)]
    while len(nets) < 12:
        net = build_network(random_framework(int(gen.integers(5, 10)), gen), [1, 2])
        if _has_bilinear_edge(net):
            nets.append(net)
    lifted = []
    for k, net in enumerate(nets):
        J_ref, A_ref = _dense_closure_matrix(net)
        J, D0 = net.displacement_map
        assert np.max(np.abs(J.toarray() - J_ref), initial=0.0) <= 1e-14 * np.max(np.abs(J_ref), initial=0.0), k
        assert np.array_equal(D0, net.distance_param.offset[:, None] / net.unit * net.bearing_param.offset), k
        A = closure_system(net).matrix
        assert np.max(np.abs(A.toarray() - A_ref), initial=0.0) <= 1e-14 * np.max(np.abs(A_ref), initial=0.0), k
        assert np.all(A.data != 0), k
        lifted.append(len(net.lifted_pairs[1]))
    assert lifted[:5] == [0] * 5 and min(lifted[5:]) >= 1 and max(lifted) >= 2


def test_edges_at_batch_matches_single_calls():
    # Leading batch axes change nothing: every slice of a batched call is the
    # single call at that x, bit for bit.
    gen = np.random.default_rng(12)
    for net in [build_network(generate(recipe, 40, 0).framework, [1, 2]) for recipe in RECIPES] + [_bilinear_k4(gen)]:
        m, dim = net.graph.m, net.bearing_param.dim + net.distance_param.dim
        xs = gen.standard_normal((4, 3, dim))
        b, d = _edges_at(net, xs)
        assert b.shape == (4, 3, m, 2) and d.shape == (4, 3, m)
        for i, j in np.ndindex(4, 3):
            bi, di = _edges_at(net, xs[i, j])
            assert np.array_equal(b[i, j], bi) and np.array_equal(d[i, j], di)


def test_edge_parameterization_is_linear_in_edges():
    # Propagation stores per edge its transport and reference index, never a
    # dense basis: no array holds more than m x 2 entries.
    for recipe in RECIPES:
        net = build_network(generate(recipe, 70, 1).framework, [1, 2])
        for param in (net.bearing_param, net.distance_param):
            sizes = {f.name: getattr(param, f.name).size for f in dataclasses.fields(param) if isinstance(getattr(param, f.name), np.ndarray)}
            assert max(sizes.values()) <= 2 * net.graph.m, (recipe, sizes)


def _assert_matches_dense_svd(system, case):
    """Rank, null space and minimum-norm solution of ``system`` are those of one dense SVD of its matrix."""
    rank, s, u, vt = _svd_factor(system.matrix.toarray())
    N = vt[rank:].T
    x = vt[:rank].T @ ((u[:, :rank].T @ system.rhs) / s[:rank])
    assert system.rank == rank and system.null_dim == N.shape[1], case
    assert np.max(np.abs(system.null_basis @ system.null_basis.T - N @ N.T), initial=0.0) <= 1e-10, case
    assert np.max(np.abs(system.min_norm_solution - x), initial=0.0) <= 1e-10 * max(1.0, np.max(np.abs(x), initial=0.0)), case


def test_closure_factorization_matches_dense_svd():
    # Every recipe's closure is square and nonsingular or wide with full row
    # rank, so its certified sparse LU decides it, with the verdict, null
    # space and solution of the dense SVD, at every scale.  With three or
    # more anchors, the anchor clique's own cycles give empty rows; without
    # them the closure is square or wide again and takes the same LU, except
    # type2D1 with three or six anchors, which keeps one row more than it has
    # unknowns and is left to the SVD.  Either way it localizes exactly.
    for recipe in RECIPES:
        for n in (12, 70, 140):
            for seed in range(3):
                fw = generate(recipe, n, seed).framework
                for scale in (1e-6, 1.0, 1e6):
                    case = (recipe, n, seed, scale)
                    system = closure_system(build_network(Framework(fw.graph, fw.bipartition, fw.points * scale), [1, 2]))
                    assert scipy.sparse.issparse(system.matrix) and system.matrix.format == "csc", case
                    assert system.factorization == "sparse-lu", case
                    _assert_matches_dense_svd(system, case)
                for k in (3, 4, 6) if n == 70 else ():
                    case = (recipe, n, seed, k)
                    net = build_network(fw, range(1, k + 1))
                    system = closure_system(net)
                    tall = np.count_nonzero(system.matrix.getnnz(axis=1)) > system.matrix.shape[1]
                    assert tall == (recipe == "type2D1" and k in (3, 6)), case
                    assert system.factorization == ("dense-svd" if tall else "sparse-lu"), case
                    _assert_matches_dense_svd(system, case)
                    result = localize_network(net)
                    assert result.solution.ok and result.solution.info["null_dim"] == system.null_dim, case
                    assert np.sqrt(result.mse) <= 1e-9 * net.unit, case


def test_closure_falls_back_to_dense_svd():
    # A tall closure (more cycle rows than free references) is left to the
    # dense SVD, with the verdict the dense solve always gave: the slider is
    # unlocalizable.  The quadrilateral anchored across a diagonal is
    # localizable: its second cycle row is all exact zeros, so only three
    # rows are factored, square, by the certified LU.  The wide closure of a
    # defective quadrilateralization has full row rank and one null
    # direction, which the certificate decides.  An angle-only path has no
    # cycle: its closure has no row for the LU, and the SVD of the empty
    # system leaves both free distances open.
    slider = Framework(Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]), Bipartition.from_a_set(4, [1, 3, 4]),
                       np.array([[0.0, 0], [1, 1], [2, 0], [0.7, 0]]))
    quad = Framework(Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4))), Bipartition.from_a_set(4, [1, 2]), np.array([[0.0, 0], [4, 0], [3, 1], [2, 1]]))
    defect = generate_quadrilateralized(12, 3, defect_quads=1).framework
    path = Framework(Graph(4, ((1, 2), (2, 3), (3, 4))), Bipartition.from_a_set(4, [1, 2, 3, 4]), np.array([[0.0, 0], [1, 0.2], [1.5, 1], [2.5, 1.2]]))
    for fw, anchors, shape, rows, factorization, status in (
        (slider, [1, 2], (4, 3), 4, "dense-svd", "unlocalizable"),
        (quad, [1, 3], (4, 3), 3, "sparse-lu", "localizable"),
        (defect, [1, 2], (10, 11), 10, "sparse-lu", "unlocalizable"),
        (path, [1, 2], (0, 2), 0, "dense-svd", "unlocalizable"),
    ):
        net = build_network(fw, anchors)
        system = closure_system(net)
        assert system.matrix.shape == shape and system.factorization == factorization
        _assert_matches_dense_svd(system, shape)
        sol = localize_network(net).solution
        assert (sol.status, sol.info["factorization"], sol.info["null_dim"], sol.info["closure_rows"]) == (status, factorization, system.null_dim, rows)


def test_lu_certificate_is_scale_free_and_one_sided():
    # The certificate holds exactly when every singular value clears the
    # rank cut with room to spare, relative to the bound sigma on
    # sigma_max: sigma ratio 1e-6 certifies at every scale, 1e-9 (below
    # the 1e-8 cut) never does, and a singular LU gives up too.  Flipping
    # the bound's direction or dropping sigma from it fails here.  sigma is
    # min(||A||_F, sqrt(||A||_1 ||A||_inf)), and each side of the min
    # decides one case: on I_100 at rtol 0.01 the Frobenius bound reads
    # 0.01 * 10 * 10 = 1 and fails, where sqrt(||A||_1 ||A||_inf) = 1 gives
    # 0.1; on [[1, 1], [0, 1]] at rtol 0.155 the Frobenius norm sqrt(3) is
    # the smaller and gives 0.155 * 3 = 0.465 < 1/2, where 2 gives 0.537.
    rtol = SolverConfig().rtol
    for scale in (1e-6, 1.0, 1e6):
        for rows, wide in ((np.diag([1.0, 1e-6]), False), (np.array([[1.0, 0.0, 0.0], [0.0, 1e-6, 0.0]]), True)):
            A, rhs = scipy.sparse.csc_matrix(rows * scale), np.array([1.0, 2.0])
            system = _lu_solved(A, rhs, rtol)
            assert system is not None and system.rank == 2 and system.factorization == "sparse-lu", (scale, wide)
            assert system.null_dim == int(wide)
            assert np.allclose(system.min_norm_solution[:2], rhs / np.diag(rows[:, :2]) / scale)
            near = rows.copy()
            near[1, 1] = 1e-9
            assert _lu_solved(scipy.sparse.csc_matrix(near * scale), rhs, rtol) is None, (scale, wide)
            assert _solved(near * scale, rhs, rtol).rank == 1
    assert _lu_solved(scipy.sparse.csc_matrix(np.ones((2, 2))), np.ones(2), rtol) is None
    rhs = np.arange(1.0, 101.0)
    system = _lu_solved(scipy.sparse.csc_matrix(np.eye(100)), rhs, 0.01)
    assert system is not None and (system.rank, system.null_dim) == (100, 0) and np.allclose(system.min_norm_solution, rhs)
    system = _lu_solved(scipy.sparse.csc_matrix(np.array([[1.0, 1.0], [0.0, 1.0]])), np.array([3.0, 1.0]), 0.155)
    assert system is not None and system.rank == 2 and np.allclose(system.min_norm_solution, [2.0, 1.0])


def _three_solve_closure(A, rhs, rtol):
    """``_lu_solved`` as three separate LU solves (the whole inverse, the null columns, [rhs; 0]): the reference."""
    r, c = A.shape
    if not 0 < r <= c:
        return None
    norm = float(np.linalg.norm(A.data))
    G = np.random.default_rng(0).standard_normal((c - r, c))
    G *= norm / np.sqrt(c) / np.linalg.norm(G, axis=1, keepdims=True)
    lu = scipy.sparse.linalg.splu(scipy.sparse.vstack([A, scipy.sparse.csc_matrix(G)], format="csc"))
    if not np.sum(lu.solve(np.eye(c)) ** 2) < (0.5 / (rtol * norm)) ** 2:
        return None
    N = np.asfortranarray(np.linalg.qr(lu.solve(np.eye(c, c - r, -r)))[0])
    x = lu.solve(np.concatenate([rhs, np.zeros(c - r)]))
    return LinearSystem(A, rhs, r, N, x - N @ (N.T @ x), "sparse-lu")


@pytest.mark.parametrize("block", [7, 48, 256])
def test_lu_closure_solves_each_block_once(monkeypatch, block):
    # One pass over blocks of identity columns gives the bound's sum, and
    # one more solve the minimum-norm solution and the null basis:
    # ceil(c / block) + 1 LU solves per closure.  Status, null_dim and
    # positions are those of the separate inverse, null-column and
    # right-hand-side solves, on every recipe at three scales; a 7-column
    # block puts block edges on both sides of the closure's row count, 48
    # is the default, and one 256-column block holds the smaller closures
    # whole.
    real_splu, counts = sarod.snl.splu, []

    class CountingLU:
        def __init__(self, A):
            self.lu = real_splu(A)
            counts.append([A.shape[1], 0])

        def solve(self, b):
            counts[-1][1] += 1
            return self.lu.solve(b)

    monkeypatch.setattr(sarod.snl, "_LU_BLOCK", block)
    for recipe, n, scale in itertools.product(RECIPES, (70, 140), (1e-6, 1.0, 1e6)):
        base = generate(recipe, n, 0).framework
        net = build_network(Framework(base.graph, base.bipartition, base.points * scale), [1, 2])
        with monkeypatch.context() as m:
            m.setattr(sarod.snl, "splu", CountingLU)
            counts.clear()
            got = localize_network(net)
        assert counts and all(solves == -(-c // block) + 1 for c, solves in counts), (recipe, n, scale, counts)
        with monkeypatch.context() as m:
            m.setattr(sarod.snl, "_lu_solved", _three_solve_closure)
            want = localize_network(net)
        assert got.solution.status == want.solution.status, (recipe, n, scale)
        assert got.solution.info["null_dim"] == want.solution.info["null_dim"], (recipe, n, scale)
        assert got.solution.info["factorization"] == want.solution.info["factorization"] == "sparse-lu", (recipe, n, scale)
        assert np.max(np.abs(got.positions - want.positions)) <= 1e-12 * np.max(np.abs(want.positions)), (recipe, n, scale)


def test_lu_closure_holds_one_block_at_a_time(monkeypatch):
    # quad2v n = 2000 with 256-column blocks: a block of identity columns
    # and its solution take 3.9 MiB each.  The sum over the blocks holds
    # one solution at a time (one kept alive through the next block's solve
    # makes the peak three).  At the default block the solve's other
    # allocations are a large share of the peak, so the block is set large
    # here.
    monkeypatch.setattr(sarod.snl, "_LU_BLOCK", 256)
    net = build_network(generate("quad2v", 2000, 0).framework, [1, 2])
    tracemalloc.start()
    try:
        system = closure_system(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 8 * system.matrix.shape[1] * sarod.snl._LU_BLOCK
    assert system.factorization == "sparse-lu" and peak < 3 * block, (peak, block)


@pytest.mark.parametrize("block, r, c", [(7, 15, 20), (7, 14, 20), (7, 13, 20), (7, 3, 30), (7, 21, 21), (48, 52, 62), (256, 260, 270)])
def test_lu_closure_null_columns_across_block_edges(monkeypatch, block, r, c):
    # The null columns r..c-1 of A_hat^-1 start inside a block, at its edge
    # or after a block that ends before row r (15 = 2 * 7 + 1 rows with a
    # 5-column null space; 52 = 48 + 4 and 260 = 256 + 4 rows with 10).
    # Wherever the blocks end, the basis and solution from the one last
    # solve equal the separate solves'.
    monkeypatch.setattr(sarod.snl, "_LU_BLOCK", block)
    rng = np.random.default_rng(r * c)
    A = scipy.sparse.csc_matrix(rng.standard_normal((r, c)) * (rng.random((r, c)) < 0.5) + np.eye(r, c))
    rhs = rng.standard_normal(r)
    got, want = _lu_solved(A, rhs, 1e-9), _three_solve_closure(A, rhs, 1e-9)
    assert got is not None and want is not None
    assert got.null_basis.shape == want.null_basis.shape == (c, c - r)
    assert np.allclose(got.null_basis, want.null_basis, rtol=0.0, atol=1e-12)
    assert np.allclose(got.min_norm_solution, want.min_norm_solution, rtol=0.0, atol=1e-12 * np.max(np.abs(want.min_norm_solution)))
