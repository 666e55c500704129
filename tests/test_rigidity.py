"""Rigidity-layer checks.

The finite-difference Jacobian is the independent oracle for the assembled
matrix; seeded random sweeps cover the rank bound, the trivial null space,
duality under bipartition swap, and reduced-mode rank equality.  The
rank test and the duality check decide the rank with a certified shifted
Cholesky and fall back to one cached singular spectrum per framework;
their ranks are checked against the dense singular values (on a recipe
grid, across scales, and along a deformation that sweeps the smallest
retained singular value through the cut), against fresh instances and for
call order, and their SVD calls are counted.  The
quadrilateral criterion is pinned on the published coordinate examples and
cross-checked against the closed-form 4-cycle shape enumerator.  The
enumerator's shapes are checked against the random multi-start search
(which must find no shape it misses, and finds its second shapes given
enough starts) and under scaling, rigid motion and relabelling; the random
search's batched Levenberg-Marquardt run is checked against the per-start
scipy loop kept here as its reference.  Ranks, quad verdicts and shape
counts must not depend on vertex labels.
"""

import inspect
import itertools

import numpy as np
import pytest
from scipy.optimize import least_squares

import sarod.rigidity
from sarod import (
    Bipartition,
    CollocationError,
    Framework,
    Graph,
    duality_check,
    enumerate_triples,
    equivalent_shape_search,
    fit_similarity,
    infinitesimal_rigidity_test,
    null_space,
    numerical_rank,
    quad_global_rigidity,
    ratio_of_distance,
    rigidity_function,
    signed_angle,
)
from sarod.construction import generate
from sarod.geometry import measurement_map, rotation
from sarod.rigidity import (
    SHAPE_RESIDUAL_TOL,
    _quad_shapes,
    _random_shape_search,
    _scatter,
    _shape_starts,
    assemble_rigidity_matrix,
    trivial_motions,
)

from conftest import random_framework, relabelled

QUAD = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))


def finite_difference_jacobian(fw, sa, rod, step=1e-6):
    p = fw.points
    n = fw.n
    f0 = rigidity_function(p, sa, rod)
    J = np.zeros((len(f0), 2 * n))
    n_sa = len(sa)
    for col in range(2 * n):
        dp = np.zeros(2 * n)
        dp[col] = step
        fp = rigidity_function((p.ravel() + dp).reshape(n, 2), sa, rod)
        fm = rigidity_function((p.ravel() - dp).reshape(n, 2), sa, rod)
        diff = fp - fm
        diff[:n_sa] = np.mod(diff[:n_sa] + np.pi, 2 * np.pi) - np.pi
        J[:, col] = diff / (2 * step)
    return J


def test_jacobian_matches_finite_differences(rng):
    for _ in range(10):
        fw = random_framework(int(rng.integers(4, 9)), rng)
        rm = assemble_rigidity_matrix(fw)
        J = finite_difference_jacobian(fw, rm.sa_triples, rm.rod_triples)
        rel = np.linalg.norm(J - rm.matrix) / np.linalg.norm(rm.matrix)
        assert rel < 1e-6


def test_numerical_rank_basics():
    assert numerical_rank(np.zeros((3, 4)))[0] == 0
    assert numerical_rank(np.eye(5))[0] == 5
    assert numerical_rank(np.zeros((0, 4)))[0] == 0
    from sarod import incidence_matrix

    g = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    assert numerical_rank(incidence_matrix(g))[0] == 4


def test_null_space_annihilates():
    M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    N = null_space(M)
    assert N.shape == (3, 2)
    assert np.allclose(M @ N, 0.0, atol=1e-12)


def test_triangle_rigid_any_bipartition(rng):
    g = Graph(3, ((1, 2), (1, 3), (2, 3)))
    p = rng.uniform(0, 1, (3, 2))
    for a_set in ([1], [2], [1, 2], [2, 3]):
        fw = Framework(g, Bipartition.from_a_set(3, a_set), p)
        rep = infinitesimal_rigidity_test(fw)
        assert rep.rank == 2 == rep.required
        assert rep.rigid


def test_trivial_motions_annihilated(rng):
    for _ in range(15):
        fw = random_framework(int(rng.integers(4, 9)), rng)
        rep = infinitesimal_rigidity_test(fw)
        assert rep.trivial_motion_residual < 1e-10
        T = trivial_motions(fw.points)
        assert T.shape == (2 * fw.n, 4)


def test_rank_bound(rng):
    for _ in range(25):
        fw = random_framework(int(rng.integers(4, 10)), rng)
        rep = infinitesimal_rigidity_test(fw)
        assert rep.rank <= 2 * fw.m - fw.n


def test_duality_rank_equality(rng):
    for _ in range(20):
        fw = random_framework(int(rng.integers(4, 9)), rng)
        assert duality_check(fw).equal


def test_duality_covers_pure_bipartitions(rng):
    # Pure-SA vs pure-RoD on the same graph have equal rank.
    fw = random_framework(6, rng)
    pure_a = Framework(fw.graph, Bipartition(tuple("A" for _ in range(6))), fw.points)
    assert duality_check(pure_a).equal


def test_reduced_mode_has_same_rank(rng):
    for _ in range(15):
        fw = random_framework(int(rng.integers(4, 9)), rng)
        full = numerical_rank(assemble_rigidity_matrix(fw, "full").matrix)[0]
        red = numerical_rank(assemble_rigidity_matrix(fw, "reduced").matrix)[0]
        assert full == red


def _unit_matrix(fw):
    """The rank test's matrix M (reduced rows at unit norm), from a fresh ``_RankTest``."""
    return sarod.rigidity._RankTest(fw).matrix


def _check_cached_rank(fw, rtol):
    M = _unit_matrix(fw).toarray()
    rank = infinitesimal_rigidity_test(fw, rtol).rank
    assert rank == sarod.rigidity._svd_factor(M, rtol)[0]
    assert 2 * fw.n - rank == null_space(M, rtol).shape[1]
    return rank


@pytest.mark.parametrize(
    "recipe, n, seed",
    [
        ("minimal", 270, 1842395555),
        ("minimal", 270, 1919854647),
        ("minimal", 270, 1495899629),
        ("type2D1", 250, 1151303600),
        ("quad2v", 260, 834329843),
        ("quad2v", 260, 922900161),
        ("bilat-D1A1", 180, 0),
        ("mix-D2A1", 130, 0),
        ("bilat-D1A1", 71, 2),
        ("mix-D2A1", 71, 2),
        ("type2D1", 71, 2),
        ("minimal", 70, 2),
    ],
)
def test_rank_and_duality_on_recipe_instances(recipe, n, seed):
    # Rigid by construction.  Unscaled rows put SA entries at 1/len and RoD
    # entries at kappa/len, and the relative rank cut then dropped a
    # direction or split the duality ranks on each of the first six
    # instances (on the sixth only with the reduced rows left unscaled).
    # The certified rank is the full factorization's.
    fw = generate(recipe, n, seed).framework
    assert _check_cached_rank(fw, 1e-8) == 2 * n - 4
    dual = duality_check(fw)
    assert dual.equal and dual.rank == 2 * n - 4


def _dense_rank(fw, rtol):
    return sarod.rigidity._rank(np.linalg.svd(_unit_matrix(fw).toarray(), compute_uv=False), rtol)


@pytest.mark.parametrize("recipe", ["quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal"])
def test_certified_rank_matches_dense_svd(recipe):
    # Every framework of the grid and its swap is certified at the default
    # cut, and at both cuts the rank and the duality ranks are the dense
    # singular values' (a cut the certificate cannot decide falls back).
    for n, seed, scale in itertools.product((12, 70, 140), range(3), (1e-6, 1.0, 1e6)):
        base = generate(recipe, n, seed).framework
        fw = Framework(base.graph, base.bipartition, base.points * scale)
        for rtol in (1e-8, 1e-3):
            ranks = _dense_rank(fw, rtol), _dense_rank(fw.swapped(), rtol)
            for framework, rank in zip((fw, fw.swapped()), ranks):
                rep = infinitesimal_rigidity_test(framework, rtol)
                assert rep.rank == rank, (recipe, n, seed, scale, rtol)
                if rtol == 1e-8:
                    assert rep.factorization == "cholesky" and rep.rigid, (recipe, n, seed, scale)
            dual = duality_check(fw, rtol)
            assert (dual.rank, dual.rank_swapped) == ranks, (recipe, n, seed, scale, rtol)


def test_uncertified_framework_takes_the_dense_fallback():
    # sigma_r / sigma_1 = 1.4e-6 here: too close to rank deficiency for the
    # Cholesky of the normal matrix, so both it and its swap fall back.
    fw = generate("type2D1", 250, 59182745).framework
    rep = infinitesimal_rigidity_test(fw)
    assert (rep.factorization, rep.rank) == ("dense-svd", 496)
    assert rep.sigma_bounds[0] == pytest.approx(1.4e-6, rel=0.05)
    assert duality_check(fw).equal


def test_rank_test_is_sound_along_a_deformation_to_flexibility():
    # Vertex 12 of this framework has degree 2; moving it onto the line
    # through its two neighbours makes the framework flexible, and
    # sigma_r / sigma_1 shrinks in proportion to its distance from the line.
    # Along the sweep the reported rank is always the dense singular values',
    # and nothing is certified with sigma_r / sigma_1 below the cut.
    fw = generate("type2D1", 20, 0).framework
    v = 12
    a, b = [u for e in fw.graph.edges if v in e for u in e if u != v]
    p = np.array(fw.points)
    axis = (p[b - 1] - p[a - 1]) / np.linalg.norm(p[b - 1] - p[a - 1])
    foot = p[a - 1] + ((p[v - 1] - p[a - 1]) @ axis) * axis
    ratios, paths = [], set()
    for t in np.logspace(-1.6, -10.0, 30):
        q = p.copy()
        q[v - 1] = foot + t * (p[v - 1] - foot)
        moved = Framework(fw.graph, fw.bipartition, q)
        s = np.linalg.svd(_unit_matrix(moved).toarray(), compute_uv=False)
        ratios.append(s[2 * fw.n - 5] / s[0])
        for rtol in (1e-6, 1e-8, 1e-10):
            rep = infinitesimal_rigidity_test(moved, rtol)
            assert rep.rank == sarod.rigidity._rank(s, rtol), (t, rtol)
            assert rep.factorization == "dense-svd" or ratios[-1] > 2.0 * rtol, (t, rtol)
            lower, upper = rep.sigma_bounds  # bounds on sigma_rank / sigma_1 and sigma_(rank+1) / sigma_1
            assert lower <= s[rep.rank - 1] / s[0] * (1 + 1e-9) and upper >= s[rep.rank] / s[0] * (1 - 1e-9), (t, rtol)
            paths.add((rep.factorization, rep.rigid))
    assert max(ratios) > 1e-3 and min(ratios) < 1e-11
    assert paths == {("cholesky", True), ("dense-svd", True), ("dense-svd", False)}


def test_swapped_bipartition_has_the_same_spectrum(rng):
    # With unit rows the swapped matrix is an orthogonal transform of the
    # original up to row signs, so the rank test sees one spectrum.
    for _ in range(15):
        fw = random_framework(int(rng.integers(4, 11)), rng)
        s = numerical_rank(_unit_matrix(fw).toarray())[1]
        s_swapped = numerical_rank(_unit_matrix(fw.swapped()).toarray())[1]
        assert np.max(np.abs(s - s_swapped)) <= 1e-10 * s[0]


def _fresh(fw):
    """The same framework as a new instance, with nothing cached on it."""
    return Framework(fw.graph, fw.bipartition, fw.points)


def test_rank_test_and_duality_factor_two_sigma_only_spectra(monkeypatch):
    # A certified instance factors no SVD at all.  A flexible one takes the
    # fallback: the rank test factors the framework's matrix and the duality
    # check only the swapped one; neither computes singular vectors, and
    # another rank cut on the same instance reuses the cached spectrum.
    svd, calls = np.linalg.svd, []

    def counting_svd(*args, **kwargs):
        calls.append(inspect.signature(svd).bind(*args, **kwargs).arguments.get("compute_uv", True))
        return svd(*args, **kwargs)

    rigid = generate("quad2v", 40, 3).framework
    flexible = Framework(QUAD, Bipartition(("D",) * 4), np.array([[0.0, 0.0], [1.0, 0.1], [1.2, 1.0], [0.0, 1.1]]))
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rep = infinitesimal_rigidity_test(rigid)
    assert rep.rigid and rep.factorization == "cholesky"
    assert duality_check(rigid).equal
    assert calls == []
    rep = infinitesimal_rigidity_test(flexible)
    assert not rep.rigid and rep.factorization == "dense-svd"
    duality_check(flexible)
    assert calls == [False, False]
    infinitesimal_rigidity_test(flexible, 1e-3)
    duality_check(flexible, 1e-3)
    assert calls == [False, False, False]  # only the new swapped framework is factored


RECIPES = ("quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal")


@pytest.mark.parametrize("recipe", RECIPES)
def test_transferred_swapped_rank_is_the_swapped_frameworks_own(recipe):
    # The swapped rank proved from the framework's certificate and the
    # measured defect is the rank the swapped framework's own certificate or
    # spectrum gives, at every scale; the defect is at the rounding level.
    for n, scale in itertools.product((12, 70, 270), (1e-6, 1.0, 1e6)):
        base = generate(recipe, n, 0).framework
        fw = Framework(base.graph, base.bipartition, base.points * scale)
        dual = duality_check(fw)
        own = infinitesimal_rigidity_test(fw.swapped())
        assert (dual.swapped_factorization, own.factorization) == ("transfer", "cholesky"), (recipe, n, scale)
        assert dual.rank_swapped == own.rank == dual.rank == 2 * n - 4, (recipe, n, scale)
        assert 0.0 <= dual.defect < 1e-15, (recipe, n, scale, dual.defect)


def test_defect_too_large_refuses_the_transfer(monkeypatch):
    # Turning one row of the swapped matrix within its triple's SA/RoD plane
    # (so the trivial motions stay in its null space), by 1e-6 ||M_s||_F,
    # makes the defect eat the certificate's margin: the swapped framework
    # takes its own Cholesky, and the verdict is the unperturbed one.
    fw = generate("quad2v", 70, 0).framework
    clean = duality_check(fw)
    swapped_attrs = fw.swapped().bipartition
    build = sarod.rigidity._sparse_rigidity_matrix

    def perturbed(framework, mode):
        matrix, sa, rod = build(framework, mode)
        if framework.bipartition == swapped_attrs and mode == "reduced":
            row = matrix.data[60:66].reshape(3, 2)  # rows are scaled to unit norm after this
            row += 1e-6 * np.sqrt(matrix.shape[0]) * row[:, ::-1] * [-1.0, 1.0]  # + t R(pi/2) row, per vertex
        return matrix, sa, rod

    monkeypatch.setattr(sarod.rigidity, "_sparse_rigidity_matrix", perturbed)
    dual = duality_check(_fresh(fw))
    assert clean.swapped_factorization == "transfer" and dual.swapped_factorization == "cholesky"
    assert clean.defect < 1e-15 and dual.defect == pytest.approx(1e-6, rel=1e-6)
    assert (dual.rank, dual.rank_swapped) == (clean.rank, clean.rank_swapped) == (136, 136)


def test_duality_after_the_rank_test_factors_nothing(monkeypatch):
    # The swapped rank of a certified framework comes from the rank test's
    # cached certificate: no Cholesky after it, one when the duality check
    # runs first.  A framework that does not certify leaves its swap to its
    # own spectrum.
    potrf, calls = sarod.rigidity.lapack.dpotrf, []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return potrf(*args, **kwargs)

    monkeypatch.setattr(sarod.rigidity.lapack, "dpotrf", counting)
    for recipe in RECIPES:
        fw = generate(recipe, 70, 1).framework
        assert infinitesimal_rigidity_test(fw).factorization == "cholesky"
        calls.clear()
        assert duality_check(fw).swapped_factorization == "transfer"
        assert calls == [], recipe
        assert duality_check(_fresh(fw)).equal and len(calls) == 1, recipe
    uncertified = duality_check(generate("type2D1", 250, 59182745).framework)
    assert uncertified.equal and uncertified.swapped_factorization == "dense-svd"


def test_duality_reuses_the_frameworks_trivial_motion_basis(monkeypatch):
    # The swap shares the framework's checked, read-only points, so it is
    # not validated again, and its rank test borrows the framework's QR
    # basis of the trivial motions: no trivial motion is formed after the
    # rank test.  The swapped matrix and its trivial bound are still
    # measured, bit for bit what a rank test of its own gives.
    import sarod.geometry

    for recipe in RECIPES:
        fw = generate(recipe, 70, 2).framework
        infinitesimal_rigidity_test(fw)
        with monkeypatch.context() as m:
            calls = []
            m.setattr(sarod.geometry, "check_distinct", lambda p: calls.append("check_distinct"))
            m.setattr(sarod.rigidity, "trivial_motions", lambda p: calls.append("trivial_motions"))
            swapped = fw.swapped()
            dual = duality_check(fw)
        assert calls == [] and dual.swapped_factorization == "transfer", recipe
        assert swapped.graph is fw.graph and swapped.points is fw.points and swapped.bipartition == fw.bipartition.swapped()
        own, lent = sarod.rigidity._RankTest(_fresh(swapped)), sarod.rigidity._RankTest(swapped, sarod.rigidity._rank_test(fw))
        assert np.array_equal(own.basis, lent.basis) and (own.basis_fro2, own.drift) == (lent.basis_fro2, lent.drift), recipe
        assert (own.fro, own.trivial, own.residual) == (lent.fro, lent.trivial, lent.residual), recipe


def test_cached_spectrum_rank_matches_full_factorization(rng):
    flexible = 0
    for _ in range(20):
        fw = random_framework(int(rng.integers(4, 11)), rng)
        for rtol in (1e-8, 1e-3):
            rank = _check_cached_rank(fw, rtol)
        flexible += rank < 2 * fw.n - 4
    assert flexible > 0


def test_duality_ranks_do_not_depend_on_call_order(rng):
    for _ in range(15):
        fw = random_framework(int(rng.integers(4, 11)), rng)
        first = duality_check(fw)
        rep = infinitesimal_rigidity_test(fw)
        other = _fresh(fw)
        rep_fresh = infinitesimal_rigidity_test(other)
        after = duality_check(other)
        assert (first.rank, first.rank_swapped) == (after.rank, after.rank_swapped)
        assert rep.rank == rep_fresh.rank == first.rank
        assert rep == rep_fresh


def test_rank_cuts_on_one_instance_match_fresh_instances():
    fw = generate("mix-D2A1", 31, 4).framework
    s = numerical_rank(_unit_matrix(fw).toarray())[1]
    k = len(s) // 2
    loose = float(np.sqrt(s[k] * s[k + 1]) / s[0])  # cuts the spectrum after index k
    for rtol in (1e-8, loose, 1e-8):
        shared, fresh = infinitesimal_rigidity_test(fw, rtol), infinitesimal_rigidity_test(_fresh(fw), rtol)
        assert shared == fresh
        assert duality_check(fw, rtol) == duality_check(_fresh(fw), rtol)
    assert infinitesimal_rigidity_test(fw, loose).rank == k + 1
    assert infinitesimal_rigidity_test(fw, loose).factorization == "dense-svd"
    with pytest.raises(ValueError):  # the cached spectrum is read-only
        sarod.rigidity._rank_test(fw).spectrum()[0] = 0.0


def test_ranks_invariant_under_vertex_relabelling():
    for recipe in ("quad2v", "bilat-D1A1", "mix-D2A1", "type2D1", "minimal"):
        for seed in range(3):
            fw = generate(recipe, 30, seed).framework
            other = relabelled(fw, np.random.default_rng(seed).permutation(fw.n))
            assert infinitesimal_rigidity_test(other).rank == infinitesimal_rigidity_test(fw).rank, (recipe, seed)
            dual, dual_other = duality_check(fw), duality_check(other)
            assert (dual_other.rank, dual_other.rank_swapped) == (dual.rank, dual.rank_swapped), (recipe, seed)


def test_rigid_frameworks_satisfy_edge_lower_bound(rng):
    seen = 0
    for _ in range(40):
        fw = random_framework(int(rng.integers(4, 9)), rng)
        rep = infinitesimal_rigidity_test(fw)
        if rep.rigid:
            seen += 1
            assert fw.m >= -(-(3 * fw.n - 4) // 2)
    assert seen > 0


def test_quad_rigidity_needs_nontrivial_bipartition():
    fw = Framework(QUAD, Bipartition(("D",) * 4), np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
    with pytest.raises(ValueError, match="nontrivial"):
        quad_global_rigidity(fw)


def test_quad_checker_rejects_wrong_topology():
    g = Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3)))
    fw = Framework(g, Bipartition.from_a_set(4, [1]), np.random.default_rng(0).uniform(0, 1, (4, 2)))
    with pytest.raises(ValueError, match="4-cycle"):
        quad_global_rigidity(fw)


def test_quad_adjacent_pair_reference_instance():
    # Adjacent A-pair with margin d12 + 2 d34 cos(t34 - t12) = 4 - 2 = 2 > 0:
    # two incongruent shapes exist, the second similar to the documented one.
    p = np.array([[0.0, 0], [4, 0], [3, 1], [2, 1]])
    fw = Framework(QUAD, Bipartition.from_a_set(4, [1, 2]), p)
    verdict = quad_global_rigidity(fw)
    assert verdict.case == 3
    assert not verdict.rigid and not verdict.boundary
    assert verdict.details["adjacent_margin_raw"] == pytest.approx(2.0, abs=1e-12)
    shapes = equivalent_shape_search(fw, trials=40, seed=0)
    assert len(shapes) >= 2
    alt = np.array([[0.0, 0], [2, 0], [1, 1], [2, 1]])
    assert any(fit_similarity(alt, s, tol=1e-6)[2] for s in shapes)


def test_quad_opposite_pair_reference_instance():
    s3 = np.sqrt(3.0)
    p = np.array([[1.0, s3], [0, 0], [4, 0], [2, s3]])
    fw = Framework(QUAD, Bipartition.from_a_set(4, [1, 3]), p)
    verdict = quad_global_rigidity(fw)
    assert verdict.case == 4
    assert not verdict.rigid
    # (d23 - d12)(d34 - d14) = (4 - 2)(sqrt(7) - 1) and the discriminant is 9.
    assert verdict.details["sign_product_raw"] == pytest.approx(2 * (np.sqrt(7) - 1), rel=1e-12)
    assert verdict.details["discriminant_raw"] == pytest.approx(9.0, rel=1e-9)


def test_quad_three_a_cases(rng):
    p = np.array([[0.0, 0], [1, 0.15], [1.2, 1.1], [0.1, 1.2]])
    fw = Framework(QUAD, Bipartition.from_a_set(4, [1, 2, 3]), p)
    verdict = quad_global_rigidity(fw)
    assert verdict.case == 1 and verdict.rigid
    assert len(equivalent_shape_search(fw, trials=50, seed=3)) == 1
    collinear = np.array([[0.0, 0], [1, 0], [2, 0], [0.5, 1.0]])
    fw2 = Framework(QUAD, Bipartition.from_a_set(4, [1, 2, 3]), collinear)
    v2 = quad_global_rigidity(fw2)
    assert not v2.rigid and v2.boundary


def test_quad_single_a_kite_and_collinear():
    # Kite: vertex 3 mirrors vertex 1 across the line through 2 and 4.
    p2, p4 = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    p1 = np.array([0.6, 0.9])
    p3 = np.array([0.6, -0.9])
    fw = Framework(QUAD, Bipartition.from_a_set(4, [1]), np.vstack([p1, p2, p3, p4]))
    v = quad_global_rigidity(fw)
    assert v.case == 2 and v.rigid and v.boundary  # equality-type condition
    assert len(equivalent_shape_search(fw, trials=50, seed=4)) == 1
    # Collinear D-vertices also give rigidity.
    p = np.array([[0.5, 1.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    fw2 = Framework(QUAD, Bipartition.from_a_set(4, [1]), p)
    assert quad_global_rigidity(fw2).rigid
    # A generic single-A quadrilateral is not rigid.
    fw3 = Framework(QUAD, Bipartition.from_a_set(4, [1]), np.array([[0.0, 0], [1, 0.1], [1.5, 1], [0.2, 1.2]]))
    v3 = quad_global_rigidity(fw3)
    assert not v3.rigid
    assert len(equivalent_shape_search(fw3, trials=50, seed=5)) >= 2


def test_quad_verdict_invariant_under_cyclic_relabelling():
    rng = np.random.default_rng(9)
    references = [
        Framework(QUAD, Bipartition.from_a_set(4, [1, 2]), np.array([[0.0, 0], [4, 0], [3, 1], [2, 1]])),
        Framework(QUAD, Bipartition.from_a_set(4, [1, 3]), np.array([[1.0, np.sqrt(3.0)], [0, 0], [4, 0], [2, np.sqrt(3.0)]])),
    ]
    for fw in references + [fw for fw, _ in _off_boundary_quads(rng, 10)]:
        verdict = quad_global_rigidity(fw)
        for shift in range(1, 4):
            rotated = quad_global_rigidity(relabelled(fw, (np.arange(4) + shift) % 4))
            assert (rotated.rigid, rotated.case) == (verdict.rigid, verdict.case), (fw.points.tolist(), shift)


def test_degenerate_collinear_quadrilateral_is_flexible():
    # All four vertices on a line: globally rigid by the case-2 criterion but
    # not infinitesimally rigid.
    p = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    fw = Framework(QUAD, Bipartition.from_a_set(4, [1]), p)
    rep = infinitesimal_rigidity_test(fw)
    assert not rep.rigid


def test_pure_rod_quadrilateral_flexible(rng):
    fw = Framework(QUAD, Bipartition(("D",) * 4), rng.uniform(0, 1, (4, 2)))
    assert not infinitesimal_rigidity_test(fw).rigid


def test_mixed_quadrilateral_rigid(rng):
    fw = Framework(QUAD, Bipartition.from_a_set(4, [1, 2, 3]), rng.uniform(0, 1, (4, 2)))
    assert infinitesimal_rigidity_test(fw).rigid


def test_laman_reflection_instance():
    # Rigid but not globally rigid: vertex 5 (and the pair {4, 5}) admit
    # reflections preserving every measurement.
    g = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (1, 5), (4, 5)])
    p = np.array([[0.0, 0.0], [1.1, 0.2], [0.6, 0.9], [-0.3, 1.2], [0.9, 1.5]])
    fw = Framework(g, Bipartition.from_a_set(5, [2]), p)
    assert infinitesimal_rigidity_test(fw).rigid
    shapes = equivalent_shape_search(fw, trials=50, seed=2)
    assert len(shapes) >= 2


def test_oracle_guard():
    fw = random_framework(9, np.random.default_rng(0))
    with pytest.raises(ValueError, match="desk-scale"):
        equivalent_shape_search(fw)


# --- the batched shape oracle against the per-start scipy loop --------------


def reference_starts(fw, trials, seed):
    """The oracle's starts as the per-start loop drew them, one at a time."""
    p = np.asarray(fw.points, dtype=float)
    scale = float(np.linalg.norm(p[1] - p[0]))
    rng = np.random.default_rng(seed)
    lo = p.min(axis=0) - 0.5 * scale
    hi = p.max(axis=0) + 0.5 * scale
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
    starts = []
    for start in range(trials):
        if start == 0:
            x0 = p[2:].ravel()
        elif start <= len(flip_starts):
            x0 = flip_starts[start - 1]
        elif start % 2:
            x0 = rng.uniform(lo, hi, size=(fw.n - 2, 2)).ravel()
        else:
            r = scale * 10.0 ** rng.uniform(-1.2, 1.2, size=fw.n - 2)
            phi = rng.uniform(0.0, 2.0 * np.pi, size=fw.n - 2)
            x0 = (p[0] + np.column_stack([r * np.cos(phi), r * np.sin(phi)])).ravel()
        starts.append(x0)
    return starts


def reference_shape_search(fw, trials=50, seed=0, residual_tol=1e-10, cluster_tol=1e-6):
    """The oracle as one scipy ``least_squares(method="lm")`` call per start, in start order."""
    sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
    target = rigidity_function(fw.points, sa, rod)
    n_sa = len(sa)
    p = np.asarray(fw.points, dtype=float)
    scale = float(np.linalg.norm(p[1] - p[0]))

    def unpack(x):
        return np.vstack([p[:2], x.reshape(-1, 2)])

    def residual(x):
        r = rigidity_function(unpack(x), sa, rod) - target
        r[:n_sa] = np.mod(r[:n_sa] + np.pi, 2.0 * np.pi) - np.pi
        return r

    shapes = []
    for x0 in reference_starts(fw, trials, seed):
        try:
            sol = least_squares(residual, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        except (CollocationError, ValueError):  # an iterate or the start itself collocates two vertices
            continue
        if not np.all(np.isfinite(sol.x)):
            continue
        q = unpack(sol.x)
        if np.max(np.abs(residual(sol.x))) > residual_tol:
            continue
        if np.min([np.linalg.norm(q[i] - q[j]) for i, j in itertools.combinations(range(fw.n), 2)]) < 1e-9 * scale:
            continue
        if not any(np.max(np.linalg.norm(q - rep, axis=1)) < cluster_tol * scale or fit_similarity(rep, q, tol=cluster_tol * scale)[2] for rep in shapes):
            shapes.append(q)
    return shapes


def _off_boundary_quads(rng, count):
    """``count`` random 4-cycles per A-set class, away from the criterion's threshold."""
    for a_set in ([1, 2, 3], [1], [1, 2], [1, 3]):
        done = 0
        while done < count:
            fw = Framework(QUAD, Bipartition.from_a_set(4, a_set), rng.uniform(0.0, 1.0, (4, 2)))
            if np.min(np.linalg.norm(fw.points[:, None] - fw.points[None], axis=2) + np.eye(4)) <= 0.05:
                continue
            verdict = quad_global_rigidity(fw)
            if verdict.margin > 1e-6 and not verdict.boundary:
                done += 1
                yield fw, verdict


def test_shape_starts_match_reference(rng):
    frameworks = [fw for fw, _ in _off_boundary_quads(rng, 1)] + [random_framework(n, rng) for n in (5, 7)]
    for fw in frameworks:
        for seed in range(3):
            for trials in (3, 50):  # fewer starts than flips, and random draws after them
                starts = _shape_starts(np.asarray(fw.points), trials, np.random.default_rng(seed))
                assert np.array_equal(starts, np.array(reference_starts(fw, trials, seed)))


def test_batched_jacobian_is_the_rigidity_matrix(rng):
    # The oracle's batched values and Jacobian against the per-triple
    # measurements and finite differences, for every configuration of a batch.
    for _ in range(8):
        fw = random_framework(int(rng.integers(4, 9)), rng)
        sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
        t = np.concatenate([sa.vertex_index, rod.vertex_index])
        q = rng.uniform(-1.0, 1.0, (5, fw.n, 2))
        vals, grads = measurement_map(q, t, len(sa), gradients=True)
        jac = _scatter(grads, t, fw.n)
        for s in range(len(q)):
            angles = [signed_angle(q[s], tri) for tri in sa.triples]
            ratios = [ratio_of_distance(q[s], tri) for tri in rod.triples]
            assert np.max(np.abs(np.mod(vals[s, : len(sa)] - angles + np.pi, 2 * np.pi) - np.pi), initial=0.0) <= 1e-14
            assert np.allclose(vals[s, len(sa) :], ratios, rtol=1e-14, atol=0.0)
            J = finite_difference_jacobian(Framework(fw.graph, fw.bipartition, q[s]), sa, rod)
            assert np.linalg.norm(jac[s] - J) <= 1e-6 * np.linalg.norm(J)


def test_shape_count_matches_reference(monkeypatch):
    def no_scipy_call(*args, **kwargs):
        raise AssertionError("the oracle must not call least_squares")

    monkeypatch.setattr(sarod.rigidity, "least_squares", no_scipy_call)
    for k, (fw, verdict) in enumerate(_off_boundary_quads(np.random.default_rng(11), 5)):
        shapes = _random_shape_search(fw, 50, k, SHAPE_RESIDUAL_TOL)
        assert len(shapes) == len(reference_shape_search(fw, trials=50, seed=k)), fw.points.tolist()
        assert (len(shapes) == 1) == verdict.rigid


def test_verdict_matches_reference_on_larger_frameworks():
    # Flexible frameworks have a continuum of shapes, so only the verdict is compared.
    rng = np.random.default_rng(26)
    for n, p in itertools.product((5, 6, 7), (0.5, 0.9)):
        fw = random_framework(n, rng, p)
        shapes = equivalent_shape_search(fw, trials=50, seed=n)
        assert (len(shapes) == 1) == (len(reference_shape_search(fw, trials=50, seed=n)) == 1), (n, p)


def test_oracle_runs_with_fewer_measurements_than_unknowns():
    # A 5-cycle has 5 triples for 6 free coordinates.  scipy's lm refuses such
    # systems, so the per-start loop found no shape at all, not even the input.
    g = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    fw = Framework(g, Bipartition.from_a_set(5, [1, 3]), np.random.default_rng(3).uniform(0.0, 1.0, (5, 2)))
    assert reference_shape_search(fw, trials=5) == []
    shapes = equivalent_shape_search(fw, trials=5)
    assert len(shapes) >= 2 and np.allclose(shapes[0], fw.points, rtol=0.0, atol=1e-12)


# --- the closed-form 4-cycle enumerator -------------------------------------

# Two off-boundary 4-cycles whose second shape lies in a basin so small that
# the 50-start random search missed it, printed at full precision.
MISSED_BY_50_STARTS = [
    ([1, 2], [[0.3505505609450925, 0.14691591052276787], [0.8390074550522748, 0.586570766303683],
              [0.42610756504183167, 0.18239371424499062], [0.9928123148716845, 0.27255313654024704]]),
    ([1, 3], [[0.2814941743488798, 0.43894289403018405], [0.8445414470087453, 0.14436636300253658],
              [0.745858571045921, 0.8044589059129466], [0.43503460669109484, 0.5012386191738057]]),
]


def _same_shapes(found, reference, scale):
    """Every configuration of ``found`` is similar to one of ``reference``, at 1e-6 of ``scale``."""
    return all(any(fit_similarity(r, q, tol=1e-6 * scale)[2] for r in reference) for q in found)


@pytest.mark.parametrize("a_set, points", MISSED_BY_50_STARTS, ids=["adjacent-pair", "opposite-pair"])
def test_enumerator_finds_the_shapes_fifty_starts_missed(a_set, points):
    fw = Framework(QUAD, Bipartition.from_a_set(4, a_set), np.array(points))
    assert not quad_global_rigidity(fw).rigid
    shapes = _quad_shapes(fw)
    assert len(shapes) == 2 and np.array_equal(shapes[0], fw.points)
    assert len(equivalent_shape_search(fw)) == 2
    searched = _random_shape_search(fw, 500, 0, SHAPE_RESIDUAL_TOL)
    assert len(searched) == 2 and _same_shapes(searched, shapes, 1.0) and _same_shapes(shapes, searched, 1.0)


def test_enumerated_shapes_invariant_under_similarity_and_relabelling():
    rng = np.random.default_rng(15)
    frameworks = [fw for fw, _ in _off_boundary_quads(rng, 5)]
    frameworks += [Framework(QUAD, Bipartition.from_a_set(4, a), np.array(p)) for a, p in MISSED_BY_50_STARTS]
    for fw in frameworks:
        shapes = _quad_shapes(fw)
        p = fw.points
        moved = [p * 1e-6, p * 1e6, p @ rotation(2.0).T, p + [3.0, -7.0]]
        for q in moved:
            found = _quad_shapes(Framework(QUAD, fw.bipartition, q))
            scale = float(np.linalg.norm(q[1] - q[0]))
            assert len(found) == len(shapes) and fit_similarity(shapes[0], found[0], tol=1e-9 * scale)[2]
            assert _same_shapes(found, shapes, scale), (p.tolist(), q.tolist())
        for shift in range(1, 4):
            perm = (np.arange(4) + shift) % 4
            found = [q[perm] for q in _quad_shapes(relabelled(fw, perm))]  # back in the old labels
            assert len(found) == len(shapes) and np.array_equal(found[0], p)
            assert _same_shapes(found, shapes, 1.0), (p.tolist(), shift)


def test_enumerated_shapes_include_every_searched_shape():
    # 200 random starts per quad, against the closed form, 40 quads per A-set class.
    for k, (fw, verdict) in enumerate(_off_boundary_quads(np.random.default_rng(16), 40)):
        shapes = _quad_shapes(fw)
        assert (len(shapes) == 1) == verdict.rigid
        searched = _random_shape_search(fw, 200, k, SHAPE_RESIDUAL_TOL)
        assert _same_shapes(searched, shapes, 1.0), fw.points.tolist()


@pytest.mark.parametrize("a_set, points", [
    ([1, 2, 3], [[0.0, 0], [1, 0], [2, 0], [0.5, 1.0]]),  # A-vertices on a line: a singular linear system
    ([1, 3], [[0.6, 0.9], [0, 0], [0.6, -0.9], [2, 0]]),  # a kite about the D-diagonal: the quadratic vanishes
], ids=["collinear-a-vertices", "opposite-pair-kite"])
def test_degenerate_quad_takes_the_random_search(a_set, points):
    # Both 4-cycles have a continuum of shapes, which only the random search samples.
    fw = Framework(QUAD, Bipartition.from_a_set(4, a_set), np.array(points))
    assert _quad_shapes(fw) is None
    shapes = equivalent_shape_search(fw, trials=20, seed=1)
    assert len(shapes) == len(_random_shape_search(fw, 20, 1, SHAPE_RESIDUAL_TOL)) >= 2
