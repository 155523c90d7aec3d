import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polygrain as pg
from conftest import random_labels_map, random_theta
from reference import accuracy_and_error, cost_matrix, energy_zero, hessian_block, soft_assign
from polygrain.objective import evaluate_objective

# ``pg.objective`` is the function of that name; the module holds the thread path.
objective_module = sys.modules["polygrain.objective"]


def small_problem(rng, degree=2, n_grains=4, m=5, kind=pg.LEGENDRE):
    gm = random_labels_map(rng, m, n_grains)
    basis = pg.DesignBasis.make(kind, degree)
    design = pg.assemble_design_matrix(basis, gm.grid)
    return gm, basis, design


def assert_distributions(p, tol=1e-12):
    """Columns are probability vectors: entries strictly in (0, 1), sums within tol of 1."""
    assert np.all(p > 0.0) and np.all(p < 1.0)
    assert np.abs(p.sum(axis=0) - 1.0).max() <= tol


class TestSoftAssign:
    def test_zero_theta_is_uniform(self, rng):
        gm, basis, design = small_problem(rng, n_grains=5)
        theta = pg.ParamMatrix(np.zeros((basis.dimension, 5)), basis)
        p = soft_assign(theta, design, 0.3)
        assert np.all(p == 0.2)
        assert_distributions(p)

    def test_log_three_gap_gives_three_to_one_odds(self):
        # Two grains, one unstructured point at the origin; the constant
        # coefficient sets the cost gap to eps*log(3).
        grid = pg.PixelGrid(points=np.array([[0.0, 0.0]]))
        basis = pg.DesignBasis.make(pg.MONOMIAL, 1)
        design = pg.assemble_design_matrix(basis, grid)
        eps = 0.25
        values = np.zeros((3, 2))
        values[basis.index_set.position((0, 0)), 1] = math.log(3.0) * eps
        theta = pg.ParamMatrix(values, basis)
        p = soft_assign(theta, design, eps)
        assert p[0, 0] == pytest.approx(0.75, abs=1e-15)
        assert p[1, 0] == pytest.approx(0.25, abs=1e-15)

    def test_matches_theta_over_eps_at_unit_temperature(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4)
        eps = 0.01
        a = soft_assign(theta, design, eps)
        b = soft_assign(theta.with_values(theta.values / eps), design, 1.0)
        assert np.allclose(a, b, rtol=1e-12, atol=0)

    def test_columns_are_distributions(self, rng):
        gm, basis, design = small_problem(rng)
        assert_distributions(soft_assign(random_theta(rng, 2, 4, scale=3.0), design, 0.5))

    def test_no_overflow_for_extreme_parameters(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4, scale=1e8)
        with np.errstate(over="raise"):
            p = soft_assign(theta, design, 1e-2)
        assert np.all(np.isfinite(p))

    def test_rejects_nonpositive_eps(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4)
        with pytest.raises(ValueError):
            soft_assign(theta, design, 0.0)

    def test_package_gradient_is_the_soft_residual(self, rng):
        # the gradient block i is -(1/(eps*n)) sum_x (1[i == g(x)] - p_i(x)) eta(x)
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4, scale=2.0)
        eps = 0.2
        residual = -soft_assign(theta, design, eps)
        residual[gm.labels - 1, np.arange(len(gm))] += 1.0
        want = -(design.values @ residual.T) / (eps * len(gm))
        got = pg.gradient(theta, design, gm, eps)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestObjective:
    def test_zero_theta_gives_minus_log_n(self, rng):
        gm = random_labels_map(rng, 6, 50)
        basis = pg.DesignBasis.make(pg.LEGENDRE, 1)
        design = pg.assemble_design_matrix(basis, gm.grid)
        theta = pg.ParamMatrix(np.zeros((3, 50)), basis)
        phi = pg.objective(theta, design, gm, 1e-2)
        assert phi == pytest.approx(-math.log(50.0), abs=1e-12)
        assert phi == pytest.approx(-3.9120, abs=5e-5)

    def test_every_entry_point_rejects_bad_inputs(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4)
        vals = theta.values.copy()
        vals[0, 0] = np.nan
        calls = [lambda th, g, e: pg.objective(th, design, g, e),
                 lambda th, g, e: pg.gradient(th, design, g, e),
                 lambda th, g, e: -e * pg.objective(th, design, g, e),
                 lambda th, g, e: pg.bound_report(th, g, design, e)]
        bad = [(theta, gm, 0.0), (theta, gm, -1.0),
               (random_theta(rng, 2, 4, kind=pg.MONOMIAL), gm, 0.1),
               (theta.with_values(vals), gm, 0.1),
               (theta, random_labels_map(rng, 6, 4), 0.1)]
        for call in calls:
            for th, g, e in bad:
                with pytest.raises(ValueError):
                    call(th, g, e)

    def test_scaling_separable_theta_drives_phi_to_zero(self, rng):
        # a diagram-generated map is perfectly reconstructed by its own theta
        pd = pg.PhysicalPD(seeds=rng.uniform(-1, 1, (3, 2)), weights=np.zeros(3))
        gm = pg.generate_pd(pd, pg.make_grid(4))
        theta = pg.pd_to_theta(pd)
        design = pg.assemble_design_matrix(theta.basis, gm.grid)
        phis = [pg.objective(theta.with_values(t * theta.values), design, gm, 0.5)
                for t in (1.0, 4.0, 16.0, 64.0)]
        assert all(b > a for a, b in zip(phis, phis[1:]))
        assert all(p < 0 for p in phis)

    def test_never_exceeds_misassignment_bound(self, rng):
        gm, basis, design = small_problem(rng)
        for _ in range(20):
            theta = random_theta(rng, 2, 4, scale=rng.uniform(0.1, 4.0))
            phi = pg.objective(theta, design, gm, 0.3)
            labels = pg.argmin_labels(cost_matrix(theta, design))
            _, err = accuracy_and_error(gm, labels)
            assert phi <= -math.log(2.0) * err + 1e-12


class TestGradient:
    def test_single_pixel_uniform_gradient(self):
        grid = pg.PixelGrid(points=np.array([[0.0, 0.0]]))
        basis = pg.DesignBasis.make(pg.MONOMIAL, 1)
        design = pg.assemble_design_matrix(basis, grid)
        gm = pg.GrainMap(grid=grid, labels=np.array([1]), n_grains=2)
        theta = pg.ParamMatrix(np.zeros((3, 2)), basis)
        grad = pg.gradient(theta, design, gm, 1.0)
        pos = basis.index_set.position((0, 0))
        expected = np.zeros((3, 2))
        expected[pos, 0] = -0.5
        expected[pos, 1] = 0.5
        # eta(0,0) = (1, 0, 0): only the constant coefficient moves
        assert np.array_equal(grad, expected)

    def test_columns_sum_to_zero_without_gauge(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4)
        grad = pg.gradient(theta, design, gm, 0.5)
        assert np.abs(grad.sum(axis=1)).max() <= 1e-14

    def test_gauge_projection_zeroes_last_column(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4, gauge=pg.GAUGE_LAST_ZERO)
        grad = pg.gradient(theta, design, gm, 0.5)
        assert np.all(grad[:, -1] == 0.0)

    def test_matches_finite_differences(self, rng):
        gm = random_labels_map(rng, 5, 4)
        basis = pg.DesignBasis.make(pg.LEGENDRE, 2)
        design = pg.assemble_design_matrix(basis, gm.grid)
        theta = random_theta(rng, 2, 4)
        eps, h = 0.5, 1e-6
        grad = pg.gradient(theta, design, gm, eps)
        for r in range(basis.dimension):
            for c in range(4):
                vp = theta.values.copy()
                vp[r, c] += h
                vm = theta.values.copy()
                vm[r, c] -= h
                fd = (pg.objective(theta.with_values(vp), design, gm, eps)
                      - pg.objective(theta.with_values(vm), design, gm, eps)) / (2 * h)
                if abs(grad[r, c]) < 1e-8:
                    assert abs(grad[r, c] - fd) <= 1e-6
                else:
                    assert abs(grad[r, c] - fd) / abs(grad[r, c]) <= 1e-6


class TestHessian:
    def test_uniform_point_block_formula(self, rng):
        gm, basis, design = small_problem(rng, n_grains=4)
        n_grains, eps = 4, 0.7
        theta = pg.ParamMatrix(np.zeros((basis.dimension, n_grains)), basis)
        block = hessian_block(theta, design, gm, eps, 2, 2)
        outer = design.values @ design.values.T
        expected = -(1.0 / n_grains) * (1 - 1.0 / n_grains) * outer / (eps * eps * len(gm))
        assert np.allclose(block, expected, atol=1e-14)

    def test_quadratic_form_nonpositive(self, rng):
        gm, basis, design = small_problem(rng, degree=1, n_grains=3, m=4)
        theta = random_theta(rng, 1, 3)
        blocks = [[hessian_block(theta, design, gm, 0.4, i, k)
                   for k in range(1, 4)] for i in range(1, 4)]
        for _ in range(100):
            v = rng.normal(size=(3, basis.dimension))
            q = sum(v[i] @ blocks[i][k] @ v[k] for i in range(3) for k in range(3))
            assert q <= 1e-10

    def test_gauge_direction_is_null(self, rng):
        gm, basis, design = small_problem(rng, degree=1, n_grains=3, m=4)
        theta = random_theta(rng, 1, 3)
        blocks = [[hessian_block(theta, design, gm, 0.4, i, k)
                   for k in range(1, 4)] for i in range(1, 4)]
        c = rng.normal(size=basis.dimension)
        q = sum(c @ blocks[i][k] @ c for i in range(3) for k in range(3))
        assert abs(q) <= 1e-12

    def test_gauge_restricted_hessian_strictly_negative(self, rng):
        # with a spanning design, only common shifts are null directions
        gm, basis, design = small_problem(rng, degree=1, n_grains=3, m=4)
        theta = random_theta(rng, 1, 3)
        k = basis.dimension
        h = np.block([[hessian_block(theta, design, gm, 0.4, i, kk)
                       for kk in range(1, 4)] for i in range(1, 4)])
        restricted = h[: 2 * k, : 2 * k]  # gauge-fixed: last grain frozen
        assert np.linalg.eigvalsh(restricted).max() < -1e-12

    def test_quadratic_form_matches_variance_formula(self, rng):
        # independent route: v^T H v = -(1/(eps^2 n)) sum_x Var_p(i -> v_i.eta(x))
        gm, basis, design = small_problem(rng, degree=1, n_grains=3, m=3)
        eps = 0.4
        theta = random_theta(rng, 1, 3)
        p = soft_assign(theta, design, eps)
        for _ in range(10):
            v = rng.normal(size=(3, basis.dimension))
            q_blocks = sum(v[i] @ hessian_block(theta, design, gm, eps, i + 1, k + 1) @ v[k]
                           for i in range(3) for k in range(3))
            proj = v @ design.values
            mean = (p * proj).sum(axis=0)
            var = (p * proj ** 2).sum(axis=0) - mean ** 2
            q_var = -var.sum() / (eps * eps * len(gm))
            assert q_blocks == pytest.approx(q_var, abs=1e-12)

    def test_matches_central_differences_of_package_gradient(self, rng):
        # block (i, k) column b is d grad[:, i] / d theta[b, k]
        gm, basis, design = small_problem(rng, degree=2, n_grains=3, m=4)
        theta = random_theta(rng, 2, 3)
        eps, h = 0.5, 1e-5
        worst = scale = 0.0
        for k in range(3):
            for b in range(basis.dimension):
                vp = theta.values.copy()
                vp[b, k] += h
                vm = theta.values.copy()
                vm[b, k] -= h
                fd = (pg.gradient(theta.with_values(vp), design, gm, eps)
                      - pg.gradient(theta.with_values(vm), design, gm, eps)) / (2 * h)
                for i in range(3):
                    column = hessian_block(theta, design, gm, eps, i + 1, k + 1)[:, b]
                    worst = max(worst, float(np.abs(column - fd[:, i]).max()))
                    scale = max(scale, float(np.abs(column).max()))
        assert scale > 0.0
        assert worst <= 1e-8 * scale

    def test_index_out_of_range(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4)
        with pytest.raises(ValueError):
            hessian_block(theta, design, gm, 0.5, 0, 1)
        with pytest.raises(ValueError):
            hessian_block(theta, design, gm, 0.5, 1, 5)


class TestEnergies:
    def test_zero_theta_saturates_upper_bound(self, rng):
        gm, basis, design = small_problem(rng, n_grains=6)
        theta = pg.ParamMatrix(np.zeros((basis.dimension, 6)), basis)
        eps = 0.05
        assert energy_zero(theta, design, gm) == 0.0
        e = -eps * pg.objective(theta, design, gm, eps)
        assert abs(e - eps * math.log(6.0)) <= 1e-12

    def test_sandwich_bound(self, rng):
        gm, basis, design = small_problem(rng)
        log_n = math.log(4.0)
        for _ in range(25):
            theta = random_theta(rng, 2, 4, scale=rng.uniform(0.2, 5.0))
            eps = float(rng.uniform(0.01, 2.0))
            gap = -eps * pg.objective(theta, design, gm, eps) - energy_zero(theta, design, gm)
            assert -1e-12 <= gap <= eps * log_n + 1e-12

    def test_perfect_reconstruction_zero_energy(self, rng):
        pd = pg.PhysicalPD(seeds=rng.uniform(-1, 1, (4, 2)), weights=np.zeros(4))
        gm = pg.generate_pd(pd, pg.make_grid(6))
        theta = pg.pd_to_theta(pd)
        design = pg.assemble_design_matrix(theta.basis, gm.grid)
        assert energy_zero(theta, design, gm) <= 1e-15


class TestInvariances:
    def test_gauge_shift_leaves_objective_unchanged(self, rng):
        gm, basis, design = small_problem(rng)
        for _ in range(10):
            theta = random_theta(rng, 2, 4)
            c = rng.normal(size=basis.dimension)
            shifted = theta.with_values(theta.values + c[:, None])
            a = pg.objective(theta, design, gm, 0.3)
            b = pg.objective(shifted, design, gm, 0.3)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))
            assert np.array_equal(pg.argmin_labels(cost_matrix(theta, design)),
                                  pg.argmin_labels(cost_matrix(shifted, design)))

    def test_eps_scaling_identity(self, rng):
        gm, basis, design = small_problem(rng)
        for eps in (1e-3, 1e-2, 0.5):
            theta = random_theta(rng, 2, 4)
            a = pg.objective(theta, design, gm, eps)
            b = pg.objective(theta.with_values(theta.values / eps), design, gm, 1.0)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))

    def test_positive_scaling_preserves_hard_labels(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4)
        base = pg.argmin_labels(cost_matrix(theta, design))
        for lam in (1e-2, 0.5, 3.0, 100.0):
            scaled = theta.with_values(lam * theta.values)
            assert np.array_equal(base, pg.argmin_labels(cost_matrix(scaled, design)))

    def test_segment_concavity(self, rng):
        gm, basis, design = small_problem(rng)
        lam = np.linspace(0.0, 1.0, 11)
        for _ in range(10):
            ta = random_theta(rng, 2, 4)
            tb = random_theta(rng, 2, 4)
            fa = pg.objective(ta, design, gm, 0.3)
            fb = pg.objective(tb, design, gm, 0.3)
            for lm in lam:
                mid = ta.with_values(lm * ta.values + (1 - lm) * tb.values)
                val = pg.objective(mid, design, gm, 0.3)
                assert val >= lm * fa + (1 - lm) * fb - 1e-10


@st.composite
def invariance_problems(draw):
    """A random map, design and parameter matrix; costs up to about 10 * scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_grains = draw(st.integers(2, 6))
    gm = random_labels_map(rng, draw(st.integers(2, 5)), n_grains)
    basis = pg.DesignBasis.make(draw(st.sampled_from([pg.MONOMIAL, pg.LEGENDRE])),
                                draw(st.integers(1, 3)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    theta = pg.ParamMatrix(rng.normal(0.0, scale, (basis.dimension, n_grains)), basis)
    return gm, pg.assemble_design_matrix(basis, gm.grid), theta, rng


def cost_scale(*thetas, design):
    return max(float(np.abs(cost_matrix(t, design)).max()) for t in thetas)


class TestInvarianceProperties:
    @settings(max_examples=60, deadline=None)
    @given(problem=invariance_problems(), eps=st.floats(1e-3, 1.0),
           shift=st.sampled_from([0.1, 1.0, 100.0]))
    def test_gauge_shift_leaves_phi_and_e0_unchanged(self, problem, eps, shift):
        gm, design, theta, rng = problem
        c = rng.normal(0.0, shift, theta.values.shape[0])
        shifted = theta.with_values(theta.values + c[:, None])
        a = objective_module.evaluate(theta, design, gm, eps, want_assign=True)
        b = objective_module.evaluate(shifted, design, gm, eps, want_assign=True)
        rounding = 1e-14 * (1.0 + cost_scale(theta, shifted, design=design))
        assert abs(a.phi - b.phi) <= rounding / eps
        assert abs(a.e0 - b.e0) <= rounding

    @settings(max_examples=60, deadline=None)
    @given(problem=invariance_problems(), eps=st.floats(1e-3, 1.0))
    def test_eps_scaling_gives_the_same_phi(self, problem, eps):
        gm, design, theta, _ = problem
        a = pg.objective(theta, design, gm, eps)
        b = pg.objective(theta.with_values(theta.values / eps), design, gm, 1.0)
        assert abs(a - b) <= 1e-14 * (1.0 + cost_scale(theta, design=design)) / eps


class TestReduction:
    def test_parallel_tree_matches_sequential(self, rng):
        gm = random_labels_map(rng, 16, 6)  # 1024 pixels, several chunks
        basis = pg.DesignBasis.make(pg.LEGENDRE, 2)
        design = pg.assemble_design_matrix(basis, gm.grid)
        theta = random_theta(rng, 2, 6)

        seq = evaluate_objective(theta.values, design.values, gm.labels - 1, 0.05,
                                 want_assign=True, threads=1, chunk_size=128)
        par = evaluate_objective(theta.values, design.values, gm.labels - 1, 0.05,
                                 want_assign=True, threads=4, chunk_size=128)
        # the parallel partials are folded in chunk order: bit-identical
        assert seq.phi == par.phi
        assert np.array_equal(seq.grad, par.grad)
        assert seq.err == par.err
        assert seq.e0 == par.e0

    def test_rejects_thread_count_below_one(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4)
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads"):
                evaluate_objective(theta.values, design.values, gm.labels - 1, 0.1,
                                   threads=threads)

    def test_chunked_matches_single_chunk(self, rng):
        gm = random_labels_map(rng, 8, 3)
        basis = pg.DesignBasis.make(pg.MONOMIAL, 1)
        design = pg.assemble_design_matrix(basis, gm.grid)
        theta = random_theta(rng, 1, 3, kind=pg.MONOMIAL)

        whole = evaluate_objective(theta.values, design.values, gm.labels - 1, 0.1,
                                   chunk_size=10 ** 9)
        chunked = evaluate_objective(theta.values, design.values, gm.labels - 1, 0.1,
                                     chunk_size=64)
        assert abs(whole.phi - chunked.phi) <= 1e-13


@st.composite
def assignment_problems(draw):
    """Small maps and parameters, biased towards exact cost ties."""
    n_grains = draw(st.integers(2, 6))
    m = draw(st.sampled_from([1, 2, 3, 4]))
    degree = draw(st.integers(1, 2))
    basis = pg.DesignBasis.make(draw(st.sampled_from([pg.MONOMIAL, pg.LEGENDRE])), degree)
    grid = pg.make_grid(m)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, n_grains + 1, size=len(grid))
    shape = (basis.dimension, n_grains)
    kind = draw(st.sampled_from(["zero", "normal", "duplicate", "integer"]))
    if kind == "zero":
        values = np.zeros(shape)
    elif kind == "integer":
        # small integers on a dyadic grid give exactly representable costs
        values = rng.integers(-2, 3, size=shape).astype(np.float64)
    else:
        values = rng.normal(size=shape)
        if kind == "duplicate":
            values[:, rng.integers(n_grains, size=n_grains // 2 + 1)] = values[:, :1]
    values *= draw(st.sampled_from([1.0, 1e6]))
    theta = pg.ParamMatrix(values, basis)
    gm = pg.GrainMap(grid=grid, labels=labels, n_grains=n_grains)
    return theta, gm, pg.assemble_design_matrix(basis, grid)


class TestAssignmentStats:
    @settings(max_examples=150, deadline=None)
    @given(problem=assignment_problems(), eps=st.sampled_from([1e-2, 1.0]),
           small=st.integers(1, 63))
    def test_err_and_e0_match_hard_assignment(self, problem, eps, small):
        theta, gm, design = problem
        n = len(gm)
        labels = pg.argmin_labels(cost_matrix(theta, design))
        want_err = 1.0 - np.count_nonzero(labels == gm.labels) / n
        want_e0 = energy_zero(theta, design, gm)
        for chunk_size in (min(small, n - 1), 2 * n):
            res = evaluate_objective(theta.values, design.values, gm.labels - 1, eps,
                                     want_assign=True, chunk_size=chunk_size)
            assert res.err == want_err
            assert abs(res.e0 - want_e0) <= 1e-12 * (1.0 + abs(want_e0))

    def test_nan_costs_count_as_label_one(self, rng):
        # argmin_labels ties nothing in a NaN column and returns label 1
        gm, basis, design = small_problem(rng)
        values = random_theta(rng, 2, 4).values.copy()
        values[0, 2] = np.nan
        want = pg.argmin_labels(values.T @ design.values)
        with np.errstate(invalid="ignore"):
            res = evaluate_objective(values, design.values, gm.labels - 1, 0.1,
                                     want_assign=True)
        assert res.err == 1.0 - np.count_nonzero(want == gm.labels) / len(gm)
        assert res.err < 1.0


class TestExponentFloor:
    def test_floored_matches_unfloored_reference(self, rng):
        gm, basis, design = small_problem(rng, m=8)
        theta = random_theta(rng, 2, 4, scale=50.0).values
        eps = 0.01
        d = design.values
        n = d.shape[1]
        g0 = gm.labels - 1
        cols = np.arange(n)

        c = theta.T @ d
        z = (c.min(axis=0)[None, :] - c) / eps
        assert np.mean(z < -745.0) > 0.5  # most weights underflow to 0
        with np.errstate(under="ignore"):
            e = np.exp(z)
        s = e.sum(axis=0)
        phi_ref = (z[g0, cols].sum() - np.log(s).sum()) / n
        r = -(e / s[None, :])
        r[g0, cols] += 1.0
        grad_ref = -(d @ r.T) / (eps * n)

        res = evaluate_objective(theta, d, g0, eps, chunk_size=n)
        assert abs(res.phi - phi_ref) <= 1e-14 * abs(phi_ref)
        assert np.abs(res.grad - grad_ref).max() <= 1e-14 * np.abs(grad_ref).max()


def thread_problem(rng, m=16):
    """(theta, design, 0-based labels) for a 4M^2-pixel map of six grains."""
    gm = random_labels_map(rng, m, 6)
    basis = pg.DesignBasis.make(pg.LEGENDRE, 2)
    design = pg.assemble_design_matrix(basis, gm.grid)
    return random_theta(rng, 2, 6, scale=3.0).values, design.values, gm.labels - 1


class TestThreadPath:
    @pytest.fixture(params=["blas found", "blas not found"])
    def blas_lookup(self, request, monkeypatch):
        if request.param == "blas not found":
            monkeypatch.setattr(objective_module, "_blas_threads", lambda: None)

    @pytest.mark.parametrize("chunk_size", [128, 1024])
    def test_every_thread_count_is_bit_identical(self, rng, blas_lookup, chunk_size):
        theta, design, labels0 = thread_problem(rng, m=32)  # 4096 pixels
        seq, *par = [evaluate_objective(theta, design, labels0, 0.05, want_assign=True,
                                        threads=threads, chunk_size=chunk_size)
                     for threads in (1, 2, 3)]
        for res in par:
            assert res.phi == seq.phi
            assert np.array_equal(res.grad, seq.grad)
            assert res.err == seq.err
            assert res.e0 == seq.e0

    def test_blas_runs_single_threaded_in_the_pool_and_is_restored(self, rng, monkeypatch):
        blas = objective_module._blas_threads()
        if blas is None:
            pytest.skip("numpy bundles no OpenBLAS that exposes its thread count")
        get, set_ = blas
        theta, design, labels0 = thread_problem(rng)
        seen = []
        chunk_stats = objective_module._chunk_stats

        def spy(*args):
            seen.append(get())
            return chunk_stats(*args)

        monkeypatch.setattr(objective_module, "_chunk_stats", spy)
        original = get()
        set_(2)
        try:
            before = get()
            evaluate_objective(theta, design, labels0, 0.1, threads=2, chunk_size=128)
            assert seen and set(seen) == {1}
            assert get() == before
            # labels too short for the design: the last chunk raises in a worker
            with pytest.raises(ValueError):
                evaluate_objective(theta, design, labels0[:-10], 0.1, threads=2,
                                   chunk_size=128)
            assert get() == before
            seen.clear()
            evaluate_objective(theta, design, labels0, 0.1, threads=1, chunk_size=128)
            assert set(seen) == {before}  # the sequential path leaves BLAS alone
        finally:
            set_(original)

    def test_concurrent_evaluations_restore_the_starting_count(self, rng, monkeypatch):
        # A fake BLAS count and a lock that reports arrivals. Evaluation A holds
        # its first chunk until B arrives at the lock or, unguarded, reads the
        # count; without the lock B saves the 1 that A has set.
        theta, design, labels0 = thread_problem(rng)
        count, seen = [4], []
        a_in_map, b_arrived, gate = threading.Event(), threading.Event(), threading.Lock()

        def get():
            seen.append(count[0])
            if a_in_map.is_set():
                b_arrived.set()
            return count[0]

        def set_(value):
            count[0] = value

        class ArrivalLock:
            def __init__(self):
                self.lock = threading.Lock()

            def __enter__(self):
                if a_in_map.is_set():
                    b_arrived.set()
                self.lock.acquire()

            def __exit__(self, *exc):
                self.lock.release()

        chunk_stats = objective_module._chunk_stats

        def spy(*args):
            if gate.acquire(blocking=False):  # the first chunk of A only
                a_in_map.set()
                b_arrived.wait(30.0)
            return chunk_stats(*args)

        monkeypatch.setattr(objective_module, "_blas_threads", lambda: (get, set_))
        monkeypatch.setattr(objective_module, "_blas_lock", ArrivalLock(), raising=False)
        monkeypatch.setattr(objective_module, "_chunk_stats", spy)

        def run():
            evaluate_objective(theta, design, labels0, 0.1, threads=2, chunk_size=128)

        a = threading.Thread(target=run)
        a.start()
        assert a_in_map.wait(30.0)
        b = threading.Thread(target=run)
        b.start()
        a.join(60.0)
        b.join(60.0)
        assert b_arrived.is_set() and not a.is_alive() and not b.is_alive()
        assert seen == [4, 4]  # each evaluation saved the starting count
        assert count[0] == 4

    def test_pool_persists_across_evaluations(self, rng, monkeypatch):
        theta, design, labels0 = thread_problem(rng)
        workers = set()
        chunk_stats = objective_module._chunk_stats

        def spy(*args):
            workers.add(threading.current_thread())
            return chunk_stats(*args)

        evaluate_objective(theta, design, labels0, 0.1, threads=2, chunk_size=128)
        before = threading.active_count()
        monkeypatch.setattr(objective_module, "_chunk_stats", spy)
        for _ in range(50):
            evaluate_objective(theta, design, labels0, 0.1, threads=2, chunk_size=128)
        assert threading.active_count() == before
        assert 1 <= len(workers) <= 2  # the same two threads, not a pool per call

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_evaluates_in_its_own_pool(self, rng):
        theta, design, labels0 = thread_problem(rng)
        want = evaluate_objective(theta, design, labels0, 0.1, threads=2, chunk_size=128)
        code = forked_evaluation_exit_code(theta, design, labels0, want)
        assert code is not None, "a forked child deadlocked on the parent's pool"
        assert code == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_free_blas_lock(self, rng):
        theta, design, labels0 = thread_problem(rng)
        want = evaluate_objective(theta, design, labels0, 0.1, threads=2, chunk_size=128)
        with objective_module._blas_lock:  # as if another thread were evaluating
            code = forked_evaluation_exit_code(theta, design, labels0, want)
        assert code is not None, "a forked child deadlocked on a copied BLAS lock"
        assert code == 0


def forked_evaluation_exit_code(theta, design, labels0, want, timeout=30.0):
    """Exit code of a forked child that evaluates with threads=2 and compares
    phi with ``want``; None if it has not finished within ``timeout`` s."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        try:
            got = evaluate_objective(theta, design, labels0, 0.1, threads=2, chunk_size=128)
            os._exit(0 if got.phi == want.phi else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.05)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    return None
