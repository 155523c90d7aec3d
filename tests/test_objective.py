import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import polygrain as pg
from conftest import random_apd, random_grain_map, random_labels_map, random_theta, tiled
from reference import (accuracy_and_error, cost_matrix, dense_curvature, energy_zero,
                       hessian_block, soft_assign)
from polygrain.objective import CURVATURE_CUT as CUT, evaluate_objective

# ``pg.objective`` is the function of that name; the module holds the kernel.
objective_module = sys.modules["polygrain.objective"]


def small_problem(rng, degree=2, n_grains=4, m=5, kind=pg.LEGENDRE):
    gm = random_labels_map(rng, m, n_grains)
    basis = pg.DesignBasis(kind, degree)
    design = pg.assemble_design_matrix(basis, gm.grid)
    return gm, basis, design


def evaluate_tiled(theta_values, basis, points, design_values, labels0, eps, side, **kwargs):
    """``evaluate_objective`` of a problem given in point order, on side x side tiles."""
    design, labels, layout = tiled(basis, points, design_values, labels0,
                                   theta_values.shape[1], side)
    return evaluate_objective(theta_values, design, labels, eps, layout=layout, **kwargs)


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
        basis = pg.DesignBasis(pg.MONOMIAL, 1)
        design = pg.assemble_design_matrix(basis, grid)
        eps = 0.25
        values = np.zeros((3, 2))
        values[basis.position((0, 0)), 1] = math.log(3.0) * eps
        theta = pg.ParamMatrix(values, basis)
        p = soft_assign(theta, design, eps)
        assert p[0, 0] == pytest.approx(0.75, abs=1e-15)
        assert p[1, 0] == pytest.approx(0.25, abs=1e-15)

    def test_matches_theta_over_eps_at_unit_temperature(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4)
        eps = 0.01
        a = soft_assign(theta, design, eps)
        b = soft_assign(replace(theta, values=theta.values / eps), design, 1.0)
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
        basis = pg.DesignBasis(pg.LEGENDRE, 1)
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
        with pytest.raises(ValueError, match="non-finite"):
            replace(theta, values=vals)  # so a NaN theta reaches no entry point
        calls = [lambda th, g, e: pg.objective(th, design, g, e),
                 lambda th, g, e: pg.gradient(th, design, g, e),
                 lambda th, g, e: -e * pg.objective(th, design, g, e),
                 lambda th, g, e: pg.bound_report(th, g, design, e)]
        bad = [(theta, gm, 0.0), (theta, gm, -1.0), (theta, gm, np.nan), (theta, gm, np.inf),
               (theta, gm, 5e-324),  # its reciprocal, the kernel's scale, overflows
               (random_theta(rng, 2, 4, kind=pg.MONOMIAL), gm, 0.1),
               (theta, random_labels_map(rng, 6, 4), 0.1),
               (random_theta(rng, 2, 3), gm, 0.1)]  # a map of 4 grains, theta of 3
        for call in calls:
            for th, g, e in bad:
                with pytest.raises(ValueError):
                    call(th, g, e)
        with pytest.raises(ValueError, match="grain map has 4 grains, theta 3"):
            pg.objective(random_theta(rng, 2, 3), design, gm, 0.1)
        # theta may have more columns than the map has grains: trailing empty grains
        assert pg.objective(random_theta(rng, 2, 6), design, gm, 0.1) < 0
        # the unchecked kernel, labels shorter or longer than the design
        n = len(gm)
        for labels0 in (gm.labels[:-10] - 1, np.append(gm.labels, [1, 2, 3]) - 1):
            with pytest.raises(ValueError, match=f"{len(labels0)} labels.* {n} "):
                evaluate_objective(theta.values, design.values, labels0, 0.1)
        # and a layout without true labels, whose certificate may drop a tile's
        # true label: the kernel would then look up a row it did not compute
        d, g0, layout = tiled(basis, gm.grid.points, design.values, gm.labels - 1, 4, 2)
        with pytest.raises(ValueError, match="labels"):
            evaluate_objective(theta.values, d, g0, 0.1, layout=layout._replace(labels=None))

    def test_scaling_separable_theta_drives_phi_to_zero(self, rng):
        # a diagram-generated map is perfectly reconstructed by its own theta
        pd = pg.PhysicalPD(seeds=rng.uniform(-1, 1, (3, 2)), weights=np.zeros(3))
        gm = pg.generate_pd(pd, pg.make_grid(4))
        theta = pg.pd_to_theta(pd)
        design = pg.assemble_design_matrix(theta.basis, gm.grid)
        phis = [pg.objective(replace(theta, values=t * theta.values), design, gm, 0.5)
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
        basis = pg.DesignBasis(pg.MONOMIAL, 1)
        design = pg.assemble_design_matrix(basis, grid)
        gm = pg.GrainMap(grid=grid, labels=np.array([1]), n_grains=2)
        theta = pg.ParamMatrix(np.zeros((3, 2)), basis)
        grad = pg.gradient(theta, design, gm, 1.0)
        pos = basis.position((0, 0))
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
        basis = pg.DesignBasis(pg.LEGENDRE, 2)
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
                fd = (pg.objective(replace(theta, values=vp), design, gm, eps)
                      - pg.objective(replace(theta, values=vm), design, gm, eps)) / (2 * h)
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
                fd = (pg.gradient(replace(theta, values=vp), design, gm, eps)
                      - pg.gradient(replace(theta, values=vm), design, gm, eps)) / (2 * h)
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


class TestCurvature:
    """``evaluate_objective`` with ``want_curvature`` gives M = sum_x (diag p -
    pp') kron eta eta', the negated Hessian times eps^2 n, in neighbour blocks."""

    @staticmethod
    def curvature(theta_values, design_values, labels0, eps, layout):
        return evaluate_objective(theta_values, design_values, labels0, eps, want_grad=False,
                                  want_curvature=True, layout=layout).curvature

    @staticmethod
    def separable_problem(degree=1):
        """A power-diagram map of 6 grains on 24 x 24 pixels with its exact theta."""
        pd = random_apd(np.random.default_rng(3), 6, 0.0)
        gm = pg.generate_pd(pg.PhysicalPD(pd.seeds, pd.weights), pg.make_grid(12))
        theta = pg.coeffs_to_basis(pg.pd_to_theta(pg.PhysicalPD(pd.seeds, pd.weights)),
                                   pg.LEGENDRE)
        design = pg.assemble_design_matrix(theta.basis, gm.grid)
        return gm, theta, design

    @pytest.mark.parametrize("side", [None, 3])
    @pytest.mark.parametrize("start", ["zero", "fitted"])
    def test_blocks_match_the_dense_hessian(self, start, side):
        gm, theta, design = self.separable_problem()
        eps = 0.05
        if start == "zero":
            theta = pg.init_zero(1, gm.n_grains)
        else:
            theta = pg.fit(gm, pg.FitConfig(degree=1, eps=eps, max_iters=25)).theta
        design_t, labels_t, layout = tiled(theta.basis, gm.grid.points, design.values,
                                           gm.labels - 1, gm.n_grains, side)
        curv = self.curvature(theta.values, design_t, labels_t, eps, layout)
        n, k_dim = len(gm), theta.basis.dimension
        ref = -np.block([[hessian_block(theta, design, gm, eps, i, j)
                          for j in range(1, gm.n_grains + 1)]
                         for i in range(1, gm.n_grains + 1)]) * (eps * eps * n)
        # A weight cut below e^-30 of a pixel's leading one moves each product of
        # a pixel's weights by at most N e^-30, times |eta eta'| <= 1 (Legendre).
        tol = gm.n_grains * math.exp(-CUT) * n
        assert np.abs(dense_curvature(curv) - ref).max() <= tol + 1e-12 * np.abs(ref).max()
        assert len(curv.pairs) < gm.n_grains * (gm.n_grains - 1) // 2 or start == "zero"
        assert np.all(curv.pairs[:, 0] < curv.pairs[:, 1])
        assert curv.blocks.shape == (len(curv.pairs), k_dim, k_dim)

    def test_positive_semidefinite_near_separation(self):
        # The exact theta at eps = (least gap between a pixel's two lowest costs) / 25:
        # the most uncertain pixel's losing weight is e^-25, and tr M about 5e-11.
        # The naive form sum_x diag(p) kron eta eta' - sum_x pp' kron eta eta'
        # subtracts sums of order n from each other, which round to 2^-53 n.
        gm, theta, design = self.separable_problem()
        costs = np.sort(theta.values.T @ design.values, axis=0)
        eps = (costs[1] - costs[0]).min() / 25.0
        layout = objective_module.tile_layout(theta.basis, gm.grid.points, gm.n_grains,
                                              gm.labels - 1)
        dense = dense_curvature(self.curvature(theta.values, design.values, gm.labels - 1,
                                               eps, layout))
        free = (gm.n_grains - 1) * theta.basis.dimension
        trace = np.trace(dense)
        assert trace > 0.0
        assert np.linalg.eigvalsh(dense[:free, :free]).min() >= -1e-14 * trace
        p, d = soft_assign(theta, design, eps), design.values
        naive = np.block([[(i == j) * ((d * p[i]) @ d.T) - (d * (p[i] * p[j])) @ d.T
                           for j in range(gm.n_grains)] for i in range(gm.n_grains)])
        assert np.linalg.eigvalsh(naive[:free, :free]).min() < -1e-14 * trace

    @pytest.mark.parametrize("exponent", [-600, -3, 7, 600])
    def test_power_of_two_scaling_is_exact(self, exponent):
        gm, _, _ = self.separable_problem()
        basis = pg.DesignBasis(pg.LEGENDRE, 2)
        design = pg.assemble_design_matrix(basis, gm.grid)
        # After 12 iterations, before the fit finishes along theta: its sharp
        # theta there has no pair of grains active together.
        theta = pg.fit(gm, pg.FitConfig(degree=2, eps=0.05, max_iters=12)).theta.values
        design_t, labels_t, layout = tiled(basis, gm.grid.points, design.values,
                                           gm.labels - 1, gm.n_grains, 3)
        unit = self.curvature(theta, design_t, labels_t, 0.05, layout)
        scaled = self.curvature(np.ldexp(theta, exponent), design_t, labels_t,
                                math.ldexp(0.05, exponent), layout)
        assert len(unit.pairs) > 0
        for a, b in zip(unit, scaled):
            assert np.array_equal(a, b)


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
            shifted = replace(theta, values=theta.values + c[:, None])
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
            b = pg.objective(replace(theta, values=theta.values / eps), design, gm, 1.0)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))

    def test_positive_scaling_preserves_hard_labels(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4)
        base = pg.argmin_labels(cost_matrix(theta, design))
        for lam in (1e-2, 0.5, 3.0, 100.0):
            scaled = replace(theta, values=lam * theta.values)
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
                mid = replace(ta, values=lm * ta.values + (1 - lm) * tb.values)
                val = pg.objective(mid, design, gm, 0.3)
                assert val >= lm * fa + (1 - lm) * fb - 1e-10


@st.composite
def invariance_problems(draw):
    """A random map, design and parameter matrix; costs up to about 10 * scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_grains = draw(st.integers(2, 6))
    gm = random_labels_map(rng, draw(st.integers(2, 5)), n_grains)
    basis = pg.DesignBasis(draw(st.sampled_from([pg.MONOMIAL, pg.LEGENDRE])),
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
        shifted = replace(theta, values=theta.values + c[:, None])
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
        b = pg.objective(replace(theta, values=theta.values / eps), design, gm, 1.0)
        assert abs(a - b) <= 1e-14 * (1.0 + cost_scale(theta, design=design)) / eps


class TestReduction:
    def test_parallel_tree_matches_sequential(self, rng):
        gm = random_grain_map(rng, 16, 6)  # 1024 pixels in 3 x 3 tiles
        basis = pg.DesignBasis(pg.LEGENDRE, 2)
        design = pg.assemble_design_matrix(basis, gm.grid)
        theta = random_theta(rng, 2, 6)
        design, labels0, layout = tiled(basis, gm.grid.points, design.values, gm.labels - 1,
                                        6, side=3)

        # at the larger scale the tiles drop grains, each tile its own
        for values in (theta.values, 300.0 * theta.values):
            seq = evaluate_objective(values, design, labels0, 0.05,
                                     want_assign=True, threads=1, layout=layout)
            par = evaluate_objective(values, design, labels0, 0.05,
                                     want_assign=True, threads=4, layout=layout)
            # the parallel partials are folded in tile order: bit-identical
            assert seq.phi == par.phi
            assert np.array_equal(seq.grad, par.grad)
            assert seq.err == par.err
            assert seq.e0 == par.e0
        assert seq.pairs < 1024 * 6

    def test_rejects_thread_count_below_one(self, rng):
        gm, basis, design = small_problem(rng)
        theta = random_theta(rng, 2, 4)
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads"):
                evaluate_objective(theta.values, design.values, gm.labels - 1, 0.1,
                                   threads=threads)

    def test_chunked_matches_single_chunk(self, rng):
        gm = random_labels_map(rng, 8, 3)
        basis = pg.DesignBasis(pg.MONOMIAL, 1)
        design = pg.assemble_design_matrix(basis, gm.grid)
        theta = random_theta(rng, 1, 3, kind=pg.MONOMIAL)

        whole, chunked = (evaluate_tiled(theta.values, basis, gm.grid.points, design.values,
                                         gm.labels - 1, 0.1, side) for side in (1, 4))
        assert abs(whole.phi - chunked.phi) <= 1e-13


@st.composite
def assignment_problems(draw):
    """Small maps and parameters, biased towards exact cost ties."""
    n_grains = draw(st.integers(2, 6))
    m = draw(st.sampled_from([1, 2, 3, 4]))
    degree = draw(st.integers(1, 2))
    basis = pg.DesignBasis(draw(st.sampled_from([pg.MONOMIAL, pg.LEGENDRE])), degree)
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


def exact_tie_problem():
    """Integer costs with exact ties on a 16-pixel map. A kernel that ran the tie
    test on the costs scaled by -1/eps miscounts err there at eps = 3."""
    basis = pg.DesignBasis(pg.MONOMIAL, 1)
    grid = pg.make_grid(2)
    theta = pg.ParamMatrix(np.array([[0.0, 2e6, -2e6], [-1e6, -2e6, 2e6], [-2e6, 2e6, -2e6]]),
                           basis)
    labels = np.array([2, 2, 1, 3, 3, 2, 2, 3, 3, 1, 2, 2, 2, 2, 3, 3])
    gm = pg.GrainMap(grid=grid, labels=labels, n_grains=3)
    return theta, gm, pg.assemble_design_matrix(basis, grid)


class TestAssignmentStats:
    # 0.3 and 3 have inexact reciprocals: the tie test must not see eps.
    @settings(max_examples=150, deadline=None)
    @given(problem=assignment_problems(), eps=st.sampled_from([1e-2, 0.3, 1.0, 3.0]),
           side=st.integers(2, 5))
    @example(problem=exact_tie_problem(), eps=3.0, side=3)
    def test_err_and_e0_match_hard_assignment(self, problem, eps, side):
        theta, gm, design = problem
        n = len(gm)
        labels = pg.argmin_labels(cost_matrix(theta, design))
        want_err = 1.0 - np.count_nonzero(labels == gm.labels) / n
        want_e0 = energy_zero(theta, design, gm)
        for tiles in (side, 1):
            res = evaluate_tiled(theta.values, theta.basis, gm.grid.points, design.values,
                                 gm.labels - 1, eps, tiles, want_assign=True)
            assert res.err == want_err
            assert abs(res.e0 - want_e0) <= 1e-12 * (1.0 + abs(want_e0))

    def test_nan_costs_count_as_label_one(self, rng):
        # argmin_labels ties nothing in a NaN column and returns label 1
        gm, basis, design = small_problem(rng)
        values = random_theta(rng, 2, 4).values.copy()
        values[0, 2] = np.nan
        want = pg.argmin_labels(values.T @ design.values)
        with np.errstate(invalid="ignore"):
            results = [evaluate_objective(values, design.values, gm.labels - 1, 0.1,
                                          want_assign=True)]
            results += [evaluate_tiled(values, basis, gm.grid.points, design.values,
                                       gm.labels - 1, 0.1, side, want_assign=True)
                        for side in (1, 3)]
        for res in results:
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

        for side in (1, 3):
            res = evaluate_tiled(theta, basis, gm.grid.points, d, g0, eps, side)
            assert abs(res.phi - phi_ref) <= 1e-14 * abs(phi_ref)
            assert np.abs(res.grad - grad_ref).max() <= 1e-14 * np.abs(grad_ref).max()


@st.composite
def kernel_problems(draw):
    """Random labels and parameters; at the small eps many true labels lie far
    below the exponent floor (z_g0 < Z_FLOOR)."""
    n_grains = draw(st.integers(2, 8))
    grid = pg.make_grid(draw(st.integers(1, 6)))
    basis = pg.DesignBasis(draw(st.sampled_from([pg.MONOMIAL, pg.LEGENDRE])),
                           draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    theta = rng.normal(size=(basis.dimension, n_grains)) * draw(st.sampled_from([1.0, 1e3]))
    labels0 = rng.integers(0, n_grains, size=len(grid))
    return theta, basis, grid, labels0


def below_floor_problem():
    """A 64-pixel map; at eps=1e-3, 54 of its true labels lie below the floor."""
    rng = np.random.default_rng(0)
    basis = pg.DesignBasis(pg.LEGENDRE, 2)
    grid = pg.make_grid(4)
    theta = rng.normal(size=(basis.dimension, 5)) * 1e3
    return theta, basis, grid, rng.integers(0, 5, size=len(grid))


def longdouble_reference(theta, design, labels0, eps, batches):
    """From the float64 costs of the tiles of ``_batches``, with the rest in
    np.longdouble and unfloored: (phi, grad, the scale sum_x |eta(x)| |r(x)| /
    (eps n) of the gradient's terms). A GEMM over some rows need not round
    those rows as the whole product does, so the costs of the grains that a
    tile keeps come from the kernel's own GEMM, with the same rows and columns;
    those of the grains it drops come from the whole product."""
    n = design.shape[1]
    cols = np.arange(n)
    c = np.empty((theta.shape[1], n))
    for sl, rows in itertools.chain.from_iterable(batches):
        c[:, sl] = theta.T @ design[:, sl]
        if rows is not None:
            c[rows, sl] = theta[:, rows].T @ design[:, sl]
    c = c.astype(np.longdouble)
    z = (c.min(axis=0) - c) / np.longdouble(eps)
    e = np.exp(z)
    e_g0 = e[labels0, cols]
    e[labels0, cols] = 0
    rest = e.sum(axis=0)  # the weights of the other grains
    s = rest + e_g0
    phi = (z[labels0, cols] - np.log1p(rest + (e_g0 - 1))).sum() / n
    r = -e / s
    r[labels0, cols] = rest / s  # 1 - p_g0 without cancelling
    eta = design.astype(np.longdouble)
    scale = np.longdouble(eps) * n
    return phi, -(eta @ r.T) / scale, (np.abs(eta) @ np.abs(r).T) / scale


needs_longdouble = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                                      reason="np.longdouble is no wider than float64 here")


class TestKernelAccuracy:
    @needs_longdouble
    @settings(max_examples=150, deadline=None)
    @given(problem=kernel_problems(), eps=st.sampled_from([1e-3, 1e-2, 1.0]),
           side=st.integers(2, 5))
    @example(problem=below_floor_problem(), eps=1e-3, side=3)
    def test_matches_longdouble_reference(self, problem, eps, side):
        theta, basis, grid, labels0 = problem
        # The floor moves each of the N weights of a pixel by at most exp(Z_FLOOR),
        # and a grain that a tile drops has every weight there below it.
        floor = theta.shape[1] * math.exp(objective_module.Z_FLOOR)
        for tiles in (side, 1):
            design, g0, layout = tiled(basis, grid.points,
                                       pg.assemble_design_matrix(basis, grid).values,
                                       labels0, theta.shape[1], tiles)
            keep = objective_module.tile_grains(layout, theta, -objective_module.Z_FLOOR * eps)
            phi_ref, grad_ref, grad_scale = longdouble_reference(
                theta, design, g0, eps, objective_module._batches(layout, keep))
            # The gradient is compared relative to its largest term sum: a
            # weight exp(z) far below 1 carries the rounding of z, up to
            # |z|*2^-52 of itself.
            phi_tol = 1e-13 * abs(phi_ref) + floor
            grad_tol = 1e-13 * grad_scale.max() + floor * np.abs(design).max() / eps
            res = evaluate_objective(theta, design, g0, eps, want_grad=True, layout=layout)
            assert abs(res.phi - phi_ref) <= phi_tol
            assert np.abs(res.grad - grad_ref).max() <= grad_tol

    @needs_longdouble
    def test_confident_label_keeps_its_residual(self):
        # one pixel whose label has probability 1 - e with e = exp(-56) ~ 5e-25:
        # 1 - p rounds to 0 in float64, the residual rest/s does not
        basis = pg.DesignBasis(pg.MONOMIAL, 1)
        design = pg.assemble_design_matrix(basis, pg.PixelGrid(points=np.zeros((1, 2))))
        theta = np.zeros((basis.dimension, 2))
        theta[basis.position((0, 0)), 1] = 0.56
        eps = 0.01
        e = math.exp((0.0 - 0.56) / eps)
        r = e / (1.0 + e)
        want = -np.outer(design.values[:, 0], [r, -r]) / eps
        res = evaluate_objective(theta, design.values, np.array([0]), eps)
        assert np.all(np.abs(res.grad - want) <= 1e-13 * np.abs(want))


@st.composite
def tiled_problems(draw):
    """Parameters in either basis with d = 1..4, on a regular grid whose side the
    tile partition need not divide or on an unstructured point list, with
    labels that are random or the arg-min of nearby parameters."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_grains = draw(st.integers(2, 8))
    basis = pg.DesignBasis(draw(st.sampled_from([pg.MONOMIAL, pg.LEGENDRE])),
                           draw(st.integers(1, 4)))
    if draw(st.booleans()):
        grid = pg.make_grid(draw(st.integers(1, 9)))
    else:
        grid = pg.PixelGrid(points=rng.uniform(-0.999, 0.999, (draw(st.integers(1, 300)), 2)))
    kind = draw(st.sampled_from(["normal", "integer", "duplicate"]))
    if kind == "integer":
        values = rng.integers(-2, 3, size=(basis.dimension, n_grains)).astype(np.float64)
    else:
        values = rng.normal(size=(basis.dimension, n_grains))
        if kind == "duplicate":
            values[:, rng.integers(n_grains, size=n_grains // 2 + 1)] = values[:, :1]
    theta = pg.ParamMatrix(values * draw(st.sampled_from([1.0, 30.0, 1e6])), basis)
    design = pg.assemble_design_matrix(basis, grid)
    if draw(st.booleans()):
        labels0 = rng.integers(0, n_grains, size=len(grid))
    else:
        near = theta.values + rng.normal(0.0, 0.1, theta.values.shape) * np.abs(theta.values)
        labels0 = pg.argmin_labels(near.T @ design.values) - 1
    return theta, grid, design, labels0


class TestTileCertificate:
    """The tiles partition the points, and a grain that a tile drops is one whose
    exponents all lie below Z_FLOOR there (the kernel) or that ties nowhere there
    (arg-min labels), by the dense costs of tests/reference.py."""

    @settings(max_examples=200, deadline=None)
    @given(problem=tiled_problems(), eps=st.sampled_from([1e-3, 1e-2, 0.3, 1.0]),
           side=st.integers(1, 6))
    def test_dropped_grains_lie_below_the_floor(self, problem, eps, side):
        theta, grid, design, labels0 = problem
        costs = cost_matrix(theta, design)
        m = costs.min(axis=0)
        for labels, cut in ((labels0, -objective_module.Z_FLOOR * eps), (None, 0.0)):
            layout = objective_module.tile_layout(theta.basis, grid.points, theta.n_grains,
                                                  labels, side)
            assert np.array_equal(np.sort(layout.order), np.arange(len(grid)))
            assert layout.bounds[0] == 0 and layout.bounds[-1] == len(grid)
            assert np.all(np.diff(layout.bounds) > 0)
            keep = objective_module.tile_grains(layout, theta.values, cut)
            for t, (lo, hi) in enumerate(zip(layout.bounds[:-1], layout.bounds[1:])):
                cols = layout.order[lo:hi]
                dropped = ~keep[t]
                if labels is None:
                    tied = costs[:, cols] <= pg.geometry.tie_threshold(m[cols])
                    assert not np.any(tied[dropped])
                else:
                    assert keep[t, labels[cols]].all()  # every true label
                    z = (m[cols] - costs[:, cols]) / eps
                    assert np.all(z[dropped] < objective_module.Z_FLOOR)

    @settings(max_examples=200, deadline=None)
    @given(problem=tiled_problems(), ties=st.booleans())
    @example(problem=(lambda theta, gm, design: (theta, gm.grid, design, None))(
        *exact_tie_problem()), ties=False)
    def test_hard_assign_is_the_dense_argmin(self, problem, ties):
        theta, grid, design, _ = problem
        if ties:  # grains 2 and 3 copy grain 1: every pixel is a three-way tie or more
            values = theta.values.copy()
            values[:, 1:3] = values[:, :1]
            theta = replace(theta, values=values)
        want = pg.argmin_labels(cost_matrix(theta, design))
        assert np.array_equal(pg.hard_assign(theta, grid), want)
        assert np.array_equal(pg.hard_assign(theta, grid, design), want)

    def test_cells_beyond_the_chunk_width_are_cut_into_runs(self, rng):
        points = np.concatenate([rng.uniform(0.1, 0.2, (700, 2)), rng.uniform(-1, 1, (300, 2))])
        basis = pg.DesignBasis(pg.LEGENDRE, 2)
        n_grains = 2000  # chunk_width(2000) = MIN_CHUNK = 256 pixels
        layout = objective_module.tile_layout(basis, points, n_grains, side=2)
        sizes = np.diff(layout.bounds)
        assert sizes.max() <= objective_module.chunk_width(n_grains)
        assert np.array_equal(np.sort(layout.order), np.arange(len(points)))
        # the runs of one cell keep its points in their own order
        cell = np.minimum(((points + 1.0) * 1.0).astype(int), 1) @ np.array([2, 1])
        assert np.all(np.diff(cell[layout.order]) >= 0)
        for c in np.unique(cell):
            at = layout.order[cell[layout.order] == c]
            assert np.all(np.diff(at) > 0)


def kernel_batches(theta_values, layout, eps):
    """(keep mask, batches of ``_batches``) of one kernel evaluation on ``layout``."""
    keep = objective_module.tile_grains(layout, theta_values, -objective_module.Z_FLOOR * eps)
    return keep, objective_module._batches(layout, keep)


class TestBatchedKernel:
    """Tiles share kernel calls (``_batches``), grouped by their count of kept
    grains; a tile's partials and the kept pairs do not depend on its batch."""

    @settings(max_examples=150, deadline=None)
    @given(problem=tiled_problems(), eps=st.sampled_from([1e-3, 1e-2, 0.3]),
           side=st.integers(1, 6), cap=st.sampled_from([0, 2 ** 11, 2 ** 14, 2 ** 17]))
    def test_batches_partition_the_tiles_under_the_cap(self, problem, eps, side, cap):
        theta, grid, _, labels0 = problem
        layout = objective_module.tile_layout(theta.basis, grid.points, theta.n_grains,
                                              labels0, side)
        bounds, widths = layout.bounds, np.diff(layout.bounds)
        for plan in (layout, layout._replace(order=None)):
            with mock.patch.object(objective_module, "BATCH_BYTES", cap):
                keep, batches = kernel_batches(theta.values, plan, eps)
            counts = keep.sum(axis=1)
            # every tile exactly once, stably sorted by its count of kept grains,
            # with its run of the order (or its slice) and its kept grains
            order = sorted(range(len(keep)), key=lambda t: counts[t])
            tiles = [tile for batch in batches for tile in batch]
            for t, (cols, rows) in zip(order, tiles, strict=True):
                if plan.order is None:
                    assert cols == slice(bounds[t], bounds[t + 1])
                else:
                    assert np.array_equal(cols, layout.order[bounds[t]:bounds[t + 1]])
                assert np.array_equal(rows, np.flatnonzero(keep[t]))  # full tiles too
            at = np.cumsum([len(batch) for batch in batches])[:-1]
            indices = np.split(np.array(order), at)  # the tiles of each batch
            for batch, after in zip(indices, indices[1:] + [None]):
                count = counts[batch[0]]
                assert np.all(counts[batch] == count)  # one kept count per batch
                if len(batch) > 1:  # the rows x pixels buffer and 8 pixel vectors
                    assert 8 * (count + 8) * widths[batch].sum() <= cap
                if after is not None and counts[after[0]] == count:  # cut only when full
                    assert 8 * (count + 8) * (widths[batch].sum() + widths[after[0]]) > cap

    @settings(max_examples=150, deadline=None)
    @given(problem=tiled_problems(), eps=st.sampled_from([1e-3, 1e-2, 0.3, 1.0]),
           side=st.integers(1, 6), cap=st.sampled_from([2 ** 11, 2 ** 14, 2 ** 20]))
    @example(problem=(lambda theta, gm, design: (theta, gm.grid, design, gm.labels - 1))(
        *exact_tie_problem()), eps=3.0, side=3, cap=2 ** 20)
    def test_batches_match_one_tile_batches(self, problem, eps, side, cap):
        theta, grid, design, labels0 = problem
        d, g0, layout = tiled(theta.basis, grid.points, design.values, labels0,
                              theta.n_grains, side)
        results = []
        for bytes_ in (0, cap):  # 0: every tile a batch of its own
            with mock.patch.object(objective_module, "BATCH_BYTES", bytes_):
                results.append(evaluate_objective(theta.values, d, g0, eps, want_grad=True,
                                                  want_assign=True, layout=layout))
        single, batched = results
        assert batched.err == single.err
        assert batched.e0 == single.e0
        keep, _ = kernel_batches(theta.values, layout, eps)
        assert batched.pairs == single.pairs == int(keep.sum(axis=1) @ np.diff(layout.bounds))
        assert abs(batched.phi - single.phi) <= 1e-13 * abs(single.phi)
        assert np.abs(batched.grad - single.grad).max() <= 1e-13 * np.abs(single.grad).max()

    @settings(max_examples=150, deadline=None)
    @given(problem=tiled_problems(), eps=st.sampled_from([1e-3, 1e-2, 0.3, 1.0]),
           side=st.integers(1, 6))
    @example(problem=(lambda theta, gm, design: (theta, gm.grid, design, gm.labels - 1))(
        *exact_tie_problem()), eps=3.0, side=3)
    def test_point_order_through_the_layout_matches_tile_order(self, problem, eps, side):
        # the kernel reads arrays in point order through the layout's order, as
        # ``evaluate`` passes them, or arrays copied into tile order without it,
        # as the fit does. A cost GEMM on a gathered tile may round differently
        # from one on a strided view, so phi, E0 and the gradient agree to
        # rounding; err and the pairs are exact.
        theta, grid, design, labels0 = problem
        layout = objective_module.tile_layout(theta.basis, grid.points, theta.n_grains,
                                              labels0, side)
        through, copied = (evaluate_objective(theta.values, d, g0, eps, want_grad=True,
                                              want_assign=True, layout=lay)
                           for d, g0, lay in ((design.values, labels0, layout),
                                              tiled(theta.basis, grid.points, design.values,
                                                    labels0, theta.n_grains, side)))
        assert (through.err, through.pairs) == (copied.err, copied.pairs)
        assert abs(through.phi - copied.phi) <= 1e-13 * abs(copied.phi)
        assert abs(through.e0 - copied.e0) <= 1e-13 * abs(copied.e0)
        assert np.abs(through.grad - copied.grad).max() <= 1e-13 * np.abs(copied.grad).max()

    @settings(max_examples=150, deadline=None)
    @given(problem=tiled_problems(), eps=st.sampled_from([1e-3, 1e-2, 0.3, 1.0]),
           side=st.integers(1, 6))
    @example(problem=(lambda theta, gm, design: (theta, gm.grid, design, gm.labels - 1))(
        *exact_tie_problem()), eps=3.0, side=3)
    def test_one_tile_per_batch_gives_the_same_bits(self, problem, eps, side):
        theta, grid, design, labels0 = problem
        d, g0, layout = tiled(theta.basis, grid.points, design.values, labels0,
                              theta.n_grains, side)
        results = []
        for bytes_ in (0, objective_module.BATCH_BYTES):  # 0: every tile a batch of its own
            with mock.patch.object(objective_module, "BATCH_BYTES", bytes_):
                results.append(evaluate_objective(theta.values, d, g0, eps, want_grad=True,
                                                  want_assign=True, want_curvature=True,
                                                  layout=layout))
        # M alone: neither the tie test nor the gradient moves the bits it is taken from
        results.append(evaluate_objective(theta.values, d, g0, eps, want_grad=False,
                                          want_curvature=True, layout=layout))
        single, batched, alone = results
        assert (batched.phi, batched.err, batched.e0, batched.pairs, batched.separated) == (
            single.phi, single.err, single.e0, single.pairs, single.separated)
        assert np.array_equal(batched.grad, single.grad)
        for a, b, c in zip(batched.curvature, single.curvature, alone.curvature):
            assert np.array_equal(a, b) and np.array_equal(a, c)  # diag, pairs and blocks

    @settings(max_examples=150, deadline=None)
    @given(problem=tiled_problems(), eps=st.sampled_from([1e-3, 1e-2, 0.3]),
           side=st.integers(2, 6), cap=st.sampled_from([2 ** 11, 2 ** 14, 2 ** 20]))
    def test_tile_partials_fold_in_batch_order(self, problem, eps, side, cap):
        # each tile's partials have the same bits alone and in its batch, and
        # the evaluation folds them left to right in batch order
        theta, grid, design, labels0 = problem
        d, g0, layout = tiled(theta.basis, grid.points, design.values, labels0,
                              theta.n_grains, side)
        with mock.patch.object(objective_module, "BATCH_BYTES", cap):
            _, batches = kernel_batches(theta.values, layout, eps)
            res = evaluate_objective(theta.values, d, g0, eps, want_grad=True,
                                     want_assign=True, layout=layout)
        lse_sum, e0_sum, ncorrect, separated = 0.0, 0.0, 0, True
        grad = np.zeros_like(theta.values)
        for batch in batches:
            together = objective_module._chunk_stats(theta.values, d, g0, eps, batch,
                                                     True, True)
            for tile, (lse, gacc, count, e0, sep, _) in zip(batch, together):
                alone, = objective_module._chunk_stats(theta.values, d, g0, eps, [tile],
                                                       True, True)
                assert (lse, count, e0, sep) == (alone[0], alone[2], alone[3], alone[4])
                assert np.abs(gacc - alone[1]).max() <= 1e-13 * max(np.abs(alone[1]).max(),
                                                                    1e-300)
                lse_sum += lse
                e0_sum += e0
                ncorrect += count
                separated &= sep
                grad[:, tile[1]] += gacc
        n = len(g0)
        assert res.phi == lse_sum / n
        assert res.e0 == e0_sum / n
        assert res.err == 1.0 - ncorrect / n
        assert res.separated == separated
        assert np.array_equal(res.grad, -grad / (eps * n))

    def test_one_pixel_tiles_have_their_bits_in_any_batch(self, rng):
        # one point in each cell of a 6 x 6 partition, 16 grains kept everywhere:
        # alone, a tile's buffer is one column of 16 rows, which numpy would sum
        # pairwise, while a batch of several tiles sums each column row by row
        centres = -1.0 + (np.arange(6) + 0.5) / 3.0
        grid = pg.PixelGrid(points=np.array([(a, b) for a in centres for b in centres]))
        theta = random_theta(rng, 2, 16)
        labels0 = rng.integers(0, 16, size=len(grid))
        design = pg.assemble_design_matrix(theta.basis, grid)
        d, g0, layout = tiled(theta.basis, grid.points, design.values, labels0, 16, 6)
        keep, batches = kernel_batches(theta.values, layout, 0.3)
        assert np.all(np.diff(layout.bounds) == 1) and keep.all()
        assert max(len(batch) for batch in batches) > 1
        for batch in batches:
            together = objective_module._chunk_stats(theta.values, d, g0, 0.3, batch,
                                                     True, True)
            for tile, (lse, _, count, e0, sep, _) in zip(batch, together):
                alone, = objective_module._chunk_stats(theta.values, d, g0, 0.3, [tile],
                                                       True, True)
                assert (lse, count, e0, sep) == (alone[0], alone[2], alone[3], alone[4])

    def test_thread_counts_are_bit_identical_over_batches(self, rng):
        theta, design, labels0, layout = thread_problem(rng, tile_pixels=256)
        theta = 100.0 * theta
        keep, batches = kernel_batches(theta, layout, 0.05)
        counts = keep.sum(axis=1)
        assert sum(len(batch) > 1 for batch in batches) >= 2
        assert len(np.unique(counts)) > 1
        seq, *par = [evaluate_objective(theta, design, labels0, 0.05, want_assign=True,
                                        threads=threads, layout=layout)
                     for threads in (1, 2, 3)]
        # only the kept pairs are computed, fewer than the dense ones
        assert seq.pairs == int(counts @ np.diff(layout.bounds)) < len(labels0) * 6
        for res in par:
            assert res.phi == seq.phi
            assert np.array_equal(res.grad, seq.grad)
            assert res.err == seq.err
            assert res.e0 == seq.e0


class TestSeparated:
    """``EvalResult.separated``: p_g0 > 1/2 at every pixel, i.e. the floored
    weight e_g0 of the true label exceeds the sum of the others."""

    @staticmethod
    def problem_with(problem, own):
        """The problem, with its labels replaced by theta's own arg-min if ``own``."""
        theta, grid, design, labels0 = problem
        if own:  # separable labels, so that the flag is also drawn true
            labels0 = pg.argmin_labels(cost_matrix(theta, design)) - 1
        return theta, grid, design, labels0

    @needs_longdouble
    @settings(max_examples=150, deadline=None)
    @given(problem=tiled_problems(), eps=st.sampled_from([1e-3, 1e-2, 0.3, 1.0]),
           side=st.integers(1, 6), own=st.booleans())
    def test_matches_the_dense_longdouble_majority(self, problem, eps, side, own):
        # The log-odds log p_g0 - log(1 - p_g0) of each pixel from the dense costs
        # in np.longdouble; the flag is that their least is positive. The kernel's
        # costs round by about K 2^-53 of |theta|'|eta|, so its z by that over eps:
        # a draw whose least log-odds lies within 2^-40 (1 + 2 |theta|'|eta| / eps)
        # of zero is skipped.
        theta, grid, design, labels0 = self.problem_with(problem, own)
        c = theta.values.astype(np.longdouble).T @ design.values.astype(np.longdouble)
        cols = np.arange(len(grid))
        z = (c.min(axis=0) - c) / np.longdouble(eps)
        z_g0 = z[labels0, cols]
        z[labels0, cols] = -np.inf
        top = z.max(axis=0)  # the others' largest exponent
        log_odds = z_g0 - (top + np.log(np.exp(z - top).sum(axis=0)))
        size = (np.abs(theta.values).T @ np.abs(design.values)).max()
        band = 2.0 ** -40 * (1.0 + 2.0 * size / eps)
        assume(abs(float(log_odds.min())) > band)
        res = evaluate_tiled(theta.values, theta.basis, grid.points, design.values, labels0,
                             eps, side)
        assert res.separated == bool(log_odds.min() > 0)

    @settings(max_examples=150, deadline=None)
    @given(problem=tiled_problems(), eps=st.sampled_from([1e-3, 1e-2, 0.3, 1.0]),
           side=st.integers(1, 6), own=st.booleans(), exponent=st.sampled_from([-600, 600]))
    def test_power_of_two_scaling_keeps_the_flag(self, problem, eps, side, own, exponent):
        # (eps, theta) and (2^k eps, 2^k theta) give the same exponents z, bit for
        # bit, and so the same flag. phi may differ by a floored weight, about
        # 1e-304: the tile certificate's tie tolerance has an absolute floor, so
        # a tile may keep a grain at one scale that it drops at the other.
        theta, grid, design, labels0 = self.problem_with(problem, own)
        unit, scaled = (evaluate_tiled(np.ldexp(theta.values, k), theta.basis, grid.points,
                                       design.values, labels0, math.ldexp(eps, k), side)
                        for k in (0, exponent))
        assert scaled.separated == unit.separated

    @pytest.mark.parametrize("exponent", [0, -600, 600])
    def test_the_exact_theta_separates_its_map(self, exponent):
        # A power-diagram map and its exact theta: every pixel's true grain has
        # p_g0 > 1/2 at a small eps, and at a large one some pixel's does not.
        gm, theta, design = TestCurvature.separable_problem()
        flags = [evaluate_tiled(np.ldexp(theta.values, exponent), theta.basis, gm.grid.points,
                                design.values, gm.labels - 1, math.ldexp(eps, exponent),
                                3).separated for eps in (1e-4, 1.0)]
        assert flags == [True, False]


class TestTileRows:
    """Each tile maps its true labels to rows among its kept grains only when its
    batch runs; the map is the cumulative count of the tile's keep mask."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_grains=st.integers(2, 40),
           share=st.sampled_from([0.05, 0.5, 0.95, 1.0]))
    def test_label_rows_equal_the_cumsum_slots(self, seed, n_grains, share):
        rng = np.random.default_rng(seed)
        bounds = np.unique(np.concatenate([[0, 200], rng.integers(1, 200, size=10)]))
        keep = rng.random((len(bounds) - 1, n_grains)) < share
        keep[np.arange(len(keep)), rng.integers(n_grains, size=len(keep))] = True
        slots = np.cumsum(keep, axis=1) - 1
        batches = objective_module._batches(objective_module.TileLayout(None, bounds), keep)
        assert sum(map(len, batches)) == len(keep)
        slot = np.full(n_grains, -1)  # scratch shared by the tiles, as in a batch
        for sl, rows in itertools.chain.from_iterable(batches):
            t = int(np.searchsorted(bounds, sl.start))
            assert np.array_equal(rows, np.flatnonzero(keep[t]))  # all N where it keeps all
            labels = rng.choice(np.flatnonzero(keep[t]), size=sl.stop - sl.start)
            assert np.array_equal(objective_module._label_rows(rows, labels, slot),
                                  slots[t, labels])


class TestKernelMemory:
    """The N x chunk buffer is sized by bytes, so the kernel's memory is bounded
    whatever the number of grains."""

    N_GRAINS = 2000
    LIMIT = 16 * 2 ** 20

    @pytest.fixture
    def problem(self, rng):
        grid = pg.make_grid(64)  # 16384 pixels
        basis = pg.DesignBasis(pg.LEGENDRE, 2)  # K = 6
        design = pg.assemble_design_matrix(basis, grid)
        theta = pg.ParamMatrix(rng.normal(size=(basis.dimension, self.N_GRAINS)), basis)
        labels0 = rng.integers(0, self.N_GRAINS, size=len(grid))
        return theta, grid, design, labels0

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_evaluation_peak_is_bounded(self, problem):
        theta, grid, design, labels0 = problem
        # the kernel's 8 x 8 tiles, and one cell cut into runs of chunk_width(N)
        for side in (None, 1):
            d, g0, layout = tiled(theta.basis, grid.points, design.values, labels0,
                                  self.N_GRAINS, side)
            peak = self.peak_bytes(lambda: evaluate_objective(
                theta.values, d, g0, 0.1, want_grad=True, want_assign=True, threads=1,
                layout=layout))
            assert peak < self.LIMIT

    def test_batched_evaluation_peak_is_bounded(self, problem):
        theta, grid, design, _ = problem
        theta = replace(theta, values=100.0 * theta.values)  # tiles keep about 15 grains
        labels0 = pg.hard_assign(theta, grid, design) - 1
        d, g0, layout = tiled(theta.basis, grid.points, design.values, labels0, self.N_GRAINS)
        _, batches = kernel_batches(theta.values, layout, 0.1)
        assert sum(len(batch) > 1 for batch in batches) >= 2
        peak = self.peak_bytes(lambda: evaluate_objective(
            theta.values, d, g0, 0.1, want_grad=True, want_assign=True, threads=1,
            layout=layout))
        assert peak < self.LIMIT

    def test_hard_assign_peak_is_bounded(self, problem):
        theta, grid, design, _ = problem
        peak = self.peak_bytes(lambda: pg.hard_assign(theta, grid, design))
        assert peak < self.LIMIT

    def test_library_evaluation_holds_no_second_design(self, rng):
        # objective and gradient read the caller's design through the tile
        # order: their peak, without the design, is below one design of K x n
        gm = pg.generate_apd(random_apd(rng, 50), pg.make_grid(100))  # 40,000 points
        theta = random_theta(rng, 4, 50)  # K = 15
        design = pg.assemble_design_matrix(theta.basis, gm.grid)
        for fn in (pg.objective, pg.gradient):
            peak = self.peak_bytes(lambda: fn(theta, design, gm, 0.01))
            assert peak < design.values.nbytes

    @pytest.mark.parametrize("n_grains", [250, 1000])
    def test_hard_assign_peak_is_its_labels_order_and_two_chunks(self, n_grains):
        # a diagram's labels on 40,000 points, as generate makes them; the bound
        # has no N in it: no tiles x N integer table, no point-sized temporary
        theta = pg.apd_to_theta(random_apd(np.random.default_rng(7), n_grains))
        grid = pg.make_grid(100)
        peak = self.peak_bytes(lambda: pg.hard_assign(theta, grid))
        assert peak <= 2 * 8 * len(grid) + 2 * objective_module.CHUNK_BYTES


def thread_problem(rng, m=64, tile_pixels=128):
    """(theta, design, 0-based labels, layout) for a 4M^2-pixel diagram map of six
    grains, in square tiles of about ``tile_pixels`` pixels. At the default size
    an evaluation makes more than one kernel batch."""
    gm = random_grain_map(rng, m, 6)
    basis = pg.DesignBasis(pg.LEGENDRE, 2)
    design = pg.assemble_design_matrix(basis, gm.grid)
    side = math.ceil(math.sqrt(len(gm) / tile_pixels))
    return (random_theta(rng, 2, 6, scale=3.0).values,
            *tiled(basis, gm.grid.points, design.values, gm.labels - 1, 6, side))


class TestThreadPath:
    @pytest.mark.parametrize("tile_pixels", [128, 1024])
    def test_every_thread_count_is_bit_identical(self, rng, tile_pixels):
        theta, design, labels0, layout = thread_problem(rng, tile_pixels=tile_pixels)
        # at the larger scale the tiles drop grains, each tile its own
        for values in (theta, 100.0 * theta):
            seq, *par = [evaluate_objective(values, design, labels0, 0.05, want_assign=True,
                                            threads=threads, layout=layout)
                         for threads in (1, 2, 3)]
            for res in par:
                assert res.phi == seq.phi
                assert np.array_equal(res.grad, seq.grad)
                assert res.err == seq.err
                assert res.e0 == seq.e0

    def test_evaluations_and_fits_start_no_thread(self, rng, monkeypatch):
        theta, design, labels0, layout = thread_problem(rng)
        assert len(kernel_batches(theta, layout, 0.1)[1]) > 1
        callers = set()
        chunk_stats = objective_module._chunk_stats

        def spy(*args):
            callers.add(threading.current_thread())
            return chunk_stats(*args)

        monkeypatch.setattr(objective_module, "_chunk_stats", spy)
        before = threading.active_count()
        evaluate_objective(theta, design, labels0, 0.1, threads=2, layout=layout)
        pg.fit(random_grain_map(rng, 16, 6), pg.FitConfig(degree=2, max_iters=3))
        assert threading.active_count() == before
        assert callers == {threading.current_thread()}  # every batch on the caller's thread
