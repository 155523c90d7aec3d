import math

import numpy as np
import pytest

import polygrain as pg
from polygrain.optimizer import LineEval, line_search
from conftest import random_labels_map, random_pd
from reference import soft_assign


class TestLineSearch:
    @staticmethod
    def make_eval(f, df):
        def evaluate(t):
            return LineEval(phi=f(t), slope=df(t), payload=t)
        return evaluate

    def test_unit_step_accepted_on_quadratic(self):
        # concave quadratic with maximiser at t=1: the natural quasi-Newton step
        f = lambda t: -0.5 * (t - 1.0) ** 2
        df = lambda t: -(t - 1.0)
        t, ev = line_search(self.make_eval(f, df), phi0=f(0.0), slope0=df(0.0), t0=1.0)
        assert t == 1.0
        assert ev.payload == 1.0

    def test_sufficient_increase_holds(self, rng):
        for _ in range(10):
            a = float(rng.uniform(0.5, 4.0))
            tstar = float(rng.uniform(0.2, 6.0))
            f = lambda t: -a * (t - tstar) ** 2
            df = lambda t: -2 * a * (t - tstar)
            phi0, slope0 = f(0.0), df(0.0)
            t, ev = line_search(self.make_eval(f, df), phi0, slope0)
            assert t > 0.0
            assert ev.phi >= phi0 + 1e-4 * t * slope0
            assert abs(ev.slope) <= 0.9 * slope0

    def test_rejects_descent_direction(self):
        f = lambda t: -t
        df = lambda t: -1.0
        with pytest.raises(ValueError):
            line_search(self.make_eval(f, df), phi0=0.0, slope0=-1.0)

    def test_failure_returns_zero(self):
        # pathological oscillation starving the evaluation budget
        f = lambda t: 1e-12 * math.sin(1e6 * t)
        df = lambda t: 1e-6 * math.cos(1e6 * t)
        t, ev = line_search(self.make_eval(f, df), phi0=0.0, slope0=1e-6, max_evals=3)
        assert t == 0.0 and ev is None

    def test_monotone_increasing_function_expands(self):
        # saturating increase: curvature condition met after expansion
        f = lambda t: math.log1p(t)
        df = lambda t: 1.0 / (1.0 + t)
        t, ev = line_search(self.make_eval(f, df), phi0=0.0, slope0=1.0)
        assert t > 0.0
        assert abs(ev.slope) <= 0.9


class TestInitZero:
    def test_uniform_soft_assignment(self, rng):
        theta = pg.init_zero(2, 5, pg.LEGENDRE)
        gm = random_labels_map(rng, 4, 5)
        design = pg.assemble_design_matrix(theta.basis, gm.grid)
        p = soft_assign(theta, design, 1e-2)
        assert np.all(p == 0.2)

    def test_objective_is_minus_log_n(self, rng):
        theta = pg.init_zero(1, 7, pg.LEGENDRE)
        gm = random_labels_map(rng, 4, 7)
        design = pg.assemble_design_matrix(theta.basis, gm.grid)
        assert pg.objective(theta, design, gm, 1e-2) == pytest.approx(-math.log(7), abs=1e-12)

    def test_gradient_columns_sum_to_zero(self, rng):
        theta = pg.init_zero(1, 4, pg.LEGENDRE)
        gm = random_labels_map(rng, 4, 4)
        design = pg.assemble_design_matrix(theta.basis, gm.grid)
        free = pg.ParamMatrix(theta.values, theta.basis, gauge=pg.GAUGE_FREE)
        grad = pg.gradient(free, design, gm, 1e-2)
        assert np.abs(grad.sum(axis=1)).max() <= 1e-12


class TestFit:
    def test_one_pixel_two_grain_problem(self):
        grid = pg.PixelGrid(points=np.array([[0.3, -0.2]]))
        gm = pg.GrainMap(grid=grid, labels=np.array([1]), n_grains=2)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=200, eps=0.5))
        assert rep.err_final == 0.0
        assert rep.phi_traj[0] == pytest.approx(-math.log(2), abs=1e-14)
        # monotone ascent towards zero
        assert all(b >= a for a, b in zip(rep.phi_traj, rep.phi_traj[1:]))
        assert rep.phi_final > -1e-6

    def test_gauge_column_exactly_zero(self, rng):
        gm = random_labels_map(rng, 5, 4)
        rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=40))
        assert rep.gauge_residual == 0.0
        assert np.all(rep.theta.values[:, -1] == 0.0)

    def test_monotone_phi_trajectory(self, rng):
        gm = random_labels_map(rng, 6, 5)
        rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=60))
        assert all(b >= a for a, b in zip(rep.phi_traj, rep.phi_traj[1:]))

    def test_err_final_complements_acc(self, rng):
        gm = random_labels_map(rng, 5, 3)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=30))
        assert rep.acc_final + rep.err_final == 1.0

    def test_deterministic_trajectories(self, rng):
        gm = random_labels_map(rng, 6, 4)
        cfg = pg.FitConfig(degree=2, max_iters=50)
        a = pg.fit(gm, cfg)
        b = pg.fit(gm, cfg)
        assert a.phi_traj == b.phi_traj
        assert a.err_traj == b.err_traj
        assert np.array_equal(a.theta.values, b.theta.values)

    def test_perfect_init_stays_perfect(self, rng):
        # scaled-up exact parameters: strong separation, so no pixel is ever
        # traded away while the objective keeps climbing towards zero
        pd = random_pd(rng, 6)
        gm = pg.generate_pd(pd, pg.make_grid(10))
        theta0 = pg.coeffs_to_basis(pg.pd_to_theta(pd), pg.LEGENDRE)
        strong = pg.ParamMatrix(5.0 * theta0.values, theta0.basis, gauge=theta0.gauge)
        cfg = pg.FitConfig(degree=1, max_iters=30, eps=1e-2, init=strong)
        rep = pg.fit(gm, cfg)
        assert all(e == 0.0 for e in rep.err_traj)
        assert all(b >= a for a, b in zip(rep.phi_traj, rep.phi_traj[1:]))
        assert rep.phi_final > rep.phi_traj[0]
        assert rep.phi_final < 0.0

    def test_separable_runaway_stays_finite(self):
        # two pixels, two grains, trivially separable: iterates grow, never NaN
        grid = pg.PixelGrid(points=np.array([[-0.5, 0.0], [0.5, 0.0]]))
        gm = pg.GrainMap(grid=grid, labels=np.array([1, 2]), n_grains=2)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=2000, eps=0.5))
        assert np.all(np.isfinite(rep.theta.values))
        assert rep.err_final == 0.0

    def test_explicit_init_shape_mismatch(self, rng):
        gm = random_labels_map(rng, 4, 3)
        theta0 = pg.init_zero(2, 4, pg.LEGENDRE)
        with pytest.raises(ValueError):
            pg.fit(gm, pg.FitConfig(degree=2, max_iters=5, init=theta0))

    def test_eps_and_init_scale_equivalence(self, rng):
        gm = random_labels_map(rng, 5, 4)
        eps = 1e-2
        theta0 = pg.heuristic_theta(gm, 1, pg.LEGENDRE)
        scaled = pg.ParamMatrix(theta0.values / eps, theta0.basis, gauge=theta0.gauge)
        ra = pg.fit(gm, pg.FitConfig(degree=1, eps=eps, max_iters=50, init=theta0))
        rb = pg.fit(gm, pg.FitConfig(degree=1, eps=1.0, max_iters=50, init=scaled))
        assert ra.iters == rb.iters
        pa, pb = np.array(ra.phi_traj), np.array(rb.phi_traj)
        assert np.all(np.abs(pa - pb) <= 1e-10 * (1.0 + np.abs(pa)))

    def test_gradient_norm_decreases_with_budget(self, rng):
        # imperfect-reconstruction regime: a maximiser exists and is approached
        gm = random_labels_map(rng, 5, 4)
        design = pg.assemble_design_matrix(pg.DesignBasis.make(pg.LEGENDRE, 1), gm.grid)

        def grad_norm(iters):
            rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=iters, eps=0.5))
            g = pg.gradient(rep.theta, design, gm, 0.5)
            return float(np.linalg.norm(g[:, :-1]))

        assert grad_norm(120) < grad_norm(15)

    def test_bound_checks_recorded_true(self, rng):
        gm = random_labels_map(rng, 5, 4)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=40))
        assert rep.bound_phi_err_ok and rep.bound_energy_ok

    def test_record_every_thins_trajectory(self, rng):
        gm = random_labels_map(rng, 5, 4)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=20, record_every=5))
        assert rep.iters[0] == 0
        assert rep.iters[-1] == rep.iterations_run
        assert all(i % 5 == 0 or i == rep.iterations_run for i in rep.iters)

    def test_flags_non_spanning_design(self):
        # all pixels on a horizontal line: degree-1 features do not span
        pts = np.column_stack([np.linspace(-0.9, 0.9, 8), np.zeros(8)])
        grid = pg.PixelGrid(points=pts)
        labels = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        gm = pg.GrainMap(grid=grid, labels=labels, n_grains=2)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=20, eps=0.5))
        assert not rep.design_spans
        assert rep.err_final == 0.0  # fitting still works

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            pg.FitConfig(eps=0.0)
        with pytest.raises(ValueError):
            pg.FitConfig(max_iters=0)
        with pytest.raises(ValueError):
            pg.FitConfig(init="warm")
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads"):
                pg.FitConfig(threads=threads)
        with pytest.raises(ValueError, match="degree"):
            pg.FitConfig(degree=0)
