import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import polygrain as pg
from polygrain import cli, optimizer
from polygrain.objective import evaluate_objective
from polygrain.optimizer import LineEval, line_search
from conftest import random_apd, random_grain_map, random_labels_map, random_pd
from reference import accuracy_and_error, dense_curvature, soft_assign

# ``pg.objective`` is the function of that name; the module holds the tiles.
objective_module = sys.modules["polygrain.objective"]


def concave_rays():
    """(f, slope0): a ray of ``concave_rays_with_slopes`` with slope0 = f'(0) > 0."""
    return concave_rays_with_slopes().map(lambda ray: (ray[0], ray[1](0.0)))


def concave_rays_with_slopes():
    """(f, df): a concave function of the step t >= 0 with its exact slope df,
    df(0) > 0. A saturating b log(1 + k t), steep at large k, or a kinked c0 +
    min(a t, a c - b (t - c)), whose slope at the kink is either supergradient,
    or a quadratic with its maximiser at t* > 0."""
    saturating = st.builds(lambda b, k: (lambda t: b * math.log1p(k * t),
                                         lambda t: b * k / (1.0 + k * t)),
                           st.floats(1e-3, 1e3), st.floats(1e-3, 1e12))
    kinked = st.builds(lambda c0, a, b, c: (lambda t: c0 + (a * t if t < c else a * c - b * (t - c)),
                                            lambda t: a if t < c else -b),
                       st.floats(-1e3, 0.0), st.floats(1e-3, 1e3), st.floats(1e-3, 1e9),
                       st.floats(1e-9, 2.0))
    quadratic = st.builds(lambda a, t_star, c: (lambda t: c - a * (t - t_star) ** 2,
                                                 lambda t: -2.0 * a * (t - t_star)),
                          st.floats(1e-3, 1e3), st.floats(1e-6, 1e3), st.floats(-1e3, 0.0))
    return st.one_of(saturating, kinked, quadratic)


class TestLineSearch:
    @staticmethod
    def make_eval(f, trials, poison=None):
        """Records each trial step in ``trials``; the trials whose index is a key of
        ``poison`` read that value (NaN or -inf) instead of f."""
        def evaluate(t):
            trials.append(t)
            phi = (poison or {}).get(len(trials) - 1, f(t))
            return LineEval(phi=phi, payload=t)
        return evaluate

    def test_unit_step_accepted_on_quadratic(self):
        # concave quadratic with maximiser at t=1: the natural quasi-Newton step
        f = lambda t: -0.5 * (t - 1.0) ** 2
        t, ev = line_search(self.make_eval(f, []), phi0=f(0.0), slope0=1.0)
        assert t == 1.0
        assert ev.payload == 1.0

    @settings(max_examples=150, deadline=None)
    @given(ray=concave_rays(),
           poison=st.dictionaries(st.integers(0, 30), st.sampled_from([math.nan, -math.inf]),
                                  max_size=6))
    @example(ray=(lambda t: -0.5 * (t - 1.0) ** 2, 1.0), poison={0: math.nan, 1: -math.inf})
    # phi(1) > phi0, but by less than SUFFICIENT_INCREASE * slope0: t = 1 is refused
    @example(ray=(lambda t: -(t - 0.50004) ** 2, 1.00008), poison={})
    def test_sufficient_increase_holds(self, ray, poison):
        # Trials are 1, 1/2, 1/4, ... up to the first that meets sufficient
        # increase; a NaN or -inf trial fails it and is halved.
        f, slope0 = ray
        phi0, trials = f(0.0), []
        t, ev = line_search(self.make_eval(f, trials, poison), phi0, slope0)
        steps = [0.5 ** i for i in range(optimizer.MAX_LINE_EVALS)]
        meets = [i not in poison and f(s) >= phi0 + optimizer.SUFFICIENT_INCREASE * s * slope0
                 for i, s in enumerate(steps)]
        if any(meets):
            first = meets.index(True)
            assert (t, ev.payload) == (steps[first], steps[first])
            assert ev.phi >= phi0 + optimizer.SUFFICIENT_INCREASE * t * slope0
        else:
            assert (t, ev) == (0.0, None)
            first = optimizer.MAX_LINE_EVALS - 1
        assert trials == steps[: first + 1]

    def test_rejects_descent_direction(self):
        # A NaN or +inf slope would set a NaN or inf threshold that no trial meets.
        for slope0 in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                line_search(self.make_eval(lambda t: -t, []), phi0=0.0, slope0=slope0)

    def test_failure_returns_zero(self, monkeypatch):
        # phi never rises by the required amount: the search gives up after
        # MAX_LINE_EVALS trials, read when it is called
        f = lambda t: -t
        for cap in (optimizer.MAX_LINE_EVALS, 3):
            monkeypatch.setattr(optimizer, "MAX_LINE_EVALS", cap)
            trials = []
            t, ev = line_search(self.make_eval(f, trials), phi0=0.0, slope0=1.0)
            assert t == 0.0 and ev is None
            assert trials == [0.5 ** i for i in range(cap)]

    @settings(max_examples=300, deadline=None)
    @given(ray=concave_rays_with_slopes(), noise=st.floats(-1.0, 1.0),
           poison=st.dictionaries(st.integers(0, 30), st.sampled_from([math.nan, -math.inf]),
                                  max_size=4))
    # a -inf or NaN trial gives no tangent, even with a finite slope
    @example(ray=(lambda t: min(t, 1e-3 - 1e6 * (t - 1e-3)), lambda t: 1.0 if t < 1e-3 else -1e6),
             noise=1.0, poison={0: -math.inf, 1: math.nan})
    def test_tangents_skip_only_failing_trials(self, ray, noise, poison):
        # Each failed trial's tangent bounds the concave ray from above, so a
        # halving whose lowest tangent lies below the sufficient-increase line
        # by more than the slack fails, and is skipped. The search with slopes
        # returns what plain halving (NaN slopes) returns, and evaluates a
        # subsequence of its trials. phi carries a relative noise of up to
        # 2^-33 (|phi| + |phi0|), inside the slack; the trial of step 2^-i
        # reads poison[i] instead (NaN or -inf) with the exact slope.
        f, df = ray
        phi0, slope0 = f(0.0), df(0.0)

        def noisy(t):
            i = round(-math.log2(t))
            wobble = noise * math.ldexp(1.0, -33) * (-1) ** i
            return poison.get(i, f(t) + wobble * (abs(f(t)) + abs(phi0)))

        def make_eval(trials, slope):
            def evaluate(t):
                trials.append(t)
                return LineEval(phi=noisy(t), payload=t, slope=slope(t))
            return evaluate

        trials, plain_trials = [], []
        t, ev = line_search(make_eval(trials, df), phi0, slope0)
        t_plain, ev_plain = line_search(make_eval(plain_trials, lambda t: math.nan), phi0, slope0)
        assert (t, ev is None) == (t_plain, ev_plain is None)
        assert ev is None or ev.payload == ev_plain.payload == t
        steps = [0.5 ** i for i in range(optimizer.MAX_LINE_EVALS)]
        assert plain_trials == steps[: len(plain_trials)]
        assert set(trials) <= set(plain_trials) and trials == sorted(set(trials), reverse=True)
        for s in set(plain_trials) - set(trials):
            assert not noisy(s) >= phi0 + optimizer.SUFFICIENT_INCREASE * s * slope0

    def test_a_steep_drop_skips_to_the_kink(self):
        # phi = min(t, 1e-3 - 1e6 (t - 1e-3)) meets sufficient increase first at
        # t = 2^-10 < 1e-3. The tangent at t = 1 is the drop line itself, which
        # proves that 1/2 ... 2^-9 fail: the search evaluates 1 and 2^-10 only.
        f = lambda t: min(t, 1e-3 - 1e6 * (t - 1e-3))
        df = lambda t: 1.0 if t < 1e-3 else -1e6
        trials = []

        def evaluate(t):
            trials.append(t)
            return LineEval(phi=f(t), payload=t, slope=df(t))

        t, ev = line_search(evaluate, phi0=0.0, slope0=1.0)
        assert t == 0.5 ** 10 and ev.payload == t
        assert trials == [1.0, 0.5 ** 10]


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

    @staticmethod
    def near_tie_start():
        """A two-grain map of 32 points split by x1 = 0, and a start that separates
        it with log-odds 3e-9 at the point x1 = -1e-5 and over 3e-5 elsewhere."""
        rng = np.random.default_rng(0)
        x1 = np.concatenate([[-1e-5], rng.uniform(0.1, 1.0, 31) * rng.choice([-1, 1], 31)])
        grid = pg.PixelGrid(points=np.column_stack([x1, rng.uniform(-1.0, 1.0, 32)]))
        gm = pg.GrainMap(grid=grid, labels=np.where(x1 < 0.0, 1, 2), n_grains=2)
        basis = pg.DesignBasis(pg.LEGENDRE, 1)
        values = np.zeros((basis.dimension, 2))
        values[basis.position((1, 0)), 0] = 3e-9 / 1e-5  # c1 - c2 = 3e-4 x1
        return gm, pg.ParamMatrix(values, basis, pg.GAUGE_LAST_ZERO)

    @staticmethod
    def finish_steps(monkeypatch, gm, config):
        """The fit's report and the (u, t, u_new) of each of its line searches."""
        rays = []

        def spy(evaluate, phi0, slope0):
            t, accepted = line_search(evaluate, phi0, slope0)
            u = evaluate(0.0).payload[0]  # the start of the ray, after the search
            rays.append((u, t, accepted.payload[0]))
            return t, accepted

        monkeypatch.setattr(optimizer, "line_search", spy)
        return pg.fit(gm, config), rays

    @staticmethod
    def check_finish(rep, rays, n_pixels):
        """The finish of a fit: from its first separated iterate, no later than
        phi > -log2/n, each step is (f - 1) u, and err stays 0. Returns the
        (f, t) of each finish step."""
        certified = next(it for it, phi in zip(rep.iters, rep.phi_traj)
                         if phi > -math.log(2.0) / n_pixels)
        first = rep.separated_at
        assert rep.stop_reason == "near-optimal"
        assert first <= certified and rep.iterations_run - first <= 10
        assert rep.iters == list(range(rep.iterations_run + 1))
        assert all(e == 0.0 for e in rep.err_traj[first:])
        assert all(b >= a for a, b in zip(rep.phi_traj, rep.phi_traj[1:]))
        f, factors = 2.0, []
        for u, t, u_new in rays[first:]:
            factors.append((f, t))
            if t == 1.0:
                assert np.array_equal(u_new, f * u)
                f = min(f * f, optimizer.FINISH_CAP)
            else:
                assert np.array_equal(u_new, u + t * ((f - 1.0) * u))
                f = 2.0
        return factors

    def test_certified_fit_finishes_along_theta(self, monkeypatch):
        # Once p_g0 > 1/2 at every pixel, each step is (f - 1) u: t = 1 scales
        # theta by f, and f = 2, 4, 16, 256, ... squares after each such step. The
        # fit reaches the near-optimal stop, phi > -1e-12 log2/n, within a few
        # steps. From zero this pd map separates at iteration 21, two before
        # phi > -log2/n, and finishes with f = 2, 4 and 16.
        gm = benchmark_map("pd", 6, 12, 2, 0.0)
        rep, rays = self.finish_steps(monkeypatch, gm, pg.FitConfig(degree=1, max_iters=2000))
        factors = self.check_finish(rep, rays, len(gm))
        assert factors[:3] == [(2.0, 1.0), (4.0, 1.0), (16.0, 1.0)]

    def test_the_finish_factor_is_two_after_a_shorter_step(self, monkeypatch):
        # From the near-tie start t = 1 fails at f = 65536: the finish accepts
        # t = 1/8 there, and its next step has f = 2 again.
        gm, theta0 = self.near_tie_start()
        rep, rays = self.finish_steps(monkeypatch, gm, pg.FitConfig(
            degree=1, eps=1.0, max_iters=2000, init=theta0))
        factors = self.check_finish(rep, rays, len(gm))
        assert rep.separated_at == 0
        short = next(i for i, (_, t) in enumerate(factors) if t < 1.0)
        assert factors[short + 1][0] == 2.0

    def test_the_finish_factor_stops_at_its_cap(self, monkeypatch):
        # At FINISH_CAP = 2^64 a fit meets the stop before f gets there: f reaches
        # 2^64 after steps that scale theta by 2^63, which turn the least log-odds
        # that p_g0 > 1/2 allows, about 2^-53, into a loss far below the stop. So
        # the cap is lowered to 4: from the near-tie start f stays at 4 for 17
        # steps, and theta grows by 4 at each, to a finite near-optimal stop.
        monkeypatch.setattr(optimizer, "FINISH_CAP", 4.0)
        gm, theta0 = self.near_tie_start()
        rep, rays = self.finish_steps(monkeypatch, gm, pg.FitConfig(
            degree=1, eps=1.0, max_iters=2000, init=theta0))
        assert rep.separated_at == 0 and rep.stop_reason == "near-optimal"
        assert np.all(np.isfinite(rep.theta.values))
        assert len(rays) == rep.iterations_run >= 10
        for i, (u, t, u_new) in enumerate(rays):
            assert t == 1.0 and np.array_equal(u_new, (4.0 if i else 2.0) * u)

    def test_curvature_builds_follow_the_memory(self, rng, monkeypatch):
        # H0 is first built when the memory holds a pair, at iteration 2, and then
        # every CURVATURE_EVERY accepted iterations; a one-iteration fit builds none.
        # The kernel runs once per theta: a build takes M from the evaluation that
        # accepted theta, and the last iteration's trials ask for none. Every M
        # that H0 is built from is the very object of a kernel result that was
        # asked for it.
        calls, real = [], optimizer.evaluate_objective  # want_curvature of each call
        curvs, built, real_h0 = [], [], optimizer.initial_matrix  # M sent, M built from

        def counted(*args, **kwargs):
            calls.append(kwargs.get("want_curvature", False))
            res = real(*args, **kwargs)
            if calls[-1]:
                curvs.append(res.curvature)
            return res

        def build(curv, bound):
            built.append(curv)
            return real_h0(curv, bound)

        monkeypatch.setattr(optimizer, "evaluate_objective", counted)
        monkeypatch.setattr(optimizer, "initial_matrix", build)
        gm = random_labels_map(rng, 6, 5)
        for iters, builds in [(1, 0), (2, 1), (optimizer.CURVATURE_EVERY + 1, 1),
                              (optimizer.CURVATURE_EVERY + 2, 2)]:
            for log in (calls, curvs, built):
                log.clear()
            rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=iters))
            assert rep.iterations_run == iters and rep.curvature_passes == builds
            assert len(calls) == rep.evaluations
            assert sum(calls) >= rep.curvature_passes and (iters > 1 or not any(calls))
            assert len(built) == builds
            assert all(any(curv is c for c in curvs) for curv in built)

    def test_explicit_init_shape_mismatch(self, rng):
        gm = random_labels_map(rng, 4, 3)
        theta0 = pg.init_zero(2, 4, pg.LEGENDRE)
        with pytest.raises(ValueError):
            pg.fit(gm, pg.FitConfig(degree=2, max_iters=5, init=theta0))

    def test_explicit_init_of_another_basis_is_rejected_before_the_design(self, rng,
                                                                         monkeypatch):
        # Nothing the size of the map is built for an input error: on a map whose
        # design cannot be allocated it would surface as a ResourceError instead.
        calls = []

        def spy(name):
            real = getattr(optimizer, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("tile_layout", "assemble_design_matrix"):
            monkeypatch.setattr(optimizer, name, spy(name))
        gm = random_labels_map(rng, 4, 3)
        for theta0, degree, kind in [(pg.init_zero(2, 3, pg.LEGENDRE), 1, pg.LEGENDRE),
                                     (pg.init_zero(1, 3, pg.MONOMIAL), 1, pg.LEGENDRE)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"parameter basis ({theta0.basis.kind}, d={theta0.degree}) does not "
                    f"match design basis ({kind}, d={degree})")):
                pg.fit(gm, pg.FitConfig(degree=degree, basis_kind=kind, max_iters=5,
                                        init=theta0))
        assert calls == []
        pg.fit(gm, pg.FitConfig(degree=1, max_iters=1, init=pg.init_zero(1, 3, pg.LEGENDRE)))
        assert calls == ["tile_layout", "assemble_design_matrix"]

    def test_eps_and_init_scale_equivalence(self, rng):
        # Phi(theta; eps) == Phi(theta/eps; 1): both runs follow one trajectory.
        # Once they have converged, rounding decides at which iteration the line
        # search of each one fails, so the stop iterations may differ.
        eps = 1e-2
        for map_rng in [rng, *map(np.random.default_rng, range(8))]:
            gm = random_labels_map(map_rng, 5, 4)
            theta0 = pg.heuristic_theta(gm, 1, pg.LEGENDRE)
            scaled = pg.ParamMatrix(theta0.values / eps, theta0.basis, gauge=theta0.gauge)
            ra = pg.fit(gm, pg.FitConfig(degree=1, eps=eps, max_iters=50, init=theta0))
            rb = pg.fit(gm, pg.FitConfig(degree=1, eps=1.0, max_iters=50, init=scaled))
            phi_a, phi_b = dict(zip(ra.iters, ra.phi_traj)), dict(zip(rb.iters, rb.phi_traj))
            common = sorted(phi_a.keys() & phi_b.keys())
            pa, pb = np.array([phi_a[i] for i in common]), np.array([phi_b[i] for i in common])
            assert np.all(np.abs(pa - pb) <= 1e-10 * (1.0 + np.abs(pa)))
            if ra.iterations_run != rb.iterations_run:
                first, other = sorted([ra, rb], key=lambda r: r.iterations_run)
                assert first.stop_reason == "line-search"
                assert first.iters == list(range(first.iterations_run + 1))
                want = dict(zip(other.iters, other.phi_traj))[first.iterations_run]
                assert abs(first.phi_traj[-1] - want) <= 1e-10 * abs(want)

    @staticmethod
    def check_power_of_two_eps(exponent, init, max_iters):
        # The fit at eps = 2^e from theta0 scaled by 2^e is the eps = 1 fit from
        # theta0 with theta scaled by 2^e, bit for bit, through its curvature
        # builds, its scale step and its finish along theta. Its gradients are
        # 2^-e times the unit fit's, so |g|^2 would overflow at e = -600 and
        # underflow to zero at e = 600.
        # err is not compared: the assignment's tie threshold has an absolute floor.
        gm = benchmark_map("pd", 8, 8, 3, 0.0)
        theta0 = pg.init_zero(1, gm.n_grains)
        if init == "heuristic":
            theta0 = pg.heuristic_theta(gm, 1, pg.LEGENDRE)
            theta0 = pg.ParamMatrix(np.ldexp(theta0.values, 7), theta0.basis, theta0.gauge)
        scaled = pg.ParamMatrix(np.ldexp(theta0.values, exponent), theta0.basis, theta0.gauge)
        unit = pg.fit(gm, pg.FitConfig(degree=1, eps=1.0, max_iters=max_iters, init=theta0))
        rep = pg.fit(gm, pg.FitConfig(degree=1, eps=math.ldexp(1.0, exponent),
                                      max_iters=max_iters, init=scaled))
        assert unit.n_empty_grains == 0 and unit.stop_reason == rep.stop_reason == "near-optimal"
        assert unit.curvature_passes == rep.curvature_passes > 0
        assert unit.scale_steps == rep.scale_steps == (init == "heuristic")
        assert (unit.evaluations, unit.skipped_trials) == (rep.evaluations, rep.skipped_trials)
        assert rep.iters == unit.iters and rep.phi_traj == unit.phi_traj
        assert np.array_equal(rep.theta.values, np.ldexp(unit.theta.values, exponent))

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_power_of_two_eps_follows_the_unit_fit(self, exponent):
        # The fit stops at iteration 25; the budget is about 1.2 times that.
        self.check_power_of_two_eps(exponent, "zero", 30)

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_power_of_two_eps_follows_the_unit_fit_from_a_sharp_start(self, exponent):
        # The heuristic start is scaled by 2^7, as if at eps = 2^-7: too sharp,
        # so the first build shrinks it along its ray with a scale step. The fit
        # stops at iteration 29 (1-4 BLAS threads, the ridge scaled by
        # 1 + 1e-15 ... 1 + 1e-6); the budget is about 1.2 times that.
        self.check_power_of_two_eps(exponent, "heuristic", 35)

    def test_gradient_norm_decreases_with_budget(self, rng):
        # imperfect-reconstruction regime: a maximiser exists and is approached
        gm = random_labels_map(rng, 5, 4)
        design = pg.assemble_design_matrix(pg.DesignBasis(pg.LEGENDRE, 1), gm.grid)

        def grad_norm(iters):
            rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=iters, eps=0.5))
            g = pg.gradient(rep.theta, design, gm, 0.5)
            return float(np.linalg.norm(g[:, :-1]))

        assert grad_norm(12) < grad_norm(3)

    def test_bound_checks_recorded_true(self, rng):
        gm = random_labels_map(rng, 5, 4)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=40))
        assert rep.bound_phi_err_ok and rep.bound_energy_ok

    def test_flags_non_spanning_design(self):
        # all pixels on a horizontal line: degree-1 features do not span
        pts = np.column_stack([np.linspace(-0.9, 0.9, 8), np.zeros(8)])
        grid = pg.PixelGrid(points=pts)
        labels = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        gm = pg.GrainMap(grid=grid, labels=labels, n_grains=2)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=20, eps=0.5))
        assert not rep.design_spans
        assert rep.err_final == 0.0  # fitting still works

    def test_peak_is_the_design_and_the_map_sized_arrays(self):
        # The many-grains benchmark map: 160,000 points, 93 of 200 grains own
        # pixels. Beyond its input the fit holds the K x n design, its labels,
        # the layout's order while the design is assembled, and two chunks.
        gm = pg.generate_apd(random_apd(np.random.default_rng(5), 200), pg.make_grid(200))
        config = pg.FitConfig(degree=2, max_iters=2, init="heuristic")
        tracemalloc.start()
        try:
            pg.fit(gm, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        design = 6 * len(gm) * 8
        assert peak <= design + 2 * 8 * len(gm) + 2 * objective_module.CHUNK_BYTES

    def test_invalid_config_rejected(self):
        for eps in (0.0, math.nan, math.inf, 5e-324):  # 1/5e-324 overflows
            with pytest.raises(ValueError):
                pg.FitConfig(eps=eps)
        with pytest.raises(ValueError):
            pg.FitConfig(max_iters=0)
        with pytest.raises(ValueError):
            pg.FitConfig(init="warm")
        with pytest.raises(ValueError, match="degree"):
            pg.FitConfig(degree=0)


class TestInitialMatrix:
    """H0 = (M_free + lam B)^-1 on the free columns, where B is Boehning's bound
    diag(sum_x eta_k^2 / n) kron (I - 11'/N'), cut to the diagonal of the design
    Gram matrix. A system with 8 (K (N'-1))^2 <= CHUNK_BYTES / 4 bytes is factored
    and applied exactly; a larger one by block-Jacobi PCG. Each inversion case
    checks both paths (``on_both_paths``)."""

    @staticmethod
    def dense_bound(bound, kept):
        """B, the (K, N' - 1) row-major order of the free coefficients."""
        k_dim, free = len(bound), kept - 1
        dense = np.kron(np.eye(free) - 1.0 / kept, np.diag(bound))  # grain-major
        to_row_major = np.arange(k_dim * free).reshape(free, k_dim).T.ravel()
        return dense[np.ix_(to_row_major, to_row_major)]

    @staticmethod
    def zero_curvature(kept, k_dim):
        return objective_module.Curvature(np.zeros((kept, k_dim, k_dim)),
                                          np.zeros((0, 2), dtype=np.intp),
                                          np.zeros((0, k_dim, k_dim)))

    @staticmethod
    def factored_sizes(monkeypatch):
        """The orders of the matrices that ``initial_matrix`` factors, as they are factored."""
        sizes, cholesky = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: sizes.append(len(a)) or cholesky(a))
        return sizes

    @classmethod
    def on_both_paths(cls, monkeypatch, curv, bound):
        """H0 built under a byte budget of 0, which admits no dense system (PCG),
        and of 2^40, which admits any (factored)."""
        factored, h0s = cls.factored_sizes(monkeypatch), []
        for budget in (0, 1 << 40):
            monkeypatch.setattr(optimizer, "CHUNK_BYTES", budget)
            h0s.append(optimizer.initial_matrix(curv, bound))
        assert len(factored) == 1
        return h0s

    @pytest.mark.parametrize("kept", [2, 3, 6])
    def test_inverts_the_gauge_fixed_bound(self, rng, kept, monkeypatch):
        # M_free = 0: lam = 1 and H0 = B^-1. Block-Jacobi preconditioned, B has
        # two distinct eigenvalues, so PCG is exact after two steps.
        basis = pg.DesignBasis(pg.LEGENDRE, 2)
        grid = pg.make_grid(3)
        bound = (pg.assemble_design_matrix(basis, grid).values ** 2).sum(axis=1) / len(grid)
        curv = self.zero_curvature(kept, basis.dimension)
        v = rng.normal(size=basis.dimension * (kept - 1))
        for h0 in self.on_both_paths(monkeypatch, curv, bound):
            np.testing.assert_allclose(h0(self.dense_bound(bound, kept) @ v), v, rtol=1e-12,
                                       atol=1e-12 * np.abs(v).max())

    @pytest.mark.parametrize("kept", [2, 3])
    def test_inverts_curvature_plus_ridge(self, rng, kept, monkeypatch):
        # K (N' - 1) <= PCG_STEPS unknowns: PCG is exact up to rounding.
        gm = random_grain_map(rng, 6, kept)
        basis = pg.DesignBasis(pg.LEGENDRE, 1)
        design = pg.assemble_design_matrix(basis, gm.grid).values
        theta = rng.normal(0.0, 0.05, (basis.dimension, kept))
        layout = objective_module.tile_layout(basis, gm.grid.points, kept, gm.labels - 1)
        curv = evaluate_objective(theta, design, gm.labels - 1, 0.1, want_grad=False,
                                  want_curvature=True, layout=layout).curvature
        bound = (design ** 2).sum(axis=1) / len(gm)
        k_dim, free = basis.dimension, kept - 1
        assert k_dim * free <= optimizer.PCG_STEPS
        m_free = dense_curvature(curv)[: k_dim * free, : k_dim * free]
        to_row_major = np.arange(k_dim * free).reshape(free, k_dim).T.ravel()
        m_free = m_free[np.ix_(to_row_major, to_row_major)]
        b = self.dense_bound(bound, kept)
        lam = optimizer.RIDGE * np.trace(m_free) / np.trace(b)
        v = rng.normal(size=k_dim * free)
        for h0 in self.on_both_paths(monkeypatch, curv, bound):
            np.testing.assert_allclose(h0((m_free + lam * b) @ v), v, rtol=1e-8,
                                       atol=1e-8 * np.abs(v).max())

    @pytest.mark.parametrize("map_args, k_dim, size, dense", [
        (("pd", 20, 50, 11, 0.0), 3, 57, True),
        (("apd", 20, 50, 23, 0.3), 6, 108, True),
        (("apd", 200, 200, 5, 0.3), 6, 552, False),
    ], ids=["pd-recovery", "apd-heuristic", "many-grains"])
    def test_the_benchmark_maps_choose_by_size(self, monkeypatch, map_args, k_dim, size, dense):
        # K (N'-1) on each benchmark map; the dense path admits up to 181.
        gm = benchmark_map(*map_args)
        kept = np.count_nonzero(np.bincount(gm.labels, minlength=gm.n_grains + 1)[1:-1]) + 1
        assert k_dim * (kept - 1) == size
        factored = self.factored_sizes(monkeypatch)
        optimizer.initial_matrix(self.zero_curvature(kept, k_dim), np.ones(k_dim))
        assert factored == ([size] if dense else [])

    def test_a_dense_build_at_the_size_rule_peaks_within_a_chunk(self, monkeypatch):
        # K (N'-1) = 181 is the largest system that 8 (K (N'-1))^2 <= CHUNK_BYTES / 4
        # admits: A, its factor and W = L^-1 are three squares of 262 KB. One more
        # unknown takes the PCG path.
        factored = self.factored_sizes(monkeypatch)
        tracemalloc.start()
        try:
            optimizer.initial_matrix(self.zero_curvature(182, 1), np.ones(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factored == [181] and peak <= objective_module.CHUNK_BYTES
        optimizer.initial_matrix(self.zero_curvature(183, 1), np.ones(1))
        assert factored == [181]


class TestMemoryRestart:
    def test_restart_takes_the_scaled_gradient_step(self, monkeypatch):
        # Scripted gradients at the evaluations 0, 1, 2, ... (grain 1's column):
        # the first step lands at s = g0/|g0|^2 = (1e-100, 0, 0) with y = g0 - g1
        # and s'y = 1. At iteration 2 the fit builds H0 at u = s, from the M that
        # iteration 1's trial brought from there (``seen`` counts every trial), where both
        # grains have p = 1/2 at each of the 16 pixels: M_free = diag(4, 5/4, 5/4),
        # B = diag(1, 5/16, 5/16) / 2 and lam = 3e-3 tr M_free / tr B = 0.024, so the
        # factored H0 is exactly diag(1/4.012, 1/1.25375, 1/1.25375), about
        # diag(1/4, 4/5, 4/5). The memory direction
        # r = (s'y / y'H0y) H0 g1 is about (0, 3.2e-300, 0), whose slope
        # g1'r = 3.2e-400 underflows to zero: not an ascent direction, so the fit
        # clears its memory and steps to u + g1/|g1|^2.
        grads = [np.array([1e100, 0.0, 0.0]), np.array([0.0, 1e-100, 0.0]),
                 np.array([0.0, 0.5e-100, 0.0])]
        seen = []

        def scripted(theta, *args, **kwargs):
            curv = None  # M for the next build comes with the trial: the real kernel's
            if kwargs["want_curvature"]:
                curv = evaluate_objective(theta, *args, want_grad=False, want_curvature=True,
                                          layout=kwargs["layout"]).curvature
            g = grads[min(len(seen), len(grads) - 1)]
            seen.append(theta[:, 0].copy())
            return objective_module.EvalResult(phi=-0.5, grad=np.column_stack([g, -g]),
                                               err=0.5, e0=0.0, pairs=0, curvature=curv)

        monkeypatch.setattr(optimizer, "evaluate_objective", scripted)
        monkeypatch.setattr(optimizer, "line_search",
                            lambda evaluate, phi0, slope0: (1.0, evaluate(1.0)))
        grid = pg.make_grid(2)
        gm = pg.GrainMap(grid=grid, labels=np.where(grid.points[:, 0] < 0.0, 1, 2),
                         n_grains=2)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=3))
        u1 = grads[0] / float(grads[0] @ grads[0])
        assert np.array_equal(seen[1], u1)
        assert np.array_equal(seen[2], u1 + grads[1] / float(grads[1] @ grads[1]))
        assert rep.stop_reason == "budget" and rep.curvature_passes == 1
        assert rep.iterations_run == 3 and len(seen) == 4
        assert rep.iters == list(range(rep.iterations_run + 1))


class TestScaleStep:
    """At each build of H0 the fit also takes the Newton step sigma on
    sigma -> Phi(e^sigma theta) when g'u < 0 and its gain beats the
    quasi-Newton step's: the direction is (e^sigma - 1) u, sigma in [-1, 0)."""

    @staticmethod
    def spy(monkeypatch):
        """(sigma, gain) of each scale step considered, and (u, t, u_new) of each search."""
        rays, searches, real = [], [], optimizer.scale_step

        def scale_step(*args):
            rays.append(real(*args))
            return rays[-1]

        def search(evaluate, phi0, slope0):
            t, accepted = line_search(evaluate, phi0, slope0)
            searches.append((evaluate(0.0).payload[0], t, accepted.payload[0]))
            return t, accepted

        monkeypatch.setattr(optimizer, "scale_step", scale_step)
        monkeypatch.setattr(optimizer, "line_search", search)
        return rays, searches

    def test_the_first_build_shrinks_the_heuristic_start(self, monkeypatch):
        # At the apd-heuristic start |u| is about 11,342, while s -> Phi(s theta0)
        # peaks near s = 0.014: the first build, at iteration 2, steps along u.
        rays, searches = self.spy(monkeypatch)
        gm = benchmark_map("apd", 20, 50, 23, 0.3)
        rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=2, init="heuristic"))
        assert rep.scale_steps == 1 and len(rays) == 1 and len(searches) == 2
        (sigma, _), (u, t, u_new) = rays[0], searches[1]
        assert -1.0 <= sigma < 0.0
        assert np.array_equal(u_new, u + t * (math.expm1(sigma) * u))
        assert math.exp(-1.0) <= np.linalg.norm(u_new) / np.linalg.norm(u) < 1.0

    @pytest.mark.parametrize("map_args, degree, init, iters, taken, margin", [
        (("pd", 20, 50, 11, 0.0), 1, "zero", 2000, 0,
         "never taken up to the near-optimal stop at iteration 59"),
        (("apd", 20, 50, 23, 0.3), 2, "heuristic", 2, 1,
         "ray gain 4.80 against 2.12 at iteration 2"),
        (("apd", 200, 200, 5, 0.3), 2, "heuristic", 2, 0,
         "ray gain 11.20 against 11.45 at iteration 2, a 2% margin"),
    ], ids=["pd-recovery", "apd-heuristic", "many-grains"])
    def test_the_benchmark_maps_choose_by_gain(self, map_args, degree, init, iters, taken,
                                               margin):
        # At iteration 2 the ray's gain phi'^2 / -phi'' is set against the
        # quasi-Newton step's g'r; ``margin`` records the measured pair. The
        # 20-iteration many-grains fit builds H0 only there. The decisions were
        # measured at one and two BLAS threads, not more.
        rep = pg.fit(benchmark_map(*map_args),
                     pg.FitConfig(degree=degree, max_iters=iters, init=init))
        assert rep.scale_steps == taken, margin
        if init == "zero":
            assert rep.stop_reason == "near-optimal" and rep.curvature_passes > 1


class TestSkippedTrials:
    """The line search skips each halving that a failed trial's tangent proves
    will fail sufficient increase, so it accepts the step plain halving accepts."""

    @pytest.mark.parametrize("map_args, degree, init, iters, skips", [
        (("pd", 20, 50, 11, 0.0), 1, "zero", 2000, False),
        (("apd", 20, 50, 23, 0.3), 2, "heuristic", 2000, True),
        (("apd", 200, 200, 5, 0.3), 2, "heuristic", 20, False),
    ], ids=["pd-recovery", "apd-heuristic", "many-grains"])
    def test_skipping_keeps_every_bit(self, monkeypatch, map_args, degree, init, iters, skips):
        # A spy strips the slopes to NaN, which leaves plain halving: the fits
        # take the same steps, and the skipped trials are the evaluations saved.
        # After the scale step of the apd-heuristic fit, t = 1 lands far past the
        # maximum of the ray, where phi falls almost linearly; the pd-recovery and
        # 20-iteration many-grains fits skip nothing.
        gm, config = benchmark_map(*map_args), pg.FitConfig(degree=degree, max_iters=iters,
                                                            init=init)
        rep = pg.fit(gm, config)
        monkeypatch.setattr(optimizer, "line_search", lambda evaluate, phi0, slope0: line_search(
            lambda t: evaluate(t)._replace(slope=math.nan), phi0, slope0))
        plain = pg.fit(gm, config)
        assert (rep.iters, rep.phi_traj, rep.err_traj, rep.e0_traj) == (
            plain.iters, plain.phi_traj, plain.err_traj, plain.e0_traj)
        assert np.array_equal(rep.theta.values, plain.theta.values)
        assert rep.stop_reason == plain.stop_reason and plain.skipped_trials == 0
        assert rep.evaluations + rep.skipped_trials == plain.evaluations
        assert (rep.skipped_trials > 0) == skips


def with_empty_grains(rng, m, n, empty):
    """A power-diagram map whose owning grains are renumbered to leave the grains
    ``empty`` (1-based) without a pixel, and none else; it has n grains or fewer."""
    grid = pg.make_grid(m)
    owning = np.unique(pg.generate_pd(random_pd(rng, n - len(empty)), grid).labels,
                       return_inverse=True)[1]
    n_total = owning.max() + 1 + len(empty)
    assert max(empty) <= n_total
    owners = np.array([g for g in range(1, n_total + 1) if g not in empty])
    return pg.GrainMap(grid=grid, labels=owners[owning.ravel()], n_grains=n_total)


class TestEmptyGrains:
    """The fit drops the grains that own no pixel (except the last, the gauge
    grain) from the kernel and parks them on output."""

    @pytest.mark.parametrize("empty", [[2, 5], [1, 4, 7]])
    def test_reduced_objective_bounds_and_is_the_parked_limit(self, empty, rng):
        gm = with_empty_grains(rng, 8, 7, empty)
        keep = np.isin(np.arange(1, gm.n_grains + 1), empty, invert=True)
        labels0 = (np.cumsum(keep) - 1)[gm.labels - 1]
        design = pg.assemble_design_matrix(pg.DesignBasis(pg.LEGENDRE, 2), gm.grid).values
        eps = 0.5
        for _ in range(5):
            full = rng.normal(0.0, 1.0, (design.shape[0], gm.n_grains))
            reduced = evaluate_objective(full[:, keep], design, labels0, eps).phi
            assert evaluate_objective(full, design, gm.labels - 1, eps).phi <= reduced
            gaps = []
            for cost in (-1.0, 0.0, 1.0, 3.0, 10.0, 100.0):
                parked = full.copy()  # the empty grains at a constant cost
                parked[:, ~keep] = 0.0
                parked[0, ~keep] = cost  # the (0,0) basis function is 1
                gaps.append(reduced - evaluate_objective(parked, design, gm.labels - 1, eps).phi)
            assert all(b < a for a, b in zip(gaps, gaps[1:4]))
            assert all(b <= a for a, b in zip(gaps, gaps[1:]))
            assert abs(gaps[-1]) <= 1e-14

    @pytest.mark.parametrize("init", ["zero", "heuristic"])
    @pytest.mark.parametrize("last", [False, True], ids=["interior", "last"])
    def test_fit_parks_dropped_grains(self, last, init):
        gm = with_empty_grains(np.random.default_rng(4), 40, 40, [3, 17])
        if last:
            gm = pg.GrainMap(grid=gm.grid, labels=gm.labels, n_grains=gm.n_grains + 1)
        empty = np.flatnonzero(np.bincount(gm.labels, minlength=gm.n_grains + 1)[1:] == 0) + 1
        dropped = [g for g in empty if g != gm.n_grains]
        rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=15, init=init))
        assert rep.n_grains == gm.n_grains and rep.n_empty_grains == len(dropped)
        vals = rep.theta.values
        fitted = np.isin(np.arange(1, gm.n_grains + 1), dropped, invert=True)
        want = 1.0 + np.abs(vals[:, fitted]).sum(axis=0).min()
        assert np.all(vals[1:, np.array(dropped) - 1] == 0.0)
        assert np.all(vals[0, np.array(dropped) - 1] == want)
        labels = pg.hard_assign(rep.theta, gm.grid)
        assert not np.any(np.isin(labels, empty))
        assert accuracy_and_error(gm, labels)[1] == rep.err_final
        assert rep.gauge_residual == 0.0
        assert rep.bound_phi_err_ok and rep.bound_energy_ok
        assert rep.kernel_pairs <= rep.evaluations * len(gm) * (gm.n_grains - len(dropped))

    def test_labelling_keeps_no_parked_grain_on_any_tile(self):
        # 110 of these 200 grains own no pixel. After 20 iterations, on 2 of the
        # 16 tiles the grain of least cost at the centre rises above the parked
        # cost 1 somewhere, so it cannot certify the parked grains away; the
        # grain of least upper bound can.
        gm = pg.generate_apd(random_apd(np.random.default_rng(5), 200), pg.make_grid(50))
        rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=20, init="heuristic"))
        parked = np.bincount(gm.labels - 1, minlength=gm.n_grains) == 0
        parked[-1] = False
        assert rep.n_empty_grains == parked.sum() > 0
        layout = objective_module.tile_layout(rep.theta.basis, gm.grid.points, gm.n_grains)
        keep = objective_module.tile_grains(layout, rep.theta.values, 0.0)
        assert not keep[:, parked].any()
        assert keep.sum() < keep.size

    def test_map_without_empty_grains_drops_none(self, rng):
        gm = random_grain_map(rng, 6, 4)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=20))
        assert rep.n_empty_grains == 0

    def test_last_grain_owning_every_pixel(self):
        grid = pg.make_grid(3)
        gm = pg.GrainMap(grid=grid, labels=np.full(len(grid), 3), n_grains=3)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=5))
        assert rep.n_empty_grains == 2 and rep.stop_reason == "stationary"
        assert rep.iters == list(range(rep.iterations_run + 1))
        assert rep.err_final == 0.0 and rep.phi_final == 0.0
        assert np.all(pg.hard_assign(rep.theta, grid) == 3)


def benchmark_map(kind, n, m, seed, anisotropy):
    """The map of ``polygrain generate``: the labels of the benchmark's CSVs."""
    params = cli._random_physical(kind, n, np.random.default_rng(seed), anisotropy)
    generate = pg.generate_pd if kind == "pd" else pg.generate_apd
    return generate(params, pg.make_grid(m))


def first_at_target(report, target):
    return next((it for it, err in zip(report.iters, report.err_traj) if err <= target), None)


class TestIterationsToTarget:
    """The benchmark workloads' first iteration at their error target.

    err is not monotone along a trajectory, so each test reads the first
    iteration that meets the target, not the final error. With the initial
    matrix gamma H0, H0 the inverse of the curvature from the kernel plus a
    ridge, factored on these small maps, pd-recovery first meets its target at
    iteration 31. apd-heuristic, whose first build also shrinks theta along its
    ray, meets it at 26 with one and with two BLAS threads, and at every ridge
    scaled by 1 + delta, for 20 values of delta from -1e-6 to 1e-5; without the
    scale step it took 71-72 (63-85 over five of them). Each budget is about 1.5 times its count. With H0 applied by 7 PCG
    steps they took 43 and 69, with the fixed Boehning bound gamma*P kron
    (I + 11') 172 and 334, with gamma*P 392 and 386, and with a scalar initial
    matrix 651 and 463.
    """

    def test_pd_recovery(self):
        gm = benchmark_map("pd", 20, 50, 11, 0.0)
        rep = pg.fit(gm, pg.FitConfig(degree=1, max_iters=47, init="zero"))
        assert first_at_target(rep, 0.005) is not None

    def test_apd_heuristic(self):
        gm = benchmark_map("apd", 20, 50, 23, 0.3)
        rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=39, init="heuristic"))
        assert first_at_target(rep, 0.01) is not None

    def test_apd_heuristic_evaluations_to_target(self):
        # The fit meets the target at iteration 26 after 45 evaluations: the line
        # search skips the halvings that a failed trial's tangent proves will
        # fail. Plain halving took 76. The bound is about 1.2 times 45.
        gm = benchmark_map("apd", 20, 50, 23, 0.3)
        rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=26, init="heuristic"))
        assert first_at_target(rep, 0.01) is not None
        assert rep.evaluations <= 54

    def test_apd_heuristic_certifies_within_the_budget(self):
        # Every pixel has p_g0 > 1/2 at iteration 158 with one BLAS thread and 146
        # with two, and the finish along theta stops at 161 and 150. With the ridge
        # scaled by 1 + delta, delta = 0 and +-10^-k for k = 2 ... 16, the stops
        # are 149-207 at one thread and 147-187 at two: M's last bits move the
        # stop. The bound is about 1.2 times 207. More than two threads were not
        # measured. Waiting for phi > -log2/n it stopped at 206 and 203 (154-327
        # over the same sample), without the scale step at 580-625, with H0
        # applied by 7 PCG steps at 689, and with the Boehning bound it was still
        # at phi = -6.9e-17 after 2000.
        gm = benchmark_map("apd", 20, 50, 23, 0.3)
        rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=2000, init="heuristic"))
        assert rep.stop_reason == "near-optimal" and rep.err_final == 0.0
        assert rep.iterations_run <= 248

    def test_apd_heuristic_certifies_within_the_evaluation_budget(self):
        # The fit stops after 205 evaluations with one BLAS thread and 194 with
        # two; waiting for phi > -log2/n it took 269 at both. The bound is about
        # 1.2 times 205. Over the ridge sample above the evaluations are 196-279
        # at one thread and 191-244 at two, and 4 of those 62 fits exceed it.
        gm = benchmark_map("apd", 20, 50, 23, 0.3)
        rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=2000, init="heuristic"))
        assert rep.stop_reason == "near-optimal" and rep.evaluations <= 246

    def test_many_grains_first_step(self):
        # The first step is g/|g|^2, unpreconditioned, halved once by the line
        # search: t = 1/2 lands the heuristic start within the workload's 0.05
        # target at iteration 1, with 7,888 of 160,000 pixels misassigned.
        gm = benchmark_map("apd", 200, 200, 5, 0.3)
        rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=1, init="heuristic"))
        assert rep.err_traj[1] == 1 - 152112 / 160000


class TestCurvaturePairs:
    """The objective is concave, so every accepted step s = u+ - u has
    s'y >= 0 for y = g - g+, up to rounding: the curvature condition of a
    strong-Wolfe search would add nothing to plain backtracking."""

    @staticmethod
    def accepted_pairs(monkeypatch, gm, config):
        """(s, y) of every step the fit takes, read through a spy on its line search."""
        pairs, start = [], None

        def spy(evaluate, phi0, slope0):
            nonlocal start
            if start is None:  # u and g at the first search: the start of its ray
                start = evaluate(0.0).payload
            t, accepted = line_search(evaluate, phi0, slope0)
            if accepted is not None:
                (u, at), (u_new, new) = start, accepted.payload
                pairs.append((u_new - u, at.grad - new.grad))
                start = accepted.payload
            return t, accepted

        monkeypatch.setattr(optimizer, "line_search", spy)
        rep = pg.fit(gm, config)
        assert len(pairs) == rep.iterations_run > 0
        return pairs

    @pytest.mark.parametrize("case", ["apd-heuristic", "random-pd"])
    def test_every_step_has_nonnegative_curvature(self, monkeypatch, case):
        if case == "apd-heuristic":
            gm = benchmark_map("apd", 20, 50, 23, 0.3)
            config = pg.FitConfig(degree=2, max_iters=400, init="heuristic")
        else:
            gm = random_grain_map(np.random.default_rng(7), 30, 12)
            config = pg.FitConfig(degree=1, max_iters=300)
        for s, y in self.accepted_pairs(monkeypatch, gm, config):
            assert s @ y >= -optimizer.CURVATURE_SKIP * np.linalg.norm(s) * np.linalg.norm(y)
