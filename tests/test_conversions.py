from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polygrain as pg
from conftest import random_apd, random_labels_map, random_pd, random_theta
from reference import cost_matrix


class TestPdTheta:
    def test_origin_seed_zero_weight(self):
        pd = pg.PhysicalPD(seeds=np.array([[0.0, 0.0], [0.5, 0.5]]), weights=np.zeros(2))
        theta = pg.pd_to_theta(pd)
        assert np.all(theta.values[:, 0] == 0.0)

    def test_known_seed_and_weight(self):
        pd = pg.PhysicalPD(seeds=np.array([[1.0, 2.0], [0.0, 0.0]]),
                           weights=np.array([1.0, 0.0]))
        theta = pg.pd_to_theta(pd)
        idx = theta.basis
        assert theta.values[idx.position((1, 0)), 0] == -2.0
        assert theta.values[idx.position((0, 1)), 0] == -4.0
        assert theta.values[idx.position((0, 0)), 0] == 4.0

    def test_inverse_of_known_coefficients(self):
        basis = pg.DesignBasis(pg.MONOMIAL, 1)
        idx = basis
        values = np.zeros((3, 2))
        values[idx.position((1, 0)), 0] = -2.0
        values[idx.position((0, 1)), 0] = -4.0
        values[idx.position((0, 0)), 0] = 4.0
        pd = pg.theta_to_pd(pg.ParamMatrix(values, basis))
        assert pd.seeds[0].tolist() == [1.0, 2.0]
        assert pd.weights[0] == 1.0
        assert pd.seeds[1].tolist() == [0.0, 0.0]
        assert pd.weights[1] == 0.0

    def test_round_trip(self, rng):
        pd = random_pd(rng, 9)
        back = pg.theta_to_pd(pg.pd_to_theta(pd))
        assert np.abs(back.seeds - pd.seeds).max() <= 1e-12
        assert np.abs(back.weights - pd.weights).max() <= 1e-12

    def test_gauge_shift_changes_parameters_not_diagram(self, rng):
        pd = random_pd(rng, 5)
        theta = pg.pd_to_theta(pd)
        c = rng.normal(size=3)
        shifted = replace(theta, values=theta.values + c[:, None])
        grid = pg.make_grid(7)
        assert np.array_equal(pg.hard_assign(theta, grid),
                              pg.hard_assign(shifted, grid))
        moved = pg.theta_to_pd(shifted)
        assert not np.allclose(moved.seeds, pd.seeds)

    def test_requires_monomial_degree_one(self, rng):
        theta = random_theta(rng, 1, 3, kind=pg.LEGENDRE)
        with pytest.raises(ValueError, match="monomial"):
            pg.theta_to_pd(theta)
        theta2 = random_theta(rng, 2, 3, kind=pg.MONOMIAL)
        with pytest.raises(ValueError, match="degree"):
            pg.theta_to_pd(theta2)


class TestApdTheta:
    def test_identity_case(self):
        apd = pg.PhysicalAPD(seeds=np.zeros((2, 2)), weights=np.zeros(2),
                             anisotropy=np.broadcast_to(np.eye(2), (2, 2, 2)).copy())
        theta = pg.apd_to_theta(apd)
        idx = theta.basis
        col = theta.values[:, 0]
        assert col[idx.position((2, 0))] == 1.0
        assert col[idx.position((0, 2))] == 1.0
        assert col[idx.position((1, 1))] == 0.0
        assert col[idx.position((1, 0))] == 0.0
        assert col[idx.position((0, 1))] == 0.0
        assert col[idx.position((0, 0))] == 0.0

    def test_round_trip(self, rng):
        apd = random_apd(rng, 8, level=0.6)
        rec = pg.theta_to_apd(pg.apd_to_theta(apd))
        assert rec.recoverable.all()
        assert np.abs(rec.anisotropy - apd.anisotropy).max() <= 1e-12
        assert np.abs(rec.seeds - apd.seeds).max() <= 1e-12
        assert np.abs(rec.weights - apd.weights).max() <= 1e-12
        assert np.abs(rec.to_apd().seeds - apd.seeds).max() <= 1e-12

    def test_gauge_fixed_fit_has_singular_last_grain(self, rng):
        theta = random_theta(rng, 2, 4, kind=pg.MONOMIAL, gauge=pg.GAUGE_LAST_ZERO)
        rec = pg.theta_to_apd(theta)
        assert not rec.recoverable[-1]
        assert np.all(rec.anisotropy[-1] == 0.0)
        assert np.isnan(rec.seeds[-1]).all()
        with pytest.raises(ValueError, match="singular"):
            rec.to_apd()
        # the induced diagram is still perfectly meaningful
        labels = pg.hard_assign(theta, pg.make_grid(5))
        assert labels.min() >= 1

    def test_large_anisotropy_recovers_finite_seed(self):
        # A = 1e160 I, b = (1e200, 1e200): the adjugate's products overflow,
        # yet y = -A^{-1} b / 2 = (-5e39, -5e39) and w = -b'y/2 - c are finite.
        basis = pg.DesignBasis(pg.MONOMIAL, 2)
        values = np.zeros((basis.dimension, 2))
        values[basis.position((2, 0)), 0] = values[basis.position((0, 2)), 0] = 1e160
        values[basis.position((1, 0)), 0] = values[basis.position((0, 1)), 0] = 1e200
        values[basis.position((0, 0)), 0] = 3.0
        rec = pg.theta_to_apd(pg.ParamMatrix(values, basis, pg.GAUGE_LAST_ZERO))
        assert rec.recoverable.tolist() == [True, False]
        np.testing.assert_allclose(rec.seeds[0], [-5e39, -5e39], rtol=1e-15)
        np.testing.assert_allclose(rec.weights[0], 5e239, rtol=1e-15)

    def test_seeds_keep_the_adjugate_bits(self, rng):
        basis = pg.DesignBasis(pg.MONOMIAL, 2)
        scales = np.repeat([1e-100, 1e-3, 1.0, 1e3, 1e100], 4)
        theta = pg.ParamMatrix(rng.normal(size=(basis.dimension, 20)) * scales, basis)
        v = {m: theta.values[theta.basis.position(m)]
             for m in [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]}
        a11, a12, a22, b1, b2 = v[2, 0], 0.5 * v[1, 1], v[0, 2], v[1, 0], v[0, 1]
        det = a11 * a22 - a12 * a12
        rec = pg.theta_to_apd(theta)
        assert rec.recoverable.all()
        assert np.array_equal(rec.seeds[:, 0], -0.5 * (a22 * b1 - a12 * b2) / det)
        assert np.array_equal(rec.seeds[:, 1], -0.5 * (-a12 * b1 + a11 * b2) / det)


class TestCoeffsToBasis:
    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_round_trip(self, degree, rng):
        theta = random_theta(rng, degree, 4, kind=pg.MONOMIAL)
        there = pg.coeffs_to_basis(theta, pg.LEGENDRE)
        back = pg.coeffs_to_basis(there, pg.MONOMIAL)
        assert np.abs(back.values - theta.values).max() <= 1e-12 * (1 + np.abs(theta.values).max())

    def test_preserves_costs(self, rng):
        theta = random_theta(rng, 3, 4, kind=pg.MONOMIAL)
        grid = pg.make_grid(6)
        dm = pg.assemble_design_matrix(theta.basis, grid)
        converted = pg.coeffs_to_basis(theta, pg.LEGENDRE)
        dl = pg.assemble_design_matrix(converted.basis, grid)
        hm = cost_matrix(theta, dm)
        hl = cost_matrix(converted, dl)
        assert np.abs(hm - hl).max() <= 1e-10 * (1 + np.abs(hm).max())

    def test_preserves_gauge(self, rng):
        theta = random_theta(rng, 2, 3, kind=pg.MONOMIAL, gauge=pg.GAUGE_LAST_ZERO)
        converted = pg.coeffs_to_basis(theta, pg.LEGENDRE)
        assert converted.gauge == pg.GAUGE_LAST_ZERO
        assert np.all(converted.values[:, -1] == 0.0)

    def test_same_kind_is_identity(self, rng):
        theta = random_theta(rng, 2, 3, kind=pg.MONOMIAL)
        assert pg.coeffs_to_basis(theta, pg.MONOMIAL) is theta

    def test_overflow_names_both_bases(self):
        values = np.zeros((6, 2))
        values[:, 0] = 1.5e308
        theta = pg.ParamMatrix(values, pg.DesignBasis(pg.MONOMIAL, 2))
        with pytest.raises(ValueError, match="basis change monomial -> legendre overflows"):
            pg.coeffs_to_basis(theta, pg.LEGENDRE)


class TestPsdRepair:
    def test_applies_margin_even_when_definite(self, rng):
        apd = random_apd(rng, 4, level=0.2)
        theta = pg.apd_to_theta(apd)
        repaired = pg.psd_repair(theta, margin=0.1)
        before = pg.sym2x2_eigvals(pg.theta_to_apd(theta).anisotropy)[:, 0]
        after = pg.sym2x2_eigvals(pg.theta_to_apd(repaired).anisotropy)[:, 0]
        lam = max(0.0, -before.min()) + 0.1
        assert np.allclose(after, before + lam, atol=1e-12)

    def test_zero_block_gets_identity_scale_shift(self, rng):
        theta = random_theta(rng, 2, 3, kind=pg.MONOMIAL, gauge=pg.GAUGE_LAST_ZERO)
        repaired = pg.psd_repair(theta, margin=1.0)
        mats = pg.theta_to_apd(repaired).anisotropy
        lam_min = pg.sym2x2_eigvals(mats)[:, 0]
        assert np.all(lam_min >= 1.0 - 1e-12)
        assert repaired.gauge == pg.GAUGE_FREE

    def test_diagram_unchanged_on_random_fits(self, rng):
        grid = pg.make_grid(8)
        for trial in range(20):
            gm = random_labels_map(rng, 8, 4)
            rep = pg.fit(gm, pg.FitConfig(degree=2, max_iters=25, eps=0.1))
            theta = rep.theta
            margin = float(rng.uniform(0.05, 1.0))
            repaired = pg.psd_repair(theta, margin=margin)
            assert np.array_equal(pg.hard_assign(theta, grid),
                                  pg.hard_assign(repaired, grid))
            mono = pg.coeffs_to_basis(repaired, pg.MONOMIAL)
            lam_min = pg.sym2x2_eigvals(pg.theta_to_apd(mono).anisotropy)[:, 0]
            assert np.all(lam_min >= margin - 1e-12)

    def test_legendre_input_round_trips_basis(self, rng):
        theta = random_theta(rng, 2, 4, kind=pg.LEGENDRE)
        repaired = pg.psd_repair(theta, margin=0.2)
        assert repaired.basis.kind == pg.LEGENDRE

    def test_scale_based_default_margin(self, rng):
        theta = random_theta(rng, 2, 4, kind=pg.MONOMIAL)
        repaired = pg.psd_repair(theta)
        lam_min = pg.sym2x2_eigvals(pg.theta_to_apd(repaired).anisotropy)[:, 0]
        assert np.all(lam_min > 0.0)

    def test_rejects_wrong_degree(self, rng):
        theta = random_theta(rng, 1, 3, kind=pg.MONOMIAL)
        with pytest.raises(ValueError, match="degree 2"):
            pg.psd_repair(theta)

    @pytest.mark.parametrize("margin", [None, 0.5])
    def test_overflowing_eigenvalues_are_named(self, margin):
        values = np.zeros((6, 3))
        values[:, 1] = 1.5e308
        theta = pg.ParamMatrix(values, pg.DesignBasis(pg.MONOMIAL, 2))
        with pytest.raises(ValueError, match=r"eigenvalues of grains \[2\] overflow"):
            pg.psd_repair(theta, margin=margin)

    @pytest.mark.parametrize("margin", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_margin_that_is_not_finite_positive(self, margin, rng):
        theta = random_theta(rng, 2, 3, kind=pg.MONOMIAL)
        with pytest.raises(ValueError, match="finite and positive"):
            pg.psd_repair(theta, margin=margin)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_grains=st.integers(2, 6),
           kind=st.sampled_from([pg.MONOMIAL, pg.LEGENDRE]),
           margin=st.floats(1e-3, 10.0))
    def test_keeps_labels_and_lifts_eigenvalues(self, seed, n_grains, kind, margin):
        rng = np.random.default_rng(seed)
        theta = random_theta(rng, 2, n_grains, kind=kind)
        grid = pg.make_grid(8)
        repaired = pg.psd_repair(theta, margin=margin)
        assert repaired.basis == theta.basis
        assert np.array_equal(pg.hard_assign(theta, grid), pg.hard_assign(repaired, grid))
        mono = pg.coeffs_to_basis(repaired, pg.MONOMIAL)
        lam_min = pg.sym2x2_eigvals(pg.theta_to_apd(mono).anisotropy)[:, 0]
        assert np.all(lam_min >= margin - 1e-12 * (1.0 + margin))


class TestMultiplicativeInvariance:
    def test_scaling_preserves_diagram_but_not_objective(self, rng):
        gm = random_labels_map(rng, 6, 4)
        design = pg.assemble_design_matrix(pg.DesignBasis(pg.LEGENDRE, 2), gm.grid)
        theta = random_theta(rng, 2, 4)
        lam = 7.5
        scaled = replace(theta, values=lam * theta.values)
        assert np.array_equal(pg.argmin_labels(cost_matrix(theta, design)),
                              pg.argmin_labels(cost_matrix(scaled, design)))
        phi_a = pg.objective(theta, design, gm, 0.5)
        phi_b = pg.objective(scaled, design, gm, 0.5)
        assert abs(phi_a - phi_b) > 1e-6
        phi_c = pg.objective(scaled, design, gm, 0.5 * lam)
        assert abs(phi_a - phi_c) <= 1e-12 * (1 + abs(phi_a))
