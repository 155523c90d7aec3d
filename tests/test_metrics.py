import math

import numpy as np
import pytest

import polygrain as pg
from conftest import random_apd, random_labels_map
from reference import accuracy_and_error, cost_matrix, energy_zero
from polygrain.objective import bounds_hold

SMALL_SHAPE = (245, 63252)
BIG_SHAPE = (4686, 1033376)

SMALL_PERCENTS = [0.39, 0.77, 1.29, 1.94, 2.71, 3.62, 4.65, 5.81]
BIG_PERCENTS = [0.45, 0.91, 1.51, 2.27, 3.17, 4.23, 5.44, 6.80]


class TestCompression:
    def test_small_dataset_first_column(self):
        n, omega = SMALL_SHAPE
        assert pg.compression(1, n, omega) == pytest.approx(0.0039, abs=5e-5)

    def test_big_dataset_first_column(self):
        n, omega = BIG_SHAPE
        assert pg.compression(1, n, omega) == pytest.approx(0.0045, abs=5e-5)

    def test_small_dataset_last_column(self):
        n, omega = SMALL_SHAPE
        assert pg.compression(8, n, omega) == pytest.approx(0.0581, abs=5e-5)

    @pytest.mark.parametrize("shape,expected",
                             [(SMALL_SHAPE, SMALL_PERCENTS), (BIG_SHAPE, BIG_PERCENTS)])
    def test_printed_table_reproduced(self, shape, expected):
        n, omega = shape
        got = [round(100.0 * pg.compression(d, n, omega), 2) for d in range(1, 9)]
        assert got == expected

    def test_entry_consistency(self):
        assert pg.feature_count(3) == 10
        assert pg.compression(3, 10, 1000) == 10 * 10 / 3000.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pg.compression(0, 10, 100)


class TestDegreeSweep:
    @pytest.fixture(scope="class")
    @staticmethod
    def sweep():
        rng = np.random.default_rng(5)
        apd = random_apd(rng, 6, level=0.3)
        gm = pg.generate_apd(apd, pg.make_grid(12))
        cfg = pg.FitConfig(degree=1, eps=1e-2, max_iters=150)
        rows, reports = pg.degree_sweep(gm, [1, 2, 3], cfg)
        return gm, rows, reports

    def test_zero_padding_identity(self, sweep):
        gm, rows, reports = sweep
        for rep, next_degree in zip(reports, (2, 3, 4)):
            theta = rep.theta
            basis_next = pg.DesignBasis.make(theta.basis.kind, next_degree)
            design_next = pg.assemble_design_matrix(basis_next, gm.grid)
            design_here = pg.assemble_design_matrix(theta.basis, gm.grid)
            a = pg.objective(theta, design_here, gm, 1e-2)
            b = pg.objective(pg.zero_pad(theta, next_degree), design_next, gm, 1e-2)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))

    def test_accuracy_improves_from_pd_to_apd_target(self, sweep):
        gm, rows, reports = sweep
        assert rows[1].acc_final >= rows[0].acc_final - 1e-3

    def test_compression_column(self, sweep):
        gm, rows, _ = sweep
        for row in rows:
            assert row.compr == pg.compression(row.degree, gm.n_grains, len(gm))

    def test_requires_sorted_degrees(self, sweep):
        gm, _, _ = sweep
        with pytest.raises(ValueError):
            pg.degree_sweep(gm, [2, 1], pg.FitConfig(max_iters=2))


class TestBoundReport:
    def test_zero_theta(self, rng):
        gm = random_labels_map(rng, 5, 4)
        basis = pg.DesignBasis.make(pg.LEGENDRE, 1)
        design = pg.assemble_design_matrix(basis, gm.grid)
        theta = pg.ParamMatrix(np.zeros((3, 4)), basis)
        rep = pg.bound_report(theta, gm, design, 1e-2)
        assert rep.phi == pytest.approx(-math.log(4), abs=1e-12)
        share1 = float(np.mean(gm.labels == 1))
        assert rep.err == pytest.approx(1.0 - share1, abs=1e-15)
        assert rep.all_ok

    def test_near_optimal_certifies_exact_reconstruction(self, rng):
        from conftest import random_pd

        pd = random_pd(rng, 5)
        gm = pg.generate_pd(pd, pg.make_grid(8))
        theta = pg.pd_to_theta(pd)
        big = theta.with_values(1e4 * theta.values)
        design = pg.assemble_design_matrix(theta.basis, gm.grid)
        rep = pg.bound_report(big, gm, design, 1e-2)
        assert rep.near_optimal
        assert rep.err == 0.0
        assert rep.all_ok

    def test_matches_dense_references(self, rng):
        from conftest import random_theta

        gm = random_labels_map(rng, 7, 6)
        design = pg.assemble_design_matrix(pg.DesignBasis.make(pg.LEGENDRE, 2), gm.grid)
        for scale in (0.1, 1.0, 30.0):
            theta = random_theta(rng, 2, 6, scale=scale)
            rep = pg.bound_report(theta, gm, design, 0.05)
            costs = cost_matrix(theta, design)
            assert rep.phi == pg.objective(theta, design, gm, 0.05)
            assert rep.err == accuracy_and_error(gm, pg.argmin_labels(costs))[1]
            assert rep.energy_zero == pytest.approx(energy_zero(theta, design, gm),
                                                    rel=1e-12, abs=1e-12)
            assert rep.energy_eps == pytest.approx(-0.05 * rep.phi, abs=0)

    def test_random_parameters_satisfy_bounds(self, rng):
        from conftest import random_theta

        gm = random_labels_map(rng, 6, 5)
        design = pg.assemble_design_matrix(pg.DesignBasis.make(pg.LEGENDRE, 2), gm.grid)
        for _ in range(20):
            theta = random_theta(rng, 2, 5, scale=rng.uniform(0.2, 3.0))
            rep = pg.bound_report(theta, gm, design, float(rng.uniform(0.01, 1.0)))
            assert rep.misassignment_bound_ok
            assert rep.energy_bound_ok


class TestBoundsHold:
    def test_each_bound_can_fail(self):
        eps, n_grains = 0.1, 4
        log2, top = math.log(2.0), 0.1 * math.log(4)
        assert bounds_hold(-log2 * 0.5, 0.5, 0.0, eps, n_grains)[0] is True
        assert bounds_hold(-log2 * 0.5 + 1e-9, 0.5, 0.0, eps, n_grains)[0] is False
        phi = -1.0  # -eps*phi = 0.1, so e0 must lie in [0.1 - eps*log N, 0.1]
        assert bounds_hold(phi, 0.0, 0.1, eps, n_grains) == (True, True)
        assert bounds_hold(phi, 0.0, 0.1 - top, eps, n_grains) == (True, True)
        assert bounds_hold(phi, 0.0, 0.1 + 1e-9, eps, n_grains) == (True, False)
        assert bounds_hold(phi, 0.0, 0.1 - top - 1e-9, eps, n_grains) == (True, False)

    def test_slack_is_additive(self):
        assert bounds_hold(5e-13, 0.0, -5e-14, 1.0, 2) == (True, True)
        assert bounds_hold(2e-12, 0.0, 0.0, 1.0, 2) == (False, False)
