import numpy as np
import pytest

import polygrain as pg
from polygrain.heuristics import RIDGE_SCALE, _invert_spread
from conftest import random_apd
from reference import accuracy_and_error, cost_matrix


class TestMoments:
    def test_whole_grid_single_grain(self):
        grid = pg.make_grid(1)
        gm = pg.GrainMap(grid=grid, labels=np.array([1, 1, 1, 2]), n_grains=2)
        # use grain 1 spanning three pixels plus direct summation as oracle
        summary = pg.moments(gm)
        pts = grid.points[:3]
        centroid = pts.mean(axis=0)
        centred = pts - centroid
        cov = centred.T @ centred / 3
        assert np.allclose(summary.centroids[0], centroid, atol=1e-15)
        assert np.allclose(summary.second_moments[0], cov, atol=1e-15)

    def test_uniform_grid_spread(self):
        # all four M=1 pixels in one grain: centroid at the origin,
        # spread diag(0.25, 0.25) by direct substitution
        grid = pg.make_grid(1)
        gm = pg.GrainMap(grid=grid, labels=np.array([1, 1, 1, 1]), n_grains=2)
        summary = pg.moments(gm)
        assert np.allclose(summary.centroids[0], [0.0, 0.0], atol=0)
        assert np.allclose(summary.second_moments[0], np.diag([0.25, 0.25]), atol=0)
        assert summary.empty.tolist() == [False, True]

    def test_single_pixel_grain_degenerate(self):
        grid = pg.make_grid(2)
        labels = np.full(16, 1)
        labels[5] = 2
        gm = pg.GrainMap(grid=grid, labels=labels, n_grains=2)
        summary = pg.moments(gm)
        assert np.all(summary.second_moments[1] == 0.0)
        assert summary.degenerate[1]
        assert not summary.empty[1]

    def test_mirror_symmetric_centroids(self):
        pd = pg.PhysicalPD(seeds=np.array([[-0.5, 0.0], [0.5, 0.0]]), weights=np.zeros(2))
        gm = pg.generate_pd(pd, pg.make_grid(8))
        summary = pg.moments(gm)
        assert summary.centroids[0, 0] == pytest.approx(-summary.centroids[1, 0], abs=1e-14)
        assert summary.centroids[0, 1] == pytest.approx(summary.centroids[1, 1], abs=1e-14)

    def test_counts_partition_domain(self, rng):
        from conftest import random_grain_map

        gm = random_grain_map(rng, 7, 5)
        assert pg.moments(gm).counts.sum() == len(gm)


class TestInvertSpread:
    def test_ridge_on_degenerate_grains_only(self):
        # Grain 2 is the grid's first row (collinear), grain 3 one pixel, grain 4
        # empty and grain 1 the rest. Each degenerate spread B gets the
        # ridge r = RIDGE_SCALE * tr(B) / 2, or RIDGE_SCALE where tr(B) = 0, and the
        # guess is (B + r I)^{-1} by the adjugate, to the bit.
        labels = np.ones(16, dtype=int)
        labels[:4] = 2
        labels[5] = 3
        gm = pg.GrainMap(grid=pg.make_grid(2), labels=labels, n_grains=4)
        summary = pg.moments(gm)
        assert summary.degenerate.tolist() == [False, True, True, True]
        expected = np.empty((4, 2, 2))
        for i, b in enumerate(summary.second_moments):
            tr = b[0, 0] + b[1, 1]
            r = RIDGE_SCALE * (tr / 2.0 if tr > 0 else 1.0) if summary.degenerate[i] else 0.0
            a11, a22 = b[0, 0] + r, b[1, 1] + r
            det = a11 * a22 - b[0, 1] * b[1, 0]
            expected[i] = [[a22 / det, -b[0, 1] / det], [-b[1, 0] / det, a11 / det]]
        assert [b[0, 0] + b[1, 1] > 0 for b in summary.second_moments] == [True, True, False,
                                                                           False]
        assert np.array_equal(_invert_spread(summary), expected)


class TestHeuristicTheta:
    def test_degree1_matches_centroid_and_area_guess(self, rng):
        from conftest import random_grain_map

        gm = random_grain_map(rng, 8, 4)
        theta = pg.heuristic_theta(gm, 1, pg.MONOMIAL)
        assert theta.gauge == pg.GAUGE_LAST_ZERO
        assert np.all(theta.values[:, -1] == 0.0)
        # undo the gauge shift, then invert the coefficient map
        summary = pg.moments(gm)
        pd_expected = pg.PhysicalPD(seeds=summary.centroids,
                                    weights=summary.counts / (len(gm) * np.pi))
        expected = pg.pd_to_theta(pd_expected).values
        shift = expected[:, -1][:, None]
        assert np.allclose(theta.values, expected - shift, atol=1e-14)

    def test_degree2_uses_inverse_spread(self, rng):
        grid = pg.make_grid(4)
        labels = np.where(grid.points[:, 0] < 0, 1, 2)
        gm = pg.GrainMap(grid=grid, labels=labels, n_grains=2)
        theta = pg.heuristic_theta(gm, 2, pg.MONOMIAL)
        # undo the gauge shift and recover grain 1's anisotropy
        summary = pg.moments(gm)
        b = summary.second_moments[0]
        a_expected = np.linalg.inv(b)
        recovered = pg.theta_to_apd(
            pg.ParamMatrix(theta.values + 0.0, theta.basis, gauge=pg.GAUGE_FREE))
        # the common shift moved both quadratic blocks equally; differences
        # of anisotropy matrices are shift-invariant
        diff = recovered.anisotropy[0] - recovered.anisotropy[1]
        b2 = summary.second_moments[1]
        expected_diff = a_expected - np.linalg.inv(b2)
        assert np.allclose(diff, expected_diff, atol=1e-10)

    def test_pads_higher_degrees_with_zeros(self, rng):
        from conftest import random_grain_map

        gm = random_grain_map(rng, 6, 3)
        theta = pg.heuristic_theta(gm, 4, pg.MONOMIAL)
        idx = theta.basis
        for pos, alpha in enumerate(idx.indices):
            if sum(alpha) > 2:
                assert np.all(theta.values[pos] == 0.0)

    def test_legendre_representation_preserves_costs(self, rng):
        from conftest import random_grain_map

        gm = random_grain_map(rng, 6, 3)
        tm = pg.heuristic_theta(gm, 2, pg.MONOMIAL)
        tl = pg.heuristic_theta(gm, 2, pg.LEGENDRE)
        dm = pg.assemble_design_matrix(tm.basis, gm.grid)
        dl = pg.assemble_design_matrix(tl.basis, gm.grid)
        hm = cost_matrix(tm, dm)
        hl = cost_matrix(tl, dl)
        assert np.abs(hm - hl).max() <= 1e-10 * (1 + np.abs(hm).max())

    def test_label_permutation_equivariance(self, rng):
        from conftest import random_grain_map

        gm = random_grain_map(rng, 6, 4)
        perm = np.array([3, 1, 4, 2])  # new label of each old grain
        gm_perm = pg.GrainMap(grid=gm.grid, labels=perm[gm.labels - 1], n_grains=4)
        ta = pg.heuristic_theta(gm, 2, pg.MONOMIAL)
        tb = pg.heuristic_theta(gm_perm, 2, pg.MONOMIAL)
        # before re-gauging the columns are permuted; compare gauge-free
        # differences against a common reference column instead
        a = ta.values - ta.values[:, :1]
        b = tb.values - tb.values[:, perm[0] - 1][:, None]
        for old in range(4):
            assert np.allclose(a[:, old], b[:, perm[old] - 1], atol=1e-12)

    def test_empty_grain_handling(self):
        grid = pg.make_grid(3)
        labels = np.full(36, 1)
        labels[:18] = 3
        gm = pg.GrainMap(grid=grid, labels=labels, n_grains=3)  # grain 2 empty
        theta = pg.heuristic_theta(gm, 2, pg.MONOMIAL)
        assert np.all(np.isfinite(theta.values))

    def test_accuracy_on_low_anisotropy_apd(self, rng):
        # regression floor measured on this frozen instance
        apd = random_apd(rng, 10, level=0.3)
        gm = pg.generate_apd(apd, pg.make_grid(20))
        theta = pg.heuristic_theta(gm, 2, pg.LEGENDRE)
        labels = pg.hard_assign(theta, gm.grid)
        acc, _ = accuracy_and_error(gm, labels)
        assert acc >= 0.8

    def test_rejects_degree_zero(self, rng):
        from conftest import random_grain_map

        gm = random_grain_map(rng, 4, 3)
        with pytest.raises(ValueError):
            pg.heuristic_theta(gm, 0)


class TestEmptyGrainParking:
    """An empty grain is parked at a constant cost above every other grain's,
    so the start assigns it no pixel."""

    @pytest.mark.parametrize("kind", [pg.MONOMIAL, pg.LEGENDRE])
    @pytest.mark.parametrize("degree", [1, 2, 4])
    @pytest.mark.parametrize("empty", [2, 3])  # 3: the gauge column is parked
    def test_empty_grain_wins_no_pixel(self, kind, degree, empty):
        grid = pg.make_grid(3)
        labels = np.full(36, 1)
        labels[:18] = 5 - empty  # the map of test_empty_grain_handling for empty=2
        gm = pg.GrainMap(grid=grid, labels=labels, n_grains=3)
        theta = pg.heuristic_theta(gm, degree, kind)
        assert np.all(theta.values[:, -1] == 0.0)
        assert not np.any(pg.hard_assign(theta, grid) == empty)

    def test_apd_heuristic_map(self):
        # the apd-heuristic benchmark map (map seed 23): grain 10 owns no pixel
        gm = pg.generate_apd(random_apd(np.random.default_rng(23), 20), pg.make_grid(50))
        assert np.flatnonzero(np.bincount(gm.labels, minlength=21)[1:] == 0).tolist() == [9]
        labels = pg.hard_assign(pg.heuristic_theta(gm, 2, pg.LEGENDRE), gm.grid)
        assert not np.any(labels == 10)
