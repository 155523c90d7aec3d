import tracemalloc

import numpy as np
import pytest

import polygrain as pg
from conftest import random_apd, random_pd
from reference import accuracy_and_error, physical_costs


class TestMakeGrid:
    def test_smallest_grid(self):
        grid = pg.make_grid(1)
        expected = [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]
        assert grid.points.tolist() == [list(p) for p in expected]

    def test_m2_first_point(self):
        grid = pg.make_grid(2)
        assert len(grid) == 16
        assert grid.points[0].tolist() == [-0.75, -0.75]

    def test_m70_pixel_count(self):
        assert len(pg.make_grid(70)) == 19600

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            pg.make_grid(0)

    def test_deterministic(self):
        assert np.array_equal(pg.make_grid(13).points, pg.make_grid(13).points)

    def test_points_strictly_inside(self):
        pts = pg.make_grid(9).points
        assert np.abs(pts).max() < 1.0

    def test_unstructured_points_accepted(self):
        grid = pg.PixelGrid(points=np.array([[0.1, 0.2], [-0.3, 0.4], [0.0, 0.0]]))
        assert len(grid) == 3

    def test_rejects_points_on_boundary(self):
        with pytest.raises(ValueError):
            pg.PixelGrid(points=np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestGrainMap:
    def test_length_mismatch(self):
        grid = pg.make_grid(1)
        with pytest.raises(ValueError):
            pg.GrainMap(grid=grid, labels=np.array([1, 2]), n_grains=2)

    def test_label_range(self):
        grid = pg.make_grid(1)
        with pytest.raises(ValueError):
            pg.GrainMap(grid=grid, labels=np.array([1, 2, 3, 0]), n_grains=3)

    def test_empty_grains_allowed(self):
        grid = pg.make_grid(1)
        gm = pg.GrainMap(grid=grid, labels=np.array([1, 1, 3, 3]), n_grains=4)
        assert np.bincount(gm.labels - 1, minlength=4).tolist() == [2, 0, 2, 0]


class TestHardAssign:
    def test_total_tie_gives_label_one(self, rng):
        grid = pg.make_grid(4)
        basis = pg.DesignBasis.make(pg.MONOMIAL, 1)
        column = rng.normal(size=3)
        theta = pg.ParamMatrix(np.tile(column[:, None], (1, 4)), basis)
        assert np.all(pg.hard_assign(theta, grid) == 1)

    def test_halfplane_split_on_sign_of_x1(self):
        grid = pg.make_grid(6)
        basis = pg.DesignBasis.make(pg.MONOMIAL, 1)
        values = np.zeros((3, 2))
        values[basis.index_set.position((1, 0)), 1] = 1.0  # h_2 = x1, h_1 = 0
        theta = pg.ParamMatrix(values, basis)
        labels = pg.hard_assign(theta, grid)
        expected = np.where(grid.points[:, 0] > 0, 1, 2)
        assert np.array_equal(labels, expected)

    def test_vertical_bisector_from_pd(self):
        pd = pg.PhysicalPD(seeds=np.array([[-0.5, 0.0], [0.5, 0.0]]),
                           weights=np.zeros(2))
        grid = pg.make_grid(8)
        labels = pg.hard_assign(pg.pd_to_theta(pd), grid)
        expected = np.where(grid.points[:, 0] < 0, 1, 2)
        assert np.array_equal(labels, expected)

    def test_dimension_mismatch(self, rng):
        basis1 = pg.DesignBasis.make(pg.MONOMIAL, 1)
        basis2 = pg.DesignBasis.make(pg.MONOMIAL, 2)
        theta = pg.ParamMatrix(rng.normal(size=(3, 2)), basis1)
        grid = pg.make_grid(2)
        with pytest.raises(ValueError):
            pg.hard_assign(theta, grid, pg.assemble_design_matrix(basis2, grid))

    def test_tie_break_prefers_smaller_index(self, rng):
        # Duplicate a column: the later copy must never win.
        grid = pg.make_grid(5)
        basis = pg.DesignBasis.make(pg.LEGENDRE, 2)
        values = rng.normal(size=(6, 4))
        values[:, 3] = values[:, 1]
        theta = pg.ParamMatrix(values, basis)
        labels = pg.hard_assign(theta, grid)
        assert not np.any(labels == 4)


class TestGeneratePD:
    def test_symmetric_two_seed_split(self):
        pd = pg.PhysicalPD(seeds=np.array([[-0.4, 0.0], [0.4, 0.0]]), weights=np.zeros(2))
        gm = pg.generate_pd(pd, pg.make_grid(10))
        assert np.bincount(gm.labels - 1).tolist() == [200, 200]

    def test_dominant_weight_takes_all(self):
        pd = pg.PhysicalPD(seeds=np.array([[0.2, 0.2], [0.2, 0.2]]),
                           weights=np.array([50.0, 0.0]))
        gm = pg.generate_pd(pd, pg.make_grid(5))
        assert np.all(gm.labels == 1)

    def test_matches_brute_force_nearest_seed(self, rng):
        pd = random_pd(rng, 5)
        grid = pg.make_grid(4)
        gm = pg.generate_pd(pd, grid)
        for x, lab in zip(grid.points, gm.labels):
            costs = [np.sum((x - y) ** 2) - w for y, w in zip(pd.seeds, pd.weights)]
            assert costs[lab - 1] <= min(costs) + 1e-12

    def test_equals_linearised_assignment_on_large_instance(self, rng):
        pd = random_pd(rng, 50)
        grid = pg.make_grid(70)
        gm = pg.generate_pd(pd, grid)
        theta = pg.pd_to_theta(pd)
        labels = pg.hard_assign(theta, grid)
        assert np.array_equal(gm.labels, labels)
        assert np.array_equal(gm.labels, pg.argmin_labels(physical_costs(pd, grid.points)))


class TestGenerateAPD:
    def test_identity_matrices_reduce_to_pd(self, rng):
        pd = random_pd(rng, 7)
        apd = pg.PhysicalAPD(seeds=pd.seeds, weights=pd.weights,
                             anisotropy=np.broadcast_to(np.eye(2), (7, 2, 2)).copy())
        grid = pg.make_grid(9)
        expected = pg.argmin_labels(physical_costs(pd, grid.points))
        assert np.array_equal(pg.generate_apd(apd, grid).labels, expected)
        assert np.array_equal(pg.generate_pd(pd, grid).labels, expected)

    def test_dominant_weight_constant_map(self):
        mats = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
        apd = pg.PhysicalAPD(seeds=np.zeros((2, 2)), weights=np.array([100.0, 0.0]),
                             anisotropy=mats)
        gm = pg.generate_apd(apd, pg.make_grid(3))
        assert np.all(gm.labels == 1)

    def test_axis_aligned_anisotropy_split(self):
        mats = np.array([np.diag([4.0, 1.0]), np.diag([1.0, 4.0])])
        apd = pg.PhysicalAPD(seeds=np.zeros((2, 2)), weights=np.zeros(2), anisotropy=mats)
        grid = pg.make_grid(6)
        gm = pg.generate_apd(apd, grid)
        x1, x2 = grid.points[:, 0], grid.points[:, 1]
        # cost_1 - cost_2 = 3 x1^2 - 3 x2^2: grain 1 wins where |x1| < |x2|,
        # and ties (the grid diagonals, equal up to rounding) go to the
        # smaller index. Genuine magnitude gaps on this grid are >= 1/6.
        expected = np.where(np.abs(x1) <= np.abs(x2) + 1e-9, 1, 2)
        assert np.array_equal(gm.labels, expected)

    def test_equals_linearised_assignment(self, rng):
        apd = random_apd(rng, 12)
        grid = pg.make_grid(12)
        gm = pg.generate_apd(apd, grid)
        assert np.array_equal(gm.labels, pg.argmin_labels(physical_costs(apd, grid.points)))

    def test_peak_memory_stays_below_whole_map_costs(self, rng):
        # N=200 grains on 4e4 pixels: a whole-map cost matrix alone is 64 MB.
        apd = random_apd(rng, 200)
        grid = pg.make_grid(100)
        tracemalloc.start()
        try:
            pg.generate_apd(apd, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_rejects_indefinite_matrix(self):
        mats = np.array([np.diag([1.0, -0.5]), np.eye(2)])
        apd = pg.PhysicalAPD(seeds=np.zeros((2, 2)), weights=np.zeros(2), anisotropy=mats)
        with pytest.raises(ValueError, match="positive definite"):
            pg.generate_apd(apd, pg.make_grid(2))


class TestAccuracy:
    def test_perfect(self, rng):
        gm = pg.generate_pd(random_pd(rng, 4), pg.make_grid(5))
        acc, err = accuracy_and_error(gm, gm.labels)
        assert (acc, err) == (1.0, 0.0)

    def test_fully_ambiguous_share_of_grain_one(self):
        grid = pg.make_grid(5)
        labels = np.full(len(grid), 2)
        labels[:30] = 1  # grain 1 owns 30% of the 100 pixels
        gm = pg.GrainMap(grid=grid, labels=labels, n_grains=2)
        assigned = np.ones(len(grid), dtype=int)
        acc, err = accuracy_and_error(gm, assigned)
        assert acc == pytest.approx(0.3, abs=0)
        assert err == pytest.approx(0.7, abs=1e-15)

    def test_complete_mismatch(self):
        grid = pg.make_grid(3)
        gm = pg.GrainMap(grid=grid, labels=np.full(len(grid), 1), n_grains=2)
        acc, err = accuracy_and_error(gm, np.full(len(grid), 2))
        assert (acc, err) == (0.0, 1.0)

    def test_acc_plus_err_is_one_exactly(self, rng):
        grid = pg.make_grid(4)  # 64 pixels; try many odd splits
        for k in range(0, 65, 7):
            labels = np.full(64, 1)
            gm = pg.GrainMap(grid=grid, labels=labels, n_grains=2)
            assigned = np.full(64, 2)
            assigned[:k] = 1
            acc, err = accuracy_and_error(gm, assigned)
            assert acc + err == 1.0


def test_sym2x2_eigvals_match_numpy(rng):
    mats = rng.normal(size=(20, 2, 2))
    mats = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
    ours = pg.sym2x2_eigvals(mats)
    ref = np.sort(np.linalg.eigvalsh(mats), axis=1)
    assert np.allclose(ours, ref, atol=1e-12)
