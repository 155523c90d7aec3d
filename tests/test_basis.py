import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

import polygrain as pg
from polygrain.basis import MultiIndexSet
from reference import gram_condition


class TestMultiIndexSet:
    @pytest.mark.parametrize("degree,expected", [(1, 3), (2, 6), (3, 10), (7, 36)])
    def test_counts(self, degree, expected):
        assert len(MultiIndexSet.for_degree(degree)) == expected
        assert pg.feature_count(degree) == expected

    def test_graded_lex_order_d2(self):
        idx = MultiIndexSet.for_degree(2)
        assert idx.indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_positions_consistent(self):
        idx = MultiIndexSet.for_degree(5)
        for pos, alpha in enumerate(idx.indices):
            assert idx.position(alpha) == pos

    def test_position_rejects_outside(self):
        idx = MultiIndexSet.for_degree(2)
        with pytest.raises(ValueError):
            idx.position((3, 0))


class TestLegendreEval:
    def test_p0_p1(self):
        assert pg.legendre_all(0, 0.77)[0] == 1.0
        assert pg.legendre_all(1, 0.3)[1] == 0.3

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 9])
    def test_value_one_at_one(self, m):
        assert pg.legendre_all(m, 1.0)[m] == pytest.approx(1.0, abs=1e-14)

    def test_p3_half(self):
        assert pg.legendre_all(3, 0.5)[3] == pytest.approx(-0.4375, abs=0)

    @pytest.mark.parametrize("m", range(8))
    def test_matches_reference_series(self, m, rng):
        t = rng.uniform(-1, 1, 50)
        coeffs = np.zeros(m + 1)
        coeffs[m] = 1.0
        assert np.allclose(pg.legendre_all(m, t)[m], npleg.legval(t, coeffs),
                           rtol=1e-13, atol=1e-13)


class TestEvalDesign:
    def test_d1_monomial_components(self):
        basis = pg.DesignBasis.make(pg.MONOMIAL, 1)
        vec = basis.evaluate(np.array([[0.2, -0.4]]))[:, 0]
        # index order (0,0), (1,0), (0,1)
        assert vec.tolist() == [1.0, 0.2, -0.4]

    def test_d2_monomial_all_ones_at_corner(self):
        # the feature map itself has no domain-boundary special cases
        basis = pg.DesignBasis.make(pg.MONOMIAL, 2)
        assert basis.evaluate(np.array([[1.0, 1.0]]))[:, 0].tolist() == [1.0] * 6

    def test_d2_legendre_at_origin(self):
        basis = pg.DesignBasis.make(pg.LEGENDRE, 2)
        vec = basis.evaluate(np.array([[0.0, 0.0]]))[:, 0]
        assert vec[basis.index_set.position((2, 0))] == pytest.approx(-0.5, abs=0)
        assert vec[basis.index_set.position((0, 2))] == pytest.approx(-0.5, abs=0)
        assert vec[basis.index_set.position((1, 1))] == 0.0


class TestDesignMatrix:
    def test_constant_row_is_ones(self):
        basis = pg.DesignBasis.make(pg.MONOMIAL, 1)
        design = pg.assemble_design_matrix(basis, pg.make_grid(1))
        assert design.values.shape == (3, 4)
        assert np.all(design.values[basis.index_set.position((0, 0))] == 1.0)

    def test_cross_term_row_on_m1(self):
        basis = pg.DesignBasis.make(pg.MONOMIAL, 2)
        design = pg.assemble_design_matrix(basis, pg.make_grid(1))
        row = design.values[basis.index_set.position((1, 1))]
        assert row.tolist() == [0.25, -0.25, -0.25, 0.25]

    def test_large_shape(self):
        # unstructured list standing in for an irregular pixel set
        rng = np.random.default_rng(0)
        grid = pg.PixelGrid(points=rng.uniform(-0.99, 0.99, (63252, 2)))
        basis = pg.DesignBasis.make(pg.LEGENDRE, 7)
        design = pg.assemble_design_matrix(basis, grid)
        assert design.values.shape == (36, 63252)

    def test_columns_match_eval_design(self, rng):
        basis = pg.DesignBasis.make(pg.LEGENDRE, 3)
        grid = pg.PixelGrid(points=rng.uniform(-0.9, 0.9, (17, 2)))
        design = pg.assemble_design_matrix(basis, grid)
        for j in (0, 5, 16):
            assert np.array_equal(design.values[:, j], basis.evaluate(grid.points[j:j + 1])[:, 0])


class TestBasisChange:
    def test_identity_at_degree_one(self):
        assert np.array_equal(pg.basis_change(1), np.eye(3))

    def test_x1_squared_expansion(self):
        idx = MultiIndexSet.for_degree(2)
        e = np.zeros(6)
        e[idx.position((2, 0))] = 1.0
        coeffs = pg.basis_change(2) @ e
        expected = np.zeros(6)
        expected[idx.position((0, 0))] = 1.0 / 3.0
        expected[idx.position((2, 0))] = 2.0 / 3.0
        assert np.allclose(coeffs, expected, atol=1e-15)

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 7, 10])
    def test_round_trip_identity(self, degree):
        t = pg.basis_change(degree)
        t_inv = pg.basis_change_inverse(degree)
        k = pg.feature_count(degree)
        assert np.abs(t_inv @ t - np.eye(k)).max() <= 1e-12
        assert np.abs(t @ t_inv - np.eye(k)).max() <= 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 7])
    def test_cost_values_agree_across_bases(self, degree, rng):
        basis_m = pg.DesignBasis.make(pg.MONOMIAL, degree)
        basis_l = pg.DesignBasis.make(pg.LEGENDRE, degree)
        t = pg.basis_change(degree)
        x = rng.uniform(-1, 1, (1000, 2))
        em = basis_m.evaluate(x)
        el = basis_l.evaluate(x)
        theta = rng.normal(size=pg.feature_count(degree))
        hm = theta @ em
        hl = (t @ theta) @ el
        assert np.all(np.abs(hm - hl) <= 1e-10 * (1.0 + np.abs(hm)))


class TestGramCondition:
    def test_monomial_gram_diagonal_on_symmetric_grid(self):
        grid = pg.make_grid(6)
        basis = pg.DesignBasis.make(pg.MONOMIAL, 1)
        design = pg.assemble_design_matrix(basis, grid)
        gram = design.values @ design.values.T / len(grid)
        m2 = float(np.mean(grid.points[:, 0] ** 2))
        expected = np.diag([1.0, m2, m2])
        assert np.allclose(gram, expected, atol=1e-14)
        assert gram_condition(design) == pytest.approx(1.0 / m2, rel=1e-12)

    def test_legendre_not_worse_than_monomial_d5(self):
        grid = pg.make_grid(50)
        cond_m = gram_condition(pg.assemble_design_matrix(pg.DesignBasis.make(pg.MONOMIAL, 5), grid))
        cond_l = gram_condition(pg.assemble_design_matrix(pg.DesignBasis.make(pg.LEGENDRE, 5), grid))
        assert cond_l <= cond_m

    def test_equal_conditions_at_degree_one(self):
        grid = pg.make_grid(7)
        cond_m = gram_condition(pg.assemble_design_matrix(pg.DesignBasis.make(pg.MONOMIAL, 1), grid))
        cond_l = gram_condition(pg.assemble_design_matrix(pg.DesignBasis.make(pg.LEGENDRE, 1), grid))
        assert cond_m == pytest.approx(cond_l, rel=1e-12)

    def test_singular_gram_reports_infinity(self):
        # three collinear points cannot span the degree-1 feature space
        grid = pg.PixelGrid(points=np.array([[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]]))
        design = pg.assemble_design_matrix(pg.DesignBasis.make(pg.MONOMIAL, 1), grid)
        assert gram_condition(design) == float("inf")

    def test_infinite_exactly_where_fit_reports_no_span(self):
        # the package's spanning check in fit is the same Gram eigenvalue test
        collinear = pg.PixelGrid(points=np.array([[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]]))
        spans = []
        for grid in (collinear, pg.make_grid(3)):
            gm = pg.GrainMap(grid=grid, labels=np.arange(len(grid)) % 2 + 1, n_grains=2)
            report = pg.fit(gm, pg.FitConfig(degree=1, basis_kind=pg.MONOMIAL, max_iters=1))
            design = pg.assemble_design_matrix(report.theta.basis, grid)
            assert report.design_spans == (gram_condition(design) < float("inf"))
            spans.append(report.design_spans)
        assert spans == [False, True]

    def test_requires_enough_points(self):
        grid = pg.make_grid(1)
        design = pg.assemble_design_matrix(pg.DesignBasis.make(pg.MONOMIAL, 2), grid)
        with pytest.raises(ValueError):
            gram_condition(design)

    def test_legendre_offdiagonals_shrink_with_resolution(self):
        vals = []
        for m in (10, 40):
            grid = pg.make_grid(m)
            design = pg.assemble_design_matrix(pg.DesignBasis.make(pg.LEGENDRE, 4), grid)
            gram = design.values @ design.values.T / len(grid)
            off = gram - np.diag(np.diag(gram))
            vals.append(np.abs(off).max())
        assert vals[1] < vals[0]


class TestParamMatrix:
    def test_rejects_wrong_row_count(self, rng):
        basis = pg.DesignBasis.make(pg.MONOMIAL, 2)
        with pytest.raises(ValueError):
            pg.ParamMatrix(rng.normal(size=(5, 3)), basis)

    def test_gauge_requires_zero_final_column(self, rng):
        basis = pg.DesignBasis.make(pg.MONOMIAL, 1)
        with pytest.raises(ValueError):
            pg.ParamMatrix(rng.normal(size=(3, 3)), basis, gauge=pg.GAUGE_LAST_ZERO)

    def test_zero_pad_preserves_costs(self, rng):
        basis = pg.DesignBasis.make(pg.LEGENDRE, 2)
        theta = pg.ParamMatrix(rng.normal(size=(6, 3)), basis)
        padded = pg.zero_pad(theta, 4)
        assert padded.values.shape == (15, 3)
        x = rng.uniform(-1, 1, (20, 2))
        h_orig = theta.values.T @ basis.evaluate(x)
        h_pad = padded.values.T @ padded.basis.evaluate(x)
        assert np.array_equal(h_orig, h_pad)
