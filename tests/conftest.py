import numpy as np
import pytest

import polygrain as pg
from polygrain.cli import _random_physical
from polygrain.objective import tile_layout


def random_pd(rng, n):
    return _random_physical("pd", n, rng, 0.0)


def random_apd(rng, n, level=0.3):
    return _random_physical("apd", n, rng, level)


def random_grain_map(rng, m, n):
    """Grain map from a random power diagram; regenerated until no grain is empty."""
    grid = pg.make_grid(m)
    for _ in range(50):
        gm = pg.generate_pd(random_pd(rng, n), grid)
        if np.unique(gm.labels).size == n:
            return gm
    raise AssertionError("could not build a grain map without empty grains")


def random_labels_map(rng, m, n):
    """Grain map with i.i.d. labels: essentially never perfectly representable."""
    grid = pg.make_grid(m)
    labels = rng.integers(1, n + 1, size=len(grid))
    labels[:n] = np.arange(1, n + 1)
    return pg.GrainMap(grid=grid, labels=labels, n_grains=n)


def random_theta(rng, degree, n, kind=pg.LEGENDRE, scale=1.0, gauge=pg.GAUGE_FREE):
    basis = pg.DesignBasis(kind, degree)
    values = rng.normal(0.0, scale, (basis.dimension, n))
    if gauge == pg.GAUGE_LAST_ZERO:
        values[:, -1] = 0.0
    return pg.ParamMatrix(values=values, basis=basis, gauge=gauge)


def tiled(basis, points, design_values, labels0, n_grains, side=None):
    """(design values, 0-based labels, layout) of a problem in the kernel's tile order;
    ``side`` x ``side`` cells, or the kernel's own partition when None. The layout
    drops its order, as the fit's does: the arrays are already in that order."""
    layout = tile_layout(basis, points, n_grains, labels0, side)
    return design_values[:, layout.order], labels0[layout.order], layout._replace(order=None)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
