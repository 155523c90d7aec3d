import numpy as np
import pytest

import polygrain as pg


def random_pd(rng, n):
    return pg.PhysicalPD(seeds=rng.uniform(-1.0, 1.0, (n, 2)),
                         weights=rng.uniform(0.0, 0.1, n))


def random_apd(rng, n, level=0.3):
    angles = rng.uniform(0.0, np.pi, n)
    strengths = rng.uniform(0.5, 1.5, n)
    e1 = np.exp(level * strengths)
    e2 = np.exp(-level * strengths)
    c, s = np.cos(angles), np.sin(angles)
    mats = np.empty((n, 2, 2))
    mats[:, 0, 0] = c * c * e1 + s * s * e2
    mats[:, 0, 1] = c * s * (e1 - e2)
    mats[:, 1, 0] = mats[:, 0, 1]
    mats[:, 1, 1] = s * s * e1 + c * c * e2
    return pg.PhysicalAPD(seeds=rng.uniform(-1.0, 1.0, (n, 2)),
                          weights=rng.uniform(0.0, 0.1, n), anisotropy=mats)


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
    basis = pg.DesignBasis.make(kind, degree)
    values = rng.normal(0.0, scale, (basis.dimension, n))
    if gauge == pg.GAUGE_LAST_ZERO:
        values[:, -1] = 0.0
    return pg.ParamMatrix(values=values, basis=basis, gauge=gauge)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
