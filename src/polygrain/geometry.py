"""Pixel domains, grain maps, and the parameters of (anisotropic) power diagrams.

The ambient domain is the square [-1,1]^2, sampled either on a regular grid of
(2M)^2 pixel centres or on an arbitrary finite point list. A grain map assigns
each sample point a label in {1,...,N}. Labels come from arg-min assignment
against per-grain costs with deterministic smallest-index tie-breaking
(``argmin_labels``); synthetic maps are generated in ``conversions`` from the
linear coefficients of a diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Two per-pixel costs count as tied when they differ by no more than this,
# relative to the magnitude of the minimum. Exact equality is meaningless in
# floating point, and synthetic generation needs a deterministic tie rule.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class PixelGrid:
    """A finite list of sample points in [-1,1]^2.

    Point order is fixed and reproducible: row-major in (k1,k2) for the
    regular grids of ``make_grid``, file/constructor order otherwise.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        if pts.shape[0] == 0:
            raise ValueError("a grid needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if np.any(np.abs(pts) >= 1.0):
            raise ValueError("grid points must lie strictly inside [-1,1]^2")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def make_grid(m: int) -> PixelGrid:
    """Regular grid of (2M)^2 pixel centres in [-1,1]^2.

    Point (k1,k2) sits at (-1,-1) + (1/M)(k1-1/2, k2-1/2) for k_i in
    {1,...,2M}, ordered row-major in (k1,k2).
    """
    m = int(m)
    if m < 1:
        raise ValueError("grid resolution M must be >= 1")
    coords = -1.0 + (np.arange(1, 2 * m + 1) - 0.5) / m
    x1 = np.repeat(coords, 2 * m)
    x2 = np.tile(coords, 2 * m)
    return PixelGrid(points=np.column_stack([x1, x2]))


@dataclass(frozen=True)
class GrainMap:
    """Labels in {1,...,N} over a grid; the fitting target.

    Individual grains may be empty (labels need not be surjective onto [N]).
    """

    grid: PixelGrid
    labels: np.ndarray
    n_grains: int

    def __post_init__(self):
        lab = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if lab.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if lab.shape[0] != len(self.grid):
            raise ValueError(
                f"labels length {lab.shape[0]} != number of grid points {len(self.grid)}"
            )
        n = int(self.n_grains)
        if n <= 1:
            raise ValueError("a grain map needs at least two grains")
        if lab.size and (lab.min() < 1 or lab.max() > n):
            raise ValueError(f"labels must lie in 1..{n}")
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "n_grains", n)

    def __len__(self) -> int:
        return len(self.grid)


@dataclass(frozen=True)
class PhysicalPD:
    """Power diagram parameters: seed points and additive weights."""

    seeds: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        seeds = np.ascontiguousarray(np.asarray(self.seeds, dtype=np.float64))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if seeds.ndim != 2 or seeds.shape[1] != 2:
            raise ValueError("seeds must have shape (N, 2)")
        if weights.shape != (seeds.shape[0],):
            raise ValueError("weights must have shape (N,)")
        if seeds.shape[0] < 2:
            raise ValueError("need at least two grains")
        if not (np.all(np.isfinite(seeds)) and np.all(np.isfinite(weights))):
            raise ValueError("seeds and weights must be finite")
        seeds.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "weights", weights)

    @property
    def n_grains(self) -> int:
        return self.seeds.shape[0]


@dataclass(frozen=True)
class PhysicalAPD:
    """Anisotropic power diagram parameters: seeds, weights, symmetric 2x2 matrices.

    Positive definiteness of the anisotropy matrices is a property checked on
    demand (``min_eigenvalues``), not a construction invariant: linear fits can
    legitimately produce indefinite matrices.
    """

    seeds: np.ndarray
    weights: np.ndarray
    anisotropy: np.ndarray

    def __post_init__(self):
        seeds = np.ascontiguousarray(np.asarray(self.seeds, dtype=np.float64))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        mats = np.ascontiguousarray(np.asarray(self.anisotropy, dtype=np.float64))
        if seeds.ndim != 2 or seeds.shape[1] != 2:
            raise ValueError("seeds must have shape (N, 2)")
        n = seeds.shape[0]
        if n < 2:
            raise ValueError("need at least two grains")
        if weights.shape != (n,):
            raise ValueError("weights must have shape (N,)")
        if mats.shape != (n, 2, 2):
            raise ValueError("anisotropy must have shape (N, 2, 2)")
        if not (np.all(np.isfinite(seeds)) and np.all(np.isfinite(weights))
                and np.all(np.isfinite(mats))):
            raise ValueError("seeds, weights and anisotropy must be finite")
        asym = np.abs(mats[:, 0, 1] - mats[:, 1, 0])
        scale = 1.0 + np.abs(mats).max(axis=(1, 2))
        if np.any(asym > 1e-12 * scale):
            raise ValueError("anisotropy matrices must be symmetric")
        for arr in (seeds, weights, mats):
            arr.setflags(write=False)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "anisotropy", mats)

    @property
    def n_grains(self) -> int:
        return self.seeds.shape[0]

    def min_eigenvalues(self) -> np.ndarray:
        """Smallest eigenvalue of each anisotropy matrix, shape (N,)."""
        return sym2x2_eigvals(self.anisotropy)[:, 0]


def sym2x2_eigvals(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric 2x2 matrices in closed form, ascending.

    ``mats`` has shape (..., 2, 2); returns shape (..., 2). The off-diagonal
    is symmetrised before use.
    """
    mats = np.asarray(mats, dtype=np.float64)
    a = mats[..., 0, 0]
    b = 0.5 * (mats[..., 0, 1] + mats[..., 1, 0])
    c = mats[..., 1, 1]
    half_tr = 0.5 * (a + c)
    disc = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    return np.stack([half_tr - disc, half_tr + disc], axis=-1)


def argmin_labels(costs: np.ndarray) -> np.ndarray:
    """Smallest index attaining the (tie-tolerant) minimum of each column.

    ``costs`` has shape (N, n); returns 1-based labels of shape (n,). Costs
    within TIE_RTOL*(1+|min|) of the column minimum count as tied, and the
    smallest tied index wins.
    """
    m = costs.min(axis=0)
    tol = TIE_RTOL * (1.0 + np.abs(m))
    return np.argmax(costs <= m + tol, axis=0).astype(np.int64) + 1
