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

from .errors import ResourceError

# Two per-pixel costs count as tied when they differ by no more than this,
# relative to the magnitude of the minimum. Exact equality is meaningless in
# floating point, and synthetic generation needs a deterministic tie rule.
TIE_RTOL = 1e-12


def _freeze(obj, **arrays) -> None:
    """Set the named fields of frozen dataclass ``obj`` to read-only views of the
    given arrays; an array that is the caller's own stays writable, uncopied."""
    for name, arr in arrays.items():
        view = arr.view()
        view.setflags(write=False)
        object.__setattr__(obj, name, view)


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
        lo, hi = pts.min(), pts.max()  # NaN if any point is NaN; no n x 2 temporaries
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("grid points must be finite")
        if lo <= -1.0 or hi >= 1.0:
            raise ValueError("grid points must lie strictly inside [-1,1]^2")
        _freeze(self, points=pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def make_grid(m: int) -> PixelGrid:
    """Regular grid of (2M)^2 pixel centres in [-1,1]^2.

    Point (k1,k2) sits at (-1,-1) + (1/M)(k1-1/2, k2-1/2) for k_i in
    {1,...,2M}, ordered row-major in (k1,k2). The point array is allocated
    first and filled from the 2M coordinates, so the grid needs its points and
    O(M) bytes besides; an unallocatable grid raises ``ResourceError`` with the
    size of its points before any array of size M exists.
    """
    m = int(m)
    if m < 1:
        raise ValueError("grid resolution M must be >= 1")
    side = 2 * m
    try:
        points = np.empty((side * side, 2))
    except (MemoryError, ValueError) as exc:  # ValueError: beyond the largest array
        raise ResourceError(f"grid allocation failed: needs about {side * side * 16} bytes "
                            f"({side * side} x 2 float64)") from exc
    coords = -1.0 + (np.arange(1, side + 1) - 0.5) / m
    cells = points.reshape(side, side, 2)
    cells[:, :, 0] = coords[:, None]
    cells[:, :, 1] = coords[None, :]
    return PixelGrid(points=points)


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
        _freeze(self, labels=lab)
        object.__setattr__(self, "n_grains", n)

    def __len__(self) -> int:
        return len(self.grid)


def _seeds_and_weights(params) -> tuple[np.ndarray, np.ndarray]:
    """Checked float64 seeds, shape (N, 2) with N >= 2, and weights, shape (N,)."""
    seeds, weights = (np.ascontiguousarray(np.asarray(a, dtype=np.float64))
                      for a in (params.seeds, params.weights))
    if seeds.ndim != 2 or seeds.shape[1] != 2:
        raise ValueError("seeds must have shape (N, 2)")
    if seeds.shape[0] < 2:
        raise ValueError("need at least two grains")
    if weights.shape != (seeds.shape[0],):
        raise ValueError("weights must have shape (N,)")
    if not (np.all(np.isfinite(seeds)) and np.all(np.isfinite(weights))):
        raise ValueError("seeds and weights must be finite")
    return seeds, weights


@dataclass(frozen=True)
class PhysicalPD:
    """Power diagram parameters: seed points and additive weights."""

    seeds: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        seeds, weights = _seeds_and_weights(self)
        _freeze(self, seeds=seeds, weights=weights)

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
        seeds, weights = _seeds_and_weights(self)
        mats = np.ascontiguousarray(np.asarray(self.anisotropy, dtype=np.float64))
        if mats.shape != (seeds.shape[0], 2, 2):
            raise ValueError("anisotropy must have shape (N, 2, 2)")
        if not np.all(np.isfinite(mats)):
            raise ValueError("anisotropy must be finite")
        asym = np.abs(mats[:, 0, 1] - mats[:, 1, 0])
        scale = 1.0 + np.abs(mats).max(axis=(1, 2))
        if np.any(asym > 1e-12 * scale):
            raise ValueError("anisotropy matrices must be symmetric")
        _freeze(self, seeds=seeds, weights=weights, anisotropy=mats)

    @property
    def n_grains(self) -> int:
        return self.seeds.shape[0]

    def min_eigenvalues(self) -> np.ndarray:
        """Smallest eigenvalue of each anisotropy matrix, shape (N,)."""
        return sym2x2_eigvals(self.anisotropy)[:, 0]


def sym2x2(a11, a12, a22) -> np.ndarray:
    """Stack [[a11, a12], [a12, a22]] from entry arrays of shape (...) to shape (..., 2, 2)."""
    return np.stack([a11, a12, a12, a22], axis=-1).reshape(np.shape(a11) + (2, 2))


def sym2x2_eigvals(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric 2x2 matrices in closed form, ascending.

    ``mats`` has shape (..., 2, 2); returns shape (..., 2). The off-diagonal
    is symmetrised before use. The discriminant squares no entry, so finite
    entries below 2^1022 (about 4.5e307) in magnitude give finite eigenvalues.
    """
    mats = np.asarray(mats, dtype=np.float64)
    a = mats[..., 0, 0]
    b = 0.5 * (mats[..., 0, 1] + mats[..., 1, 0])
    c = mats[..., 1, 1]
    half_tr = 0.5 * (a + c)
    disc = np.hypot(0.5 * (a - c), b)
    return np.stack([half_tr - disc, half_tr + disc], axis=-1)


def tie_threshold(m):
    """The largest cost tied with minimum ``m``; ``argmin_labels`` and the objective
    kernel's error count both use it, so that they round alike and agree."""
    return m + TIE_RTOL * (1.0 + np.abs(m))


def argmin_labels(costs: np.ndarray) -> np.ndarray:
    """Smallest index attaining the (tie-tolerant) minimum of each column.

    ``costs`` has shape (N, n); returns 1-based labels of shape (n,). Costs
    up to ``tie_threshold`` of the column minimum count as tied, and the
    smallest tied index wins.
    """
    return np.argmax(costs <= tie_threshold(costs.min(axis=0)), axis=0).astype(np.int64) + 1
