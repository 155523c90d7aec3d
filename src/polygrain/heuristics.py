"""Moment-based initial parameter guess from grain centroids and spreads.

Each grain contributes its pixel count, centroid and central second-moment
matrix. For a degree-1 (power diagram) start the seeds are the centroids and
the weights are area ratios; for degree >= 2 the anisotropy guess is the
inverse second-moment matrix, which elongates cells along the observed grain
axes. Higher-degree coefficients are zero-padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import LEGENDRE, GAUGE_LAST_ZERO, ParamMatrix, park, zero_pad
from .conversions import apd_to_theta, coeffs_to_basis, pd_to_theta
from .geometry import GrainMap, PhysicalAPD, PhysicalPD, sym2x2, sym2x2_eigvals

# A second-moment matrix counts as degenerate below this smallest eigenvalue
# and is ridge-regularised before inversion; tiny grains must not crash a fit.
DEGENERATE_EIG = 1e-10
RIDGE_SCALE = 1e-6


@dataclass(frozen=True)
class MomentSummary:
    """Per-grain pixel counts, centroids and central second moments.

    ``empty`` flags grains with no pixels (centroid and spread zero);
    ``degenerate`` flags singular or near-singular second-moment matrices
    (empty grains, single pixels, collinear grains).
    """

    counts: np.ndarray
    centroids: np.ndarray
    second_moments: np.ndarray
    empty: np.ndarray
    degenerate: np.ndarray

    @property
    def n_grains(self) -> int:
        return self.counts.shape[0]


def moments(grain_map: GrainMap) -> MomentSummary:
    """Pixel counts, centroids and central second-moment matrices per grain."""
    n = grain_map.n_grains
    lab0 = grain_map.labels - 1
    x1 = grain_map.grid.points[:, 0]
    x2 = grain_map.grid.points[:, 1]
    counts = np.bincount(lab0, minlength=n)
    empty = counts == 0
    safe = np.where(empty, 1, counts).astype(np.float64)

    s1 = np.bincount(lab0, weights=x1, minlength=n)
    s2 = np.bincount(lab0, weights=x2, minlength=n)
    centroids = np.column_stack([s1 / safe, s2 / safe])

    q11 = np.bincount(lab0, weights=x1 * x1, minlength=n) / safe
    q12 = np.bincount(lab0, weights=x1 * x2, minlength=n) / safe
    q22 = np.bincount(lab0, weights=x2 * x2, minlength=n) / safe
    c1, c2 = centroids[:, 0], centroids[:, 1]
    b = sym2x2(q11 - c1 ** 2, q12 - c1 * c2, q22 - c2 ** 2)

    degenerate = sym2x2_eigvals(b)[:, 0] < DEGENERATE_EIG
    return MomentSummary(counts=counts, centroids=centroids, second_moments=b,
                         empty=empty, degenerate=degenerate)


def _invert_spread(summary: MomentSummary) -> np.ndarray:
    """Anisotropy guesses (B_i)^{-1}, ridge-regularising degenerate spreads."""
    b = summary.second_moments
    tr = b[:, 0, 0] + b[:, 1, 1]
    ridge = np.where(summary.degenerate, RIDGE_SCALE * np.where(tr > 0, tr / 2.0, 1.0), 0.0)
    b11, b12, b22 = b[:, 0, 0] + ridge, b[:, 0, 1], b[:, 1, 1] + ridge
    det = b11 * b22 - b12 * b12
    return sym2x2(b22 / det, -b12 / det, b11 / det)


def heuristic_theta(grain_map: GrainMap, degree: int, kind: str = LEGENDRE) -> ParamMatrix:
    """Moment-based initial coefficients for a degree-d fit, gauge-fixed.

    degree 1 uses the power-diagram guess (identity anisotropy); degree >= 2
    uses the inverse-second-moment anisotropy. The weight guess is
    sqrt(det A_i) |G_i| / (n pi), the grain area relative to its moment
    ellipse. An empty grain is parked (``basis.park``) at a constant cost
    above every non-empty grain's, so it wins no pixel. The result is re-gauged
    so that the final column is exactly zero, which leaves the induced diagram
    unchanged.
    """
    if degree < 1:
        raise ValueError("heuristic initialisation needs degree >= 1")
    summary = moments(grain_map)
    n_pixels = len(grain_map)
    area_ratio = summary.counts / (n_pixels * np.pi)

    if degree == 1:
        pd = PhysicalPD(seeds=summary.centroids, weights=area_ratio)
        theta = pd_to_theta(pd)
    else:
        mats = _invert_spread(summary)
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        weights = np.sqrt(np.maximum(det, 0.0)) * area_ratio
        apd = PhysicalAPD(seeds=summary.centroids, weights=weights, anisotropy=mats)
        theta = apd_to_theta(apd)

    theta = zero_pad(theta, degree)
    theta = coeffs_to_basis(theta, kind)
    values = theta.values.copy()
    park(values, theta.basis, summary.empty)
    return ParamMatrix(values=values - values[:, -1:], basis=theta.basis, gauge=GAUGE_LAST_ZERO)
