"""Maps between linear coefficients and the geometric diagram parameters.

A power diagram with seed y and weight w is the degree-1 diagram with cost
|x-y|^2 - w; expanding gives the coefficients (per grain, by multi-index)

    x^(0,0): |y|^2 - w,   x^(1,0): -2 y_1,   x^(0,1): -2 y_2.

An anisotropic power diagram with symmetric matrix A is the degree-2 diagram
with cost (x-y).A(x-y) - w, giving additionally

    x^(2,0): A_11,   x^(1,1): 2 A_12,   x^(0,2): A_22.

Both maps invert in closed form. The inverse is not canonical: adding a
common vector to every coefficient column leaves the diagram unchanged but
moves the recovered (y, w, A).

Synthetic grain maps are generated through the same maps: ``generate_apd``
labels each pixel by the tiled arg-min (``objective.hard_assign``) of the
degree-2 coefficients of its diagram, and ``generate_pd`` is ``generate_apd``
with identity anisotropy, so no whole-map cost matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    DesignBasis,
    GAUGE_FREE,
    LEGENDRE,
    MONOMIAL,
    ParamMatrix,
    basis_change,
    basis_change_inverse,
)
from .geometry import GrainMap, PhysicalAPD, PhysicalPD, PixelGrid, sym2x2, sym2x2_eigvals
from .objective import hard_assign


def _positions_d1(basis):
    return basis.position((0, 0)), basis.position((1, 0)), basis.position((0, 1))


def _positions_d2(basis):
    return (basis.position((2, 0)), basis.position((1, 1)),
            basis.position((0, 2)))


def _require_monomial(theta: ParamMatrix, degree: int, op: str) -> None:
    if theta.basis.kind != MONOMIAL:
        raise ValueError(f"{op} expects monomial coefficients; use coeffs_to_basis first")
    if theta.degree != degree:
        raise ValueError(f"{op} expects degree {degree}, got {theta.degree}")


def pd_to_theta(pd: PhysicalPD) -> ParamMatrix:
    """Degree-1 monomial coefficients of a power diagram, one column per grain."""
    basis = DesignBasis(MONOMIAL, 1)
    p00, p10, p01 = _positions_d1(basis)
    theta = np.empty((3, pd.n_grains))
    y1, y2 = pd.seeds[:, 0], pd.seeds[:, 1]
    theta[p10] = -2.0 * y1
    theta[p01] = -2.0 * y2
    theta[p00] = y1 * y1 + y2 * y2 - pd.weights
    return ParamMatrix(values=theta, basis=basis, gauge=GAUGE_FREE)


def theta_to_pd(theta: ParamMatrix) -> PhysicalPD:
    """Seeds and weights of the power diagram encoded by degree-1 coefficients."""
    _require_monomial(theta, 1, "theta_to_pd")
    p00, p10, p01 = _positions_d1(theta.basis)
    t1, t2, t0 = theta.values[p10], theta.values[p01], theta.values[p00]
    seeds = np.column_stack([-0.5 * t1, -0.5 * t2])
    weights = 0.25 * t1 * t1 + 0.25 * t2 * t2 - t0
    return PhysicalPD(seeds=seeds, weights=weights)


def apd_to_theta(apd: PhysicalAPD) -> ParamMatrix:
    """Degree-2 monomial coefficients of an anisotropic power diagram."""
    basis = DesignBasis(MONOMIAL, 2)
    p00, p10, p01 = _positions_d1(basis)
    p20, p11, p02 = _positions_d2(basis)
    a11 = apd.anisotropy[:, 0, 0]
    a12 = 0.5 * (apd.anisotropy[:, 0, 1] + apd.anisotropy[:, 1, 0])
    a22 = apd.anisotropy[:, 1, 1]
    y1, y2 = apd.seeds[:, 0], apd.seeds[:, 1]
    theta = np.empty((6, apd.n_grains))
    theta[p20] = a11
    theta[p11] = 2.0 * a12
    theta[p02] = a22
    theta[p10] = -2.0 * (a11 * y1 + a12 * y2)
    theta[p01] = -2.0 * (a12 * y1 + a22 * y2)
    theta[p00] = y1 * (a11 * y1 + a12 * y2) + y2 * (a12 * y1 + a22 * y2) - apd.weights
    return ParamMatrix(values=theta, basis=basis, gauge=GAUGE_FREE)


def generate_apd(apd: PhysicalAPD, grid: PixelGrid) -> GrainMap:
    """Grain map induced by an anisotropic power diagram.

    Costs are (x-y_i).A_i(x-y_i) - w_i; every A_i must be positive definite.
    Labels are the arg-min of the equal degree-2 costs of ``apd_to_theta``.
    """
    lam_min = apd.min_eigenvalues()
    tol = 1e-12 * (1.0 + np.abs(np.trace(apd.anisotropy, axis1=1, axis2=2)))
    bad = np.nonzero(lam_min <= tol)[0]
    if bad.size:
        raise ValueError(
            f"anisotropy matrices must be positive definite; offending grains: {(bad + 1).tolist()}"
        )
    theta = apd_to_theta(apd)
    return GrainMap(grid=grid, labels=hard_assign(theta, grid),
                    n_grains=apd.n_grains)


def generate_pd(pd: PhysicalPD, grid: PixelGrid) -> GrainMap:
    """Grain map induced by a power diagram: argmin_i |x-y_i|^2 - w_i.

    The anisotropic diagram with identity matrices, so an APD with A_i = I
    gives exactly the same labels.
    """
    eye = np.broadcast_to(np.eye(2), (pd.n_grains, 2, 2))
    return generate_apd(PhysicalAPD(seeds=pd.seeds, weights=pd.weights, anisotropy=eye), grid)


@dataclass(frozen=True)
class APDRecovery:
    """Per-grain geometric parameters recovered from degree-2 coefficients.

    Grains whose quadratic block A is singular carry A only; their seed and
    weight entries are NaN and ``recoverable`` is False there.
    """

    anisotropy: np.ndarray
    seeds: np.ndarray
    weights: np.ndarray
    recoverable: np.ndarray

    @property
    def n_grains(self) -> int:
        return self.anisotropy.shape[0]

    def to_apd(self) -> PhysicalAPD:
        if not bool(self.recoverable.all()):
            bad = (np.nonzero(~self.recoverable)[0] + 1).tolist()
            raise ValueError(f"grains with singular anisotropy cannot be recovered: {bad}")
        return PhysicalAPD(seeds=self.seeds, weights=self.weights, anisotropy=self.anisotropy)


def theta_to_apd(theta: ParamMatrix) -> APDRecovery:
    """Anisotropy, seeds and weights encoded by degree-2 coefficients.

    A is read off the quadratic coefficients unconditionally; y and w need
    A to be invertible and are marked unrecoverable otherwise.
    """
    _require_monomial(theta, 2, "theta_to_apd")
    p00, p10, p01 = _positions_d1(theta.basis)
    p20, p11, p02 = _positions_d2(theta.basis)
    vals = theta.values
    a11, a12, a22 = vals[p20], 0.5 * vals[p11], vals[p02]
    mats = sym2x2(a11, a12, a22)
    # Each grain's A and b scaled by one power of two, so that |A| <= 1: the
    # adjugate's products cannot overflow, and y keeps the unscaled formula's bits.
    _, e = np.frexp(np.maximum(np.maximum(np.abs(a11), np.abs(a12)), np.abs(a22)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a11, a12, a22, b1, b2 = (np.ldexp(v, -e) for v in (a11, a12, a22, vals[p10], vals[p01]))
        det = a11 * a22 - a12 * a12
        # y = -A^{-1} b / 2 with the 2x2 adjugate inverse.
        y1 = -0.5 * (a22 * b1 - a12 * b2) / det
        y2 = -0.5 * (-a12 * b1 + a11 * b2) / det
        w = -0.5 * (vals[p10] * y1 + vals[p01] * y2) - vals[p00]
    recoverable = (det != 0.0) & np.isfinite(y1) & np.isfinite(y2) & np.isfinite(w)
    seeds = np.where(recoverable[:, None], np.column_stack([y1, y2]), np.nan)
    weights = np.where(recoverable, w, np.nan)
    return APDRecovery(anisotropy=mats, seeds=seeds, weights=weights,
                       recoverable=recoverable)


def coeffs_to_basis(theta: ParamMatrix, target_kind: str) -> ParamMatrix:
    """Re-express coefficients in the other polynomial basis; cost values preserved."""
    if theta.basis.kind == target_kind:
        return theta
    target = DesignBasis(target_kind, theta.degree)
    t = basis_change(theta.degree) if target_kind == LEGENDRE else basis_change_inverse(theta.degree)
    with np.errstate(over="ignore"):
        values = t @ theta.values
    if not np.all(np.isfinite(values)):
        raise ValueError(f"basis change {theta.basis.kind} -> {target_kind} overflows")
    return ParamMatrix(values=values, basis=target, gauge=theta.gauge)


def psd_repair(theta: ParamMatrix, margin: float | None = None) -> ParamMatrix:
    """Shift all quadratic blocks by the same multiple of the identity.

    Adds lam = max(0, -min_i lambda_min(A_i)) + margin to the x1^2 and x2^2
    coefficient of every grain, which replaces each A_i by A_i + lam*I while
    leaving the induced diagram unchanged (common shifts cancel in cost
    differences). Afterwards every A_i has smallest eigenvalue >= margin.

    The shift is applied unconditionally for determinism. The returned matrix
    is in the free gauge (the common shift breaks a zero final column) and in
    the same basis kind as the input.
    """
    original_kind = theta.basis.kind
    work = coeffs_to_basis(theta, MONOMIAL)
    if work.degree != 2:
        raise ValueError(f"psd_repair expects degree 2, got {work.degree}")
    with np.errstate(over="ignore", invalid="ignore"):
        eigs = sym2x2_eigvals(theta_to_apd(work).anisotropy)
    bad = np.flatnonzero(~np.isfinite(eigs).all(axis=1))
    if bad.size:
        raise ValueError(f"anisotropy eigenvalues of grains {(bad + 1).tolist()} overflow")
    lam_min = float(eigs[:, 0].min())
    if margin is None:
        margin = 1e-3 * (1.0 + float(np.abs(eigs).max()))
    if not 0 < margin < np.inf:
        raise ValueError(f"margin must be finite and positive, got {margin}")
    lam = max(0.0, -lam_min) + margin
    vals = work.values.copy()
    vals[work.basis.position((2, 0))] += lam
    vals[work.basis.position((0, 2))] += lam
    repaired = ParamMatrix(values=vals, basis=work.basis, gauge=GAUGE_FREE)
    return coeffs_to_basis(repaired, original_kind)
