"""Compression accounting, degree sweeps, and bound verification.

Storing a labelled pixel set naively takes 3n scalars (two coordinates and a
label per pixel), while a fitted degree-d diagram takes K_d coefficients per
grain, giving the compression ratio K_d N / (3 n). ``bound_report`` reads phi,
err and E0 from one tiled ``objective.evaluate`` pass and checks them with
``objective.bounds_hold``, the predicate ``fit`` applies to its trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .basis import DesignMatrix, ParamMatrix, feature_count
from .geometry import GrainMap
from .objective import bounds_hold, evaluate
from .optimizer import FitConfig, FitReport, fit


def compression(degree: int, n_grains: int, n_pixels: int) -> float:
    """Coefficient count over naive labelled-pixel storage: K_d N / (3 n)."""
    if degree < 1 or n_grains < 1 or n_pixels < 1:
        raise ValueError("degree, grain count and pixel count must be positive")
    return feature_count(degree) * n_grains / (3.0 * n_pixels)


@dataclass(frozen=True)
class SweepRow:
    degree: int
    k_d: int
    phi_final: float
    acc_final: float
    err_final: float
    compr: float


def degree_sweep(grain_map: GrainMap, degrees: list[int],
                 config: FitConfig) -> tuple[list[SweepRow], list[FitReport]]:
    """Fit the same map at several degrees under a shared protocol.

    ``degrees`` must be sorted ascending. Returns one table row per degree
    plus the full reports (for trajectory-level checks).
    """
    if list(degrees) != sorted(degrees):
        raise ValueError("degrees must be sorted ascending")
    rows: list[SweepRow] = []
    reports: list[FitReport] = []
    for d in degrees:
        rep = fit(grain_map, replace(config, degree=d))
        rows.append(SweepRow(degree=d, k_d=feature_count(d),
                             phi_final=rep.phi_final, acc_final=rep.acc_final,
                             err_final=rep.err_final,
                             compr=compression(d, grain_map.n_grains, len(grain_map))))
        reports.append(rep)
    return rows, reports


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the analytic consistency checks at one parameter value."""

    phi: float
    err: float
    energy_eps: float
    energy_zero: float
    eps: float
    n_grains: int
    n_pixels: int
    misassignment_bound_ok: bool
    energy_bound_ok: bool
    near_optimal: bool
    near_optimal_consistent: bool

    @property
    def all_ok(self) -> bool:
        return (self.misassignment_bound_ok and self.energy_bound_ok
                and self.near_optimal_consistent)


def bound_report(theta: ParamMatrix, grain_map: GrainMap, design: DesignMatrix,
                 eps: float) -> BoundReport:
    """Verify the objective/error inequalities at one parameter value.

    Checks, the first two with additive ``objective.BOUND_SLACK``:
      * phi <= -log(2) * err (every misassigned pixel costs at least log 2);
      * 0 <= -eps*phi - e0 <= eps*log(N) (log-sum-exp sandwich);
      * phi > -log(2)/n forces err == 0 exactly.
    """
    res = evaluate(theta, design, grain_map, eps, want_assign=True)
    phi, err, e0 = res.phi, res.err, res.e0
    n = len(grain_map)
    phi_err_ok, energy_ok = bounds_hold(phi, err, e0, eps, grain_map.n_grains)
    near_optimal = phi > -math.log(2.0) / n
    return BoundReport(
        phi=phi, err=err, energy_eps=-eps * phi, energy_zero=e0, eps=eps,
        n_grains=grain_map.n_grains, n_pixels=n,
        misassignment_bound_ok=phi_err_ok,
        energy_bound_ok=energy_ok,
        near_optimal=bool(near_optimal),
        near_optimal_consistent=bool((not near_optimal) or err == 0.0),
    )
