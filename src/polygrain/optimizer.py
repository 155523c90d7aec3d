"""Gauge-fixed quasi-Newton ascent on the label log-likelihood.

The final grain's coefficient column is pinned to zero and the remaining
K*(N-1) entries are optimised with a limited-memory BFGS update and a strong
Wolfe line search. The run uses a fixed iteration budget rather than a
gradient-norm stop: near the optimum the objective is extremely flat, and in
the separable regime no maximiser exists at all.

When the memory is empty the search direction is g/|g|^2, which makes the
whole trajectory equivariant under the temperature rescaling
(eps, theta) -> (1, theta/eps): both runs see identical line-search problems,
so recorded objective values coincide.

Only the N' grains that own a pixel, and the last, which carries the gauge, are
fitted: an empty grain enters the objective only through the log-sum-exp
denominator, so the supremum over its coefficients is the objective without it.
``fit`` runs the kernel on N' columns and parks each dropped grain on output.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .basis import (DesignBasis, GAUGE_LAST_ZERO, LEGENDRE, ParamMatrix, assemble_design_matrix,
                    park)
from .errors import NumericalError
from .geometry import GrainMap
from .objective import bounds_hold, evaluate_objective, tile_layout

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
MAX_LINE_EVALS = 25
CURVATURE_SKIP = 1e-10


class LineEval(NamedTuple):
    """One trial evaluation along a search ray: value, slope and caller payload."""

    phi: float
    slope: float
    payload: object


def _cubic_maximiser(t_lo, f_lo, g_lo, t_hi, f_hi, g_hi):
    """Maximiser of the cubic Hermite interpolant on [t_lo, t_hi], or None."""
    d1 = g_lo + g_hi - 3.0 * (f_hi - f_lo) / (t_hi - t_lo)
    disc = d1 * d1 - g_lo * g_hi
    if disc < 0.0:
        return None
    s = math.sqrt(disc)
    if t_hi < t_lo:
        s = -s
    denom = g_lo - g_hi + 2.0 * s
    if denom == 0.0:
        return None
    t = t_hi - (t_hi - t_lo) * (s - g_hi + d1) / denom
    return t if np.isfinite(t) else None


def line_search(evaluate: Callable[[float], LineEval], phi0: float, slope0: float,
                t0: float = 1.0, c1: float = WOLFE_C1, c2: float = WOLFE_C2,
                max_evals: int = MAX_LINE_EVALS) -> tuple[float, LineEval | None]:
    """Strong-Wolfe step for an ascent direction (positive initial slope).

    Returns (t, eval_at_t); t == 0.0 with None signals failure, which callers
    treat as termination rather than an error. At most ``max_evals`` trial
    evaluations are spent across bracketing and refinement.
    """
    if slope0 <= 0.0:
        raise ValueError("line_search requires an ascent direction")
    evals = 0

    def advance(t):
        nonlocal evals
        evals += 1
        return evaluate(t)

    def zoom(lo, e_lo, hi, e_hi):
        # Invariant: lo satisfies sufficient increase and its slope points
        # towards hi; a strong-Wolfe point lies between lo and hi.
        while evals < max_evals:
            t = _cubic_maximiser(lo, e_lo.phi, e_lo.slope, hi, e_hi.phi, e_hi.slope)
            width = abs(hi - lo)
            lo_bound, hi_bound = min(lo, hi), max(lo, hi)
            if (t is None or not (lo_bound + 0.1 * width <= t <= hi_bound - 0.1 * width)):
                t = 0.5 * (lo + hi)
            e = advance(t)
            if e.phi < phi0 + c1 * t * slope0 or e.phi <= e_lo.phi:
                hi, e_hi = t, e
            else:
                if abs(e.slope) <= c2 * slope0:
                    return t, e
                if e.slope * (hi - lo) <= 0.0:
                    hi, e_hi = lo, e_lo
                lo, e_lo = t, e
        return 0.0, None

    t_prev, e_prev = 0.0, LineEval(phi=phi0, slope=slope0, payload=None)
    t = t0
    first = True
    while evals < max_evals:
        e = advance(t)
        if not np.isfinite(e.phi):
            return zoom(t_prev, e_prev, t, LineEval(phi=-np.inf, slope=0.0, payload=e.payload))
        if e.phi < phi0 + c1 * t * slope0 or (not first and e.phi <= e_prev.phi):
            return zoom(t_prev, e_prev, t, e)
        if abs(e.slope) <= c2 * slope0:
            return t, e
        if e.slope <= 0.0:
            return zoom(t, e, t_prev, e_prev)
        t_prev, e_prev = t, e
        t *= 2.0
        first = False
    return 0.0, None


@dataclass
class FitConfig:
    """Protocol knobs for one optimisation run."""

    degree: int = 1
    basis_kind: str = LEGENDRE
    eps: float = 1e-2
    max_iters: int = 1000
    memory: int = 10
    init: str | ParamMatrix = "zero"
    record_every: int = 1

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if min(self.degree, self.max_iters, self.memory, self.record_every) < 1:
            raise ValueError("degree, max_iters, memory and record_every must be >= 1")
        if isinstance(self.init, str) and self.init not in ("zero", "heuristic"):
            raise ValueError("init must be 'zero', 'heuristic' or an explicit ParamMatrix")


@dataclass
class FitReport:
    """Outcome of a fit: final parameters, trajectories and consistency checks."""

    theta: ParamMatrix
    iters: list[int] = field(default_factory=list)
    phi_traj: list[float] = field(default_factory=list)
    err_traj: list[float] = field(default_factory=list)
    e0_traj: list[float] = field(default_factory=list)
    phi_final: float = 0.0
    acc_final: float = 0.0
    err_final: float = 0.0
    iterations_run: int = 0
    stop_reason: str = "budget"
    wall_clock_s: float = 0.0
    eps: float = 1e-2
    n_grains: int = 0
    n_empty_grains: int = 0
    n_pixels: int = 0
    evaluations: int = 0
    kernel_pairs: int = 0  # pixel-grain pairs the kernel computed, over all evaluations
    gauge_residual: float = 0.0
    design_spans: bool = True
    bound_phi_err_ok: bool = True
    bound_energy_ok: bool = True


def init_zero(degree: int, n_grains: int, kind: str = LEGENDRE) -> ParamMatrix:
    """The fully ambiguous start: all coefficients zero, gauge trivially satisfied."""
    basis = DesignBasis(kind, degree)
    return ParamMatrix(values=np.zeros((basis.dimension, n_grains)), basis=basis,
                       gauge=GAUGE_LAST_ZERO)


def _initial_theta(grain_map: GrainMap, config: FitConfig, basis: DesignBasis) -> ParamMatrix:
    if isinstance(config.init, ParamMatrix):
        theta = config.init
        if theta.n_grains != grain_map.n_grains:
            raise ValueError("explicit initial parameters do not match the grain count")
        if theta.basis != basis:
            raise ValueError(f"parameter basis ({theta.basis.kind}, d={theta.degree}) does not "
                             f"match design basis ({basis.kind}, d={basis.degree})")
        return ParamMatrix(theta.values - theta.values[:, -1:], theta.basis, GAUGE_LAST_ZERO)
    if config.init == "heuristic":
        from .heuristics import heuristic_theta

        return heuristic_theta(grain_map, config.degree, config.basis_kind)
    return init_zero(config.degree, grain_map.n_grains, config.basis_kind)


def _design_spans(design_values: np.ndarray) -> bool:
    eigs = np.linalg.eigvalsh(design_values @ design_values.T)
    return bool(eigs[0] > 1e-12 * max(eigs[-1], 1.0))


def fit(grain_map: GrainMap, config: FitConfig) -> FitReport:
    """Maximise the smoothed label log-likelihood over gauge-fixed coefficients.

    Runs up to ``config.max_iters`` accepted quasi-Newton steps; stops early
    only when the line search fails or the objective certifies a perfect
    reconstruction. Deterministic: identical inputs give identical
    trajectories.
    """
    start = time.perf_counter()
    basis = DesignBasis(config.basis_kind, config.degree)
    theta0 = _initial_theta(grain_map, config, basis)
    k_dim, n_grains = theta0.values.shape
    labels0 = grain_map.labels - 1
    keep = np.bincount(labels0, minlength=n_grains) > 0
    keep[-1] = True
    slot = np.cumsum(keep) - 1  # each grain's column among the kept ones
    np.take(slot, labels0, out=labels0, mode="clip")  # in place: "clip" is unbuffered
    n_kept = int(slot[-1]) + 1
    # The labels and the design in tile order, set once: each tile is a view.
    # The design is assembled through the order, and the order is then dropped:
    # the fit holds its map, its design, its labels and the kernel's chunks.
    layout = tile_layout(basis, grain_map.grid.points, n_kept, labels0)
    labels0 = labels0[layout.order]
    design = assemble_design_matrix(basis, grain_map.grid, layout.order)
    layout = layout._replace(order=None)
    pairs = []

    def unpack(u):
        return np.concatenate([u.reshape(k_dim, n_kept - 1), np.zeros((k_dim, 1))], axis=1)

    def evaluate(u):
        res = evaluate_objective(unpack(u), design.values, labels0, config.eps,
                                 want_grad=True, want_assign=True, layout=layout)
        pairs.append(res.pairs)
        return res.phi, res.grad[:, : n_kept - 1].ravel(), res.err, res.e0

    u = theta0.values[:, keep][:, : n_kept - 1].ravel()
    phi, g, err, e0 = evaluate(u)
    if not (np.isfinite(phi) and np.all(np.isfinite(g))):
        raise NumericalError(
            f"non-finite objective at the initial point: phi={phi}, |u|={np.linalg.norm(u)}"
        )

    report = FitReport(theta=theta0, eps=config.eps, n_grains=n_grains,
                       n_empty_grains=n_grains - n_kept, n_pixels=len(grain_map),
                       design_spans=_design_spans(design.values))

    def record(it, phi_val, err_val, e0_val):
        report.iters.append(it)
        report.phi_traj.append(float(phi_val))
        report.err_traj.append(float(err_val))
        report.e0_traj.append(float(e0_val))

    record(0, phi, err, e0)

    hist: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=config.memory)  # (s, y, rho)
    # Certifies err == 0 when crossed: misassignment costs at least log2/n.
    certify_threshold = -1e-12 * math.log(2.0) / len(grain_map)
    stop_reason = "budget"
    iterations = 0

    for it in range(1, config.max_iters + 1):
        gnorm2 = float(g @ g)
        if gnorm2 == 0.0:
            stop_reason = "stationary"
            break
        if hist:
            q = g.copy()
            alphas = []
            for s_vec, y_vec, rho in reversed(hist):
                a = rho * float(s_vec @ q)
                q -= a * y_vec
                alphas.append(a)
            s_last, y_last, _ = hist[-1]
            r = float(s_last @ y_last) / float(y_last @ y_last) * q
            for (s_vec, y_vec, rho), a in zip(hist, reversed(alphas)):
                b = rho * float(y_vec @ r)
                r += s_vec * (a - b)
            direction = r
        else:
            direction = g / gnorm2
        slope0 = float(g @ direction)
        if not np.isfinite(slope0) or slope0 <= 0.0:
            # Quasi-Newton memory went bad; restart from the scaled gradient.
            hist.clear()
            direction = g / gnorm2
            slope0 = float(g @ direction)
            if not np.isfinite(slope0) or slope0 <= 0.0:
                stop_reason = "stationary"
                break

        def eval_step(t, _u=u, _d=direction):
            u_t = _u + t * _d
            phi_t, g_t, err_t, e0_t = evaluate(u_t)
            return LineEval(phi=phi_t, slope=float(g_t @ _d),
                            payload=(u_t, g_t, err_t, e0_t))

        t, accepted = line_search(eval_step, phi, slope0)
        if t == 0.0 or accepted is None:
            stop_reason = "line-search"
            break
        u_new, g_new, err_new, e0_new = accepted.payload
        phi_new = accepted.phi
        if not (np.isfinite(phi_new) and np.all(np.isfinite(g_new))):
            raise NumericalError(
                f"non-finite values at iteration {it}: phi={phi_new}, "
                f"step={t}, |direction|={np.linalg.norm(direction)}, |u|={np.linalg.norm(u_new)}"
            )

        s_vec = u_new - u
        y_vec = g - g_new
        sy = float(s_vec @ y_vec)
        if sy > CURVATURE_SKIP * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            hist.append((s_vec, y_vec, 1.0 / sy))  # the oldest pair drops out at the memory

        u, phi, g, err, e0 = u_new, phi_new, g_new, err_new, e0_new
        iterations = it
        if it % config.record_every == 0 or it == config.max_iters:
            record(it, phi, err, e0)
        if phi > certify_threshold:
            stop_reason = "near-optimal"
            break

    if report.iters[-1] != iterations:
        record(iterations, phi, err, e0)

    values = unpack(u)[:, slot]
    park(values, basis, ~keep)
    report.theta = ParamMatrix(values=values, basis=basis, gauge=GAUGE_LAST_ZERO)
    report.phi_final = float(phi)
    report.err_final = float(err)
    report.acc_final = 1.0 - float(err)
    report.iterations_run = iterations
    report.stop_reason = stop_reason
    report.gauge_residual = float(np.abs(report.theta.values[:, -1]).max())
    report.evaluations, report.kernel_pairs = len(pairs), sum(pairs)

    checks = [bounds_hold(p, e, e0_val, config.eps, n_kept)
              for p, e, e0_val in zip(report.phi_traj, report.err_traj, report.e0_traj)]
    report.bound_phi_err_ok, report.bound_energy_ok = map(all, zip(*checks))
    report.wall_clock_s = time.perf_counter() - start
    return report
