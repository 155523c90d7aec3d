"""Gauge-fixed quasi-Newton ascent on the label log-likelihood.

The final grain's coefficient column is pinned to zero and the remaining
K*(N-1) entries are optimised with a limited-memory BFGS update and an Armijo
backtracking line search. The run uses a fixed iteration budget rather than a
gradient-norm stop: near the optimum the objective is extremely flat, and in
the separable regime no maximiser exists at all. The protocol is fixed: the
memory holds MEMORY = 10 curvature pairs, and the line search tries the steps
1, 1/2, 1/4, ... against SUFFICIENT_INCREASE = 1e-4 for at most MAX_LINE_EVALS
= 25 evaluations. Every accepted iteration is recorded. No curvature condition
is needed: the objective is concave, so every step s = u+ - u has s'y >= 0 for
y = g - g+, which is what the strong-Wolfe condition guarantees in general
(Nocedal & Wright, Alg. 3.1 and ch. 7). A pair whose s'y rounds below
CURVATURE_SKIP |s| |y| is skipped.

The quasi-Newton initial matrix is gamma*H, H = P kron (I + 11'), with
gamma = s'y / y'Hy from the newest curvature pair. H inverts Boehning's bound
on the logistic Hessian, (1/2)(I - 11'/N') kron DD' up to 1/(eps^2 n), with
DD' cut to its diagonal. P scales each coefficient of design row k by
n / sum_x eta_k(x)^2, the inverse mean square of that row, read off the
diagonal of the Gram matrix that also decides ``design_spans``: Legendre row
P_i P_j has mean square about 1/((2i+1)(2j+1)) on the square, so with a
scalar initial matrix the high-order coefficients creep. The last-column
gauge keeps I - 11'/N' on the N'-1 free columns, whose inverse is exactly
I + 11' (Sherman-Morrison), for any N' (``boehning_inverse``).

When the memory is empty the search direction is g/|g|^2, which makes the
whole trajectory equivariant under the temperature rescaling
(eps, theta) -> (1, theta/eps): both runs see identical line-search problems,
so recorded objective values coincide. H depends on neither eps nor theta, so
the memory steps keep that equivariance. The first step and the restart after
a memory reset stay g/|g|^2: a first step of Pg/(g'Pg) lands elsewhere, and
on the many-grains benchmark map it misses the 0.05 error that g/|g|^2 meets
at iteration 1 (err 0.050019 against 0.049394).

The gradient scales as 1/eps, so a plain |g|^2 overflows at eps = 2^-600 and
underflows to zero at 2^600. Each square of the step (|g|^2, y'Hy in gamma, |s|
and |y| in the curvature test) is taken of the vector divided by 2^e, e the
``frexp`` exponent of its largest entry (``_scaled``), and scaled back after the
division. A product with a power of two rounds nowhere unless it leaves the
normal range, so at moderate eps every bit is that of the unscaled arithmetic.

Only the N' grains that own a pixel, and the last, which carries the gauge, are
fitted: an empty grain enters the objective only through the log-sum-exp
denominator, so the supremum over its coefficients is the objective without it.
``fit`` runs the kernel on N' columns and parks each dropped grain on output.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .basis import (DesignBasis, GAUGE_LAST_ZERO, LEGENDRE, ParamMatrix, assemble_design_matrix,
                    park)
from .errors import NumericalError
from .geometry import GrainMap
from .objective import EvalResult, bounds_hold, evaluate_objective, require_eps, tile_layout

SUFFICIENT_INCREASE = 1e-4
MAX_LINE_EVALS = 25
MEMORY = 10
CURVATURE_SKIP = 1e-10
INIT_NAMES = ("zero", "heuristic")  # the named starts; FitConfig.init may also be a ParamMatrix


class LineEval(NamedTuple):
    """One trial evaluation along a search ray: value and caller payload."""

    phi: float
    payload: object


def line_search(evaluate: Callable[[float], LineEval], phi0: float,
                slope0: float) -> tuple[float, LineEval | None]:
    """Armijo backtracking along an ascent direction (positive initial slope).

    Tries t = 1, 1/2, 1/4, ... and returns (t, eval_at_t) for the first t with
    phi(t) >= phi0 + SUFFICIENT_INCREASE * t * slope0; a NaN or -inf phi fails
    the test. After MAX_LINE_EVALS trials it returns (0.0, None), which callers
    treat as termination rather than an error.
    """
    if slope0 <= 0.0:
        raise ValueError("line_search requires an ascent direction")
    t = 1.0
    for _ in range(MAX_LINE_EVALS):
        e = evaluate(t)
        if e.phi >= phi0 + SUFFICIENT_INCREASE * t * slope0:  # False for a NaN phi
            return t, e
        t *= 0.5
    return 0.0, None


@dataclass
class FitConfig:
    """The settings of one fit; its memory and line search are fixed (module docstring)."""

    degree: int = 1
    basis_kind: str = LEGENDRE
    eps: float = 1e-2
    max_iters: int = 1000
    init: str | ParamMatrix = "zero"

    def __post_init__(self):
        require_eps(self.eps)
        if min(self.degree, self.max_iters) < 1:
            raise ValueError("degree and max_iters must be >= 1")
        if isinstance(self.init, str) and self.init not in INIT_NAMES:
            raise ValueError("init must be 'zero', 'heuristic' or an explicit ParamMatrix")


@dataclass
class FitReport:
    """Outcome of a fit: final parameters, trajectories and consistency checks."""

    theta: ParamMatrix
    iters: list[int]  # 0 ... iterations_run, and at each its phi, err and e0
    phi_traj: list[float]
    err_traj: list[float]
    e0_traj: list[float]
    phi_final: float
    acc_final: float
    err_final: float
    iterations_run: int
    stop_reason: str
    wall_clock_s: float
    eps: float
    n_grains: int
    n_empty_grains: int
    n_pixels: int
    evaluations: int
    kernel_pairs: int  # pixel-grain pairs the kernel computed, over all evaluations
    gauge_residual: float
    design_spans: bool
    bound_phi_err_ok: bool
    bound_energy_ok: bool


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
        theta.require_basis(basis)
        return ParamMatrix(theta.values - theta.values[:, -1:], theta.basis, GAUGE_LAST_ZERO)
    if config.init == "heuristic":
        from .heuristics import heuristic_theta

        return heuristic_theta(grain_map, config.degree, config.basis_kind)
    return init_zero(config.degree, grain_map.n_grains, config.basis_kind)


def _scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v / 2^e, e), e the exponent that ``frexp`` gives for v's largest entry (0 if none)."""
    e = math.frexp(np.abs(v).max(initial=0.0))[1]
    return np.ldexp(v, -e), e


def boehning_inverse(row_scale: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H v for free coefficients v, a (K, N'-1) block row-major, and P = diag(row_scale):
    row k becomes P_k (v_k + sum(v_k)), in O(K N') work."""
    block = v.reshape(len(row_scale), -1)
    return (row_scale[:, None] * (block + block.sum(axis=1, keepdims=True))).ravel()


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
        # Not res._replace, whose resized tuples CPython keeps on a free list (up to 156 KiB).
        return EvalResult(res.phi, res.grad[:, : n_kept - 1].ravel(), res.err, res.e0, res.pairs)

    u = theta0.values[:, keep][:, : n_kept - 1].ravel()
    at = evaluate(u)
    if not (np.isfinite(at.phi) and np.all(np.isfinite(at.grad))):
        raise NumericalError(
            f"non-finite objective at the initial point: phi={at.phi}, |u|={np.linalg.norm(u)}"
        )

    gram = design.values @ design.values.T
    eig_lo, eig_hi = np.linalg.eigvalsh(gram)[[0, -1]]  # the design spans unless eig_lo ~ 0
    sq = np.diag(gram)  # each row's sum of squares; 1 on a zero row, whose gradient is zero
    row_scale = np.divide(len(grain_map), sq, out=np.ones_like(sq), where=sq > 0.0)
    # Each iteration, and at each phi, err and e0: lists, as tuples would cost more.
    traj = iters, phi_traj, err_traj, e0_traj = [0], [at.phi], [at.err], [at.e0]
    hist: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MEMORY)  # (s, y, rho)
    # Near-optimal stop: phi > -1e-12 log2/n, far past the err == 0 certificate
    # phi > -log2/n (misassignment costs at least log2/n; metrics.bound_report).
    certify_threshold = -1e-12 * math.log(2.0) / len(grain_map)
    stop_reason = "budget"

    for it in range(1, config.max_iters + 1):
        g = at.grad
        g_scaled, e_g = _scaled(g)
        g_norm2 = float(g_scaled @ g_scaled)
        if g_norm2 == 0.0:
            stop_reason = "stationary"
            break
        direction = np.ldexp(g_scaled / g_norm2, -e_g)  # g/|g|^2, unless the memory gives a step
        if hist:
            q = g.copy()
            alphas = []
            for s_vec, y_vec, rho in reversed(hist):
                a = rho * float(s_vec @ q)
                q -= a * y_vec
                alphas.append(a)
            r = boehning_inverse(row_scale, q)
            r *= gamma
            np.ldexp(r, gamma_exp, out=r)  # gamma H q
            for (s_vec, y_vec, rho), a in zip(hist, reversed(alphas)):
                b = rho * float(y_vec @ r)
                r += s_vec * (a - b)
            if 0.0 < float(g @ r) < math.inf:
                direction = r
            else:  # the quasi-Newton memory went bad: restart from the scaled gradient
                hist.clear()
        slope0 = float(g @ direction)
        if not 0.0 < slope0 < math.inf:
            stop_reason = "stationary"
            break

        def eval_step(t):  # line_search calls it before u or direction change
            u_t = u + t * direction
            res = evaluate(u_t)
            return LineEval(phi=res.phi, payload=(u_t, res))

        t, accepted = line_search(eval_step, at.phi, slope0)
        if accepted is None:
            stop_reason = "line-search"
            break
        u_new, new = accepted.payload
        if not (np.isfinite(new.phi) and np.all(np.isfinite(new.grad))):
            raise NumericalError(
                f"non-finite values at iteration {it}: phi={new.phi}, "
                f"step={t}, |direction|={np.linalg.norm(direction)}, |u|={np.linalg.norm(u_new)}"
            )

        s_vec = u_new - u
        y_vec = g - new.grad
        sy = float(s_vec @ y_vec)
        (s_scaled, e_s), (y_scaled, e_y) = _scaled(s_vec), _scaled(y_vec)
        # CURVATURE_SKIP |s| |y|, from the norms of the scaled vectors
        floor = CURVATURE_SKIP * float(np.linalg.norm(s_scaled)) * float(np.linalg.norm(y_scaled))
        if sy > math.ldexp(floor, e_s + e_y):
            hist.append((s_vec, y_vec, 1.0 / sy))  # the oldest pair drops out at the memory
            # gamma = s'y / y'Hy of the newest pair is gamma * 2^gamma_exp
            gamma = sy / float(y_scaled @ boehning_inverse(row_scale, y_scaled))
            gamma_exp = -2 * e_y

        u, at = u_new, new
        for column, value in zip(traj, (it, at.phi, at.err, at.e0)):
            column.append(value)
        if at.phi > certify_threshold:
            stop_reason = "near-optimal"
            break

    values = unpack(u)[:, slot]
    park(values, basis, ~keep)
    theta = ParamMatrix(values=values, basis=basis, gauge=GAUGE_LAST_ZERO)
    checks = [bounds_hold(p, e, e0, config.eps, n_kept) for p, e, e0 in zip(*traj[1:])]
    bound_phi_err_ok, bound_energy_ok = map(all, zip(*checks))
    return FitReport(
        theta=theta, iters=iters, phi_traj=phi_traj, err_traj=err_traj, e0_traj=e0_traj,
        phi_final=at.phi, acc_final=1.0 - at.err, err_final=at.err, iterations_run=iters[-1],
        stop_reason=stop_reason, wall_clock_s=time.perf_counter() - start, eps=config.eps,
        n_grains=n_grains, n_empty_grains=n_grains - n_kept, n_pixels=len(grain_map),
        evaluations=len(pairs), kernel_pairs=sum(pairs),
        gauge_residual=float(np.abs(theta.values[:, -1]).max()),
        design_spans=bool(eig_lo > 1e-12 * max(eig_hi, 1.0)), bound_phi_err_ok=bound_phi_err_ok,
        bound_energy_ok=bound_energy_ok)
