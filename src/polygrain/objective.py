"""Smoothed assignment, log-likelihood objective, and its derivatives.

Per pixel x and grain i the cost is h_i(x) = theta_i . eta(x). The smoothed
(softmax) membership at temperature eps is

    p_i(x) = exp(-h_i(x)/eps) / sum_j exp(-h_j(x)/eps)

and the fitting objective is the mean log-probability of the true labels,

    Phi(theta) = (1/n) sum_x [ -h_{g(x)}(x)/eps - log sum_j exp(-h_j(x)/eps) ].

All evaluations subtract the per-pixel minimum cost before exponentiating, so
the winning term contributes exp(0) and no overflow can occur for finite
inputs. Exponents are floored at Z_FLOOR so that exp never underflows.
Reductions over pixels run in fixed-size chunks whose partial sums are folded
left to right in chunk order, also when a thread pool computes the chunks, so
every thread count gives bit-identical results.

Every pass over all grains and all pixels goes through that chunked kernel:
``evaluate`` (the checked entry point for the objective, its gradient and the
assignment statistics) and ``hard_assign`` (arg-min labels, which also
generate synthetic maps). ``bounds_hold`` is the one implementation of the
paper's objective/error bounds. ``cost_matrix``, ``soft_assign`` and
``energy_zero`` build whole N x n matrices and serve as dense references.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .basis import DesignMatrix, GAUGE_LAST_ZERO, ParamMatrix, assemble_design_matrix
from .geometry import TIE_RTOL, GrainMap, PixelGrid, argmin_labels

CHUNK_SIZE = 8192

# Floor of the softmax exponent z = (m - c)/eps. exp(-700) ~ 1e-304 is still a
# normal double, so exp stays off its slow underflow path. The argmin term
# contributes exactly 1, so the sum s is >= 1 and a floored weight, off by
# less than 1e-304, is far below the rounding of s.
Z_FLOOR = -700.0


def _check_compatible(theta: ParamMatrix, design: DesignMatrix) -> None:
    if theta.basis != design.basis:
        raise ValueError(
            f"parameter basis ({theta.basis.kind}, d={theta.degree}) does not match "
            f"design basis ({design.basis.kind}, d={design.basis.degree})"
        )
    if not np.all(np.isfinite(theta.values)):
        raise ValueError("parameter matrix contains non-finite entries")


def cost_matrix(theta: ParamMatrix, design: DesignMatrix) -> np.ndarray:
    """Per-grain, per-pixel costs h_i(x_j) as an (N, n) matrix."""
    _check_compatible(theta, design)
    return theta.values.T @ design.values


def hard_assign(theta: ParamMatrix, grid: PixelGrid,
                design: DesignMatrix | None = None) -> np.ndarray:
    """Arg-min labels of the diagram induced by theta, smallest index on ties.

    Costs are formed CHUNK_SIZE pixels at a time, never as a whole N x n matrix.
    """
    if design is None:
        design = assemble_design_matrix(theta.basis, grid)
    _check_compatible(theta, design)
    theta_t = theta.values.T
    n = design.values.shape[1]
    return np.concatenate([argmin_labels(theta_t @ design.values[:, lo:lo + CHUNK_SIZE])
                           for lo in range(0, n, CHUNK_SIZE)])


def soft_assign(theta: ParamMatrix, design: DesignMatrix, eps: float) -> np.ndarray:
    """Softmax memberships p_i(x_j) at temperature eps, shape (N, n).

    Stabilised by min-cost subtraction; column j is a distribution over grains.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    costs = cost_matrix(theta, design)
    z = (costs.min(axis=0)[None, :] - costs) / eps
    e = np.exp(z)
    return e / e.sum(axis=0)[None, :]


class EvalResult(NamedTuple):
    phi: float
    grad: np.ndarray | None
    err: float | None
    e0: float | None


def _chunk_stats(theta_values, design_values, labels0, eps, sl, want_grad, want_assign):
    d = design_values[:, sl]
    buf = theta_values.T @ d  # costs c; the only N x chunk float array
    g0 = labels0[sl]
    flat = buf.reshape(-1)  # a view: buf is a fresh C-ordered array
    at_g0 = g0 * buf.shape[1] + np.arange(buf.shape[1])  # flat index of (g0, x)
    m = buf.min(axis=0)

    ncorrect = 0
    e0_sum = 0.0
    if want_assign:
        # The comparisons of argmin_labels; a pixel whose label ties alone is
        # correct, and only multi-way ties need the first tied index.
        thr = m + TIE_RTOL * (1.0 + np.abs(m))
        tied = buf <= thr[None, :]
        ntied = tied.sum(axis=0, dtype=np.int32)
        c_g0 = flat[at_g0]
        g0_tied = c_g0 <= thr
        ncorrect = int(np.count_nonzero(g0_tied & (ntied == 1)))
        multi = np.flatnonzero(g0_tied & (ntied > 1))
        if multi.size:
            first = np.argmax(tied[:, multi], axis=0)
            ncorrect += int(np.count_nonzero(first == g0[multi]))
        # A NaN threshold (from a NaN or -inf minimum) ties nothing, and
        # argmin_labels then returns index 0.
        ncorrect += int(np.count_nonzero((ntied == 0) & (g0 == 0)))
        e0_sum = float((c_g0 - m).sum())

    np.subtract(m[None, :], buf, out=buf)
    np.divide(buf, eps, out=buf)  # z
    z_g0 = flat[at_g0]
    np.maximum(buf, Z_FLOOR, out=buf)
    np.exp(buf, out=buf)  # e
    s = buf.sum(axis=0)
    lse_sum = float(z_g0.sum() - np.log(s).sum())

    gacc = None
    if want_grad:
        np.divide(buf, s[None, :], out=buf)
        np.negative(buf, out=buf)
        flat[at_g0] += 1.0  # residual 1[g0] - e/s
        gacc = d @ buf.T
    return lse_sum, gacc, ncorrect, e0_sum


def _combine(a, b):
    lse = a[0] + b[0]
    gacc = a[1] + b[1] if a[1] is not None else None
    return lse, gacc, a[2] + b[2], a[3] + b[3]


def evaluate_objective(theta_values: np.ndarray, design_values: np.ndarray,
                       labels0: np.ndarray, eps: float, *, want_grad: bool = True,
                       want_assign: bool = False, threads: int = 1,
                       chunk_size: int = CHUNK_SIZE) -> EvalResult:
    """Chunked evaluation of the objective and, optionally, gradient and assignment stats.

    ``labels0`` are 0-based true labels. Chunk partial sums are folded left to
    right in chunk order; threads > 1 only computes the partials in a thread
    pool, so the result is bit-identical to threads == 1. Exponents are
    floored at ``Z_FLOOR``, which moves no weight by more than exp(Z_FLOOR).
    """
    n = design_values.shape[1]
    slices = [slice(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]

    def stats(sl):
        return _chunk_stats(theta_values, design_values, labels0, eps, sl,
                            want_grad, want_assign)

    if threads > 1 and len(slices) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(stats, slices))
    else:
        parts = map(stats, slices)
    total = functools.reduce(_combine, parts)

    lse_sum, gacc, ncorrect, e0_sum = total
    phi = lse_sum / n
    grad = -gacc / (eps * n) if want_grad else None
    err = 1.0 - float(ncorrect) / n if want_assign else None
    e0 = e0_sum / n if want_assign else None
    return EvalResult(phi=phi, grad=grad, err=err, e0=e0)


def evaluate(theta: ParamMatrix, design: DesignMatrix, grain_map: GrainMap, eps: float,
             *, want_grad: bool = False, want_assign: bool = False) -> EvalResult:
    """Checked ``evaluate_objective`` of theta on a design; the gradient keeps its last column."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_compatible(theta, design)
    if len(grain_map) != design.values.shape[1]:
        raise ValueError(f"grain map has {len(grain_map)} pixels, design has "
                         f"{design.values.shape[1]}")
    return evaluate_objective(theta.values, design.values, grain_map.labels - 1, eps,
                              want_grad=want_grad, want_assign=want_assign)


def bounds_hold(phi: float, err: float, e0: float, eps: float, n_grains: int,
                slack: float = 1e-12) -> tuple[bool, bool]:
    """The paper's bounds at one parameter value, each with additive ``slack``.

    Returns (phi <= -log(2) * err, 0 <= -eps*phi - e0 <= eps*log(N)): every
    misassigned pixel costs at least log 2, and log-sum-exp is sandwiched
    between its maximum term and that term plus log N.
    """
    phi_err_ok = phi <= -math.log(2.0) * err + slack
    energy_ok = -slack <= -eps * phi - e0 <= eps * math.log(n_grains) + slack
    return bool(phi_err_ok), bool(energy_ok)


def objective(theta: ParamMatrix, design: DesignMatrix, grain_map: GrainMap,
              eps: float) -> float:
    """Mean log-probability of the true labels under the soft assignment; <= 0."""
    return evaluate(theta, design, grain_map, eps).phi


def gradient(theta: ParamMatrix, design: DesignMatrix, grain_map: GrainMap,
             eps: float) -> np.ndarray:
    """Gradient of the objective with respect to theta, shape (K_d, N).

    Block i equals -(1/(eps*n)) sum_x (1[i == g(x)] - p_i(x)) eta(x). Under the
    last-column-zero gauge the final column is projected to zero.
    """
    grad = evaluate(theta, design, grain_map, eps, want_grad=True).grad
    if theta.gauge == GAUGE_LAST_ZERO:
        grad[:, -1] = 0.0
    return grad


def hessian_block(theta: ParamMatrix, design: DesignMatrix, grain_map: GrainMap,
                  eps: float, i: int, k: int) -> np.ndarray:
    """The (i, k) block of the Hessian (grain indices 1-based), shape (K_d, K_d).

    Equals -(1/(eps^2 n)) sum_x p_i(x) (1[i==k] - p_k(x)) eta(x) eta(x)^T.
    Dense and intended for diagnostics on small problems; the optimiser never
    forms it.
    """
    n_grains = theta.n_grains
    if not (1 <= i <= n_grains and 1 <= k <= n_grains):
        raise ValueError(f"grain indices must lie in 1..{n_grains}")
    p = soft_assign(theta, design, eps)
    pi, pk = p[i - 1], p[k - 1]
    w = pi * ((1.0 if i == k else 0.0) - pk)
    d = design.values
    n = d.shape[1]
    return -(d * w[None, :]) @ d.T / (eps * eps * n)


def energy_eps(theta: ParamMatrix, design: DesignMatrix, grain_map: GrainMap,
               eps: float) -> float:
    """Rescaled energy -eps * Phi; converges uniformly to ``energy_zero`` as eps -> 0."""
    return -eps * objective(theta, design, grain_map, eps)


def energy_zero(theta: ParamMatrix, design: DesignMatrix, grain_map: GrainMap) -> float:
    """Mean excess cost of the true labels over the per-pixel minimum; >= 0."""
    costs = cost_matrix(theta, design)
    cols = np.arange(costs.shape[1])
    excess = costs[grain_map.labels - 1, cols] - costs.min(axis=0)
    return float(excess.mean())
