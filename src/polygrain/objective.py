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
left to right in chunk order, also when a persistent thread pool computes them
with OpenBLAS on one thread, so every thread count gives bit-identical results.

Every pass over all grains and all pixels goes through that chunked kernel:
``evaluate`` (the checked entry point for the objective, its gradient and the
assignment statistics) and ``hard_assign`` (arg-min labels, which also
generate synthetic maps). ``bounds_hold`` is the one implementation of the
paper's objective/error bounds.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
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

# Additive rounding allowance of the bound checks in ``bounds_hold``.
BOUND_SLACK = 1e-12

# Serialises the save -> map -> restore of the BLAS thread count in ``_pool_map``.
# A fork can copy it held by another thread, so the child gets a fresh one.
_blas_lock = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: globals().update(_blas_lock=threading.Lock()))


def _check_compatible(theta: ParamMatrix, design: DesignMatrix) -> None:
    if theta.basis != design.basis:
        raise ValueError(
            f"parameter basis ({theta.basis.kind}, d={theta.degree}) does not match "
            f"design basis ({design.basis.kind}, d={design.basis.degree})"
        )
    if not np.all(np.isfinite(theta.values)):
        raise ValueError("parameter matrix contains non-finite entries")


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


@functools.cache
def _pool(pid: int, threads: int) -> ThreadPoolExecutor:  # per pid: a fork copies no threads
    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix="polygrain")


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or None."""
    import ctypes
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # numpy has loaded it: this only gets a handle
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _pool_map(fn, items, threads: int) -> list:
    """``fn`` over ``items`` in the persistent pool, the bundled OpenBLAS held at 1 thread."""
    get, set_ = _blas_threads() or (lambda: None, lambda count: None)
    with _blas_lock:
        before = get()
        set_(1)
        try:
            return list(_pool(os.getpid(), threads).map(fn, items))
        finally:
            set_(before)


def evaluate_objective(theta_values: np.ndarray, design_values: np.ndarray,
                       labels0: np.ndarray, eps: float, *, want_grad: bool = True,
                       want_assign: bool = False, threads: int = 1,
                       chunk_size: int = CHUNK_SIZE) -> EvalResult:
    """Chunked evaluation of the objective and, optionally, gradient and assignment stats.

    ``labels0`` are 0-based true labels. Chunk partial sums are folded left to
    right in chunk order; threads > 1 computes them in a persistent pool with
    the bundled OpenBLAS on one thread, bit-identical to threads == 1. Exponents
    are floored at ``Z_FLOOR``, which moves no weight by more than exp(Z_FLOOR).
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    n = design_values.shape[1]
    slices = [slice(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]

    def stats(sl):
        return _chunk_stats(theta_values, design_values, labels0, eps, sl,
                            want_grad, want_assign)

    if threads > 1 and len(slices) > 1:
        parts = _pool_map(stats, slices, threads)
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


def bounds_hold(phi: float, err: float, e0: float, eps: float,
                n_grains: int) -> tuple[bool, bool]:
    """The paper's bounds at one parameter value, each with additive ``BOUND_SLACK``.

    Returns (phi <= -log(2) * err, 0 <= -eps*phi - e0 <= eps*log(N)): every
    misassigned pixel costs at least log 2, and log-sum-exp is sandwiched
    between its maximum term and that term plus log N.
    """
    phi_err_ok = phi <= -math.log(2.0) * err + BOUND_SLACK
    energy_ok = -BOUND_SLACK <= -eps * phi - e0 <= eps * math.log(n_grains) + BOUND_SLACK
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
