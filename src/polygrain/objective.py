"""Smoothed assignment, log-likelihood objective, and its derivatives.

Per pixel x and grain i the cost is h_i(x) = theta_i . eta(x). The smoothed
(softmax) membership at temperature eps is

    p_i(x) = exp(-h_i(x)/eps) / sum_j exp(-h_j(x)/eps)

and the fitting objective is the mean log-probability of the true labels,

    Phi(theta) = (1/n) sum_x [ -h_{g(x)}(x)/eps - log sum_j exp(-h_j(x)/eps) ].

All evaluations subtract the per-pixel minimum cost before exponentiating, so
the winning term contributes exp(0) and no overflow can occur for finite
inputs. Exponents are floored at Z_FLOOR so that exp never underflows.
Reductions over pixels run in chunks of ``chunk_width(N)`` pixels, sized so
that one N x chunk float buffer takes about CHUNK_BYTES and its element-wise
passes run in cache. The chunk partial sums are folded left to right in chunk
order, also when a persistent thread pool computes them with OpenBLAS on one
thread; chunk boundaries depend only on N and n, so every thread count gives
bit-identical results.

Every pass over all grains and all pixels goes through that chunked kernel:
``evaluate`` (the checked entry point for the objective, its gradient and the
assignment statistics) and ``hard_assign`` (arg-min labels, which also
generate synthetic maps). ``bounds_hold`` is the one implementation of the
paper's objective/error bounds.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .basis import DesignMatrix, GAUGE_LAST_ZERO, ParamMatrix, assemble_design_matrix
from .geometry import GrainMap, PixelGrid, argmin_labels, tie_threshold

# Bytes of the N x chunk cost buffer, so that its passes run in a core's L2
# cache. On the many-grains map (N=200; 2 cores, 2 MiB L2 each) 1 MiB was the
# fastest of 256 KiB to 4 MiB with two threads; 2 and 4 MiB were slower with one.
CHUNK_BYTES = 1 << 20
# Fewest pixels per chunk, so that the width stays positive and the Python loop
# over chunks bounded at any N. Its value is not tuned: at N=2000 on 65536
# pixels (K=6, one thread, 2-core Xeon VM) widths of 65, 256 and 512 evaluated
# within noise.
MIN_CHUNK = 256

# Floor of the softmax exponent z = (m - c)/eps. exp(-700) ~ 1e-304 is still a
# normal double, so no weight is subnormal or underflows. The argmin term
# contributes exactly 1, so the sum s is >= 1 and a floored weight, off by
# less than 1e-304, is far below the rounding of s. Without the floor an
# evaluation with gradient and assignment took 1.7-2.2x as long (2-core Xeon
# VM, numpy 2.4, one thread, q1-q3): many-grains after 20 iterations 215-234
# -> 371-420 ms, pd-recovery after 300 iterations 1.9-2.0 -> 3.4-3.8 ms,
# apd-heuristic at the heuristic start 2.1-2.3 -> 4.6-4.9 ms. Only 0.04-1.6%
# of their exponents lie in the subnormal band [-745, -708); whether exp or
# the gradient GEMM pays for them was not measured.
Z_FLOOR = -700.0

# Additive rounding allowance of the bound checks in ``bounds_hold``.
BOUND_SLACK = 1e-12

# Serialises the save -> map -> restore of the BLAS thread count in ``_pool_fold``.
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


def chunk_width(n_grains: int) -> int:
    """Pixels per chunk: an N x width float64 buffer of about CHUNK_BYTES."""
    return max(MIN_CHUNK, CHUNK_BYTES // (8 * n_grains))


def hard_assign(theta: ParamMatrix, grid: PixelGrid,
                design: DesignMatrix | None = None) -> np.ndarray:
    """Arg-min labels of the diagram induced by theta, smallest index on ties.

    Costs are formed ``chunk_width(N)`` pixels at a time, never as a whole
    N x n matrix.
    """
    if design is None:
        design = assemble_design_matrix(theta.basis, grid)
    _check_compatible(theta, design)
    theta_t = theta.values.T
    n = design.values.shape[1]
    width = chunk_width(theta.n_grains)
    return np.concatenate([argmin_labels(theta_t @ design.values[:, lo:lo + width])
                           for lo in range(0, n, width)])


class EvalResult(NamedTuple):
    phi: float
    grad: np.ndarray | None
    err: float | None
    e0: float | None


def _chunk_stats(theta_values, design_values, labels0, eps, sl, want_grad, want_assign):
    """Partial sums of one chunk: (sum of log p_g0, gradient product, correct, E0 sum).

    The passes over the N x chunk buffer: the cost GEMM, min, the tie test on
    the costs (``want_assign``), subtract, divide by -eps, floor, exp, the row
    sum and the gradient GEMM (``want_grad``). The residual 1[g0] - e/s is
    never formed. With e_g0 zeroed, rest = sum(e) and s = rest + e_g0; -rest
    written at g0 and scaled by -1/s gives rest/s there (1 - e_g0/s without
    its cancellation) and -e/s elsewhere. The -1/s scaling goes onto the
    K x chunk design slice.
    """
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
        thr = tie_threshold(m)
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

    np.subtract(buf, m[None, :], out=buf)
    np.divide(buf, -eps, out=buf)  # z = (m - c)/eps: negating both operands changes no bit
    z_g0 = flat[at_g0]  # before the floor: a misassigned pixel may lie below it
    np.maximum(buf, Z_FLOOR, out=buf)
    np.exp(buf, out=buf)  # e
    e_g0 = flat[at_g0]
    flat[at_g0] = 0.0
    rest = buf.sum(axis=0)
    s = rest + e_g0
    # log s as log1p(s - 1): s of a confidently assigned pixel is 1 + a tiny
    # rest, which log(s) keeps only to 2^-53 absolute. e_g0 - 1 is exact for
    # e_g0 >= 1/2, and 0 where the label is the arg-min. Below 2^-54 log1p(x)
    # rounds to x, and numpy's log1p is up to 6x slower on 1e-200 < x < 1e-20.
    x = rest + (e_g0 - 1.0)
    lse_sum = float(z_g0.sum() - np.log1p(x, out=x, where=x >= 2.0 ** -54).sum())

    gacc = None
    if want_grad:
        flat[at_g0] = -rest
        gacc = (d * (-1.0 / s)[None, :]) @ buf.T  # d @ (1[g0] - e/s).T
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


def _pool_fold(fn, items, threads: int):
    """``fn`` over ``items`` in the persistent pool, the bundled OpenBLAS held at 1
    thread, folded by ``_combine`` in item order as the results arrive.

    A task maps ``fn`` over consecutive items, as many as give each thread
    about 4 tasks. On a map of many cache-sized chunks this saves most of the
    pool's per-task cost; the fold is the same.
    """
    per_task = max(1, len(items) // (4 * threads))
    tasks = [items[lo:lo + per_task] for lo in range(0, len(items), per_task)]
    get, set_ = _blas_threads() or (lambda: None, lambda count: None)
    with _blas_lock:
        before = get()
        set_(1)
        try:
            parts = _pool(os.getpid(), threads).map(lambda task: list(map(fn, task)), tasks)
            return functools.reduce(_combine, itertools.chain.from_iterable(parts))
        finally:
            set_(before)


def evaluate_objective(theta_values: np.ndarray, design_values: np.ndarray,
                       labels0: np.ndarray, eps: float, *, want_grad: bool = True,
                       want_assign: bool = False, threads: int = 1,
                       chunk_size: int | None = None) -> EvalResult:
    """Chunked evaluation of the objective and, optionally, gradient and assignment stats.

    ``labels0`` are 0-based true labels. Chunk partial sums are folded left to
    right in chunk order; threads > 1 computes them in a persistent pool with
    the bundled OpenBLAS on one thread, bit-identical to threads == 1. Exponents
    are floored at ``Z_FLOOR``, which moves no weight by more than exp(Z_FLOOR).
    ``chunk_size`` defaults to ``chunk_width(N)``.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    n = design_values.shape[1]
    if chunk_size is None:
        chunk_size = chunk_width(theta_values.shape[1])
    slices = [slice(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]

    def stats(sl):
        return _chunk_stats(theta_values, design_values, labels0, eps, sl,
                            want_grad, want_assign)

    if threads > 1 and len(slices) > 1:
        total = _pool_fold(stats, slices, threads)
    else:
        total = functools.reduce(_combine, map(stats, slices))
    lse_sum, gacc, ncorrect, e0_sum = total
    phi = lse_sum / n
    grad = -gacc / (eps * n) if want_grad else None
    err = 1.0 - float(ncorrect) / n if want_assign else None
    e0 = e0_sum / n if want_assign else None
    return EvalResult(phi=phi, grad=grad, err=err, e0=e0)


def evaluate(theta: ParamMatrix, design: DesignMatrix, grain_map: GrainMap, eps: float,
             *, want_grad: bool = False, want_assign: bool = False) -> EvalResult:
    """Checked ``evaluate_objective`` of theta on a design; the gradient keeps its last column."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
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
