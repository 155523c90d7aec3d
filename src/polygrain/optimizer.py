"""Gauge-fixed quasi-Newton ascent on the label log-likelihood.

The final grain's coefficient column is pinned to zero and the remaining
K*(N-1) entries are optimised with a limited-memory BFGS update and an Armijo
backtracking line search. The run uses a fixed iteration budget rather than a
gradient-norm stop: near the optimum the objective is extremely flat, and in
the separable regime no maximiser exists at all. The protocol is fixed: the
memory holds MEMORY = 10 curvature pairs, and the line search tries the steps
1, 1/2, 1/4, ... against SUFFICIENT_INCREASE = 1e-4 for at most MAX_LINE_EVALS
= 25 trials. It evaluates a trial only if it may pass: phi is concave along the
ray, so each failed trial's tangent, whose slope g'd costs one dot product,
bounds phi from above (Kelley's cutting planes, J. SIAM 8, 1960), and a halving
whose lowest tangent lies below the sufficient-increase line by more than
TANGENT_SLACK = 2^-30 of the magnitudes involved is skipped. The accepted step
is the one plain halving accepts, bit for bit (``line_search``). After the
scale step on the apd-heuristic map, t = 1 lands far past the ray's maximum,
where phi falls almost linearly, and the fit meets err <= 0.01 after 45
evaluations instead of 76. Every accepted iteration is recorded. No curvature
condition is needed: the objective is concave, so every step s = u+ - u has
s'y >= 0 for y = g - g+, which is what the strong-Wolfe condition guarantees
in general (Nocedal & Wright, Alg. 3.1 and ch. 7). A pair whose s'y rounds
below CURVATURE_SKIP |s| |y| is skipped.

The quasi-Newton initial matrix is gamma*H0, with gamma = s'y / y'H0y from the
newest curvature pair and H0 = (M_free + lam B)^-1 (``initial_matrix``).
M = sum_x (diag p - pp') kron eta eta' is the exact curvature, the Hessian
times -eps^2 n, which the kernel gives as neighbour blocks (``want_curvature``
of ``evaluate_objective``); M_free is M on the free columns. B = diag(sum_x
eta_k^2 / n) kron (I - 11'/N') is Boehning's bound on M up to a factor, with the
design Gram matrix cut to its diagonal (1 on a zero row, whose gradient is
zero). The bound treats every pixel as equally unsure between all grains; on
a fitted map only the boundary pixels are unsure, and only between
neighbours, which M sees. The ridge lam = RIDGE tr M_free / tr B keeps H0
positive definite where few pixels are unsure (lam = 1 where none is). When
the dense A = M_free + lam B takes at most a quarter of CHUNK_BYTES,
8 (K (N'-1))^2 <= 2^18 bytes or K (N'-1) <= 181 (both 20-grain benchmark
maps), A = LL' is factored once per build and H0 q = W'(Wq), W = L^-1, is
exact at two matrix-vector products. Above that rule H0 is applied by
PCG_STEPS steps of conjugate gradients from zero, preconditioned by the
inverse of each grain's K x K diagonal block, and holds no (K N')^2 array: a
dense build (A, L and W) would hold 7 MB on the many-grains benchmark map,
beyond the few chunks of a fit's working memory, and there the kernel's
evaluations take the time. Seven steps leave a relative error of about 0.77 against a converged
solve on the apd-heuristic map after 300 iterations. H0 is built when the
memory first holds a pair and then every CURVATURE_EVERY accepted iterations,
at the current theta, from the M that the kernel computed there with phi and g
(Byrd, Chin, Neveitt & Nocedal, SIAM J. Optim. 21, 2011). These constants were
chosen by time to target on the benchmark maps.

When the memory is empty the search direction is g/|g|^2, which makes the
whole trajectory equivariant under the temperature rescaling
(eps, theta) -> (1, theta/eps): both runs see identical line-search problems,
so recorded objective values coincide. M depends on theta/eps alone and B on
neither, so H0 carries no eps^2 n factor (gamma does), and the memory steps
keep that equivariance, bit for bit at a power-of-two eps. The first step and
the restart after a memory reset stay g/|g|^2: a first step of Pg/(g'Pg), P
the inverse mean square of each design row, lands elsewhere, and on the
many-grains benchmark map it misses the 0.05 error that g/|g|^2 meets at
iteration 1 (err 0.050019 against 0.049394).

Once p_g0 > 1/2 at every pixel (``EvalResult.separated``, which phi >
-log(2)/n implies: a misassigned or tied pixel costs at least log 2), theta
separates the labels and Phi(s theta) increases in s, as a logistic
likelihood does under complete separation (Albert & Anderson, Biometrika 71,
1984). The direction is then (f - 1) u: t = 1 scales theta by f, which by
Phi_eps(s theta) = Phi_{eps/s}(theta) turns a pixel's loss of about
exp(-D/eps) into about its f-th power. f starts at 2, is squared after each
such step accepted at t = 1, up to FINISH_CAP, and is 2 again after one at
t < 1; u + (f - 1) u is f u exactly. A few such steps reach the near-optimal
stop phi > -1e-12 log(2)/n, where quasi-Newton steps took hundreds. The test
and f are exact under (eps, theta) -> (2^k eps, 2^k theta); the kernel's
tie-tolerant err count, with its absolute floor, is not.

Its mirror image shrinks theta along u. At each build of H0 its M gives the
derivatives of sigma -> Phi(e^sigma u) at sigma = 0, phi' = g'u and
phi'' = g'u - v'Mv/n with v = theta/eps (``scale_step``). When g'u < 0,
concavity puts the Newton step sigma = -phi'/phi'' in [-1, 0), since
phi'' <= phi' < 0: theta shrinks by at most a factor e, with no clip. The
direction (e^sigma - 1) u replaces the quasi-Newton r exactly when its model
gain phi'^2/-phi'' exceeds r's gain g'r; it goes through the same line
search, and its (s, y) pair enters the memory. On the apd-heuristic map
Phi(s theta0) peaks near s = 0.014; without the ray |u| stays within 0.3% of
its start until the certified finish, and with it the fit first meets
err <= 0.01 at iteration 26 and stops near-optimal at 161 (one BLAS thread).
From zero, and at the one build of the 20-iteration many-grains fit, the
quasi-Newton step gains more. g'u, v and M are those of the unit-temperature
fit, so the step keeps the (eps, theta) -> (1, theta/eps) equivariance.

The gradient scales as 1/eps, so a plain |g|^2 overflows at eps = 2^-600 and
underflows to zero at 2^600. Each square of the step (|g|^2, y'H0y in gamma,
the products with W or of PCG on q in H0 q, |s| and |y| in the curvature
test) is taken of the vector divided by 2^e, e the ``frexp`` exponent of its
largest entry (``_scaled``), and scaled back after the division. A product
with a power of two rounds nowhere unless it leaves the normal range, so at
moderate eps every bit is that of the unscaled arithmetic.

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

from .basis import (CHUNK_BYTES, DesignBasis, GAUGE_LAST_ZERO, LEGENDRE, ParamMatrix,
                    assemble_design_matrix, park)
from .errors import NumericalError
from .geometry import GrainMap
from .objective import (Curvature, EvalResult, bounds_hold, evaluate_objective, require_eps,
                        tile_layout)

SUFFICIENT_INCREASE = 1e-4
MAX_LINE_EVALS = 25
TANGENT_SLACK = 2.0 ** -30  # rounding allowance of a tangent bound (``line_search``)
MEMORY = 10
CURVATURE_SKIP = 1e-10
CURVATURE_EVERY = 20
RIDGE = 3e-3
PCG_STEPS = 7
FINISH_CAP = 2.0 ** 64  # the cap of the finish factor f, which squaring takes to inf in 10 steps
INIT_NAMES = ("zero", "heuristic")  # the named starts; FitConfig.init may also be a ParamMatrix


class LineEval(NamedTuple):
    """One trial evaluation along a search ray: value, caller payload and, if
    known, the slope phi'(t) there (NaN: none, and the trial gives no tangent)."""

    phi: float
    payload: object
    slope: float = math.nan


def line_search(evaluate: Callable[[float], LineEval], phi0: float,
                slope0: float) -> tuple[float, LineEval | None]:
    """Armijo backtracking along an ascent direction (0 < slope0 < inf).

    Tries t = 1, 1/2, 1/4, ... and returns (t, eval_at_t) for the first t with
    phi(t) >= A(t) = phi0 + SUFFICIENT_INCREASE * t * slope0; a NaN or -inf phi
    fails the test. After MAX_LINE_EVALS trials it returns (0.0, None), which
    callers treat as termination rather than an error.

    On a concave ray each failed trial t_f with a finite phi and slope gives
    the tangent T_f(t) = phi(t_f) + phi'(t_f)(t - t_f) >= phi(t) for every t.
    A trial t with min_f T_f(t) + TANGENT_SLACK (|phi0| + max_f |phi(t_f)| +
    |phi'(t_f)(t - t_f)|) < A(t) fails, so it is skipped with no call to
    ``evaluate``; it still counts against MAX_LINE_EVALS.

    The slack is a rounding allowance. T_f(t) as computed is off by the
    rounding of phi(t_f) and of phi'(t_f)(t - t_f), each relative to its own
    magnitude; phi(t) as evaluated is off by a relative eta, and phi <= T_f
    gives phi + eta |phi| <= T_f + eta |T_f|, so its error too is relative to
    |phi(t_f)| + |phi'(t_f)(t - t_f)|. The kernel's phi is a mean of per-pixel
    terms of one sign, which round by a few K 2^-53 each and by 2^-53 per
    level of the tile sums; 2^-30 is 2^23 such units. Where g'd cancels, the
    tangent is nearly flat and |phi(t_f)| and |phi0| carry the slack. So a
    skipped trial would have failed as evaluated, and the search accepts the
    t, and returns the evaluation, that plain halving would. phi and the
    slopes are the same at (eps, theta) and (1, theta/eps), and t - t_f is
    exact, so skipping keeps that equivariance.
    """
    if not 0.0 < slope0 < math.inf:
        raise ValueError("line_search requires an ascent direction")
    t, tangents = 1.0, []  # (t_f, phi(t_f), phi'(t_f)) of the failed trials
    for _ in range(MAX_LINE_EVALS):
        wanted = phi0 + SUFFICIENT_INCREASE * t * slope0
        bounds = [(p + d * (t - tf), abs(p) + abs(d * (t - tf))) for tf, p, d in tangents]
        if not bounds or min(b for b, _ in bounds) + TANGENT_SLACK * (
                abs(phi0) + max(size for _, size in bounds)) >= wanted:
            e = evaluate(t)
            if e.phi >= wanted:  # False for a NaN phi
                return t, e
            if math.isfinite(e.phi) and math.isfinite(e.slope):
                tangents.append((t, e.phi, e.slope))
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
    curvature_passes: int  # builds of the initial matrix H0
    scale_steps: int  # steps along the ray theta -> e^sigma theta (``scale_step``)
    skipped_trials: int  # line-search trials a tangent proved would fail (``line_search``)
    separated_at: int | None  # the first iteration with p_g0 > 1/2 at every pixel
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


def initial_matrix(curv: Curvature, bound: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """H0 as a function of free coefficients q, a (K, N'-1) block row-major.

    H0 = A^-1 with A = M_free + lam B: M_free is the curvature ``curv`` on the
    free grains, B = diag(bound) kron (I - 11'/N') Boehning's bound and lam =
    RIDGE tr M_free / tr B (1 where M_free is zero). When the dense A, of
    8 (K (N'-1))^2 bytes, fits in a quarter of CHUNK_BYTES (K (N'-1) <= 181),
    it is factored once, A = LL', and H0 q = W'(Wq) with W = L^-1 is exact, so
    y'H0y = |Wy|^2 >= 0. Above that, H0 q is PCG_STEPS steps of block-Jacobi
    PCG from zero on A x = q, whose preconditioner inverts each grain's K x K
    diagonal block: no (K N')^2 array, whose dense build would outgrow a fit's
    few chunks of working memory (7 MB on the many-grains map).
    """
    n_free, k_dim = len(curv.diag) - 1, len(bound)
    shrink = 1.0 - 1.0 / (n_free + 1)  # the diagonal of I - 11'/N'
    diag = curv.diag[:n_free]
    tr_m = float(np.trace(diag, axis1=1, axis2=2).sum())
    ridge = bound * (RIDGE * tr_m / (n_free * shrink * bound.sum()) if tr_m > 0.0 else 1.0)
    # M_free as directed blocks: each grain's diagonal block, then -blocks[b] at
    # (i, j) and its transpose at (j, i)
    free = curv.pairs[:, 1] < n_free  # pairs i < j of free grains
    i, j = curv.pairs[free].T
    rows = np.concatenate([np.arange(n_free), i, j])
    cols = np.concatenate([np.arange(n_free), j, i])
    mats = np.concatenate([diag, -curv.blocks[free], -curv.blocks[free].transpose(0, 2, 1)])
    if 8 * (k_dim * n_free) ** 2 <= CHUNK_BYTES // 4:
        a = np.zeros((k_dim, n_free, k_dim, n_free))  # A in the order of q
        a[:, rows, :, cols] = mats
        for k in range(k_dim):  # in place: A, its factor and W are the build's only squares
            block = a[k, :, k, :]  # += ridge_k (I - 11'/N')
            on = block.diagonal() + ridge[k] * shrink
            block -= ridge[k] * (1.0 / (n_free + 1))
            np.fill_diagonal(block, on)
        w = np.linalg.inv(np.linalg.cholesky(a.reshape(k_dim * n_free, -1)))
        return lambda q: (w @ q) @ w
    order = np.argsort(rows, kind="stable")  # the blocks sorted by their row
    cols, mats = cols[order], mats[order]
    starts = np.searchsorted(rows[order], np.arange(n_free))
    inverse = np.linalg.inv(diag + np.diag(shrink * ridge))

    def product(v):  # (M_free + lam B) v for v of shape (N'-1, K)
        out = np.add.reduceat(np.einsum("bkl,bl->bk", mats, v[cols]), starts)
        out += ridge * (v - v.sum(axis=0) / (n_free + 1))
        return out

    def apply(q):
        res = q.reshape(k_dim, n_free).T.copy()
        x = np.zeros_like(res)
        z = np.einsum("gkl,gl->gk", inverse, res)
        p, rz = z, float(np.vdot(res, z))
        for _ in range(PCG_STEPS):
            ap = product(p)
            pap = float(np.vdot(p, ap))
            if not (rz > 0.0 and pap > 0.0):
                break
            x += (rz / pap) * p
            res -= (rz / pap) * ap
            z = np.einsum("gkl,gl->gk", inverse, res)
            rz, rz_old = float(np.vdot(res, z)), rz
            p = z + (rz / rz_old) * p
        return x.T.ravel()

    return apply


def scale_step(curv: Curvature, values: np.ndarray, eps: float, slope: float,
               n_pixels: int) -> tuple[float, float]:
    """(sigma, gain) of the Newton step on sigma -> Phi(e^sigma theta) at sigma = 0.

    ``values`` are the fitted (K, N') coefficients, ``curv`` M at them and
    ``slope`` = g'u < 0. v'Mv, v = theta/eps, is sum_b (v_i - v_j)' blocks_b
    (v_i - v_j) over the pairs (i, j) of ``curv``: sum_i v_i' diag_i v_i -
    2 sum_b v_i' blocks_b v_j without its cancellation, clamped at >= 0.
    """
    v = values / eps
    i, j = curv.pairs.T
    d = v[:, i] - v[:, j]
    quad = max(float(np.einsum("kb,bkl,lb->", d, curv.blocks, d)), 0.0) / n_pixels
    return slope / (quad - slope), slope * slope / (quad - slope)


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

    def evaluate(u, want_curvature=False):  # the fit's only route to the kernel
        res = evaluate_objective(unpack(u), design.values, labels0, config.eps,
                                 want_grad=True, want_assign=True,
                                 want_curvature=want_curvature, layout=layout)
        pairs.append(res.pairs)
        # Not res._replace, whose resized tuples CPython keeps on a free list (up to 156 KiB).
        return EvalResult(res.phi, res.grad[:, : n_kept - 1].ravel(), res.err, res.e0, res.pairs,
                          res.curvature, res.separated)

    u = theta0.values[:, keep][:, : n_kept - 1].ravel()
    at = evaluate(u)
    if not (np.isfinite(at.phi) and np.all(np.isfinite(at.grad))):
        raise NumericalError(
            f"non-finite objective at the initial point: phi={at.phi}, |u|={np.linalg.norm(u)}"
        )

    gram = design.values @ design.values.T
    eig_lo, eig_hi = np.linalg.eigvalsh(gram)[[0, -1]]  # the design spans unless eig_lo ~ 0
    sq = np.diag(gram)  # each row's sum of squares; 1 on a zero row, whose gradient is zero
    bound = np.divide(sq, len(grain_map), out=np.ones_like(sq), where=sq > 0.0)
    # Each iteration, and at each phi, err and e0: lists, as tuples would cost more.
    traj = iters, phi_traj, err_traj, e0_traj = [0], [at.phi], [at.err], [at.e0]
    hist: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MEMORY)  # (s, y, rho)
    h0, built, passes, scale_steps, skipped = None, 0, 0, 0, 0
    # Once every pixel has p_g0 > 1/2, each step is (factor - 1) u, up to the
    # near-optimal stop phi > -1e-12 log2/n (the module docstring's finish).
    factor, separated_at = 2.0, 0 if at.separated else None
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
        if at.separated:
            direction = (factor - 1.0) * u  # t = 1 scales theta by factor
        elif hist:
            ray = None  # (sigma, gain) of the scale step, at a build where g'u < 0
            if h0 is None or it - built >= CURVATURE_EVERY:  # M came with at (eval_step)
                h0 = initial_matrix(at.curvature, bound)
                built, passes = it, passes + 1
                slope = float(g @ u)
                if slope < 0.0:
                    ray = scale_step(at.curvature, unpack(u), config.eps, slope, len(grain_map))
            s_vec, y_vec, rho = hist[-1]  # gamma = s'y / y'H0y of the newest pair
            y_scaled, e_y = _scaled(y_vec)
            gamma = 1.0 / (rho * float(y_scaled @ h0(y_scaled)))
            q = g.copy()
            alphas = []
            for s_vec, y_vec, rho in reversed(hist):
                a = rho * float(s_vec @ q)
                q -= a * y_vec
                alphas.append(a)
            q_scaled, e_q = _scaled(q)
            r = h0(q_scaled)
            r *= gamma
            np.ldexp(r, e_q - 2 * e_y, out=r)  # gamma H0 q
            for (s_vec, y_vec, rho), a in zip(hist, reversed(alphas)):
                b = rho * float(y_vec @ r)
                r += s_vec * (a - b)
            gain = float(g @ r)
            if 0.0 < gain < math.inf:
                direction = r
                if ray is not None and ray[1] > gain:  # t = 1 scales theta by e^sigma
                    direction = math.expm1(ray[0]) * u
                    scale_steps += 1
            else:  # the quasi-Newton memory went bad: restart from the scaled gradient
                hist.clear()
        slope0 = float(g @ direction)
        if not 0.0 < slope0 < math.inf:
            stop_reason = "stationary"
            break
        # M rides on the trials whose accepted point the next iteration may build H0 at
        curvature = it < config.max_iters and (h0 is None or it + 1 - built >= CURVATURE_EVERY)

        def eval_step(t):  # line_search calls it before u or direction change
            u_t = u + t * direction
            res = evaluate(u_t, curvature)
            return LineEval(phi=res.phi, payload=(u_t, res), slope=float(res.grad @ direction))

        evaluations = len(pairs)
        t, accepted = line_search(eval_step, at.phi, slope0)
        # t = 2^-k after k + 1 trials; a failed search ran all MAX_LINE_EVALS
        trials = MAX_LINE_EVALS if accepted is None else 1 - int(math.log2(t))
        skipped += trials - (len(pairs) - evaluations)
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

        if at.separated:
            factor = min(factor * factor, FINISH_CAP) if t == 1.0 else 2.0
        if separated_at is None and new.separated:
            separated_at = it
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
        evaluations=len(pairs), kernel_pairs=sum(pairs), curvature_passes=passes,
        scale_steps=scale_steps, skipped_trials=skipped, separated_at=separated_at,
        gauge_residual=float(np.abs(theta.values[:, -1]).max()),
        design_spans=bool(eig_lo > 1e-12 * max(eig_hi, 1.0)), bound_phi_err_ok=bound_phi_err_ok,
        bound_energy_ok=bound_energy_ok)
