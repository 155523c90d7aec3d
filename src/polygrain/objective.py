"""Smoothed assignment, log-likelihood objective, and its derivatives.

Per pixel x and grain i the cost is h_i(x) = theta_i . eta(x). The smoothed
(softmax) membership at temperature eps is

    p_i(x) = exp(-h_i(x)/eps) / sum_j exp(-h_j(x)/eps)

and the fitting objective is the mean log-probability of the true labels,

    Phi(theta) = (1/n) sum_x [ -h_{g(x)}(x)/eps - log sum_j exp(-h_j(x)/eps) ].

All evaluations subtract the per-pixel minimum cost before exponentiating, so
the winning term contributes exp(0) and no overflow can occur for finite
inputs. Exponents are floored at Z_FLOOR so that exp never underflows.

The kernel runs over square tiles of the pixels (``tile_layout``) of at most
``chunk_width(N)`` pixels, so that one N x tile float buffer takes at most
about CHUNK_BYTES and its element-wise passes run in cache. On a tile's box
x = centre + half * s, s in [-1,1]^2, the cost difference c_i - c_j of two
grains is a polynomial sum_beta v_beta s^beta, whose minimum over the box is
at least v_0 - sum_{beta != 0} rho(v_beta), with rho(v) = |v| where s^beta
has an odd exponent and max(0, -v) elsewhere. The pixel minimum m is at most
c_j, so a grain i whose bound against a reference j exceeds -Z_FLOOR * eps
(plus rounding) has (m - c_i)/eps < Z_FLOOR at every pixel of the tile, where
the dense kernel floors its weight to exp(Z_FLOOR). A tile runs only on the
grains that this certificate (``tile_grains``) keeps: dropping the others
moves phi and the gradient by no more than the floor already does. The cut
also exceeds the tie tolerance, so the arg-min grain and every grain tied
with it are kept, and err and E0 are exact.

Tiles that keep the same number of grains share a kernel call. ``_batches``,
the one tile plan, sorts the tiles by that count and cuts each count's tiles
into batches of about BATCH_BYTES, and ``_chunk_stats`` runs the element-wise
passes once per batch on a rows x pixels buffer, reading each tile's columns
through the layout's order. Each tile sums its own pixels, so its partial sums
have the same bits in any batch; they are added up as each batch returns.

Every pass over all grains and all pixels goes through those tiles:
``evaluate_objective`` (the objective, its gradient, the assignment statistics
and the Hessian blocks of neighbouring grains, the optimiser's initial matrix),
``evaluate`` (its checked entry point) and ``hard_assign`` (arg-min labels,
which also generate synthetic maps). ``bounds_hold`` is the one implementation
of the paper's objective/error bounds.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .basis import (CHUNK_BYTES, DesignBasis, DesignMatrix, GAUGE_LAST_ZERO, LEGENDRE,
                    ParamMatrix, basis_change_inverse)
from .geometry import TIE_RTOL, GrainMap, PixelGrid, argmin_labels, tie_threshold

# Fewest pixels per chunk, so that the width stays positive and the Python loop
# over chunks bounded at any N. Its value is not tuned: at N=2000 on 65536
# pixels (K=6, one thread, 2-core Xeon VM) widths of 65, 256 and 512 evaluated
# within noise.
MIN_CHUNK = 256
# Bytes of one kernel call over a batch of tiles (``_batches``): its rows x
# pixels buffer and its per-pixel vectors. Batching pays on the serial kernel:
# with BATCH_BYTES = 0 every tile is its own call, 121 per many-grains
# evaluation instead of 31, and the 20-iteration many-grains fit took 1.27x as
# long (2-vCPU VM, NumPy 2.4, 10 interleaved in-process rounds: median 0.429 s
# against 0.338 s, faster in 1 of 10), with identical trajectories and theta.
BATCH_BYTES = CHUNK_BYTES

# Floor of the softmax exponent z = (m - c)/eps, and the cut of the tile
# certificate: a grain is dropped from a tile only where all its exponents lie
# below it. exp(-700) ~ 1e-304 is still a normal double, so no weight is
# subnormal or underflows. The argmin term contributes exactly 1, so the sum s
# is >= 1 and a floored weight, off by less than 1e-304, is far below the
# rounding of s. Without the floor an evaluation with gradient and assignment
# took 1.7-2.2x as long (2-core Xeon VM, numpy 2.4, one thread, q1-q3):
# many-grains after 20 iterations 215-234 -> 371-420 ms, pd-recovery after 300
# iterations 1.9-2.0 -> 3.4-3.8 ms, apd-heuristic at the heuristic start
# 2.1-2.3 -> 4.6-4.9 ms. Only 0.04-1.6% of their exponents lie in the subnormal
# band [-745, -708); whether exp or the gradient GEMM pays for them was not
# measured.
Z_FLOOR = -700.0

# The curvature blocks (``want_curvature``) zero a weight below e^-30 ~ 1e-13
# of its pixel's leading one. The kernel's floored weights, about 1e-304, would
# make the Gram products subnormal: one apd-heuristic tile's Q @ Q.T took 121 ms
# with them and 0.9 ms with them zeroed (2-vCPU VM, NumPy 2.4).
CURVATURE_CUT = 30.0

# Relative rounding allowance of the tile certificate, against the bound on
# |cost| over the tile. The certificate, the costs and the design each round
# by a few K * 2^-53 of that bound; 2^-40 covers K up to about a thousand.
CERT_RTOL = 2.0 ** -40

# Additive rounding allowance of the bound checks in ``bounds_hold``.
BOUND_SLACK = 1e-12

def _check_compatible(theta: ParamMatrix, design: DesignMatrix, n_points: int) -> None:
    theta.require_basis(design.basis)
    if design.values.shape[1] != n_points:
        raise ValueError(f"grid has {n_points} points, design has {design.values.shape[1]}")


def chunk_width(n_grains: int) -> int:
    """Pixels per chunk: an N x width float64 buffer of about CHUNK_BYTES."""
    return max(MIN_CHUNK, CHUNK_BYTES // (8 * n_grains))


class TileLayout(NamedTuple):
    """Tiles of a point list: tile t holds the points ``order[bounds[t]:bounds[t + 1]]``.

    ``expand[t]`` maps a coefficient column to the monomial coefficients in s of
    its cost on the tile's box x = centre + half * s, s in [-1,1]^2, and
    ``scale[t] @ |theta|`` bounds each grain's |cost| there and the terms that
    the expansion rounds. ``odd[beta]`` is 1 where s^beta has an odd exponent.
    ``labels[t, i]`` is true where grain i is a true label on tile t.
    ``tile_grains`` needs ``expand``, ``scale`` and ``odd``; the runs that
    ``evaluate_objective`` makes when given no layout have none of them, and it
    keeps every grain on each of them with a mask of its own. The kernel reads a
    tile's columns through ``order``; a caller whose arrays are already in tile
    order drops it, and each tile is then a slice.
    """

    order: np.ndarray | None
    bounds: np.ndarray
    expand: np.ndarray | None = None
    scale: np.ndarray | None = None
    odd: np.ndarray | None = None
    labels: np.ndarray | None = None


def _expansion(basis: DesignBasis, centre: np.ndarray, half: np.ndarray):
    """(expand, scale) of ``TileLayout`` for boxes centre + half * s, each of shape (T, 2).

    (c + h s)^a = sum_k C(a, k) c^(a-k) h^k s^k in each coordinate, and the
    monomial of a multi-index is the product of its two coordinates' powers.
    The Legendre basis first maps to monomial coefficients (``basis_change_inverse``).
    """
    j = np.arange(basis.degree + 1)
    binom = np.array([[math.comb(a, k) for a in j] for k in j], dtype=np.float64)
    lower = np.maximum(j[None, :] - j[:, None], 0)  # a - k where C(a, k) != 0
    # table[t, axis, k, a]: the coefficient of s^k in (c + h s)^a
    table = binom * (centre[:, :, None] ** j)[:, :, lower] * (half[:, :, None] ** j)[..., None]
    idx = np.array(basis.indices)
    mono = (table[:, 0][:, idx[:, 0, None], idx[None, :, 0]]
            * table[:, 1][:, idx[:, 1, None], idx[None, :, 1]])
    if basis.kind == LEGENDRE and basis.degree > 0:
        change = basis_change_inverse(basis.degree)
        return mono @ change, (np.abs(mono) @ np.abs(change)).sum(axis=1)
    return mono, np.abs(mono).sum(axis=1)


def tile_layout(basis: DesignBasis, points: np.ndarray, n_grains: int,
                labels0: np.ndarray | None = None, side: int | None = None) -> TileLayout:
    """The kernel's tiles of ``points`` for costs in ``basis`` over ``n_grains`` grains.

    The cells of a side x side partition of [-1,1]^2 (by default side =
    round(sqrt(n / chunk_width(N))), at least 1), in row-major order, with the
    points of a cell in their own order. Empty cells are skipped, and a cell of
    more than ``chunk_width(N)`` points is cut into the fewest runs of equal
    size that hold at most that many. Each tile's box is the bounding box of
    its points. ``labels0`` (0-based, in the order of ``points``) marks the
    true labels of each tile.

    Besides the points, the layout needs the cell keys and ``order``, n
    integers each, and otherwise about CHUNK_BYTES: the keys are computed a
    run of points at a time, the boxes and labels a run of whole tiles.
    """
    n = len(points)
    width = chunk_width(n_grains)
    if side is None:
        side = max(1, round(math.sqrt(n / width)))
    step = CHUNK_BYTES // 64  # points, whose few 8-byte temporaries take a fraction of a chunk
    key = np.empty(n, dtype=np.intp)  # each point's cell, row-major
    for p in range(0, n, step):
        part = points[p:p + step]
        key[p:p + step] = sum(
            np.minimum(((part[:, axis] + 1.0) * (0.5 * side)).astype(np.intp), side - 1)
            * side ** (1 - axis) for axis in (0, 1))
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=side * side)
    del key
    counts = counts[counts > 0]
    runs = -(-counts // width)
    part = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)  # run within cell
    firsts = np.repeat(np.cumsum(counts) - counts, runs) + (
        np.repeat(counts, runs) * part) // np.repeat(runs, runs)
    bounds = np.append(firsts, n)
    lo, hi = np.empty((len(firsts), 2)), np.empty((len(firsts), 2))
    labels = None if labels0 is None else np.zeros((len(firsts), n_grains), dtype=bool)
    per = max(1, step // width)  # tiles, each of at most ``width`` points
    for first in range(0, len(firsts), per):
        tiles = slice(first, min(first + per, len(firsts)))
        start, at = bounds[first], order[bounds[first]:bounds[tiles.stop]]
        for axis in (0, 1):
            lo[tiles, axis] = np.minimum.reduceat(points[at, axis], firsts[tiles] - start)
            hi[tiles, axis] = np.maximum.reduceat(points[at, axis], firsts[tiles] - start)
        if labels is not None:
            sizes = np.diff(bounds[first:tiles.stop + 1])
            labels[np.repeat(np.arange(first, tiles.stop), sizes), labels0[at]] = True
    centre = 0.5 * (lo + hi)
    # One ulp up, so that the box covers its points whatever the subtraction rounds.
    half = np.nextafter(np.maximum(hi - centre, centre - lo), np.inf)
    expand, scale = _expansion(basis, centre, half)
    odd = np.array([a1 % 2 or a2 % 2 for a1, a2 in basis.indices], dtype=np.float64)
    return TileLayout(order, bounds, expand, scale, odd, labels)


def tile_grains(layout: TileLayout, theta_values: np.ndarray, floor_cut: float) -> np.ndarray:
    """(tiles, N) mask of the grains each tile keeps.

    Grain i is dropped from a tile when the lower bound of c_i - c_j over its
    box exceeds the cut: ``floor_cut`` (-Z_FLOOR * eps for the kernel, 0 for
    arg-min labels) or twice the tie tolerance of M_i, whichever is larger,
    plus ``CERT_RTOL`` of M_i + M_j, where M bounds |cost| on the box. Then
    c_i - m exceeds the tie tolerance of m, since |m| <= |c_i| + (c_i - m).
    The reference j is the tile's true label of least cost at the box centre
    if the layout has labels, and these are always kept. Otherwise it is the
    grain of least upper bound on the box, which bounds m everywhere there, so
    that a grain above it on the whole box, such as a parked one, is dropped
    even where the grain of least centre cost is steep. Tiles are taken in
    batches whose (batch, K, N) coefficients and one scratch array of their
    size hold about CHUNK_BYTES, the working memory besides the (tiles, N) mask.
    """
    k_dim, n_grains = theta_values.shape
    keep = np.empty((len(layout.bounds) - 1, n_grains), dtype=bool)
    size = np.abs(theta_values)
    flip = -layout.odd[1:, None]
    step = max(1, CHUNK_BYTES // (16 * k_dim * n_grains))
    for lo in range(0, len(keep), step):
        batch = slice(lo, lo + step)
        coef = layout.expand[batch] @ theta_values  # (batch, K, N)
        rest, scratch = coef[:, 1:], np.empty((len(coef), k_dim - 1, n_grains))
        if layout.labels is None:
            np.maximum(rest, np.multiply(rest, flip, out=scratch), out=scratch)
            key = coef[:, 0] + scratch.sum(axis=1)  # max over the box
        else:
            key = np.where(layout.labels[batch], coef[:, 0], np.inf)
        ref = key.argmin(axis=1)
        tiles = np.arange(len(ref))
        coef -= coef[tiles, :, ref][:, :, None]  # v of c_i - c_ref
        # v_0 - sum rho(v) is v_0 + sum min(v, -v * odd): no negated copy of v is made
        np.minimum(rest, np.multiply(rest, flip, out=scratch), out=scratch)
        low = coef[:, 0] + scratch.sum(axis=1)
        del coef, rest, scratch, key
        bound = 1.0 + layout.scale[batch] @ size  # 1 + M_i
        cut = ((1.0 + CERT_RTOL) * np.maximum(floor_cut, 2.0 * TIE_RTOL * bound)
               + CERT_RTOL * (bound + bound[tiles, ref][:, None]))
        keep[batch] = ~(low > cut)  # a NaN bound keeps the grain
        del low, bound, cut  # before the next batch's coefficients
    if layout.labels is not None:
        keep |= layout.labels
    return keep


def _label_rows(rows: np.ndarray, labels: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The row of each of a tile's ``labels`` among its kept grains ``rows``, which
    hold every label. ``slot`` is scratch of one integer per grain: the entries of
    ``rows`` are written, and only they are read."""
    slot[rows] = np.arange(len(rows))
    return slot[labels]


def hard_assign(theta: ParamMatrix, grid: PixelGrid,
                design: DesignMatrix | None = None) -> np.ndarray:
    """Arg-min labels of the diagram induced by theta, smallest index on ties.

    Costs are formed one tile of ``_batches`` at a time over the grains its
    certificate keeps, never as a whole N x n matrix: a tile's arg-min row maps
    back to its grain through the tile's ``rows``. Without ``design`` each tile
    evaluates its own columns of the basis.
    """
    if design is not None:
        _check_compatible(theta, design, len(grid))
    layout = tile_layout(theta.basis, grid.points, theta.n_grains)
    labels = np.empty(len(grid), dtype=np.int64)
    for cols, rows in itertools.chain.from_iterable(
            _batches(layout, tile_grains(layout, theta.values, 0.0))):
        # take's gather is C-ordered; with the F-ordered [:, cols], the call at a
        # fitted K = 6 theta took 28-32 ms at 2 OpenBLAS threads against 1-1.6 ms
        # (10^4 pixels, 2-vCPU VM, NumPy 2.4).
        eta = (theta.basis.evaluate(grid.points[cols]) if design is None
               else design.values.take(cols, axis=1))
        labels[cols] = rows[argmin_labels(theta.values[:, rows].T @ eta) - 1] + 1
    return labels


class Curvature(NamedTuple):
    """M = sum_x (diag p - pp') kron eta eta' at one theta, in neighbour blocks.

    ``pairs[b] = (i, j)``, i < j, are the grains whose weights both pass the
    cut at some pixel, and ``blocks[b] = sum_x p_i p_j eta eta'``: block (i, j)
    of M is -blocks[b] and block (j, i) its transpose. ``diag[i]`` is block
    (i, i), sum_x p_i (1 - p_i) eta eta' with 1 - p_i the sum of the other
    weights, which is the sum of grain i's pair blocks. M is thus a sum of
    terms (e_i - e_j)(e_i - e_j)' kron blocks[b], positive semi-definite up
    to the rounding of each block, however close to separation theta is.
    """

    diag: np.ndarray  # (N, K, K)
    pairs: np.ndarray  # (P, 2)
    blocks: np.ndarray  # (P, K, K)


class EvalResult(NamedTuple):
    phi: float
    grad: np.ndarray | None
    err: float | None
    e0: float | None
    pairs: int  # the pixel-grain pairs the kernel computed
    curvature: Curvature | None = None
    separated: bool = False  # p_g0 > 1/2 at every pixel, so Phi(s theta) increases in s


def _batches(layout: TileLayout, keep: np.ndarray) -> list[list[tuple]]:
    """The kernel's tile plan: each kernel call as a list of tiles (cols, rows).

    ``cols`` is the tile's run of ``layout.order``, or the slice of its bounds
    without an order; ``rows`` are its kept grains in ascending order, all N
    where it keeps every grain. Tiles are sorted by their count of kept rows
    (stably, so in tile order among equals), and the tiles of each count are
    cut greedily into batches whose working set, a rows x pixels float buffer
    and about 8 float vectors per pixel, takes at most BATCH_BYTES. A tile
    above that is a batch of one.
    """
    bounds = layout.bounds.tolist()
    counts = keep.sum(axis=1).tolist()
    batches, width, count = [], 0, None
    for t in sorted(range(len(counts)), key=counts.__getitem__):
        lo, hi = bounds[t], bounds[t + 1]
        tile = (slice(lo, hi) if layout.order is None else layout.order[lo:hi],
                np.flatnonzero(keep[t]))
        if counts[t] == count and 8 * (count + 8) * (width + hi - lo) <= BATCH_BYTES:
            batches[-1].append(tile)
            width += hi - lo
        else:
            batches.append([tile])
            width, count = hi - lo, counts[t]
    return batches


def _curvature_share(e, eta, rows, n_grains):
    """One tile's share of M from its floored weights e (rows x pixels) and design eta.

    A weight below e^-CURVATURE_CUT is zero, and only pixels with two or more
    weights left enter: elsewhere p is a unit vector and diag p - pp' is zero.
    The pair blocks are one Gram matrix Q Q' of the rows p_i eta_k of the rows
    live at those pixels, summed over parts of about a sixteenth of CHUNK_BYTES
    that each form their own p, so the share adds about what a tie test holds.
    Returns (grains, diagonal blocks, pair keys i N + j, i < j, pair blocks) or None.
    """
    cut = math.exp(-CURVATURE_CUT)
    active = e >= cut
    multi = np.flatnonzero(np.count_nonzero(active, axis=0) >= 2)
    if not multi.size:
        return None
    live = np.flatnonzero(active[:, multi].any(axis=1))
    del active  # each part below cuts its own weights
    r, k_dim = len(live), len(eta)
    gram = np.zeros((r * k_dim, r * k_dim))
    sub = max(1, CHUNK_BYTES // (128 * k_dim * r))  # pixels of a sixteenth-chunk Q
    for y in range(0, len(multi), sub):
        p = e[np.ix_(live, multi[y:y + sub])]
        p[p < cut] = 0.0
        p /= p.sum(axis=0)
        q = (p[:, None] * eta[None, :, multi[y:y + sub]]).reshape(r * k_dim, -1)
        gram += q @ q.T  # a Gram matrix: syrk, no general GEMM
    gram = gram.reshape(r, k_dim, r, k_dim).transpose(0, 2, 1, 3)
    gram[np.arange(r), np.arange(r)] = 0.0
    grains = rows[live]
    a, b = np.nonzero(np.triu(gram.any(axis=(2, 3))))
    return grains, gram.sum(axis=1), grains[a] * n_grains + grains[b], gram[a, b]


def _chunk_stats(theta_values, design_values, labels0, eps, batch, want_grad, want_assign,
                 want_curvature=False):
    """Partial sums of each tile of a batch: one (sum of log p_g0, gradient
    product, correct, E0 sum, separated, share of M) per tile.

    ``batch`` lists tiles (cols, rows) of ``_batches`` with one count of rows:
    a tile runs on columns ``cols`` and grains ``rows``, and its gradient
    product has one column per row. The tiles share one rows x pixels buffer,
    each in its own columns. The cost GEMM, the sums and the gradient GEMM
    run per tile; the passes over the buffer run once: min, the tie test
    on the costs (``want_assign``), subtract, scale by -1/eps, floor, exp, the
    row sum and log1p. A tile sums its own columns of each per-pixel term, so
    its partials have the same bits in any batch. It is separated where
    rest < e_g0, i.e. p_g0 > 1/2, at each of its pixels. Its share of M
    (``want_curvature``, ``_curvature_share``) is taken from e after the sums.

    The residual 1[g0] - e/s is never formed. With e_g0 zeroed, rest = sum(e)
    and s = rest + e_g0; -rest written at g0 and scaled by -1/s gives rest/s
    there (1 - e_g0/s without its cancellation) and -e/s elsewhere. The -1/s
    scaling goes onto the K x tile design slice.
    """
    thetas = [theta_values[:, rows] for _, rows in batch]
    etas = [design_values[:, cols] for cols, _ in batch]  # views where cols are slices
    labels = [labels0[cols] for cols, _ in batch]
    slot = np.empty(theta_values.shape[1], dtype=np.intp)
    row0 = [_label_rows(rows, g, slot) for g, (_, rows) in zip(labels, batch)]
    bounds = list(itertools.accumulate(map(len, labels), initial=0))
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    buf = np.empty((thetas[0].shape[1], bounds[-1]))
    for eta, th, cols in zip(etas, thetas, spans):
        np.matmul(th.T, eta, out=buf[:, cols])  # costs c
    row0 = np.concatenate(row0)  # the row of each pixel's true label
    # buf is the only rows x pixels float array
    width = buf.shape[1]
    flat = buf.reshape(-1)  # a view: buf is a fresh C-ordered array
    at_g0 = row0 * width + np.arange(width)  # flat index of (g0, x)
    # Arrays are dropped once used, so that few of them add to the call's peak.
    del row0
    m = buf.min(axis=0)
    terms = np.empty((3, width))  # per pixel: z_g0, log s and c_g0 - m

    ncorrect = [0] * len(batch)
    if want_assign:
        # The comparisons of argmin_labels; a pixel whose label ties alone is
        # correct, and only multi-way ties need the first tied index. Rows are
        # kept in grain order with every tied grain, so the first tied row is
        # the first tied grain.
        thr = tie_threshold(m)
        tied = buf <= thr[None, :]
        ntied = tied.sum(axis=0, dtype=np.int32)
        c_g0 = flat[at_g0]
        correct = c_g0 <= thr
        multi = np.flatnonzero(correct & (ntied > 1))
        correct &= ntied == 1
        if multi.size:
            correct[multi] = np.argmax(tied[:, multi], axis=0) == at_g0[multi] // width
        if not ntied.all():
            # A NaN threshold (from a NaN or -inf minimum) ties nothing, and
            # argmin_labels then returns grain 0.
            correct |= (ntied == 0) & (np.concatenate(labels) == 0)
        ncorrect = np.add.reduceat(correct, bounds[:-1], dtype=np.intp)
        np.subtract(c_g0, m, out=terms[2])
        del thr, tied, ntied, c_g0, correct
    else:
        terms[2] = 0.0

    np.subtract(buf, m[None, :], out=buf)
    np.multiply(buf, -1.0 / eps, out=buf)  # z = (m - c)/eps
    terms[0] = flat[at_g0]  # z_g0, before the floor: a misassigned pixel may lie below it
    np.maximum(buf, Z_FLOOR, out=buf)
    np.exp(buf, out=buf)  # e
    e_g0 = flat[at_g0]
    flat[at_g0] = 0.0
    # numpy sums the columns of a wider buffer row by row but a lone column
    # pairwise, so a one-pixel batch sums in row order, as inside any batch.
    rest = buf.sum(axis=0) if width > 1 else np.cumsum(buf[:, 0])[-1:]
    separated = np.logical_and.reduceat(rest < e_g0, bounds[:-1])  # before e_g0 becomes s
    # log s as log1p(s - 1): s of a confidently assigned pixel is 1 + a tiny
    # rest, which log(s) keeps only to 2^-53 absolute. e_g0 - 1 is exact for
    # e_g0 >= 1/2, and 0 where the label is the arg-min. Below 2^-54 log1p(x)
    # rounds to x, and numpy's log1p is up to 6x slower on 1e-200 < x < 1e-20.
    x = np.subtract(e_g0, 1.0, out=terms[1])
    x += rest
    np.log1p(x, out=x, where=x >= 2.0 ** -54)
    # Each tile sums its own columns of the terms: the row sums of a (3, tile)
    # block add like the plain sums of its rows.
    sums = [terms[:, cols].sum(axis=1) for cols in spans]
    del terms, x, m
    if want_curvature:  # buf holds e again, now that the terms are dropped
        flat[at_g0] = e_g0
    shares = [_curvature_share(buf[:, cols], eta, rows, theta_values.shape[1])
              if want_curvature else None for eta, (_, rows), cols in zip(etas, batch, spans)]

    gacc = [None] * len(batch)
    if want_grad:
        flat[at_g0] = -rest
        e_g0 += rest  # s
        scale = np.divide(-1.0, e_g0, out=e_g0)
        gacc = [(eta * scale[None, cols]) @ buf[:, cols].T
                for eta, cols in zip(etas, spans)]  # d @ (1[g0] - e/s).T
    return [(float(z - log_s), g, int(count), float(e0), bool(sep), share)
            for (z, log_s, e0), g, count, sep, share in zip(sums, gacc, ncorrect, separated,
                                                            shares)]


def evaluate_objective(theta_values: np.ndarray, design_values: np.ndarray,
                       labels0: np.ndarray, eps: float, *, want_grad: bool = True,
                       want_assign: bool = False, want_curvature: bool = False,
                       threads: int = 1, layout: TileLayout | None = None) -> EvalResult:
    """Tiled evaluation of the objective and, optionally, gradient, assignment
    stats and the curvature blocks M (``Curvature``), the Hessian times -eps^2 n.

    ``labels0`` are 0-based true labels. A tile's columns of ``design_values``
    and ``labels0`` are its run of ``layout.order``; a layout without an order
    takes arrays already in tile order, each tile a slice. ``layout`` must
    carry the tiles' true labels. Without a layout the columns are taken in
    runs of ``chunk_width(N)``, and every run keeps every grain. The tiles run
    in kernel batches (``_batches``), whose partial sums are added up as each
    returns. Exponents are floored at ``Z_FLOOR``, and each grain a tile drops
    has every exponent there below it, so no weight moves by more than
    exp(Z_FLOOR). Tiles' shares of M add up in that order too. M and the flag
    ``separated``, p_g0 > 1/2 at every pixel of every tile, depend on theta / eps
    alone: (2^k eps, 2^k theta) gives their bits at (eps, theta). ``threads``
    must be >= 1 and changes nothing: the kernel is serial.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    k_dim, n_grains = theta_values.shape
    n = design_values.shape[1]
    if len(labels0) != n:
        raise ValueError(f"{len(labels0)} labels for a design of {n} points")
    if layout is None:
        layout = TileLayout(None, np.append(np.arange(0, n, chunk_width(n_grains)), n))
        keep = np.ones((len(layout.bounds) - 1, n_grains), dtype=bool)
    elif layout.labels is None:
        raise ValueError("the kernel's layout must carry the true labels of its tiles")
    else:
        keep = tile_grains(layout, theta_values, -Z_FLOOR * eps)
    pairs = int(keep.sum(axis=1) @ np.diff(layout.bounds))

    grad = np.zeros((k_dim, n_grains)) if want_grad else None
    lse_sum, ncorrect, e0_sum, separated = 0.0, 0, 0.0, True
    diag = np.zeros((n_grains, k_dim, k_dim)) if want_curvature else None
    keys, blocks, pending = [np.empty(0, dtype=np.intp)], [np.empty((0, k_dim, k_dim))], 0
    for batch in _batches(layout, keep):
        parts = _chunk_stats(theta_values, design_values, labels0, eps, batch,
                             want_grad, want_assign, want_curvature)
        for (_, rows), (lse, gacc, count, e0, sep, share) in zip(batch, parts):
            lse_sum += lse
            ncorrect += count
            e0_sum += e0
            separated &= sep
            if want_grad:
                grad[:, rows] += gacc
            if share is not None:  # (grains, their diagonal blocks, pair keys, pair blocks)
                diag[share[0]] += share[1]
                keys.append(share[2])
                blocks.append(share[3])
                pending += share[3].nbytes
                if pending > CHUNK_BYTES:
                    keys, blocks, pending = *_sum_blocks(keys, blocks), 0
    phi = lse_sum / n
    if want_grad:
        grad = -grad / (eps * n)
    err = 1.0 - float(ncorrect) / n if want_assign else None
    e0 = e0_sum / n if want_assign else None
    curv = None
    if want_curvature:
        (keys,), (blocks,) = _sum_blocks(keys, blocks)
        curv = Curvature(0.5 * (diag + diag.transpose(0, 2, 1)),  # exactly symmetric
                         np.column_stack(np.divmod(keys, n_grains)), blocks)
    return EvalResult(phi=phi, grad=grad, err=err, e0=e0, pairs=pairs, curvature=curv,
                      separated=separated)


def _sum_blocks(keys: list, blocks: list) -> tuple[list, list]:
    """([unique keys], [their summed blocks]) of lists of keys and blocks; equal
    keys add in list order."""
    keys, blocks = np.concatenate(keys), np.concatenate(blocks)
    order = np.argsort(keys, kind="stable")
    keys, starts = np.unique(keys[order], return_index=True)
    return [keys], [np.add.reduceat(blocks[order], starts) if keys.size else blocks]


def require_eps(eps: float) -> None:
    """Reject a temperature that is not finite and positive, or whose reciprocal, the
    kernel's scale -1/eps, overflows."""
    if not (0 < eps < math.inf and 1.0 / float(eps) < math.inf):  # float: no NumPy warning
        raise ValueError(f"eps must be finite and positive with a finite reciprocal, got {eps}")


def evaluate(theta: ParamMatrix, design: DesignMatrix, grain_map: GrainMap, eps: float,
             *, want_grad: bool = False, want_assign: bool = False) -> EvalResult:
    """Checked ``evaluate_objective`` of theta on a design, on the tiles of the
    map's grid, read through their order; the gradient keeps its last column."""
    require_eps(eps)
    _check_compatible(theta, design, len(grain_map))
    if grain_map.n_grains > theta.n_grains:
        raise ValueError(f"grain map has {grain_map.n_grains} grains, theta {theta.n_grains}")
    labels0 = grain_map.labels - 1
    layout = tile_layout(theta.basis, grain_map.grid.points, theta.n_grains, labels0)
    return evaluate_objective(theta.values, design.values, labels0, eps,
                              want_grad=want_grad, want_assign=want_assign, layout=layout)


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
