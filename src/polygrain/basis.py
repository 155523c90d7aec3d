"""Polynomial design functions: monomial and Legendre product bases.

A degree-d basis carries one feature per multi-index alpha = (a1, a2) with
a1 + a2 <= d, so the feature dimension is K_d = (d+1)(d+2)/2. The multi-index
ordering is frozen package-wide (and recorded in coefficient files) as
"graded-lex-a1-desc": total degree ascending, then a1 descending, e.g. for
d = 2:

    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2)

Monomial feature: x1^a1 * x2^a2. Legendre feature: P_{a1}(x1) * P_{a2}(x2)
with the standard Legendre polynomials on [-1,1]. Both span the same
polynomial space; ``basis_change`` returns the exact coefficient conversion.
It is built from two exact rational (d+1) x (d+1) tables in one variable, the
monomial coefficients of P_0..P_d and their triangular inverse: both maps
are tensor products of these tables, so each entry is one rational rounded
to float once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ResourceError
from .geometry import PixelGrid, _freeze

ORDERING_CONVENTION = "graded-lex-a1-desc"

MONOMIAL = "monomial"
LEGENDRE = "legendre"
BASIS_KINDS = (MONOMIAL, LEGENDRE)

GAUGE_FREE = "free"
GAUGE_LAST_ZERO = "last-column-zero"

# Bytes of a working buffer whose element-wise passes run in a core's L2 cache:
# the objective kernel's N x chunk cost buffer and a chunk of design assembly.
# The kernel is serial, so one core's cache is the budget: on the many-grains
# map (N=200; 2 MiB L2 per core) a 1 MiB kernel buffer was faster than 2 and
# 4 MiB on one thread.
CHUNK_BYTES = 1 << 20


def feature_count(degree: int) -> int:
    """K_d = (d+1)(d+2)/2, the number of multi-indices with |alpha| <= d."""
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def _graded_lex_indices(degree: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (a1, total - a1)
        for total in range(degree + 1)
        for a1 in range(total, -1, -1)
    )


@dataclass(frozen=True)
class DesignBasis:
    """A basis kind (monomial or legendre) and a degree d >= 0."""

    kind: str
    degree: int

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {BASIS_KINDS}")
        object.__setattr__(self, "degree", int(self.degree))
        if self.degree < 0:
            raise ValueError("degree must be non-negative")

    @property
    def indices(self) -> tuple[tuple[int, int], ...]:
        """All multi-indices of total degree <= d in graded-lex (a1 descending) order."""
        return _graded_lex_indices(self.degree)

    @property
    def dimension(self) -> int:
        return feature_count(self.degree)

    def position(self, alpha: tuple[int, int]) -> int:
        """Row position of a multi-index; O(1) from the graded-lex layout."""
        a1, a2 = alpha
        total = a1 + a2
        if a1 < 0 or a2 < 0 or total > self.degree:
            raise ValueError(f"multi-index {alpha} not in the degree-{self.degree} set")
        return feature_count(total - 1) + (total - a1)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Feature matrix of shape (K_d, n) for points of shape (n, 2)."""
        points = np.asarray(points, dtype=np.float64)
        table = _power_table if self.kind == MONOMIAL else legendre_all
        u1, u2 = (table(self.degree, points[:, axis]) for axis in (0, 1))
        out = np.empty((self.dimension, len(points)))
        for row, (a1, a2) in enumerate(self.indices):
            np.multiply(u1[a1], u2[a2], out=out[row])
        return out


def _power_table(degree: int, t: np.ndarray) -> np.ndarray:
    out = np.empty((degree + 1,) + t.shape)
    out[0] = 1.0
    for k in range(1, degree + 1):
        out[k] = out[k - 1] * t
    return out


def legendre_all(degree: int, t: np.ndarray) -> np.ndarray:
    """P_0(t), ..., P_d(t) via the three-term recurrence, shape (d+1,) + t.shape.

    (m+1) P_{m+1} = (2m+1) t P_m - m P_{m-1}, with P_0 = 1 and P_1 = t.
    Values of t outside [-1,1] are computed without complaint; the recurrence
    is valid on all of R.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.empty((degree + 1,) + t.shape)
    out[0] = 1.0
    if degree >= 1:
        out[1] = t
    for m in range(1, degree):
        out[m + 1] = ((2 * m + 1) * t * out[m] - m * out[m - 1]) / (m + 1)
    return out


@dataclass(frozen=True)
class DesignMatrix:
    """Feature matrix of a basis over n points: column j equals eta(x_j)."""

    values: np.ndarray
    basis: DesignBasis

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != self.basis.dimension:
            raise ValueError(
                f"design matrix shape {vals.shape} does not match (K={self.basis.dimension}, n)"
            )
        _freeze(self, values=vals)


def assemble_design_matrix(basis: DesignBasis, grid: PixelGrid,
                           order: np.ndarray | None = None) -> DesignMatrix:
    """Evaluate the design function at every grid point, column j at point
    ``order[j]`` if an order (a permutation of the points) is given.

    The K x n result is the one large allocation. It is filled in chunks of
    points, each one ``basis.evaluate`` call whose two per-axis tables and K
    rows take about CHUNK_BYTES; a grid of one chunk is evaluated whole. An
    order is followed one chunk of points at a time, never as a permuted copy
    of the grid. So the assembly's peak is one K x n matrix plus one chunk, and
    the K x n bytes that a ``ResourceError`` quotes are its need to within that
    chunk.
    """
    k_dim, n = basis.dimension, len(grid)
    step = max(1, CHUNK_BYTES // (8 * (k_dim + 2 * (basis.degree + 1))))

    def points(lo, hi):
        return grid.points[lo:hi] if order is None else grid.points[order[lo:hi]]

    try:
        if n <= step:  # one chunk: its own array is the result, with no copy
            values = basis.evaluate(points(0, n))
        else:
            values = np.empty((k_dim, n))
            for lo in range(0, n, step):
                values[:, lo:lo + step] = basis.evaluate(points(lo, lo + step))
    except MemoryError as exc:
        raise ResourceError(
            f"design matrix allocation failed: needs about {k_dim * n * 8} bytes "
            f"({k_dim} x {n} float64)"
        ) from exc
    return DesignMatrix(values=values, basis=basis)


def _legendre_tables(degree: int) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Exact lower-triangular (d+1) x (d+1) tables (L, L^{-1}) in one variable.

    L[m][j] is the coefficient of t^j in P_m, from the three-term recurrence;
    L^{-1}[m][j], by forward substitution, is the coefficient of P_j in t^m.
    """
    n = degree + 1
    table = [[Fraction(int(j == 0)) for j in range(n)]]  # P_0 = 1
    for m in range(degree):
        t_pm = [Fraction(0)] + table[m][:-1]
        pm1 = table[m - 1] if m else [Fraction(0)] * n  # P_{-1} = 0
        table.append([((2 * m + 1) * a - m * b) / (m + 1) for a, b in zip(t_pm, pm1)])
    inv = [[Fraction(0)] * n for _ in range(n)]
    for row in range(n):
        for col in range(row + 1):
            s = int(row == col) - sum(table[row][j] * inv[j][col] for j in range(col, row))
            inv[row][col] = s / table[row][row]
    return table, inv


@lru_cache(maxsize=None)
def _basis_change_pair(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(monomial->legendre, legendre->monomial) coefficient maps, exact then rounded.

    Let B[a, b] be the monomial coefficient of x^b in the Legendre product
    psi_a, so eta_L = B @ eta_mono as functions. Matching h values gives
    theta_mono = B^T theta_leg, hence theta_leg = (B^T)^{-1} theta_mono.
    B[a, b] = L[a1][b1] L[a2][b2] is the tensor product of the 1-D table. It
    is non-zero only for b <= a componentwise, and the multi-indices of degree
    <= d contain every such b of their members, so B^{-1} is the same
    restriction of the tensor product of L^{-1}. Every entry of both maps is
    an exact product of two rationals, rounded to float once.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    idx = _graded_lex_indices(degree)

    def transposed_tensor(table):
        out = np.array([[float(table[a1][b1] * table[a2][b2]) for a1, a2 in idx]
                        for b1, b2 in idx])
        out.setflags(write=False)
        return out

    table, inv = _legendre_tables(degree)
    return transposed_tensor(inv), transposed_tensor(table)


def basis_change(degree: int) -> np.ndarray:
    """Matrix T with theta_mono . eta_mono(x) == (T theta_mono) . eta_leg(x)."""
    return _basis_change_pair(degree)[0]


def basis_change_inverse(degree: int) -> np.ndarray:
    """Exact inverse of ``basis_change``: Legendre coefficients to monomial."""
    return _basis_change_pair(degree)[1]


@dataclass(frozen=True)
class ParamMatrix:
    """Coefficient matrix theta with one column per grain.

    Shape (K_d, N) in the row order of ``basis.indices``, every entry finite.
    ``gauge`` records whether the final column is pinned to zero (the
    reference-grain convention used during fitting) or unconstrained.
    """

    values: np.ndarray
    basis: DesignBasis
    gauge: str = GAUGE_FREE

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 2:
            raise ValueError("parameter matrix must be two-dimensional")
        if vals.shape[0] != self.basis.dimension:
            raise ValueError(
                f"parameter rows {vals.shape[0]} != basis dimension {self.basis.dimension}"
            )
        if vals.shape[1] < 2:
            raise ValueError("need at least two grains")
        if not np.all(np.isfinite(vals)):
            raise ValueError("parameter matrix contains non-finite entries")
        if self.gauge not in (GAUGE_FREE, GAUGE_LAST_ZERO):
            raise ValueError(f"unknown gauge {self.gauge!r}")
        if self.gauge == GAUGE_LAST_ZERO and np.any(vals[:, -1] != 0.0):
            raise ValueError("gauge 'last-column-zero' requires an exactly zero final column")
        _freeze(self, values=vals)

    @property
    def n_grains(self) -> int:
        return self.values.shape[1]

    @property
    def degree(self) -> int:
        return self.basis.degree

    def require_basis(self, basis: DesignBasis) -> None:
        """Raise ValueError unless the coefficients are in ``basis``, a design's basis."""
        if self.basis != basis:
            raise ValueError(f"parameter basis ({self.basis.kind}, d={self.degree}) does not "
                             f"match design basis ({basis.kind}, d={basis.degree})")


def park(values: np.ndarray, basis: DesignBasis, parked: np.ndarray) -> None:
    """Set columns ``parked`` of ``values`` to the constant cost 1 + min |theta_i|_1 over the
    other columns i. No basis function exceeds 1 in absolute value on the square, so no
    grain i costs more than |theta_i|_1 there, and a parked grain wins no pixel."""
    values[:, parked] = 0.0
    values[basis.position((0, 0)), parked] = 1.0 + np.abs(values[:, ~parked]).sum(axis=0).min()


def zero_pad(theta: ParamMatrix, degree: int) -> ParamMatrix:
    """Embed coefficients into a higher degree by zero rows for the new indices.

    The graded-lex ordering makes the lower-degree index set a prefix of the
    higher-degree one, so padding appends zero rows and leaves cost values
    unchanged.
    """
    if degree < theta.degree:
        raise ValueError("target degree is smaller than the current degree")
    if degree == theta.degree:
        return theta
    target = DesignBasis(theta.basis.kind, degree)
    padded = np.zeros((target.dimension, theta.n_grains))
    padded[: theta.values.shape[0]] = theta.values
    return ParamMatrix(values=padded, basis=target, gauge=theta.gauge)
