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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ResourceError
from .geometry import PixelGrid

ORDERING_CONVENTION = "graded-lex-a1-desc"

MONOMIAL = "monomial"
LEGENDRE = "legendre"
BASIS_KINDS = (MONOMIAL, LEGENDRE)

GAUGE_FREE = "free"
GAUGE_LAST_ZERO = "last-column-zero"


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
class MultiIndexSet:
    """All multi-indices of total degree <= d in graded-lex (a1 descending) order."""

    degree: int
    indices: tuple[tuple[int, int], ...]

    @classmethod
    def for_degree(cls, degree: int) -> "MultiIndexSet":
        degree = int(degree)
        if degree < 0:
            raise ValueError("degree must be non-negative")
        return cls(degree=degree, indices=_graded_lex_indices(degree))

    def __post_init__(self):
        expected = _graded_lex_indices(self.degree)
        if tuple(self.indices) != expected:
            raise ValueError("indices must follow the graded-lex (a1 descending) convention")

    def __len__(self) -> int:
        return len(self.indices)

    def position(self, alpha: tuple[int, int]) -> int:
        """Row position of a multi-index; O(1) from the graded-lex layout."""
        a1, a2 = alpha
        total = a1 + a2
        if a1 < 0 or a2 < 0 or total > self.degree:
            raise ValueError(f"multi-index {alpha} not in the degree-{self.degree} set")
        return feature_count(total - 1) + (total - a1)


@dataclass(frozen=True)
class DesignBasis:
    """A basis kind (monomial or legendre) together with its multi-index set."""

    kind: str
    index_set: MultiIndexSet

    @classmethod
    def make(cls, kind: str, degree: int) -> "DesignBasis":
        return cls(kind=kind, index_set=MultiIndexSet.for_degree(degree))

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {BASIS_KINDS}")

    @property
    def degree(self) -> int:
        return self.index_set.degree

    @property
    def dimension(self) -> int:
        return len(self.index_set)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Feature matrix of shape (K_d, n) for points of shape (n, 2)."""
        points = np.asarray(points, dtype=np.float64)
        x1, x2 = points[:, 0], points[:, 1]
        d = self.degree
        if self.kind == MONOMIAL:
            u1 = _power_table(d, x1)
            u2 = _power_table(d, x2)
        else:
            u1 = legendre_all(d, x1)
            u2 = legendre_all(d, x2)
        rows = [u1[a1] * u2[a2] for a1, a2 in self.index_set.indices]
        return np.asarray(rows)


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


def legendre_eval(m: int, t):
    """Legendre polynomial P_m evaluated at t (scalar or array)."""
    if m < 0:
        raise ValueError("Legendre degree must be non-negative")
    arr = np.asarray(t, dtype=np.float64)
    value = legendre_all(m, arr)[m]
    return float(value) if np.isscalar(t) or arr.ndim == 0 else value


def eval_design(basis: DesignBasis, x) -> np.ndarray:
    """Feature vector eta(x) of length K_d for a single point x in [-1,1]^2."""
    x = np.asarray(x, dtype=np.float64).reshape(1, 2)
    return basis.evaluate(x)[:, 0]


@dataclass(frozen=True)
class DesignMatrix:
    """Feature matrix of a basis over a grid: column j equals eta(x_j)."""

    values: np.ndarray
    basis: DesignBasis
    grid: PixelGrid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.basis.dimension, len(self.grid)):
            raise ValueError(
                f"design matrix shape {vals.shape} does not match "
                f"(K={self.basis.dimension}, n={len(self.grid)})"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def assemble_design_matrix(basis: DesignBasis, grid: PixelGrid) -> DesignMatrix:
    """Evaluate the design function at every grid point; computed once per fit."""
    required = basis.dimension * len(grid) * 8
    try:
        values = basis.evaluate(grid.points)
    except MemoryError as exc:
        raise ResourceError(
            f"design matrix allocation failed: needs about {required} bytes "
            f"({basis.dimension} x {len(grid)} float64)"
        ) from exc
    return DesignMatrix(values=values, basis=basis, grid=grid)


@lru_cache(maxsize=None)
def _legendre_coeff_rows(degree: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact monomial coefficients of P_0..P_d; row m has length m+1."""
    rows = [(Fraction(1),)]
    if degree >= 1:
        rows.append((Fraction(0), Fraction(1)))
    for m in range(1, degree):
        pm, pm1 = rows[m], rows[m - 1]
        nxt = [Fraction(0)] * (m + 2)
        for j, c in enumerate(pm):
            nxt[j + 1] += Fraction(2 * m + 1) * c
        for j, c in enumerate(pm1):
            nxt[j] -= Fraction(m) * c
        rows.append(tuple(c / (m + 1) for c in nxt))
    return tuple(rows[: degree + 1])


@lru_cache(maxsize=None)
def _basis_change_pair(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(monomial->legendre, legendre->monomial) coefficient maps, exact then rounded.

    Let B[a, b] be the monomial coefficient of x^b in the Legendre product
    psi_a, so eta_L = B @ eta_mono as functions. Matching h values gives
    theta_mono = B^T theta_leg, hence theta_leg = (B^T)^{-1} theta_mono.
    B is lower triangular in graded-lex order (psi_a only contains monomials
    with b <= a componentwise), so the inverse is computed exactly over the
    rationals by forward substitution and rounded to float once.
    """
    idx = MultiIndexSet.for_degree(degree)
    k = len(idx)
    uni = _legendre_coeff_rows(degree)
    b = [[Fraction(0)] * k for _ in range(k)]
    for row, (a1, a2) in enumerate(idx.indices):
        for b1 in range(a1 + 1):
            c1 = uni[a1][b1]
            if c1 == 0:
                continue
            for b2 in range(a2 + 1):
                c2 = uni[a2][b2]
                if c2 == 0:
                    continue
                b[row][idx.position((b1, b2))] = c1 * c2

    # Forward substitution: columns of B^{-1} from B X = I.
    inv = [[Fraction(0)] * k for _ in range(k)]
    for col in range(k):
        for row in range(k):
            s = Fraction(1) if row == col else Fraction(0)
            for j in range(row):
                if b[row][j]:
                    s -= b[row][j] * inv[j][col]
            inv[row][col] = s / b[row][row]

    leg_to_mono = np.array([[float(b[i][j]) for i in range(k)] for j in range(k)])
    mono_to_leg = np.array([[float(inv[i][j]) for i in range(k)] for j in range(k)])
    leg_to_mono.setflags(write=False)
    mono_to_leg.setflags(write=False)
    return mono_to_leg, leg_to_mono


def basis_change(degree: int) -> np.ndarray:
    """Matrix T with theta_mono . eta_mono(x) == (T theta_mono) . eta_leg(x)."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return _basis_change_pair(degree)[0]


def basis_change_inverse(degree: int) -> np.ndarray:
    """Exact inverse of ``basis_change``: Legendre coefficients to monomial."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return _basis_change_pair(degree)[1]


def gram_condition(design: DesignMatrix) -> float:
    """Condition number of the normalised feature Gram matrix.

    The Gram matrix is (1/n) sum_x eta(x) eta(x)^T; the condition number is
    the ratio of its extreme eigenvalues, +inf when singular. Used as a
    conditioning diagnostic when comparing basis kinds.
    """
    k, n = design.values.shape
    if k > n:
        raise ValueError(f"need at least K={k} points, got {n}")
    gram = design.values @ design.values.T / n
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 0.0:
        return float("inf")
    return float(eigs[-1] / eigs[0])


@dataclass(frozen=True)
class ParamMatrix:
    """Coefficient matrix theta with one column per grain.

    Shape (K_d, N) in the row order of ``basis.index_set``. ``gauge`` records
    whether the final column is pinned to zero (the reference-grain
    convention used during fitting) or unconstrained.
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
        if self.gauge not in (GAUGE_FREE, GAUGE_LAST_ZERO):
            raise ValueError(f"unknown gauge {self.gauge!r}")
        if self.gauge == GAUGE_LAST_ZERO and np.any(vals[:, -1] != 0.0):
            raise ValueError("gauge 'last-column-zero' requires an exactly zero final column")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_grains(self) -> int:
        return self.values.shape[1]

    @property
    def degree(self) -> int:
        return self.basis.degree

    def with_values(self, values: np.ndarray, gauge: str | None = None) -> "ParamMatrix":
        return ParamMatrix(values=values, basis=self.basis,
                           gauge=self.gauge if gauge is None else gauge)


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
    target = DesignBasis.make(theta.basis.kind, degree)
    padded = np.zeros((target.dimension, theta.n_grains))
    padded[: theta.values.shape[0]] = theta.values
    return ParamMatrix(values=padded, basis=target, gauge=theta.gauge)
