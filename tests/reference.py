"""Dense references for the tests: whole N x n matrices, small problems only.

The package evaluates every pass over all grains and all pixels in one
chunked kernel (``polygrain.objective``). These functions compute the same
quantities the textbook way, so the tests can check the kernel against an
independent route; each is itself checked against package code in the tests.
"""

from fractions import Fraction

import numpy as np


def cost_matrix(theta, design):
    """Per-grain, per-pixel costs h_i(x_j) as an (N, n) matrix."""
    return theta.values.T @ design.values


def soft_assign(theta, design, eps):
    """Softmax memberships p_i(x_j) at temperature eps, shape (N, n).

    Stabilised by min-cost subtraction; column j is a distribution over grains.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    costs = cost_matrix(theta, design)
    z = (costs.min(axis=0)[None, :] - costs) / eps
    e = np.exp(z)
    return e / e.sum(axis=0)[None, :]


def energy_zero(theta, design, grain_map):
    """Mean excess cost of the true labels over the per-pixel minimum; >= 0."""
    costs = cost_matrix(theta, design)
    cols = np.arange(costs.shape[1])
    excess = costs[grain_map.labels - 1, cols] - costs.min(axis=0)
    return float(excess.mean())


def hessian_block(theta, design, grain_map, eps, i, k):
    """The (i, k) block of the Hessian (grain indices 1-based), shape (K_d, K_d).

    Equals -(1/(eps^2 n)) sum_x p_i(x) (1[i==k] - p_k(x)) eta(x) eta(x)^T; the
    labels do not enter. The optimiser never forms it.
    """
    n_grains = theta.n_grains
    if not (1 <= i <= n_grains and 1 <= k <= n_grains):
        raise ValueError(f"grain indices must lie in 1..{n_grains}")
    p = soft_assign(theta, design, eps)
    w = p[i - 1] * ((1.0 if i == k else 0.0) - p[k - 1])
    d = design.values
    return -(d * w[None, :]) @ d.T / (eps * eps * d.shape[1])


def dense_curvature(curv):
    """The (N K) x (N K) grain-major matrix of a ``Curvature``'s neighbour blocks."""
    n_grains, k_dim, _ = curv.diag.shape
    dense = np.zeros((n_grains, k_dim, n_grains, k_dim))
    dense[np.arange(n_grains), :, np.arange(n_grains), :] = curv.diag
    for (i, j), block in zip(curv.pairs, curv.blocks):
        dense[i, :, j, :] = -block
        dense[j, :, i, :] = -block.T
    return dense.reshape(n_grains * k_dim, n_grains * k_dim)


def accuracy_and_error(grain_map, assigned):
    """(acc, err): the fraction of correctly assigned pixels and its complement."""
    acc = float(np.count_nonzero(np.asarray(assigned) == grain_map.labels)) / len(grain_map)
    return acc, 1.0 - acc


def gram_condition(design):
    """Condition number of the normalised feature Gram (1/n) sum_x eta(x) eta(x)^T.

    The ratio of its extreme eigenvalues, +inf when singular.
    """
    k, n = design.values.shape
    if k > n:
        raise ValueError(f"need at least K={k} points, got {n}")
    eigs = np.linalg.eigvalsh(design.values @ design.values.T / n)
    if eigs[0] <= 0.0:
        return float("inf")
    return float(eigs[-1] / eigs[0])


def physical_costs(params, points):
    """Costs (x-y_i).A_i(x-y_i) - w_i in physical form, shape (N, n); A_i = I for a PD.

    An independent reference for generation, which works on linear coefficients.
    Identity matrices give |x-y_i|^2 - w_i bit for bit.
    """
    mats = getattr(params, "anisotropy", np.broadcast_to(np.eye(2), (params.n_grains, 2, 2)))
    a11 = mats[:, 0, 0, None]
    a12 = 0.5 * (mats[:, 0, 1] + mats[:, 1, 0])[:, None]
    a22 = mats[:, 1, 1, None]
    z1 = points[None, :, 0] - params.seeds[:, 0, None]
    z2 = points[None, :, 1] - params.seeds[:, 1, None]
    return a11 * z1 * z1 + 2.0 * a12 * z1 * z2 + a22 * z2 * z2 - params.weights[:, None]


def basis_change_pair(degree):
    """(monomial->legendre, legendre->monomial) maps by K x K rational substitution.

    Builds the whole K x K monomial-coefficient matrix B of the Legendre
    products in graded-lex order and inverts it exactly by forward
    substitution, without the package's tensor-product shortcut; every entry
    is rounded to float once.
    """
    indices = [(a1, total - a1) for total in range(degree + 1) for a1 in range(total, -1, -1)]
    position = {alpha: row for row, alpha in enumerate(indices)}
    uni = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for m in range(1, degree):
        nxt = [Fraction(0)] * (m + 2)
        for j, c in enumerate(uni[m]):
            nxt[j + 1] += Fraction(2 * m + 1) * c
        for j, c in enumerate(uni[m - 1]):
            nxt[j] -= Fraction(m) * c
        uni.append([c / (m + 1) for c in nxt])
    k = len(indices)
    b = [[Fraction(0)] * k for _ in range(k)]
    for row, (a1, a2) in enumerate(indices):
        for b1, c1 in enumerate(uni[a1]):
            for b2, c2 in enumerate(uni[a2]):
                b[row][position[(b1, b2)]] = c1 * c2
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
    return mono_to_leg, leg_to_mono


def row_product_design(basis, points):
    """The (K, n) design of ``basis`` at ``points`` as one whole-array construction:
    both per-axis tables (powers, or Legendre polynomials by their three-term
    recurrence), then one product row per multi-index, stacked."""
    d = basis.degree
    u = []
    for t in (points[:, 0], points[:, 1]):
        table = np.empty((d + 1, len(t)))
        table[0] = 1.0
        for m in range(d):
            if basis.kind == "monomial":
                table[m + 1] = table[m] * t
            elif m == 0:
                table[1] = t
            else:
                table[m + 1] = ((2 * m + 1) * t * table[m] - m * table[m - 1]) / (m + 1)
        u.append(table)
    return np.asarray([u[0][a1] * u[1][a2] for a1, a2 in basis.indices])
