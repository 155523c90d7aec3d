"""Dense references for the tests: whole N x n matrices, small problems only.

The package evaluates every pass over all grains and all pixels in one
chunked kernel (``polygrain.objective``). These functions compute the same
quantities the textbook way, so the tests can check the kernel against an
independent route; each is itself checked against package code in the tests.
"""

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
