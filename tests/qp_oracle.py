"""Independent quadratic-programming oracle for SVM tests.

Solves the same soft-margin problem as the package solver but through a
completely different route: exact enumeration of the dual's active
sets. Each dual coefficient is at 0, at ``lam`` or free; the optimum
lies on one of those 3^m faces, and on a face the equality-constrained
stationary point is one linear solve. The result does not depend on a
step rule, a stopping tolerance or the BLAS thread count. It costs
3^m small solves, so it is meant for the m <= 8 problems of the tests.
Only the test suite imports this.
"""

import itertools

import numpy as np

FEASIBILITY_TOL = 1e-10


def dual_oracle(x, y, lam):
    """Maximize sum(a) - 0.5 * a Q a subject to 0 <= a <= lam and
    sum(a * y) = 0. Returns (alpha, dual objective)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = x.shape[0]
    q = (y[:, None] * x) @ (y[:, None] * x).T
    best_alpha, best_value = None, -np.inf
    for states in itertools.product((0, 1, 2), repeat=m):
        states = np.array(states)
        alpha = np.where(states == 1, lam, 0.0)
        free = np.flatnonzero(states == 2)
        if free.size:
            # Stationarity on the face: Q_FF a_F + nu y_F = 1 - Q_FB a_B,
            # with y_F . a_F = -y_B . a_B.
            k = free.size
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = q[np.ix_(free, free)]
            kkt[:k, k] = kkt[k, :k] = y[free]
            rhs = np.append(1.0 - q[free] @ alpha, -(y @ alpha))
            try:
                alpha[free] = np.linalg.solve(kkt, rhs)[:k]
            except np.linalg.LinAlgError:
                continue
        # Relative to the face's own coefficients, so the check scales
        # with them at any lam: an absolute floor accepts infeasible
        # faces once every coefficient is below it.
        tol = FEASIBILITY_TOL * np.abs(alpha).max()
        if abs(alpha @ y) > tol or np.any(alpha < -tol) or np.any(alpha > lam + tol):
            continue
        alpha = np.clip(alpha, 0.0, lam)
        value = float(alpha.sum() - 0.5 * alpha @ q @ alpha)
        if value > best_value:
            best_alpha, best_value = alpha, value
    assert best_alpha is not None, "dual oracle found no feasible face"
    return best_alpha, best_value


def primal_oracle(x, y, lam):
    """Minimize 0.5*|w|^2 + lam*sum(z) over (w, b, z) subject to
    y_i (w.x_i + b) >= 1 - z_i and z_i >= 0. Returns (w, b, objective).

    ``w`` comes from the exact dual optimum; ``b`` minimizes the slack
    sum, a convex piecewise-linear function whose minimum lies at one of
    its breakpoints ``y_i - w.x_i``; the objective is evaluated on the
    primal program itself."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha, _ = dual_oracle(x, y, lam)
    w = x.T @ (alpha * y)
    margins = x @ w
    breakpoints = y - margins
    slack_sums = [float(np.maximum(0.0, 1.0 - y * (margins + b)).sum())
                  for b in breakpoints]
    best = int(np.argmin(slack_sums))
    return w, float(breakpoints[best]), 0.5 * float(w @ w) + lam * slack_sums[best]


def random_separable_problem(rng, m_per_side=3, d=2, gap=2.0, scale=1.0):
    """Two clusters separated along a random direction; useful where a
    test wants well-conditioned fixtures."""
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    pos = gap * direction + scale * rng.standard_normal((m_per_side, d)) * 0.3
    neg = -gap * direction + scale * rng.standard_normal((m_per_side, d)) * 0.3
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(m_per_side), -np.ones(m_per_side)])
    return x, y
