"""Dual working-set kernel: second-order working-set selection (WSS2).

Each iteration picks the pair (i, j) of Fan, Chen & Lin, "Working Set
Selection Using Second Order Information for Training SVM" (JMLR 2005),
the rule LIBSVM uses: i is the maximal violator in I_up, and j, among
the I_low indices that violate against i, maximizes the second-order
gain b^2 / a. The pair is optimized jointly inside the box [0, lam] with
LIBSVM's clipped two-variable update, preserving ``sum(alpha * y)``.
"""

import numpy as np

# Kept for the benchmark, which records which kernel a run loaded; there
# is one kernel.
BACKEND_NAME = "numpy"

# Curvature below this share of the largest Gram diagonal entry counts as
# non-positive: the pair's objective is linear along the update
# direction, and the step is clipped to the box.
CURVATURE_FLOOR = 1e-12


def sweep(gram, y, lam, alpha, grad, eps):
    """Apply WSS2 pair updates until the maximal violation
    ``m(alpha) - M(alpha)`` is at most ``eps``, no selected pair moves,
    or M(M-1)/2 updates have been applied; mutates ``alpha`` and ``grad``
    in place.

    gram: M x M Gram matrix, K = X X^T.
    y: labels in {-1, +1} as float64.
    alpha: dual coefficients, in [0, lam].
    grad: gradient of the dual objective in minimization form,
        ``y * (K @ (alpha * y)) - 1``, maintained incrementally.
    Returns the number of pair updates applied.
    """
    m = alpha.shape[0]
    diag = np.diagonal(gram)
    curvature = np.maximum(diag[:, None] + diag - 2.0 * gram,
                           CURVATURE_FLOOR * float(diag.max()))
    q = gram * np.outer(y, y)
    neg_y = -y
    positive = y > 0
    up = np.where(positive, alpha < lam, alpha > 0.0)
    low = np.where(positive, alpha > 0.0, alpha < lam)
    limit = m * (m - 1) // 2
    changed = 0
    while changed < limit:
        score = neg_y * grad
        up_score = np.where(up, score, -np.inf)
        i = up_score.argmax()
        violation = up_score[i] - np.where(low, score, np.inf)
        if not violation.max() > eps:
            break
        # Second-order gain b^2 / a over the indices that violate against i.
        np.maximum(violation, 0.0, out=violation)
        violation *= violation
        violation /= curvature[i]
        j = violation.argmax()
        ai, aj, yi, yj = float(alpha[i]), float(alpha[j]), y[i], y[j]
        gi, gj, a = float(grad[i]), float(grad[j]), float(curvature[i, j])
        if yi != yj:
            delta = (-gi - gj) / a
            diff = ai - aj
            ni, nj = ai + delta, aj + delta
            if diff > 0.0:
                if nj < 0.0:
                    ni, nj = diff, 0.0
                if ni > lam:
                    ni, nj = lam, lam - diff
            else:
                if ni < 0.0:
                    ni, nj = 0.0, -diff
                if nj > lam:
                    ni, nj = lam + diff, lam
        else:
            delta = (gi - gj) / a
            total = ai + aj
            ni, nj = ai - delta, aj + delta
            if total > lam:
                if ni > lam:
                    ni, nj = lam, total - lam
                if nj > lam:
                    ni, nj = total - lam, lam
            else:
                if nj < 0.0:
                    ni, nj = total, 0.0
                if ni < 0.0:
                    ni, nj = 0.0, total
        if ni == ai and nj == aj:
            break
        grad += (ni - ai) * q[i] + (nj - aj) * q[j]
        alpha[i] = ni
        alpha[j] = nj
        for k, ak, yk in ((i, ni, yi), (j, nj, yj)):
            up[k] = ak < lam if yk > 0 else ak > 0.0
            low[k] = ak > 0.0 if yk > 0 else ak < lam
        changed += 1
    return changed
