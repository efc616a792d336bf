"""Dual working-set kernel: second-order working-set selection (WSS2).

Each iteration picks the pair (i, j) of Fan, Chen & Lin, "Working Set
Selection Using Second Order Information for Training SVM" (JMLR 2005),
the rule LIBSVM uses: i is the maximal violator in I_up, and j, among
the I_low indices that violate against i, maximizes the second-order
gain b^2 / a. The pair is optimized jointly inside the box [0, lam] with
LIBSVM's clipped two-variable update, preserving ``sum(alpha * y)``.

One call runs one problem, or several problems of the same size in
lockstep (the batching idea of ThunderSVM, Wen et al., JMLR 2018): every
iteration then updates one working pair in each problem still running,
with a fixed number of array operations whatever the number of problems
(only the clipped two-variable update runs per problem, on Python
floats), and a problem leaves the batch at the iteration where it would
stop on its own. The batched problems read their Gram rows from one shared
matrix (``PairGrams``) rather than holding an M x M matrix each. A lone
remaining problem finishes in the one-problem loop, which is cheaper per
update. Either way each problem sees the same arithmetic, bit for bit.
"""

from typing import NamedTuple

import numpy as np

# Kept for the benchmark, which records which kernel a run loaded; there
# is one kernel.
BACKEND_NAME = "numpy"

# Curvature below this share of the largest Gram diagonal entry counts as
# non-positive: the pair's objective is linear along the update
# direction, and the step is clipped to the box.
CURVATURE_FLOOR = 1e-12


class PairGrams(NamedTuple):
    """The Gram matrices of P problems of M samples, read from one matrix.

    ``rows[p]`` holds the rows of ``matrix`` that stand for problem p's
    samples, and the same indices are its columns: entry (a, b) of
    problem p's Gram matrix is ``matrix[rows[p, a], rows[p, b]]``,
    whatever the labels. ``diagonal[p]`` is problem p's Gram diagonal,
    gathered once per fit; a subset of the problems slices it together
    with ``rows``.
    """

    matrix: np.ndarray           # N x N
    rows: np.ndarray             # P x M, intp
    diagonal: np.ndarray         # P x M


def sweep(gram, y, lam, alpha, grad, eps, changed=None):
    """Apply WSS2 pair updates until the maximal violation
    ``m(alpha) - M(alpha)`` is at most ``eps``, no selected pair moves,
    or M(M-1)/2 updates have been applied; mutates ``alpha`` and ``grad``
    in place.

    gram: M x M Gram matrix, K = X X^T; a ``PairGrams`` when ``alpha``
        has a leading problem axis.
    y: labels in {-1, +1} as float64, length M, shared by every problem.
    alpha: dual coefficients, in [0, lam]; M, or P x M for P problems
        run in lockstep.
    grad: gradient of the dual objective in minimization form,
        ``y * (K @ (alpha * y)) - 1``, maintained incrementally; shaped
        like ``alpha``.
    changed: for P problems, an int array of length P that receives each
        problem's number of updates.
    Returns the number of pair updates applied, over all problems.
    """
    m = y.shape[0]
    limit = m * (m - 1) // 2
    if alpha.ndim == 1:
        return _sweep_one(gram, y, lam, alpha, grad, eps, limit)
    return _sweep_lockstep(gram, y, lam, alpha, grad, eps, limit, changed)


def _step(ai, aj, yi, yj, gi, gj, a, lam):
    """LIBSVM's clipped joint update of coefficients i and j, on Python
    floats; ``a`` is the pair's curvature."""
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
    return ni, nj


def _sweep_one(gram, y, lam, alpha, grad, eps, limit):
    """One problem, at most ``limit`` updates; see ``sweep``."""
    diag = np.diagonal(gram)
    curvature = np.maximum(diag[:, None] + diag - 2.0 * gram,
                           CURVATURE_FLOOR * float(diag.max()))
    q = gram * (y[:, None] * y)
    neg_y = -y
    positive = y > 0
    below_cap = alpha < lam
    above_zero = alpha > 0.0
    up = np.where(positive, below_cap, above_zero)
    low = np.where(positive, above_zero, below_cap)
    # The per-update bookkeeping runs on Python scalars, which cost a
    # fraction of numpy scalars at these sizes.
    labels = y.tolist()
    changed = 0
    while changed < limit:
        score = neg_y * grad
        up_score = np.where(up, score, -np.inf)
        i = int(up_score.argmax())
        violation = up_score[i] - np.where(low, score, np.inf)
        # The entry at the argmax is the maximum (a NaN included), read
        # without a reduction.
        if not violation[violation.argmax()] > eps:
            break
        # Second-order gain b^2 / a over the indices that violate against i.
        np.maximum(violation, 0.0, out=violation)
        violation *= violation
        violation /= curvature[i]
        j = int(violation.argmax())
        ai, aj, yi, yj = alpha.item(i), alpha.item(j), labels[i], labels[j]
        ni, nj = _step(ai, aj, yi, yj, grad.item(i), grad.item(j),
                       curvature.item(i, j), lam)
        if ni == ai and nj == aj:
            break
        grad += (ni - ai) * q[i] + (nj - aj) * q[j]
        alpha[i] = ni
        alpha[j] = nj
        if yi > 0:
            up[i], low[i] = ni < lam, ni > 0.0
        else:
            up[i], low[i] = ni > 0.0, ni < lam
        if yj > 0:
            up[j], low[j] = nj < lam, nj > 0.0
        else:
            up[j], low[j] = nj > 0.0, nj < lam
        changed += 1
    return changed


def _moves(ai, aj, yi, yj, gi, gj, a, lam):
    """``_step`` for a batch of working pairs, given as Python lists:
    rows of (new i, new j, signed change of i, signed change of j)."""
    moves = []
    for args in zip(ai, aj, yi, yj, gi, gj, a):
        ni, nj = _step(*args, lam)
        moves += (ni, nj, (ni - args[0]) * args[2], (nj - args[1]) * args[3])
    return np.array(moves).reshape(-1, 4)


def _sweep_lockstep(grams, y, lam, alpha, grad, eps, limit, changed):
    """P problems in lockstep, each as ``_sweep_one`` would run it.

    The gradient step ``(ni - ai) * q[i]``, with ``q[i] = K[i] * y[i] * y``,
    is formed as ``((ni - ai) * y[i]) * K[i]`` times ``y`` after the two
    rows are summed: sign flips are exact, so the step is the same up to
    the sign of a zero, which no comparison or update can see.
    """
    positive = y > 0
    neg_y = -y
    # y * alpha is below up_cap where alpha may move along y, and above
    # low_floor where it may move against y: the sets I_up and I_low.
    up_cap = np.where(positive, lam, 0.0)
    low_floor = np.where(positive, 0.0, -lam)
    matrix = grams.matrix
    # Per running problem: its row in alpha, the indices of its Gram rows
    # (also its columns), its Gram diagonal and its curvature floor.
    live = np.arange(alpha.shape[0])
    rows = grams.rows
    diag = grams.diagonal
    floor = CURVATURE_FLOOR * diag.max(axis=1)
    a, g = alpha, grad
    at = live
    steps = 0
    while live.size and steps < limit:
        if live.size == 1:
            gram = matrix[rows[0][:, None], rows[0]]
            steps += _sweep_one(gram, y, lam, a[0], g[0], eps, limit - steps)
            break
        signed = a * y
        score = neg_y * g
        up_score = np.where(signed < up_cap, score, -np.inf)
        i = up_score.argmax(axis=1)
        violation = up_score.max(axis=1)[:, None] - np.where(signed > low_floor, score, np.inf)
        going = violation.max(axis=1) > eps
        # Second-order gain b^2 / a over the indices that violate against i.
        np.maximum(violation, 0.0, out=violation)
        violation *= violation
        row_i = matrix[rows[at, i][:, None], rows]
        curvature = diag[at, i][:, None] + diag
        curvature -= 2.0 * row_i
        np.maximum(curvature, floor[:, None], out=curvature)
        violation /= curvature
        j = violation.argmax(axis=1)
        ai, aj = a[at, i], a[at, j]
        moves = _moves(ai.tolist(), aj.tolist(), y[i].tolist(), y[j].tolist(),
                       g[at, i].tolist(), g[at, j].tolist(), curvature[at, j].tolist(), lam)
        keep = going & ((moves[:, 0] != ai) | (moves[:, 1] != aj))
        if not keep.all():
            # Problems that stop here keep the state they came in with.
            gone = ~keep
            alpha[live[gone]] = a[gone]
            grad[live[gone]] = g[gone]
            changed[live[gone]] = steps
            live, a, g = live[keep], a[keep], g[keep]
            if not live.size:
                break
            rows, diag, floor = rows[keep], diag[keep], floor[keep]
            i, j, row_i, moves = i[keep], j[keep], row_i[keep], moves[keep]
            at = np.arange(live.size)
        row_j = matrix[rows[at, j][:, None], rows]
        step = moves[:, 2, None] * row_i
        step += moves[:, 3, None] * row_j
        step *= y
        g += step
        a[at, i] = moves[:, 0]
        a[at, j] = moves[:, 1]
        steps += 1
    alpha[live] = a
    grad[live] = g
    changed[live] = steps
    return int(changed.sum())
