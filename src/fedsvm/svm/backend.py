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
update. Both loops run one iteration: the working sets are read from
``alpha * y`` and the gradient takes the same step, so a problem handed
from one to the other mid-call continues bit for bit by construction;
they differ only in that the one-problem loop reads its own M x M block.

SMO can zig-zag for many updates on a support set that is already final.
So a problem whose update count within one call reaches 16, 32, 64, ...
also takes an exact step to the optimum of its current face
(``_face_step``; Scheinberg, JMLR 2006), and stops at the next check.
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

# Stacks of per-problem Gram blocks are gathered at most this many floats
# (128 KiB) at a time, or one problem's if that is larger, so no stack
# grows with the number of problems.
STACK_FLOATS = 1 << 14

# A problem's first face step comes after this many updates in one call;
# the next ones after twice as many as the last.
FACE_STEP_FIRST = 16


class PairGrams(NamedTuple):
    """The Gram matrices of P problems of M samples, read from one matrix.

    ``rows[p]`` holds the rows of ``matrix`` that stand for problem p's
    samples, and the same indices are its columns: entry (a, b) of
    problem p's Gram matrix is ``matrix[rows[p, a], rows[p, b]]``,
    whatever the labels. ``diagonal[p]`` is problem p's Gram diagonal,
    gathered once per fit; the kernel slices it by the running set.
    """

    matrix: np.ndarray           # N x N
    rows: np.ndarray             # P x M, intp
    diagonal: np.ndarray         # P x M


def sweep(gram, y, lam, alpha, grad, eps, rank, changed=None, running=None):
    """Apply WSS2 pair updates until the maximal violation
    ``m(alpha) - M(alpha)`` is at most ``eps``, no selected pair moves,
    or M(M-1)/2 updates have been applied; mutates ``alpha`` and ``grad``
    in place.

    gram: M x M Gram matrix, K = X X^T; a ``PairGrams`` when ``alpha``
        has a leading problem axis.
    y: labels in {-1, +1} as float64, length M, shared by every problem.
    alpha: dual coefficients, in [0, lam]; M, or P x M for the P problems
        of a ``PairGrams``.
    grad: gradient of the dual objective in minimization form,
        ``y * (K @ (alpha * y)) - 1``, maintained incrementally; shaped
        like ``alpha``.
    rank: an upper bound on the rank of every Gram matrix, the samples'
        dimension d; see ``_face_step``.
    changed: for P problems, an int array of length P that receives the
        number of updates of each running problem.
    running: for P problems, the indices of those to run in lockstep.
        The kernel gathers their rows of ``alpha`` and ``grad`` and writes
        them back itself; the other rows stay as they are.
    Returns the number of pair updates applied, over the running problems.

    A lone problem comes as a 1-D ``alpha`` with its own M x M ``gram``,
    not as a running set of one: perfbench's ``_observe_sweep`` reads M
    as ``len(alpha)``, and ``perfbench/tests/test_tracer.py`` pins
    ``pair_visits == sweeps * M(M-1)/2`` on ``fit_binary``'s calls.

    A problem whose update count in the call reaches 16, 32, 64, ...
    takes an exact step on its current face, ``_face_step``, after that
    update: where SMO zig-zags on a face that is already final, the step
    ends the call at the next violation check.
    """
    m = y.shape[0]
    limit = m * (m - 1) // 2
    if alpha.ndim == 1:
        return _sweep_one(gram, y, lam, alpha, grad, eps, limit, rank)
    return _sweep_lockstep(gram, y, lam, alpha, grad, eps, limit, rank, changed, running)


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


def _sweep_one(gram, y, lam, alpha, grad, eps, limit, rank, changed=0):
    """One problem, from ``changed`` updates until its count reaches
    ``limit``; returns the count. See ``sweep``."""
    diag = np.diagonal(gram)
    curvature = np.maximum(diag[:, None] + diag - 2.0 * gram,
                           CURVATURE_FLOOR * float(diag.max()))
    up_cap, low_floor = _caps(y, lam)
    neg_y = -y
    # The per-update bookkeeping runs on Python scalars, which cost a
    # fraction of numpy scalars at these sizes.
    labels = y.tolist()
    while changed < limit:
        signed = alpha * y
        score = neg_y * grad
        up_score = np.where(signed < up_cap, score, -np.inf)
        i = int(up_score.argmax())
        violation = up_score[i] - np.where(signed > low_floor, score, np.inf)
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
        step = ((ni - ai) * yi) * gram[i]
        step += ((nj - aj) * yj) * gram[j]
        step *= y
        grad += step
        alpha[i] = ni
        alpha[j] = nj
        changed += 1
        if _face_step_due(changed):
            _face_step(gram, np.arange(y.size)[None], y, lam, alpha[None], grad[None], rank)
    return changed


def _caps(y, lam):
    """The bounds on ``alpha * y`` that give the sets I_up and I_low: a
    coefficient may move along y where ``alpha * y`` is below the first,
    and against y where it is above the second."""
    positive = y > 0
    return np.where(positive, lam, 0.0), np.where(positive, 0.0, -lam)


def _face_step_due(changed):
    """Whether a problem takes a face step after its ``changed``-th
    update of a call: after update 16, 32, 64, ..."""
    return changed >= FACE_STEP_FIRST and not changed & (changed - 1)


def _face_step(matrix, rows, y, lam, alpha, grad, rank):
    """Move each of P problems to the minimizer of its dual on its
    current face, where that minimizer lies strictly inside the box.

    Every coefficient at exactly 0 or exactly ``lam`` is held, and the
    stationarity system over the free set F,
    ``[Q_FF y_F; y_F^T 0] [d; nu] = [-grad_F; 0]`` with
    ``Q = y_i y_j K_ij``, gives the step d that keeps ``sum(alpha * y)``
    (Scheinberg, JMLR 2006; Vishwanathan, Smola & Murty, ICML 2003). A
    problem takes the step only if every free coefficient stays finite
    and strictly inside (0, lam) and its dual does not fall; its
    gradient is then recomputed as ``y * (K @ (alpha * y)) - 1`` from
    its Gram block. A face of one free coefficient cannot move, and one
    of more than ``rank + 1`` is singular (the Gram matrix has rank at
    most ``rank``), so neither is solved; a face that is singular all
    the same, as with repeated samples, is skipped.

    ``matrix`` and ``rows`` give the Gram blocks as ``PairGrams`` does;
    ``alpha`` and ``grad`` are P x M and are written in place. Faces of
    one size are solved as one stack and every solve and product runs
    per problem, so a problem's step does not depend on the others.
    Returns the P-mask of the problems that took the step.
    """
    free = (alpha > 0.0) & (alpha < lam)
    sizes = free.sum(axis=1)
    stepped = np.zeros(alpha.shape[0], dtype=bool)
    for n in sorted(set(sizes.tolist()) & set(range(2, rank + 2))):
        at = (sizes == n).nonzero()[0]
        face = free[at].nonzero()[1].reshape(-1, n)
        signs = y[face]
        picked = rows[at[:, None], face]
        system = np.zeros((at.size, n + 1, n + 1))
        system[:, :n, :n] = matrix[picked[:, :, None], picked[:, None, :]]
        system[:, :n, :n] *= signs[:, :, None] * signs[:, None, :]
        system[:, :n, n] = signs
        system[:, n, :n] = signs
        rhs = np.zeros((at.size, n + 1, 1))
        rhs[:, :n, 0] = -grad[at[:, None], face]
        moved = alpha[at[:, None], face] + _solve(system, rhs)[:, :n, 0]
        # A NaN fails both comparisons.
        inside = (moved > 0.0).all(axis=1) & (moved < lam).all(axis=1)
        at, face, moved = at[inside], face[inside], moved[inside]
        trial = alpha[at]
        trial[np.arange(at.size)[:, None], face] = moved
        trial_grad = np.empty_like(trial)
        chunk = max(1, STACK_FLOATS // rows.shape[1] ** 2)
        for start in range(0, at.size, chunk):
            part = slice(start, start + chunk)
            picked = rows[at[part]]
            blocks = matrix[picked[:, :, None], picked[:, None, :]]
            trial_grad[part] = (blocks @ (trial[part] * y)[:, :, None])[..., 0]
        trial_grad *= y
        trial_grad -= 1.0
        # The dual's minimization form is alpha . (grad - 1) / 2.
        better = ((trial * (trial_grad - 1.0)).sum(axis=1)
                  <= (alpha[at] * (grad[at] - 1.0)).sum(axis=1))
        alpha[at[better]] = trial[better]
        grad[at[better]] = trial_grad[better]
        stepped[at[better]] = True
    return stepped


def _solve(system, rhs):
    """``np.linalg.solve`` over a stack, with NaN for the systems that
    are singular: numpy raises for the whole stack if one is."""
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        solved = np.full(rhs.shape, np.nan)
        for s in range(len(system)):
            try:
                solved[s:s + 1] = np.linalg.solve(system[s:s + 1], rhs[s:s + 1])
            except np.linalg.LinAlgError:
                pass
        return solved


def _moves(ai, aj, yi, yj, gi, gj, a, lam):
    """``_step`` for a batch of working pairs, given as Python lists:
    rows of (new i, new j, signed change of i, signed change of j)."""
    moves = []
    for args in zip(ai, aj, yi, yj, gi, gj, a):
        ni, nj = _step(*args, lam)
        moves += (ni, nj, (ni - args[0]) * args[2], (nj - args[1]) * args[3])
    return np.array(moves).reshape(-1, 4)


def _sweep_lockstep(grams, y, lam, alpha, grad, eps, limit, rank, changed, running):
    """The ``running`` problems in lockstep, each through the iteration
    of ``_sweep_one``, on Gram rows gathered from the shared matrix.
    Every running problem has made the same number of updates, so they
    take their face steps together.
    """
    up_cap, low_floor = _caps(y, lam)
    neg_y = -y
    matrix = grams.matrix
    # Per running problem: its row in alpha, the indices of its Gram rows
    # (also its columns), its Gram diagonal and its curvature floor.
    live, rows, diag = running, grams.rows[running], grams.diagonal[running]
    floor = CURVATURE_FLOOR * diag.max(axis=1)
    a, g = alpha[live], grad[live]
    steps = 0
    while steps < limit:
        signed = a * y
        score = neg_y * g
        up_score = np.where(signed < up_cap, score, -np.inf)
        i = up_score.argmax(axis=1)
        violation = up_score.max(axis=1)[:, None] - np.where(signed > low_floor, score, np.inf)
        going = violation.max(axis=1) > eps
        if not going.all():
            # Problems that stop here keep the state they came in with.
            _stop(alpha, grad, changed, live, a, g, ~going, steps)
            live, a, g, rows, diag, floor, i, violation = (
                x[going] for x in (live, a, g, rows, diag, floor, i, violation))
        if live.size < 2:
            if live.size:
                gram = matrix[rows[0][:, None], rows[0]]
                steps = _sweep_one(gram, y, lam, a[0], g[0], eps, limit, rank, steps)
            break
        at = np.arange(live.size)
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
        moving = (moves[:, 0] != ai) | (moves[:, 1] != aj)
        if not moving.all():
            _stop(alpha, grad, changed, live, a, g, ~moving, steps)
            live, a, g, rows, diag, floor, i, j, row_i, moves = (
                x[moving] for x in (live, a, g, rows, diag, floor, i, j, row_i, moves))
            if not live.size:
                break
            at = np.arange(live.size)
        row_j = matrix[rows[at, j][:, None], rows]
        step = moves[:, 2, None] * row_i
        step += moves[:, 3, None] * row_j
        step *= y
        g += step
        a[at, i] = moves[:, 0]
        a[at, j] = moves[:, 1]
        steps += 1
        if _face_step_due(steps):
            _face_step(matrix, rows, y, lam, a, g, rank)
    _stop(alpha, grad, changed, live, a, g, slice(None), steps)
    return int(changed[running].sum())


def _stop(alpha, grad, changed, live, a, g, gone, steps):
    """Write the state of the running problems picked by ``gone`` back to
    their rows of ``alpha`` and ``grad``, with ``steps`` updates."""
    alpha[live[gone]] = a[gone]
    grad[live[gone]] = g[gone]
    changed[live[gone]] = steps
