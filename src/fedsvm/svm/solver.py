"""Soft-margin linear SVM and its one-vs-one multiclass wrapper.

The binary problem minimizes ``0.5 * ||w||^2 + lam * sum(slack)`` subject
to ``y_i (w.x_i + b) >= 1 - slack_i``. It is solved in the dual by
second-order working-set selection (``backend.sweep``): each step jointly
optimizes the most violating pair of dual coefficients inside the box
[0, lam], preserving the equality constraint ``sum(alpha * y) = 0`` that
the bias term induces. The bias is recovered from free support vectors,
or by the midpoint rule over the bound-constraint bracket when no
coefficient is strictly inside the box.

A dual coefficient counts as zero when it is at most ``ALPHA_TOL`` times
the largest coefficient of its fit, and as at the cap when it is within
that threshold of ``lam``. The threshold is relative because the dual
coefficients scale like 1/||x||^2: samples scaled by s with ``lam``
scaled by 1/s^2 give the same support set, free set and bias at every s.
The support set, the free set of the bias and its bound bracket all use
the one threshold.

Kernel calls run until the relative duality gap drops under ``tol`` or
the call budget is exhausted, each call with a tighter violation
tolerance than the last; a fit that stops early is returned flagged
rather than raised, carrying the gap it reached.

One loop, ``_fit_pairs``, fits every problem: P problems of one size M
that read their Gram entries from one matrix (``backend.PairGrams``),
one kernel call per violation tolerance over the problems still
running, and the post-call arithmetic on stacked arrays. ``fit_binary``
runs it on one problem and its own Gram matrix. A round's K(K-1)/2
one-vs-one problems have one size, M = 2C for C clients, so
``fit_round`` forms the round's one Gram product over its K·C samples,
checks it once and runs every pair on its block of it. ``fit_ovo`` fits
the same problems one ``fit_binary`` call at a time, each on its own
product, which BLAS may round differently from the pair's block of the
round product in the last bit; the two agree to within the fits'
duality gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..numerics import Tensor, as_tensor, check_finite
from . import backend

# Relative to the largest dual coefficient of a fit; see the module
# docstring.
ALPHA_TOL = 1e-8
DEFAULT_GAP_TOL = 1e-6
# Smallest KKT violation a kernel call is asked to reach. Violations are
# in margin units (the margin is 1), so this is about the precision of
# double arithmetic whatever the scale of the samples.
EPS_FLOOR = 1e-15


@dataclass
class SvmProblem:
    samples: Tensor              # M x d
    labels: np.ndarray           # length M, entries +-1
    lam: float                   # slack-penalty coefficient

    def __post_init__(self):
        self.samples = np.ascontiguousarray(as_tensor(self.samples))
        self.labels = np.asarray(self.labels, dtype=np.float64)
        m = self.samples.shape[0]
        if self.samples.ndim != 2 or m < 2:
            raise ValueError("need at least two samples in an M x d matrix")
        positives = np.count_nonzero(self.labels == 1.0)
        if (self.labels.shape != (m,)
                or positives + np.count_nonzero(self.labels == -1.0) != m):
            raise ValueError("labels must be +-1, one per sample")
        if positives in (0, m):
            raise ValueError("both labels must be present")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        check_finite(self.samples, "samples")


@dataclass
class BinarySvmModel:
    normal: Tensor
    bias: float
    alphas: Tensor
    support_indices: tuple[int, ...]
    slacks: Tensor
    primal_value: float
    dual_value: float
    duality_gap: float
    converged: bool
    sweeps: int
    dual_history: tuple[float, ...] = field(default=(), repr=False)


def _pair_gram(x: Tensor, gram: Tensor | None = None) -> Tensor:
    """The Gram matrix of one pair problem's samples, ``x @ x.T`` unless
    ``gram`` gives it, after the checks that the solver needs of them."""
    if (x == x[0]).all():
        raise ValueError("degenerate problem: all samples identical")
    if gram is None:
        # Finite samples above about 1e154 overflow their inner products;
        # the check names the overflow, so numpy need not warn of it.
        with np.errstate(over="ignore"):
            gram = x @ x.T
    check_finite(gram, "Gram matrix (sample inner products overflow)")
    # The kernel divides by curvatures floored at a share of the largest
    # squared norm, so that share must not underflow to 0.
    if not backend.CURVATURE_FLOOR * np.diagonal(gram).max() > 0.0:
        raise ValueError("Gram matrix underflows (sample norms below about 1.6e-156)")
    return gram


def fit_binary(problem: SvmProblem, max_iters: int | None = None,
               tol: float = DEFAULT_GAP_TOL) -> BinarySvmModel:
    """Fit the soft-margin SVM by second-order working-set selection.

    Deterministic: no shrinking, no randomized choices. Each kernel call
    runs until the maximal KKT violation is at most a tolerance that
    starts at ``tol`` and shrinks a hundredfold per call while the duality
    gap stays at or above ``tol``. ``max_iters`` counts kernel calls
    (default ``10 * M``), each of at most M(M-1)/2 pair updates. The fit
    is ``_fit_pairs`` on one problem whose Gram matrix is its own.
    """
    x = problem.samples
    gram = _pair_gram(x)
    grams = backend.PairGrams(gram, np.arange(x.shape[0])[None], np.diagonal(gram)[None])
    _, _, (model,) = _fit_pairs(x, grams, problem.labels, float(problem.lam), max_iters, tol)
    return model


def _fit_pairs(samples: Tensor, grams: backend.PairGrams, y: np.ndarray, lam: float,
               max_iters: int | None, tol: float):
    """Fit the P problems of ``grams`` on the rows of ``samples``: the one
    fit loop of ``fit_binary`` and ``fit_round``.

    Each kernel call runs every problem still at or above ``tol`` at one
    violation tolerance: a lone problem as a one-problem ``sweep`` on its
    own Gram matrix and its rows of the state, several as one stacked
    ``sweep`` on the whole state, which the kernel slices by the running
    set. A problem's call count is the length of its dual history. After
    the call ``_pair_tails`` computes the running problems' normals,
    biases, slacks and objectives. Returns the normals (P x d), the
    support masks (P x M) and the P ``BinarySvmModel`` records.
    """
    count, m = grams.rows.shape
    if max_iters is None:
        max_iters = 10 * m
    alphas = np.zeros((count, m))
    grad = -np.ones((count, m))
    normal = np.zeros((count, samples.shape[1]))
    bias = np.zeros(count)
    slacks = np.ones((count, m))
    primal = np.full(count, lam * m)
    dual = np.zeros(count)
    gap = np.full(count, math.inf)
    alpha_tol = np.zeros(count)
    changed = np.zeros(count, dtype=np.int64)
    history = [[] for _ in range(count)]
    running = np.arange(count)
    rank = samples.shape[1]
    eps = max(tol, EPS_FLOOR)
    calls = 0
    lone = None
    while running.size and calls < max_iters:
        if running.size == 1:
            # Once one problem is left it runs alone to the end of the fit.
            p = running.item()
            if lone is None:
                lone = grams.matrix[grams.rows[p][:, None], grams.rows[p]]
            changed[p] = backend.sweep(lone, y, lam, alphas[p], grad[p], eps, rank)
        else:
            backend.sweep(grams, y, lam, alphas, grad, eps, rank, changed, running)
        calls += 1
        (normal[running], bias[running], slacks[running], primal[running],
         dual[running], gap[running], alpha_tol[running]) = _pair_tails(
            samples, grams.rows[running], alphas[running], y, lam)
        for p, value in zip(running.tolist(), dual[running].tolist()):
            history[p].append(value)
        done = (gap[running] < tol) | ((changed[running] == 0) & (eps == EPS_FLOOR))
        running = running[~done]
        eps = max(0.01 * eps, EPS_FLOOR)

    support = alphas > alpha_tol[:, None]
    indices = support.nonzero()[1].tolist()
    ends = np.cumsum(support.sum(axis=1)).tolist()
    models = [
        BinarySvmModel(
            normal=normal[p],
            bias=b,
            alphas=alphas[p],
            support_indices=tuple(indices[start:end]),
            slacks=slacks[p],
            primal_value=pv,
            dual_value=dv,
            duality_gap=gv,
            converged=bool(gv < tol),
            sweeps=len(history[p]),
            dual_history=tuple(history[p]),
        )
        for p, (start, end, b, pv, dv, gv) in enumerate(zip(
            [0] + ends, ends, bias.tolist(), primal.tolist(), dual.tolist(), gap.tolist()))]
    return normal, support, models


def class_pairs(num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The class pairs (k, k'), k < k', in row-major upper-triangle order,
    as an array of the k and an array of the k'."""
    k = np.arange(num_classes)
    return (k[:, None] < k).nonzero()


@dataclass
class OvoSvm:
    """A round's one-vs-one fit, kept as the round's stacked arrays.

    ``embeddings[k, i]`` is client i's class-k embedding (K x C x d) and
    ``weights[i]`` its weight (C). Pair p of ``pairs()`` is (k, k'),
    k < k', in row-major upper-triangle order, with class k on the
    positive side: ``normals[p]`` is its hyperplane normal (P x d), and
    ``support[p]`` marks its support vectors (P x 2C), class k's clients
    first, then class k''s. ``models[(k, k')]`` is the pair's full fit;
    its ``normal`` is row p of ``normals``.
    """

    embeddings: Tensor
    weights: Tensor
    normals: Tensor
    support: np.ndarray
    models: dict[tuple[int, int], BinarySvmModel]

    @property
    def num_classes(self) -> int:
        return self.embeddings.shape[0]

    def pairs(self):
        return sorted(self.models.keys())

    def class_support(self) -> np.ndarray:
        """K x C mask of the clients whose class-k embedding supports any
        pair problem involving k."""
        classes, clients = self.embeddings.shape[:2]
        first, second = class_pairs(classes)
        # Row (k, k') holds class k's half of the support of pair (k, k').
        halves = np.zeros((classes, classes, clients), dtype=bool)
        halves[first, second] = self.support[:, :clients]
        halves[second, first] = self.support[:, clients:]
        return halves.any(axis=1)


def _round_inputs(class_embeddings, weights) -> tuple[Tensor, Tensor]:
    """The K x C x d embeddings and C client weights of a round, after
    checking that there are K >= 2 classes of d-vectors and every class
    lists the same C >= 1 clients with the same weights."""
    if isinstance(class_embeddings, Mapping):
        classes = sorted(class_embeddings.keys())
        if classes != list(range(len(classes))) or len(classes) < 2:
            raise ValueError("class_embeddings must cover classes 0..K-1, K >= 2")
        entries = [list(class_embeddings[k]) for k in classes]
        for k, listed in enumerate(entries):
            if not listed:
                raise ValueError(f"class {k} has no embeddings")
        clients = len(entries[0])
        for k, listed in enumerate(entries):
            if len(listed) != clients:
                raise ValueError(f"class {k} lists {len(listed)} clients, "
                                 f"class 0 lists {clients}")
        weights = np.array([[float(w) for _, w in listed] for listed in entries])
        for k, row in enumerate(weights):
            if not np.array_equal(row, weights[0]):
                raise ValueError(f"class {k} weighs its clients unlike class 0")
        class_embeddings, weights = [[e for e, _ in listed] for listed in entries], weights[0]
    x = np.array(class_embeddings, dtype=np.float64)
    weights = np.array(weights, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] < 2 or x.shape[1] < 1 or weights.shape != x.shape[1:2]:
        raise ValueError("need K >= 2 classes of C >= 1 embeddings in a K x C x d "
                         "array, and C weights")
    return x, weights


def fit_ovo(class_embeddings: Mapping[int, Sequence[tuple[Tensor, float]]],
            lam: float, max_iters: int | None = None,
            tol: float = DEFAULT_GAP_TOL) -> OvoSvm:
    """Fit all K(K-1)/2 pair problems over per-class embedding lists, one
    ``fit_binary`` call per pair, each on the pair's own Gram product.

    Class k lists (embedding, weight) for each of the round's C clients;
    the position in the list is the client index, so every class lists
    the same clients, in the same order, with the same weights.
    """
    x, weights = _round_inputs(class_embeddings, None)
    clients = x.shape[1]
    labels = np.concatenate((np.ones(clients), -np.ones(clients)))
    first, second = class_pairs(len(x))
    models = {}
    for k, kp in zip(first.tolist(), second.tolist()):
        try:
            problem = SvmProblem(np.concatenate((x[k], x[kp])), labels, lam)
            models[(k, kp)] = fit_binary(problem, max_iters=max_iters, tol=tol)
        except ValueError as err:
            raise ValueError(f"pair ({k}, {kp}): {err}") from err
    normals = np.array([model.normal for model in models.values()])
    support = np.zeros((len(models), 2 * clients), dtype=bool)
    for p, model in enumerate(models.values()):
        model.normal = normals[p]
        support[p, list(model.support_indices)] = True
    return OvoSvm(x, weights, normals, support, models)


def fit_round(class_embeddings, lam: float, max_iters: int | None = None,
              tol: float = DEFAULT_GAP_TOL, weights=None) -> OvoSvm:
    """Fit all K(K-1)/2 pair problems of one round in lockstep.

    Takes what ``fit_ovo`` takes, or the round's K x C x d embedding
    array with the C client ``weights``, and returns an ``OvoSvm`` of the
    same pairs: every pair reads its block of the round's one Gram
    product, and all pairs run through ``fit_binary``'s loop,
    ``_fit_pairs``, together. The round is checked once; a round that
    fails is checked pair by pair in ``fit_ovo``'s order, on the same
    blocks, to raise the error that ``fit_ovo`` names.
    """
    x, weights = _round_inputs(class_embeddings, weights)
    num_classes, clients = x.shape[:2]
    first, second = class_pairs(num_classes)
    pairs = list(zip(first.tolist(), second.tolist()))
    y = np.concatenate((np.ones(clients), -np.ones(clients)))
    grams = _round_grams(x, first, second)
    floors = backend.CURVATURE_FLOOR * grams.diagonal.max(axis=1)
    # Non-finite samples make a non-finite diagonal, so the matrix check
    # covers them.
    if (lam <= 0 or _identical_pair(x) or not np.isfinite(grams.matrix).all()
            or not (floors > 0.0).all()):
        _check_pairs(x, grams, pairs, y, lam)
    normals, support, models = _fit_pairs(x.reshape(num_classes * clients, -1), grams, y,
                                          float(lam), max_iters, tol)
    return OvoSvm(x, weights, normals, support, dict(zip(pairs, models)))


def _identical_pair(x: Tensor) -> bool:
    """Whether some pair of classes lists one vector for every client."""
    same = (x == x[:, :1]).all(axis=(1, 2))
    firsts = x[same, 0]
    return bool((firsts[:, None] == firsts).all(axis=2).sum() > len(firsts))


def _check_pairs(x: Tensor, grams: backend.PairGrams, pairs, labels: np.ndarray,
                 lam: float) -> None:
    """Raise the first pair's error as ``fit_ovo`` would, if one fails,
    with ``_pair_gram``'s checks on the pair's block of ``grams``: the
    entries that are checked are the entries that are fitted."""
    for (k, kp), rows in zip(pairs, grams.rows):
        try:
            samples = SvmProblem(np.concatenate((x[k], x[kp])), labels, lam).samples
            _pair_gram(samples, grams.matrix[rows[:, None], rows])
        except ValueError as err:
            raise ValueError(f"pair ({k}, {kp}): {err}") from err


def _round_grams(x: Tensor, first: np.ndarray, second: np.ndarray) -> backend.PairGrams:
    """The round's one Gram product over its K·C samples, with each pair's
    rows of it: class k's clients, then class k''s, for pair (k, k')."""
    num_classes, clients, dim = x.shape
    own = np.arange(clients)
    rows = np.concatenate((first[:, None] * clients + own,
                           second[:, None] * clients + own), axis=1)
    samples = x.reshape(num_classes * clients, dim)
    # Finite samples above about 1e154 overflow their inner products, and
    # non-finite samples make NaN; _check_pairs names both, so numpy need
    # not warn of them.
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = samples @ samples.T
    return backend.PairGrams(matrix, rows, np.diagonal(matrix)[rows])


def _pair_tails(samples: Tensor, rows: np.ndarray, alphas: Tensor, y: np.ndarray,
                lam: float):
    """The arithmetic after a kernel call, for a stack of problems whose
    samples are the ``rows`` of ``samples``: normal, bias, slacks, primal,
    dual, gap and zero threshold, one row or entry per problem. Stacked
    ``matmul`` makes one BLAS call per problem, so a problem's results do
    not depend on the others in the stack; the samples are gathered in
    stacks of ``backend.STACK_FLOATS``."""
    count, m = alphas.shape
    alpha_tol = ALPHA_TOL * alphas.max(axis=1)
    weights = alphas * y
    normal = np.empty((count, samples.shape[1]))
    margins = np.empty((count, m))
    step = max(1, backend.STACK_FLOATS // (m * samples.shape[1]))
    for start in range(0, count, step):
        part = slice(start, start + step)
        stack = samples[rows[part]]
        normal[part] = (stack.transpose(0, 2, 1) @ weights[part, :, None])[..., 0]
        margins[part] = (stack @ normal[part, :, None])[..., 0]
    bias = _recover_biases(alphas, margins, y, lam, alpha_tol)
    slacks = np.maximum(0.0, 1.0 - y * (margins + bias[:, None]))
    wsq = (normal[:, None, :] @ normal[:, :, None])[:, 0, 0]
    primal = 0.5 * wsq + lam * slacks.sum(axis=1)
    dual = alphas.sum(axis=1) - 0.5 * wsq
    gap = (primal - dual) / np.maximum(1.0, np.abs(primal))
    return normal, bias, slacks, primal, dual, gap, alpha_tol


def _recover_biases(alphas: Tensor, margins_wo_bias: Tensor, y: Tensor, lam: float,
                    alpha_tol: Tensor) -> Tensor:
    """Each row's bias from its free support vectors (the mean of their
    residuals), else the midpoint of its KKT bracket, or the one bound
    that the bracket has; ``alpha_tol`` holds each row's zero threshold."""
    threshold = alpha_tol[:, None]
    free = (alphas > threshold) & (alphas < lam - threshold)
    residual = y - margins_wo_bias
    # A bound vector at zero with y > 0, or at the cap with y < 0, bounds
    # the bias from below; every other one bounds it from above.
    below = (alphas <= threshold) == (y > 0)
    lower = np.where(below, residual, -np.inf).max(axis=1)
    upper = np.where(below, np.inf, residual).min(axis=1)
    has_lower = below.any(axis=1)
    bias = np.where(has_lower & ~below.all(axis=1), (lower + upper) / 2.0,
                    np.where(has_lower, lower, upper))
    count = free.sum(axis=1)
    found = residual[free]
    start = np.cumsum(count) - count
    # A row's free residuals are summed as one contiguous row of their
    # own, so no other row changes its sum: rows of one count together.
    for n in sorted(set(count.tolist()) - {0}):
        at = (count == n).nonzero()[0]
        bias[at] = found[start[at][:, None] + np.arange(n)].sum(axis=1) / n
    return bias


def format_diagnostics(svm: OvoSvm) -> str:
    """Per-pair text table: support-vector count, duality gap, normal length."""
    lines = ["pair        #sv   duality_gap    |normal|"]
    for (k, kp) in svm.pairs():
        model = svm.models[(k, kp)]
        lines.append(
            f"({k:>3},{kp:>3})  {len(model.support_indices):>4}"
            f"   {model.duality_gap:>11.3e}  {np.linalg.norm(model.normal):>10.4f}")
    return "\n".join(lines)
