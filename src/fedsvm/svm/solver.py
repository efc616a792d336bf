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

A round's K(K-1)/2 one-vs-one problems have one size, M = 2C for C
clients, so ``fit_round`` fits them together: one check of the round,
the Gram entries of every pair in one matrix, one lockstep kernel call
per violation tolerance over the pairs still running, and the
post-call arithmetic on stacked arrays. ``fit_ovo`` fits the same
problems one ``fit_binary`` call at a time; it is the reference that
``fit_round`` reproduces bit for bit.
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
# fit_round forms its per-pair products in stacks of at most this many
# floats (128 KiB), or of one pair if that is larger, so no stack grows
# with the number of pairs.
STACK_FLOATS = 1 << 14


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


def _recover_bias(alphas: Tensor, margins_wo_bias: Tensor, y: Tensor,
                  lam: float, alpha_tol: float) -> float:
    """Bias from free support vectors, else midpoint of the KKT bracket;
    ``alpha_tol`` is the fit's zero threshold for the coefficients."""
    free = (alphas > alpha_tol) & (alphas < lam - alpha_tol)
    residual = y - margins_wo_bias
    if free.any():
        residual = residual[free]
        # The sum over the count is what np.mean computes, bit for bit.
        return float(residual.sum() / residual.size)
    # A bound vector at zero with y > 0, or at the cap with y < 0, bounds
    # the bias from below; every other one bounds it from above.
    below = (alphas <= alpha_tol) == (y > 0)
    lower = residual[below]
    upper = residual[~below]
    if lower.size and upper.size:
        return float((lower.max() + upper.min()) / 2.0)
    if lower.size:
        return float(lower.max())
    if upper.size:
        return float(upper.min())
    return 0.0


def _pair_gram(x: Tensor) -> Tensor:
    """The Gram matrix of one pair problem's samples, after the checks
    that the solver needs of them."""
    if (x == x[0]).all():
        raise ValueError("degenerate problem: all samples identical")
    # Finite samples above about 1e154 overflow their inner products.
    gram = check_finite(x @ x.T, "Gram matrix (sample inner products overflow)")
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
    (default ``10 * M``), each of at most M(M-1)/2 pair updates.
    """
    x = problem.samples
    y = problem.labels
    lam = float(problem.lam)
    m = x.shape[0]
    gram = _pair_gram(x)
    if max_iters is None:
        max_iters = 10 * m

    alphas = np.zeros(m)
    grad = -np.ones(m)
    eps = max(tol, EPS_FLOOR)

    dual_history = []
    sweeps = 0
    gap = math.inf
    normal = np.zeros(x.shape[1])
    bias = 0.0
    slacks = np.ones(m)
    primal = lam * m
    dual = 0.0
    alpha_tol = 0.0
    while sweeps < max_iters:
        changed = backend.sweep(gram, y, lam, alphas, grad, eps)
        sweeps += 1
        alpha_tol = ALPHA_TOL * float(alphas.max())
        normal = x.T @ (alphas * y)
        margins_wo_bias = x @ normal
        bias = _recover_bias(alphas, margins_wo_bias, y, lam, alpha_tol)
        slacks = np.maximum(0.0, 1.0 - y * (margins_wo_bias + bias))
        wsq = float(normal @ normal)
        primal = 0.5 * wsq + lam * float(slacks.sum())
        dual = float(alphas.sum()) - 0.5 * wsq
        gap = (primal - dual) / max(1.0, abs(primal))
        dual_history.append(dual)
        if gap < tol or (changed == 0 and eps == EPS_FLOOR):
            break
        eps = max(0.01 * eps, EPS_FLOOR)

    support = tuple((alphas > alpha_tol).nonzero()[0].tolist())
    return BinarySvmModel(
        normal=normal,
        bias=bias,
        alphas=alphas,
        support_indices=support,
        slacks=slacks,
        primal_value=primal,
        dual_value=dual,
        duality_gap=gap,
        converged=bool(gap < tol),
        sweeps=sweeps,
        dual_history=tuple(dual_history),
    )


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
    checking that there are K >= 2 classes and every class lists the same
    C >= 1 clients with the same weights."""
    if not isinstance(class_embeddings, Mapping):
        x = np.array(class_embeddings, dtype=np.float64)
        weights = np.array(weights, dtype=np.float64)
        if x.ndim != 3 or x.shape[0] < 2 or x.shape[1] < 1 or weights.shape != x.shape[1:2]:
            raise ValueError("need K >= 2 classes of C >= 1 embeddings in a K x C x d "
                             "array, and C weights")
        return x, weights
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
    x = np.array([[e for e, _ in listed] for listed in entries], dtype=np.float64)
    return x, weights[0]


def fit_ovo(class_embeddings: Mapping[int, Sequence[tuple[Tensor, float]]],
            lam: float, max_iters: int | None = None,
            tol: float = DEFAULT_GAP_TOL) -> OvoSvm:
    """Fit all K(K-1)/2 pair problems over per-class embedding lists, one
    ``fit_binary`` call per pair: the per-pair reference for ``fit_round``.

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
    array with the C client ``weights``, and returns what ``fit_ovo``
    returns, bit for bit: every pair reads the Gram entries its own
    ``fit_binary`` computes, the kernel updates each pair as a call of its
    own would, and the per-call tail is ``fit_binary``'s arithmetic on
    stacked arrays. The round is checked once; a round that fails is
    checked pair by pair in ``fit_ovo``'s order, to raise the same
    pair-named error. Each kernel call runs every pair still above
    ``tol`` at one violation tolerance.
    """
    x, weights = _round_inputs(class_embeddings, weights)
    num_classes, clients = x.shape[:2]
    first, second = class_pairs(num_classes)
    pairs = list(zip(first.tolist(), second.tolist()))
    y = np.concatenate((np.ones(clients), -np.ones(clients)))
    if x.ndim != 3 or lam <= 0 or not np.isfinite(x).all() or _identical_pair(x):
        _check_pairs(x, pairs, y, lam)
    grams = _round_grams(x, first, second)
    floors = backend.CURVATURE_FLOOR * backend.diagonals(grams, y).max(axis=1)
    if not (np.isfinite(grams.matrix).all() and (floors > 0.0).all()):
        _check_pairs(x, pairs, y, lam)

    lam = float(lam)
    m = 2 * clients
    count = len(pairs)
    samples = x.reshape(num_classes * clients, -1)
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
    sweeps = np.zeros(count, dtype=np.int64)
    history = [[] for _ in pairs]
    running = np.arange(count)
    eps = max(tol, EPS_FLOOR)
    calls = 0
    while running.size and calls < max_iters:
        run_alphas, run_grad = alphas[running], grad[running]
        changed = np.zeros(running.size, dtype=np.int64)
        backend.sweep(grams._replace(columns=grams.columns[running]), y, lam,
                      run_alphas, run_grad, eps, changed)
        calls += 1
        alphas[running] = run_alphas
        grad[running] = run_grad
        sweeps[running] = calls
        (normal[running], bias[running], slacks[running], primal[running],
         dual[running], gap[running], alpha_tol[running]) = _pair_tails(
            samples, grams.columns[running, 0], run_alphas, y, lam)
        for p, value in zip(running.tolist(), dual[running].tolist()):
            history[p].append(value)
        done = (gap[running] < tol) | ((changed == 0) & (eps == EPS_FLOOR))
        running = running[~done]
        eps = max(0.01 * eps, EPS_FLOOR)

    support = alphas > alpha_tol[:, None]
    indices = support.nonzero()[1].tolist()
    ends = np.cumsum(support.sum(axis=1)).tolist()
    models = {}
    for p, (pair, start, end, b, pv, dv, gv, n) in enumerate(zip(
            pairs, [0] + ends, ends, bias.tolist(), primal.tolist(), dual.tolist(),
            gap.tolist(), sweeps.tolist())):
        models[pair] = BinarySvmModel(
            normal=normal[p],
            bias=b,
            alphas=alphas[p],
            support_indices=tuple(indices[start:end]),
            slacks=slacks[p],
            primal_value=pv,
            dual_value=dv,
            duality_gap=gv,
            converged=bool(gv < tol),
            sweeps=n,
            dual_history=tuple(history[p]),
        )
    return OvoSvm(x, weights, normal, support, models)


def _identical_pair(x: Tensor) -> bool:
    """Whether some pair of classes lists one vector for every client."""
    same = (x == x[:, :1]).all(axis=(1, 2))
    firsts = x[same, 0]
    return bool((firsts[:, None] == firsts).all(axis=2).sum() > len(firsts))


def _check_pairs(x: Tensor, pairs, labels: np.ndarray, lam: float) -> None:
    """Raise the first pair's error as ``fit_ovo`` would, if one fails."""
    for k, kp in pairs:
        try:
            _pair_gram(SvmProblem(np.concatenate((x[k], x[kp])), labels, lam).samples)
        except ValueError as err:
            raise ValueError(f"pair ({k}, {kp}): {err}") from err


def _round_grams(x: Tensor, first: np.ndarray, second: np.ndarray) -> backend.PairGrams:
    """Every pair's Gram matrix, each entry stored once per round.

    BLAS rounds an entry of ``x @ x.T`` by where it sits in the product,
    so a block of one K·C-sample product need not equal the pair's own.
    The entries are therefore taken from products laid out as each pair's
    samples are (class k's clients, then class k''s), formed in stacks of
    pairs. The matrix has K·C rows and (K+1)·C columns: block (k, k')
    holds class k's products with class k', from pair (k, k') or (k', k);
    the diagonal block k holds class k's own products as a leading class
    (from pair (k, k+1)), and the last block column holds them as a
    trailing class (from pair (0, k)). The negative half of every pair
    reads its own class's columns from that last block.
    """
    num_classes, clients, dim = x.shape
    m = 2 * clients
    own = np.arange(clients)
    rows = np.concatenate((first[:, None] * clients + own,
                           second[:, None] * clients + own), axis=1)
    columns = np.stack((rows, rows), axis=1)
    columns[:, 1, clients:] = num_classes * clients + own
    blocks = np.zeros((num_classes, clients, num_classes + 1, clients))
    samples = x.reshape(num_classes * clients, dim)
    step = max(1, STACK_FLOATS // (m * max(m, dim)))
    for start in range(0, len(first), step):
        k, kp = first[start:start + step], second[start:start + step]
        stack = samples[rows[start:start + step]]
        gram = stack @ stack.transpose(0, 2, 1)
        blocks[k, :, kp] = gram[:, :clients, clients:]
        blocks[kp, :, k] = gram[:, clients:, :clients]
        lead = kp == k + 1
        blocks[k[lead], :, k[lead]] = gram[lead, :clients, :clients]
        trail = k == 0
        blocks[kp[trail], :, num_classes] = gram[trail, clients:, clients:]
    return backend.PairGrams(blocks.reshape(num_classes * clients, -1), columns)


def _pair_tails(samples: Tensor, rows: np.ndarray, alphas: Tensor, y: np.ndarray,
                lam: float):
    """``fit_binary``'s arithmetic after a kernel call, for a stack of
    pairs: normal, bias, slacks, primal, dual, gap and zero threshold, one
    row or entry per pair. Stacked ``matmul`` makes the same BLAS call per
    pair that ``fit_binary``'s products make."""
    count, m = alphas.shape
    alpha_tol = ALPHA_TOL * alphas.max(axis=1)
    weights = alphas * y
    normal = np.empty((count, samples.shape[1]))
    margins = np.empty((count, m))
    step = max(1, STACK_FLOATS // (m * samples.shape[1]))
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
    """``_recover_bias`` for every row of a stack, bit for bit."""
    threshold = alpha_tol[:, None]
    free = (alphas > threshold) & (alphas < lam - threshold)
    residual = y - margins_wo_bias
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
    # own, as residual[free].sum() sums them: rows of one count together.
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
