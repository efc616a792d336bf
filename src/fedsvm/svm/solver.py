"""Soft-margin linear SVM, one-vs-one multiclass wrapper, and the
projected logit-gap diagnostic.

The binary problem minimizes ``0.5 * ||w||^2 + lam * sum(slack)`` subject
to ``y_i (w.x_i + b) >= 1 - slack_i``. It is solved in the dual by
second-order working-set selection (``backend.sweep``): each step jointly
optimizes the most violating pair of dual coefficients inside the box
[0, lam], preserving the equality constraint ``sum(alpha * y) = 0`` that
the bias term induces. The bias is recovered from free support vectors,
or by the midpoint rule over the bound-constraint bracket when no
coefficient is strictly inside the box.

Kernel calls run until the relative duality gap drops under ``tol`` or
the call budget is exhausted, each call with a tighter violation
tolerance than the last; a fit that stops early is returned flagged
rather than raised, carrying the gap it reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..numerics import Tensor, as_tensor, check_finite, weighted_mean
from . import backend

ALPHA_TOL = 1e-8
SLACK_TOL = 1e-6
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
        if self.labels.shape != (m,) or not np.all(np.abs(self.labels) == 1.0):
            raise ValueError("labels must be +-1, one per sample")
        if np.all(self.labels > 0) or np.all(self.labels < 0):
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
                  lam: float) -> float:
    """Bias from free support vectors, else midpoint of the KKT bracket."""
    free = (alphas > ALPHA_TOL) & (alphas < lam - ALPHA_TOL)
    residual = y - margins_wo_bias
    if np.any(free):
        return float(np.mean(residual[free]))
    at_zero = alphas <= ALPHA_TOL
    at_cap = ~at_zero
    lower = residual[(at_zero & (y > 0)) | (at_cap & (y < 0))]
    upper = residual[(at_zero & (y < 0)) | (at_cap & (y > 0))]
    if lower.size and upper.size:
        return float((np.max(lower) + np.min(upper)) / 2.0)
    if lower.size:
        return float(np.max(lower))
    if upper.size:
        return float(np.min(upper))
    return 0.0


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
    if np.all(np.all(x == x[0], axis=1)):
        raise ValueError("degenerate problem: all samples identical")
    if max_iters is None:
        max_iters = 10 * m

    gram = x @ x.T
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
    while sweeps < max_iters:
        changed = backend.sweep(gram, y, lam, alphas, grad, eps)
        sweeps += 1
        normal = x.T @ (alphas * y)
        margins_wo_bias = x @ normal
        bias = _recover_bias(alphas, margins_wo_bias, y, lam)
        slacks = np.maximum(0.0, 1.0 - y * (margins_wo_bias + bias))
        wsq = float(normal @ normal)
        primal = 0.5 * wsq + lam * float(np.sum(slacks))
        dual = float(np.sum(alphas)) - 0.5 * wsq
        gap = (primal - dual) / max(1.0, abs(primal))
        dual_history.append(dual)
        if gap < tol or (changed == 0 and eps == EPS_FLOOR):
            break
        eps = max(0.01 * eps, EPS_FLOOR)

    support = tuple(int(i) for i in np.flatnonzero(alphas > ALPHA_TOL))
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


@dataclass
class OvoSvm:
    """One binary model per unordered class pair, k < k', with class k on
    the positive side. ``class_samples`` keeps the inputs: for each class,
    the (client index, embedding, weight) triples in client order."""

    num_classes: int
    models: dict[tuple[int, int], BinarySvmModel]
    class_samples: dict[int, list[tuple[int, Tensor, float]]]

    def pairs(self):
        return sorted(self.models.keys())


def fit_ovo(class_embeddings: Mapping[int, Sequence[tuple[Tensor, float]]],
            lam: float, max_iters: int | None = None,
            tol: float = DEFAULT_GAP_TOL) -> OvoSvm:
    """Fit all K(K-1)/2 pair problems over per-class embedding lists.

    The position of an embedding within its class list is its client
    index; every class list must enumerate clients in the same order for
    cross-pair de-duplication to be meaningful.
    """
    classes = sorted(class_embeddings.keys())
    if classes != list(range(len(classes))) or len(classes) < 2:
        raise ValueError("class_embeddings must cover classes 0..K-1, K >= 2")
    class_samples = {}
    for k in classes:
        entries = list(class_embeddings[k])
        if not entries:
            raise ValueError(f"class {k} has no embeddings")
        class_samples[k] = [(i, as_tensor(e), float(w))
                            for i, (e, w) in enumerate(entries)]

    blocks = [np.array([e for _, e, _ in class_samples[k]]) for k in classes]
    models = {}
    for k in classes:
        for kp in classes[k + 1:]:
            samples = np.concatenate((blocks[k], blocks[kp]))
            labels = np.concatenate((np.ones(len(blocks[k])), -np.ones(len(blocks[kp]))))
            try:
                problem = SvmProblem(samples, labels, lam)
                models[(k, kp)] = fit_binary(problem, max_iters=max_iters, tol=tol)
            except ValueError as err:
                raise ValueError(f"pair ({k}, {kp}): {err}") from err
    return OvoSvm(len(classes), models, class_samples)


def support_vectors_of_class(svm: OvoSvm, k: int) -> list[tuple[int, Tensor, float]]:
    """Clients whose class-k embedding supports any pair problem involving
    k, de-duplicated by client index, in client-index order."""
    if k < 0 or k >= svm.num_classes:
        raise ValueError(f"class {k} out of range")
    entries = svm.class_samples[k]
    seen = set()
    for kp in range(svm.num_classes):
        if kp == k:
            continue
        a, b = (k, kp) if k < kp else (kp, k)
        model = svm.models[(a, b)]
        n_pos = len(svm.class_samples[a])
        offset = 0 if k == a else n_pos
        for local in range(len(entries)):
            if model.alphas[offset + local] > ALPHA_TOL:
                seen.add(local)
    return [entries[i] for i in sorted(seen)]


def hyperplane(svm: OvoSvm, k: int, kp: int) -> tuple[Tensor, float]:
    """Separating hyperplane between two classes, oriented so the lower
    class index sits on the positive side; hence
    ``hyperplane(k, kp) == -hyperplane(kp, k)``."""
    if k == kp:
        raise ValueError("hyperplane requires two distinct classes")
    a, b = (k, kp) if k < kp else (kp, k)
    model = svm.models[(a, b)]
    if k == a:
        return model.normal, model.bias
    return -model.normal, -model.bias


def sv_counts(svm: OvoSvm) -> list[int]:
    return [len(support_vectors_of_class(svm, k)) for k in range(svm.num_classes)]


def format_diagnostics(svm: OvoSvm) -> str:
    """Per-pair text table: support-vector count, duality gap, normal length."""
    lines = ["pair        #sv   duality_gap    |normal|"]
    for (k, kp) in svm.pairs():
        model = svm.models[(k, kp)]
        lines.append(
            f"({k:>3},{kp:>3})  {len(model.support_indices):>4}"
            f"   {model.duality_gap:>11.3e}  {np.linalg.norm(model.normal):>10.4f}")
    return "\n".join(lines)


def verify_logit_bound(svm: BinarySvmModel, pos_embeddings, neg_embeddings,
                       weights, test_embedding: Tensor,
                       tolerance: float = 1e-9) -> tuple[float, float, bool]:
    """Check that the projected logit gap of a well-classified test point
    is at least its closed-form lower bound.

    ``svm`` must be the model fitted on exactly ``pos_embeddings`` (label
    +1) and ``neg_embeddings`` (label -1). The bound's simplifying
    assumptions are enforced, never silently ignored: each class
    contributes the same number of embeddings, every embedding is a
    support vector, all dataset weights are equal, every slack is at most
    1, and the test point satisfies ``h.x >= 1 - slack*`` with
    ``slack* <= 1``.
    """
    pos = np.atleast_2d(as_tensor(pos_embeddings))
    neg = np.atleast_2d(as_tensor(neg_embeddings))
    w = np.asarray(weights, dtype=np.float64)
    x_star = as_tensor(test_embedding)
    n = pos.shape[0]
    if neg.shape[0] != n:
        raise ValueError("assumption violated: unequal embedding counts per class")
    if w.shape != (2 * n,):
        raise ValueError("weights must cover all 2N embeddings")
    if not np.all(w == w[0]):
        raise ValueError("assumption violated: dataset sizes are not all equal")
    if len(svm.support_indices) != 2 * n:
        raise ValueError("assumption violated: not every embedding is a support vector")

    h = svm.normal
    h_sq = float(h @ h)
    if h_sq <= 0.0:
        raise ValueError("zero-norm hyperplane normal")
    slack_pos = np.maximum(0.0, 1.0 - (pos @ h + svm.bias))
    slack_neg = np.maximum(0.0, 1.0 + (neg @ h + svm.bias))
    if np.any(slack_pos > 1.0 + 1e-12) or np.any(slack_neg > 1.0 + 1e-12):
        raise ValueError("assumption violated: some slack exceeds 1")
    proj_star = float(h @ x_star)
    if proj_star < 0.0:
        raise ValueError("assumption violated: test embedding is not a good sample")
    slack_star = max(0.0, 1.0 - proj_star)

    agg_pos = weighted_mean(list(pos), list(w[:n]))
    agg_neg = weighted_mean(list(neg), list(w[n:]))
    lhs = float((agg_pos - agg_neg) @ h) * proj_star / h_sq
    total_slack = float(np.sum(slack_pos) + np.sum(slack_neg))
    rhs = (2.0 * n - total_slack) * (1.0 - slack_star) / (n * h_sq)
    return lhs, rhs, bool(lhs >= rhs - tolerance)
