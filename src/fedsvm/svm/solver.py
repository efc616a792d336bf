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
    if (x == x[0]).all():
        raise ValueError("degenerate problem: all samples identical")
    if max_iters is None:
        max_iters = 10 * m

    # Finite samples above about 1e154 overflow their inner products.
    gram = check_finite(x @ x.T, "Gram matrix (sample inner products overflow)")
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
    # Label vectors by (positive, negative) count: one per round when every
    # class lists the same clients.
    pair_labels = {}
    models = {}
    for k in classes:
        for kp in classes[k + 1:]:
            samples = np.concatenate((blocks[k], blocks[kp]))
            counts = (len(blocks[k]), len(blocks[kp]))
            labels = pair_labels.get(counts)
            if labels is None:
                labels = pair_labels[counts] = np.concatenate(
                    (np.ones(counts[0]), -np.ones(counts[1])))
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
        offset = 0 if k == a else len(svm.class_samples[a])
        end = offset + len(entries)
        seen.update(i - offset for i in svm.models[(a, b)].support_indices
                    if offset <= i < end)
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


def format_diagnostics(svm: OvoSvm) -> str:
    """Per-pair text table: support-vector count, duality gap, normal length."""
    lines = ["pair        #sv   duality_gap    |normal|"]
    for (k, kp) in svm.pairs():
        model = svm.models[(k, kp)]
        lines.append(
            f"({k:>3},{kp:>3})  {len(model.support_indices):>4}"
            f"   {model.duality_gap:>11.3e}  {np.linalg.norm(model.normal):>10.4f}")
    return "\n".join(lines)
