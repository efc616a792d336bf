"""Test oracles: a central-difference gradient, the relative error the
gradient checks compare with, the closed-form lower bound on the
projected logit gap of a binary SVM, the per-pair loops that the
server's SVM stage computes as arrays, the per-pair fit of a round on
its one Gram product, and the per-client cross-entropy and contrastive
losses that cohort training computes for a whole cohort, each on one
segment. Only the test suite imports this.
"""

from typing import Callable

import numpy as np

from fedsvm.model import Model, encode_with_cache, encoder_backward, loss_and_gradient
from fedsvm.numerics import Tensor, as_tensor, weighted_mean
from fedsvm.strategies import _contrast_embeddings, moon_embedding_gradient
from fedsvm.svm import BinarySvmModel, OvoSvm, backend, class_pairs, solver


def finite_difference_gradient(f: Callable[[Tensor], float], x: Tensor,
                               h: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Used as the independent oracle against every hand-derived gradient in
    the package.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = as_tensor(x)
    flat = x.ravel()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(x))
        flat[i] = orig - h
        f_minus = float(f(x))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"non-finite function value at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad.reshape(x.shape)


def relative_error(approx: Tensor, exact: Tensor) -> float:
    """L2 relative error with a unit floor on the denominator scale."""
    num = float(np.linalg.norm(np.asarray(approx) - np.asarray(exact)))
    den = max(float(np.linalg.norm(exact)), 1e-12)
    return num / den


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


def support_clients(svm: OvoSvm, k: int) -> list[int]:
    """Clients whose class-k embedding supports any pair problem involving
    k, read from each pair's ``support_indices``, in client order."""
    clients = svm.embeddings.shape[1]
    seen = set()
    for (a, b), model in svm.models.items():
        if k in (a, b):
            offset = 0 if k == a else clients
            seen.update(i - offset for i in model.support_indices
                        if offset <= i < offset + clients)
    return sorted(seen)


def spreadout_loss(logit_matrix: Tensor,
                   normals: dict[tuple[int, int], Tensor]) -> tuple[float, Tensor]:
    """``strategies.spreadout_loss`` as a loop over the pairs (k, k') in
    order, with one 1-D dot product per projection."""
    w = logit_matrix
    loss = 0.0
    grad = np.zeros_like(w)
    for (k, kp), h in sorted(normals.items()):
        h_sq = float(h @ h)
        if h_sq <= 0.0:
            raise ValueError(f"zero-norm hyperplane normal for pair ({k}, {kp})")
        diff = float((w[k] - w[kp]) @ h)
        term = np.exp(-diff * diff / (2.0 * h_sq))
        loss += term
        coef = term * diff / h_sq
        grad[k] -= coef * h
        grad[kp] += coef * h
    return float(loss), grad


def round_product_fit(class_embeddings, lam: float, max_iters: int | None = None,
                      tol: float = solver.DEFAULT_GAP_TOL) -> OvoSvm:
    """``fit_round``'s per-pair reference on the round's one Gram product.

    Each pair (k, k') is fitted on its own by the solver's fit loop, as a
    one-problem ``PairGrams`` on its block of ``samples @ samples.T`` over
    the round's K·C samples (class k's clients, then class k''s),
    copied out as the pair's own M x M matrix, the way ``fit_binary``
    fits its own product.
    """
    x, weights = solver._round_inputs(class_embeddings, None)
    classes, clients, dim = x.shape
    samples = x.reshape(classes * clients, dim)
    matrix = samples @ samples.T
    labels = np.concatenate((np.ones(clients), -np.ones(clients)))
    own = np.arange(clients)
    first, second = class_pairs(classes)
    models = {}
    for k, kp in zip(first.tolist(), second.tolist()):
        rows = np.concatenate((k * clients + own, kp * clients + own))
        gram = matrix[np.ix_(rows, rows)]
        grams = backend.PairGrams(gram, np.arange(2 * clients)[None], np.diagonal(gram)[None])
        _, _, (models[(k, kp)],) = solver._fit_pairs(samples[rows], grams, labels,
                                                     float(lam), max_iters, tol)
    normals = np.array([model.normal for model in models.values()])
    support = np.zeros((len(models), 2 * clients), dtype=bool)
    for p, model in enumerate(models.values()):
        model.normal = normals[p]
        support[p, list(model.support_indices)] = True
    return OvoSvm(x, weights, normals, support, models)


def one_segment(model: Model, rows: int, fill) -> tuple[float, Model]:
    """A batch of ``rows`` rows as the one segment ``[0, rows]``:
    ``fill(bounds, out)`` writes its gradient to the one row of ``out``
    and returns its loss. Returns the loss as a float and the gradient
    as a model-shaped container, the per-client reference form."""
    out = np.empty((1, model.params.size))
    losses = fill(np.array([0, rows]), out)
    return float(losses[0]), model.with_params(out[0])


def batch_loss_and_gradient(model: Model, inputs: Tensor,
                            labels: np.ndarray) -> tuple[float, Model]:
    """``model.loss_and_gradient`` of one client's batch: its mean
    cross-entropy and the gradient for every parameter."""
    return one_segment(model, labels.size,
                       lambda bounds, out: loss_and_gradient(model, inputs, labels, bounds, out))


def moon_loss_and_gradient(model: Model, global_model: Model, prev_model: Model,
                           inputs: Tensor, temperature: float) -> tuple[float, Model]:
    """``strategies.moon_embedding_gradient`` of one batch for one client,
    mean over the batch, and its gradient for every parameter (zero for
    the logit matrix): the per-client reference for cohort training."""
    z, acts = encode_with_cache(model, inputs)

    def fill(bounds, out):
        z_g, z_p = _contrast_embeddings(model, global_model, [prev_model], inputs, z, bounds)
        losses, dz = moon_embedding_gradient(z, z_g, z_p, temperature, bounds)
        encoder_backward(model, acts, dz, bounds, out)
        return losses

    return one_segment(model, z.shape[0], fill)
