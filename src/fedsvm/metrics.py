"""Classification metrics over a confusion matrix: accuracy, macro-F1,
multiclass Matthews correlation, and the rounds-to-target convergence
measure."""

from __future__ import annotations

import numpy as np

from .data import ClientData
from .model import Model, predict


def confusion(model: Model, pool: ClientData) -> np.ndarray:
    """K x K count matrix (rows true, columns predicted) over the pooled
    held-out clients' ``(features, labels)``, ``data.heldout_pool``."""
    features, labels = pool
    preds = predict(model, features)
    k = model.num_classes
    return np.bincount(labels * k + preds, minlength=k * k).reshape(k, k)


def _validated(cm) -> np.ndarray:
    cm = np.asarray(cm, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.sum() == 0:
        raise ValueError("confusion matrix must be square and nonempty")
    return cm


def accuracy(cm) -> float:
    cm = _validated(cm)
    return float(np.trace(cm) / cm.sum())


def macro_f1(cm) -> float:
    """Unweighted mean of per-class F1. A class with no true and no
    predicted instances contributes 0, keeping the score deterministic on
    skewed held-out pools."""
    cm = _validated(cm)
    tp = np.diagonal(cm)
    predicted, actual = cm.sum(axis=0), cm.sum(axis=1)
    precision = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros_like(tp), where=actual > 0)
    both = precision + recall
    scores = np.divide(2.0 * precision * recall, both, out=np.zeros_like(tp), where=both > 0)
    return float(scores.mean())


def mcc(cm) -> float:
    """Multiclass Matthews correlation in the covariance form; defined as
    0 when the denominator vanishes (e.g. a constant predictor)."""
    cm = _validated(cm)
    correct = np.trace(cm)
    total = cm.sum()
    true_counts = cm.sum(axis=1)
    pred_counts = cm.sum(axis=0)
    numerator = correct * total - float(true_counts @ pred_counts)
    denom_sq = (total * total - float(pred_counts @ pred_counts)) \
        * (total * total - float(true_counts @ true_counts))
    if denom_sq <= 0:
        return 0.0
    return float(numerator / np.sqrt(denom_sq))


def rounds_to_target(accuracy_series, target: float) -> int | None:
    """1-based index of the first round whose accuracy reaches ``target``;
    None when the series never reaches it (reported as ">T")."""
    if not 0.0 < target < 1.0:
        raise ValueError("target must lie in (0, 1)")
    series = list(accuracy_series)
    if not series:
        raise ValueError("empty accuracy series")
    for i, value in enumerate(series):
        if value >= target:
            return i + 1
    return None


def format_rounds(value: int | None, total_rounds: int) -> str:
    return f">{total_rounds}" if value is None else str(value)
