"""Dense float64 tensor helpers shared by every other module.

All numeric state in this package lives in C-contiguous ``numpy``
float64 arrays. Reductions that feed aggregation use a fixed
accumulation order so that repeated runs with the same seed are
bit-reproducible.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Tensor = np.ndarray


def as_tensor(values) -> Tensor:
    """Coerce ``values`` to a float64 array."""
    return np.asarray(values, dtype=np.float64)


def check_finite(arr: Tensor, what: str = "tensor") -> Tensor:
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite values in {what}")
    return arr


def check_same_shape(a: Tensor, b: Tensor, what: str = "operands") -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in {what}: {a.shape} vs {b.shape}")


def weighted_mean(arrays: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """Weighted mean with normalized weights and anchored accumulation.

    Computed as ``x0 + sum_i u_i * (x_i - x0)`` with ``u_i = w_i / sum(w)``,
    accumulated in input order. The anchored form makes the mean of a
    single array, or of identical arrays, exactly the input; the fixed
    order makes the reduction reproducible. ``arrays`` may be the rows
    of one 2-D array; the sum builds in place with one scratch row.
    Callers that must agree bitwise (full-model averaging vs. per-row
    selective averaging) all route through this function.
    """
    if len(arrays) == 0:
        raise ValueError("weighted_mean of empty sequence")
    if len(arrays) != len(weights):
        raise ValueError("arrays and weights length mismatch")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    total = 0.0
    for wi in w:
        total += wi
    anchor = arrays[0]
    acc = np.zeros_like(anchor)
    scratch = np.empty_like(anchor)
    for xi, wi in zip(arrays, w):
        check_same_shape(anchor, xi, "weighted_mean inputs")
        np.subtract(xi, anchor, out=scratch)
        scratch *= wi / total
        acc += scratch
    acc += anchor
    return acc
