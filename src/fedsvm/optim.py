"""The server optimizer: SGD, Adam and AMSGrad on flat float64 vectors.

The server steps with it on the FedAdam/FedAMS pseudo-gradient (or
degenerate SGD for ``fedopt``) and on the class embeddings under the
fedaws and spread-out penalties. Client SGD runs in place inside
``strategies.client_update`` and ``strategies.one_step_update`` and
does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, check_finite, check_same_shape

SGD = "sgd"
ADAM = "adam"
AMSGRAD = "amsgrad"

# Adam's moment decay rates and denominator guard, the defaults of
# Kingma & Ba; AMSGrad uses the same.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class OptimizerState:
    """Mutable optimizer state; one instance per parameter vector it drives.
    The moments are None until the first Adam/AMSGrad step allocates them,
    so a state exists before parameter shapes are known; SGD has none, and
    only AMSGrad fills ``max_second_moment``."""

    kind: str
    learning_rate: float
    step_count: int = 0
    first_moment: Tensor | None = None
    second_moment: Tensor | None = None
    max_second_moment: Tensor | None = None

    def __post_init__(self):
        if self.kind not in (SGD, ADAM, AMSGRAD):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def optimizer_step(params: Tensor, grad: Tensor, state: OptimizerState) -> Tensor:
    """One step from ``params`` along ``grad``: ``params - lr * grad`` for
    SGD, else bias-corrected Adam; AMSGrad divides by the running
    elementwise maximum of the corrected second moment instead."""
    check_same_shape(params, grad, "optimizer_step")
    check_finite(grad, "gradient")
    if state.kind == SGD:
        state.step_count += 1
        return params - state.learning_rate * grad
    if state.first_moment is None:
        state.first_moment = np.zeros_like(params)
        state.second_moment = np.zeros_like(params)
        if state.kind == AMSGRAD:
            state.max_second_moment = np.zeros_like(params)
    check_same_shape(params, state.first_moment, "optimizer moments")

    state.step_count += 1
    t = state.step_count
    state.first_moment = BETA1 * state.first_moment + (1.0 - BETA1) * grad
    state.second_moment = BETA2 * state.second_moment + (1.0 - BETA2) * grad * grad
    m_hat = state.first_moment / (1.0 - BETA1 ** t)
    v_hat = state.second_moment / (1.0 - BETA2 ** t)
    if state.kind == AMSGRAD:
        state.max_second_moment = np.maximum(state.max_second_moment, v_hat)
        v_hat = state.max_second_moment
    update = params - state.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
    return check_finite(update, "adam update")
