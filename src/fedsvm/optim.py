"""SGD, Adam, and AMSGrad on flat float64 parameter vectors.

The same three optimizers serve both sides of the federation: plain SGD
for client updates and Adam/AMSGrad (or degenerate SGD) as the server
optimizer acting on pseudo-gradients. Moment buffers are materialized
lazily on the first step so states can be created before parameter
shapes are known.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import Tensor, check_finite, check_same_shape

SGD = "sgd"
ADAM = "adam"
AMSGRAD = "amsgrad"

_KINDS = (SGD, ADAM, AMSGRAD)

# Adam's moment decay rates and denominator guard, the defaults of
# Kingma & Ba; AMSGrad uses the same.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class OptimizerState:
    """Mutable optimizer state; one instance per parameter vector it drives."""

    kind: str
    learning_rate: float
    step_count: int = 0
    first_moment: Tensor = field(default_factory=lambda: np.zeros(0))
    second_moment: Tensor = field(default_factory=lambda: np.zeros(0))
    max_second_moment: Tensor = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def sgd_state(learning_rate: float) -> OptimizerState:
    return OptimizerState(kind=SGD, learning_rate=learning_rate)


def adam_state(learning_rate: float) -> OptimizerState:
    return OptimizerState(ADAM, learning_rate)


def amsgrad_state(learning_rate: float) -> OptimizerState:
    return OptimizerState(AMSGRAD, learning_rate)


def sgd_step(params: Tensor, grad: Tensor, state: OptimizerState) -> Tensor:
    """One plain gradient step ``params - lr * grad``."""
    if state.kind != SGD:
        raise ValueError(f"sgd_step called with {state.kind!r} state")
    check_same_shape(params, grad, "sgd_step")
    check_finite(grad, "gradient")
    state.step_count += 1
    return params - state.learning_rate * grad


def adam_step(params: Tensor, grad: Tensor, state: OptimizerState) -> Tensor:
    """One bias-corrected Adam step; AMSGrad states additionally track the
    running elementwise maximum of the corrected second moment and divide
    by that instead."""
    if state.kind not in (ADAM, AMSGRAD):
        raise ValueError(f"adam_step called with {state.kind!r} state")
    check_same_shape(params, grad, "adam_step")
    check_finite(grad, "gradient")
    if state.first_moment.size == 0:
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


def optimizer_step(params: Tensor, grad: Tensor, state: OptimizerState) -> Tensor:
    """Dispatch on the state's kind."""
    if state.kind == SGD:
        return sgd_step(params, grad, state)
    return adam_step(params, grad, state)
