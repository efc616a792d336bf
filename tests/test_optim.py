import numpy as np
import pytest

from fedsvm.optim import ADAM, AMSGRAD, BETA2, SGD, OptimizerState, optimizer_step


def test_sgd_single_step():
    state = OptimizerState(SGD, 0.2)
    out = optimizer_step(np.array([1.0]), np.array([0.5]), state)
    assert out[0] == pytest.approx(0.9)
    assert state.step_count == 1


def test_sgd_zero_gradient_is_noop():
    params = np.array([1.5, -2.0])
    out = optimizer_step(params, np.zeros(2), OptimizerState(SGD, 0.7))
    assert np.array_equal(out, params)


def test_sgd_unit_learning_rate():
    out = optimizer_step(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                         OptimizerState(SGD, 1.0))
    assert np.array_equal(out, [0.0, 1.0])


def test_sgd_rejects_shape_mismatch_and_nonfinite():
    with pytest.raises(ValueError):
        optimizer_step(np.zeros(2), np.zeros(3), OptimizerState(SGD, 0.1))
    with pytest.raises(ValueError):
        optimizer_step(np.zeros(2), np.array([1.0, np.nan]), OptimizerState(SGD, 0.1))


def test_adam_first_step_hand_computed():
    # With bias correction the first step moves by exactly
    # lr * g / (|g| + eps) regardless of the betas.
    state = OptimizerState(ADAM, 0.1)
    out = optimizer_step(np.array([0.0]), np.array([1.0]), state)
    assert abs(out[0] - (-0.1)) < 1e-7
    assert state.step_count == 1


def test_amsgrad_first_step_equals_adam():
    grad = np.array([0.3, -1.2])
    params = np.array([1.0, 1.0])
    a = optimizer_step(params, grad, OptimizerState(ADAM, 0.05))
    b = optimizer_step(params, grad, OptimizerState(AMSGRAD, 0.05))
    assert np.array_equal(a, b)


def test_adam_zero_gradient_first_step_is_noop():
    params = np.array([2.0, -3.0])
    out = optimizer_step(params, np.zeros(2), OptimizerState(ADAM, 0.1))
    assert np.array_equal(out, params)


def test_amsgrad_second_moment_dominates_adam():
    rng = np.random.default_rng(42)
    params = np.zeros(4)
    s_adam = OptimizerState(ADAM, 0.01)
    s_ams = OptimizerState(AMSGRAD, 0.01)
    p1, p2 = params.copy(), params.copy()
    for _ in range(25):
        grad = rng.standard_normal(4)
        p1 = optimizer_step(p1, grad, s_adam)
        p2 = optimizer_step(p2, grad, s_ams)
        v_hat_adam = s_adam.second_moment / (1 - BETA2 ** s_adam.step_count)
        assert np.all(s_ams.max_second_moment >= v_hat_adam - 1e-15)


def test_amsgrad_max_moment_nondecreasing():
    rng = np.random.default_rng(7)
    state = OptimizerState(AMSGRAD, 0.01)
    params = np.zeros(3)
    prev = np.zeros(3)
    for _ in range(20):
        params = optimizer_step(params, rng.standard_normal(3), state)
        assert np.all(state.max_second_moment >= prev)
        prev = state.max_second_moment.copy()


def test_adam_rejects_params_shaped_unlike_its_moments():
    # The moments take the shape of the first step's parameters; a later
    # step on another shape fails and is not counted.
    state = OptimizerState(ADAM, 0.1)
    optimizer_step(np.zeros(2), np.ones(2), state)
    with pytest.raises(ValueError, match="optimizer moments"):
        optimizer_step(np.zeros(3), np.ones(3), state)
    assert state.step_count == 1
    assert state.first_moment.shape == (2,)


def test_state_validation():
    with pytest.raises(ValueError):
        OptimizerState(SGD, -1.0)
