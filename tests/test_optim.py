import numpy as np
import pytest

from fedsvm.optim import BETA2, adam_state, amsgrad_state, adam_step, sgd_state, sgd_step


def test_sgd_single_step():
    state = sgd_state(0.2)
    out = sgd_step(np.array([1.0]), np.array([0.5]), state)
    assert out[0] == pytest.approx(0.9)
    assert state.step_count == 1


def test_sgd_zero_gradient_is_noop():
    params = np.array([1.5, -2.0])
    out = sgd_step(params, np.zeros(2), sgd_state(0.7))
    assert np.array_equal(out, params)


def test_sgd_unit_learning_rate():
    out = sgd_step(np.array([1.0, 2.0]), np.array([1.0, 1.0]), sgd_state(1.0))
    assert np.array_equal(out, [0.0, 1.0])


def test_sgd_rejects_shape_mismatch_and_nonfinite():
    with pytest.raises(ValueError):
        sgd_step(np.zeros(2), np.zeros(3), sgd_state(0.1))
    with pytest.raises(ValueError):
        sgd_step(np.zeros(2), np.array([1.0, np.nan]), sgd_state(0.1))


def test_adam_first_step_hand_computed():
    # With bias correction the first step moves by exactly
    # lr * g / (|g| + eps) regardless of the betas.
    state = adam_state(0.1)
    out = adam_step(np.array([0.0]), np.array([1.0]), state)
    assert abs(out[0] - (-0.1)) < 1e-7
    assert state.step_count == 1


def test_amsgrad_first_step_equals_adam():
    grad = np.array([0.3, -1.2])
    params = np.array([1.0, 1.0])
    a = adam_step(params, grad, adam_state(0.05))
    b = adam_step(params, grad, amsgrad_state(0.05))
    assert np.array_equal(a, b)


def test_adam_zero_gradient_first_step_is_noop():
    params = np.array([2.0, -3.0])
    out = adam_step(params, np.zeros(2), adam_state(0.1))
    assert np.array_equal(out, params)


def test_amsgrad_second_moment_dominates_adam():
    rng = np.random.default_rng(42)
    params = np.zeros(4)
    s_adam = adam_state(0.01)
    s_ams = amsgrad_state(0.01)
    p1, p2 = params.copy(), params.copy()
    for _ in range(25):
        grad = rng.standard_normal(4)
        p1 = adam_step(p1, grad, s_adam)
        p2 = adam_step(p2, grad, s_ams)
        v_hat_adam = s_adam.second_moment / (1 - BETA2 ** s_adam.step_count)
        assert np.all(s_ams.max_second_moment >= v_hat_adam - 1e-15)


def test_amsgrad_max_moment_nondecreasing():
    rng = np.random.default_rng(7)
    state = amsgrad_state(0.01)
    params = np.zeros(3)
    prev = np.zeros(3)
    for _ in range(20):
        params = adam_step(params, rng.standard_normal(3), state)
        assert np.all(state.max_second_moment >= prev)
        prev = state.max_second_moment.copy()


def test_kind_checks():
    with pytest.raises(ValueError):
        sgd_step(np.zeros(1), np.zeros(1), adam_state(0.1))
    with pytest.raises(ValueError):
        adam_step(np.zeros(1), np.zeros(1), sgd_state(0.1))


def test_state_validation():
    with pytest.raises(ValueError):
        sgd_state(-1.0)
