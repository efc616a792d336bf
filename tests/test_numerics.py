import numpy as np
import pytest

from fedsvm.numerics import check_finite, weighted_mean

from oracles import finite_difference_gradient, relative_error


def test_finite_difference_quadratic():
    grad = finite_difference_gradient(lambda v: float(v[0] ** 2), np.array([3.0]))
    assert abs(grad[0] - 6.0) < 1e-6


def test_finite_difference_constant():
    grad = finite_difference_gradient(lambda v: 7.5, np.array([1.0, -2.0, 0.3]))
    assert np.all(grad == 0.0)


def test_finite_difference_norm_squared():
    grad = finite_difference_gradient(lambda v: float(v @ v), np.array([1.0, 2.0]))
    assert np.allclose(grad, [2.0, 4.0], atol=1e-6)


def test_finite_difference_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda v: 0.0, np.zeros(2), h=0.0)


def test_finite_difference_rejects_nonfinite_f():
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda v: float("nan"), np.zeros(1))


def test_check_finite_raises():
    with pytest.raises(ValueError):
        check_finite(np.array([1.0, np.inf]))


def test_weighted_mean_basic():
    out = weighted_mean([np.array([2.0]), np.array([4.0])], [1.0, 3.0])
    assert out[0] == 3.5


def test_weighted_mean_single_input_is_identity():
    x = np.array([0.1, -2.7, 3e-9])
    assert np.array_equal(weighted_mean([x], [3.0]), x)


def test_weighted_mean_identical_inputs_idempotent():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(17)
    for sizes in ([1, 1, 1], [3, 5, 11], [0.25, 0.5, 7.0]):
        out = weighted_mean([x.copy(), x.copy(), x.copy()], sizes)
        assert np.array_equal(out, x)


def test_weighted_mean_matches_direct_formula():
    rng = np.random.default_rng(1)
    xs = [rng.standard_normal(6) for _ in range(5)]
    ws = rng.uniform(0.5, 4.0, size=5)
    expected = sum(w * x for w, x in zip(ws, xs)) / ws.sum()
    assert np.allclose(weighted_mean(xs, ws), expected, atol=1e-12)


def test_weighted_mean_is_bitwise_the_anchored_formula():
    # The in-place accumulation must give the bits of the two-temporary
    # form it replaced, for rows of one array and for separate arrays.
    rng = np.random.default_rng(2)
    for trial in range(20):
        rows = rng.standard_normal((int(rng.integers(1, 9)), 33)) * 10.0 ** rng.integers(-3, 4)
        ws = rng.uniform(0.1, 50.0, size=len(rows))
        total = 0.0
        for w in ws:
            total += w
        acc = np.zeros_like(rows[0])
        for x, w in zip(rows, ws):
            acc += (w / total) * (x - rows[0])
        expected = rows[0] + acc
        assert np.array_equal(weighted_mean(rows, ws), expected), trial
        assert np.array_equal(weighted_mean(list(rows), list(ws)), expected), trial


def test_weighted_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        weighted_mean([], [])
    with pytest.raises(ValueError):
        weighted_mean([np.zeros(2)], [0.0])
    with pytest.raises(ValueError):
        weighted_mean([np.zeros(2), np.zeros(3)], [1.0, 1.0])


def test_relative_error_floor():
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
