import numpy as np
import pytest

from fedsvm.config import DatasetConfig
from fedsvm.data import generate_synthetic, heldout_pool
from fedsvm.metrics import accuracy, confusion, format_rounds, macro_f1, mcc, rounds_to_target
from fedsvm.model import Model


def test_perfect_diagonal_matrix():
    cm = np.diag([5, 3, 2])
    assert accuracy(cm) == 1.0
    assert macro_f1(cm) == 1.0
    assert mcc(cm) == pytest.approx(1.0)


def test_binary_hand_derived_case():
    cm = np.array([[2, 1], [1, 2]])
    assert accuracy(cm) == pytest.approx(4 / 6)
    assert macro_f1(cm) == pytest.approx(2 / 3)
    assert mcc(cm) == pytest.approx(1 / 3)


def test_constant_predictor_mcc_is_zero():
    cm = np.array([[50, 0], [50, 0]])
    assert mcc(cm) == 0.0
    assert accuracy(cm) == 0.5


def test_constant_predictor_single_column():
    cm = np.array([[7, 0, 0], [3, 0, 0], [2, 0, 0]])
    assert accuracy(cm) == pytest.approx(7 / 12)
    assert cm[:, 0].sum() == cm.sum()


def test_absent_class_contributes_zero_f1():
    cm = np.array([[4, 0, 0], [0, 4, 0], [0, 0, 0]])
    assert macro_f1(cm) == pytest.approx(2 / 3)


def test_metrics_invariant_under_simultaneous_permutation():
    rng = np.random.default_rng(0)
    cm = rng.integers(0, 20, size=(5, 5))
    perm = rng.permutation(5)
    permuted = cm[np.ix_(perm, perm)]
    assert accuracy(permuted) == pytest.approx(accuracy(cm))
    assert macro_f1(permuted) == pytest.approx(macro_f1(cm))
    assert mcc(permuted) == pytest.approx(mcc(cm))


def test_metric_ranges_on_random_matrices():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        cm = rng.integers(0, 30, size=(k, k))
        if cm.sum() == 0:
            continue
        assert 0.0 <= accuracy(cm) <= 1.0
        assert 0.0 <= macro_f1(cm) <= 1.0
        assert -1.0 <= mcc(cm) <= 1.0


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        accuracy(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        macro_f1(np.zeros((2, 3)))


def test_rounds_to_target_first_crossing():
    assert rounds_to_target([0.5, 0.65, 0.72], 0.7) == 3
    assert rounds_to_target([0.9, 0.1], 0.7) == 1
    assert rounds_to_target([0.5] * 200, 0.7) is None
    assert format_rounds(None, 200) == ">200"
    assert format_rounds(42, 200) == "42"


def test_rounds_to_target_validation():
    with pytest.raises(ValueError):
        rounds_to_target([], 0.5)
    with pytest.raises(ValueError):
        rounds_to_target([0.5], 1.5)


def test_confusion_counts_pooled_heldout_samples():
    ds = generate_synthetic(DatasetConfig(
        clients=10, classes=3, feature_dim=4,
        samples_per_client_mean=20, samples_per_client_spread=0,
        dirichlet_alpha=1.0, class_separation=3.0, noise_sigma=0.5), 5)
    # A fixed-prediction model: zero encoder makes every logit zero and
    # every prediction class 0 by tie-break.
    model = Model([(np.zeros((2, 4)), np.zeros(2))], np.zeros((3, 2)))
    cm = confusion(model, heldout_pool(ds))
    pool = sum(ds.clients[i][1].size for i in ds.heldout_client_indices)
    assert cm.sum() == pool
    assert cm[:, 0].sum() == pool
