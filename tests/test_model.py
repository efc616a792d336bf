import numpy as np
import pytest

from fedsvm.model import (
    Model,
    _softmax,
    encode,
    init_model,
    logits,
    predict,
)
from fedsvm.strategies import pseudo_gradient

from oracles import batch_loss_and_gradient, finite_difference_gradient, relative_error


def small_model(seed=0, input_dim=5, hidden=6, emb=4, classes=3):
    rng = np.random.default_rng(seed)
    return init_model(input_dim, [hidden], emb, classes, rng)


def random_batch(model, seed=0, size=4):
    rng = np.random.default_rng(seed + 1000)
    x = rng.standard_normal((size, model.input_dim))
    y = rng.integers(0, model.num_classes, size=size)
    return x, y


def test_identity_single_layer_encoder():
    m = Model([(np.eye(3), np.zeros(3))], np.zeros((2, 3)))
    x = np.array([[0.5, 1.0, 2.0]])
    assert np.array_equal(encode(m, x), x)


def test_zero_weights_give_zero_embeddings():
    m = Model([(np.zeros((3, 4)), np.zeros(3))], np.zeros((2, 3)))
    assert np.all(encode(m, np.ones((5, 4))) == 0.0)


def test_single_layer_hand_arithmetic():
    m = Model([(np.array([[1.0, -1.0]]), np.zeros(1))], np.zeros((2, 1)))
    assert encode(m, np.array([[2.0, 1.0]]))[0, 0] == 1.0


def test_hidden_relu_applied():
    # Two layers: the hidden activation is clipped at zero before the
    # linear output layer.
    m = Model([(np.array([[1.0]]), np.zeros(1)), (np.array([[1.0]]), np.zeros(1))],
              np.zeros((2, 1)))
    assert encode(m, np.array([[-3.0]]))[0, 0] == 0.0
    assert encode(m, np.array([[3.0]]))[0, 0] == 3.0


def test_predict_nearest_class_embedding():
    m = Model([(np.eye(2), np.zeros(2))], np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert predict(m, np.array([[0.9, 0.1]]))[0] == 0
    assert predict(m, np.array([[0.1, 0.9]]))[0] == 1


def test_predict_tie_breaks_to_lowest_class():
    m = Model([(np.eye(2), np.zeros(2))], np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert predict(m, np.array([[0.0, 0.0]]))[0] == 0


def test_predict_invariant_under_shared_positive_scaling():
    m = small_model(3)
    x = np.random.default_rng(5).standard_normal((10, m.input_dim))
    scaled = Model(m.encoder, 7.3 * m.logit_matrix)
    assert np.array_equal(predict(m, x), predict(scaled, x))


def test_predict_invariant_under_per_sample_logit_shift():
    # Adding one vector to every class embedding shifts each sample's
    # logits by the same constant, so the argmax cannot change.
    m = small_model(4)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, m.input_dim))
    shift = rng.standard_normal(m.embedding_dim)
    shifted = Model(m.encoder, m.logit_matrix + shift)
    assert np.array_equal(predict(m, x), predict(shifted, x))


def test_uniform_logits_loss_is_log2():
    m = Model([(np.zeros((2, 3)), np.zeros(2))], np.zeros((2, 2)))
    loss, _ = batch_loss_and_gradient(m, np.ones((4, 3)), np.array([0, 1, 0, 1]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_loss_vanishes_with_growing_margin():
    losses = []
    for margin in (1.0, 10.0, 100.0):
        logit = np.array([[margin, 0.0], [0.0, margin]]) / margin * margin
        m = Model([(np.eye(2), np.zeros(2))], logit)
        losses.append(batch_loss_and_gradient(m, np.eye(2), np.array([0, 1]))[0])
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-10


def test_softmax_rows_sum_to_one():
    m = small_model(8)
    x = np.random.default_rng(9).standard_normal((32, m.input_dim)) * 30
    probs = _softmax(logits(m, x))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0)


def test_gradients_match_finite_differences():
    failures = []
    for trial in range(20):
        model = small_model(trial)
        batch = random_batch(model, trial)
        _, grads = batch_loss_and_gradient(model, *batch)

        def loss_of(flat, template=model, batch=batch):
            return batch_loss_and_gradient(template.with_params(flat), *batch)[0]

        fd = finite_difference_gradient(loss_of, model.params.copy())
        err = relative_error(grads.params, fd)
        if err >= 1e-5:
            failures.append((trial, err))
    assert not failures, failures


def test_flatten_roundtrip_bit_identical():
    m = small_model(11)
    again = m.with_params(m.params.copy())
    assert np.array_equal(again.params, m.params)
    for (w1, b1), (w2, b2) in zip(m.encoder, again.encoder):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    assert np.array_equal(again.logit_matrix, m.logit_matrix)


def test_views_share_the_flat_buffer():
    m = small_model(12)
    flat = np.zeros_like(m.params)
    bound = m.with_params(flat)
    assert bound.params is flat
    bound.logit_matrix[0, 0] = 2.5
    bound.encoder[0][1][0] = -1.0
    assert flat[-m.logit_matrix.size] == 2.5
    assert flat[m.encoder[0][0].size] == -1.0
    copied = m.copy()
    copied.params[:] = 0.0
    assert np.any(m.params != 0.0)


def test_flatten_order_contract():
    # Encoder layers in order, weight then bias, then the logit matrix
    # row-major.
    w0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    b0 = np.array([5.0, 6.0])
    logit = np.array([[7.0, 8.0], [9.0, 10.0]])
    m = Model([(w0, b0)], logit)
    assert np.array_equal(m.params, np.arange(1.0, 11.0))
    w0[0, 0] = b0[0] = logit[0, 0] = 0.0
    assert m.params[0] == 1.0 and m.params[4] == 5.0 and m.params[6] == 7.0


def test_flatten_zero_model_is_zero_vector():
    m = Model([(np.zeros((2, 3)), np.zeros(2))], np.zeros((4, 2)))
    assert np.all(m.params == 0.0)


def test_unflatten_size_mismatch():
    m = small_model(0)
    with pytest.raises(ValueError):
        m.with_params(np.zeros(3))
    with pytest.raises(ValueError):
        m.with_params(np.zeros(m.params.size + 1))


def test_structural_compatibility_is_equivalence_like():
    a, b, c = small_model(0), small_model(1), small_model(2)
    other = small_model(3, hidden=7)
    assert a.layout == b.layout == c.layout
    assert a.layout != other.layout
    assert np.all(pseudo_gradient(a, a) == 0.0)
    with pytest.raises(ValueError, match="structurally incompatible"):
        pseudo_gradient(a, other)


def test_labels_out_of_range_rejected():
    m = small_model(1)
    with pytest.raises(ValueError):
        batch_loss_and_gradient(m, np.zeros((1, m.input_dim)), np.array([m.num_classes]))


def test_encode_shape_mismatch():
    m = small_model(1)
    with pytest.raises(ValueError):
        encode(m, np.zeros((2, m.input_dim + 1)))
