import numpy as np
import pytest

from fedsvm.config import (
    DECREASING,
    INCREASING,
    MOON,
    PROX,
    ClientConfig,
    StrategyConfig,
    SyntheticSpec,
)
from fedsvm.data import generate_synthetic
from fedsvm.model import Model, encode, init_model
from fedsvm.optim import SGD, adam_state, sgd_state, sgd_step
from fedsvm.strategies import (
    ServerState,
    batch_orders,
    client_update,
    fedavg_aggregate,
    fedaws_penalty,
    fedaws_regularize,
    fedopt_step,
    penalty_value,
    pseudo_gradient,
    run_round,
    sample_clients,
    selective_aggregate,
    spreadout_loss,
    spreadout_regularize,
)
from fedsvm.svm import BinarySvmModel, OvoSvm, fit_ovo

from oracles import (
    batch_loss_and_gradient,
    finite_difference_gradient,
    moon_loss_and_gradient,
    relative_error,
)


def tiny_model(seed=0, input_dim=4, hidden=5, emb=3, classes=3):
    return init_model(input_dim, [hidden], emb, classes,
                      np.random.default_rng(seed))


def tiny_client_data(seed=0, n=12, input_dim=4, classes=3):
    rng = np.random.default_rng(seed + 500)
    return (rng.standard_normal((n, input_dim)),
            rng.integers(0, classes, size=n).astype(np.int64))


# ---------------------------------------------------------------------------
# Client update
# ---------------------------------------------------------------------------

def cohort_data(seed=0, sizes=(12, 7, 20), input_dim=4, classes=3):
    return [tiny_client_data(seed + i, n=n, input_dim=input_dim, classes=classes)
            for i, n in enumerate(sizes)]


def test_single_batch_vanilla_equals_manual_step():
    model = tiny_model(1)
    data = tiny_client_data(1, n=6)
    cfg = ClientConfig(epochs=1, batch_size=16, learning_rate=0.1)
    trained, _ = client_update(model, [data], cfg, 77, 0, (0,))

    order = batch_orders(77, 0, (0,), (6,), 0)
    _, grads = batch_loss_and_gradient(model, data[0][order], data[1][order])
    manual = sgd_step(model.params, grads.params, sgd_state(0.1))
    assert np.array_equal(trained[0], manual)


def test_prox_mu_zero_is_bitwise_vanilla():
    model = tiny_model(2)
    data = cohort_data(2, sizes=(20, 9, 14))
    base = ClientConfig(epochs=3, batch_size=8, learning_rate=0.05)
    prox = ClientConfig(epochs=3, batch_size=8, learning_rate=0.05,
                        variant=PROX, prox_mu=0.0)
    a, loss_a = client_update(model, data, base, 5, 0, (0, 1, 2))
    b, loss_b = client_update(model, data, prox, 5, 0, (0, 1, 2))
    assert np.array_equal(a, b)
    assert np.array_equal(loss_a, loss_b)


def test_zero_learning_rate_returns_global_model():
    model = tiny_model(3)
    trained, losses = client_update(model, cohort_data(3), ClientConfig(learning_rate=0.0),
                                    0, 0, (0, 1, 2))
    assert all(np.array_equal(row, model.params) for row in trained)
    assert np.all(np.isfinite(losses))


def test_client_update_leaves_global_untouched():
    model = tiny_model(4)
    before = model.params.copy()
    client_update(model, cohort_data(4), ClientConfig(), 1, 0, (0, 1, 2))
    assert np.array_equal(model.params, before)


def test_empty_dataset_rejected():
    data = cohort_data(0)
    data[1] = (np.zeros((0, 4)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="round 4, client 7: empty dataset"):
        client_update(tiny_model(), data, ClientConfig(), 0, 4, (3, 7, 9))


def reference_client_update(global_model, data, config, seed, t, clients, prev_models):
    """The per-client training loop, one client and one batch at a time."""
    rows = []
    for i, (n, (features, labels)) in enumerate(zip(clients, data)):
        model = global_model
        opt = sgd_state(config.learning_rate)
        for epoch in range(config.epochs):
            order = batch_orders(seed, t, (n,), (labels.size,), epoch)
            for start in range(0, labels.size, config.batch_size):
                idx = order[start:start + config.batch_size]
                _, grads = batch_loss_and_gradient(model, features[idx], labels[idx])
                grad = grads.params
                if config.variant == PROX:
                    grad += config.prox_mu * (model.params - global_model.params)
                if config.variant == MOON:
                    _, moon = moon_loss_and_gradient(model, global_model, prev_models[i],
                                                     features[idx], config.moon_temperature)
                    grad += config.moon_coeff * moon.params
                model = model.with_params(sgd_step(model.params, grad, opt))
        rows.append(model.params)
    return np.array(rows)


@pytest.mark.parametrize("config", [
    ClientConfig(learning_rate=0.3),
    ClientConfig(epochs=2, batch_size=8, learning_rate=0.3, variant=PROX, prox_mu=0.5),
    ClientConfig(epochs=2, batch_size=8, learning_rate=0.3, variant=MOON),
], ids=["vanilla", "prox", "moon"])
def test_cohort_rows_match_the_per_client_reference(config):
    model = tiny_model(5)
    data = cohort_data(5, sizes=(12, 7, 20, 3))
    clients = (2, 5, 6, 11)
    # Two clients meet a previous model of their own, two the global one.
    prevs = [tiny_model(20), model, tiny_model(21), model]
    trained, _ = client_update(model, data, config, 8, 3, clients, prevs)
    expected = reference_client_update(model, data, config, 8, 3, clients, prevs)
    assert np.abs(trained - expected).max() <= 1e-12 * np.abs(expected).max()


def test_batch_orders_depend_only_on_their_keys():
    alone = batch_orders(4, 2, (5,), (9,), 1)
    assert sorted(alone) == list(range(9))
    together = batch_orders(4, 2, (1, 5, 8), (3, 9, 6), 1)
    assert np.array_equal(together[3:12], alone)
    assert sorted(together[:3]) == [0, 1, 2] and sorted(together[12:]) == list(range(6))
    for keys in [(5, 2, (5,), 1), (4, 3, (5,), 1), (4, 2, (6,), 1), (4, 2, (5,), 0)]:
        seed, t, clients, epoch = keys
        assert not np.array_equal(batch_orders(seed, t, clients, (9,), epoch), alone), keys


def test_prox_gradient_zero_at_global_model():
    # At theta == theta_global the proximal term contributes exactly zero.
    flat = tiny_model(5).params
    assert np.all(0.05 * (flat - flat) == 0.0)


def test_moon_gradient_vanishes_when_prev_equals_global():
    model = tiny_model(6)
    x = np.random.default_rng(3).standard_normal((5, model.input_dim))
    loss, grads = moon_loss_and_gradient(model, model, model, x, 0.5)
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)
    assert np.linalg.norm(grads.params) < 1e-12


def test_moon_loss_matches_its_formula():
    # -log softmax over (cos(z, z_g), cos(z, z_p)) / tau, with each
    # embedding taken from its own model.
    model, global_model, prev_model = tiny_model(9), tiny_model(7), tiny_model(8)
    x = np.random.default_rng(11).standard_normal((6, model.input_dim))
    z, z_g, z_p = (encode(m, x) for m in (model, global_model, prev_model))
    keep = np.all([np.linalg.norm(e, axis=1) > 1e-3 for e in (z, z_g, z_p)], axis=0)
    x, z, z_g, z_p = x[keep], z[keep], z_g[keep], z_p[keep]
    assert len(x) >= 3  # the cosine has no direction at a zero embedding

    def cos(u, v):
        return np.sum(u * v, axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))

    a, b = cos(z, z_g) / 0.5, cos(z, z_p) / 0.5
    expected = np.mean(np.log(np.exp(a) + np.exp(b)) - a)
    loss, _ = moon_loss_and_gradient(model, global_model, prev_model, x, 0.5)
    assert loss == pytest.approx(expected, abs=1e-12)


def test_moon_gradient_matches_finite_differences():
    global_model = tiny_model(7)
    prev_model = tiny_model(8)
    model = tiny_model(9)
    x = np.random.default_rng(10).standard_normal((6, model.input_dim))
    _, grads = moon_loss_and_gradient(model, global_model, prev_model, x, 0.5)

    def loss_of(flat):
        return moon_loss_and_gradient(model.with_params(flat), global_model,
                                      prev_model, x, 0.5)[0]

    fd = finite_difference_gradient(loss_of, model.params.copy())
    assert relative_error(grads.params, fd) < 1e-5


# ---------------------------------------------------------------------------
# Aggregation primitives
# ---------------------------------------------------------------------------

def test_fedavg_weighted_mean():
    template = Model([(np.zeros((1, 1)), np.zeros(1))], np.zeros((2, 1)))
    size = template.params.size
    rows = np.array([np.full(size, 2.0), np.full(size, 4.0)])
    out = fedavg_aggregate(template, rows, [1.0, 3.0])
    assert np.all(out.params == 3.5)


def test_fedavg_idempotent_on_identical_models():
    m = tiny_model(11)
    out = fedavg_aggregate(m, np.array([m.params] * 3), [1.0, 2.0, 9.0])
    assert np.array_equal(out.params, m.params)


def test_fedavg_single_model_identity():
    m = tiny_model(12)
    out = fedavg_aggregate(m, m.params[None].copy(), [5.0])
    assert np.array_equal(out.params, m.params)


def test_fedavg_rejects_empty_and_incompatible():
    m = tiny_model(0)
    with pytest.raises(ValueError):
        fedavg_aggregate(m, np.empty((0, m.params.size)), [])
    with pytest.raises(ValueError):
        fedavg_aggregate(m, np.zeros((2, m.params.size + 1)), [1.0, 1.0])


def test_pseudo_gradient_definition():
    template = tiny_model(13)
    size = template.params.size
    g = template.with_params(np.concatenate([[1.0, 1.0], np.zeros(size - 2)]))
    a = template.with_params(np.concatenate([[2.0, 0.0], np.zeros(size - 2)]))
    delta = pseudo_gradient(g, a)
    assert delta[0] == 1.0 and delta[1] == -1.0
    assert np.all(delta[2:] == 0.0)
    assert np.all(pseudo_gradient(g, g) == 0.0)


def test_fedopt_adam_moves_along_delta():
    model = tiny_model(14)
    delta = np.ones(model.params.size)
    out = fedopt_step(model, delta, adam_state(0.1))
    moved = out.params - model.params
    assert np.allclose(moved, 0.1, atol=1e-7)


def test_fedopt_zero_delta_first_step_noop():
    model = tiny_model(15)
    out = fedopt_step(model, np.zeros(model.params.size), adam_state(0.1))
    assert np.array_equal(out.params, model.params)


def test_fedopt_amsgrad_first_step_equals_adam():
    model = tiny_model(16)
    delta = np.random.default_rng(4).standard_normal(model.params.size)
    a = fedopt_step(model, delta, adam_state(0.05))
    from fedsvm.optim import amsgrad_state
    b = fedopt_step(model, delta, amsgrad_state(0.05))
    assert np.array_equal(a.params, b.params)


# ---------------------------------------------------------------------------
# Cosine spread-out regularizer
# ---------------------------------------------------------------------------

def test_fedaws_orthogonal_rows_no_change():
    w = np.eye(3)
    loss, grad = fedaws_penalty(w)
    assert loss == 0.0 and np.all(grad == 0.0)
    out = fedaws_regularize(w, adam_state(0.1))
    assert np.array_equal(out, w)


def test_fedaws_identical_rows_pair_loss_one():
    w = np.array([[1.0, 0.0], [1.0, 0.0]])
    loss, _ = fedaws_penalty(w)
    assert loss == pytest.approx(1.0, abs=1e-12)


def test_fedaws_zero_row_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        fedaws_penalty(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_fedaws_gradient_matches_finite_differences():
    rng = np.random.default_rng(20)
    checked = 0
    while checked < 5:
        w = rng.standard_normal((4, 3))
        norms = np.linalg.norm(w, axis=1)
        cosines = (w @ w.T) / np.outer(norms, norms)
        off = cosines[~np.eye(4, dtype=bool)]
        if np.any(np.abs(off) < 1e-2):
            continue  # keep away from the hinge kink
        _, grad = fedaws_penalty(w)
        fd = finite_difference_gradient(
            lambda flat: fedaws_penalty(flat.reshape(4, 3))[0], w.ravel())
        assert relative_error(grad.ravel(), fd) < 1e-5
        checked += 1


# ---------------------------------------------------------------------------
# SVM-margin pieces
# ---------------------------------------------------------------------------

def test_spreadout_equal_projections_give_max_term():
    w = np.array([[1.0, 0.0], [1.0, 0.0]])
    loss, _ = spreadout_loss(w, np.array([[1.0, 0.0]]))
    assert loss == pytest.approx(1.0, abs=1e-12)


def test_spreadout_unit_variance_distance_gives_inv_e():
    h = np.array([2.0, 0.0])
    # Projection difference squared equal to 2|h|^2 makes the pair term 1/e:
    # the rows differ by sqrt(2) along the normal direction.
    w = np.array([[np.sqrt(2.0) / 2.0, 0.0], [-np.sqrt(2.0) / 2.0, 0.0]])
    loss, _ = spreadout_loss(w, h[None])
    assert loss == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_spreadout_zero_normal_rejected():
    with pytest.raises(ValueError, match=r"^zero-norm hyperplane normal for pair \(0, 2\)$"):
        spreadout_loss(np.eye(3), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_spreadout_gradient_matches_finite_differences():
    rng = np.random.default_rng(30)
    k, d = 4, 3
    normals = rng.standard_normal((k * (k - 1) // 2, d))
    for _ in range(5):
        w = rng.standard_normal((k, d))
        _, grad = spreadout_loss(w, normals)
        fd = finite_difference_gradient(
            lambda flat: spreadout_loss(flat.reshape(k, d), normals)[0], w.ravel())
        assert relative_error(grad.ravel(), fd) < 1e-5


def fake_binary(alphas):
    return BinarySvmModel(normal=np.zeros(1), bias=0.0, alphas=np.asarray(alphas),
                          support_indices=tuple(np.flatnonzero(np.asarray(alphas) > 1e-8)),
                          slacks=np.zeros(len(alphas)), primal_value=0.0,
                          dual_value=0.0, duality_gap=0.0, converged=True, sweeps=1)


def test_selective_aggregate_weighted_mean_of_support_rows():
    # Clients 0..3 with sizes 2, 1, 2, 3. In class 0 only clients 1 and 3
    # support the single pair problem, with embeddings 0 and 4; in class 1
    # only client 0, with embedding -1.
    embeddings = np.array([[[9.0], [0.0], [9.0], [4.0]],
                           [[-1.0], [5.0], [5.0], [5.0]]])
    alphas = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0])  # class 0, then class 1
    model = fake_binary(alphas)
    ovo = OvoSvm(embeddings, np.array([2.0, 1.0, 2.0, 3.0]), model.normal[None],
                 alphas[None] > 0, {(0, 1): model})
    w, counts = selective_aggregate(ovo)
    assert w[0, 0] == pytest.approx(3.0, abs=1e-12)
    assert w[1, 0] == -1.0
    assert counts == (2, 1)


def test_selective_aggregate_single_client_keeps_rows():
    embeddings = {0: [(np.array([1.0, 2.0]), 4.0)], 1: [(np.array([-1.0, 0.5]), 4.0)]}
    ovo = fit_ovo(embeddings, 1.0)
    w, counts = selective_aggregate(ovo)
    assert np.array_equal(w, np.array([[1.0, 2.0], [-1.0, 0.5]]))
    assert counts == (1, 1)


def test_selective_aggregate_all_svs_equal_sizes_is_plain_mean():
    rng = np.random.default_rng(40)
    rows0 = [rng.standard_normal(2) for _ in range(3)]
    rows1 = [r + np.array([5.0, 0.0]) for r in (rng.standard_normal(2) for _ in range(3))]
    embeddings = {0: [(r, 2.0) for r in rows0], 1: [(r, 2.0) for r in rows1]}
    ovo = fit_ovo(embeddings, 1e-6)  # vanishing penalty makes every point a support vector
    w, counts = selective_aggregate(ovo)
    assert counts == (3, 3)
    from fedsvm.numerics import weighted_mean
    assert np.array_equal(w[0], weighted_mean(rows0, [2.0, 2.0, 2.0]))
    assert np.array_equal(w[1], weighted_mean(rows1, [2.0, 2.0, 2.0]))


def test_spreadout_regularize_strictly_decreases_loss():
    rng = np.random.default_rng(41)
    embeddings = {k: [(rng.standard_normal(3) + 3.0 * np.eye(3)[k], 1.0),
                      (rng.standard_normal(3) + 3.0 * np.eye(3)[k], 1.0)]
                  for k in range(3)}
    ovo = fit_ovo(embeddings, 1.0)
    w, _ = selective_aggregate(ovo)
    for steps in (1, 5, 10):
        _, losses = spreadout_regularize(w, ovo, adam_state(1e-3), steps)
        assert len(losses) == steps
        assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_penalty_schedule_values():
    sched = StrategyConfig(svm_penalty_initial=1.0, svm_penalty_floor=0.01,
                           svm_penalty_schedule=DECREASING)
    assert penalty_value(sched, 0, 100) == 1.0
    assert penalty_value(sched, 99, 100) == pytest.approx(0.01)
    values = [penalty_value(sched, t, 100) for t in range(100)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        penalty_value(sched, 100, 100)
    inc = StrategyConfig(svm_penalty_initial=1.0, svm_penalty_floor=0.01,
                         svm_penalty_schedule=INCREASING)
    inc_values = [penalty_value(inc, t, 100) for t in range(100)]
    assert inc_values == values[::-1]


# ---------------------------------------------------------------------------
# Round engine
# ---------------------------------------------------------------------------

def small_dataset(seed=0, clients=6, classes=3, dim=4):
    return generate_synthetic(SyntheticSpec(
        num_clients=clients, num_classes=classes, feature_dim=dim,
        samples_per_client_mean=15, samples_per_client_spread=5,
        dirichlet_alpha=0.5, class_separation=3.0, noise_sigma=0.5, seed=seed))


def make_server(name="fedavg", total_rounds=1, **strategy):
    return ServerState.create(StrategyConfig(name=name, **strategy), total_rounds)


def test_run_round_single_client_fedavg_equals_client_model():
    dataset = small_dataset(clients=2)
    assert len(dataset.train_client_indices) == 1
    n = dataset.train_client_indices[0]
    model = init_model(dataset.feature_dim, [5], 3, dataset.num_classes,
                       np.random.default_rng(0))
    cfg = ClientConfig(epochs=1, batch_size=8, learning_rate=0.1)
    new_model, rec = run_round(0, model, dataset, make_server(), cfg, 1, seed=3)

    expected, _ = client_update(model, [dataset.clients[n]], cfg, 3, 0, (n,))
    assert np.array_equal(new_model.params, expected[0])
    assert rec.selected_clients == (n,)


def test_run_round_deterministic_given_seed():
    dataset = small_dataset(1)
    model = init_model(dataset.feature_dim, [5], 3, dataset.num_classes,
                       np.random.default_rng(1))
    cfg = ClientConfig(epochs=1, batch_size=8, learning_rate=0.05)
    outs = []
    for _ in range(2):
        server = make_server("svm_margin", total_rounds=3)
        m = model.copy()
        recs = []
        for t in range(3):
            m, rec = run_round(t, m, dataset, server, cfg, 3, seed=7)
            recs.append((rec.train_loss, rec.lam, rec.sv_counts, rec.selected_clients))
        outs.append((m.params, recs))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert outs[0][1] == outs[1][1]


def test_fedopt_sgd_unit_rate_is_bitwise_fedavg():
    dataset = small_dataset(2)
    model = init_model(dataset.feature_dim, [5], 3, dataset.num_classes,
                       np.random.default_rng(2))
    cfg = ClientConfig(epochs=1, batch_size=8, learning_rate=0.05)
    m_avg, m_opt = model.copy(), model.copy()
    server_avg = make_server()
    server_opt = make_server("fedopt", server_optimizer=SGD, server_learning_rate=1.0)
    for t in range(5):
        m_avg, _ = run_round(t, m_avg, dataset, server_avg, cfg, 3, seed=11)
        m_opt, _ = run_round(t, m_opt, dataset, server_opt, cfg, 3, seed=11)
        assert np.array_equal(m_avg.params, m_opt.params)


def test_svm_margin_encoder_matches_fedavg_encoder():
    dataset = small_dataset(3)
    model = init_model(dataset.feature_dim, [5], 3, dataset.num_classes,
                       np.random.default_rng(3))
    cfg = ClientConfig(epochs=1, batch_size=8, learning_rate=0.05)
    server = make_server("svm_margin")
    m_svm, rec = run_round(0, model.copy(), dataset, server, cfg, 3, seed=13)
    m_avg, _ = run_round(0, model.copy(), dataset, make_server(), cfg, 3, seed=13)
    for (w1, b1), (w2, b2) in zip(m_svm.encoder, m_avg.encoder):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    assert rec.lam == 1.0
    assert rec.sv_counts is not None and len(rec.sv_counts) == dataset.num_classes


def test_svm_margin_degenerate_equals_fedavg_logits():
    # Vanishing penalty makes every embedding a support vector; with equal
    # dataset sizes and no regularizer steps the logit rows reduce to the
    # plain weighted mean.
    dataset = generate_synthetic(SyntheticSpec(
        num_clients=6, num_classes=3, feature_dim=4,
        samples_per_client_mean=12, samples_per_client_spread=0,
        dirichlet_alpha=0.5, class_separation=3.0, noise_sigma=0.5, seed=9))
    model = init_model(dataset.feature_dim, [5], 3, dataset.num_classes,
                       np.random.default_rng(4))
    cfg = ClientConfig(epochs=1, batch_size=8, learning_rate=0.05)
    server = make_server("svm_margin", total_rounds=4, svm_penalty_initial=1e-6,
                         svm_penalty_floor=1e-6, reg_steps=0)
    server_avg = make_server()
    m_svm, m_avg = model.copy(), model.copy()
    for t in range(4):
        m_svm, rec = run_round(t, m_svm, dataset, server, cfg, 3, seed=17)
        m_avg, _ = run_round(t, m_avg, dataset, server_avg, cfg, 3, seed=17)
        assert rec.sv_counts == (3, 3, 3)
        assert np.array_equal(m_svm.logit_matrix, m_avg.logit_matrix)
        assert np.array_equal(m_svm.params, m_avg.params)


def test_svm_stage_failure_names_its_round(monkeypatch):
    # A failure after the SVM fit, in selective aggregation, carries the
    # round and the cause.
    import fedsvm.strategies as strategies

    def no_support(svm):
        raise ValueError("class 0 has no support vectors")

    monkeypatch.setattr(strategies, "selective_aggregate", no_support)
    dataset = generate_synthetic(SyntheticSpec(num_clients=10, num_classes=2, seed=0))
    model = init_model(dataset.feature_dim, [8], 2, 2, np.random.default_rng(0))
    server = make_server("svm_margin", total_rounds=4)
    with pytest.raises(RuntimeError, match="round 3: class 0 has no support vectors"):
        run_round(3, model, dataset, server, ClientConfig(learning_rate=0.0), 1, seed=0)


def test_underflowing_gram_names_its_round_and_pair():
    # Every squared embedding norm underflows to 0, so the kernel's
    # curvature floor would be 0: the fit must fail by name instead of
    # dividing by zero.
    dataset = generate_synthetic(SyntheticSpec(num_clients=10, num_classes=2, seed=0))
    model = init_model(dataset.feature_dim, [8], 2, 2, np.random.default_rng(0))
    model.logit_matrix[...] = np.diag([1e-170, 1e-170])
    server = make_server("svm_margin", total_rounds=4)
    with pytest.raises(RuntimeError, match=r"^round 3: SVM fit failed: pair \(0, 1\): "
                                           r"Gram matrix underflows"):
        run_round(3, model, dataset, server, ClientConfig(learning_rate=0.0), 2, seed=0)


def test_sampling_frequencies_are_uniform():
    counts = np.zeros(10)
    for t in range(10_000):
        rng = np.random.default_rng(np.random.SeedSequence([123, 1, t]))
        for i in sample_clients(range(10), 3, rng):
            counts[i] += 1
    freq = counts / 10_000
    assert np.all(freq >= 0.27) and np.all(freq <= 0.33)


def test_sample_clients_rejects_oversampling():
    with pytest.raises(ValueError):
        sample_clients(range(3), 4, np.random.default_rng(0))


def test_moon_round_uses_previous_model_store():
    dataset = small_dataset(5)
    model = init_model(dataset.feature_dim, [5], 3, dataset.num_classes,
                       np.random.default_rng(5))
    cfg = ClientConfig(epochs=1, batch_size=8, learning_rate=0.05,
                       variant=MOON, moon_coeff=1.0)
    server = make_server()
    m = model.copy()
    for t in range(2):
        m, _ = run_round(t, m, dataset, server, cfg, 3, seed=19)
    assert server.prev_models  # clients trained this run are remembered


def test_moon_previous_models_do_not_hold_the_round_buffer(monkeypatch):
    import fedsvm.strategies as strategies

    buffers = []

    def recording_client_update(*args, **kwargs):
        params, losses = client_update(*args, **kwargs)
        buffers.append(params)
        return params, losses

    monkeypatch.setattr(strategies, "client_update", recording_client_update)
    dataset = small_dataset(5)
    model = init_model(dataset.feature_dim, [5], 3, dataset.num_classes,
                       np.random.default_rng(5))
    cfg = ClientConfig(learning_rate=0.05, variant=MOON)
    server = make_server()
    run_round(0, model, dataset, server, cfg, 3, seed=19)
    assert len(server.prev_models) == 3
    for prev in server.prev_models.values():
        assert not np.shares_memory(prev.params, buffers[0])
        assert prev.params.base is None


def test_empty_client_fails_naming_its_round_and_client():
    from types import SimpleNamespace

    dataset = small_dataset(8)
    clients = list(dataset.clients)
    clients[dataset.train_client_indices[1]] = (np.zeros((0, dataset.feature_dim)),
                                                np.zeros(0, dtype=np.int64))
    broken = SimpleNamespace(clients=clients,
                             train_client_indices=dataset.train_client_indices)
    model = init_model(dataset.feature_dim, [5], 3, dataset.num_classes,
                       np.random.default_rng(8))
    n = dataset.train_client_indices[1]
    with pytest.raises(ValueError, match=f"round 6, client {n}: empty dataset"):
        run_round(6, model, broken, make_server(), ClientConfig(),
                  len(dataset.train_client_indices), seed=0)


@pytest.mark.parametrize("name", ["fedaws", "svm_margin"])
def test_round_rewrites_only_its_own_aggregate(name):
    # These strategies rewrite the logit rows of the averaged model in
    # place; the caller's global model and the client models that moon
    # keeps must stay untouched.
    dataset = small_dataset(6)
    model = init_model(dataset.feature_dim, [5], 3, dataset.num_classes,
                       np.random.default_rng(6))
    cfg = ClientConfig(epochs=1, batch_size=8, learning_rate=0.05,
                       variant=MOON, moon_coeff=1.0)
    server = make_server(name)
    before = model.params.copy()
    new_model, rec = run_round(0, model, dataset, server, cfg, 3, seed=23)
    assert np.array_equal(model.params, before)
    assert set(server.prev_models) == set(rec.selected_clients)
    selected = rec.selected_clients
    expected, _ = client_update(model, [dataset.clients[n] for n in selected], cfg, 23, 0,
                                selected)
    for n, row in zip(selected, expected):
        trained = server.prev_models[n]
        assert not np.shares_memory(trained.params, new_model.params)
        assert np.array_equal(trained.params, row)


def test_reset_server_state_restarts_the_server_optimizer(monkeypatch):
    # With the reset on, every round's server step is the first step of a
    # fresh optimizer; the first round matches the run without the reset.
    import fedsvm.strategies as strategies

    steps = []

    def counting_fedopt_step(global_model, delta, server_state):
        new_model = fedopt_step(global_model, delta, server_state)
        steps.append(server_state.step_count)
        return new_model

    monkeypatch.setattr(strategies, "fedopt_step", counting_fedopt_step)
    dataset = small_dataset(7)
    model = init_model(dataset.feature_dim, [5], 3, dataset.num_classes,
                       np.random.default_rng(7))
    cfg = ClientConfig(epochs=1, batch_size=8, learning_rate=0.05)
    runs = {}
    for reset in (False, True):
        server = make_server("fedadam", total_rounds=3, reset_server_state=reset)
        m, steps[:] = model.copy(), []
        runs[reset] = []
        for t in range(3):
            m, _ = run_round(t, m, dataset, server, cfg, 3, seed=29)
            runs[reset].append(m.params.copy())
        assert steps == ([1, 1, 1] if reset else [1, 2, 3])
    assert np.array_equal(runs[True][0], runs[False][0])
    assert not np.array_equal(runs[True][1], runs[False][1])
