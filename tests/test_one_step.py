"""The one-step round path against the general one.

When every sampled client takes exactly one step from the global model
(one epoch, data within one batch, not the contrastive variant),
``run_round`` averages the encoder from one weighted backward pass,
``strategies.one_step_update``, instead of ``client_update`` followed by
``fedavg_aggregate``. The two differ only in rounding: the aggregate
must agree within ``1e-12 * max(1, |theta|_inf)`` on every strategy and
edge shape, and every cohort outside the path must keep the general
path's bits.
"""

from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fedsvm.strategies as strategies
from fedsvm.config import MOON, PROX, ClientConfig, StrategyConfig, parse_config
from fedsvm.data import generate_synthetic
from fedsvm.harness import run_experiment
from fedsvm.model import init_model, loss_and_gradient
from fedsvm.strategies import (
    ServerState,
    client_update,
    fedavg_aggregate,
    one_step_update,
    run_round,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = parse_config(CONFIGS / "synthetic_fedavg.ini")


def tolerance(model):
    return 1e-12 * max(1.0, np.abs(model.params).max())


def general_path(model, data, config, seed, t, clients):
    """``client_update`` then ``fedavg_aggregate``: the aggregate, the
    clients' logit rows and their losses."""
    params, losses = client_update(model, data, config, seed, t, clients)
    aggregate = fedavg_aggregate(model, params, [labels.size for _, labels in data])
    return aggregate, params[:, -model.logit_matrix.size:], losses


def assert_paths_agree(model, data, config, seed, t, clients, average_logits=True):
    aggregate, rows, losses = one_step_update(model, data, config, seed, t, clients,
                                              average_logits=average_logits)
    want_aggregate, want_rows, want_losses = general_path(model, data, config, seed, t,
                                                          clients)
    # Without the logit average the aggregate's logit matrix is the
    # global model's, which the strategy replaces: only its encoder is read.
    read = slice(None if average_logits else model.params.size - model.logit_matrix.size)
    assert (np.abs(aggregate.params[read] - want_aggregate.params[read]).max()
            <= tolerance(model))
    if not average_logits:
        assert np.array_equal(aggregate.logit_matrix, model.logit_matrix)
    assert np.abs(rows - want_rows).max() <= tolerance(model)
    assert np.abs(losses - want_losses).max() <= 1e-12 * max(1.0, np.abs(want_losses).max())


def server(name, total_rounds=6):
    return ServerState.create(StrategyConfig(name=name), total_rounds)


@pytest.mark.parametrize("name, variant", [
    ("fedavg", "vanilla"), ("fedadam", "vanilla"), ("fedaws", "vanilla"),
    ("fedavg", PROX), ("svm_margin", "vanilla"),
], ids=["fedavg", "fedadam", "fedaws", "fedprox", "svm_margin"])
def test_one_step_aggregate_matches_the_general_path(monkeypatch, name, variant):
    # Six rounds of the shipped fixture; in every round, what the strategy
    # reads of the one-step result is checked against the general path
    # from the same global model: the whole aggregate, or for svm_margin,
    # which replaces the logit matrix, its encoder and the clients'
    # logit rows.
    checked = []

    def checking(model, data, config, seed, t, clients, **kwargs):
        assert kwargs.get("average_logits", True) == (name != "svm_margin")
        assert_paths_agree(model, data, config, seed, t, clients, **kwargs)
        checked.append(t)
        return one_step_update(model, data, config, seed, t, clients, **kwargs)

    monkeypatch.setattr(strategies, "one_step_update", checking)
    dataset = generate_synthetic(SHIPPED.dataset, 0)
    model = init_model(dataset.feature_dim, [SHIPPED.model.hidden_width],
                       SHIPPED.model.embedding_dim, dataset.num_classes,
                       np.random.default_rng(0))
    config = replace(SHIPPED.client, variant=variant)
    state = server(name)
    for t in range(6):
        model, _ = run_round(t, model, dataset, state, config, SHIPPED.clients_per_round, 0)
    assert checked == list(range(6))


def cohort(clients, classes, dim, seed, largest=64):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, largest + 1, size=clients)
    return [(rng.standard_normal((n, dim)), rng.integers(0, classes, size=n))
            for n in sizes]


@pytest.mark.parametrize("clients, classes, dim, embedding", [
    (1, 4, 5, 3), (8, 4, 5, 3), (32, 4, 5, 3), (8, 2, 5, 3), (8, 4, 1, 1),
], ids=["C1", "C8", "C32", "K2", "d1"])
def test_one_step_agrees_with_the_general_path_at_edge_shapes(clients, classes, dim,
                                                              embedding):
    model = init_model(dim, [6], embedding, classes, np.random.default_rng(clients))
    data = cohort(clients, classes, dim, seed=clients + classes)
    ids = tuple(range(3, 3 + 2 * clients, 2))
    for rate in (0.1, 5.0):
        assert_paths_agree(model, data, ClientConfig(learning_rate=rate), 4, 2, ids)


def test_one_step_at_rate_zero_returns_the_global_model():
    model = init_model(5, [6], 3, 4, np.random.default_rng(0))
    aggregate, rows, losses = one_step_update(model, cohort(8, 4, 5, 1),
                                              ClientConfig(learning_rate=0.0), 0, 0,
                                              tuple(range(8)))
    assert np.array_equal(aggregate.params, model.params)
    assert all(np.array_equal(row, model.logit_matrix.ravel()) for row in rows)
    assert np.all(np.isfinite(losses))
    assert not np.shares_memory(aggregate.params, model.params)


def test_fedprox_one_step_is_bitwise_fedavg():
    dataset = generate_synthetic(SHIPPED.dataset, 1)
    start = init_model(dataset.feature_dim, [16], 8, dataset.num_classes,
                       np.random.default_rng(1))
    models = {}
    for variant in ("vanilla", PROX):
        model, state = start, server("fedavg")
        config = replace(SHIPPED.client, variant=variant, prox_mu=0.5)
        for t in range(4):
            model, _ = run_round(t, model, dataset, state, config, 8, 5)
        models[variant] = model.params
    assert np.array_equal(models["vanilla"], models[PROX])


def refuse(*args, **kwargs):
    raise AssertionError("this cohort must not take the one-step path")


@pytest.mark.parametrize("shape", ["big_client", "two_epochs", "moon"])
def test_cohorts_outside_the_path_keep_the_general_bits(monkeypatch, shape):
    monkeypatch.setattr(strategies, "one_step_update", refuse)
    dataset = generate_synthetic(SHIPPED.dataset, 2)
    config = SHIPPED.client
    if shape == "big_client":
        # Every client gets one epoch, but one of them is over the batch.
        config = replace(config, batch_size=30)
    elif shape == "two_epochs":
        config = replace(config, epochs=2)
    else:
        config = replace(config, variant=MOON)
    model = init_model(dataset.feature_dim, [16], 8, dataset.num_classes,
                       np.random.default_rng(2))
    state = server("fedavg")
    for t in range(3):
        selected = strategies.sample_clients(dataset.train_client_indices, 8,
                                             strategies._sampling_rng(9, t))
        data = [dataset.clients[n] for n in selected]
        if shape == "big_client":
            sizes = [labels.size for _, labels in data]
            assert max(sizes) > config.batch_size and min(sizes) <= config.batch_size
        prevs = [state.prev_models.get(n, model) for n in selected] if shape == "moon" else None
        params, _ = client_update(model, data, config, 9, t, selected, prevs)
        want = fedavg_aggregate(model, params, [labels.size for _, labels in data])
        model, _ = run_round(t, model, dataset, state, config, 8, 9)
        assert np.array_equal(model.params, want.params), t


# ---------------------------------------------------------------------------
# Failures name their round and client on both paths
# ---------------------------------------------------------------------------

PATHS = {"one_step": ClientConfig(), "general": ClientConfig(epochs=2)}


def broken_run(config, break_client):
    dataset = generate_synthetic(SHIPPED.dataset, 3)
    clients = list(dataset.clients)
    n = dataset.train_client_indices[1]
    clients[n] = break_client(clients[n])
    broken = SimpleNamespace(clients=clients, train_client_indices=dataset.train_client_indices)
    model = init_model(dataset.feature_dim, [8], 4, dataset.num_classes,
                       np.random.default_rng(3))
    count = len(dataset.train_client_indices)
    return n, lambda: run_round(6, model, broken, server("fedavg"), config, count, 0)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_empty_client_is_named_on_both_paths(path):
    n, run = broken_run(PATHS[path], lambda client: (client[0][:0], client[1][:0]))
    with pytest.raises(ValueError, match=f"^round 6, client {n}: empty dataset$"):
        run()


def with_nan(client):
    features = client[0].copy()
    features[0, 0] = np.nan
    return features, client[1]


@pytest.mark.parametrize("path", sorted(PATHS))
def test_nan_feature_is_named_on_both_paths(path):
    n, run = broken_run(PATHS[path], with_nan)
    with pytest.raises(ValueError, match=f"^round 6, client {n}: non-finite loss$"):
        run()


MARK = 1234.5


def with_mark(client):
    features = client[0].copy()
    features[0, 0] = MARK
    return features, client[1]


@pytest.mark.parametrize("path", sorted(PATHS))
def test_non_finite_gradient_is_named_on_both_paths(monkeypatch, path):
    # The marked client's gradient is made infinite while its loss stays
    # finite. The one-step path sees only the cohort sum, so it names the
    # client through the general path.
    def poisoned(model, inputs, labels, bounds, out, *args, **kwargs):
        losses = loss_and_gradient(model, inputs, labels, bounds, out, *args, **kwargs)
        hit = [s for s, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
               if np.any(inputs[a:b, 0] == MARK)]
        if hit and kwargs.get("weights") is None:
            out[hit, 0] = np.inf
        elif hit:
            out[0] = np.inf
        return losses

    monkeypatch.setattr(strategies, "loss_and_gradient", poisoned)
    n, run = broken_run(PATHS[path], with_mark)
    with pytest.raises(ValueError, match=f"^round 6, client {n}: non-finite gradient$"):
        run()


# ---------------------------------------------------------------------------
# The benchmark's workloads take the path
# ---------------------------------------------------------------------------

def svm_c32(cfg):
    return replace(cfg, clients_per_round=32, model=replace(cfg.model, embedding_dim=64))


WORKLOADS = {
    "fedavg": ("synthetic_fedavg.ini", lambda cfg: cfg),
    "fedadam": ("synthetic_fedavg.ini",
                lambda cfg: replace(cfg, strategy=StrategyConfig(name="fedadam"))),
    "fedams": ("synthetic_fedavg.ini",
               lambda cfg: replace(cfg, strategy=StrategyConfig(name="fedams"))),
    "fedaws": ("synthetic_fedavg.ini",
               lambda cfg: replace(cfg, strategy=StrategyConfig(name="fedaws"))),
    "fedprox": ("synthetic_fedavg.ini",
                lambda cfg: replace(cfg, client=replace(cfg.client, variant=PROX))),
    "svm_c8": ("synthetic_svm_margin.ini", lambda cfg: cfg),
    "svm_c32": ("synthetic_svm_margin.ini", svm_c32),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_shipped_workloads_never_train_through_client_update(tmp_path, monkeypatch,
                                                            workload):
    # Every shipped workload but moon is a one-step cohort; a change that
    # sends it back to the general path fails here, not only in timings.
    def forbidden(*args, **kwargs):
        raise AssertionError("client_update ran on a one-step workload")

    monkeypatch.setattr(strategies, "client_update", forbidden)
    name, shape = WORKLOADS[workload]
    cfg = shape(parse_config(CONFIGS / name))
    result = run_experiment(replace(cfg, rounds=1, seeds=(0,)), tmp_path)
    assert result.failed_seeds == []
    assert [row.round for row in result.seed_results[0].rows] == [1]
