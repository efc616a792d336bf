"""The server's SVM stage on stacked arrays against its per-pair and
per-class loops.

``selective_aggregate`` must equal ``weighted_mean`` over each class's
support rows, and ``spreadout_regularize`` the per-pair loop of
``oracles.spreadout_loss``, bit for bit, on rounds shaped like the
``svm_margin`` benchmark workloads.
"""

import numpy as np
import pytest

from fedsvm.numerics import weighted_mean
from fedsvm.optim import ADAM, OptimizerState, optimizer_step
from fedsvm.strategies import selective_aggregate, spreadout_loss, spreadout_regularize
from fedsvm.svm import fit_round

import oracles
from test_solver_lock import LATE_LAMBDA, SHAPES, SPREADS, round_embeddings

ROUNDS = [(shape, lam, seed, spread) for shape in sorted(SHAPES)
          for lam in (1.0, LATE_LAMBDA) for seed, spread in enumerate(SPREADS)]


def fitted_round(shape, lam, seed, spread):
    clients, dim = SHAPES[shape]
    embeddings = round_embeddings(clients, dim, spread, seed)
    return embeddings, fit_round(embeddings, lam)


def test_the_rounds_include_a_class_whose_first_support_vector_is_not_client_0():
    firsts = set()
    for case in ROUNDS:
        _, svm = fitted_round(*case)
        firsts.update(oracles.support_clients(svm, k)[0] for k in range(svm.num_classes))
    assert firsts - {0}


@pytest.mark.parametrize("shape,lam,seed,spread", ROUNDS)
def test_selective_aggregate_is_weighted_mean_of_support_rows(shape, lam, seed, spread):
    embeddings, svm = fitted_round(shape, lam, seed, spread)
    w, counts = selective_aggregate(svm)
    for k in range(svm.num_classes):
        rows = oracles.support_clients(svm, k)
        assert svm.class_support()[k].nonzero()[0].tolist() == rows
        assert counts[k] == len(rows)
        want = weighted_mean([embeddings[k][i][0] for i in rows],
                             [embeddings[k][i][1] for i in rows])
        assert w[k].tobytes() == want.tobytes(), k


@pytest.mark.parametrize("reg_steps", [1, 5])
@pytest.mark.parametrize("shape,lam,seed,spread", ROUNDS)
def test_spreadout_regularize_equals_the_per_pair_loop(shape, lam, seed, spread, reg_steps):
    _, svm = fitted_round(shape, lam, seed, spread)
    start, _ = selective_aggregate(svm)
    normals = {pair: svm.models[pair].normal for pair in svm.pairs()}
    want, want_losses = start, []
    state = OptimizerState(ADAM, 1e-2)
    for _ in range(reg_steps):
        loss, grad = oracles.spreadout_loss(want, normals)
        want_losses.append(loss)
        want = optimizer_step(want, grad, state)
    got, losses = spreadout_regularize(start, svm, OptimizerState(ADAM, 1e-2), reg_steps)
    assert np.array(losses).tobytes() == np.array(want_losses).tobytes()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape,lam,seed,spread", ROUNDS)
def test_spreadout_loss_equals_the_per_pair_loop(shape, lam, seed, spread):
    _, svm = fitted_round(shape, lam, seed, spread)
    w, _ = selective_aggregate(svm)
    normals = {pair: svm.models[pair].normal for pair in svm.pairs()}
    loss, grad = spreadout_loss(w, svm.normals)
    want_loss, want_grad = oracles.spreadout_loss(w, normals)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()
