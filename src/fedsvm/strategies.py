"""Federated round engine: client update variants (vanilla SGD, proximal,
contrastive) and server aggregation strategies (weighted averaging,
adaptive pseudo-gradient optimizers, cosine spread-out regularization,
and SVM-guided selective aggregation with max-margin spread-out
regularization on the class embeddings).

A round samples clients, trains them as one cohort, each on its own
data starting from the global model (every step is one
``model.loss_and_gradient`` call per group of clients at the same
parameters, one segment per client), then applies the configured
server strategy. The engine
runs from the [client] and [strategy] config sections themselves,
``ClientConfig`` and ``StrategyConfig`` of ``config``. Strategy state (server
optimizer moments, per-client previous models for the contrastive
variant) lives in a ``ServerState`` owned by the caller.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import (FEDAVG, FEDAWS, FEDOPT, INCREASING, MOON, PROX, SVM_MARGIN,
                     ClientConfig, StrategyConfig)
from .model import Model, encode, loss_and_gradient
from .numerics import Tensor, check_finite, weighted_mean
from .optim import (
    AMSGRAD,
    SGD,
    OptimizerState,
    adam_state,
    amsgrad_state,
    optimizer_step,
    sgd_state,
)
from .svm import OvoSvm, class_pairs, fit_round

log = logging.getLogger(__name__)


def penalty_value(strategy: StrategyConfig, t: int, total_rounds: int) -> float:
    """Slack-penalty coefficient for round ``t`` of ``total_rounds``;
    decreasing mode is ``max(floor, initial * (1 - t/T))``."""
    if t < 0 or t >= total_rounds:
        raise ValueError(f"round {t} outside [0, {total_rounds})")
    if strategy.svm_penalty_schedule == INCREASING:
        t = total_rounds - 1 - t
    return max(strategy.svm_penalty_floor,
               strategy.svm_penalty_initial * (1.0 - t / total_rounds))


def _make_server_optimizer(strategy: StrategyConfig) -> OptimizerState | None:
    """The server step's optimizer; fedavg has none."""
    if strategy.kind == FEDAVG:
        return None
    lr = strategy.learning_rate
    if strategy.optimizer == SGD:
        log.warning("server optimizer is SGD: degenerate averaging-like update")
        return sgd_state(lr)
    if strategy.optimizer == AMSGRAD:
        return amsgrad_state(lr)
    return adam_state(lr)


@dataclass
class ServerState:
    """Everything the round loop owns across rounds for one run."""

    strategy: StrategyConfig
    total_rounds: int                   # the run length the penalty decays over
    opt: OptimizerState | None = None   # over the model (fedopt) or the logit matrix
    prev_models: dict[int, Model] = field(default_factory=dict)

    @classmethod
    def create(cls, strategy: StrategyConfig, total_rounds: int) -> "ServerState":
        return cls(strategy, total_rounds, _make_server_optimizer(strategy))

    def maybe_reset(self):
        if self.strategy.reset_server_state:
            self.opt = _make_server_optimizer(self.strategy)


@dataclass
class RoundRecordData:
    """Per-round facts the harness turns into a CSV row."""

    train_loss: float
    selected_clients: tuple[int, ...]
    lam: float | None = None
    sv_counts: tuple[int, ...] | None = None
    svm: OvoSvm | None = None


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------

def moon_embedding_gradient(z: Tensor, z_g: Tensor, z_p: Tensor, temperature: float,
                            bounds) -> tuple[Tensor, Tensor]:
    """Contrastive embedding loss against the global (positive, ``z_g``)
    and the previous local (negative, ``z_p``) embeddings: the mean loss
    of each segment (see ``model.loss_and_gradient``) and the gradient
    w.r.t. ``z``, each row divided by its segment's length.

    Per sample the loss is ``-log softmax_g(cos(z, z_g)/tau, cos(z, z_p)/tau)``
    where only ``z`` (the current model's embedding) carries gradient.
    """
    sizes = np.diff(bounds)
    nz = np.linalg.norm(z, axis=1)
    ng = np.linalg.norm(z_g, axis=1)
    npv = np.linalg.norm(z_p, axis=1)
    # A zero-norm embedding has no direction: its cosine is taken as 0 and
    # it contributes the constant uniform-choice loss with zero gradient.
    sz = np.where(nz > 0, nz, 1.0)
    sg = np.where(ng > 0, ng, 1.0)
    sp = np.where(npv > 0, npv, 1.0)
    cos_g = np.sum(z * z_g, axis=1) / (sz * sg)
    cos_p = np.sum(z * z_p, axis=1) / (sz * sp)
    a = cos_g / temperature
    b = cos_p / temperature
    top = np.maximum(a, b)
    lse = top + np.log(np.exp(a - top) + np.exp(b - top))
    losses = np.add.reduceat(lse - a, bounds[:-1]) / sizes
    p_g = np.exp(a - lse)
    p_p = np.exp(b - lse)
    dc_g = (p_g - 1.0) / temperature
    dc_p = p_p / temperature
    # d cos(z, u) / dz = u / (|z||u|) - cos * z / |z|^2
    dz = (dc_g / (sz * sg))[:, None] * z_g \
        + (dc_p / (sz * sp))[:, None] * z_p \
        - ((dc_g * cos_g + dc_p * cos_p) / (sz * sz))[:, None] * z
    dz[nz == 0] = 0.0
    dz /= np.repeat(sizes, sizes)[:, None]
    return losses, dz


def _contrast_embeddings(model: Model, global_model: Model, prev_models: Sequence[Model],
                         inputs: Tensor, z: Tensor, bounds) -> tuple[Tensor, Tensor]:
    """The global model's embeddings of ``inputs`` and, per segment, its
    previous model's; ``z`` is ``model``'s own. ``z`` serves as the
    global embedding when ``model`` is the global model, and the global
    embedding serves a previous model that is the global model."""
    z_g = z if model is global_model else encode(global_model, inputs)
    z_p = np.empty_like(z)
    for prev, a, b in zip(prev_models, bounds[:-1].tolist(), bounds[1:].tolist()):
        z_p[a:b] = z_g[a:b] if prev is global_model else encode(prev, inputs[a:b])
    return z_g, z_p


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) on 64-bit words.
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _splitmix64(z):
    """The first output of a SplitMix64 generator seeded with ``z``, a
    Python int or, wrapping, each entry of a uint64 array."""
    z = (z + _GAMMA) & _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def batch_orders(seed: int, t: int, clients: Sequence[int], sizes: Sequence[int],
                 epoch: int) -> np.ndarray:
    """The epoch's sample order of each client, client after client: a
    permutation of ``range(sizes[i])`` for ``clients[i]``.

    Each client draws a SplitMix64 stream keyed on ``(seed, t, epoch,
    client)`` and sorts its samples by their draws, so its order depends
    on those keys alone, not on which other clients were sampled, and
    the whole cohort is ordered in one pass.
    """
    key = _splitmix64(_splitmix64(_splitmix64(seed) ^ t) ^ epoch)
    keys = _splitmix64(np.uint64(key) ^ np.asarray(clients, dtype=np.uint64))
    sizes = np.asarray(sizes)
    owner = np.repeat(np.arange(sizes.size), sizes)
    offsets = np.cumsum(sizes) - sizes
    sample = np.arange(owner.size) - offsets[owner]
    draws = _splitmix64(keys[owner] + sample.astype(np.uint64) * np.uint64(_GAMMA))
    # One sort key per sample, the client in its top bits: a stable sort
    # orders each client's samples by draw, ties by sample index.
    shift = max(1, (sizes.size - 1).bit_length())
    sort_key = draws >> np.uint64(shift) | owner.astype(np.uint64) << np.uint64(64 - shift)
    return np.argsort(sort_key, kind="stable") - offsets[owner]


# Rows in one forward pass of a cohort step: the cap bounds a step's
# temporaries whatever the cohort size. A client whose batch alone is
# longer gets a pass of its own.
COHORT_ROWS = 256


def _chunks(counts: list[int]):
    """Consecutive ranges ``[lo, hi)`` of the segments with these row
    counts, each of at most ``COHORT_ROWS`` rows or a single segment."""
    lo = 0
    while lo < len(counts):
        hi, rows = lo + 1, counts[lo]
        while hi < len(counts) and rows + counts[hi] <= COHORT_ROWS:
            rows += counts[hi]
            hi += 1
        yield lo, hi
        lo = hi


def _group_gradients(model: Model, members: list[int], picks: list[np.ndarray],
                     data: Sequence[tuple[Tensor, np.ndarray]], config: ClientConfig,
                     global_model: Model, prev_models: Sequence[Model] | None,
                     grads: Tensor) -> Tensor:
    """Gradients of the cohort ``members``, all at ``model``'s parameters,
    on their batches (sample indices ``picks[c]``), into the rows of
    ``grads``; returns their losses. With ``prev_models``, the
    contrastive gradient scaled by ``moon_coeff`` joins each backward
    pass. One forward and backward runs per chunk of at most
    ``COHORT_ROWS`` rows: ``loss_and_gradient`` on the chunk's
    concatenated rows and labels, one segment per member."""
    counts = [picks[c].size for c in members]
    losses = np.empty(len(members))
    for lo, hi in _chunks(counts):
        chunk = members[lo:hi]
        x = np.concatenate([data[c][0][picks[c]] for c in chunk])
        y = np.concatenate([data[c][1][picks[c]] for c in chunk])
        moon = None
        if prev_models is not None:
            prevs = [prev_models[c] for c in chunk]

            def moon(z, bounds, x=x, prevs=prevs):
                z_g, z_p = _contrast_embeddings(model, global_model, prevs, x, z, bounds)
                _, dz = moon_embedding_gradient(z, z_g, z_p, config.moon_temperature, bounds)
                dz *= config.moon_coeff
                return dz

        losses[lo:hi] = loss_and_gradient(model, x, y, np.cumsum([0] + counts[lo:hi]),
                                          grads[lo:hi], embedding_term=moon)
    return losses


def _check_finite_rows(values: Tensor, members: list[int], clients: Sequence[int],
                       t: int, what: str) -> None:
    """Raise naming the first member whose row of ``values`` is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        c = members[int(np.argmin(finite.reshape(len(members), -1).all(axis=1)))]
        raise ValueError(f"round {t}, client {clients[c]}: non-finite {what}")


def client_update(global_model: Model, data: Sequence[tuple[Tensor, np.ndarray]],
                  config: ClientConfig, seed: int, t: int, clients: Sequence[int],
                  prev_models: Sequence[Model] | None = None) -> tuple[Tensor, Tensor]:
    """Local training of round ``t``'s sampled ``clients`` as one cohort,
    each on its own ``data`` starting from the global model, which is
    never mutated. ``prev_models`` are the contrastive variant's previous
    models, one per client (the global model when not given).

    Returns the trained parameters as a (C, P) array, row i for
    ``clients[i]``, and each client's mean batch loss.

    Each epoch walks every client's samples in its ``batch_orders``
    order, last partial batch kept. Every step runs one forward and
    backward over the batches of all clients whose parameters are the
    same vector: at the first step, and at every step when the rate is
    zero, that is the whole cohort at the global model; at later steps
    each client is a group of one. The proximal variant adds
    ``mu * (theta - theta_global)`` to every gradient, exactly zero at
    the global model; the contrastive variant adds its encoder gradient
    scaled by ``moon_coeff``. Zero-coefficient variants take the exact
    vanilla path so they are bitwise-identical to it.
    """
    sizes = [int(labels.shape[0]) for _, labels in data]
    for n, size in zip(clients, sizes):
        if size == 0:
            raise ValueError(f"round {t}, client {n}: empty dataset")
    lr = config.learning_rate
    use_prox = config.variant == PROX and config.prox_mu != 0.0
    use_moon = config.variant == MOON and config.moon_coeff != 0.0 and lr > 0
    if not use_moon:
        prev_models = None
    elif prev_models is None:
        prev_models = [global_model] * len(clients)
    theta = global_model.params

    # Every client takes the first step, which writes its whole row.
    params = np.empty((len(clients), theta.size))
    scratch = np.empty((1, theta.size))
    loss_sum = np.zeros(len(clients))
    batches = np.zeros(len(clients))
    offsets = np.cumsum(sizes) - sizes
    shared = True    # every client still holds the global model
    for epoch in range(config.epochs):
        order = batch_orders(seed, t, clients, sizes, epoch)
        for start in range(0, max(sizes), config.batch_size):
            picks = [order[o + min(n, start):o + min(n, start + config.batch_size)]
                     for o, n in zip(offsets, sizes)]
            active = [c for c, pick in enumerate(picks) if pick.size]
            # A shared step writes the gradients straight into the
            # parameter rows and steps them in place; with a zero rate
            # the rows are only scratch, reset at the end.
            if shared:
                groups = [(global_model, active, params[:len(active)])]
            else:
                groups = [(global_model.with_params(params[c]), [c], scratch) for c in active]
            for model, members, grads in groups:
                losses = _group_gradients(model, members, picks, data, config,
                                          global_model, prev_models, grads)
                _check_finite_rows(losses, members, clients, t, "loss")
                loss_sum[members] += losses
                batches[members] += 1
                if lr == 0:
                    continue
                if use_prox and not shared:
                    grads += config.prox_mu * (params[members] - theta)
                _check_finite_rows(grads, members, clients, t, "gradient")
                # theta - lr * grad in place: (-lr) * g is exactly -(lr * g).
                grads *= -lr
                if shared:
                    grads += theta
                else:
                    params[members] += grads
            shared = lr == 0
    if lr == 0:
        params[:] = theta
    return params, loss_sum / batches


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------

def fedavg_aggregate(global_model: Model, client_params: Tensor,
                     dataset_sizes: Sequence[float]) -> Model:
    """Parameter-wise weighted mean of the (C, P) client rows with weights
    ``|D_n| / sum |D_n|``, in a new buffer of the global model's layout."""
    if len(client_params) == 0:
        raise ValueError("cannot aggregate an empty model list")
    if client_params.ndim != 2 or client_params.shape[1] != global_model.params.size:
        raise ValueError("structurally incompatible models")
    return global_model.with_params(weighted_mean(client_params, dataset_sizes))


def pseudo_gradient(global_model: Model, aggregated: Model) -> Tensor:
    """Flat displacement from the current global model to the aggregate."""
    if aggregated.layout != global_model.layout:
        raise ValueError("structurally incompatible models")
    return aggregated.params - global_model.params


def fedopt_step(global_model: Model, delta: Tensor, server_state: OptimizerState) -> Model:
    """Server-optimizer update of the global model with gradient ``-delta``."""
    if delta.shape != global_model.params.shape:
        raise ValueError("pseudo-gradient length does not match the model")
    return global_model.with_params(optimizer_step(global_model.params, -delta, server_state))


def fedaws_penalty(logit_matrix: Tensor) -> tuple[float, Tensor]:
    """Squared hinge of pairwise cosine similarities among class
    embeddings, with its analytic gradient."""
    w = logit_matrix
    norms = np.linalg.norm(w, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm class embedding: cosine undefined")
    k = w.shape[0]
    loss = 0.0
    grad = np.zeros_like(w)
    for i in range(k - 1):
        for j in range(i + 1, k):
            c = float(w[i] @ w[j]) / (norms[i] * norms[j])
            if c <= 0.0:
                continue
            loss += c * c
            dci = w[j] / (norms[i] * norms[j]) - c * w[i] / (norms[i] ** 2)
            dcj = w[i] / (norms[i] * norms[j]) - c * w[j] / (norms[j] ** 2)
            grad[i] += 2.0 * c * dci
            grad[j] += 2.0 * c * dcj
    return loss, grad


def fedaws_regularize(logit_matrix: Tensor, server_state: OptimizerState) -> Tensor:
    """One server-optimizer step on the cosine spread-out penalty."""
    if logit_matrix.shape[0] < 2:
        raise ValueError("need at least two classes")
    _, grad = fedaws_penalty(logit_matrix)
    return optimizer_step(logit_matrix, grad, server_state)


def spreadout_loss(logit_matrix: Tensor, normals: Tensor) -> tuple[float, Tensor]:
    """Gaussian similarity of class embeddings projected on the fitted
    pair hyperplane normals, summed over pairs, with its gradient.

    ``normals`` holds one row per pair (k, k'), k < k', in row-major
    upper-triangle order (``OvoSvm.pairs()``). Each pair contributes
    ``exp(-(w_k.h - w_k'.h)^2 / (2 |h|^2))`` with ``h`` held constant.
    The pairs are computed as arrays, in the arithmetic of a loop over
    them: each dot product is one stacked ``matmul`` item, the loss is
    summed and the gradient rows are updated pair by pair.
    """
    w = logit_matrix
    classes, dim = w.shape
    first, second = class_pairs(classes)
    h_sq = (normals[:, None, :] @ normals[:, :, None])[:, 0, 0]
    zero = (h_sq <= 0.0).nonzero()[0]
    if zero.size:
        p = zero[0]
        raise ValueError(f"zero-norm hyperplane normal for pair ({first[p]}, {second[p]})")
    diff = ((w[first] - w[second])[:, None, :] @ normals[:, :, None])[:, 0, 0]
    term = np.exp(-diff * diff / (2.0 * h_sq))
    step = (term * diff / h_sq)[:, None] * normals
    # grad[k] -= step and grad[k'] += step in pair order, entry by entry;
    # a - b is a + (-b) exactly.
    rows = np.stack((first, second), axis=1).ravel()
    grad = np.zeros((classes, dim))
    np.add.at(grad.reshape(-1), (rows[:, None] * dim + np.arange(dim)).ravel(),
              np.stack((-step, step), axis=1).ravel())
    return float(np.add.accumulate(term)[-1]), grad


def selective_aggregate(svm: OvoSvm) -> tuple[Tensor, tuple[int, ...]]:
    """Global class embeddings from support vectors only: row k is the
    dataset-size-weighted mean of the class-k embeddings that support at
    least one pair problem involving k. Also returns the number of such
    embeddings per class.

    Every class at once, and bit for bit ``weighted_mean`` over the
    class's support rows in client order: the weights are summed client
    by client, the anchor is the first support vector, and the weighted
    differences are summed client by client. The anchor's own term and
    every entry outside the support are exactly +0.0, and a sum that
    starts at +0.0 never reaches -0.0, so adding them changes nothing.
    """
    support = svm.class_support()
    counts = support.sum(axis=1)
    empty = (counts == 0).nonzero()[0]
    if empty.size:
        raise ValueError(f"class {empty[0]} has no support vectors")
    if np.any(support & (svm.weights <= 0)):
        raise ValueError("weights must be positive")
    x = svm.embeddings
    weights = np.where(support, svm.weights, 0.0)
    total = np.add.accumulate(weights, axis=1)[:, -1:]
    anchor = x[np.arange(len(x)), support.argmax(axis=1)]
    # Client-major (C, K, d), so the sum over clients runs down rows.
    terms = (x.transpose(1, 0, 2) - anchor) * (weights / total).T[:, :, None]
    terms = np.where(support.T[:, :, None], terms, 0.0)
    return np.add.accumulate(terms)[-1] + anchor, tuple(counts.tolist())


def spreadout_regularize(logit_matrix: Tensor, svm: OvoSvm,
                         server_state: OptimizerState,
                         reg_steps: int) -> tuple[Tensor, list[float]]:
    """Apply ``reg_steps`` server-optimizer steps to the class embeddings
    under the projected spread-out penalty, with the fitted pair normals
    ``svm.normals`` as constants. Returns the new matrix and the loss
    before each step."""
    w = logit_matrix
    losses = []
    prev = None
    for _ in range(reg_steps):
        loss, grad = spreadout_loss(w, svm.normals)
        losses.append(loss)
        if prev is not None and loss >= prev:
            log.warning("spread-out penalty did not decrease: %.6g -> %.6g", prev, loss)
        prev = loss
        w = optimizer_step(w, grad, server_state)
    return w, losses


def sample_clients(train_indices: Sequence[int], count: int,
                   rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform draw of ``count`` distinct clients, returned sorted."""
    if count > len(train_indices):
        raise ValueError("cannot sample more clients than available")
    picked = rng.choice(np.asarray(train_indices), size=count, replace=False)
    return tuple(sorted(int(i) for i in picked))


def _sampling_rng(seed: int, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1, t]))


def run_round(t: int, global_model: Model, dataset, server: ServerState,
              client_config: ClientConfig, clients_per_round: int,
              seed: int) -> tuple[Model, RoundRecordData]:
    """One full aggregation round.

    Samples clients without replacement, trains them as one cohort from
    the current global model, then applies the server strategy. Client
    rows are consumed in client-index order; all randomness is keyed on
    ``(seed, round)`` and ``(seed, round, client, epoch)``, so a client's
    batches do not depend on which other clients were sampled.
    """
    strategy = server.strategy
    selected = sample_clients(dataset.train_client_indices, clients_per_round,
                              _sampling_rng(seed, t))
    data = [dataset.clients[n] for n in selected]
    sizes = [float(features.shape[0]) for features, _ in data]
    moon = client_config.variant == MOON
    prev = [server.prev_models.get(n, global_model) for n in selected] if moon else None
    params, losses = client_update(global_model, data, client_config, seed, t, selected, prev)
    if moon:
        # Copies, so a kept model does not hold the whole round buffer.
        for n, row in zip(selected, params):
            server.prev_models[n] = global_model.with_params(row.copy())

    server.maybe_reset()
    # The aggregate is a fresh buffer, so the strategies below may rewrite
    # its logit rows in place; the client rows and the global model are
    # never written.
    new_model = fedavg_aggregate(global_model, params, sizes)
    record = RoundRecordData(train_loss=float(np.mean(losses)),
                             selected_clients=selected)

    if strategy.kind == FEDOPT:
        if server.opt.kind == SGD and server.opt.learning_rate == 1.0:
            # Exact algebraic identity: an SGD server step at unit rate on
            # -delta lands on the aggregate itself. Taking the aggregate
            # directly keeps the identity bitwise.
            server.opt.step_count += 1
        else:
            new_model = fedopt_step(global_model, pseudo_gradient(global_model, new_model),
                                    server.opt)
    elif strategy.kind == FEDAWS:
        new_model.logit_matrix[...] = fedaws_regularize(new_model.logit_matrix,
                                                        server.opt)
    elif strategy.kind == SVM_MARGIN:
        lam = penalty_value(strategy, t, server.total_rounds)
        # Every row ends with the client's K x d logit matrix.
        num_classes, dim = global_model.logit_matrix.shape
        embeddings = params[:, -num_classes * dim:].reshape(len(selected), num_classes, dim)
        try:
            svm = fit_round(embeddings.transpose(1, 0, 2), lam, weights=sizes)
        except ValueError as err:
            raise RuntimeError(f"round {t}: SVM fit failed: {err}") from err
        for pair, bin_model in svm.models.items():
            if not bin_model.converged:
                log.warning("round %d pair %s: solver stopped at gap %.3e",
                            t, pair, bin_model.duality_gap)
        try:
            new_logits, record.sv_counts = selective_aggregate(svm)
            if strategy.reg_steps > 0:
                new_logits, _ = spreadout_regularize(new_logits, svm, server.opt,
                                                     strategy.reg_steps)
        except ValueError as err:
            raise RuntimeError(f"round {t}: {err}") from err
        new_model.logit_matrix[...] = new_logits
        record.lam = lam
        record.svm = svm

    check_finite(new_model.params, f"global model after round {t}")
    return new_model, record
