"""Federated round engine: client update variants (vanilla SGD, proximal,
contrastive) and server aggregation strategies (weighted averaging,
adaptive pseudo-gradient optimizers, cosine spread-out regularization,
and SVM-guided selective aggregation with max-margin spread-out
regularization on the class embeddings).

A round samples clients, trains each on its own data starting from the
global model, then applies the configured server strategy. The engine
runs from the [client] and [strategy] config sections themselves,
``ClientConfig`` and ``StrategyConfig``. Strategy state (server
optimizer moments, per-client previous models for the contrastive
variant) lives in a ``ServerState`` owned by the caller.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import (
    Batch,
    Model,
    encode,
    encode_with_cache,
    encoder_backward,
    loss_and_gradient,
)
from .numerics import Tensor, check_finite, weighted_mean
from .optim import (
    ADAM,
    AMSGRAD,
    SGD,
    OptimizerState,
    adam_state,
    amsgrad_state,
    optimizer_step,
    sgd_state,
    sgd_step,
)
from .svm import OvoSvm, fit_ovo, hyperplane, support_vectors_of_class

log = logging.getLogger(__name__)

VANILLA = "vanilla"
PROX = "prox"
MOON = "moon"

FEDAVG = "fedavg"
FEDOPT = "fedopt"
FEDAWS = "fedaws"
SVM_MARGIN = "svm_margin"

DECREASING = "decreasing"
INCREASING = "increasing"


@dataclass
class ClientConfig:
    epochs: int = 1
    batch_size: int = 64
    learning_rate: float = 0.1
    variant: str = VANILLA
    prox_mu: float = 0.01
    moon_coeff: float = 1.0
    moon_temperature: float = 0.5

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.variant not in (VANILLA, PROX, MOON):
            raise ValueError(f"unknown client variant {self.variant!r}")
        if self.variant == PROX and self.prox_mu < 0:
            raise ValueError("prox_mu must be nonnegative")
        if self.variant == MOON and (self.moon_coeff < 0 or self.moon_temperature <= 0):
            raise ValueError("moon_coeff must be >= 0 and moon_temperature > 0")


# strategy name -> (server strategy kind, server optimizer, default server
# rate); a None optimizer means StrategyConfig.server_optimizer.
_STRATEGIES = {
    "fedavg": (FEDAVG, None, 1e-2),
    "fedadam": (FEDOPT, ADAM, 1e-3),
    "fedams": (FEDOPT, AMSGRAD, 1e-3),
    "fedopt": (FEDOPT, None, 1e-3),
    "fedaws": (FEDAWS, None, 1e-2),
    "svm_margin": (SVM_MARGIN, None, 1e-2),
}


@dataclass
class StrategyConfig:
    """[strategy]: the server side of a run. ``name`` resolves through
    ``_STRATEGIES`` to the ``kind``, ``optimizer`` and ``learning_rate``
    the round engine reads; no ``server_learning_rate`` means the name's
    default rate. The SVM slack penalty decays linearly from
    ``svm_penalty_initial`` to ``svm_penalty_floor`` over the run, or
    rises along the time reversal of that schedule."""

    name: str = "fedavg"
    server_optimizer: str = ADAM
    server_learning_rate: float | None = None
    svm_penalty_initial: float = 1.0
    svm_penalty_floor: float = 0.01
    svm_penalty_schedule: str = DECREASING
    reg_steps: int = 1
    reset_server_state: bool = False
    svm_diagnostics: bool = False

    def __post_init__(self):
        if self.name not in _STRATEGIES:
            raise ValueError(f"name must be one of {tuple(_STRATEGIES)}, got {self.name!r}")
        if self.server_optimizer not in (SGD, ADAM, AMSGRAD):
            raise ValueError(f"server_optimizer must be one of {(SGD, ADAM, AMSGRAD)}, "
                             f"got {self.server_optimizer!r}")
        if self.kind != FEDAVG and self.learning_rate <= 0:
            raise ValueError("server_learning_rate must be positive")
        if self.svm_penalty_initial <= 0 or self.svm_penalty_floor <= 0:
            raise ValueError("svm_penalty_initial and svm_penalty_floor must be positive")
        if self.svm_penalty_schedule not in (DECREASING, INCREASING):
            raise ValueError("svm_penalty_schedule must be decreasing or increasing")
        if self.reg_steps < 0:
            raise ValueError("reg_steps must be >= 0")

    @property
    def kind(self) -> str:
        return _STRATEGIES[self.name][0]

    @property
    def optimizer(self) -> str:
        return _STRATEGIES[self.name][1] or self.server_optimizer

    @property
    def learning_rate(self) -> float:
        if self.server_learning_rate is None:
            return _STRATEGIES[self.name][2]
        return self.server_learning_rate


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

def moon_loss_and_gradient(model: Model, global_model: Model, prev_model: Model,
                           inputs: Tensor, temperature: float) -> tuple[float, Model]:
    """Contrastive embedding loss against the global (positive) and the
    previous local (negative) model, mean over the batch.

    Per sample the loss is ``-log softmax_g(cos(z, z_g)/tau, cos(z, z_p)/tau)``
    where only ``z`` (the current model's embedding) carries gradient.
    """
    z, cache = encode_with_cache(model, inputs)
    z_g = encode(global_model, inputs)
    z_p = encode(prev_model, inputs)
    nz = np.linalg.norm(z, axis=1)
    ng = np.linalg.norm(z_g, axis=1)
    npv = np.linalg.norm(z_p, axis=1)
    # A zero-norm embedding has no direction: its cosine is taken as 0 and
    # it contributes the constant uniform-choice loss with zero gradient.
    sz = np.where(nz > 0, nz, 1.0)
    sg = np.where(ng > 0, ng, 1.0)
    sp = np.where(npv > 0, npv, 1.0)
    bsz = z.shape[0]
    cos_g = np.sum(z * z_g, axis=1) / (sz * sg)
    cos_p = np.sum(z * z_p, axis=1) / (sz * sp)
    a = cos_g / temperature
    b = cos_p / temperature
    top = np.maximum(a, b)
    lse = top + np.log(np.exp(a - top) + np.exp(b - top))
    loss = float(np.mean(lse - a))
    p_g = np.exp(a - lse)
    p_p = np.exp(b - lse)
    dc_g = (p_g - 1.0) / temperature
    dc_p = p_p / temperature
    # d cos(z, u) / dz = u / (|z||u|) - cos * z / |z|^2
    dz = (dc_g / (sz * sg))[:, None] * z_g \
        + (dc_p / (sz * sp))[:, None] * z_p \
        - ((dc_g * cos_g + dc_p * cos_p) / (sz * sz))[:, None] * z
    dz[nz == 0] = 0.0
    dz /= bsz
    return loss, encoder_backward(model, cache, dz)


def client_update(n: int, global_model: Model, data: tuple[Tensor, np.ndarray],
                  config: ClientConfig, rng: np.random.Generator,
                  prev_model: Model | None = None) -> tuple[Model, float]:
    """Local training on client ``n``; returns the trained model and the
    mean batch loss. The global model is never mutated.

    Batches come from a seeded shuffle per epoch, last partial batch
    kept. The proximal variant adds ``mu * (theta - theta_global)`` to
    every gradient; the contrastive variant adds its encoder gradient
    scaled by ``moon_coeff``. Zero-coefficient variants take the exact
    vanilla path so they are bitwise-identical to it.
    """
    features, labels = data
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] == 0:
        raise ValueError(f"client {n}: empty dataset")

    # A positive rate binds the model to a new vector at every step, so
    # the global model is never written to and needs no copy.
    if config.learning_rate > 0:
        model = global_model
        opt = sgd_state(config.learning_rate)
    else:
        model = global_model.copy()
        opt = None

    use_prox = config.variant == PROX and config.prox_mu != 0.0
    use_moon = config.variant == MOON and config.moon_coeff != 0.0
    if use_moon and prev_model is None:
        prev_model = global_model

    losses = []
    n_samples = features.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = Batch(features[idx], labels[idx])
            loss, grads = loss_and_gradient(model, batch)
            losses.append(loss)
            grad = grads.params
            if use_prox:
                grad += config.prox_mu * (model.params - global_model.params)
            if use_moon:
                _, moon_grads = moon_loss_and_gradient(
                    model, global_model, prev_model, batch.inputs,
                    config.moon_temperature)
                grad += config.moon_coeff * moon_grads.params
            if opt is not None:
                model = model.with_params(sgd_step(model.params, grad, opt))
    return model, float(np.mean(losses))


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------

def fedavg_aggregate(models: Sequence[Model], dataset_sizes: Sequence[float]) -> Model:
    """Parameter-wise weighted mean with weights ``|D_n| / sum |D_n|``."""
    if len(models) == 0:
        raise ValueError("cannot aggregate an empty model list")
    if any(m.layout != models[0].layout for m in models):
        raise ValueError("structurally incompatible models")
    return models[0].with_params(weighted_mean([m.params for m in models], dataset_sizes))


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


def spreadout_loss(logit_matrix: Tensor,
                   normals: dict[tuple[int, int], Tensor]) -> tuple[float, Tensor]:
    """Gaussian similarity of class embeddings projected on the fitted
    pair hyperplane normals, summed over pairs, with its gradient.

    Each pair (k, k') contributes
    ``exp(-(w_k.h - w_k'.h)^2 / (2 |h|^2))`` with ``h`` held constant.
    """
    w = logit_matrix
    loss = 0.0
    grad = np.zeros_like(w)
    for (k, kp), h in sorted(normals.items()):
        h_sq = float(h @ h)
        if h_sq <= 0.0:
            raise ValueError(f"zero-norm hyperplane normal for pair ({k}, {kp})")
        diff = float((w[k] - w[kp]) @ h)
        term = np.exp(-diff * diff / (2.0 * h_sq))
        loss += term
        coef = term * diff / h_sq
        grad[k] -= coef * h
        grad[kp] += coef * h
    return float(loss), grad


def selective_aggregate(svm: OvoSvm) -> tuple[Tensor, tuple[int, ...]]:
    """Global class embeddings from support vectors only: row k is the
    dataset-size-weighted mean of the class-k embeddings that support at
    least one pair problem involving k. Also returns the number of such
    embeddings per class."""
    rows = []
    counts = []
    for k in range(svm.num_classes):
        svs = support_vectors_of_class(svm, k)
        if not svs:
            raise ValueError(f"class {k} has no support vectors")
        rows.append(weighted_mean([e for _, e, _ in svs], [w for _, _, w in svs]))
        counts.append(len(svs))
    return np.vstack(rows), tuple(counts)


def spreadout_regularize(logit_matrix: Tensor, svm: OvoSvm,
                         server_state: OptimizerState,
                         reg_steps: int) -> tuple[Tensor, list[float]]:
    """Apply ``reg_steps`` server-optimizer steps to the class embeddings
    under the projected spread-out penalty; hyperplane normals are
    constants. Returns the new matrix and the loss before each step."""
    normals = {}
    for (k, kp) in svm.pairs():
        h, _ = hyperplane(svm, k, kp)
        normals[(k, kp)] = h
    w = logit_matrix
    losses = []
    prev = None
    for _ in range(reg_steps):
        loss, grad = spreadout_loss(w, normals)
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


def _client_rng(seed: int, t: int, n: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 2, t, n]))


def _sampling_rng(seed: int, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1, t]))


def run_round(t: int, global_model: Model, dataset, server: ServerState,
              client_config: ClientConfig, clients_per_round: int,
              seed: int) -> tuple[Model, RoundRecordData]:
    """One full aggregation round.

    Samples clients without replacement, trains each from the current
    global model, then applies the server strategy. Client updates are
    consumed in client-index order; all randomness is keyed on
    ``(seed, round, client)`` so results do not depend on scheduling.
    """
    strategy = server.strategy
    selected = sample_clients(dataset.train_client_indices, clients_per_round,
                              _sampling_rng(seed, t))
    models = []
    sizes = []
    losses = []
    for n in selected:
        data = dataset.clients[n]
        prev = server.prev_models.get(n, global_model) \
            if client_config.variant == MOON else None
        try:
            trained, loss = client_update(n, global_model, data, client_config,
                                          _client_rng(seed, t, n), prev_model=prev)
        except Exception as err:
            raise RuntimeError(f"round {t}, client {n}: {err}") from err
        models.append(trained)
        sizes.append(float(data[0].shape[0]))
        losses.append(loss)
        if client_config.variant == MOON:
            server.prev_models[n] = trained

    server.maybe_reset()
    # The aggregate is a fresh buffer, so the strategies below may rewrite
    # its logit rows in place; the client models and the global model are
    # never written.
    new_model = fedavg_aggregate(models, sizes)
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
        class_embeddings = {
            k: [(models[i].logit_matrix[k], sizes[i]) for i in range(len(models))]
            for k in range(global_model.num_classes)
        }
        try:
            svm = fit_ovo(class_embeddings, lam)
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
