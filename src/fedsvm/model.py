"""Embedding-based MLP classifier: ReLU encoder followed by a bias-free
logit layer whose rows are the class embeddings.

The forward map is ``logits(x) = G(x) @ W.T`` where ``G`` is the encoder
(dense layers with ReLU between them, linear output) and ``W`` is the
``K x d`` logit matrix. Class inference is the argmax of the inner
products, i.e. nearest class embedding under the dot-product metric.
Gradients are hand-derived; a finite-difference oracle checks them in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import Tensor, as_tensor


class Model:
    """Every parameter in one contiguous float64 vector ``params``, with
    the encoder layers as (weight, bias) pairs and the logit matrix as
    reshaped views into it.

    The vector holds the encoder layers in order, weight then bias, then
    the logit matrix, all row-major. Layer weights have shape (out, in);
    activations are row vectors, so a layer computes
    ``relu(x @ W.T + b)`` except the last encoder layer, which stays
    linear. The same structure doubles as the container for
    model-shaped gradients. The constructor copies its inputs into a new
    buffer; ``with_params`` binds an existing one.
    """

    def __init__(self, encoder: Sequence[tuple[Tensor, Tensor]], logit_matrix: Tensor):
        arrays = [as_tensor(a) for layer in encoder for a in layer] + [as_tensor(logit_matrix)]
        self.layout = tuple(a.shape for a in arrays)
        spans = []
        offset = 0
        for a in arrays:
            spans.append((offset, offset + a.size, a.shape))
            offset += a.size
        self._bind(tuple(spans), np.concatenate([a.ravel() for a in arrays]))

    def _bind(self, spans: tuple[tuple[int, int, tuple[int, ...]], ...],
              params: Tensor) -> None:
        """Bind ``params`` with one view per ``(start, end, shape)`` span."""
        params = np.ascontiguousarray(params, dtype=np.float64)
        size = spans[-1][1]
        if params.shape != (size,):
            raise ValueError(f"flat vector has {params.size} entries, model needs {size}")
        views = [params[start:end].reshape(shape) for start, end, shape in spans]
        self._spans = spans
        self.params = params
        self.encoder = list(zip(views[0:-1:2], views[1:-1:2]))
        self.logit_matrix = views[-1]

    def with_params(self, flat: Tensor) -> "Model":
        """A model of this layout bound to ``flat`` without copying it;
        raises ValueError when the length does not match."""
        model = Model.__new__(Model)
        model.layout = self.layout
        model._bind(self._spans, flat)
        return model

    @property
    def num_classes(self) -> int:
        return self.logit_matrix.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.logit_matrix.shape[1]

    @property
    def input_dim(self) -> int:
        return self.encoder[0][0].shape[1]

    def copy(self) -> "Model":
        return self.with_params(self.params.copy())


@dataclass
class Batch:
    inputs: Tensor   # B x P
    labels: np.ndarray  # length B, ints in [0, K)

    def __post_init__(self):
        self.inputs = as_tensor(self.inputs)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError("batch inputs must be a nonempty B x P matrix")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("labels length must equal batch size")


def init_model(input_dim: int, hidden_dims: Sequence[int], embedding_dim: int,
               num_classes: int, rng: np.random.Generator) -> Model:
    """Fan-balanced uniform init for weights, zero biases.

    Every draw comes from ``rng``, so a model is fully determined by the
    seed that built the generator.
    """
    if num_classes < 2 or embedding_dim < 1:
        raise ValueError("need num_classes >= 2 and embedding_dim >= 1")
    dims = [input_dim] + list(hidden_dims) + [embedding_dim]
    encoder = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        encoder.append((w, np.zeros(fan_out)))
    bound = np.sqrt(6.0 / (embedding_dim + num_classes))
    logit = rng.uniform(-bound, bound, size=(num_classes, embedding_dim))
    return Model(encoder, logit)


def encode(model: Model, inputs: Tensor) -> Tensor:
    """Map a B x P input matrix to B x d embeddings."""
    emb, _ = encode_with_cache(model, inputs)
    return emb


def logits(model: Model, inputs: Tensor) -> Tensor:
    return encode(model, inputs) @ model.logit_matrix.T


def predict(model: Model, inputs: Tensor) -> np.ndarray:
    """Per-sample argmax over class inner products; ties go to the lowest
    class index (np.argmax keeps the first maximum)."""
    return np.argmax(logits(model, inputs), axis=1)


def _softmax(scores: Tensor) -> Tensor:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def encode_with_cache(model: Model, inputs: Tensor):
    """Forward pass through the encoder, keeping the per-layer inputs and
    pre-activations needed by ``encoder_backward``."""
    h = as_tensor(inputs)
    if h.ndim != 2 or h.shape[1] != model.input_dim:
        raise ValueError(
            f"encoder expects B x {model.input_dim} inputs, got {h.shape}")
    acts = [h]
    pre = []
    last = len(model.encoder) - 1
    for i, (w, b) in enumerate(model.encoder):
        z = h @ w.T + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i != last else z
        acts.append(h)
    return h, (acts, pre)


def encoder_backward(model: Model, cache, d_emb: Tensor) -> Model:
    """Backpropagate a gradient w.r.t. the embeddings to all encoder
    parameters. The returned container has a zero logit-matrix gradient."""
    acts, pre = cache
    last = len(model.encoder) - 1
    dh = d_emb
    grads = model.with_params(np.zeros(model.params.size))
    for i in range(last, -1, -1):
        dz = dh if i == last else dh * (pre[i] > 0.0)
        gw, gb = grads.encoder[i]
        np.matmul(dz.T, acts[i], out=gw)
        dz.sum(axis=0, out=gb)
        if i > 0:
            dh = dz @ model.encoder[i][0]
    return grads


def loss_and_gradient(model: Model, batch: Batch) -> tuple[float, Model]:
    """Mean softmax cross-entropy and its gradients for every parameter.

    Returns the loss and a model-shaped gradient container. The softmax
    is max-shifted, so overflow cannot occur; a non-finite loss is
    reported as an error rather than propagated.
    """
    x = batch.inputs
    y = batch.labels
    if y.min() < 0 or y.max() >= model.num_classes:
        raise ValueError("labels out of range")
    bsz = x.shape[0]

    emb, cache = encode_with_cache(model, x)
    scores = emb @ model.logit_matrix.T
    probs = _softmax(scores)
    rows = np.arange(bsz)
    picked = probs[rows, y]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    if not np.isfinite(loss):
        raise ValueError("non-finite loss")

    # The score gradient is (probs - onehot(y)) / B, built in place.
    dscores = probs
    dscores[rows, y] -= 1.0
    dscores /= bsz
    grads = encoder_backward(model, cache, dscores @ model.logit_matrix)
    np.matmul(dscores.T, emb, out=grads.logit_matrix)
    return loss, grads
