"""Embedding-based MLP classifier: ReLU encoder followed by a bias-free
logit layer whose rows are the class embeddings.

The forward map is ``logits(x) = G(x) @ W.T`` where ``G`` is the encoder
(dense layers with ReLU between them, linear output) and ``W`` is the
``K x d`` logit matrix. Class inference is the argmax of the inner
products, i.e. nearest class embedding under the dot-product metric.
Gradients are hand-derived; a finite-difference oracle checks them in
the test suite. Their one entry, ``loss_and_gradient``, takes rows,
labels and the bounds of the segments (one client's batch each) that
share the parameters, and writes one gradient row per segment.
"""

from __future__ import annotations

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


def _softmax(scores: Tensor, axis: int = 1) -> Tensor:
    """Max-shifted softmax along ``axis``, in a new array."""
    exp = scores - scores.max(axis=axis, keepdims=True)
    np.exp(exp, out=exp)
    exp /= exp.sum(axis=axis, keepdims=True)
    return exp


def encode_with_cache(model: Model, inputs: Tensor):
    """Forward pass through the encoder, keeping the per-layer inputs
    that ``encoder_backward`` needs; a hidden layer's ReLU mask is read
    off its output, which is positive exactly where its input is."""
    h = as_tensor(inputs)
    if h.ndim != 2 or h.shape[1] != model.input_dim:
        raise ValueError(
            f"encoder expects B x {model.input_dim} inputs, got {h.shape}")
    acts = [h]
    last = len(model.encoder) - 1
    for i, (w, b) in enumerate(model.encoder):
        h = h @ w.T
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return h, acts


def encoder_backward(model: Model, acts, d_emb: Tensor, bounds, out: Tensor) -> None:
    """Backpropagate a gradient w.r.t. the embeddings to all encoder
    parameters, one gradient per segment; ``acts`` are the layer inputs
    and outputs that ``encode_with_cache`` kept.

    Segment s is rows ``bounds[s]:bounds[s + 1]`` of the batch, and its
    gradient is written to row s of ``out`` (S x P); the activations
    are shared, the weight and bias reductions are per segment. The
    logit-matrix span of every row is set to zero.
    """
    spans = model._spans
    starts = bounds[:-1]
    pairs = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    last = len(model.encoder) - 1
    dh = d_emb
    out[:, spans[-1][0]:] = 0.0
    for i in range(last, -1, -1):
        dz = dh
        if i != last:
            dz *= acts[i + 1] > 0.0
        (w0, w1, shape), (b0, b1, _) = spans[2 * i], spans[2 * i + 1]
        for row, (a, b) in zip(out, pairs):
            np.matmul(dz[a:b].T, acts[i][a:b], out=row[w0:w1].reshape(shape))
        out[:, b0:b1] = np.add.reduceat(dz, starts, axis=0)
        if i > 0:
            dh = dz @ model.encoder[i][0]


def loss_and_gradient(model: Model, inputs: Tensor, labels: np.ndarray, bounds: np.ndarray,
                      out: Tensor, embedding_term=None) -> Tensor:
    """Mean softmax cross-entropy and its gradients for every parameter,
    per segment.

    The B rows of ``inputs`` (with ``labels`` in [0, K)) may hold the
    batches of several clients that share these parameters: ``bounds``
    gives the S + 1 row offsets of the segments (see
    ``encoder_backward``). Every row is divided by its own segment's
    length, so each segment's gradient is that of its own mean loss;
    the forward pass is one matrix product per layer over all rows.
    Writes each segment's gradient to its row of ``out`` (S x P) and
    returns the S segment losses, which the caller checks for
    non-finite values. ``embedding_term(emb, bounds)``, when given,
    returns the gradient of a further loss on the embeddings; it joins
    the encoder's backward pass, and its value is not part of the
    returned losses. The softmax is max-shifted, so overflow cannot
    occur.
    """
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ValueError("labels out of range")
    sizes = np.diff(bounds)

    emb, acts = encode_with_cache(model, inputs)
    # Class-major (K x B) scores, so the softmax reduces across rows.
    probs = _softmax(model.logit_matrix @ emb.T, axis=0)
    rows = np.arange(labels.size)
    log_picked = np.log(np.maximum(probs[labels, rows], 1e-300))
    losses = -np.add.reduceat(log_picked, bounds[:-1]) / sizes

    # The score gradient is (probs - onehot(y)) / B, built in place, with
    # B the length of each row's segment.
    dscores = probs
    dscores[labels, rows] -= 1.0
    dscores /= np.repeat(sizes, sizes)
    d_emb = dscores.T @ model.logit_matrix
    if embedding_term is not None:
        d_emb += embedding_term(emb, bounds)
    encoder_backward(model, acts, d_emb, bounds, out)
    start, end, shape = model._spans[-1]
    for row, a, b in zip(out, bounds[:-1].tolist(), bounds[1:].tolist()):
        np.matmul(dscores[:, a:b], emb[a:b], out=row[start:end].reshape(shape))
    return losses
