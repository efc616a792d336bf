"""Federated datasets: synthetic non-IID generation, IDX image ingestion
and Dirichlet label-skew partitioning.

A federated dataset is a list of per-client sample sets plus a
client-level train/held-out split: evaluation always runs on clients the
training loop never saw.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .config import SyntheticSpec, heldout_count
from .numerics import Tensor

ClientData = tuple[Tensor, np.ndarray]  # (features n x P, labels n)


@dataclass
class FederatedDataset:
    clients: list[ClientData]
    num_classes: int
    feature_dim: int
    train_client_indices: tuple[int, ...]
    heldout_client_indices: tuple[int, ...]

    def __post_init__(self):
        n = len(self.clients)
        train = set(self.train_client_indices)
        heldout = set(self.heldout_client_indices)
        if train & heldout:
            raise ValueError("train and held-out client sets overlap")
        if train | heldout != set(range(n)):
            raise ValueError("train and held-out sets must cover all clients")
        for i, (features, labels) in enumerate(self.clients):
            if features.shape[0] != labels.shape[0]:
                raise ValueError(f"client {i}: feature/label count mismatch")
            if features.shape[1] != self.feature_dim:
                raise ValueError(f"client {i}: wrong feature dimension")
            if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
                raise ValueError(f"client {i}: label out of range")
            if i in train and features.shape[0] == 0:
                raise ValueError(f"train client {i} is empty")

    @property
    def num_clients(self) -> int:
        return len(self.clients)


def _split_clients(num_clients: int, rng: np.random.Generator):
    """Client-level 90/10 train/held-out split by seeded shuffle."""
    order = rng.permutation(num_clients)
    n_heldout = heldout_count(num_clients)
    heldout = tuple(sorted(int(i) for i in order[:n_heldout]))
    train = tuple(sorted(int(i) for i in order[n_heldout:]))
    return train, heldout


def generate_synthetic(spec: SyntheticSpec) -> FederatedDataset:
    """Gaussian-blob classification task with Dirichlet label skew.

    Class means sit on a sphere of radius ``class_separation``; each
    client draws its label distribution from ``Dirichlet(alpha * 1_K)``
    (small alpha concentrates a client on few labels) and its features
    from an isotropic Gaussian around the label's mean.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    k, p = spec.num_classes, spec.feature_dim
    means = rng.standard_normal((k, p))
    means *= spec.class_separation / np.linalg.norm(means, axis=1, keepdims=True)

    clients: list[ClientData] = []
    lo = max(1, spec.samples_per_client_mean - spec.samples_per_client_spread)
    hi = spec.samples_per_client_mean + spec.samples_per_client_spread
    for _ in range(spec.num_clients):
        n = int(rng.integers(lo, hi + 1))
        label_probs = rng.dirichlet(np.full(k, spec.dirichlet_alpha))
        labels = rng.choice(k, size=n, p=label_probs)
        features = means[labels] + spec.noise_sigma * rng.standard_normal((n, p))
        clients.append((features, labels.astype(np.int64)))

    train, heldout = _split_clients(spec.num_clients, rng)
    return FederatedDataset(clients, k, p, train, heldout)


def partition_by_client(features: Tensor, labels: np.ndarray, num_clients: int,
                        dirichlet_alpha: float, seed: int,
                        num_classes: int | None = None) -> FederatedDataset:
    """Label-skewed partition of a flat dataset via per-class Dirichlet
    proportions. Every input sample is assigned exactly once; clients
    that come out empty are re-seeded with one sample from the largest
    client. Needs at least two clients, since the split holds some out."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    if n == 0:
        raise ValueError("no samples to partition")
    if num_clients < 2:
        raise ValueError(f"num_clients = {num_clients}: need at least 2 clients, "
                         "one to train and one held out")
    if n < num_clients:
        raise ValueError(f"fewer samples ({n}) than clients ({num_clients})")
    if num_classes is None:
        num_classes = int(labels.max()) + 1

    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    assignments: list[list[int]] = [[] for _ in range(num_clients)]
    for c in range(num_classes):
        idx = np.flatnonzero(labels == c)
        if idx.size == 0:
            continue
        idx = rng.permutation(idx)
        props = rng.dirichlet(np.full(num_clients, dirichlet_alpha))
        cuts = (np.cumsum(props)[:-1] * idx.size).astype(np.int64)
        for client, chunk in enumerate(np.split(idx, cuts)):
            assignments[client].extend(int(i) for i in chunk)

    for client in range(num_clients):
        if not assignments[client]:
            donor = max(range(num_clients), key=lambda i: len(assignments[i]))
            assignments[client].append(assignments[donor].pop())

    clients: list[ClientData] = []
    for rows in assignments:
        rows = sorted(rows)
        clients.append((features[rows], labels[rows]))
    train, heldout = _split_clients(num_clients, rng)
    return FederatedDataset(clients, num_classes, features.shape[1], train, heldout)


def heldout_pool(dataset: FederatedDataset) -> ClientData:
    """All held-out clients' samples pooled in client order."""
    if not dataset.heldout_client_indices:
        raise ValueError("dataset has no held-out clients")
    feats = np.vstack([dataset.clients[i][0] for i in dataset.heldout_client_indices])
    labs = np.concatenate([dataset.clients[i][1] for i in dataset.heldout_client_indices])
    return feats, labs


# ---------------------------------------------------------------------------
# IDX ingestion (big-endian image/label files)
# ---------------------------------------------------------------------------

def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated IDX file while reading {what}")
    return data


def load_idx(images_path, labels_path) -> tuple[Tensor, np.ndarray]:
    """Parse a big-endian IDX image/label file pair.

    Images must carry magic ``00 00 08 03`` (unsigned bytes, rank 3) and
    labels ``00 00 08 01``; pixel bytes are scaled to [0, 1] and images
    flattened row-major to feature vectors.
    """
    with open(images_path, "rb") as fh:
        magic = _read_exact(fh, 4, "image magic")
        if magic[:2] != b"\x00\x00":
            raise ValueError("bad IDX image magic")
        if magic != b"\x00\x00\x08\x03":
            raise ValueError(
                f"unsupported rank/type in IDX image file: {magic.hex()}")
        n, rows, cols = struct.unpack(">III", _read_exact(fh, 12, "image dims"))
        raw = _read_exact(fh, n * rows * cols, "image pixels")
    with open(labels_path, "rb") as fh:
        magic = _read_exact(fh, 4, "label magic")
        if magic[:2] != b"\x00\x00":
            raise ValueError("bad IDX label magic")
        if magic != b"\x00\x00\x08\x01":
            raise ValueError(
                f"unsupported rank/type in IDX label file: {magic.hex()}")
        (n_labels,) = struct.unpack(">I", _read_exact(fh, 4, "label count"))
        label_raw = _read_exact(fh, n_labels, "labels")
    if n_labels != n:
        raise ValueError(f"image/label count mismatch: {n} images, {n_labels} labels")
    features = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    features = features.astype(np.float64) / 255.0
    labels = np.frombuffer(label_raw, dtype=np.uint8).astype(np.int64)
    return features, labels
