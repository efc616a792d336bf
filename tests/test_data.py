import struct

import numpy as np
import pytest

from fedsvm.config import SyntheticSpec
from fedsvm.data import (
    FederatedDataset,
    generate_synthetic,
    heldout_pool,
    load_idx,
    partition_by_client,
)


def spec(**kwargs) -> SyntheticSpec:
    base = dict(num_clients=12, num_classes=4, feature_dim=6,
                samples_per_client_mean=30, samples_per_client_spread=10,
                dirichlet_alpha=0.5, class_separation=4.0, noise_sigma=1.0, seed=0)
    base.update(kwargs)
    return SyntheticSpec(**base)


def dataset_fingerprint(ds: FederatedDataset):
    return [(f.tobytes(), l.tobytes()) for f, l in ds.clients]


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def test_same_seed_bitwise_identical():
    a = generate_synthetic(spec())
    b = generate_synthetic(spec())
    assert dataset_fingerprint(a) == dataset_fingerprint(b)
    assert a.train_client_indices == b.train_client_indices
    assert a.heldout_client_indices == b.heldout_client_indices


def test_split_is_ninety_ten_and_disjoint():
    ds = generate_synthetic(spec(num_clients=20))
    assert len(ds.heldout_client_indices) == 2
    assert len(ds.train_client_indices) == 18
    assert not set(ds.train_client_indices) & set(ds.heldout_client_indices)


def test_large_alpha_approaches_uniform_labels():
    ds = generate_synthetic(spec(num_clients=4, dirichlet_alpha=1e6,
                                 samples_per_client_mean=1500,
                                 samples_per_client_spread=0))
    for features, labels in ds.clients:
        hist = np.bincount(labels, minlength=4) / labels.size
        tv = 0.5 * np.abs(hist - 0.25).sum()
        assert tv < 0.05


def test_small_alpha_concentrates_labels():
    ds = generate_synthetic(spec(num_clients=100, num_classes=8,
                                 dirichlet_alpha=0.05,
                                 samples_per_client_mean=200,
                                 samples_per_client_spread=0))
    top2_shares = []
    for _, labels in ds.clients:
        hist = np.sort(np.bincount(labels, minlength=8))[::-1]
        top2_shares.append(hist[:2].sum() / labels.size)
    assert np.median(top2_shares) >= 0.8


def test_all_train_clients_nonempty_and_labeled_in_range():
    ds = generate_synthetic(spec())
    for i in ds.train_client_indices:
        features, labels = ds.clients[i]
        assert features.shape[0] >= 1
        assert labels.min() >= 0 and labels.max() < ds.num_classes


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(num_clients=1)
    with pytest.raises(ValueError):
        spec(dirichlet_alpha=0.0)
    with pytest.raises(ValueError):
        spec(samples_per_client_mean=0)


def test_centralized_training_saturates_on_separated_task():
    # Sanity oracle: when classes are far apart relative to noise, plain
    # centralized SGD on the pooled training clients nails the held-out
    # clients.
    from fedsvm.model import init_model, predict
    from fedsvm.optim import sgd_state, sgd_step
    from oracles import batch_loss_and_gradient

    ds = generate_synthetic(spec(num_clients=10, class_separation=10.0,
                                 noise_sigma=0.1, samples_per_client_mean=50))
    x = np.vstack([ds.clients[i][0] for i in ds.train_client_indices])
    y = np.concatenate([ds.clients[i][1] for i in ds.train_client_indices])
    model = init_model(ds.feature_dim, [16], 8, ds.num_classes,
                       np.random.default_rng(0))
    opt = sgd_state(0.2)
    rng = np.random.default_rng(1)
    for _ in range(60):
        order = rng.permutation(x.shape[0])
        for start in range(0, len(order), 32):
            idx = order[start:start + 32]
            _, grads = batch_loss_and_gradient(model, x[idx], y[idx])
            model = model.with_params(sgd_step(model.params, grads.params, opt))
    held_x, held_y = heldout_pool(ds)
    acc = float(np.mean(predict(model, held_x) == held_y))
    assert acc >= 0.99


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def flat_samples(n=120, dim=3, classes=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)), rng.integers(0, classes, n).astype(np.int64)


def test_partition_conserves_sample_multiset():
    features, labels = flat_samples()
    ds = partition_by_client(features, labels, 8, 0.3, seed=4)
    got = np.vstack([c[0] for c in ds.clients])
    assert got.shape == features.shape
    key = lambda arr: sorted(map(tuple, arr))
    assert key(got) == key(features)
    assert sum(c[1].size for c in ds.clients) == labels.size


def test_partition_rejects_a_single_client():
    # A partition trains on some clients and evaluates on the held-out
    # rest, so one client is not a partition.
    features, labels = flat_samples()
    for clients in (1, 0):
        with pytest.raises(ValueError, match="need at least 2 clients"):
            partition_by_client(features, labels, clients, 0.3, seed=4)


def test_partition_deterministic():
    features, labels = flat_samples()
    a = partition_by_client(features, labels, 7, 0.2, seed=9)
    b = partition_by_client(features, labels, 7, 0.2, seed=9)
    assert dataset_fingerprint(a) == dataset_fingerprint(b)


def test_partition_no_empty_clients():
    features, labels = flat_samples(n=40)
    ds = partition_by_client(features, labels, 20, 0.05, seed=2)
    assert all(c[0].shape[0] >= 1 for c in ds.clients)


def test_partition_rejects_too_few_samples():
    features, labels = flat_samples(n=3)
    with pytest.raises(ValueError):
        partition_by_client(features, labels, 5, 0.5, seed=0)


# ---------------------------------------------------------------------------
# IDX ingestion
# ---------------------------------------------------------------------------

def write_idx_pair(tmp_path, pixels, labels):
    n = len(labels)
    rows = cols = int(np.sqrt(pixels.shape[1]))
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols)
                    + pixels.astype(np.uint8).tobytes())
    lab.write_bytes(struct.pack(">II", 0x801, n)
                    + np.asarray(labels, dtype=np.uint8).tobytes())
    return img, lab


def test_idx_roundtrip_and_scaling(tmp_path):
    pixels = np.zeros((2, 784), dtype=np.uint8)
    pixels[0, 0] = 255
    pixels[1, 5] = 128
    img, lab = write_idx_pair(tmp_path, pixels, [3, 7])
    features, labels = load_idx(img, lab)
    assert features.shape == (2, 784)
    assert features[0, 0] == 1.0
    assert features[1, 5] == pytest.approx(128 / 255)
    assert labels.tolist() == [3, 7]


def test_idx_wrong_rank_rejected(tmp_path):
    img = tmp_path / "bad.idx"
    img.write_bytes(struct.pack(">IIII", 0x802, 1, 2, 2) + bytes(4))
    lab = tmp_path / "labels.idx"
    lab.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
    with pytest.raises(ValueError, match="unsupported rank/type"):
        load_idx(img, lab)


def test_idx_truncated_rejected(tmp_path):
    pixels = np.zeros((2, 784), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, [0, 1])
    img.write_bytes(img.read_bytes()[:-10])
    with pytest.raises(ValueError, match="truncated"):
        load_idx(img, lab)


def test_idx_count_mismatch_rejected(tmp_path):
    pixels = np.zeros((2, 784), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, [0, 1])
    lab.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
    with pytest.raises(ValueError, match="mismatch"):
        load_idx(img, lab)
