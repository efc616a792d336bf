"""Solver behaviour lock: ``fit_ovo`` on seeded rounds shaped like the
``svm_margin`` benchmark workloads must reproduce pinned SHA-256 digests
of every pair's dual coefficients, normal, bias, support set and
kernel-call count.

A change to the solver's bookkeeping must pass this unchanged. A change
that alters the solver's numerics on purpose re-pins the digests in the
same change and says which ones moved and why.
"""

import hashlib

import numpy as np
import pytest

from fedsvm.svm import fit_ovo

# The floor of the shipped decreasing schedule, reached in its last round.
LATE_LAMBDA = 0.01

# label -> (clients per round C, embedding dim d), K = 8 classes each.
SHAPES = {"c8": (8, 16), "c32": (32, 64)}
CLASSES = 8
# Spread of the client embeddings around their class embedding. Clients
# start each round from the same global model, so the spread is small
# next to the class embeddings' norm, as in the shipped runs (about 0.001
# to 0.007 against norms of 3.5 to 16); the widest spread gives many
# support vectors per pair.
SPREADS = (0.001, 0.005, 0.05, 0.5)

GOLDEN = {
    ("c8", 1.0): "582375b87d65a9a79f6116e56be87916af7c3d2b0d64b3b289765e10f86580ed",
    ("c8", LATE_LAMBDA): "ea9c6a28e2607cdf48a359c6a55fd42aca32338303a4f684cd2a9f2fef1b2297",
    ("c32", 1.0): "c69ef1c7c0bcc78ed9ff91f6bab035f639e5aadbc3e9bc49d7f74dc6c779cadf",
    ("c32", LATE_LAMBDA): "22942fbae6cf7d6c84165d4489924f3df4d2f06faaa85f4b4c3d259de642f1fd",
}


def round_embeddings(clients, dim, spread, seed):
    """Per class, ``clients`` (embedding, dataset size) pairs in client
    order, as ``run_round`` passes them to ``fit_ovo``."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((CLASSES, dim))
    sizes = rng.integers(10, 51, size=clients).astype(float)
    return {k: [(means[k] + spread * rng.standard_normal(dim), sizes[i])
                for i in range(clients)]
            for k in range(CLASSES)}


def fit_digest(shape, lam):
    clients, dim = SHAPES[shape]
    digest = hashlib.sha256()
    for seed, spread in enumerate(SPREADS):
        svm = fit_ovo(round_embeddings(clients, dim, spread, seed), lam)
        for pair in svm.pairs():
            model = svm.models[pair]
            digest.update(model.alphas.tobytes())
            digest.update(model.normal.tobytes())
            digest.update(np.float64(model.bias).tobytes())
            digest.update(np.asarray(model.support_indices, dtype=np.int64).tobytes())
            digest.update(np.int64(model.sweeps).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("shape,lam", sorted(GOLDEN))
def test_fit_ovo_matches_golden_digest(shape, lam):
    assert fit_digest(shape, lam) == GOLDEN[(shape, lam)]
