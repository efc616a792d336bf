"""The kernel's exact face step, ``backend._face_step``.

A problem whose update count in one kernel call reaches 16, 32, 64, ...
moves to the minimizer of its dual on its current face where that
minimizer lies strictly inside the box. On a round of the ``svm_c32``
benchmark shape whose pairs zig-zag on faces that are already final,
the step must fire, keep every fit's support set and convergence, keep
each normal within the gap radius of the SMO-only fit's, and cut the
kernel's updates to at most 60 % of SMO alone. A face that is singular
must be skipped without failing the other problems of its stack.
``tests/test_round_fit.py`` checks that lockstep and one-problem fits
take the step bit for bit alike.
"""

import numpy as np
import pytest

from fedsvm.svm import SvmProblem, backend, fit_binary, fit_round

from test_round_fit import gap_radius
from test_solver_lock import LATE_LAMBDA, round_embeddings

# Pairs of this round take up to 106 updates in one call without the
# step; tests/test_round_fit.py fits it as its "face_steps" case.
ZIG_ZAG_ROUND = (32, 64, 0.5, 3)


def counted_fit(monkeypatch, embeddings, lam):
    """``fit_round`` with its kernel updates and accepted face steps
    counted."""
    counts = {"updates": 0, "face_steps": 0}
    sweep, face_step = backend.sweep, backend._face_step

    def counting_sweep(*args, **kwargs):
        changed = sweep(*args, **kwargs)
        counts["updates"] += changed
        return changed

    def counting_face_step(*args):
        stepped = face_step(*args)
        counts["face_steps"] += int(stepped.sum())
        return stepped

    monkeypatch.setattr(backend, "sweep", counting_sweep)
    monkeypatch.setattr(backend, "_face_step", counting_face_step)
    return fit_round(embeddings, lam), counts


@pytest.fixture(scope="module")
def zig_zag_fits():
    embeddings = round_embeddings(*ZIG_ZAG_ROUND)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "_face_step_due", lambda changed: False)
        smo_only, smo_counts = counted_fit(patch, embeddings, LATE_LAMBDA)
    with pytest.MonkeyPatch.context() as patch:
        stepped, counts = counted_fit(patch, embeddings, LATE_LAMBDA)
    return smo_only, smo_counts, stepped, counts


def test_face_step_keeps_every_zig_zag_fit(zig_zag_fits):
    smo_only, smo_counts, stepped, counts = zig_zag_fits
    assert smo_counts["face_steps"] == 0
    assert counts["face_steps"] > 0
    assert stepped.pairs() == smo_only.pairs()
    for pair in smo_only.pairs():
        want, got = smo_only.models[pair], stepped.models[pair]
        assert want.converged and got.converged, pair
        assert got.support_indices == want.support_indices, pair
        assert (np.linalg.norm(got.normal - want.normal)
                <= gap_radius(got) + gap_radius(want)), pair


def test_face_step_cuts_the_kernel_updates_of_a_zig_zag_round(zig_zag_fits):
    _, smo_counts, _, counts = zig_zag_fits
    # SMO alone takes 1,558 updates over the round's 28 pairs.
    assert counts["updates"] <= 0.6 * smo_counts["updates"]


def face_problem():
    """Three samples a side in d = 3, a penalty that leaves a support
    vector of each side free, the fitted coefficients, and the same
    moved along their face: two free coefficients of opposite labels
    raised by the same amount, so ``sum(alpha * y)`` stays."""
    rng = np.random.default_rng(0)
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    x = rng.standard_normal((6, 3)) + 1.5 * y[:, None]
    lam = 10.0
    optimum = fit_binary(SvmProblem(x, y, lam)).alphas
    free = ((optimum > 0.0) & (optimum < lam)).nonzero()[0]
    pos, neg = free[y[free] > 0][0], free[y[free] < 0][0]
    moved = optimum.copy()
    moved[[pos, neg]] += 0.3 * min(optimum[pos], optimum[neg])
    assert moved[[pos, neg]].max() < lam
    return x, y, lam, optimum, moved


def gradient(gram, y, alpha):
    return y * (gram @ (alpha * y)) - 1.0


def test_face_step_returns_to_the_face_optimum():
    x, y, lam, optimum, alpha = face_problem()
    gram = x @ x.T
    grad = gradient(gram, y, alpha)
    stepped = backend._face_step(gram, np.arange(6)[None], y, lam, alpha[None], grad[None], 3)
    assert stepped.tolist() == [True]
    assert np.allclose(alpha, optimum, rtol=0.0, atol=1e-9 * lam)
    assert np.allclose(grad, gradient(gram, y, alpha), rtol=0.0, atol=1e-12)


def test_singular_faces_skip_the_step_and_spare_the_stack():
    x, y, lam, _, moved = face_problem()
    # Samples 0-5, then sample 1 again: a problem whose rows repeat a
    # sample has a singular face when both copies are free.
    samples = np.vstack([x, x[1]])
    matrix = samples @ samples.T
    rows = np.array([[0, 1, 2, 3, 4, 5],      # a regular face
                     [0, 1, 6, 3, 4, 5],      # sample 1 twice, both free
                     [0, 1, 2, 3, 4, 5]])     # every coefficient free
    alpha = np.array([moved,
                      [0.0, 2.0, 2.0, 4.0, 0.0, 0.0],
                      [1.0, 2.0, 3.0, 2.5, 2.0, 1.5]])
    grad = np.array([gradient(matrix[r[:, None], r], y, a) for r, a in zip(rows, alpha)])
    before_alpha, before_grad = alpha.copy(), grad.copy()
    # Rank 3: six free coefficients are more than rank + 1, and the
    # repeated sample's three are not, so its solve is singular.
    stepped = backend._face_step(matrix, rows, y, lam, alpha, grad, 3)
    assert stepped.tolist() == [True, False, False]
    assert np.array_equal(alpha[1:], before_alpha[1:])
    assert np.array_equal(grad[1:], before_grad[1:])
    # The regular problem steps as it would alone.
    alone, alone_grad = before_alpha[:1].copy(), before_grad[:1].copy()
    backend._face_step(matrix, rows[:1], y, lam, alone, alone_grad, 3)
    assert np.array_equal(alpha[0], alone[0]) and np.array_equal(grad[0], alone_grad[0])


def test_round_with_repeated_clients_fits_through_singular_faces(monkeypatch):
    # Clients 1 and 2 repeat client 0 in every class, so faces that hold
    # two of them free are singular.
    embeddings = round_embeddings(*ZIG_ZAG_ROUND)
    for listed in embeddings.values():
        listed[1] = listed[2] = listed[0]
    singular = []
    solve = backend._solve

    def watching(system, rhs):
        solved = solve(system, rhs)
        singular.append(int(np.isnan(solved[:, 0, 0]).sum()))
        return solved

    monkeypatch.setattr(backend, "_solve", watching)
    svm = fit_round(embeddings, LATE_LAMBDA)
    assert sum(singular) > 0
    assert all(model.converged for model in svm.models.values())
