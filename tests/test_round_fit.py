"""``fit_round`` against its per-pair references.

All of them run every pair through the solver's one fit loop.
``fit_round`` runs the pairs together, each on its block of the round's
one Gram product; ``oracles.round_product_fit`` runs each pair alone on
that block, so the two agree only if every pair reads its own rows of
the product and the lockstep kernel updates each pair as the
one-problem kernel would, face steps included (several cases below take
them, lone or in lockstep). ``fit_ovo`` runs one ``fit_binary`` call per
pair on the pair's own product, which BLAS rounds like the pair's block
of the round product except at some shapes. The round entry must
return the same-product reference's models bit for bit on every case,
``fit_ovo``'s wherever the products agree and ``fit_ovo``'s normals to
within the duality gaps elsewhere, and raise ``fit_ovo``'s pair-named
errors; a round of the ``svm_c32`` benchmark shape must fit without a
stack of per-pair M x M matrices. Each stacked kernel call gets the
fit's whole state and its running set, and a lone pair its own row; one
stacked call, from mid-fit states, steps each problem bit for bit as a
one-problem call on its own Gram block would.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsvm.svm import backend, fit_ovo, fit_round

from oracles import round_product_fit
from qp_oracle import dual_oracle
from test_solver_lock import LATE_LAMBDA
from test_solver_lock import round_embeddings as lock_round


def round_embeddings(classes, clients, dim, seed, spread=0.3, scale=1.0):
    rng = np.random.default_rng(seed)
    means = scale * rng.standard_normal((classes, dim))
    return {k: [(means[k] + spread * rng.standard_normal(dim), float(i + 1))
                for i in range(clients)]
            for k in range(classes)}


def assert_same_fit(reference, fitted):
    assert fitted.num_classes == reference.num_classes
    assert fitted.pairs() == reference.pairs()
    for pair in reference.pairs():
        want, got = reference.models[pair], fitted.models[pair]
        assert got.alphas.tobytes() == want.alphas.tobytes(), pair
        assert got.normal.tobytes() == want.normal.tobytes(), pair
        assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes(), pair
        assert got.support_indices == want.support_indices, pair
        assert got.slacks.tobytes() == want.slacks.tobytes(), pair
        for name in ("primal_value", "dual_value", "duality_gap"):
            assert (np.float64(getattr(got, name)).tobytes()
                    == np.float64(getattr(want, name)).tobytes()), (pair, name)
        assert got.converged == want.converged, pair
        assert got.sweeps == want.sweeps, pair
        assert np.array_equal(got.dual_history, want.dual_history), pair
        assert len(got.dual_history) == got.sweeps, pair
    for name in ("embeddings", "weights", "normals", "support"):
        want, got = getattr(reference, name), getattr(fitted, name)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    for p, pair in enumerate(reference.pairs()):
        for svm in (reference, fitted):
            assert np.shares_memory(svm.models[pair].normal, svm.normals[p]), pair
            assert svm.support[p].nonzero()[0].tolist() == list(
                svm.models[pair].support_indices), pair


CASES = {
    # K = 2: the round is one pair.
    "two_classes": (round_embeddings(2, 6, 3, 0), 1.0, {}),
    # C = 1: every pair problem has M = 2.
    "one_client": (round_embeddings(5, 1, 4, 1), 1.0, {}),
    # C = 5, K = 3: BLAS rounds some entries of the round's 15-sample
    # product differently from the pairs' own 10-sample products, so
    # fit_ovo is not a bitwise reference here.
    "unaligned_blocks": (round_embeddings(3, 5, 16, 2), 1.0, {}),
    "lam_small": (round_embeddings(4, 8, 6, 3), 1e-2, {}),
    "lam_one": (round_embeddings(4, 8, 6, 3), 1.0, {}),
    "lam_large": (round_embeddings(4, 8, 6, 3), 1e2, {}),
    # Overlapping classes with a tight gap need more than one kernel call.
    "second_kernel_call": (round_embeddings(4, 8, 3, 4, spread=1.0, scale=0.3), 1.0,
                           {"tol": 1e-12}),
    "one_call_budget": (round_embeddings(4, 8, 3, 5), 1.0, {"max_iters": 1, "tol": 1e30}),
    "no_call_budget": (round_embeddings(3, 4, 3, 6), 1.0, {"max_iters": 0}),
    "many_support_vectors": (round_embeddings(8, 12, 5, 7, spread=2.0), 0.5, {}),
    # The shape of test_svm.py::test_ovo_62_classes_pair_count.
    "62_classes": ({k: [(np.array([float(k), float(k % 5)]), 1.0)] for k in range(62)},
                   1.0, {"max_iters": 1, "tol": 1e30}),
    # test_face_step.py's round of the svm_c32 benchmark shape, whose
    # pairs take face steps after 16 updates.
    "face_steps": (lock_round(32, 64, 0.5, 3), LATE_LAMBDA, {}),
}


def bitwise_reference(case):
    return round_product_fit if case == "unaligned_blocks" else fit_ovo


@pytest.mark.parametrize("case", sorted(CASES))
def test_round_fit_equals_per_pair_reference(case):
    embeddings, lam, kwargs = CASES[case]
    assert_same_fit(bitwise_reference(case)(embeddings, lam, **kwargs),
                    fit_round(embeddings, lam, **kwargs))


@pytest.mark.parametrize("case", sorted(CASES))
def test_round_fit_equals_same_product_reference(case):
    embeddings, lam, kwargs = CASES[case]
    assert_same_fit(round_product_fit(embeddings, lam, **kwargs),
                    fit_round(embeddings, lam, **kwargs))


def absolute_gap(model):
    """The fit's absolute duality gap. The relative gap is clamped at 0
    and widened by 4 eps, the rounding of its own computation, which can
    leave a converged gap just below 0."""
    gap = max(model.duality_gap, 0.0) + 4.0 * np.finfo(np.float64).eps
    return gap * max(1.0, abs(model.primal_value))


def gap_radius(model):
    """sqrt(2g) for the fit's absolute duality gap g: the primal is
    1-strongly convex in w, so the optimal normal lies within it."""
    return np.sqrt(2.0 * absolute_gap(model))


def test_unaligned_blocks_agree_with_fit_ovo_within_the_gap():
    embeddings, lam, kwargs = CASES["unaligned_blocks"]
    reference, fitted = fit_ovo(embeddings, lam, **kwargs), fit_round(embeddings, lam, **kwargs)
    assert fitted.pairs() == reference.pairs()
    for pair in reference.pairs():
        want, got = reference.models[pair], fitted.models[pair]
        assert want.converged and got.converged, pair
        assert np.linalg.norm(got.normal - want.normal) <= gap_radius(got) + gap_radius(want)


# Rounds for the invariance properties below. Each property compares
# two fits of one problem up to a symmetry, so the optimal normals
# agree and each fit's normal lies within its gap radius of the
# optimum; nothing is asserted of the support sets, which a 1e-6 gap
# does not fix.
ROUNDS = dict(classes=st.integers(2, 6), clients=st.integers(1, 12), dim=st.integers(1, 16),
              scale=st.floats(1e-3, 1e3), lam=st.floats(1e-2, 1e2),
              seed=st.integers(0, 2**32 - 1))


def scaled_round(classes, clients, dim, scale, seed):
    return {k: [(scale * e, w) for e, w in listed]
            for k, listed in round_embeddings(classes, clients, dim, seed).items()}


@settings(max_examples=40)
@given(**ROUNDS)
def test_class_swap_negates_the_pair_normal(classes, clients, dim, scale, lam, seed):
    embeddings = scaled_round(classes, clients, dim, scale, seed)
    swapped = {**embeddings, 0: embeddings[1], 1: embeddings[0]}
    want, got = fit_round(embeddings, lam).models[(0, 1)], fit_round(swapped, lam).models[(0, 1)]
    assert np.linalg.norm(got.normal + want.normal) <= gap_radius(got) + gap_radius(want)


@settings(max_examples=40)
@given(**ROUNDS, order_seed=st.integers(0, 2**32 - 1))
def test_client_permutation_keeps_every_pair_normal(classes, clients, dim, scale, lam, seed,
                                                    order_seed):
    embeddings = scaled_round(classes, clients, dim, scale, seed)
    order = np.random.default_rng(order_seed).permutation(clients)
    permuted = {k: [listed[i] for i in order] for k, listed in embeddings.items()}
    reference, fitted = fit_round(embeddings, lam), fit_round(permuted, lam)
    for pair in reference.pairs():
        want, got = reference.models[pair], fitted.models[pair]
        assert np.linalg.norm(got.normal - want.normal) <= gap_radius(got) + gap_radius(want)


@settings(max_examples=40)
@given(**ROUNDS, factor=st.floats(1e-3, 1e3))
def test_scaled_samples_scale_every_pair_normal(classes, clients, dim, scale, lam, seed,
                                                factor):
    # Samples x s with lambda / s^2 is the same problem in w' = w / s,
    # its primal divided by s^2, so the reference normal's radius
    # shrinks by s too.
    reference = fit_round(scaled_round(classes, clients, dim, scale, seed), lam)
    fitted = fit_round(scaled_round(classes, clients, dim, scale * factor, seed),
                       lam / factor**2)
    for pair in reference.pairs():
        want, got = reference.models[pair], fitted.models[pair]
        assert (np.linalg.norm(got.normal - want.normal / factor)
                <= gap_radius(got) + gap_radius(want) / factor)


@settings(max_examples=30)
@given(classes=st.integers(2, 4), clients=st.integers(1, 3), dim=st.integers(1, 16),
       scale=st.floats(1e-3, 1e3), lam0=st.floats(1e-3, 1e2), seed=st.integers(0, 2**32 - 1))
def test_every_pair_is_within_its_gap_of_the_qp_optimum(classes, clients, dim, scale, lam0,
                                                        seed):
    # Pair problems of M = 2C <= 6 samples, few enough for the oracle's
    # enumeration of faces. The fit's dual lies within its absolute gap
    # of the optimal dual, and its normal within the gap radius of the
    # optimal normal. Samples x s with lambda0 / s^2 is the problem at
    # s = 1 in w / s, so every scale keeps lambda * ||x||^2 where the
    # solver is known to converge (ROADMAP item 1).
    embeddings = scaled_round(classes, clients, dim, scale, seed)
    lam = lam0 / scale**2
    y = np.concatenate((np.ones(clients), -np.ones(clients)))
    for (k, kp), model in fit_round(embeddings, lam).models.items():
        x = np.array([e for e, _ in embeddings[k] + embeddings[kp]])
        alpha, dual = dual_oracle(x, y, lam)
        assert dual - model.dual_value <= absolute_gap(model) + 1e-12 * max(1.0, abs(dual))
        assert np.linalg.norm(model.normal - x.T @ (alpha * y)) <= gap_radius(model)


def test_oracle_dual_never_exceeds_a_feasible_primal_at_tiny_lam():
    # Every dual coefficient here is below 2e-7. A feasibility tolerance
    # of 1e-10 * max(1, lam) accepted a face of pair (2, 3) with
    # |sum(alpha y)| = 7.9e-11 whose dual sat 1.6e-4 (relative) above the
    # fit's primal, which no feasible dual can do.
    lam = 5.4e-7
    embeddings = scaled_round(4, 3, 14, 739, 186)
    y = np.concatenate((np.ones(3), -np.ones(3)))
    for (k, kp), model in fit_round(embeddings, lam).models.items():
        x = np.array([e for e, _ in embeddings[k] + embeddings[kp]])
        alpha, dual = dual_oracle(x, y, lam)
        assert abs(alpha @ y) <= 1e-10 * alpha.max(), (k, kp)
        assert dual <= model.primal_value * (1 + 1e-12), (k, kp)


@settings(max_examples=60)
@given(classes=st.integers(2, 9), clients=st.integers(1, 12), dim=st.integers(1, 69),
       scale=st.floats(1e-3, 1e3), lam=st.floats(1e-3, 1e2), seed=st.integers(0, 2**32 - 1))
def test_round_fit_equals_same_product_reference_at_any_shape(classes, clients, dim, scale,
                                                              lam, seed):
    embeddings = {k: [(scale * e, w) for e, w in listed]
                  for k, listed in round_embeddings(classes, clients, dim, seed).items()}
    assert_same_fit(round_product_fit(embeddings, lam), fit_round(embeddings, lam))


@pytest.mark.parametrize("case", ["unaligned_blocks", "many_support_vectors"])
def test_round_fit_takes_the_stacked_round(case):
    embeddings, lam, kwargs = CASES[case]
    x = np.array([[e for e, _ in embeddings[k]] for k in sorted(embeddings)])
    weights = [w for _, w in embeddings[0]]
    # The layout of run_round's client buffer: one client per row.
    rows = np.ascontiguousarray(x.transpose(1, 0, 2))
    assert_same_fit(bitwise_reference(case)(embeddings, lam, **kwargs),
                    fit_round(rows.transpose(1, 0, 2), lam, weights=weights, **kwargs))


@pytest.mark.parametrize("x,weights", [
    (np.ones((1, 2, 3)), [1.0, 1.0]),     # one class
    (np.ones((2, 0, 3)), []),             # no clients
    (np.ones((2, 2)), [1.0, 1.0]),        # not K x C x d
    (np.ones((2, 2, 3)), [1.0]),          # one weight for two clients
    (np.ones((2, 2, 3)), None),           # no weights
])
def test_stacked_round_is_checked(x, weights):
    with pytest.raises(ValueError, match=r"^need K >= 2 classes"):
        fit_round(x, 1.0, weights=weights)


def test_second_kernel_call_case_runs_more_than_one_call():
    embeddings, lam, kwargs = CASES["second_kernel_call"]
    sweeps = [m.sweeps for m in fit_round(embeddings, lam, **kwargs).models.values()]
    assert max(sweeps) >= 2
    assert min(sweeps) < max(sweeps)


def kernel_calls(case):
    """``fit_round`` on a case, with each ``backend.sweep`` call's state
    arrays, running set and state before the call recorded."""
    embeddings, lam, kwargs = CASES[case]
    sweep, calls = backend.sweep, []

    def recording_sweep(*args):
        alpha, grad = args[3:5]
        before = alpha.copy(), grad.copy()
        updates = sweep(*args)
        calls.append((alpha, grad, args[8] if len(args) > 8 else None, before))
        return updates

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "sweep", recording_sweep)
        return fit_round(embeddings, lam, **kwargs), calls


def test_kernel_calls_take_the_whole_state_and_the_running_set():
    # Four pairs of many_support_vectors run past the first call, and
    # two of them past the second; one pair of second_kernel_call
    # finishes alone. A stacked call gets the fit's own P x M state and
    # the pairs that the previous call left running, and leaves every
    # other row as it was; a lone pair gets its own row, of length M.
    subsets = lone = 0
    for case in ("many_support_vectors", "second_kernel_call"):
        svm, calls = kernel_calls(case)
        models = [svm.models[pair] for pair in svm.pairs()]
        pairs, m = svm.support.shape
        for call, (alpha, grad, running, (alpha_before, grad_before)) in enumerate(calls):
            ran = [p for p, model in enumerate(models) if model.sweeps > call]
            if alpha.ndim == 1:
                assert alpha.shape == grad.shape == (m,), (case, call)
                assert len(ran) == 1 and np.shares_memory(alpha, models[ran[0]].alphas)
                lone += 1
                continue
            assert alpha.shape == grad.shape == (pairs, m), (case, call)
            assert np.shares_memory(alpha, models[0].alphas), (case, call)
            assert running.tolist() == ran, (case, call)
            others = np.setdiff1d(np.arange(pairs), running)
            assert alpha[others].tobytes() == alpha_before[others].tobytes(), (case, call)
            assert grad[others].tobytes() == grad_before[others].tobytes(), (case, call)
            subsets += 1 < len(ran) < pairs
    assert subsets and lone


def raised(fit, embeddings, lam):
    with pytest.raises(ValueError) as info:
        fit(embeddings, lam)
    return str(info.value)


def vec(*values):
    return np.array(values, dtype=float)


GOOD = {0: [(vec(1.0, 0.0), 1.0), (vec(0.9, 0.2), 2.0)],
        1: [(vec(-1.0, 0.0), 1.0), (vec(-0.8, 0.1), 2.0)],
        2: [(vec(0.0, 1.0), 1.0), (vec(0.1, 0.9), 2.0)]}


def with_class(k, entries):
    return {**GOOD, k: entries}


ERRORS = {
    "identical_first_pair": ({0: [(vec(1.0, 1.0), 1.0)], 1: [(vec(1.0, 1.0), 1.0)],
                              2: [(vec(0.0, 1.0), 1.0)]}, 1.0),
    "identical_later_pair": ({0: [(vec(0.0, 1.0), 1.0)], 1: [(vec(1.0, 1.0), 1.0)],
                              2: [(vec(1.0, 1.0), 1.0)]}, 1.0),
    "gram_overflow": ({k: [(vec(1e200 * (k + 1), 0.0), 1.0)] for k in range(3)}, 1.0),
    "non_finite_embedding": (with_class(2, [(vec(0.0, np.nan), 1.0), (vec(0.1, 0.9), 2.0)]),
                             1.0),
    "infinite_embedding": (with_class(1, [(vec(-np.inf, 0.0), 1.0), (vec(-0.8, 0.1), 2.0)]),
                           1.0),
    "missing_class": ({0: GOOD[0], 2: GOOD[2]}, 1.0),
    "one_class": ({0: GOOD[0]}, 1.0),
    "empty_class": (with_class(1, []), 1.0),
    "non_positive_lam": (GOOD, 0.0),
    "nan_lam": (GOOD, np.nan),
    "inf_lam": (GOOD, np.inf),
    "unequal_client_lists": (with_class(2, GOOD[2][:1]), 1.0),
    "unequal_weights": (with_class(1, [(vec(-1.0, 0.0), 1.0), (vec(-0.8, 0.1), 3.0)]), 1.0),
    # Every squared norm underflows to 0, so the kernel's curvature floor
    # would be 0.
    "gram_underflow": ({0: [(vec(1e-170, 0.0), 1.0)], 1: [(vec(0.0, 1e-170), 1.0)]}, 1.0),
    "gram_underflow_later_pair": ({0: [(vec(1.0, 0.0), 1.0)], 1: [(vec(1e-170, 0.0), 1.0)],
                                   2: [(vec(0.0, 1e-170), 1.0)]}, 1.0),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(ERRORS))
def test_round_fit_raises_the_reference_error(case):
    embeddings, lam = ERRORS[case]
    expected = raised(fit_ovo, embeddings, lam)
    assert raised(fit_round, embeddings, lam) == expected


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_error_messages_name_the_pair_and_cause():
    assert raised(fit_round, *ERRORS["gram_overflow"]).startswith(
        "pair (0, 1): non-finite values in Gram matrix")
    assert raised(fit_round, *ERRORS["identical_later_pair"]) == (
        "pair (1, 2): degenerate problem: all samples identical")
    assert raised(fit_round, *ERRORS["non_finite_embedding"]) == (
        "pair (0, 2): non-finite values in samples")
    assert raised(fit_round, *ERRORS["gram_underflow"]).startswith(
        "pair (0, 1): Gram matrix underflows")
    assert raised(fit_round, *ERRORS["unequal_weights"]) == (
        "class 1 weighs its clients unlike class 0")
    for case in ("non_positive_lam", "nan_lam", "inf_lam"):
        assert raised(fit_round, *ERRORS[case]) == "pair (0, 1): lam must be positive and finite"


@pytest.mark.parametrize("embedding", [1.0, [[1.0, 0.0]]])
def test_embeddings_that_are_not_vectors_are_checked(embedding):
    embeddings = {k: [(embedding, 1.0)] for k in range(2)}
    expected = raised(fit_ovo, embeddings, 1.0)
    assert expected.startswith("need K >= 2 classes of C >= 1 embeddings")
    assert raised(fit_round, embeddings, 1.0) == expected


def test_unequal_client_lists_name_the_class():
    embeddings = with_class(2, GOOD[2][:1])
    with pytest.raises(ValueError, match=r"^class 2 lists 1 clients, class 0 lists 2$"):
        fit_round(embeddings, 1.0)


def test_svm_c32_round_fits_in_a_small_memory_peak():
    # C = 32 clients, K = 8 classes, d = 64: pair problems of M = 64.
    # One M x M matrix per pair would alone take 28 * 64 * 64 * 8 bytes
    # (0.92 MB) for each stacked quantity.
    embeddings = round_embeddings(8, 32, 64, 8, spread=0.005, scale=1.0)
    fit_round(embeddings, 1.0)
    tracemalloc.start()
    try:
        fit_round(embeddings, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def kernel_stack(rng):
    """A stack of 2-7 pair problems of M = 2-14 samples in d = 1-11,
    scaled by 1e-2...1e2, with each problem's P x M state after a loose
    stacked call (eps = 1). About a third of the stacks repeat samples,
    so that some faces are singular."""
    count, m, dim = int(rng.integers(2, 8)), int(rng.integers(2, 15)), int(rng.integers(1, 12))
    scale = 10.0 ** rng.uniform(-2, 2)
    samples = scale * rng.standard_normal((count * m, dim))
    if rng.random() < 1 / 3:
        samples = samples[rng.integers(0, max(2, count * m // 3), count * m)]
    positives = int(rng.integers(1, m))
    y = np.concatenate((np.ones(positives), -np.ones(m - positives)))
    lam = 10.0 ** rng.uniform(-2, 2) / scale**2
    matrix = samples @ samples.T
    rows = np.arange(count * m).reshape(count, m)
    grams = backend.PairGrams(matrix, rows, np.diagonal(matrix)[rows])
    alpha, grad = np.zeros((count, m)), -np.ones((count, m))
    backend.sweep(grams, y, lam, alpha, grad, 1.0, dim, np.zeros(count, dtype=int),
                  np.arange(count))
    return grams, y, lam, alpha, grad, dim


def test_stacked_kernel_call_equals_each_problem_alone():
    # One stacked call steps every problem as a one-problem call on its
    # own Gram block would, from mid-fit states and down to a lone
    # problem handed to the one-problem loop: the same coefficients,
    # gradient and update count, bit for bit.
    rng = np.random.default_rng(25)
    for stack in range(150):
        grams, y, lam, alpha, grad, rank = kernel_stack(rng)
        eps = 10.0 ** rng.uniform(-15, -3)
        count = alpha.shape[0]
        alone = [(alpha[p].copy(), grad[p].copy()) for p in range(count)]
        changed = np.zeros(count, dtype=int)
        backend.sweep(grams, y, lam, alpha, grad, eps, rank, changed, np.arange(count))
        for p, (a, g) in enumerate(alone):
            block = grams.matrix[grams.rows[p][:, None], grams.rows[p]]
            updates = backend.sweep(block, y, lam, a, g, eps, rank)
            assert updates == changed[p], (stack, p)
            assert a.tobytes() == alpha[p].tobytes(), (stack, p)
            assert g.tobytes() == grad[p].tobytes(), (stack, p)
