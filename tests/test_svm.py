import numpy as np
import pytest

from fedsvm.svm import (
    ALPHA_TOL,
    SvmProblem,
    fit_binary,
    fit_ovo,
    format_diagnostics,
)

from oracles import verify_logit_bound
from qp_oracle import dual_oracle, primal_oracle, random_separable_problem


def fit(x, y, lam, **kwargs):
    x = np.asarray(x, dtype=float)
    return fit_binary(SvmProblem(x, np.asarray(y, float), lam),
                      **kwargs)


# ---------------------------------------------------------------------------
# Analytic fixtures
# ---------------------------------------------------------------------------

def test_two_point_symmetric_fixture():
    model = fit([[1.0], [-1.0]], [1.0, -1.0], 1.0)
    assert np.allclose(model.normal, [1.0], atol=1e-9)
    assert abs(model.bias) < 1e-9
    assert model.support_indices == (0, 1)
    assert np.allclose(model.alphas, [0.5, 0.5], atol=1e-9)
    assert np.allclose(model.slacks, [0.0, 0.0], atol=1e-9)
    # Cross-check both programs with the independent QP oracle.
    _, _, primal_obj = primal_oracle(np.array([[1.0], [-1.0]]), [1, -1], 1.0)
    alphas, dual_obj = dual_oracle(np.array([[1.0], [-1.0]]), [1, -1], 1.0)
    assert model.primal_value == pytest.approx(primal_obj, rel=1e-6)
    assert model.dual_value == pytest.approx(dual_obj, rel=1e-6)
    assert np.allclose(alphas, [0.5, 0.5], atol=1e-6)


def test_square_fixture_unit_margins():
    x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = fit(x, y, 10.0)
    assert np.allclose(model.normal, [1.0, 0.0], atol=1e-8)
    assert abs(model.bias) < 1e-8
    margins = y * (x @ model.normal + model.bias)
    assert np.allclose(margins, 1.0, atol=1e-8)
    w, b, obj = primal_oracle(x, y, 10.0)
    assert model.primal_value == pytest.approx(obj, rel=1e-6)
    assert np.allclose(model.normal, w, atol=1e-5)


def test_vanishing_penalty_prefers_slack():
    model = fit([[1.0], [-1.0]], [1.0, -1.0], 1e-6)
    assert np.linalg.norm(model.normal) < 1e-5
    assert np.allclose(model.slacks, 1.0, atol=1e-5)
    # At w=0 the objective is all slack cost, 2e-6, and beats |w|=1.
    assert model.primal_value == pytest.approx(2e-6, rel=1e-2)


# ---------------------------------------------------------------------------
# Oracle agreement and KKT invariants on randomized problems
# ---------------------------------------------------------------------------

def random_problem(rng):
    m = int(rng.integers(2, 7))
    d = int(rng.integers(1, 4))
    while True:
        x = rng.standard_normal((m, d))
        y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        if np.any(y > 0) and np.any(y < 0) and not np.allclose(x, x[0]):
            return x, y, float(rng.uniform(0.1, 10.0))


def assert_kkt(model, x, y, lam):
    # Dual-primal link.
    assert np.allclose(model.normal, x.T @ (model.alphas * y), atol=1e-8)
    # Box constraints.
    assert np.all(model.alphas >= -1e-15) and np.all(model.alphas <= lam + 1e-15)
    # Slack definition.
    expected = np.maximum(0.0, 1.0 - y * (x @ model.normal + model.bias))
    assert np.allclose(model.slacks, expected, atol=1e-8)
    # Complementary slackness at tolerance.
    off_cap = model.alphas < lam - ALPHA_TOL
    assert np.all(model.slacks[off_cap] < 1e-6)
    # Duality gap certificate.
    gap = (model.primal_value - model.dual_value) / max(1.0, abs(model.primal_value))
    assert gap < 1e-6


def test_randomized_problems_match_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        x, y, lam = random_problem(rng)
        model = fit(x, y, lam, max_iters=500, tol=1e-10)
        _, _, oracle_obj = primal_oracle(x, y, lam)
        rel = abs(model.primal_value - oracle_obj) / max(1.0, abs(oracle_obj))
        assert rel < 1e-4, (x, y, lam, model.primal_value, oracle_obj)
        assert_kkt(model, x, y, lam)


def test_dual_objective_nondecreasing_across_sweeps():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y, lam = random_problem(rng)
        model = fit(x, y, lam)
        history = np.array(model.dual_history)
        assert np.all(np.diff(history) >= -1e-12)


def test_separable_normal_scales_inversely():
    x, y = random_separable_problem(np.random.default_rng(3), m_per_side=3, d=2)
    base = fit(x, y, 1e6)
    for c in (2.0, 5.0):
        scaled = fit(c * x, y, 1e6)
        assert np.allclose(scaled.normal, base.normal / c, atol=1e-6)


def clustered_problem(m, d, seed, repeated):
    """Two classes of m/2 unit-variance Gaussian embeddings around
    opposite cluster centres at distance 1.5 from the origin. With
    ``repeated``, rows recur within each class and across the classes, so
    that pairs of zero curvature occur."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    pos = 1.5 * direction + rng.standard_normal((m // 2, d))
    neg = -1.5 * direction + rng.standard_normal((m // 2, d))
    if repeated:
        pos[-1] = pos[0]
        neg[-1] = neg[0]
        neg[-2] = pos[1]
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(m // 2), -np.ones(m // 2)])
    return x, y


@pytest.mark.parametrize("repeated", [False, True])
@pytest.mark.parametrize("d", [4, 16, 64])
@pytest.mark.parametrize("m", [16, 64])
def test_workload_sized_problems_converge_with_kkt(m, d, repeated):
    for seed, lam in enumerate((1.0, 0.1, 0.01)):
        x, y = clustered_problem(m, d, seed, repeated)
        model = fit(x, y, lam)
        assert model.converged, (m, d, lam, model.duality_gap)
        assert_kkt(model, x, y, lam)


def test_scaled_down_problem_has_the_scaled_solution():
    # Samples scaled by s with lam scaled by 1/s^2 have the dual solution
    # alpha / s^2, the normal w / s and the same bias; zero-curvature pairs
    # must still be told apart from the rest at every scale. Scaled up,
    # every alpha falls far below any absolute zero threshold.
    x, y = clustered_problem(16, 4, 0, repeated=True)
    base = fit(x, y, 1.0)
    for s in (1e-4, 1e-8, 1e4, 1e6):
        scaled = fit(s * x, y, 1.0 / s**2)
        assert scaled.converged, (s, scaled.duality_gap)
        assert scaled.support_indices == base.support_indices
        assert np.allclose(s * scaled.normal, base.normal, atol=1e-6)
        assert scaled.bias == pytest.approx(base.bias, abs=1e-6)


def test_every_pair_has_support_on_both_sides():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y, lam = random_problem(rng)
        model = fit(x, y, lam, max_iters=500, tol=1e-10)
        sv = np.asarray(model.support_indices)
        assert len(sv) >= 2
        assert np.any(y[sv] > 0) and np.any(y[sv] < 0)


def test_degenerate_identical_samples_rejected():
    with pytest.raises(ValueError, match="identical"):
        fit([[1.0, 2.0], [1.0, 2.0]], [1.0, -1.0], 1.0)


def test_overflowing_gram_is_named():
    # Finite samples whose inner products overflow used to give NaN alphas
    # and an empty support set.
    with pytest.raises(ValueError, match="Gram matrix"):
        fit([[1e160], [-1e160]], [1.0, -1.0], 1.0)


def test_nonconvergence_is_flagged_not_raised():
    x, y = random_separable_problem(np.random.default_rng(17), m_per_side=10, d=3)
    model = fit(x, y, 5.0, max_iters=1, tol=1e-300)
    assert not model.converged
    assert np.isfinite(model.duality_gap)


def test_problem_validation():
    with pytest.raises(ValueError):
        SvmProblem(np.zeros((1, 2)), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        SvmProblem(np.zeros((2, 2)), np.array([1.0, 1.0]), 1.0)
    # A NaN penalty would fit all-zero coefficients, and an infinite one
    # would fail in the arithmetic after the kernel call.
    for lam in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^lam must be positive and finite$"):
            fit(np.eye(2), [1.0, -1.0], lam)


# ---------------------------------------------------------------------------
# One-vs-one wrapper
# ---------------------------------------------------------------------------

def simplex_ovo(lam=1.0):
    corners = np.eye(3)
    return fit_ovo({k: [(corners[k], 1.0)] for k in range(3)}, lam)


def support_clients(ovo, k):
    return ovo.class_support()[k].nonzero()[0].tolist()


def test_ovo_pair_count_binary():
    ovo = fit_ovo({0: [(np.array([1.0]), 1.0), (np.array([2.0]), 1.0)],
                   1: [(np.array([-1.0]), 1.0), (np.array([-2.0]), 1.0)]}, 1.0)
    assert len(ovo.models) == 1


def test_ovo_simplex_normals_parallel_to_differences():
    ovo = simplex_ovo()
    corners = np.eye(3)
    for p, (k, kp) in enumerate(ovo.pairs()):
        h = ovo.normals[p]
        diff = corners[k] - corners[kp]
        cos = (h @ diff) / (np.linalg.norm(h) * np.linalg.norm(diff))
        assert cos == pytest.approx(1.0, abs=1e-8)


def test_ovo_62_classes_pair_count():
    embeddings = {k: [(np.array([float(k), float(k % 5)]), 1.0)] for k in range(62)}
    ovo = fit_ovo(embeddings, 1.0, max_iters=1, tol=1e30)
    assert len(ovo.models) == 62 * 61 // 2 == 1891


def test_support_vectors_union_and_dedup():
    ovo = simplex_ovo()
    for k in range(3):
        # The lone client supports both pairs involving k but appears once.
        assert support_clients(ovo, k) == [0]


def test_interior_point_is_not_a_support_vector():
    pos = np.array([[2.0, 0.0], [3.0, 1.0], [3.0, -1.0]])
    neg = -pos
    ovo = fit_ovo({0: [(p, 1.0) for p in pos], 1: [(q, 1.0) for q in neg]}, 10.0)
    assert support_clients(ovo, 0) == [0]
    # The oracle confirms the interior points carry zero dual weight.
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(3), -np.ones(3)])
    alphas, _ = dual_oracle(x, y, 10.0)
    assert np.all(alphas[[1, 2, 4, 5]] < 1e-6)
    assert alphas[0] > 1e-6 and alphas[3] > 1e-6


def test_both_class_embeddings_can_be_support_vectors():
    ovo = fit_ovo({0: [(np.array([1.0, 0.0]), 1.0), (np.array([0.9, 0.1]), 2.0)],
                   1: [(np.array([-1.0, 0.0]), 1.0), (np.array([-0.9, -0.1]), 2.0)]},
                  0.05)
    for k in (0, 1):
        assert support_clients(ovo, k) == [0, 1]


def test_pair_normals_put_the_lower_class_on_the_positive_side():
    ovo = simplex_ovo()
    corners = np.eye(3)
    for p, (k, kp) in enumerate(ovo.pairs()):
        h, b = ovo.normals[p], ovo.models[(k, kp)].bias
        assert np.linalg.norm(h) > 0
        assert corners[k] @ h + b > 0
        assert corners[kp] @ h + b < 0


def test_ovo_error_carries_pair_identity():
    bad = {0: [(np.array([1.0, 1.0]), 1.0)], 1: [(np.array([1.0, 1.0]), 1.0)],
           2: [(np.array([0.0, 1.0]), 1.0)]}
    with pytest.raises(ValueError, match=r"pair \(0, 1\)"):
        fit_ovo(bad, 1.0)


def test_ovo_requires_every_class():
    with pytest.raises(ValueError):
        fit_ovo({0: [(np.zeros(2), 1.0)], 2: [(np.ones(2), 1.0)]}, 1.0)


def test_diagnostics_table_shape():
    ovo = simplex_ovo()
    text = format_diagnostics(ovo)
    lines = text.splitlines()
    assert len(lines) == 1 + 3
    assert "duality_gap" in lines[0]
    assert ovo.class_support().sum(axis=1).tolist() == [1, 1, 1]


# ---------------------------------------------------------------------------
# Projected logit-gap bound
# ---------------------------------------------------------------------------

def fit_separated_instance():
    # The dual optimum is unique, alpha = 1/4 for every point, so every
    # point is a support vector whatever the solver; h = (1, 0, 0), b = 0.
    pos = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
    neg = np.array([[-1.0, 0.0, 1.0], [-1.0, 0.0, -1.0]])
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(2), -np.ones(2)])
    return fit(x, y, 10.0), pos, neg


def test_bound_on_separated_symmetric_instance():
    model, pos, neg = fit_separated_instance()
    lhs, rhs, holds = verify_logit_bound(model, pos, neg, np.ones(4),
                                         np.array([1.5, 0.3, 0.0]))
    h_sq = float(model.normal @ model.normal)
    assert rhs == pytest.approx(2.0 / h_sq, abs=1e-9)
    assert holds and lhs >= rhs


def test_bound_degenerates_when_test_slack_is_one():
    model, pos, neg = fit_separated_instance()
    # h . 0 = 0 for every normal h, so the origin's slack is exactly 1
    # whatever rounding the solver leaves in h.
    lhs, rhs, holds = verify_logit_bound(model, pos, neg, np.ones(4), np.zeros(3))
    assert rhs == 0.0 and holds


def make_bound_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    d = int(rng.integers(2, 6))
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    gap = float(rng.uniform(1.5, 3.0))
    pos = gap * direction + 0.3 * rng.standard_normal((n, d))
    neg = -gap * direction + 0.3 * rng.standard_normal((n, d))
    lam = 1e-4 / n
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n), -np.ones(n)])
    model = fit(x, y, lam)
    test_point = gap * direction + 0.3 * rng.standard_normal(d)
    return model, pos, neg, np.full(2 * n, 3.0), test_point


def test_bound_holds_on_randomized_instances():
    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        model, pos, neg, weights, x_star = make_bound_instance(seed)
        try:
            lhs, rhs, holds = verify_logit_bound(model, pos, neg, weights, x_star)
        except ValueError:
            continue
        assert holds, (seed, lhs, rhs)
        checked += 1
    assert seed < 100


def test_bound_precondition_errors_name_the_assumption():
    pos = np.array([[2.0, 0.0], [3.0, 1.0], [3.0, -1.0]])
    neg = -pos
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(3), -np.ones(3)])
    model = fit(x, y, 10.0)
    with pytest.raises(ValueError, match="support vector"):
        verify_logit_bound(model, pos, neg, np.ones(6), np.array([2.0, 0.0]))
    model2 = fit(np.array([[1.0], [-1.0]]), [1.0, -1.0], 1.0)
    with pytest.raises(ValueError, match="equal"):
        verify_logit_bound(model2, [[1.0]], [[-1.0]], np.array([1.0, 2.0]),
                           np.array([1.0]))
    with pytest.raises(ValueError, match="good sample"):
        verify_logit_bound(model2, [[1.0]], [[-1.0]], np.ones(2), np.array([-0.5]))
