"""Acceptance suite: every release criterion at its stated tolerance,
one printed pass/fail line per criterion.

The convergence and sweep criteria run end-to-end through the harness on
the standard synthetic fixture: 40 clients, 8 classes, 32 features,
16-dim embeddings, Dirichlet 0.1 label skew, 8 clients per round, one
client epoch, 150 rounds, target accuracy 0.80, seeds 0-4. Those
criteria are directional comparisons, not numeric reproductions.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from fedsvm.config import PROX, ClientConfig, DatasetConfig, StrategyConfig, parse_config
from fedsvm.data import generate_synthetic
from fedsvm.harness import compare_strategies, run_experiment, sv_sweep
from fedsvm.metrics import accuracy, macro_f1, mcc
from fedsvm.model import encode, init_model
from fedsvm.optim import SGD
from fedsvm.strategies import (
    ServerState,
    fedaws_penalty,
    run_round,
    spreadout_loss,
)
from fedsvm.svm import SvmProblem, fit_binary

from oracles import (
    batch_loss_and_gradient,
    finite_difference_gradient,
    moon_loss_and_gradient,
    relative_error,
    verify_logit_bound,
)
from qp_oracle import primal_oracle


def report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


STANDARD_FIXTURE = """
[dataset]
kind = synthetic
clients = 40
classes = 8
feature_dim = 32
samples_per_client_mean = 30
samples_per_client_spread = 20
dirichlet_alpha = 0.1
class_separation = 3.0
noise_sigma = 1.0

[model]
embedding_dim = 16
hidden_width = 64

[client]
epochs = {epochs}
batch_size = 64
learning_rate = 0.1

[strategy]
name = {strategy}
{strategy_extra}

[run]
rounds = {rounds}
clients_per_round = 8
target_accuracy = 0.8
seeds = 0 1 2 3 4
"""

SVM_EXTRA = "server_learning_rate = 0.05"


def standard_config(tmp_dir: Path, strategy: str, epochs: int = 1,
                    rounds: int = 150, label: str = ""):
    strategy_extra = SVM_EXTRA if strategy == "svm_margin" else ""
    path = tmp_dir / f"{strategy}_e{epochs}_r{rounds}{label}.ini"
    text = STANDARD_FIXTURE.format(strategy=strategy, epochs=epochs,
                                   rounds=rounds, strategy_extra=strategy_extra)
    if label:
        text += f"label = {label}\n"  # the [run] section closes the file
    path.write_text(text)
    return parse_config(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def standard_runs(workdir):
    """Shared E=1 and E=4 runs of the standard fixture for criteria 5-6."""
    runs = {}
    start = time.perf_counter()
    for strategy in ("fedavg", "svm_margin"):
        cfg = standard_config(workdir, strategy)
        runs[(strategy, 1)] = run_experiment(cfg, workdir / f"{strategy}_e1")
    runs["elapsed_e1"] = time.perf_counter() - start
    for strategy in ("fedavg", "svm_margin"):
        cfg = standard_config(workdir, strategy, epochs=4)
        runs[(strategy, 4)] = run_experiment(cfg, workdir / f"{strategy}_e4")
    return runs


def median_rounds(result):
    total = result.config.rounds
    values = [r.rounds_to_target if r.rounds_to_target is not None else total + 1
              for r in result.seed_results]
    assert not result.failed_seeds, result.failed_seeds
    return float(np.median(values))


# ---------------------------------------------------------------------------
# 1. Gradient oracles
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = {"ce": 0.0, "spread": 0.0, "aws": 0.0, "moon": 0.0, "prox": 0.0}

    for trial in range(20):
        model = init_model(5, [6], 4, 3, np.random.default_rng(trial))
        x = rng.standard_normal((4, 5))
        y = rng.integers(0, 3, size=4)
        _, grads = batch_loss_and_gradient(model, x, y)
        fd = finite_difference_gradient(
            lambda f: batch_loss_and_gradient(model.with_params(f), x, y)[0],
            model.params.copy())
        worst["ce"] = max(worst["ce"], relative_error(grads.params, fd))

    k, d = 4, 3
    for trial in range(20):
        normals = rng.standard_normal((k * (k - 1) // 2, d))
        w = rng.standard_normal((k, d))
        _, grad = spreadout_loss(w, normals)
        fd = finite_difference_gradient(
            lambda f: spreadout_loss(f.reshape(k, d), normals)[0], w.ravel())
        worst["spread"] = max(worst["spread"], relative_error(grad.ravel(), fd))

    checked = 0
    while checked < 20:
        w = rng.standard_normal((k, d))
        norms = np.linalg.norm(w, axis=1)
        cosines = (w @ w.T) / np.outer(norms, norms)
        if np.any(np.abs(cosines[~np.eye(k, dtype=bool)]) < 1e-2):
            continue  # stay clear of the hinge kink where FD is invalid
        _, grad = fedaws_penalty(w)
        fd = finite_difference_gradient(
            lambda f: fedaws_penalty(f.reshape(k, d))[0], w.ravel())
        worst["aws"] = max(worst["aws"], relative_error(grad.ravel(), fd))
        checked += 1

    checked = 0
    trial = 0
    while checked < 20:
        trial += 1
        model = init_model(5, [6], 4, 3, np.random.default_rng(trial))
        global_model = init_model(5, [6], 4, 3, np.random.default_rng(trial + 100))
        prev_model = init_model(5, [6], 4, 3, np.random.default_rng(trial + 200))
        x = rng.standard_normal((5, 5))
        norms = [np.linalg.norm(encode(m, x), axis=1).min()
                 for m in (model, global_model, prev_model)]
        if min(norms) < 1e-3:
            continue  # the cosine is not differentiable at a zero embedding
        _, grads = moon_loss_and_gradient(model, global_model, prev_model, x, 0.5)
        fd = finite_difference_gradient(
            lambda f: moon_loss_and_gradient(model.with_params(f),
                                             global_model, prev_model, x, 0.5)[0],
            model.params.copy())
        worst["moon"] = max(worst["moon"], relative_error(grads.params, fd))
        checked += 1

    for trial in range(20):
        mu = float(rng.uniform(0.01, 2.0))
        theta_g = rng.standard_normal(30)
        theta = theta_g + rng.standard_normal(30)
        grad = mu * (theta - theta_g)
        fd = finite_difference_gradient(
            lambda v: 0.5 * mu * float((v - theta_g) @ (v - theta_g)), theta)
        worst["prox"] = max(worst["prox"], relative_error(grad, fd))

    elapsed = time.perf_counter() - start
    ok = all(err < 1e-5 for err in worst.values()) and elapsed < 10.0
    report(1, "analytic gradients match central finite differences", ok,
           f"worst rel err {max(worst.values()):.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. SVM correctness against the QP oracle
# ---------------------------------------------------------------------------

def test_criterion_2_svm_against_qp_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    problems = [
        (np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]), 1.0),
        (np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
         np.array([1.0, 1.0, -1.0, -1.0]), 10.0),
        (np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]), 1e-6),
    ]
    while len(problems) < 53:
        m = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        x = rng.standard_normal((m, d))
        y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        if np.all(y > 0) or np.all(y < 0) or np.allclose(x, x[0]):
            continue
        problems.append((x, y, float(rng.uniform(0.1, 10.0))))

    worst_obj = 0.0
    worst_gap = 0.0
    for x, y, lam in problems:
        model = fit_binary(SvmProblem(x, y, lam),
                           max_iters=2000, tol=1e-10)
        _, _, oracle_obj = primal_oracle(x, y, lam)
        worst_obj = max(worst_obj,
                        abs(model.primal_value - oracle_obj) / max(1.0, abs(oracle_obj)))
        # KKT and complementary slackness at the stated tolerances.
        assert np.allclose(model.normal, x.T @ (model.alphas * y), atol=1e-8)
        assert np.all((model.alphas >= -1e-12) & (model.alphas <= lam + 1e-12))
        expected_slack = np.maximum(0.0, 1.0 - y * (x @ model.normal + model.bias))
        assert np.allclose(model.slacks, expected_slack, atol=1e-8)
        off_cap = model.alphas < lam - 1e-8
        assert np.all(model.slacks[off_cap] < 1e-6)
        gap = (model.primal_value - model.dual_value) / max(1.0, abs(model.primal_value))
        worst_gap = max(worst_gap, gap)

    elapsed = time.perf_counter() - start
    ok = worst_obj < 1e-4 and worst_gap < 1e-6 and elapsed < 30.0
    report(2, "solver matches brute-force QP oracle with KKT certificates", ok,
           f"{len(problems)} fixtures, worst rel obj {worst_obj:.2e}, "
           f"worst gap {worst_gap:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Bitwise reduction identities
# ---------------------------------------------------------------------------

def _identity_dataset(equal_sizes=False):
    return generate_synthetic(DatasetConfig(
        clients=8, classes=3, feature_dim=5,
        samples_per_client_mean=14,
        samples_per_client_spread=0 if equal_sizes else 6,
        dirichlet_alpha=0.4, class_separation=3.0, noise_sigma=0.8), 123)


def _fedavg_server():
    return ServerState.create(StrategyConfig(name="fedavg"), total_rounds=20)


def test_criterion_3_reduction_identities():
    dataset = _identity_dataset()
    base_model = init_model(dataset.feature_dim, [6], 4, dataset.num_classes,
                            np.random.default_rng(0))
    cfg = ClientConfig(epochs=1, batch_size=8, learning_rate=0.1)

    # (a) A unit-rate SGD server on the pseudo-gradient is weighted averaging.
    m_avg, m_opt = base_model.copy(), base_model.copy()
    s_avg = _fedavg_server()
    s_opt = ServerState.create(StrategyConfig(
        name="fedopt", server_optimizer=SGD, server_learning_rate=1.0), total_rounds=20)
    identity_a = True
    for t in range(20):
        m_avg, _ = run_round(t, m_avg, dataset, s_avg, cfg, 4, seed=42)
        m_opt, _ = run_round(t, m_opt, dataset, s_opt, cfg, 4, seed=42)
        identity_a &= bool(np.array_equal(m_avg.params, m_opt.params))

    # (b) The proximal variant with zero coefficient is the vanilla client.
    prox_cfg = ClientConfig(epochs=1, batch_size=8, learning_rate=0.1,
                            variant=PROX, prox_mu=0.0)
    m_van, m_prox = base_model.copy(), base_model.copy()
    s1 = _fedavg_server()
    s2 = _fedavg_server()
    identity_b = True
    for t in range(20):
        m_van, _ = run_round(t, m_van, dataset, s1, cfg, 4, seed=43)
        m_prox, _ = run_round(t, m_prox, dataset, s2, prox_cfg, 4, seed=43)
        identity_b &= bool(np.array_equal(m_van.params, m_prox.params))

    # (c) With every embedding a support vector, equal sizes and no
    # regularizer steps, selective aggregation is weighted averaging.
    eq_dataset = _identity_dataset(equal_sizes=True)
    m_deg = init_model(eq_dataset.feature_dim, [6], 4, eq_dataset.num_classes,
                       np.random.default_rng(1))
    m_ref = m_deg.copy()
    s_svm = ServerState.create(StrategyConfig(
        name="svm_margin", svm_penalty_initial=1e-6, svm_penalty_floor=1e-6,
        reg_steps=0), total_rounds=20)
    s_ref = _fedavg_server()
    identity_c = True
    for t in range(20):
        m_deg, rec = run_round(t, m_deg, eq_dataset, s_svm, cfg, 4, seed=44)
        m_ref, _ = run_round(t, m_ref, eq_dataset, s_ref, cfg, 4, seed=44)
        identity_c &= bool(np.array_equal(m_deg.logit_matrix, m_ref.logit_matrix))
        identity_c &= rec.sv_counts == (4, 4, 4)

    report(3, "reduction identities hold bitwise over 20-round runs",
           identity_a and identity_b and identity_c,
           f"fedopt_sgd={identity_a} prox0={identity_b} degenerate_svm={identity_c}")


# ---------------------------------------------------------------------------
# 4. Projected logit-gap bound
# ---------------------------------------------------------------------------

def test_criterion_4_logit_gap_bound():
    holds_count = 0
    attempts = 0
    violations = []
    seed = 0
    while holds_count < 100 and attempts < 1000:
        seed += 1
        attempts += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 6))
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        gap = float(rng.uniform(1.5, 3.0))
        pos = gap * direction + 0.3 * rng.standard_normal((n, d))
        neg = -gap * direction + 0.3 * rng.standard_normal((n, d))
        x = np.vstack([pos, neg])
        y = np.concatenate([np.ones(n), -np.ones(n)])
        model = fit_binary(SvmProblem(x, y, 1e-4 / n))
        x_star = gap * direction + 0.3 * rng.standard_normal(d)
        try:
            lhs, rhs, holds = verify_logit_bound(model, pos, neg,
                                                 np.full(2 * n, 5.0), x_star)
        except ValueError:
            continue  # instance missed a precondition; draw another
        holds_count += 1
        if not holds:
            violations.append((seed, lhs, rhs))
    ok = holds_count == 100 and not violations
    report(4, "logit-gap lower bound holds on 100 qualifying instances", ok,
           f"{holds_count} instances from {attempts} draws, "
           f"{len(violations)} violations")


# ---------------------------------------------------------------------------
# 5. Convergence acceleration on the standard fixture
# ---------------------------------------------------------------------------

def test_criterion_5_convergence_acceleration(standard_runs):
    fedavg = standard_runs[("fedavg", 1)]
    svm = standard_runs[("svm_margin", 1)]
    med_fedavg = median_rounds(fedavg)
    med_svm = median_rounds(svm)
    f1_fedavg = float(np.mean([r.final.f1 for r in fedavg.seed_results]))
    f1_svm = float(np.mean([r.final.f1 for r in svm.seed_results]))
    elapsed = standard_runs["elapsed_e1"]
    ok = med_svm < med_fedavg and f1_svm >= f1_fedavg and elapsed < 600.0
    report(5, "SVM-guided aggregation converges faster than plain averaging", ok,
           f"median rounds {med_svm:.0f} vs {med_fedavg:.0f}, "
           f"final F1 {f1_svm:.3f} vs {f1_fedavg:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Lazy-client sensitivity
# ---------------------------------------------------------------------------

def test_criterion_6_lazy_client_sensitivity(standard_runs):
    adv_e1 = median_rounds(standard_runs[("fedavg", 1)]) \
        - median_rounds(standard_runs[("svm_margin", 1)])
    adv_e4 = median_rounds(standard_runs[("fedavg", 4)]) \
        - median_rounds(standard_runs[("svm_margin", 4)])
    ok = adv_e1 >= adv_e4
    report(6, "advantage over plain averaging is largest for lazy clients", ok,
           f"advantage {adv_e1:.0f} rounds at E=1 vs {adv_e4:.0f} at E=4")


# ---------------------------------------------------------------------------
# 7. Support-vector count trend
# ---------------------------------------------------------------------------

def test_criterion_7_sv_count_trend(workdir):
    base = standard_config(workdir, "svm_margin", rounds=40)
    rows = sv_sweep(base, [4, 16, 64], [32, 8], workdir / "sweep")
    at_32 = {row["d"]: row["sv_count"] for row in rows if row["C"] == 32}
    trend = at_32[4] >= at_32[16] >= at_32[64]

    cap_ok = True
    for d in (4, 16, 64):
        with open(workdir / "sweep" / f"d{d}_c8" / "rounds.csv") as fh:
            for record in csv.DictReader(fh):
                counts = [int(c) for c in record["sv_counts"].split(";")]
                cap_ok &= all(c <= 8 for c in counts)

    report(7, "support-vector count shrinks with embedding size, capped by C",
           trend and cap_ok,
           f"mean counts at C=32: {at_32[4]:.1f} / {at_32[16]:.1f} / {at_32[64]:.1f}; "
           f"C=8 cap respected: {cap_ok}")


# ---------------------------------------------------------------------------
# 8. Metrics unit suite
# ---------------------------------------------------------------------------

def test_criterion_8_metrics_unit_suite():
    cm = np.array([[2, 1], [1, 2]])
    checks = [
        accuracy(cm) == pytest.approx(4 / 6, abs=1e-15),
        macro_f1(cm) == pytest.approx(2 / 3, abs=1e-15),
        mcc(cm) == pytest.approx(1 / 3, abs=1e-15),
        mcc(np.array([[50, 0], [50, 0]])) == 0.0,
        accuracy(np.diag([3, 4, 5])) == 1.0,
        macro_f1(np.diag([3, 4, 5])) == 1.0,
        mcc(np.diag([3, 4, 5])) == pytest.approx(1.0, abs=1e-12),
    ]
    report(8, "hand-derived confusion-matrix cases are exact", all(checks))


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

def test_criterion_9_byte_identical_reruns(workdir):
    cfg = standard_config(workdir, "svm_margin", rounds=5)
    out_a = run_experiment(cfg, workdir / "det_a")
    out_b = run_experiment(cfg, workdir / "det_b")
    assert not out_a.failed_seeds and not out_b.failed_seeds

    def masked_lines(path):
        # Every field except the trailing wall-clock column must be
        # byte-identical; the timing field is physically nondeterministic.
        with open(path) as fh:
            return [line.rsplit(",", 1)[0] for line in fh]

    rounds_ok = masked_lines(workdir / "det_a" / "rounds.csv") \
        == masked_lines(workdir / "det_b" / "rounds.csv")
    summary_ok = (workdir / "det_a" / "summary.csv").read_bytes() \
        == (workdir / "det_b" / "summary.csv").read_bytes()
    report(9, "rerunning a config reproduces its outputs byte for byte",
           rounds_ok and summary_ok,
           f"rounds.csv (timing column aside): {rounds_ok}, summary.csv: {summary_ok}")


# ---------------------------------------------------------------------------
# 10. ">T" reporting convention
# ---------------------------------------------------------------------------

def test_criterion_10_never_reached_convention(workdir):
    healthy = standard_config(workdir, "fedavg", rounds=10, label="healthy")
    # Second config: same run, client rate too small to ever reach target.
    crippled_path = workdir / "crippled.ini"
    crippled_path.write_text(STANDARD_FIXTURE.format(
        strategy="fedavg", epochs=1, rounds=10, strategy_extra="")
        .replace("learning_rate = 0.1", "learning_rate = 1e-6")
        + "label = crippled\n")
    crippled = parse_config(crippled_path)
    rows = compare_strategies([healthy, crippled], workdir / "cmp")
    by_name = {row["strategy"]: row for row in rows}
    cell = by_name["crippled"]["rounds_mean"]
    with open(workdir / "cmp" / "compare.csv") as fh:
        text = fh.read()
    ok = cell == ">10" and ">10" in text
    report(10, 'strategies that never reach the target report ">T"', ok,
           f"cell = {cell!r}")
