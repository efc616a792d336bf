"""Benchmark of the binary SVM fit on problem sizes matching real
aggregation rounds (M = two classes' worth of participating clients).

Every fit must converge; otherwise the benchmark raises.

Run:  python3 benchmarks/bench_svm.py
"""

import time

import numpy as np

from fedsvm.svm import SvmProblem, fit_binary


def make_problem(m_per_side, d, seed):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    pos = 1.5 * direction + rng.standard_normal((m_per_side, d))
    neg = -1.5 * direction + rng.standard_normal((m_per_side, d))
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(m_per_side), -np.ones(m_per_side)])
    return SvmProblem(x, y, 1.0)


def time_fits(problems, repeats=3):
    best = float("inf")
    models = []
    for _ in range(repeats):
        start = time.perf_counter()
        models = [fit_binary(problem) for problem in problems]
        best = min(best, time.perf_counter() - start)
    return best, models


def check_fits(models, m, d):
    """Raise unless every fit converged."""
    stalled = [i for i, model in enumerate(models) if not model.converged]
    if stalled:
        raise RuntimeError(f"M = {m}, d = {d}: fits {stalled} did not converge")


def main():
    print(f"{'M':>5} {'d':>5} {'fits':>5} {'total [ms]':>11} {'per fit [ms]':>13} {'calls/fit':>10}")
    for m_per_side, d, fits in ((8, 16, 28), (16, 16, 28), (32, 16, 28),
                                (32, 64, 28), (64, 64, 28)):
        problems = [make_problem(m_per_side, d, seed) for seed in range(fits)]
        elapsed, models = time_fits(problems)
        calls = np.mean([model.sweeps for model in models])
        print(f"{2 * m_per_side:>5} {d:>5} {fits:>5} {1e3 * elapsed:>11.2f}"
              f" {1e3 * elapsed / fits:>13.3f} {calls:>10.2f}")
        check_fits(models, 2 * m_per_side, d)


if __name__ == "__main__":
    main()
