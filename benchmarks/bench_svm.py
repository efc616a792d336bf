"""Benchmark of the dual pair-sweep kernel: compiled extension vs the
pure-numpy fallback, on problem sizes matching real aggregation rounds
(M = two classes' worth of participating clients).

Every fit must converge, and when both backends are present they must
reach identical objectives; otherwise the benchmark raises.

Run:  python3 benchmarks/bench_svm.py
"""

import time

import numpy as np

from fedsvm.svm import SvmProblem, fit_binary, get_sweep


def make_problem(m_per_side, d, seed):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    pos = 1.5 * direction + rng.standard_normal((m_per_side, d))
    neg = -1.5 * direction + rng.standard_normal((m_per_side, d))
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(m_per_side), -np.ones(m_per_side)])
    return SvmProblem(x, y, 1.0)


def time_backend(sweep_fn, problems, repeats=3):
    best = float("inf")
    models = []
    for _ in range(repeats):
        start = time.perf_counter()
        models = [fit_binary(problem, sweep_fn=sweep_fn) for problem in problems]
        best = min(best, time.perf_counter() - start)
    return best, models


def check_fits(models, m, d):
    """Raise unless every fit converged and the backends agree exactly."""
    for name, fits in models.items():
        stalled = [i for i, model in enumerate(fits) if not model.converged]
        if stalled:
            raise RuntimeError(f"M = {m}, d = {d}: {name} fits {stalled} did not converge")
    if len(models) == 2:
        for i, (c, py) in enumerate(zip(models["c"], models["python"])):
            if c.primal_value != py.primal_value:
                raise RuntimeError(f"M = {m}, d = {d}, fit {i}: backends disagree "
                                   f"({c.primal_value!r} vs {py.primal_value!r})")


def main():
    backends = {}
    try:
        backends["c"] = get_sweep("c")
    except ImportError:
        print("compiled kernel not built; benchmarking the fallback only")
    backends["python"] = get_sweep("python")

    print(f"{'M':>5} {'d':>5} {'fits':>5}", end="")
    for name in backends:
        print(f" {name + ' [ms]':>12}", end="")
    if len(backends) == 2:
        print(f" {'speedup':>8}", end="")
    print()

    for m_per_side, d, fits in ((8, 16, 28), (16, 16, 28), (32, 16, 28),
                                (32, 64, 28), (64, 64, 28)):
        problems = [make_problem(m_per_side, d, seed) for seed in range(fits)]
        times = {}
        models = {}
        for name, sweep_fn in backends.items():
            times[name], models[name] = time_backend(sweep_fn, problems)
        print(f"{2 * m_per_side:>5} {d:>5} {fits:>5}", end="")
        for name in backends:
            print(f" {1e3 * times[name]:>12.2f}", end="")
        if len(backends) == 2:
            print(f" {times['python'] / times['c']:>7.1f}x", end="")
        print()
        check_fits(models, 2 * m_per_side, d)


if __name__ == "__main__":
    main()
