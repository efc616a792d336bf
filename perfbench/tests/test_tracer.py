import sys

import numpy as np
import pytest

import fedsvm.harness  # noqa: F401 - loads every layer module
from tracer import Tracer, calls_under, patched, self_time, summarize


def _bindings():
    return {(name, attr): id(obj)
            for name, module in list(sys.modules.items())
            if module is not None and (name == "fedsvm" or name.startswith("fedsvm."))
            for attr, obj in vars(module).items()}


def test_patched_restores_every_binding_even_when_the_workload_raises():
    from fedsvm import harness, strategies
    from fedsvm.svm import backend

    before = _bindings()
    original_round = strategies.run_round
    original_sweep = backend.sweep
    with pytest.raises(RuntimeError, match="workload failed"):
        with patched(Tracer()) as saved:
            assert harness.run_round is not original_round
            assert strategies.run_round is harness.run_round
            assert backend.sweep is not original_sweep
            assert len(saved) > 50
            raise RuntimeError("workload failed")
    assert _bindings() == before
    assert harness.run_round is original_round


def test_wrappers_record_nested_spans_and_solver_counters():
    from fedsvm import svm as solver

    rng = np.random.default_rng(0)
    embeddings = {k: [(rng.standard_normal(3) + 3 * k, 1.0) for _ in range(4)]
                  for k in range(3)}
    tracer = Tracer()
    with patched(tracer):
        svm = solver.fit_ovo(embeddings, 1.0)
    summary = summarize(tracer.spans)
    assert summary["svm.fit_ovo"]["calls"] == 1
    assert summary["svm.fit_binary"]["calls"] == 3
    sweeps = sum(model.sweeps for model in svm.models.values())
    assert summary["svm.sweep"]["calls"] == sweeps
    assert tracer.counters["svm.pair_visits"] == sweeps * 8 * 7 // 2
    assert tracer.counters["svm.samples"] == 3 * 8
    fit_index = next(i for i, span in enumerate(tracer.spans) if span[0] == "svm.fit_ovo")
    assert all(span[1] == fit_index for span in tracer.spans if span[0] == "svm.fit_binary")


def test_self_time_is_duration_minus_the_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    # Overlapping children count once; a child past the parent is clipped.
    assert self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0), (9.0, 12.0)]) == 4.0
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["leaf", 1, 2.0, 3.0],
        ["b", 0, 5.0, 7.0],
        ["a", 0, 8.0, 9.0],
    ]
    summary = summarize(spans)
    assert summary["root"]["self_ms"] == pytest.approx(1e3 * (10 - 3 - 2 - 1))
    assert summary["a"] == {"calls": 2, "ms": pytest.approx(4e3), "self_ms": pytest.approx(3e3)}
    assert summary["leaf"]["self_ms"] == pytest.approx(1e3)
    assert calls_under(spans, "a") == [{"leaf": 1}, {}]
