"""Layer tracing from outside the package.

While a ``patched`` block lasts, every public function of the layer
modules (and the SVM sweep kernel) is replaced, in every ``fedsvm``
namespace that binds it, by a wrapper that records a span and feeds
counters. The originals are put back when the block ends, also when the
traced code raises. Spans stay in memory; ``summarize`` reduces them to
per-name call counts, inclusive time and self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Module -> layer label used in metric names.
LAYERS = {
    "fedsvm.strategies": "strategies",
    "fedsvm.model": "model",
    "fedsvm.optim": "optim",
    "fedsvm.svm.solver": "svm",
    "fedsvm.metrics": "metrics",
    "fedsvm.data": "data",
    "fedsvm.harness": "harness",
}
# The sweep kernel is defined in whichever backend module loaded, so it
# is found through the attribute the solver calls.
KERNEL = ("fedsvm.svm.backend", "sweep", "svm.sweep")


def _observe_sweep(counters, args, changed):
    m = len(args[3])  # alpha
    counters["svm.pair_visits"] += m * (m - 1) // 2
    counters["svm.pair_updates"] += int(changed)


def _observe_fit(counters, args, model):
    counters["svm.unconverged_fits"] += not model.converged
    counters["svm.support_vectors"] += len(model.support_indices)
    counters["svm.samples"] += len(model.alphas)


OBSERVERS = {"svm.sweep": _observe_sweep, "svm.fit_binary": _observe_fit}


class Tracer:
    """Spans as ``[name, parent index, start, end]`` (parent -1 for a root)
    plus named counters, for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced


def layer_functions():
    """``(metric name, function)`` for every public function defined in a
    layer module, plus the loaded sweep kernel."""
    found = []
    for module_name, label in LAYERS.items():
        module = importlib.import_module(module_name)
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module_name):
                found.append((f"{label}.{attr}", obj))
    module_name, attr, name = KERNEL
    found.append((name, getattr(importlib.import_module(module_name), attr)))
    return found


@contextmanager
def patched(tracer: Tracer):
    """Replace each layer function by its traced wrapper wherever a
    ``fedsvm`` module binds it, and restore every binding on exit."""
    wrappers = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in layer_functions()}
    saved = []
    try:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "fedsvm"
                                      or module_name.startswith("fedsvm.")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    saved.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        yield saved
    finally:
        for module, attr, obj in reversed(saved):
            setattr(module, attr, obj)


def self_time(start: float, end: float, children) -> float:
    """Duration of ``[start, end]`` minus the part of it covered by the
    union of the ``(start, end)`` child intervals."""
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, reach)
        c_end = min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``ms`` and ``self_ms``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for index, (name, _, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["ms"] += (end - start) * 1e3
        entry["self_ms"] += self_time(start, end, children.get(index, ())) * 1e3
    return out


def calls_under(spans, root: str) -> list[dict[str, int]]:
    """For each span named ``root``, in order, the call count of every
    span name among its descendants."""
    owner: dict[int, int] = {}
    found: list[dict[str, int]] = []
    for index, (name, parent, _, _) in enumerate(spans):
        if name == root:
            owner[index] = len(found)
            found.append({})
        elif parent in owner:
            owner[index] = owner[parent]
            counts = found[owner[index]]
            counts[name] = counts.get(name, 0) + 1
    return found
