"""Spans and counters taken from outside the ctmcontrol package.

A traced run rebinds the package's public callables to timing wrappers:
every public function in the namespace of each layer module (its own
functions and the ones it imported from sibling modules), the
``CostModel`` class name, and four kernels on each ``CostModel``
instance built while tracing. Calls between modules resolve those
names at call time, so the wrappers see them; nothing inside a
function body is touched. ``Instrumentation.undo`` puts everything
back.

Spans live in flat arrays (parent index, name id, start, end) so a
pass with a few hundred thousand Hamiltonian calls stays small in
memory; they are written out once, when the run ends.
"""

from __future__ import annotations

import array
import collections
import functools
import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter

import numpy as np

from metrics import LAYERS

MODEL_KERNELS = ("hamiltonian_vector", "intensity_vector",
                 "running_cost_vector", "cost_terms")


class Tracer:
    """Span recorder: one span per wrapped call, parent = innermost open span."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.parent = array.array("q")
        self.label = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counters: collections.Counter = collections.Counter()

    def open(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        idx = len(self.start)
        self.parent.append(self._stack[-1])
        self.label.append(lid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> float:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    def wrap(self, fn, label: str, after=None):
        """fn with a span around each call; after(args, kwargs, result, seconds)."""
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = close(idx)
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        return traced

    def summarize(self, first: int, stop: int) -> dict:
        """Totals over spans first..stop-1, which must form whole subtrees.

        Returns inclusive seconds and call counts per label, and self
        seconds (duration minus direct children) per layer, where a
        span's layer is the part of its label before the first dot.
        """
        count = stop - first
        start = np.frombuffer(self.start, dtype=float)[first:stop]
        dur = np.frombuffer(self.end, dtype=float)[first:stop] - start
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:stop] - first
        label = np.frombuffer(self.label, dtype=np.int64)[first:stop]
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=count)
        own = dur - child
        n_labels = len(self.labels)
        inclusive = np.bincount(label, weights=dur, minlength=n_labels)
        calls = np.bincount(label, minlength=n_labels)
        by_label_self = np.bincount(label, weights=own, minlength=n_labels)
        layer_self: dict[str, float] = collections.defaultdict(float)
        for lid, name in enumerate(self.labels):
            layer_self[name.split(".", 1)[0]] += float(by_label_self[lid])
        return {
            "inclusive_s": {name: float(inclusive[i]) for i, name in enumerate(self.labels)},
            "calls": {name: int(calls[i]) for i, name in enumerate(self.labels)},
            "self_s": dict(layer_self),
            "spans": int(count),
        }

    def write(self, path: Path, extra: dict) -> None:
        """Dump every span (microseconds from the first span) and the counters."""
        t0 = self.start[0] if len(self.start) else 0.0
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        doc = {
            "labels": self.labels,
            "spans": {
                "parent": self.parent.tolist(),
                "label": self.label.tolist(),
                "start_us": np.round((start - t0) * 1e6, 3).tolist(),
                "dur_us": np.round((end - start) * 1e6, 3).tolist(),
            },
            "counters": dict(self.counters),
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    if not module.startswith("ctmcontrol."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


class Instrumentation:
    """Rebinds the package's public callables to tracer wrappers."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}
        counters = tracer.counters

        def steps(_args, _kwargs, result, _seconds):
            stats = result[1]
            counters["ode.integrate_calls"] += 1
            counters["ode.steps_accepted"] += stats.accepted
            counters["ode.steps_rejected"] += stats.rejected

        def newton(_args, _kwargs, result, _seconds):
            counters["stationary.newton_iters"] += result.iterations

        def sweep(_args, _kwargs, result, _seconds):
            counters["stationary.sweep_stages"] += len(result.diagnostics)

        def sampled(args, kwargs, result, seconds):
            mode = (kwargs["policy"] if "policy" in kwargs else args[1]).mode.value
            counters[f"simulate.paths.{mode}"] += result.n_paths
            counters[f"simulate.seconds.{mode}"] += seconds

        self._after = {
            "integrate_grid": steps,
            "integrate_endpoint": steps,
            "solve_stationary": newton,
            "solve_ergodic_vanishing_discount": sweep,
            "simulate": sampled,
        }

    def _traced(self, fn):
        """One wrapper per original callable, shared by every namespace."""
        wrapped = self._wrapped.get(id(fn))
        if wrapped is None:
            if inspect.isclass(fn):
                wrapped = self._model_factory(fn)
            else:
                wrapped = self.tracer.wrap(fn, f"{_layer_of(fn)}.{fn.__name__}",
                                           self._after.get(fn.__name__))
            self._wrapped[id(fn)] = wrapped
        return wrapped

    def _model_factory(self, cls):
        tracer = self.tracer

        @functools.wraps(cls, updated=())
        def build(*args, **kwargs):
            idx = tracer.open("costs.CostModel")
            try:
                model = cls(*args, **kwargs)
            finally:
                tracer.close(idx)
            for name in MODEL_KERNELS:
                setattr(model, name, tracer.wrap(getattr(model, name), f"costs.{name}"))
            return model

        return build

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"ctmcontrol.{layer}")
            for name, value in list(vars(module).items()):
                if name.startswith("_") or _layer_of(value) is None:
                    continue
                if inspect.isfunction(value) or (inspect.isclass(value)
                                                 and value.__name__ == "CostModel"):
                    self._saved.append((module, name, value))
                    setattr(module, name, self._traced(value))

    def undo(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()
