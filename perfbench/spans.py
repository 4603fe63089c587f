"""Span recording around the public functions of each pathent module.

Tracing lives in the benchmark, not in the program: ``Tracer.install``
replaces every public function of each layer module with a wrapper that
records one span (name, start, end, parent) per call. Names bound by
``from ... import`` are replaced in every importing namespace too, so calls
between modules are seen at the boundary where they cross. Spans are kept in
flat in-memory arrays and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("geometry", "quantum_core", "correlations", "pathmodel", "bell", "montecarlo", "cli")
NO_PARENT = -1


class Tracer:
    """Records spans for calls into the layer modules of a package."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.mc_trials = 0
        self.mc_seeds: set[int] = set()
        self._stack = [NO_PARENT]

    def install(self, package: str) -> None:
        """Wrap the public functions of ``package.<layer>`` for every layer."""
        modules = [sys.modules[f"{package}.{layer}"] for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer_index, module in enumerate(modules):
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(fn, LAYERS[layer_index], layer_index)
        # Rebind in every pathent namespace, so intra- and cross-module calls
        # (including names bound by ``from ... import``) go through the wrapper.
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, fn, layer: str, layer_index: int):
        name_id = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        self.name_layer.append(layer_index)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        start, end = self.start, self.end
        clock = time.perf_counter
        count_trials = layer == "montecarlo" and fn.__name__ == "simulate_counts"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[index] = t0
                end[index] = t1
            if count_trials:
                # One count per setting pair, each from trials_per_setting draws.
                cfg = args[0] if args else kwargs["cfg"]
                self.mc_trials += len(result) * cfg.trials_per_setting
                self.mc_seeds.add(cfg.seed)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so the recording arrays stay resizable.
        return {
            "name": np.array(self.span_name, dtype=np.uint16),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time per layer: span time minus time in child spans."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent != NO_PARENT
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        self_time = duration - child_time
        layer_of_span = np.asarray(self.name_layer, dtype=np.int64)[spans["name"]]
        calls = np.bincount(layer_of_span, minlength=len(LAYERS))
        self_s = np.bincount(layer_of_span, weights=self_time, minlength=len(LAYERS))
        return {
            layer: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, layer in enumerate(LAYERS)
        }

    def span_seconds(self, name: str) -> float:
        """Total duration of every span with this name."""
        spans = self.arrays()
        ids = [i for i, n in enumerate(self.names) if n == name]
        mask = np.isin(spans["name"], ids)
        return float(np.sum(spans["end"][mask] - spans["start"][mask]))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

