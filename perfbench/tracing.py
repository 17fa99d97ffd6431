"""Per-layer tracing installed around qcorr from outside; nothing under src/ changes.

One layer per qcorr module. A span opens when a call crosses into a layer
from another layer (or from the benchmark); calls that stay inside a layer
pass straight through, so a layer's span covers all of its own nested work.
Three details decide where the wrappers go:

* ``from .x import f`` copies the binding into each importing module and into
  ``qcorr/__init__``, so every module attribute bound to ``f`` is replaced.
* ``numpy.linalg.<f>`` is looked up as a module attribute at call time, so
  the eigensolver counters wrap the attributes of ``numpy.linalg`` itself and
  are credited to the innermost open span.
* ``minimize`` is counted under the names that ``qcorr.measurement`` and
  ``qcorr.bounds`` bind, when they bind it.

Counters and spans are recorded only between ``begin_item`` and
``end_item``; spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("core", "measurement", "correlations", "bounds", "starsim", "stateio", "cli")
EIG_FUNCTIONS = ("eigvalsh", "eigh", "eigvals", "svd")
# Two Nelder-Mead starts of one J search ending this close count as redundant.
REDUNDANT_START_TOL = 1e-12


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[list] = []  # open spans: [layer, span id, time covered by children]
        self.spans: list[tuple] = []  # (item, span id, parent id, layer, start, end)
        self.items: list[dict] = []  # per-item counters, keyed "<layer>.<counter>"
        self.j_scopes: list[list[float]] = []  # Nelder-Mead end values per open J search
        self.cur: defaultdict = defaultdict(float)
        self._next_id = 0

    def begin_item(self) -> None:
        self.cur = defaultdict(float)
        self.active = True

    def end_item(self) -> None:
        self.active = False
        self.items.append(dict(self.cur))

    def _span(self, layer: str, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span = [layer, self._next_id, 0.0]
        self._next_id += 1
        self.stack.append(span)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.cur[f"{layer}.errors"] += 1
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            self.cur[f"{layer}.calls"] += 1
            self.cur[f"{layer}.self_s"] += end - start - span[2]
            if parent is not None:
                parent[2] += end - start
            self.spans.append(
                (len(self.items), span[1], parent and parent[1], layer, start, end)
            )

    def layer_wrapper(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (self.stack and self.stack[-1][0] == layer):
                return fn(*args, **kwargs)
            return self._span(layer, fn, args, kwargs)

        return traced

    def _j_search(self, fn):
        @functools.wraps(fn)
        def scoped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.cur["measurement.j_calls"] += 1
            self.j_scopes.append([])
            try:
                return fn(*args, **kwargs)
            finally:
                self.j_scopes.pop()

        return scoped

    def _validation(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.cur["core.validations"] += 1
                self.cur["core.validation_s"] += perf_counter() - start

        return timed

    def _minimize(self, layer: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            if self.active:
                self.cur[f"{layer}.nm_starts"] += 1
                self.cur[f"{layer}.nfev"] += int(res.nfev)
                if layer == "measurement" and self.j_scopes:
                    ends = self.j_scopes[-1]
                    value = float(res.fun)
                    if any(abs(value - e) <= REDUNDANT_START_TOL for e in ends):
                        self.cur["measurement.redundant_starts"] += 1
                    ends.append(value)
            return res

        return counted

    def _eig(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self.active:
                layer = self.stack[-1][0] if self.stack else "bench"
                self.cur[f"{layer}.eig_calls"] += 1
                self.cur[f"{layer}.eig_mats"] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every qcorr function under each binding, plus numpy.linalg and minimize."""
        modules = {layer: importlib.import_module(f"qcorr.{layer}") for layer in LAYERS}
        replacement = {}
        for layer, mod in modules.items():
            for obj in list(vars(mod).values()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    inner = self._j_search(obj) if obj.__name__ == "classical_correlations" else obj
                    replacement[id(obj)] = (obj, self.layer_wrapper(layer, inner))
                elif (
                    isinstance(obj, type)
                    and obj.__module__ == mod.__name__
                    and "__post_init__" in vars(obj)
                ):
                    post = obj.__post_init__
                    if obj.__name__ == "DensityMatrix" and layer == "core":
                        post = self._validation(post)
                    obj.__post_init__ = self.layer_wrapper(layer, post)
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "qcorr"]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = replacement.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                # A private helper bound in its own module is only called from
                # inside its layer, where the wrapper would pass straight through.
                if not (name.startswith("_") and obj.__module__ == ns.__name__):
                    setattr(ns, name, hit[1])
        for layer in ("measurement", "bounds"):
            if hasattr(modules[layer], "minimize"):
                modules[layer].minimize = self._minimize(layer, modules[layer].minimize)
        for name in EIG_FUNCTIONS:
            setattr(np.linalg, name, self._eig(getattr(np.linalg, name)))

    def dump(self, path) -> None:
        """Write the spans and per-item counters, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, counters in enumerate(self.items):
                fh.write(json.dumps({"item": index, "counters": counters}) + "\n")
            for item, span_id, parent, layer, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"item": item, "span": span_id, "parent": parent, "layer": layer,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


# Counters that do not depend on the machine; two runs of one seed repeat them.
def machine_independent(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if not k.endswith("_s")}


def layer_metrics(
    items: list[dict], item_seconds: list[float], speed: list[float], count_window: int
) -> dict:
    """Per-layer metrics: counts over the first ``count_window`` items, times over all.

    Times are rescaled by each item's ``speed`` factor, like the end-to-end ones.
    """
    window = items[:count_window]
    n_win, n_all = len(window), len(items)
    total_item_s = sum(item_seconds)

    def win(key):
        return sum(c.get(key, 0.0) for c in window)

    def every(key):
        return sum(c.get(key, 0.0) * f for c, f in zip(items, speed))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls_per_item"] = (win(f"{layer}.calls") / n_win, "count")
        m[f"{layer}.self_ms_per_item"] = (every(f"{layer}.self_s") * 1e3 / n_all, "ms")
        m[f"{layer}.share"] = (
            ratio(sum(c.get(f"{layer}.self_s", 0.0) for c in items), total_item_s), "ratio"
        )
        m[f"{layer}.errors"] = (win(f"{layer}.errors"), "count")
        m[f"{layer}.eig_calls_per_item"] = (win(f"{layer}.eig_calls") / n_win, "count")
        m[f"{layer}.eig_mats_per_item"] = (win(f"{layer}.eig_mats") / n_win, "count")
    j_calls = win("measurement.j_calls")
    starts = win("measurement.nm_starts")
    m["measurement.nm_starts_per_call"] = (ratio(starts, j_calls), "count")
    m["measurement.nfev_per_call"] = (ratio(win("measurement.nfev"), j_calls), "count")
    m["measurement.redundant_start_ratio"] = (
        ratio(win("measurement.redundant_starts"), starts), "ratio"
    )
    m["bounds.nfev_per_item"] = (win("bounds.nfev") / n_win, "count")
    m["core.validations_per_item"] = (win("core.validations") / n_win, "count")
    m["core.validation_ms_per_item"] = (every("core.validation_s") * 1e3 / n_all, "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
