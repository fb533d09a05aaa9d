"""Spans around the public functions at asyncfed's module boundaries.

The tracer wraps functions from outside the package: it replaces each target
in every ``asyncfed`` module namespace that binds it (``from .x import f``
copies the reference), so calls between modules go through the wrapper.
Spans live in flat in-memory arrays (name, parent, start, end, raised) and
are aggregated per name after each pass; a layer's self time is its span
minus the spans of its direct children.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np


def _rounds(args, kwargs, result):
    return result.n_rounds


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _member_rounds(args, kwargs, result):
    return (len(result.mean) - 1) * result.n_runs


# (module, attribute, span name, optional counter of work done per call)
TARGETS = (
    ("asyncfed.cli", "main", "cli.main", None),
    ("asyncfed.config", "build_experiment", "config.build_experiment", None),
    ("asyncfed.weights", "plan_weights", "weights.plan_weights", None),
    ("asyncfed.objectives", "make_synthetic_shards", "objectives.make_synthetic_shards", None),
    ("asyncfed.objectives", "local_sgd", "objectives.local_sgd", None),
    ("asyncfed.objectives", "QuadraticObjective.value", "objectives.value", None),
    ("asyncfed.objectives", "GlmObjective.value", "objectives.value", None),
    ("asyncfed.timing", "advance_round", "timing.advance_round", None),
    ("asyncfed.timing", "staleness_bound", "timing.staleness_bound", None),
    ("asyncfed.bounds", "scheme_presets", "bounds.scheme_presets", None),
    ("asyncfed.core", "weighted_optimum", "core.weighted_optimum", None),
    ("asyncfed.engine", "run", "engine.run", _rounds),
    ("asyncfed.engine", "write_trajectory_csv", "engine.write_trajectory_csv", _csv_bytes),
    ("asyncfed.engine", "run_scalar_ensemble", "engine.run_scalar_ensemble", _member_rounds),
    ("asyncfed.oracle", "expectation_recursion", "oracle.expectation_recursion", None),
    ("asyncfed.oracle", "variance_recursion", "oracle.variance_recursion", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.work = np.zeros(len(SPAN_NAMES))
        self._stack = []

    def _wrap(self, fn, span, counter):
        nid = self._ids[span]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.raised.append(0)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[sid] = 1
                raise
            finally:
                self.end[sid] = clock()
                self._stack.pop()
            if counter is not None:
                self.work[nid] += counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "asyncfed" or key.startswith("asyncfed."))]
        for module_name, attribute, span, counter in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(original, span, counter)
            homes = [owner] if path else [m for m in modules if getattr(m, leaf, None) is original]
            for home in homes:
                self._patches.append((home, leaf, original))
                setattr(home, leaf, wrapper)

    def uninstall(self):
        for home, leaf, original in reversed(self._patches):
            setattr(home, leaf, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, raised calls, work."""
        n_names = len(SPAN_NAMES)
        names = np.asarray(self.name, dtype=np.intp)
        parents = np.asarray(self.parent, dtype=np.intp)
        duration = np.asarray(self.end) - np.asarray(self.start)
        child = parents >= 0
        child_time = np.bincount(parents[child], weights=duration[child], minlength=len(duration))
        self_time = duration - child_time
        raised = np.asarray(self.raised, dtype=float)
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=duration, minlength=n_names)
        own = np.bincount(names, weights=self_time, minlength=n_names)
        errors = np.bincount(names, weights=raised, minlength=n_names)
        return {
            span: {
                "calls": int(calls[i]),
                "s": float(total[i]),
                "self_s": float(own[i]),
                "errors": int(errors[i]),
                "work": float(self.work[i]),
            }
            for i, span in enumerate(SPAN_NAMES)
        }

    def save(self, path):
        """Write the recorded spans as arrays (names index ``span_names``)."""
        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            raised=np.asarray(self.raised),
        )
