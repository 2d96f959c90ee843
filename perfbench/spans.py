"""Span tracing of oscbath's public functions, from outside the package.

A :class:`Tracer` replaces each traced function by a wrapper that records
one span per call: (name, start, end, parent span). A name is patched in
every oscbath module that holds it, because modules import one another's
functions by name (``oscbath.sweep.mat_exp`` is a separate binding from
``oscbath.dynamics.mat_exp``). Spans stay in memory; :meth:`Tracer.summary`
derives call counts and self times from them and :meth:`Tracer.write`
saves them when the run ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import time

import numpy as np

# (defining module, public function) for every traced layer boundary.
TRACED = (
    ("model", "validate"),
    ("dynamics", "build_drift"),
    ("dynamics", "mat_exp"),
    ("dynamics", "ode_oracle"),
    ("dynamics", "steady_state"),
    ("dynamics", "propagate"),
    ("measures", "invariants"),
    ("measures", "report_from_data"),
    ("measures", "full_report"),
    ("sweep", "evolve_trajectory"),
    ("sweep", "sweep_parameter"),
    ("cli", "main"),
    ("svgplot", "line_plot"),
)

ROOT_SPAN = "bench.call"


def _rk4_steps(signature):
    """Count the RK4 steps of one ode_oracle call from its arguments,
    as ode_oracle chooses them: whole steps of dt plus one for a remainder."""
    names = list(signature.parameters)
    t_at, dt_at = names.index("t"), names.index("dt")
    dt_default = signature.parameters["dt"].default

    def hook(counters, args, kwargs, result):
        t = float(args[t_at] if len(args) > t_at else kwargs["t"])
        dt = float(args[dt_at] if len(args) > dt_at else kwargs.get("dt", dt_default))
        if t == 0.0:
            return
        steps = math.floor(t / dt + 1e-9)
        if t - steps * dt >= 1e-12 * max(t, 1.0):
            steps += 1
        counters["dynamics.rk4_steps"] += steps

    return hook


def _report_outcome(counters, args, kwargs, report):
    if math.isnan(report.discord):
        counters["measures.discord_nan"] += 1
    if report.zeta_branch == "first":
        counters["measures.first_branch"] += 1


def _sweep_outcomes(counters, args, kwargs, outcomes):
    counters["sweep.values"] += len(outcomes)
    counters["sweep.with_trajectory"] += sum(
        o.trajectory is not None for o in outcomes
    )


class Tracer:
    """Records spans and counters while installed; one thread only."""

    def __init__(self, package):
        self.names = [ROOT_SPAN]
        self.spans = []  # (name index, start, end, parent span index)
        self.counters = collections.Counter()
        self.errors = collections.Counter()
        self._stack = [-1]
        modules = {mod: importlib.import_module(f"{package.__name__}.{mod}")
                   for mod, _ in TRACED}
        self._patches = []  # (module, attribute, original, wrapper)
        for mod, func in TRACED:
            original = getattr(modules[mod], func)
            label = f"{mod}.{func}"
            hook = None
            if label == "dynamics.ode_oracle":
                hook = _rk4_steps(inspect.signature(original))
            elif label == "measures.report_from_data":
                hook = _report_outcome
            elif label == "sweep.sweep_parameter":
                hook = _sweep_outcomes
            wrapper = self._wrap(label, original, hook)
            for module in (package, *modules.values()):
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, label, fn, hook):
        name = len(self.names)
        self.names.append(label)
        spans, stack, errors = self.spans, self._stack, self.errors
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[label] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[me] = (name, start, end, parent)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def root(self, fn, *args):
        """Run fn(*args) under a root span; the wrappers must be installed."""
        me = len(self.spans)
        self.spans.append(None)
        self._stack.append(me)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[me] = (0, start, end, -1)

    def reset(self):
        """Forget every span and counter recorded so far."""
        self.spans.clear()
        self.counters.clear()
        self.errors.clear()

    def summary(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        table = np.array(self.spans, dtype=float).reshape(-1, 4)
        name = table[:, 0].astype(np.intp)
        parent = table[:, 3].astype(np.intp)
        dur = table[:, 2] - table[:, 1]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=dur, minlength=width)
        self_s = np.bincount(name, weights=dur - child, minlength=width)
        return {
            label: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, label in enumerate(self.names)
        }

    def write(self, path):
        """Save every span (name index, start, end, parent) and the names."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            spans=np.array(self.spans, dtype=float).reshape(-1, 4),
        )
