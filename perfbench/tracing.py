"""Spans and counters recorded from outside the library.

`Tracer.install` replaces public entry points of `lassodist` at the module
attributes through which they are called (the import sites), so no file
under `src/` changes. Each wrapper records a span: name, layer, start, end,
parent span and the request (one replayed CLI call, or one probe) it belongs
to. Spans stay in memory until the caller collects them. `uninstall` puts
the original functions back, so an untraced pass runs the unmodified code.

A layer's self time is the time its spans cover minus the time covered by
their child spans; summed over all layers it equals the root spans' time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, layer). A function imported into several modules is
# wrapped at each import site; calls inside its own module resolve through
# the module global, which is the same attribute.
SITES = [
    ("lassodist.cli", "build_problem", "model"),
    ("lassodist.cli", "gaussian_model", "model"),
    ("lassodist.cli", "tuning_vector", "model"),
    ("lassodist.cli", "solve", "solver"),
    ("lassodist.model", "build_problem", "model"),
    ("lassodist.distribution", "prob_orthant_event", "distribution"),
    ("lassodist.distribution", "prob_all_zero", "distribution"),
    ("lassodist.distribution", "orthant_mass", "distribution"),
    ("lassodist.distribution", "cdf", "distribution"),
    ("lassodist.distribution", "conditional_density", "distribution"),
    ("lassodist.distribution", "error_density", "distribution"),
    ("lassodist.distribution", "mvn_box_probability", "distribution"),
    ("lassodist.distribution", "solve_many", "solver"),
    ("lassodist.distribution", "gaussian_chunks", "rng"),
    ("lassodist.geometry", "check_uniqueness", "geometry"),
    ("lassodist.geometry", "structural_set", "geometry"),
    ("lassodist.geometry", "selectable", "geometry"),
    ("lassodist.geometry", "general_position", "geometry"),
    ("lassodist.geometry", "map_ls_to_lasso", "geometry"),
    ("lassodist.geometry", "shrinkage_singleton", "geometry"),
    ("lassodist.geometry", "face_intersects_row_space", "geometry"),
    ("lassodist.geometry", "construct_nonuniqueness_witness", "geometry"),
    ("lassodist.geometry", "feasible_point", "simplex"),
    ("lassodist.geometry", "solve", "solver"),
    ("lassodist.solver", "feasible", "simplex"),
    ("lassodist.simulate", "run_simulation", "simulate"),
    ("lassodist.simulate", "solve_many", "solver"),
    ("lassodist.simulate", "gaussian_chunks", "rng"),
    ("lassodist.simulate", "kernel_sign_cone_nonempty", "solver"),
]

LAYERS = ("cli", "model", "distribution", "geometry", "simplex", "solver", "simulate", "rng")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, request, name, layer, start, end]
        self.stack = []
        self.request = None
        self.counters = Counter()
        self.chunks = []  # (Y, B) of each solve_many chunk inside run_simulation
        self._undo = []

    def open(self, name, layer):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, self.request, name, layer, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][6] = time.perf_counter()
        self.stack.pop()

    def reset(self):
        self.spans, self.stack, self.counters, self.chunks = [], [], Counter(), []

    # ------------------------------------------------------------ wrapping

    def install(self, modules):
        for modname, attr, layer in SITES:
            mod = modules[modname]
            fn = getattr(mod, attr)
            name = f"{modname.split('.')[1]}.{attr}"
            if attr == "gaussian_chunks":
                wrapper = self._wrap_generator(fn, name, layer)
            else:
                wrapper = self._wrap(fn, name, layer, _HOOKS.get((modname, attr)))
            setattr(mod, attr, wrapper)
            self._undo.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo = []

    def _wrap(self, fn, name, layer, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid = tracer.open(name, layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(sid)
                yield item

        return wrapper

    # ------------------------------------------------------------ reading

    def self_times(self, request=None):
        """Seconds of self time per layer, optionally for one request."""
        spans = [s for s in self.spans if request is None or s[2] == request]
        child = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                child[s[1]] += s[6] - s[5]
        out = defaultdict(float)
        for s in spans:
            out[s[4]] += (s[6] - s[5]) - child[s[0]]
        return dict(out)

    def totals(self):
        """Seconds covered by the spans of each name."""
        out = defaultdict(float)
        for s in self.spans:
            out[s[3]] += s[6] - s[5]
        return dict(out)


def _on_feasible_point(tracer, args, kwargs, result):
    tracer.counters["simplex.lps"] += 1
    tracer.counters["simplex.feasible"] += result is not None


def _on_solve_many(tracer, args, kwargs, result):
    tol = kwargs.get("tol", args[3] if len(args) > 3 else 1e-10)
    _, resids = result
    tracer.counters["solver.rows"] += int(resids.shape[0])
    tracer.counters["solver.unconverged_rows"] += int(np.sum(resids > tol))


def _on_simulate_solve_many(tracer, args, kwargs, result):
    _on_solve_many(tracer, args, kwargs, result)
    tracer.chunks.append((np.asarray(args[1]), result[0]))


def _on_cone_test(tracer, args, kwargs, result):
    tracer.counters["simulate.cone_tests"] += 1


_HOOKS = {
    ("lassodist.geometry", "feasible_point"): _on_feasible_point,
    ("lassodist.distribution", "solve_many"): _on_solve_many,
    ("lassodist.simulate", "solve_many"): _on_simulate_solve_many,
    ("lassodist.simulate", "kernel_sign_cone_nonempty"): _on_cone_test,
}
