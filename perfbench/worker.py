"""Traced-run worker: executes one probe at a time, with spans on.

Started by traced.py as `python3 perfbench/worker.py` with `src/` on the
path. Reads one JSON request per line on stdin ({"case": ..., "args": ...})
and answers one JSON line on stdout. The parent enforces each probe's time
budget by killing this process, so a probe never has to stop itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import traceback

import numpy as np

import lassodist as ld
import lassodist.cli
import lassodist.distribution
import lassodist.geometry
import lassodist.model
import lassodist.simulate
import lassodist.solver
from tracing import Tracer

MODULES = {name: sys.modules[name] for name in (
    "lassodist.cli", "lassodist.distribution", "lassodist.geometry",
    "lassodist.model", "lassodist.simulate", "lassodist.solver",
)}
# probes call through the module attributes, where the wrappers sit; the
# names re-exported by lassodist/__init__ still point at the originals
DIST = MODULES["lassodist.distribution"]
GEOM = MODULES["lassodist.geometry"]


def _objects(a):
    problem = ld.build_problem(np.asarray(a["X"], dtype=float))
    model = ld.gaussian_model(problem, a.get("beta", np.zeros(problem.p)), a.get("sigma", 1.0))
    return problem, model, ld.tuning_vector(a["lam"])


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def case_replay(tr, a):
    """cli.main on each argv, stdout captured: once untraced, then once traced."""
    out = []
    for i, argv in enumerate(a["argvs"]):
        walls = []
        for traced in (False, True):
            tr.request = i
            if traced:
                tr.install(MODULES)
            try:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    t0 = time.perf_counter()
                    sid = tr.open("cli.main", "cli") if traced else None
                    code = lassodist.cli.main(argv)
                    if sid is not None:
                        tr.close(sid)
                    walls.append(time.perf_counter() - t0)
                if traced:
                    stdout = buf.getvalue()
            finally:
                tr.uninstall()
            if code != 0:
                raise RuntimeError(f"replayed call {argv[0]} exited {code}")
        out.append({"untraced_s": walls[0], "traced_s": walls[1],
                    "self_s": tr.self_times(i), "stdout": stdout})
    tr.request = None
    return {"calls": out}


def case_orthant(tr, a):
    problem, model, tuning = _objects(a)
    out = []
    for d in a["patterns"]:
        r, dt = _timed(lambda: DIST.orthant_mass(problem, model, tuning, ld.SignVector(d=tuple(d))))
        out.append({"d": d, "value": r.estimate, "quad_tol": r.quad_tol, "s": dt})
    # the sweep's cost for this size: the mass of one named pattern
    return {"masses": out, "s": out[a["patterns"].index(a["timed"])]["s"]}


def case_cdf(tr, a):
    problem, model, tuning = _objects(a)
    value, dt = _timed(lambda: DIST.cdf(problem, model, tuning, a["z"]))
    return {"value": value, "s": dt}


def case_density(tr, a):
    problem, model, tuning = _objects(a)
    d = ld.SignVector(d=tuple(a["d"]))
    value, dt = _timed(lambda: DIST.conditional_density(problem, model, tuning, d, a["z_active"]))
    return {"value": value, "s": dt}


def case_mvn_box(tr, a):
    problem, model, tuning = _objects(a)
    r, dt = _timed(lambda: DIST.prob_all_zero(problem, model, tuning))
    return {"value": r.estimate, "quad_tol": r.quad_tol, "s": dt}


def case_unique(tr, a):
    problem = ld.build_problem(np.asarray(a["X"], dtype=float))
    tuning = ld.tuning_vector(a["lam"])
    verdict, dt = _timed(lambda: GEOM.check_uniqueness(problem, tuning))
    return {"unique": verdict.unique, "s": dt}


def case_solve_many(tr, a):
    problem, model, tuning = _objects(a)
    rng = np.random.default_rng(a["seed"])
    Y = model.mu + model.sigma * rng.standard_normal((a["rows"], problem.n))
    (_, resids), dt = _timed(lambda: DIST.solve_many(problem, Y, tuning, tol=1e-10))
    return {"rows": a["rows"], "unconverged": int(np.sum(resids > 1e-10)), "s": dt}


def case_solve(tr, a):
    problem, _, tuning = _objects(a)
    y = np.asarray(a["y"], dtype=float)
    times = []
    for _ in range(a["reps"]):
        _, dt = _timed(lambda: MODULES["lassodist.cli"].solve(problem, y, tuning))
        times.append(dt)
    return {"s": statistics.median(times)}


def case_build_problem(tr, a):
    times = []
    for X in a["designs"]:
        X = np.asarray(X, dtype=float)
        for _ in range(a["reps"]):
            _, dt = _timed(lambda: MODULES["lassodist.model"].build_problem(X))
            times.append(dt)
    return {"s": statistics.median(times)}


def case_simulate(tr, a):
    problem, model, tuning = _objects(a)
    config = ld.SimulationConfig(n_rep=a["reps"], seed=a["seed"])
    site = MODULES["lassodist.simulate"].run_simulation
    summary, dt = _timed(lambda: site(problem, model, tuning, config))
    lookups = 0
    if problem.rank_x < problem.p:
        lookups = sum(_cone_lookups(problem, tuning, config, Y, B) for Y, B in tr.chunks)
    return {"s": dt, "reps": a["reps"], "convergence_failures": summary.convergence_failures,
            "cone_lookups": lookups, "nonunique": summary.nonunique_count}


def _cone_lookups(problem, tuning, config, Y, B):
    """Distinct uniqueness keys of one chunk: cone-cache lookups run_simulation makes.

    Mirrors the classification documented in simulate._count_nonunique: the
    verdict depends on which coordinates are interior and which boundary
    zeros carry a sign constraint.
    """
    lam, zero_tol = tuning.lam, config.zero_tol
    class_tol = max(100.0 * config.solver_tol, 1e-8)
    G = Y @ problem.X - B @ problem.gram
    zeroish = np.abs(B) <= zero_tol
    interior = (lam[None, :] - np.abs(G) > class_tol) & zeroish
    constrained = (~interior) & zeroish & (lam > 0)[None, :] & (np.abs(G) > class_tol)
    key = np.where(interior, 2, np.where(G >= 0, 1, -1) * constrained)
    return int(np.unique(key, axis=0).shape[0])


def case_rng(tr, a):
    site = MODULES["lassodist.simulate"].gaussian_chunks
    total, dt = _timed(lambda: sum(Z.size for _, _, Z in site(a["seed"], a["rows"], a["dim"])))
    return {"samples": int(total), "s": dt}


def case_span_cost(tr, a):
    """Seconds one wrapper adds per call, from a wrapped no-op."""
    def noop():
        return None

    wrapped = tr._wrap(noop, "calibrate.noop", "cli", None)
    n = a["calls"]
    _, bare = _timed(lambda: [noop() for _ in range(n)])
    _, traced = _timed(lambda: [wrapped() for _ in range(n)])
    return {"per_span_s": max(traced - bare, 0.0) / n}


CASES = {name[5:]: fn for name, fn in globals().items() if name.startswith("case_")}


def main():
    tracer = Tracer()
    proto = sys.stdout
    proto.write(json.dumps({"ready": True}) + "\n")
    proto.flush()
    for line in sys.stdin:
        req = json.loads(line)
        tracer.reset()
        # replay toggles tracing per call itself; micro-probes run bare so the
        # wrappers' microseconds stay out of their timings
        if req["case"] != "replay" and req["traced"]:
            tracer.install(MODULES)
        try:
            result = CASES[req["case"]](tracer, req["args"])
        except Exception as exc:  # report and keep serving the next probe
            result = {"error": "".join(traceback.format_exception(exc))[-2000:]}
        finally:
            tracer.uninstall()
        result["self_s"] = tracer.self_times()
        result["span_s"] = tracer.totals()
        result["counters"] = dict(tracer.counters)
        result["n_spans"] = len(tracer.spans)
        if req.get("spans"):
            result["spans"] = tracer.spans
        proto.write(json.dumps(result) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
