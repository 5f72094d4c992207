"""Traced run: per-layer metrics, the tracing overhead and the scaling sweep.

Everything that executes library code runs in worker.py, one probe at a
time, so that each probe has a time budget the parent enforces by killing
the worker. Sweep families grow in size; a case whose predicted cost (the
last case's time times the last growth factor) exceeds its budget is not
started and is recorded as "over_budget", like a case that was killed.

Accuracy figures compare the worker's answers with `tests/mvn_oracle.py`
after the worker has finished, outside every timed region.
"""

from __future__ import annotations

import json
import os
import re
import select
import statistics
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np

from e2e import child_env
from mvn_oracle import _event_box, box_prob, cdf_value
from tracing import LAYERS
from workloads import _correlated_design

ORACLE_ABSEPS = 1e-7  # resolution of max_err_vs_oracle
# every probe must end by this many seconds after the traced run starts, so
# the whole run (with the oracle checks after it) stays well inside 180 s
RUN_BUDGET_S = 140.0


class WorkerDied(RuntimeError):
    pass


class Worker:
    """One worker.py process; restarted after a kill."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root, self.workdir, self.deadline = root, workdir, deadline
        self.proc = None
        self.buf = b""

    def _start(self):
        env = child_env(self.root)
        self.err = open(self.workdir / "worker.err", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(self.root / "perfbench" / "worker.py")],
            cwd=self.root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.err)
        self.buf = b""
        if self._read_line(120.0) is None:
            raise WorkerDied("worker did not start")

    def _read_line(self, budget):
        deadline = time.monotonic() + budget
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                self.stop()
                return None
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    self.stop()
                    tail = (self.workdir / "worker.err").read_text()[-1500:]
                    raise WorkerDied(f"worker exited:\n{tail}")
                self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)

    def call(self, case, args, budget, spans=False, traced=True):
        """Run one probe; None when it ran over `budget` seconds (worker killed)."""
        budget = min(budget, self.deadline - time.monotonic())
        if budget <= 0:
            return None
        if self.proc is None:
            self._start()
        req = {"case": case, "args": args, "spans": spans, "traced": traced}
        self.proc.stdin.write((json.dumps(req) + "\n").encode())
        self.proc.stdin.flush()
        result = self._read_line(budget)
        if result is not None and "error" in result:
            raise RuntimeError(f"probe {case} failed:\n{result['error']}")
        return result

    def stop(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.err.close()
            self.proc = None


# ------------------------------------------------------------------ inputs


def _gram_problem(rng, p):
    """Equicorrelated full-rank design (rho 0.3) with seeded beta and lambda."""
    gram = np.full((p, p), 0.3) + 0.7 * np.eye(p)
    X = np.linalg.cholesky(gram).T
    return {"X": X.tolist(), "beta": rng.uniform(-0.3, 0.3, p).tolist(),
            "lam": rng.uniform(0.6, 0.9, p).tolist(), "sigma": 1.0}


def _sweep_pattern(p):
    # one moving coordinate, the rest pinned at zero: the cost of this mass
    # grows by a steady factor per added coordinate, so the sweep's
    # extrapolation to the next size is reliable
    return [1] + [0] * (p - 1)


def _cdf_point(prob):
    # one coordinate above its atom, the rest below: three parts per cdf
    beta = np.asarray(prob["beta"])
    return (-beta + 0.3 * np.where(np.arange(beta.size) == 0, 1.0, -1.0)).tolist()


def _sampling_problem(rng, n, p, rho):
    X = _correlated_design(rng, n, p, rho)
    beta = np.zeros(p)
    beta[: min(5, p)] = [1.0, -1.0, 1.0, -1.0, 1.0][: min(5, p)]
    return {"X": X.tolist(), "beta": beta.tolist(), "lam": [0.5 * np.sqrt(n)] * p, "sigma": 1.0}


# ------------------------------------------------------------------ import


def import_times(root: Path, reps: int = 3):
    """-X importtime in fresh interpreters: (lassodist cumulative s, scipy self-sum s)."""
    rows = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lassodist"],
                              cwd=root, env=child_env(root), capture_output=True, text=True,
                              timeout=120, check=True)
        lassodist_us, scipy_us = 0, 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
            if not m:
                continue
            self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
            if name == "lassodist" and not m.group(3):
                lassodist_us = cum_us
            if name == "scipy" or name.startswith("scipy."):
                scipy_us += self_us
        rows.append((lassodist_us / 1e6, scipy_us / 1e6))
    return statistics.median(r[0] for r in rows), statistics.median(r[1] for r in rows)


# ------------------------------------------------------------------ sweep


class Sweep:
    """Budgeted cases; each family stops once its next case cannot fit."""

    def __init__(self, worker):
        self.worker = worker
        self.rows = []
        self.last = {}  # family -> (previous s, last s)
        self.killed = set()

    def run(self, family, size, case, args, budget):
        prev, last = self.last.get(family, (None, None))
        if family in self.killed:
            self.rows.append({"family": family, "size": size, "status": "over_budget",
                              "budget_s": budget, "after": "smaller case killed"})
            return None
        if prev and last:
            predicted = last * (last / prev)
            if predicted > budget:
                self.rows.append({"family": family, "size": size, "status": "over_budget",
                                  "budget_s": budget, "predicted_s": round(predicted, 1)})
                return None
        t0 = time.perf_counter()
        result = self.worker.call(case, args, budget)
        wall = time.perf_counter() - t0
        if result is None:
            self.rows.append({"family": family, "size": size, "status": "over_budget",
                              "budget_s": budget, "killed_after_s": round(wall, 1)})
            self.killed.add(family)
            return None
        cost = result.get("s", wall)
        self.rows.append({"family": family, "size": size, "status": "ok", "budget_s": budget,
                          "s": cost, **({"unconverged": result["unconverged"]}
                                        if "unconverged" in result else {})})
        self.last[family] = (last, cost)
        return result


# ------------------------------------------------------------------ run


def run_traced(calls, seed: int, root: Path, workdir: Path):
    """Returns (per-layer metrics {name: value}, report dict with sweep and spans)."""
    rng = np.random.default_rng([seed, 7])
    deadline = time.monotonic() + RUN_BUDGET_S
    m = {}
    over = []
    m["import.lassodist_s"], m["import.scipy_s"] = import_times(root)

    worker = Worker(root, workdir, deadline)
    sweep = Sweep(worker)
    try:
        replay = worker.call("replay", {"argvs": [c.argv for c in calls]}, 300, spans=True)
        span_cost = worker.call("span_cost", {"calls": 20000}, 30.0, traced=False)["per_span_s"]
        probes = _probes(worker, sweep, rng, calls)
    finally:
        worker.stop()

    # replay: cli overhead, self time per layer, tracing overhead
    per_call = replay["calls"]
    traced = sum(c["traced_s"] for c in per_call)
    untraced = sum(c["untraced_s"] for c in per_call)
    selfs = {layer: sum(c["self_s"].get(layer, 0.0) for c in per_call) for layer in LAYERS}
    m["cli.overhead_ms"] = 1e3 * statistics.median(c["self_s"].get("cli", 0.0) for c in per_call)
    m["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    m["trace.unaccounted_pct"] = 100.0 * (traced - sum(selfs.values())) / traced
    m["trace.span_cost_us"] = 1e6 * span_cost
    m["trace.est_overhead_pct"] = 100.0 * span_cost * replay["n_spans"] / traced
    for layer in LAYERS:
        m[f"self_ms.{layer}"] = 1e3 * selfs[layer] / len(per_call)

    # named per-layer metrics from the probes; a killed named case reports its
    # budget as a lower bound and is listed in over_budget
    for name, value in probes.pop("metrics").items():
        if isinstance(value, tuple):
            over.append(name)
            value = value[1]
        m[name] = value

    rows = sweep.rows
    m["sweep.over_budget_cases"] = sum(r["status"] == "over_budget" for r in rows)
    for family in ("orthant", "cdf", "unique"):
        ok = [r["size"] for r in rows if r["family"] == family and r["status"] == "ok"]
        m[f"sweep.{family}_max_p"] = max(ok) if ok else 0
    report = {
        "sweep": rows,
        "named_over_budget": over,
        "replay": [{"call": c.name, **{k: v for k, v in r.items()}} for c, r in zip(calls, per_call)],
        "spans_fields": ["id", "parent", "request", "name", "layer", "start", "end"],
        "spans": replay.get("spans", []),
        **probes,
    }
    return m, report


def _probes(worker, sweep, rng, calls):
    m = {}
    budget_small = 30.0

    def named(name, result, key="s", scale=1.0, budget=None):
        m[name] = scale * result[key] if result is not None else ("over_budget", scale * budget)

    # model, single-row solver, rng
    designs = [c.design["X"] for c in calls]
    r = worker.call("build_problem", {"designs": designs, "reps": 30}, budget_small, traced=False)
    named("model.build_problem_ms", r, scale=1e3, budget=budget_small)
    s3 = {"X": rng.normal(size=(4, 3)).tolist(), "lam": [0.75] * 3, "y": rng.normal(size=4).tolist()}
    r = worker.call("solve", {**s3, "reps": 200}, budget_small, traced=False)
    named("solver.solve_ms", r, scale=1e3, budget=budget_small)
    r = worker.call("rng", {"seed": int(rng.integers(2**31)), "rows": 1 << 18, "dim": 8}, budget_small,
                    traced=False)
    m["rng.samples_per_s"] = r["samples"] / r["s"]

    # distribution: every sign-pattern mass at p = 2, 3 (partition check),
    # then one pattern alone up the sweep; orthant_ms times the mass of the
    # pattern (1, 0, ..., 0) at every p
    oracle_errs = []
    partitions = {}
    for p in (2, 3, 4, 5, 6):
        prob = _gram_problem(rng, p)
        timed = _sweep_pattern(p)
        pats = [list(d) for d in product((-1, 0, 1), repeat=p)] if p <= 3 else [timed]
        r = sweep.run("orthant", p, "orthant", {**prob, "patterns": pats, "timed": timed},
                      60.0 if p <= 3 else 15.0)
        if p <= 4:
            named(f"distribution.orthant_ms.p{p}", r, scale=1e3, budget=60.0 if p <= 3 else 15.0)
        if r is None:
            continue
        partitions[p] = (prob, r["masses"])
        if p <= 3:
            m[f"distribution.partition_err.p{p}"] = abs(sum(x["value"] for x in r["masses"]) - 1.0)
    for p in (2, 3):
        m.setdefault(f"distribution.partition_err.p{p}", ("over_budget", 1.0))
    cdfs = {}
    for p in (2, 3, 4):
        prob = _gram_problem(rng, p)
        z = _cdf_point(prob)
        r = sweep.run("cdf", p, "cdf", {**prob, "z": z}, 15.0)
        if p < 4:
            named(f"distribution.cdf_ms.p{p}", r, scale=1e3, budget=15.0)
        if r is not None:
            cdfs[p] = (prob, z, r["value"])
    prob3 = _gram_problem(rng, 3)
    b3 = np.asarray(prob3["beta"])
    r = worker.call("density", {**prob3, "d": [1, 0, -1], "z_active": [-b3[0] + 0.3, -b3[2] - 0.3]},
                    budget_small)
    named("distribution.density_ms.p3", r, scale=1e3, budget=budget_small)
    r = worker.call("mvn_box", _gram_problem(rng, 3), budget_small)
    named("distribution.mvn_box_ms.p3", r, scale=1e3, budget=budget_small)

    # geometry / simplex: random designs in general position, uniform tuning
    unique_counts = {}
    for n, p in ((3, 8), (4, 10), (5, 12), (6, 14)):
        X = rng.normal(size=(n, p))
        r = sweep.run("unique", p, "unique", {"X": X.tolist(), "lam": [1.0] * p}, 40.0)
        if p <= 12:
            named(f"geometry.check_unique_s.n{n}p{p}", r, budget=40.0)
        if r is not None:
            unique_counts[p] = (r["counters"], r["self_s"])
    lps = sum(c.get("simplex.lps", 0) for c, _ in unique_counts.values())
    feas = sum(c.get("simplex.feasible", 0) for c, _ in unique_counts.values())
    lp_s = sum(s.get("simplex", 0.0) for _, s in unique_counts.values())
    m["geometry.lps_per_check"] = unique_counts[10][0].get("simplex.lps", 0) if 10 in unique_counts else 0
    m["simplex.lps"] = lps
    m["simplex.lp_ms"] = 1e3 * lp_s / lps if lps else 0.0
    m["simplex.feasible_ratio"] = feas / lps if lps else 0.0

    # solver: the (n, p, rho) grid, 4096 rows each
    unconverged = 0
    grid = {"n5p3": (5, 3, 0.0), "n20p10": (20, 10, 0.0), "rho0": (50, 30, 0.0),
            "rho09": (50, 30, 0.9), "wide": (5, 8, 0.0)}
    for key, (n, p, rho) in grid.items():
        prob = _sampling_problem(rng, n, p, rho)
        r = sweep.run(f"solve_many.{key}", p, "solve_many",
                      {**prob, "rows": 4096, "seed": int(rng.integers(2**31))}, 30.0)
        if key in ("rho0", "rho09", "wide"):
            m[f"solver.rows_per_s.{key}"] = (r["rows"] / r["s"]) if r else ("over_budget", 4096 / 30.0)
        if r is not None:
            unconverged += r["unconverged"]

    # simulate on the rank-deficient wide design: cone tests run
    prob = _sampling_problem(rng, 5, 8, 0.0)
    # each 4096-row chunk can run to the solver's sweep cap (several seconds
    # here); the budget covers two capped chunks
    r = worker.call("simulate", {**prob, "reps": 8192, "seed": int(rng.integers(2**31))}, 60.0)
    if r is None:
        # killed: the rate is at most reps / budget; the counters are lost
        m["simulate.reps_per_s"] = ("over_budget", 8192 / 60.0)
        for name in ("solver_share", "cone_tests", "cone_cache_hit_ratio", "convergence_failures"):
            m[f"simulate.{name}"] = ("over_budget", 0.0)
    else:
        m["simulate.reps_per_s"] = r["reps"] / r["s"]
        m["simulate.solver_share"] = r["span_s"].get("simulate.solve_many", 0.0) / r["s"]
        tests = r["counters"].get("simulate.cone_tests", 0)
        m["simulate.cone_tests"] = tests
        m["simulate.cone_cache_hit_ratio"] = 1.0 - tests / r["cone_lookups"] if r["cone_lookups"] else 0.0
        m["simulate.convergence_failures"] = r["convergence_failures"]
        unconverged += r["counters"].get("solver.unconverged_rows", 0)
    m["solver.unconverged_rows"] = unconverged

    # accuracy against the oracle, after all timing
    for p, (prob, masses) in partitions.items():
        gram, lam, beta = _arrays(prob)
        for x in masses:
            want = box_prob(*_event_box(gram, lam, beta, 1.0, tuple(x["d"]), -beta), abseps=ORACLE_ABSEPS)
            oracle_errs.append(abs(x["value"] - want))
    for p, (prob, z, value) in cdfs.items():
        gram, lam, beta = _arrays(prob)
        oracle_errs.append(abs(value - cdf_value(gram, lam, beta, 1.0, np.asarray(z))))
    m["distribution.max_err_vs_oracle"] = max(oracle_errs) if oracle_errs else ("over_budget", 1.0)
    return {"metrics": m, "simulate_probe": r}


def _arrays(prob):
    X = np.asarray(prob["X"])
    return X.T @ X, np.asarray(prob["lam"]), np.asarray(prob["beta"])
