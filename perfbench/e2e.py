"""Closed-loop end-to-end runner: one `python -m lassodist` subprocess at a time.

A call is timed from just before the spawn to the return of `os.wait4`, so
interpreter start-up, imports, the computation and the exit are all inside.
The child's peak resident set comes from the rusage that `wait4` returns;
calls are spawned by launch.py, a standard-library-only helper, so that
figure is the call's own (see launch.py). A call that outlives its budget is
killed, waited for and counted as failed. Checks run after the timed loop,
never between calls.

The reported times are corrected for the host's speed. The host is shared,
and the speed it gives a process drifts by tens of percent over minutes, far
more than the run-to-run spread of the calls themselves. So every call and
every set-up child runs between two reference children: fresh interpreters
that import what lassodist imports (numpy and the scipy modules) and
nothing of lassodist. Their wall time measures the host's speed
just before and just after the call, on the same kind of work that
dominates a call. A time multiplied by REFERENCE_S over the mean of its two
reference wall times is the time at the reference speed. The raw wall times
are reported beside the corrected ones.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CheckError

CALL_BUDGET_S = 60.0

REFERENCE_CODE = "import numpy, scipy.integrate, scipy.linalg, scipy.stats"
# Wall seconds of one reference child at the reference speed: about its time
# on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4, scipy 1.17) in a quiet phase.
# In that VM's slow phases it takes 1.3 to 1.5 s.
REFERENCE_S = 1.0

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import lassodist as ld
for path in sys.argv[1:]:
    with open(path) as fh:
        env = json.load(fh)
    problem = ld.build_problem(env["X"])
    ld.gaussian_model(problem, env.get("beta") or [0.0] * problem.p, env.get("sigma", 1.0))
    if env.get("lambda") is not None:
        ld.tuning_vector(env["lambda"])
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Sample:
    wall_s: float
    max_rss_kb: int
    returncode: int
    timed_out: bool
    stdout: str
    stderr: str
    ref_s: float = REFERENCE_S  # mean wall time of the reference children around it


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """One launch.py process; `spawn` runs one call through it and waits."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "launch.py")], cwd=root,
            env=child_env(root), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.last_ref_s = None

    def spawn(self, argv, budget_s: float = CALL_BUDGET_S) -> Sample:
        out_path, err_path = self.workdir / "call.out", self.workdir / "call.err"
        req = {"argv": argv, "out": str(out_path), "err": str(err_path), "budget_s": budget_s}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launch.py exited")
        r = json.loads(line)
        return Sample(wall_s=r["wall_s"], max_rss_kb=int(r["max_rss_kb"]),
                      returncode=r["returncode"], timed_out=r["timed_out"],
                      stdout=out_path.read_text(), stderr=err_path.read_text())

    def reference(self) -> float:
        ref = self.spawn([sys.executable, "-c", REFERENCE_CODE])
        if ref.returncode != 0 or ref.timed_out:
            raise RuntimeError(f"reference child failed: {ref.stderr.strip()[-400:]}")
        return ref.wall_s

    def spawn_referenced(self, argv) -> Sample:
        """Run `argv` between two reference children. Consecutive calls share
        the reference between them."""
        if self.last_ref_s is None:
            self.last_ref_s = self.reference()
        s = self.spawn(argv)
        after = self.reference()
        s.ref_s = (self.last_ref_s + after) / 2
        self.last_ref_s = after
        return s

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def measure_setup(launcher: Launcher, envelopes, reps: int) -> list:
    """Import lassodist and build the workload's objects in fresh children.

    Returns one Sample per child; its stdout holds the seconds the child
    measured from before the import to the last object built.
    """
    samples = []
    for _ in range(reps):
        s = launcher.spawn_referenced([sys.executable, "-c", SETUP_CODE, *envelopes])
        if s.returncode != 0:
            raise RuntimeError(f"set-up child failed: {s.stderr.strip()[-400:]}")
        samples.append(s)
    return samples


def run_loop(plan, launcher: Launcher):
    """Replay each cycle's call list in turn, one call at a time.

    Whole cycles only, so every call of the list is sampled equally often and
    the mix never depends on where a clock stopped. Returns (call, sample)
    pairs and the loop's wall time.
    """
    pairs = []
    t_start = time.perf_counter()
    for calls in plan:
        for call in calls:
            pairs.append((call, launcher.spawn_referenced(
                [sys.executable, "-m", "lassodist", *call.argv])))
    return pairs, time.perf_counter() - t_start


def check_samples(pairs):
    """Apply each call's check to its sample; returns (failures, counters)."""
    verdicts: dict = {}
    failures = []
    counters: dict = {}
    for call, s in pairs:
        if s.timed_out or s.returncode != 0:
            why = "over budget" if s.timed_out else f"exit {s.returncode}: {s.stderr.strip()[-300:]}"
            failures.append((call.name, why))
            continue
        key = (id(call.check), s.stdout)
        if key not in verdicts:
            try:
                verdicts[key] = (None, call.check(s.stdout) or {})
            except (CheckError, ValueError, KeyError, TypeError) as exc:
                verdicts[key] = (f"{type(exc).__name__}: {exc}", {})
        err, info = verdicts[key]
        if err is not None:
            failures.append((call.name, err))
        for k, v in info.items():
            counters[k] = counters.get(k, 0) + v
    return failures, counters


def tail(values):
    """Highest percentile with at least ten samples above it: (value, percentile, beyond)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[0], 0.0, n - 1
    k = n - 10  # 1-based rank; ten samples lie beyond it
    return xs[k - 1], 100.0 * k / n, n - k


def _timings(names, times):
    """calls_per_s, call_p50_s, call_tail_s and per-call medians of one set of times."""
    by_name: dict = {}
    for name, t in zip(names, times):
        by_name.setdefault(name, []).append(t)
    per_call = {name: statistics.median(v) for name, v in by_name.items()}
    return {
        # throughput on the list's own mix: each call at its median time
        "calls_per_s": len(per_call) / sum(per_call.values()),
        "call_p50_s": statistics.median(times),
        "call_tail_s": tail(times)[0],
        "per_call_median_s": per_call,
    }


def summarize(setup, pairs, wall_s):
    """Metrics of one run from its set-up samples and (call, sample) pairs."""
    names = [call.name for call, _ in pairs]
    raw = [s.wall_s for _, s in pairs]
    setup_raw = [float(s.stdout.strip()) for s in setup]
    factors = [s.ref_s / REFERENCE_S for s in setup] + [s.ref_s / REFERENCE_S for _, s in pairs]
    setup_f, call_f = factors[:len(setup)], factors[len(setup):]
    _, tail_pct, beyond = tail(raw)
    out = _timings(names, [t / f for t, f in zip(raw, call_f)])
    out.update({
        "setup_s": statistics.median(t / f for t, f in zip(setup_raw, setup_f)),
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "samples": len(raw),
        "loop_wall_s": wall_s,
        "peak_rss_mb": max(s.max_rss_kb for _, s in pairs) / 1024.0,
        "host_factor": statistics.median(factors),
        "host_factor_range": [min(factors), max(factors)],
        "raw": {**_timings(names, raw), "setup_s": statistics.median(setup_raw),
                "setup_samples_s": setup_raw},
        "spawns": {"fields": ["call", "wall_s", "ref_s"],
                   "setup": [["setup", float(s.stdout.strip()), s.ref_s] for s in setup],
                   "calls": [[call.name, s.wall_s, s.ref_s] for call, s in pairs]},
    })
    return out
