"""lassodist benchmark: CLI call latency end to end, and a traced per-layer run.

One workload run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload exact --seed 3 --seconds 20 --trace 0

replays the workload's call list as a closed loop with one client (one
`python -m lassodist` subprocess at a time) for about --seconds seconds,
checks every answer against code outside lassodist, and prints the
end-to-end metrics. With --trace 1 it instead runs the traced in-process
run: per-layer spans and counters, the tracing overhead and the budgeted
scaling sweep, and prints the per-layer metrics.

Every workload and the traced run, with a baseline table:

    python3 perfbench/run.py --all --seed 3

The last line of stdout is always one JSON object with the keys correct,
attempted, failed and metrics. Run from the root of a source checkout; the
package is imported from src/ and the oracles from tests/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/lassodist/__init__.py", "tests/mvn_oracle.py", "tests/prox_oracle.py")
SETUP_REPS = 3


def _fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, [w["name"] for w in spec["workloads"]]


def environment():
    """Machine and software facts recorded with every result."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def _git_commit():
    """HEAD of the checkout read from .git directly; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _emit(metrics, wanted, correct, attempted, failed):
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        _fail(f"metrics not produced: {missing}")
    out = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(out))


def _print_metrics(metrics, wanted):
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")


def run_e2e(workload, seed, seconds, workdir):
    import e2e
    import workloads

    cycles = workloads.cycles_for(workload, seconds)
    plan = workloads.build(workload, seed, workdir / "inputs", cycles)
    envelopes = sorted({c.design["path"] for c in plan[0]})
    launcher = e2e.Launcher(ROOT, workdir)
    t0 = time.perf_counter()
    try:
        setup = e2e.measure_setup(launcher, envelopes, SETUP_REPS)
        t1 = time.perf_counter()
        pairs, wall = e2e.run_loop(plan, launcher)
    finally:
        launcher.close()
    t2 = time.perf_counter()
    failures, counters = e2e.check_samples(pairs)
    summary = e2e.summarize(setup, pairs, wall)
    summary["phase_wall_s"] = {"setup": t1 - t0, "loop": wall, "check": time.perf_counter() - t2}
    summary["cycles"] = cycles
    summary["fail_ratio"] = len(failures) / len(pairs)
    summary["failures"] = failures[:20]
    summary["counters"] = counters
    return summary, len(pairs), len(failures)


def print_e2e(workload, s, wanted):
    print(f"workload {workload}: {s['samples']} calls in {s['cycles']} cycles, "
          f"{s['loop_wall_s']:.1f} s; one client, closed loop")
    _print_metrics(s, wanted)
    print(f"  call_tail_s is the p{s['tail_percentile']:.0f} ({s['tail_beyond']} samples beyond it); "
          f"setup_s is the median of {SETUP_REPS} fresh interpreters")
    lo, hi = s["host_factor_range"]
    raw = s["raw"]
    print(f"  times above are at the reference host speed; host factor {s['host_factor']:.3f} "
          f"(range {lo:.3f}-{hi:.3f}). Raw wall: calls_per_s {raw['calls_per_s']:.4g}, "
          f"call_p50_s {raw['call_p50_s']:.4g}, call_tail_s {raw['call_tail_s']:.4g}, "
          f"setup_s {raw['setup_s']:.4g}")
    print(f"  fail_ratio {s['fail_ratio']:.4g} ({len(s['failures'])} shown failed); "
          f"simulate convergence_failures {s['counters'].get('convergence_failures', 0)}")
    for name, t in s["per_call_median_s"].items():
        print(f"    {name:<28} {t:8.3f} s")
    for call, why in s["failures"]:
        print(f"  FAILED {call}: {why}")


def run_trace(calls, seed, workdir):
    import e2e
    import traced

    metrics, report = traced.run_traced(calls, seed, ROOT, workdir)
    # the traced replay's answers go through the same gate as the e2e calls
    pairs = [(c, e2e.Sample(wall_s=r["traced_s"], max_rss_kb=0, returncode=0, timed_out=False,
                            stdout=r["stdout"], stderr=""))
             for c, r in zip(calls, report["replay"])]
    failures, _ = e2e.check_samples(pairs)
    spans = report.pop("spans")
    (workdir / "spans.json").write_text(json.dumps({"fields": report.pop("spans_fields"),
                                                    "spans": spans}))
    for r in report["replay"]:
        r.pop("stdout")
    report["failures"] = failures
    attempted = len(pairs) + len(report["sweep"])
    return metrics, report, attempted, len(failures)


def print_trace(metrics, report, wanted):
    print("traced run: per-layer metrics (spans recorded around lassodist entry points)")
    _print_metrics(metrics, wanted)
    if report["named_over_budget"]:
        print(f"  over budget, value is the bound its budget gives, not a measurement: "
              f"{report['named_over_budget']}")
    print("  sweep:")
    for r in report["sweep"]:
        cost = f"{r['s']:.3f} s" if r["status"] == "ok" else r["status"]
        print(f"    {r['family']:<18} p={r['size']:<3} {cost:>14}   budget {r['budget_s']:.0f} s")
    for call, why in report["failures"]:
        print(f"  FAILED {call}: {why}")


def main(argv=None):
    if not (ROOT / "BENCHMARK.json").is_file():
        _fail("BENCHMARK.json missing")
    spec, names = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true", help="every workload, then the traced run")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        _fail(f"not a lassodist source checkout (missing {', '.join(missing)})")
    sys.path.insert(0, str(ROOT / "tests"))

    import workloads

    out_root = ROOT / ".bench_out"
    if not args.all:
        workdir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        workdir.mkdir(parents=True, exist_ok=True)
        env = environment()
        if args.trace:
            calls = workloads.build(args.workload, args.seed, workdir / "inputs", 1)[0]
            metrics, report, attempted, failed = run_trace(calls, args.seed, workdir)
            print_trace(metrics, report, spec["per_layer"])
            (workdir / "results.json").write_text(json.dumps(
                {"env": env, "metrics": metrics, **report}, indent=1, default=str))
            _emit(metrics, spec["per_layer"], failed == 0, attempted, failed)
        else:
            s, attempted, failed = run_e2e(args.workload, args.seed, args.seconds, workdir)
            print_e2e(args.workload, s, spec["end_to_end"])
            (workdir / "results.json").write_text(json.dumps({"env": env, **s}, indent=1, default=str))
            _emit(s, spec["end_to_end"], failed == 0, attempted, failed)
        return 0

    # --all: every workload end to end, then one traced run over all call lists
    workdir = out_root / f"all-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    results, attempted, failed = {}, 0, 0
    for name in names:
        wd = workdir / name
        wd.mkdir(exist_ok=True)
        s, a, f = run_e2e(name, args.seed, args.seconds, wd)
        print_e2e(name, s, spec["end_to_end"])
        results[name] = s
        attempted, failed = attempted + a, failed + f
    calls = [c for name in names
             for c in workloads.build(name, args.seed, workdir / "trace-inputs" / name, 1)[0]]
    metrics, report, a, f = run_trace(calls, args.seed, workdir)
    attempted, failed = attempted + a, failed + f
    print_trace(metrics, report, spec["per_layer"])
    print()
    print(f"baseline (seed {args.seed}; {env['cpu']}, nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, commit {env['git_commit']})")
    cols = [m["name"] for m in spec["end_to_end"]]
    print("| workload | " + " | ".join(cols) + " | fail_ratio |")
    print("|---" * (len(cols) + 2) + "|")
    for name, s in results.items():
        print(f"| {name} | " + " | ".join(f"{s[c]:.4g}" for c in cols) + f" | {s['fail_ratio']:.3g} |")
    (workdir / "results.json").write_text(json.dumps(
        {"env": env, "e2e": results, "per_layer": metrics, **report}, indent=1, default=str))
    combined = {f"{w}.{k}": s[k] for w, s in results.items() for k in cols}
    combined.update(metrics)
    wanted = [{"name": f"{w}.{m['name']}", "unit": m["unit"]} for w in names for m in spec["end_to_end"]]
    _emit(combined, wanted + spec["per_layer"], failed == 0, attempted, failed)
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    sys.stderr.write(f"perfbench: done in {time.perf_counter() - t0:.1f} s\n")
    sys.exit(code)
