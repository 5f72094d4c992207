"""Solver work on the benchmark's Monte-Carlo designs: solve_many time, sweeps to close, tail.

Builds the perfbench `sampling` envelopes of one workload seed, draws the
responses that the workload's Monte-Carlo calls solve (the calls' own seeds)
and prints one JSON object. Responses are solved in the blocks that the
measured checkout's Monte-Carlo loop uses (`simulate._BLOCK_CHUNKS`
4096-row RNG chunks per solve_many call; one chunk in checkouts that predate
blocks):

    python3 scripts/solver_tail.py --part times --seed 43 --reps 5
    python3 scripts/solver_tail.py --part sweeps --seed 43
    python3 scripts/solver_tail.py --part tail --seed 43 --mc-seeds 0:60

`times`: in-process solve_many time per design, summed over the blocks of
one call (m2 and m3: 100,000 rows; wide5x8: 2048; corr50x30: 1024), median
of --reps after one warm-up. `sweeps`: for each row, the least max_iter on
a grid at which it meets tol, and quantiles of that over the rows. `tail`:
the wide5x8 design at 2048 replicates for each Monte-Carlo seed: rows still
open at max_iter 400 and 500, and the time of a call at the default limit.
--src names the source checkout whose `src/lassodist` is measured (default:
this one), so one command measures two commits.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID = list(range(1, 11)) + [20, 30, 50, 100, 200, 400, 1000, 2000, 5000, 10_000, 100_000]
TOL = 1e-10


def designs(workloads, seed, outdir):
    """(name, envelope path, rows, Monte-Carlo seed) of the sampling calls that solve."""
    calls = {c.name: c for c in workloads.sampling(seed, outdir, 1)[0]}

    def of(call, rows):
        argv = calls[call].argv
        return calls[call].design["path"], rows, int(argv[argv.index("--seed") + 1])

    return {
        "m2": of("prob-zero.mc.p2", 100_000),
        "m3": of("prob-zero.mc.p3", 100_000),
        "wide5x8": of("simulate.wide5x8", 2048),
        "corr50x30": of("simulate.corr50x30", 1024),
    }


def blocks(ld, np, gaussian_chunks, per_block, path, rows, mc_seed):
    """The design, tuning and responses of one call, per_block RNG chunks to a block."""
    env = json.loads(Path(path).read_text())
    problem = ld.build_problem(env["X"])
    model = ld.gaussian_model(problem, env["beta"], env["sigma"])
    Zs = [Z for _, _, Z in gaussian_chunks(mc_seed, rows, problem.n)]
    Ys = [model.mu + model.sigma * np.concatenate(Zs[i:i + per_block])
          for i in range(0, len(Zs), per_block)]
    return problem, ld.tuning_vector(env["lambda"]), Ys


def solve_all(ld, problem, tuning, Ys, max_iter=100_000):
    out = [ld.solve_many(problem, Y, tuning, tol=TOL, max_iter=max_iter) for Y in Ys]
    return [r for _, rs in out for r in rs]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", choices=("times", "sweeps", "tail"), required=True)
    ap.add_argument("--seed", type=int, default=43, help="perfbench workload seed")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--mc-seeds", default="0:60", help="lo:hi, Monte-Carlo seeds of --part tail")
    ap.add_argument("--src", default=str(ROOT), help="checkout whose src/ is measured")
    ap.add_argument("--out", default=str(ROOT / ".bench_out" / "solver_tail"),
                    help="directory for the generated envelopes")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(Path(args.src).resolve() / "src"), str(ROOT / "perfbench"),
                    str(ROOT / "tests")]
    import numpy as np
    import workloads

    import lassodist as ld
    from lassodist import simulate
    from lassodist.rng import gaussian_chunks

    per_block = getattr(simulate, "_BLOCK_CHUNKS", 1)
    chunks = lambda *case: blocks(ld, np, gaussian_chunks, per_block, *case)
    cases = designs(workloads, args.seed, Path(args.out) / str(args.seed))
    result = {"block_chunks": per_block}
    if args.part == "times":
        for name, (path, rows, mc_seed) in cases.items():
            problem, tuning, Ys = chunks(path, rows, mc_seed)
            solve_all(ld, problem, tuning, Ys)
            ms = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                resids = solve_all(ld, problem, tuning, Ys)
                ms.append(1e3 * (time.perf_counter() - t0))
            result[name] = {"rows": rows, "median_ms": round(float(np.median(ms)), 2),
                            "unconverged": int(np.sum(np.array(resids) > TOL))}
    elif args.part == "sweeps":
        for name, (path, rows, mc_seed) in cases.items():
            problem, tuning, Ys = chunks(path, rows, mc_seed)
            closed = np.full(rows, np.inf)
            for k in GRID:
                resids = np.array(solve_all(ld, problem, tuning, Ys, max_iter=k))
                closed = np.where(np.isinf(closed) & (resids <= TOL), k, closed)
                if np.all(np.isfinite(closed)):
                    break
            result[name] = {
                **{f"q{q}": float(np.quantile(closed, q, method="inverted_cdf"))
                   for q in (0.5, 0.9, 0.99, 0.999)},
                "max": float(closed.max()),
                "share_closed_by": {str(k): round(float(np.mean(closed <= k)), 5)
                                    for k in GRID if k <= closed.max()},
            }
    else:
        lo, hi = (int(v) for v in args.mc_seeds.split(":"))
        path = cases["wide5x8"][0]
        for mc_seed in range(lo, hi):
            problem, tuning, Ys = chunks(path, 2048, mc_seed)
            row = {f"open_at_{k}": int(np.sum(np.array(solve_all(ld, problem, tuning, Ys, k)) > TOL))
                   for k in (400, 500)}
            t0 = time.perf_counter()
            resids = solve_all(ld, problem, tuning, Ys)
            row["ms"] = round(1e3 * (time.perf_counter() - t0), 1)
            row["unconverged"] = int(np.sum(np.array(resids) > TOL))
            result[str(mc_seed)] = row
    print(json.dumps(result))


if __name__ == "__main__":
    main()
