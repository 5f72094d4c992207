"""Solver work on the benchmark's Monte-Carlo designs: solve_many time, sweeps to close, tail, memory.

Builds the perfbench `sampling` envelopes of one workload seed, draws the
responses that the workload's Monte-Carlo calls solve (the calls' own seeds)
and prints one JSON object. Responses are solved in the blocks that the
measured checkout's Monte-Carlo loop uses (`simulate._BLOCK_CHUNKS`
4096-row RNG chunks per solve_many call; one chunk in checkouts that predate
blocks):

    python3 scripts/solver_tail.py --part times --seed 43 --reps 5
    python3 scripts/solver_tail.py --part sweeps --seed 43
    python3 scripts/solver_tail.py --part tail --seed 43 --mc-seeds 0:60
    python3 scripts/solver_tail.py --part memory --seed 43

`times`: in-process solve_many time per design, summed over the blocks of
one call (m2 and m3: 100,000 rows; wide5x8: 2048; corr50x30: 1024), median
of --reps after one warm-up, and a digest of every block's coefficients and
residuals, which two checkouts share exactly when their solutions are
bitwise equal. `sweeps`: for each row, the least max_iter on a grid at which
it meets tol, and quantiles of that over the rows. `tail`: the wide5x8
design at 2048 replicates for each Monte-Carlo seed: rows still open at
max_iter 400 and 500, and the time of a call at the default limit.
`memory`: each design's Monte-Carlo call (`prob-zero` on m2 and m3,
`simulate` on wide5x8 and corr50x30) run in process by `cli.main` after one
warm-up call, with the peak of tracemalloc's traced bytes in each stage, in
MB: `solve` inside the block solves, `count` inside the counting of a
block, `sort` inside the sorting of a block by its event (`prob-zero` in
checkouts whose events decide rows from C = Y X; `solve` and `count` then
see only the undecided rows), `draw` between blocks (drawing the next
block, freeing the last) and `report` from the end of the replicate loop to
the call's return (summary, rendering and writing to /dev/null). Traced bytes are those allocated
through Python's allocators, numpy arrays included, not the peak RSS.
--src names the source checkout whose `src/lassodist` is measured (default:
this one), so one command measures two commits.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID = list(range(1, 11)) + [20, 30, 50, 100, 200, 400, 1000, 2000, 5000, 10_000, 100_000]
TOL = 1e-10


def designs(workloads, seed, outdir):
    """(envelope path, rows, Monte-Carlo seed, call argv) of each sampling call that solves."""
    calls = {c.name: c for c in workloads.sampling(seed, outdir, 1)[0]}

    def of(call, rows):
        argv = calls[call].argv
        return calls[call].design["path"], rows, int(argv[argv.index("--seed") + 1]), argv

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


def solve_all(ld, problem, tuning, Ys, max_iter=100_000, digest=None):
    out = [ld.solve_many(problem, Y, tuning, tol=TOL, max_iter=max_iter) for Y in Ys]
    if digest is not None:
        for B, rs in out:
            digest.update(B.tobytes())
            digest.update(rs.tobytes())
    return [r for _, rs in out for r in rs]


def stage_peaks(cli, simulate, argv):
    """Peak traced MB of each stage of one in-process CLI call (see `memory`)."""
    peaks, stage = {}, ["setup"]

    def enter(name):
        peak = tracemalloc.get_traced_memory()[1]
        peaks[stage[0]] = max(peaks.get(stage[0], 0), peak)
        tracemalloc.reset_peak()
        stage[0] = name

    def wrap(fn, before, after):
        def staged(*args, **kwargs):
            enter(before)
            try:
                return fn(*args, **kwargs)
            finally:
                enter(after)
        return staged

    solve_many, replicates = simulate.solve_many, simulate._solve_replicates

    def staged_replicates(problem, model, tuning, n_rep, seed, solver_tol, consume, sort=None):
        # checkouts that predate the sorter take no sort argument, and get none
        staged = {} if sort is None else {"sort": wrap(sort, "sort", "draw")}
        replicates(problem, model, tuning, n_rep, seed, solver_tol,
                   wrap(consume, "count", "draw"), **staged)
        enter("report")

    simulate.solve_many = wrap(solve_many, "solve", "draw")
    simulate._solve_replicates = staged_replicates
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = cli.main(argv)
                enter(None)
            finally:
                tracemalloc.stop()
    finally:
        simulate.solve_many, simulate._solve_replicates = solve_many, replicates
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return {k: round(v / 2**20, 3) for k, v in peaks.items() if k != "setup"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", choices=("times", "sweeps", "tail", "memory"), required=True)
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
        for name, (path, rows, mc_seed, _) in cases.items():
            problem, tuning, Ys = chunks(path, rows, mc_seed)
            digest = hashlib.sha256()
            solve_all(ld, problem, tuning, Ys, digest=digest)
            ms = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                resids = solve_all(ld, problem, tuning, Ys)
                ms.append(1e3 * (time.perf_counter() - t0))
            result[name] = {"rows": rows, "median_ms": round(float(np.median(ms)), 2),
                            "unconverged": int(np.sum(np.array(resids) > TOL)),
                            "digest": digest.hexdigest()[:16]}
    elif args.part == "memory":
        from lassodist import cli

        for name, (*_, argv) in cases.items():
            stage_peaks(cli, simulate, argv)
            result[name] = stage_peaks(cli, simulate, argv)
    elif args.part == "sweeps":
        for name, (path, rows, mc_seed, _) in cases.items():
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
