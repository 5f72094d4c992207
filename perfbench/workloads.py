"""Seeded inputs and call lists for the three end-to-end workloads.

Each workload is a fixed list of `python -m lassodist` calls on problem
envelopes generated from the workload seed. The list is replayed in whole
cycles, one subprocess at a time. Every call carries a check that decides,
from the call's stdout alone and through code outside `lassodist`, whether
the answer is right (see checks.py).

Input families are chosen so that the cost of a call varies little from seed
to seed (fixed sizes, correlations and threshold positions drawn from narrow
ranges); the seed moves the numbers, not the amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Seconds one cycle of each call list took, with the reference children
# around each call (e2e.py), at the commit that defined the benchmark (2-CPU Xeon
# VM, Python 3.11). A run replays max(1, round(seconds / cycle)) whole
# cycles; the count is fixed from the run length, not from a clock read
# during the run, so a faster program is measured on the same number of
# calls as its parent.
NOMINAL_CYCLE_S = {"cli-light": 23.5, "exact": 24.5, "sampling": 14.5}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


@dataclass
class Call:
    """One subcommand invocation and the check of its stdout."""

    name: str
    argv: list
    check: Callable[[str], None]
    design: dict = field(default_factory=dict)


class _Writer:
    def __init__(self, outdir: Path):
        self.outdir = outdir
        outdir.mkdir(parents=True, exist_ok=True)

    def envelope(self, name, X, lam=None, beta=None, sigma=1.0, y=None):
        data = {"X": np.asarray(X, dtype=float).tolist()}
        if lam is not None:
            data["lambda"] = np.asarray(lam, dtype=float).tolist()
        if beta is not None:
            data["beta"] = np.asarray(beta, dtype=float).tolist()
        data["sigma"] = float(sigma)
        if y is not None:
            data["y"] = np.asarray(y, dtype=float).tolist()
        path = self.outdir / f"{name}.json"
        path.write_text(json.dumps(data))
        data["path"] = str(path)
        data.setdefault("beta", [0.0] * len(data["X"][0]))
        return data


def _csv(v):
    return ",".join(repr(float(x)) for x in v)


def _corr_gram(rng, p, lo, hi):
    rho = rng.uniform(lo, hi)
    return np.full((p, p), rho) + (1.0 - rho) * np.eye(p)


def _from_gram(gram):
    # X = L' with LL' = gram, so X'X = gram exactly
    return np.linalg.cholesky(gram).T


def _full_rank_env(w, rng, name, p, n=None):
    """A p-coordinate full-rank problem with moderate correlation."""
    if n is None:
        X = _from_gram(_corr_gram(rng, p, 0.25, 0.5))
    else:
        X = rng.normal(size=(n, p))
    beta = rng.uniform(-0.3, 0.3, p)
    lam = rng.uniform(0.6, 0.9, p)
    y = X @ beta + rng.normal(size=X.shape[0])
    return w.envelope(name, X, lam=lam, beta=beta, y=y)


def _steady_env(w, rng, name, p):
    """Full-rank problem near a fixed point: quadrature cost barely moves with the seed.

    Adaptive quadrature does more work the nearer an event boundary sits to
    the mass, so a wide draw of beta or lambda would change the work per call
    from seed to seed; the seed here moves every number by a few percent.
    """
    X = _from_gram(_corr_gram(rng, p, 0.3, 0.35))
    beta = np.array([0.1, -0.15, 0.05][:p]) + rng.uniform(-0.03, 0.03, p)
    lam = 0.75 + rng.uniform(-0.03, 0.03, p)
    return w.envelope(name, X, lam=lam, beta=beta)


# Base designs for exact and sampling come from this fixed seed and the
# workload seed perturbs them by 2%: coordinate-descent and simplex work on
# a random design has a heavy tail (a few designs need thousands of sweeps
# per row), which would make one seed's run several times slower than the
# next. Base 2 was the median-cost base among the first five. The tail itself
# is measured by the traced run (solver.rows_per_s.wide, unconverged rows).
BASE = 2


def _near(rng, base, jitter=0.02):
    return base + jitter * rng.normal(size=np.shape(base))


def _correlated_design(rng, n, p, rho):
    """Columns with pairwise correlation about rho, scaled to norm sqrt(n)."""
    Z = rng.normal(size=(n, p))
    common = rng.normal(size=(n, 1))
    X = np.sqrt(1.0 - rho) * Z + np.sqrt(rho) * common
    return X * (np.sqrt(n) / np.linalg.norm(X, axis=0))


def _cycle_seeds(seed, cycles, k):
    """k Monte-Carlo seeds per cycle, so one unlucky draw is one sample, not all."""
    return [[int(x) for x in np.random.default_rng([seed, 100 + c]).integers(0, 2**31, k)]
            for c in range(cycles)]


def cli_light(seed: int, outdir: Path, cycles: int) -> list:
    rng = np.random.default_rng([seed, 1])
    w = _Writer(outdir)
    s3 = _full_rank_env(w, rng, "s3", 3, n=4)
    corr2 = _full_rank_env(w, rng, "corr2", 2)
    d23 = w.envelope("d23", rng.normal(size=(2, 3)), lam=rng.uniform(0.8, 1.2, 3))
    d24 = w.envelope("d24", rng.normal(size=(2, 4)), lam=np.ones(4))
    a = rng.uniform(1.5, 2.5)
    # lambda proportional to the column norms of a rank-one design: the
    # solution set is a segment for some y, so check-unique returns a witness
    n1p2 = w.envelope("n1p2", [[1.0, a]], lam=[1.0, a], y=[rng.uniform(2.0, 5.0)])
    b = rng.uniform(0.2, 0.8, 2) * np.array([1.0, -1.0])
    inp = lambda env: ["--input", env["path"]]
    fixed = [
        Call("solve", ["solve", *inp(s3)], checks.solve(s3), s3),
        Call("structural-set", ["structural-set", *inp(d23)], checks.structural_set(d23), d23),
        Call("selectable", ["selectable", *inp(d24), "--model", "1,2"],
             checks.selectable(d24, [0, 1]), d24),
        Call("check-unique.d24", ["check-unique", *inp(d24)], checks.check_unique(d24), d24),
        Call("check-unique.n1p2", ["check-unique", *inp(n1p2)], checks.check_unique(n1p2), n1p2),
        Call("general-position", ["general-position", *inp(d24)],
             checks.general_position(d24), d24),
        Call("prob-zero.quad", ["prob-zero", *inp(corr2)], checks.prob_zero(corr2), corr2),
        Call("orthant-prob.p2", ["orthant-prob", *inp(corr2), "--signs", "1,-1"],
             checks.orthant(corr2, (1, -1), np.zeros(2)), corr2),
        Call("shrinkage-map", ["shrinkage-map", *inp(corr2), "--b", _csv(b)],
             checks.shrinkage_map(corr2, b), corr2),
    ]
    return [fixed + [Call("simulate.s3", ["simulate", *inp(s3), "--reps", "400", "--seed", str(k)],
                          checks.simulate(s3, 400, k, full_rank_patterns=True), s3)]
            for (k,) in _cycle_seeds(seed, cycles, 1)]


def exact(seed: int, outdir: Path, cycles: int) -> list:
    rng = np.random.default_rng([seed, 2])
    w = _Writer(outdir)
    e2 = _steady_env(w, rng, "e2", 2)
    e3 = _steady_env(w, rng, "e3", 3)
    u38 = w.envelope("u38", _near(rng, np.random.default_rng([BASE, 3]).normal(size=(3, 8))),
                     lam=np.ones(8))
    u410 = w.envelope("u410", _near(rng, np.random.default_rng([BASE, 4]).normal(size=(4, 10))),
                      lam=np.ones(10))
    beta2, beta3 = np.array(e2["beta"]), np.array(e3["beta"])
    # estimator-coordinate thresholds on the orthant's own side
    z2 = np.array([rng.uniform(0.1, 0.2), -rng.uniform(0.1, 0.2)])
    # cdf points: error coordinates measured from the atom at -beta; a
    # coordinate below its atom drops the D0 and D+ parts of the sum, which
    # fixes the number of quadratures per call
    c2 = -beta2 + rng.uniform(0.2, 0.3, 2)
    c3 = -beta3 + rng.uniform(0.2, 0.3, 3) * np.array([1.0, -1.0, -1.0])
    inp = lambda env: ["--input", env["path"]]
    calls = [
        Call("orthant-prob.p2.mixed", ["orthant-prob", *inp(e2), "--signs", "1,-1", "--z", _csv(z2)],
             checks.orthant(e2, (1, -1), z2), e2),
        Call("orthant-prob.p2.d0", ["orthant-prob", *inp(e2), "--signs", "0,1"],
             checks.orthant(e2, (0, 1), np.zeros(2)), e2),
        Call("orthant-prob.p3.mixed", ["orthant-prob", *inp(e3), "--signs", "1,0,-1"],
             checks.orthant(e3, (1, 0, -1), np.zeros(3)), e3),
        Call("orthant-prob.p3.d0", ["orthant-prob", *inp(e3), "--signs", "0,0,0"],
             checks.orthant(e3, (0, 0, 0), np.zeros(3)), e3),
        Call("cdf.p2", ["cdf", *inp(e2), "--z", _csv(c2)], checks.cdf(e2, c2), e2),
        Call("cdf.p3", ["cdf", *inp(e3), "--z", _csv(c3)], checks.cdf(e3, c3), e3),
        Call("density-grid.p2", ["density-grid", *inp(e2), "--grid", "-1:1:5"],
             checks.density_grid(e2, np.linspace(-1.0, 1.0, 5)), e2),
        Call("check-unique.n3p8", ["check-unique", *inp(u38)], checks.check_unique(u38), u38),
        Call("check-unique.n4p10", ["check-unique", *inp(u410)], checks.check_unique(u410), u410),
    ]
    return [calls] * cycles


def sampling(seed: int, outdir: Path, cycles: int) -> list:
    rng = np.random.default_rng([seed, 3])
    w = _Writer(outdir)
    Xc = _near(rng, _correlated_design(np.random.default_rng([BASE, 2]), 50, 30, 0.9))
    Xc *= np.sqrt(50) / np.linalg.norm(Xc, axis=0)
    beta_c = np.zeros(30)
    beta_c[[1, 7, 12, 20, 27]] = _near(rng, np.array([1.2, -0.8, 1.0, -1.4, 0.6]))
    corr = w.envelope("corr50x30", Xc, lam=np.full(30, 3.0), beta=beta_c)
    wide = w.envelope("wide5x8", _near(rng, np.random.default_rng([BASE, 0]).normal(size=(5, 8))),
                      lam=np.ones(8),
                      beta=_near(rng, np.random.default_rng([BASE, 1]).uniform(-0.5, 0.5, 8)))
    m2 = _steady_env(w, rng, "m2", 2)
    m3 = _steady_env(w, rng, "m3", 3)
    inp = lambda env: ["--input", env["path"]]
    mc = lambda k: ["--method", "mc", "--samples", "100000", "--seed", str(k)]
    # oracle values do not depend on the Monte-Carlo seed: one check per call
    zero2, zero3 = checks.prob_zero(m2), checks.prob_zero(m3)
    orth2 = checks.orthant(m2, (1, -1), np.zeros(2))
    orth3 = checks.orthant(m3, (1, 0, -1), np.zeros(3))
    return [[
        Call("simulate.corr50x30", ["simulate", *inp(corr), "--reps", "1024", "--seed", str(k[0])],
             checks.simulate(corr, 1024, k[0]), corr),
        Call("simulate.wide5x8", ["simulate", *inp(wide), "--reps", "2048", "--seed", str(k[1])],
             checks.simulate(wide, 2048, k[1]), wide),
        Call("prob-zero.mc.p2", ["prob-zero", *inp(m2), *mc(k[2])], zero2, m2),
        Call("prob-zero.mc.p3", ["prob-zero", *inp(m3), *mc(k[3])], zero3, m3),
        Call("orthant-prob.mc.p2", ["orthant-prob", *inp(m2), "--signs", "1,-1", *mc(k[4])], orth2, m2),
        Call("orthant-prob.mc.p3", ["orthant-prob", *inp(m3), "--signs", "1,0,-1", *mc(k[5])],
             orth3, m3),
    ] for k in _cycle_seeds(seed, cycles, 6)]


CALL_LISTS = {"cli-light": cli_light, "exact": exact, "sampling": sampling}


def build(workload: str, seed: int, outdir: Path, cycles: int) -> list:
    """The call list of each cycle. Designs are the same in every cycle;
    Monte-Carlo seeds differ from cycle to cycle."""
    return CALL_LISTS[workload](seed, outdir, cycles)
