"""Monte-Carlo oracle: event probabilities, empirical distributions and comparison reports.

Replicates are drawn in fixed-size chunks whose RNG streams are keyed by
(seed, chunk index), so a summary depends only on (seed, n_rep) and never on
how the chunks would be scheduled across workers. They are solved and
counted in blocks of up to _BLOCK_CHUNKS consecutive chunks. The solver
treats rows independently, so a block gives each row what its chunk alone
would, bit for bit where BLAS sums a row in the same order in both batches.
An event that can read some rows' verdicts off C = Y X (region_orthant, see
its decide) sorts each block first, and only its undecided rows are solved;
its counts are those of solving every row. Sign patterns, supports and the
event predicates read a solution's signs by the solver's one zero rule: b_j
is zero only when it is exactly 0.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress, islice

import numpy as np

from .errors import ConvergenceError, InputError
from .model import DEFAULT_TOL, DesignProblem, GaussianModel, RegionProbability
from .model import SignVector, TuningVector, _as_int, _as_signs, _as_vector, _check_dims
from .model import _check_seed, _check_side, _check_tol, _plain, _record
from .rng import gaussian_chunks
from .solver import kernel_sign_cone_nonempty, solve_many
from .solver import _EPS, _check_inputs, _passes, _uniqueness_classes

# RNG chunks per solve_many call. Two cut a 100k-replicate p = 3 solve by
# about 16%; blocks of four chunks or more raise such a call's peak RSS
# above that of a 1024-replicate (50, 30) simulate.
_BLOCK_CHUNKS = 2
# a sign pattern's code holds s_j + 1 in byte j; this table turns it into s_j as int8
_SIGN_OF_CODE = bytes.maketrans(b"\x00\x01\x02", b"\xff\x00\x01")
# each coordinate's ECDF grid: ECDF_POINTS points spanning ECDF_SPAN standard
# deviations of the least-squares coordinate on either side of beta_j
ECDF_POINTS = 21
ECDF_SPAN = 4.0


@_record(eq=True)
class SimulationConfig:
    """The replicate count, the seed of the RNG streams and the solver's
    tolerance of one run_simulation call.

    zero_tol is a class constant, not a field, and 0.0: run_simulation reads
    a replicate's coefficient as zero only when it is exactly 0.
    """

    n_rep: int = 100_000
    seed: int = 0
    solver_tol: float = DEFAULT_TOL
    zero_tol = 0.0

    def __post_init__(self):
        # counts are kept as int, so n_rep=2.0 reports 2
        state = self.__dict__
        state["n_rep"] = _as_int(self.n_rep, 1, "n_rep must be a positive integer")
        state["seed"] = _check_seed(self.seed)
        _check_tol(self.solver_tol, "tolerances")


@_record
class EmpiricalSummary:
    """Counters over n_rep solved replicates.

    ecdf_grid is axis-major: ecdf_grid[j] is a tuple of (z, Fhat_j(z)) pairs
    for the estimator coordinate b_j on a grid centered at beta_j.
    convergence_failures is always 0, since run_simulation raises at the
    first unconverged replicate; the field stays for readers of the record
    and of the CLI's JSON output.
    """

    n_rep: int
    seed: int
    sign_pattern_freq: dict = {}  # each record gets its own copy
    support_freq: dict = {}
    ecdf_grid: tuple = ()
    nonunique_count: int = 0
    convergence_failures: int = 0


def _ecdf_axes(problem: DesignProblem, model: GaussianModel):
    pinv_diag = np.diag(np.linalg.pinv(problem.gram))
    grids = []
    for j in range(problem.p):
        sd = model.sigma * math.sqrt(max(float(pinv_diag[j]), 0.0))
        if sd < 1e-12:
            sd = model.sigma  # coordinate invisible to the design; arbitrary plot scale
        grids.append(np.linspace(
            model.beta[j] - ECDF_SPAN * sd,
            model.beta[j] + ECDF_SPAN * sd,
            ECDF_POINTS,
        ))
    return grids


def _solve_replicates(problem, model, tuning, n_rep, seed, solver_tol, consume, sort=None):
    """Solve n_rep replicates y = mu + sigma*z block by block; pass each (Y, B) to consume.

    A block joins up to _BLOCK_CHUNKS consecutive RNG chunks; a lone chunk
    is used as drawn. sort, if given, maps a block's C = Y X to the mask of
    the rows to solve, and only those rows reach solve_many and consume;
    solve_many's rule on the responses' magnitude still covers every row.
    Raises ConvergenceError, naming the block's replicate range, at the
    first block that holds a solved replicate whose solution fails the
    solver's acceptance rule at solver_tol, so no unconverged replicate is
    ever counted.
    """
    chunks = gaussian_chunks(seed, n_rep, problem.n)
    for first in chunks:
        block = [first, *islice(chunks, _BLOCK_CHUNKS - 1)]
        start, count = first[0], sum(c for _, c, _ in block)
        # the draws are fresh, so they are scaled and shifted in place; only Y
        # and B of this block stay alive while it is solved and counted
        Y = first[2] if len(block) == 1 else np.concatenate([z for _, _, z in block])
        del first, block
        Y *= model.sigma
        Y += model.mu
        if sort is not None:
            Y = Y[sort(_check_inputs(problem, Y, tuning, solver_tol) @ problem.X)]
        B, resids = solve_many(problem, Y, tuning, tol=solver_tol)
        i = np.flatnonzero(resids > solver_tol)  # these may still pass within rounding
        fails = np.count_nonzero(~_passes(resids[i], Y[i] @ problem.X, B[i], problem.gram,
                                          tuning.lam, solver_tol))
        if fails:
            raise ConvergenceError(
                f"Monte Carlo replicates {start}..{start + count - 1}: {fails} missed "
                f"solver_tol={solver_tol:g}"
            )
        consume(Y, B)
        del Y, B, resids


def _binomial_probability(hits, n_samples, seed) -> RegionProbability:
    """A Monte Carlo frequency with its binomial standard error."""
    ph = hits / n_samples
    return RegionProbability(
        estimate=float(ph),
        std_error=float(math.sqrt(ph * (1.0 - ph) / n_samples)),
        method="monte-carlo",
        n_samples=int(n_samples),
        seed=int(seed),
        quad_tol=0.0,
    )


def region_support_includes(j: int):
    """Predicate factory: solutions whose coordinate j (an integer >= 0) is
    not exactly 0."""
    j = _as_int(j, 0, f"column index must be a nonnegative integer, got {_plain(j)!r}")

    def region(B):
        return B[:, j] != 0

    return region


def region_below(z):
    """Predicate factory: solutions componentwise <= z (estimator coordinates)."""
    z = _as_vector(z, None, "z", allow_inf=True)

    def region(B):
        if B.shape[1] != z.size:
            raise ValueError(f"{z.size} bounds for {B.shape[1]} columns")
        return np.all(B <= z, axis=1)

    return region


def region_orthant(d, z=None):
    """Predicate factory: distribution.estimator_orthant_event(model, z, d) at
    estimator thresholds z (default 0; on d's side of 0, and 0 on D0): the
    sign of b_j is d_j (b_j exactly 0 on D0), and b_j >= z_j on D+, b_j <= z_j
    on D-. With every sign 0 it is {bhat = 0}.

    The predicate carries decide(problem, tuning, tol) for prob_region_high:
    with every sign 0 at any rank, and with any signs when X has full column
    rank, it returns _orthant_sorter's function, which reads most rows'
    verdicts off C = Y X; otherwise None, and every row is solved. It is
    used only on this predicate itself (decide_for), not on a wrapper that
    copied its attributes."""
    d = _as_signs(d)
    signs, zero = d.as_array(), np.zeros(d.p)
    z = zero if z is None else _as_vector(z, d.p, "z")
    _check_side(signs, z, zero)
    edge = signs * z

    def region(B):
        if B.shape[1] != signs.size:
            raise ValueError(f"{signs.size} signs for {B.shape[1]} columns")
        return np.all((np.sign(B) == signs) & (signs * B >= edge), axis=1)

    region.decide = lambda problem, tuning, tol: _orthant_sorter(
        problem, tuning, tol, signs, edge)
    region.decide_for = region
    return region


def _orthant_sorter(problem, tuning, tol, signs, edge):
    """A function of a block's C = Y X that returns the masks (hit, undecided)
    of the orthant event with signs s on A = supp(signs), thresholds z and
    edge = s z, whose floors there are max(0, s_j z_j); None if A is not
    empty and X is not of full column rank.

    For a row c of C, the candidate x_A = G_AA^-1 (c_A - s lam_A) and the
    off-A correlations r_j = c_j - G_jA x_A (G = X'X; with A empty x_A is
    empty and r = c) are the Lasso solution's values when the solution has
    signs s on A and zeros off A. The solver returns a B whose KKT entries
    at c are within tol of the conditions, up to rounding, so B is the exact
    solution at some c - e' with every |e'_j| <= e = tol + u. Here
    u = 16 (p + 2)^2 eps kappa S bounds the rounding of the acceptance rule
    and of the candidate: S = max|c| + max lam + sqrt(p) ||G|| max|x_A| over
    the block, and kappa = ||G|| ||G^-1||, 1 with A empty. In 2-norms the
    margins are

        delta = sqrt(p) ||G^-1|| e   (0 with A empty),
        h = e + ||G|| delta.

    In full rank c -> b is ||G^-1||-Lipschitz, so B lies within delta of x
    (x_A on A, 0 off it) when the candidate is the solution at c. A B in the
    event has B_O exactly 0, and so B_A = x_A - G_AA^-1 e'_A, again within
    delta of x_A. Either way each off-A correlation of B is within
    ||G|| delta of r_j, and the solver leaves b_j exactly 0 where its
    correlation is below lam_j - e. So B is in the event (hit) when
    s_j x_j - floor_j > delta on A and |r_j| - lam_j < -h off A, and outside
    it (miss) when some s_j x_j - floor_j < -delta or some |r_j| - lam_j > h.
    The floor's 0 keeps s_j b_j > 0 on a hit where z_j lies on the wrong
    side of 0 within _check_side's tolerance. With A empty, at any rank, a
    row with max_j(|c_j| - lam_j) <= 0 is a hit, since coordinate descent
    then returns exact zeros, and one with max_j(|c_j| - lam_j) > h is a
    miss. Other rows are undecided. A wider margin only leaves more rows to
    the solver.
    """
    G, lam, p = problem.gram, tuning.lam, problem.p
    A, O = np.flatnonzero(signs), np.flatnonzero(signs == 0)
    mu = np.linalg.eigvalsh(G)  # ascending: ||G^-1|| = 1 / mu[0], ||G|| = mu[-1]
    if A.size and not (problem.rank_x == p and mu[0] > 0.0):
        return None
    root, s = math.sqrt(p), signs[A]
    kappa = mu[-1] / mu[0] if A.size else 1.0
    G_AA, G_AO, lam_A = G[np.ix_(A, A)], G[np.ix_(A, O)], s * lam[A]
    floor = np.maximum(0.0, edge[A])

    def sort(C):
        # a non-finite margin compares False both ways, which leaves its rows undecided
        with np.errstate(all="ignore"):
            x = np.linalg.solve(G_AA, (C[:, A] - lam_A).T).T if A.size else C[:, A]
            slack = (np.abs(C[:, O] - x @ G_AO) - lam[O]).max(axis=1, initial=-np.inf)
            scale = np.abs(C).max() + lam.max() + root * mu[-1] * np.abs(x).max(initial=0.0)
            e = tol + 16 * (p + 2) ** 2 * _EPS * kappa * scale
            delta = root * e / mu[0] if A.size else 0.0
            h = e + mu[-1] * delta
            if A.size:
                margin = (s * x - floor).min(axis=1)
                hit, miss = (margin > delta) & (slack < -h), (margin < -delta) | (slack > h)
            else:
                hit, miss = slack <= 0.0, slack > h
        return hit, ~(hit | miss)

    return sort


def prob_region_high(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    region,
    *,
    n_samples: int = 100_000,
    seed: int = 0,
    solver_tol: float = DEFAULT_TOL,
) -> RegionProbability:
    """P(bhat in B) for an arbitrary vectorized solution predicate, any rank.

    region maps an (m, p) block of solutions to m truth values; it is tried
    on one row of zeros before any replicate is solved. Monte Carlo over the
    solver, and the one Monte-Carlo path of the events distribution computes
    (region_orthant, region_below). A region_orthant event reads most rows'
    verdicts off C = Y X (see region_orthant) and solves only the rows it
    cannot decide; the count is that of solving every row. The estimate
    depends on the model only through mu = X beta, so fiber-equivalent
    parameter vectors give bit-identical results at the same seed.
    """
    _check_dims(problem, tuning, model)
    try:
        shape = np.shape(region(np.zeros((1, problem.p))))
    except (IndexError, TypeError, ValueError) as exc:
        raise InputError(f"region predicate fails on a (1, {problem.p}) block: {exc}") from exc
    if shape != (1,):
        raise InputError(f"region predicate must map a (1, p) block to shape (1,), got {shape}")
    n_samples = _as_int(n_samples, 1, "n_samples must be a positive integer")
    hits = []
    # functools.wraps copies decide to a wrapper, whose event it is not
    decide = getattr(region, "decide_for", None) is region and region.decide
    decide = decide and decide(problem, tuning, solver_tol)  # None: every row is solved

    def sort(C):
        hit, undecided = decide(C)
        hits.append(int(np.count_nonzero(hit)))
        return undecided

    # the callback counts a block before the next is drawn, so no block outlives it
    _solve_replicates(problem, model, tuning, n_samples, seed, solver_tol,
                      lambda Y, B: hits.append(int(np.count_nonzero(region(B)))),
                      sort if decide else None)
    return _binomial_probability(sum(hits), n_samples, seed)


def run_simulation(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    config: SimulationConfig,
) -> EmpiricalSummary:
    """Sample y = mu + sigma*eps, solve each replicate, count what happened.

    Per replicate: the sign pattern of b (b_j is 0 only when exactly 0), its
    support, whether the solution set at that y is a single point, and its
    counts on each coordinate's ECDF grid (ECDF_POINTS, ECDF_SPAN). Fails with
    ConvergenceError as soon as one replicate misses solver_tol, so
    convergence_failures is always 0.
    """
    _check_dims(problem, tuning, model)
    sign_counts: Counter = Counter()
    grids = _ecdf_axes(problem, model)
    ecdf_hits = [np.zeros(ECDF_POINTS, dtype=np.int64) for _ in range(problem.p)]
    nonunique = 0
    always_unique = problem.rank_x == problem.p
    cone_cache: dict = {}

    def count(Y, B):
        nonlocal nonunique
        # byte s_j + 1 per coordinate, so byte order is the order of the signs
        codes = np.sign(B).astype(np.int8).view(np.uint8)
        codes += 1
        patterns, counts = _distinct_rows(codes)
        for code, cnt in zip(patterns.tolist(), counts.tolist()):
            sign_counts[tuple(memoryview(code.translate(_SIGN_OF_CODE)).cast("b"))] += cnt

        for j in range(problem.p):
            ecdf_hits[j] += np.count_nonzero(B[:, j][:, None] <= grids[j][None, :], axis=0)

        if not always_unique:
            nonunique += _count_nonunique(problem, tuning, config, Y, B, cone_cache)

    _solve_replicates(problem, model, tuning, config.n_rep, config.seed, config.solver_tol, count)
    # keys in the order the patterns were first seen, so each support also
    # enters support_freq where its first pattern was seen
    sign_freq, support_freq = {}, {}
    for d, cnt in sign_counts.items():
        sign_freq[SignVector(d=d)] = cnt
        support = tuple(compress(range(len(d)), d))
        support_freq[support] = support_freq.get(support, 0) + cnt
    ecdf_grid = tuple(
        tuple((float(z), int(h) / config.n_rep) for z, h in zip(grids[j], ecdf_hits[j]))
        for j in range(problem.p)
    )
    return EmpiricalSummary(
        n_rep=config.n_rep,
        seed=config.seed,
        sign_pattern_freq=sign_freq,
        support_freq=support_freq,
        ecdf_grid=ecdf_grid,
        nonunique_count=nonunique,
    )


def _count_nonunique(problem, tuning, config, Y, B, cache):
    """Uniqueness-at-y test for a whole block, one cone test per distinct class row.

    The verdict depends on y only through the classes of
    solver._uniqueness_classes, so rows sharing them share the answer.
    """
    G = Y @ problem.X - B @ problem.gram
    classes = _uniqueness_classes(G, B, tuning.lam, config.solver_tol)
    patterns, counts = _distinct_rows(classes)
    total = 0
    for key, cnt in zip(patterns.tolist(), counts.tolist()):
        verdict = cache.get(key)
        if verdict is None:
            row = np.frombuffer(key, dtype=np.int8)
            verdict = kernel_sign_cone_nonempty(problem, row)
            cache[key] = verdict
        if verdict:
            total += cnt
    return total


def _distinct_rows(codes):
    """The distinct rows of a C-contiguous (m, p) array of bytes, as bytes in
    byte order, and how often each occurs. Sorts codes in place.

    Each row is one np.void of p bytes, so the rows sort and compare without
    the copies that np.unique(axis=0) makes, and without numpy.ma, which
    np.unique loads.
    """
    rows = codes.view(np.dtype((np.void, codes.shape[1]))).ravel()
    rows.sort()
    first = np.empty(rows.size, dtype=bool)
    first[0] = True
    first[1:] = rows[1:] != rows[:-1]
    starts = np.flatnonzero(first)
    return rows[starts], np.diff(starts, append=rows.size)


def estimate_nonuniqueness_probability(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    config: SimulationConfig,
) -> RegionProbability:
    """Fraction of replicates whose solution set is not a single point."""
    summary = run_simulation(problem, model, tuning, config)
    return _binomial_probability(summary.nonunique_count, config.n_rep, config.seed)


@_record
class ComparisonReport:
    analytic: RegionProbability
    empirical: RegionProbability
    discrepancy: float
    tolerance: float
    passed: bool


def compare_analytic_empirical(
    analytic: RegionProbability, empirical: RegionProbability
) -> ComparisonReport:
    """Check two estimates of one event against their combined uncertainty.

    Tolerance is 3*sqrt(se1^2 + se2^2) plus both quadrature error bounds, so
    a pair of exact quadrature results must agree to quad_tol and a pair of
    MC results to 3 combined standard errors.
    """
    disc = abs(analytic.estimate - empirical.estimate)
    tol = (
        3.0 * math.sqrt(analytic.std_error**2 + empirical.std_error**2)
        + analytic.quad_tol
        + empirical.quad_tol
    )
    return ComparisonReport(
        analytic=analytic,
        empirical=empirical,
        discrepancy=float(disc),
        tolerance=float(tol),
        passed=bool(disc <= tol),
    )
