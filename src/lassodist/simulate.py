"""Monte-Carlo oracle: empirical distributions of the Lasso and comparison reports.

Replicates are drawn in fixed-size chunks whose RNG streams are keyed by
(seed, chunk index), so a summary depends only on (seed, n_rep) and never on
how the chunks would be scheduled across workers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, InputError
from .model import DEFAULT_TOL, ZERO_TOL, DesignProblem, GaussianModel, SignVector, TuningVector
from .model import _check_dims, _check_seed, _check_tol
from .rng import gaussian_chunks
from .solver import kernel_sign_cone_nonempty, solve_many
from .solver import _cone_arguments, _uniqueness_classes

if TYPE_CHECKING:
    from .distribution import RegionProbability


@dataclass(frozen=True)
class SimulationConfig:
    n_rep: int = 100_000
    seed: int = 0
    zero_tol: float = ZERO_TOL
    solver_tol: float = DEFAULT_TOL
    ecdf_points: int = 21
    ecdf_span: float = 4.0

    def __post_init__(self):
        if int(self.n_rep) != self.n_rep or self.n_rep < 1:
            raise InputError("n_rep must be a positive integer")
        _check_seed(self.seed)
        _check_tol(self.zero_tol, "tolerances")
        _check_tol(self.solver_tol, "tolerances")
        if self.ecdf_points < 2 or not (self.ecdf_span > 0 and math.isfinite(self.ecdf_span)):
            raise InputError("ecdf grid needs >= 2 points and a finite positive span")


@dataclass(frozen=True, eq=False)
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
    sign_pattern_freq: dict = field(default_factory=dict)
    support_freq: dict = field(default_factory=dict)
    ecdf_grid: tuple = ()
    nonunique_count: int = 0
    convergence_failures: int = 0


def _ecdf_axes(problem: DesignProblem, model: GaussianModel, config: SimulationConfig):
    pinv_diag = np.diag(np.linalg.pinv(problem.gram))
    grids = []
    for j in range(problem.p):
        sd = model.sigma * math.sqrt(max(float(pinv_diag[j]), 0.0))
        if sd < 1e-12:
            sd = model.sigma  # coordinate invisible to the design; arbitrary plot scale
        grids.append(np.linspace(
            model.beta[j] - config.ecdf_span * sd,
            model.beta[j] + config.ecdf_span * sd,
            config.ecdf_points,
        ))
    return grids


def _solve_replicates(problem, model, tuning, n_rep, seed, solver_tol, consume):
    """Solve n_rep replicates y = mu + sigma*z chunk by chunk; pass each (Y, B) to consume.

    Raises ConvergenceError at the first chunk that holds a replicate whose
    solution misses solver_tol, so no unconverged replicate is ever counted.
    """
    for start, count, Z in gaussian_chunks(seed, n_rep, problem.n):
        Y = model.mu + model.sigma * Z
        B, resids = solve_many(problem, Y, tuning, tol=solver_tol)
        fails = int(np.count_nonzero(resids > solver_tol))
        if fails:
            raise ConvergenceError(
                f"Monte Carlo replicates {start}..{start + count - 1}: {fails} missed "
                f"solver_tol={solver_tol:g}"
            )
        consume(Y, B)


def run_simulation(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    config: SimulationConfig,
) -> EmpiricalSummary:
    """Sample y = mu + sigma*eps, solve each replicate, count what happened.

    Per replicate: the sign pattern of b at zero_tol, its support, whether the
    solution set at that y is a single point, and per-axis ECDF counts. Fails
    with ConvergenceError as soon as one replicate misses solver_tol, so
    convergence_failures is always 0.
    """
    _check_dims(problem, tuning, model)
    sign_counts: Counter = Counter()
    support_counts: Counter = Counter()
    grids = _ecdf_axes(problem, model, config)
    ecdf_hits = [np.zeros(config.ecdf_points, dtype=np.int64) for _ in range(problem.p)]
    nonunique = 0
    always_unique = problem.rank_x == problem.p
    cone_cache: dict = {}

    def count(Y, B):
        nonlocal nonunique
        s_class = np.where(B > config.zero_tol, 1, np.where(B < -config.zero_tol, -1, 0))
        patterns, counts = np.unique(s_class, axis=0, return_counts=True)
        for row, cnt in zip(patterns, counts):
            key = SignVector(d=tuple(int(v) for v in row))
            sign_counts[key] += int(cnt)
            support_counts[tuple(int(j) for j in np.flatnonzero(row))] += int(cnt)

        for j in range(problem.p):
            ecdf_hits[j] += np.count_nonzero(B[:, j][:, None] <= grids[j][None, :], axis=0)

        if not always_unique:
            nonunique += _count_nonunique(problem, tuning, config, Y, B, cone_cache)

    _solve_replicates(problem, model, tuning, config.n_rep, config.seed, config.solver_tol, count)
    ecdf_grid = tuple(
        tuple((float(z), int(h) / config.n_rep) for z, h in zip(grids[j], ecdf_hits[j]))
        for j in range(problem.p)
    )
    return EmpiricalSummary(
        n_rep=config.n_rep,
        seed=config.seed,
        sign_pattern_freq=dict(sign_counts),
        support_freq=dict(support_counts),
        ecdf_grid=ecdf_grid,
        nonunique_count=nonunique,
    )


def _count_nonunique(problem, tuning, config, Y, B, cache):
    """Uniqueness-at-y test for a whole chunk, one cone test per distinct class row.

    The verdict depends on y only through the classes of
    solver._uniqueness_classes, so rows sharing them share the answer.
    """
    G = Y @ problem.X - B @ problem.gram
    classes = _uniqueness_classes(G, B, tuning.lam, config.solver_tol, config.zero_tol)
    patterns, counts = np.unique(classes, axis=0, return_counts=True)
    total = 0
    for row, cnt in zip(patterns, counts):
        key = row.tobytes()
        verdict = cache.get(key)
        if verdict is None:
            verdict = kernel_sign_cone_nonempty(problem, *_cone_arguments(row))
            cache[key] = verdict
        if verdict:
            total += int(cnt)
    return total


def estimate_nonuniqueness_probability(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    config: SimulationConfig,
) -> RegionProbability:
    """Fraction of replicates whose solution set is not a single point."""
    from .distribution import _binomial_probability  # other calls never compile it

    summary = run_simulation(problem, model, tuning, config)
    return _binomial_probability(summary.nonunique_count, config.n_rep, config.seed)


@dataclass(frozen=True, eq=False)
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
