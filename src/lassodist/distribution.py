"""Exact finite-sample distribution of the weighted Lasso under Gaussian noise.

Everything here works in the estimation-error coordinates u = bhat - beta.
With G = X'X, the first-order conditions read X'eps = G u + s, where
X'eps ~ N(0, sigma^2 G), s_j = lam_j sgn(bhat_j) on the moving set
A = D- union D+, and s_j in [-lam_j, lam_j] on D0, where u_j = -beta_j (an
atom direction). For one sign pattern d they give two independent Gaussian
blocks: u_A = G_AA^{-1} ((X'eps)_A + G_A0 beta_0 - d_A lam_A), with
covariance sigma^2 G_AA^{-1}, and s_0 = (X'eps)_0 - G_0A u_A + G_00 beta_0,
with the Schur complement sigma^2 (G_00 - G_0A G_AA^{-1} G_A0). So every
orthant event and every CDF term is a product of two Gaussian rectangle
probabilities, and given the pattern, u_A is its Gaussian block restricted
to the orthant. Rectangles of one factor column or two coordinates have
closed forms (the normal CDF from math.erf/erfc; the bivariate normal by
Genz's BVND, after Drezner & Wesolowsky 1990); larger ones use Genz's
separation-of-variables transform on a randomly shifted Korobov lattice
(Genz 1992; Genz & Bretz 2009, ch. 4), whose shift-to-shift spread gives a
standard error. Results report seven standard errors, combined over
independent blocks as a root sum of squares, plus the kernels' rounding
terms. These paths need full column rank, except P(bhat = 0): in the
reduced-rank representation X'y is a Gaussian of rank rk(X), and the
rectangle kernel takes a factor of any rank (after Genz & Kwong 2000).

Imports: every result here is analytic, and the module needs numpy alone.
It imports nothing of `simulate`, whose `prob_region_high` with an event's
predicate (`region_orthant`, `region_below`) is the Monte-Carlo estimate,
nor the solver or `rng`, and no call loads scipy or numpy.random. The Genz
kernel (`_genz`: the Korobov lattice, its shifts from the standard
library's `random`, and numpy ports of Phi and Phi^-1) loads on the first
QMC block, so closed-form calls never compile it.

Event-threshold convention: a threshold z_j = -beta_j on a D+- coordinate is
accepted and yields the open event {bhat_j < 0} (resp. > 0); thresholds
strictly on the wrong side of -beta_j are rejected. Under this convention the
3^p orthant events at z = -beta partition R^p, so their probabilities sum
to one.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from . import _lazy
from .errors import ConditioningError, DimensionLimitError, InputError, NumericalError
from .model import DesignProblem, GaussianModel, RegionProbability, SignVector, TuningVector
from .model import _as_int, _as_signs, _as_vector, _check_dims, _check_seed, _check_tol
from .model import _EVENT_SIDE_TOL, _check_quad_tol, _check_side, _plain, _record

# uncalled here, but read as attributes of this module: perfbench/tracing.py
# wraps both and perfbench/worker.py calls solve_many. They load on first use
__getattr__ = _lazy(globals(), {"solve_many": "solver", "gaussian_chunks": "rng"})


QUAD_DIM_LIMIT = 6
CDF_P_LIMIT = 4
# QMC points of one Genz estimate: rectangles of three or more coordinates.
# Blocks whose caller states a quad_tol run first as a pilot of 8 shifts of
# 512 points, 1/16 of the points on a 1/16 working set, and rerun at
# _GENZ_POINTS only while the pilot's error bound exceeds _PILOT_SHARE of
# quad_tol (Genz & Bretz 2009, ch. 4). The share leaves half the tolerance to
# a standard error estimated low: 8 shift means give one below half its true
# value in about 3% of blocks (chi-square with 7 degrees of freedom below 7/4)
_GENZ_POINTS = 2**16
_PILOT_POINTS = 2**12
_PILOT_SHARE = 0.5
# rounding bound reported by every rectangle kernel
_EXACT_TOL = 1e-14
# standard errors in a reported QMC error bound. A standard error estimated
# from 8 shift means is Student-t distributed at best, so 3 of them hold the
# true error in at most 98% of cases, and lattice shift means are also skewed:
# on 4200 seeded rectangles of 3-6 coordinates, 3 standard errors held it in
# 96-97% of them, 7 in 99.7-99.9%
_BOUND_SE = 7.0
# _factor drops a pivot whose remaining variance cov_ii - sum_k L_ik^2 is at
# most m _PIVOT_RTOL cov_ii, the rounding of that m-term sum (Higham 2002, sec.
# 3.1); errors carried from ill-conditioned earlier pivots can exceed it. A true
# pivot that small moves a box probability by O(m eps), inside _EXACT_TOL
_PIVOT_RTOL = float(np.finfo(float).eps)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
# 20-point Gauss-Legendre rule on [0, 2]: nodes 1 -+ x_i, weights w_i (Genz's BVND table)
_GAUSS_LEGENDRE = tuple((1.0 + side * x, w) for x, w in (
    (0.9931285991850949, 0.01761400713915212), (0.9639719272779138, 0.04060142980038694),
    (0.9122344282513259, 0.06267204833410906), (0.8391169718222188, 0.08327674157670475),
    (0.7463319064601508, 0.1019301198172404), (0.6360536807265150, 0.1181945319615184),
    (0.5108670019508271, 0.1316886384491766), (0.3737060887154196, 0.1420961093183821),
    (0.2277858511416451, 0.1491729864726037), (0.07652652113349733, 0.1527533871307259),
) for side in (-1.0, 1.0))


@_record
class OrthantEvent:
    """Thresholds z (error coordinates) with the orthant signs d.

    The event reads: u_j <= z_j and bhat_j < 0 on D-, u_j >= z_j and
    bhat_j > 0 on D+, bhat_j = 0 on D0 (which requires z_j = -beta_j).
    """

    z: np.ndarray
    d: SignVector


def error_orthant_event(z, d) -> OrthantEvent:
    d = _as_signs(d)
    return OrthantEvent(z=_as_vector(z, d.p, "z"), d=d)


def estimator_orthant_event(model: GaussianModel, z, d=None) -> OrthantEvent:
    """Build the event {bhat_j <= z_j (D-), >= z_j (D+), = 0 (D0)}.

    z is in estimator coordinates; d defaults to sgn(z) with exact zeros
    mapped to D0. Internally the event is stored in error coordinates
    (z - beta on D+-, -beta on D0).
    """
    z = _as_vector(z, model.beta.shape[0], "z")
    event = error_orthant_event(z - model.beta, np.sign(z) if d is None else d)
    for j in event.d.d_zero:
        if abs(z[j]) > _EVENT_SIDE_TOL:
            raise InputError(f"D0 coordinate {j} needs threshold 0, got {float(z[j])!r}")
        event.z[j] = -model.beta[j]
    return event


def _gaussian_pdf(cov, x):
    """Density of N(0, cov) at x."""
    chol = np.linalg.cholesky(cov)
    log_norm = -cov.shape[0] * _LOG_SQRT_2PI - float(np.sum(np.log(np.diag(chol))))
    w = np.linalg.solve(chol, x)
    return math.exp(log_norm - 0.5 * float(w @ w))


def _pattern(problem, model, tuning, signs, lower, upper, seed, points):
    """One sign pattern's Gaussian blocks and their rectangle probabilities:
    (A, mean of u_A, cov of u_A, block_a, block_0), where block_a and block_0
    are the rectangle-kernel results (estimate, standard error, rounding
    bound, QMC points) of P(lower_A <= u_A <= upper_A) and of P(s_0 in the
    lambda-box), a Genz block on `points` QMC points; bounds off A are not
    read. seed is (entropy, spawn_key); the two blocks take spawn keys
    key + (0,) and key + (1,)."""
    moving, zero = np.flatnonzero(signs != 0), np.flatnonzero(signs == 0)
    gram, beta, var, lam = problem.gram, model.beta, model.sigma**2, tuning.lam
    g_inv = np.linalg.inv(gram[np.ix_(moving, moving)])
    g_0a, g_00 = gram[np.ix_(zero, moving)], gram[np.ix_(zero, zero)]
    mean_a = g_inv @ (g_0a.T @ beta[zero] - signs[moving] * lam[moving])
    mean_0, cov_0 = g_00 @ beta[zero] - g_0a @ mean_a, var * (g_00 - g_0a @ g_inv @ g_0a.T)
    cov_a = var * g_inv
    entropy, key = seed
    block_a = _rectangle(
        _factor(cov_a), lower[moving] - mean_a, upper[moving] - mean_a, (entropy, key + (0,)),
        points,
    )
    lam_0 = lam[zero]
    if np.any(lam_0 == 0.0):  # an unpenalized coordinate carries no atom at zero
        return moving, mean_a, cov_a, block_a, (0.0, 0.0, 0.0, 0)
    block_0 = _rectangle(
        _factor(cov_0), -lam_0 - mean_0, lam_0 - mean_0, (entropy, key + (1,)), points
    )
    return moving, mean_a, cov_a, block_a, block_0


def _product(pattern):
    """(estimate, standard error, rounding bound, QMC points) of the product of
    a pattern's two independent block estimates; the standard error is first
    order."""
    (p_a, se_a, tol_a, pts_a), (p_0, se_0, tol_0, pts_0) = pattern[3:]
    return p_a * p_0, math.hypot(p_0 * se_a, p_a * se_0), tol_a + tol_0, pts_a + pts_0


def _bound(se, tol):
    """Reported error bound: _BOUND_SE standard errors plus the rounding terms."""
    return _BOUND_SE * se + tol


def _total(parts):
    """(sum, error bound of the sum) of independent results (estimate,
    standard error, rounding bound, QMC points), summed in order."""
    total, var, tol = 0.0, 0.0, 0.0
    for estimate, se, part_tol, _ in parts:
        total += estimate
        var += se * se
        tol += part_tol
    return total, _bound(math.sqrt(var), tol)


def _refine(run, n, result, quad_tol):
    """The patterns run(i, points), i < n, and their results result(pattern)
    (estimate, standard error, rounding bound, QMC points): each runs at
    _PILOT_POINTS, then those whose result has a Genz block rerun at
    _GENZ_POINTS, largest standard error first, while the bound of the
    results' sum exceeds _PILOT_SHARE quad_tol. At quad_tol = 0, which no
    Genz bound meets, each runs once at _GENZ_POINTS."""
    pilot = _PILOT_POINTS if quad_tol > 0.0 else _GENZ_POINTS
    patterns = [run(i, pilot) for i in range(n)]
    results = [result(pattern) for pattern in patterns]
    genz = [i for i, r in enumerate(results) if r[3]] if pilot < _GENZ_POINTS else []
    for i in sorted(genz, key=lambda i: -results[i][1]):
        if _total(results)[1] <= _PILOT_SHARE * quad_tol:
            break
        patterns[i] = run(i, _GENZ_POINTS)
        results[i] = result(patterns[i])
    return patterns, results


def _orthant(signs, thresholds):
    """Bounds of {u_j <= t_j on D-, u_j >= t_j on D+}; D0 coordinates are unbounded."""
    return np.where(signs > 0, thresholds, -np.inf), np.where(signs < 0, thresholds, np.inf)


def _quadrature(estimate, bound, points, seed, quad_tol=0.0) -> RegionProbability:
    """A rectangle-kernel result; only QMC results carry a point count and seed."""
    return RegionProbability(
        estimate=min(max(float(estimate), 0.0), 1.0),
        std_error=0.0,
        method="quadrature",
        n_samples=int(points),
        seed=int(seed) if points else None,
        quad_tol=max(quad_tol, bound),
    )


def _require_quad(problem, max_p=QUAD_DIM_LIMIT):
    """Full column rank and p <= max_p (None: any p), else an error naming the
    Monte-Carlo paths."""
    hint = "use simulate.prob_region_high (region_orthant, region_below) or run_simulation"
    if problem.rank_x < problem.p:
        raise InputError(
            f"quadrature needs full column rank (the Gaussian on X'y is singular); {hint}"
        )
    if max_p is not None and problem.p > max_p:
        raise DimensionLimitError(f"integration dimension {problem.p} exceeds {max_p}; {hint}")


def prob_orthant_event(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    event: OrthantEvent,
    *,
    seed: int = 0,
    quad_tol: float = 1e-5,
) -> RegionProbability:
    """P(u_j <= z_j on D-, u_j >= z_j on D+, bhat_j = 0 on D0).

    Reports the larger of quad_tol and the error bound (seven standard
    errors of the QMC blocks plus the kernels' rounding terms); seed seeds
    the random lattice shifts. Genz blocks run as a 4096-point pilot and
    rerun at 2^16 points when its bound exceeds half of quad_tol; n_samples
    reports the points of the returned estimate, so quad_tol = 0 gives the
    2^16-point result.
    """
    d = _as_signs(event.d)
    _check_dims(problem, tuning, model, d)
    signs, z = d.as_array(), _as_vector(event.z, d.p, "event thresholds")
    _check_side(signs, z, -model.beta)  # coordinate j's atom lies at -beta_j
    seed = _check_seed(seed)
    _check_quad_tol(quad_tol)  # 0 reports the kernels' own bound
    _require_quad(problem)
    bounds = _orthant(signs, z)
    _, [(estimate, se, tol, points)] = _refine(
        lambda _, points: _pattern(problem, model, tuning, signs, *bounds, (seed, ()), points),
        1, _product, quad_tol,
    )
    return _quadrature(estimate, _bound(se, tol), points, seed, quad_tol)


def prob_all_zero(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    *,
    seed: int = 0,
) -> RegionProbability:
    """P(bhat = 0) = P(X'y inside the lambda-box), at any rank of X.

    X'y ~ N(X'X beta, sigma^2 X'X) has rank rk(X): one rectangle (closed form
    for rk(X) = 1 or p = 2, else Genz's transform in rk(X) - 1 dimensions,
    whose lattice shifts seed seeds).
    """
    _check_dims(problem, tuning, model)
    seed = _check_seed(seed)
    mean = problem.gram @ model.beta
    estimate, se, tol, points = _rectangle(
        _factor(model.sigma**2 * problem.gram), -tuning.lam - mean, tuning.lam - mean, (seed, ())
    )
    return _quadrature(estimate, _bound(se, tol), points, seed)


def orthant_mass(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    d: SignVector,
    **kwargs,
) -> RegionProbability:
    """P(bhat in O^d): the orthant event with all thresholds at the boundary."""
    return prob_orthant_event(
        problem, model, tuning,
        OrthantEvent(z=-model.beta.copy(), d=_as_signs(d)),
        **kwargs,
    )


def conditional_density(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    d: SignVector,
    z_active,
    *,
    quad_tol: float = 1e-5,
) -> float:
    """Density of the error's D+- coordinates, conditional on bhat in O^d.

    z_active lists the error coordinates in the order of D- union D+
    (ascending index). Returns 0 outside the orthant indicator's support.
    It is phi_A(z_active) / P(u_A in the orthant). The pattern runs as a
    Genz pilot and again at 2^16 points when the QMC error bound of
    P(u_A in the orthant) exceeds half of quad_tol. Raises NumericalError
    when that bound still exceeds quad_tol.
    """
    d = _as_signs(d)
    _check_dims(problem, tuning, model, d)
    _check_tol(quad_tol, "quad_tol")
    _require_quad(problem)
    z_active = _as_vector(z_active, d.norm1, "z_active")
    signs = d.as_array()
    bounds = _orthant(signs, -model.beta)
    # the density divides by p_a alone, so block_a's bound decides a rerun
    [(moving, mean_a, cov_a, (p_a, se_a, tol_a, _), (p_0, *_))], _ = _refine(
        lambda _, points: _pattern(problem, model, tuning, signs, *bounds, (0, ()), points),
        1, lambda pattern: pattern[3], quad_tol,
    )
    bound = _bound(se_a, tol_a)
    if p_a * p_0 < 1e-12:
        raise ConditioningError(
            f"P(bhat in O^d) = {p_a * p_0:.3e} is numerically zero for d = {d.d}"
        )
    if bound > quad_tol:
        raise NumericalError(f"QMC error bound {bound:.3e} exceeds quad_tol = {quad_tol:.3e}")
    # strict orthant indicator on the moving coordinates
    if not np.all(signs[moving] * (z_active + model.beta[moving]) > 0.0):
        return 0.0
    return _gaussian_pdf(cov_a, z_active - mean_a) / p_a


def cdf(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    z,
    *,
    coords: str = "error",
    quad_tol: float = 1e-5,
) -> float:
    """F(z) = P(u <= z componentwise), error coordinates by default.

    Sums the 3^p sign-pattern parts. Each is a product of two rectangle
    probabilities: u_A in (-inf, min(z_j, -beta_j)] on D- and (-beta_j, z_j]
    on D+, s_0 in the lambda-box. A part is dropped whenever its own
    constraint set is empty (z_j < -beta_j on D0, z_j <= -beta_j on D+).
    Pattern i of the product order draws its lattice shifts from the seed
    (0, (i,)), so the parts' QMC errors are independent and the error bound
    is 7 sqrt(sum of their squared standard errors) plus the summed rounding
    terms. Every pattern runs as a Genz pilot; patterns rerun at 2^16 points,
    largest standard error first, while that bound exceeds half of quad_tol.
    Raises NumericalError when it still exceeds quad_tol.
    """
    _check_dims(problem, tuning, model)
    _check_tol(quad_tol, "quad_tol")
    _require_quad(problem)
    if problem.p > CDF_P_LIMIT:
        raise DimensionLimitError(
            f"cdf sums 3^p rectangle products; p = {problem.p} > {CDF_P_LIMIT}. "
            "Use the simulation module's empirical CDF instead."
        )
    z = _as_vector(z, problem.p, "z", allow_inf=True)
    if coords == "estimator":
        z = z - model.beta
    elif coords != "error":
        raise InputError("coords must be 'error' or 'estimator'")
    atom = -model.beta
    events = []
    for i, pattern in enumerate(product((-1, 0, 1), repeat=problem.p)):
        signs = np.array(pattern)
        if np.any((signs == 0) & (z < atom)) or np.any((signs == 1) & (z <= atom)):
            continue  # the atom misses the event, or (-beta_j, z_j] is empty
        lower, upper = _orthant(signs, atom)
        events.append((signs, lower, np.minimum(upper, z), (0, (i,))))
    _, parts = _refine(
        lambda i, points: _pattern(problem, model, tuning, *events[i], points),
        len(events), _product, quad_tol,
    )
    total, bound = _total(parts)
    if bound > quad_tol:
        raise NumericalError(f"QMC error bound {bound:.3e} exceeds quad_tol = {quad_tol:.3e}")
    return float(min(max(total, 0.0), 1.0))


def error_density(problem: DesignProblem, model: GaussianModel, tuning: TuningVector, z) -> float:
    """Density of the full-support continuous part of the error at z.

    Nonzero only where every coordinate of z + beta has a strict sign d_j;
    there it equals |det X'X| times the Gaussian at X'X z + d*lam.
    Lower-dimensional parts carry no p-dimensional density and report 0.
    Needs full column rank, at any p: nothing is integrated. A |det X'X|
    that overflows a double, or underflows to 0, raises NumericalError.
    """
    _check_dims(problem, tuning, model)
    _require_quad(problem, max_p=None)
    z = _as_vector(z, problem.p, "z")
    d = np.sign(z + model.beta)
    if np.any(d == 0.0):
        return 0.0
    with np.errstate(over="ignore"):  # an overflow is the error below
        jac = abs(float(np.linalg.det(problem.gram)))
    if not 0.0 < jac < math.inf:
        raise NumericalError(f"|det X'X| = {jac:g} is not a positive finite double")
    return jac * _gaussian_pdf(model.sigma**2 * problem.gram, problem.gram @ z + d * tuning.lam)


def mvn_box_probability(
    mean, cov, lower, upper, *, n_samples: int = 8192, seed: int = 0, n_shifts: int = 8
) -> RegionProbability:
    """P(lower <= x <= upper) for x ~ N(mean, cov), bounds may be infinite.

    A NaN bound, a non-finite mean or covariance entry, an n_samples that is
    not a positive integer, an n_shifts that is not an integer >= 2 or an
    n_samples // n_shifts above 2^16, the largest lattice of _genz._KOROBOV, raises
    InputError. The covariance may be singular (see _rectangle): a
    factor of one column, or of two coordinates, has a closed form; beyond
    that the separation-of-variables transform runs on n_shifts random shifts
    of a Korobov lattice of n_samples // n_shifts points rounded up to a power
    of two and to at least 64, whose multipliers are tuned for up to six
    coordinates (see _genz._shifted_lattice).
    The reported error bound is seven standard errors of the mean of the
    shift estimates plus a rounding term.
    """
    mean = _as_vector(mean, None, "mean")
    p = mean.shape[0]
    lower = _as_vector(lower, p, "lower", allow_inf=True)
    upper = _as_vector(upper, p, "upper", allow_inf=True)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.shape != (p, p):
        raise InputError(f"covariance must be {p} x {p}")
    if not np.all(np.isfinite(cov)):
        raise InputError("covariance must be finite")
    if np.any(lower > upper):
        raise InputError("lower bound exceeds upper bound")
    n_samples = _as_int(
        n_samples, 1, f"n_samples must be a positive integer, got {_plain(n_samples)!r}")
    n_shifts = _as_int(n_shifts, 2, "n_shifts must be an integer >= 2 for a standard error, "
                       f"got {_plain(n_shifts)!r}")
    from ._genz import _MAX_LATTICE

    if n_samples // n_shifts > _MAX_LATTICE:
        raise InputError(f"n_samples // n_shifts must be at most {_MAX_LATTICE}, the largest "
                         f"lattice, got {n_samples} // {n_shifts}")
    seed = _check_seed(seed)
    sym = 0.5 * (cov + cov.T)
    if not np.allclose(cov, sym, rtol=1e-8, atol=1e-12):
        raise InputError("covariance must be symmetric")
    eigs = np.linalg.eigvalsh(sym)
    if p and eigs[0] < -1e-10 * max(1.0, eigs[-1]):  # an empty box has no spectrum
        raise InputError("covariance is not positive semidefinite")
    estimate, se, tol, points = _rectangle(
        _factor(sym), lower - mean, upper - mean, (seed, ()), n_samples, n_shifts
    )
    return _quadrature(estimate, _bound(se, tol), points, seed)


def _factor(cov):
    """The m x q lower-echelon L with L L' = cov, q = rank: a Cholesky in the
    given order (columns scaled by the reciprocal pivot, as LAPACK's potf2)
    that opens no column at a dropped pivot, whose row keeps its entries on
    the earlier columns but those within the same share of its variance."""
    m = cov.shape[0]
    factor, q = np.zeros((m, m)), 0
    for i in range(m):
        row = factor[i, :q]
        d, tol = cov[i, i] - row @ row, m * _PIVOT_RTOL * cov[i, i]
        if d > tol:
            factor[i, q] = pivot = math.sqrt(d)
            factor[i + 1:, q] = (cov[i + 1:, i] - factor[i + 1:, :q] @ row) * (1.0 / pivot)
            q += 1
        else:
            row[row * row <= tol] = 0.0
    return factor[:, :q]


def _rectangle(factor, a, b, seed, n_samples=_GENZ_POINTS, n_shifts=8):
    """P(a <= factor w <= b) for w ~ N(0, I_q), factor m x q lower-echelon:
    (estimate, standard error, rounding bound, QMC points).

    Rows are grouped by their last nonzero column (Genz & Kwong 2000): a zero
    row is an indicator of a_r <= 0 <= b_r, with a slack of 1e-12 (1 + |bound|),
    and the rows that end in column i bound w_i given the earlier coordinates
    by the intersection of their intervals. One column (the normal interval)
    or two rows on two columns (Genz's BVND) are exact to rounding. Otherwise,
    Genz's transform in q - 1 dimensions on n_shifts random shifts of one
    Korobov lattice (see _genz._shifted_lattice), one shift's points at a
    time, with the standard error of the mean of the shift estimates. seed
    is (entropy, spawn_key), which seeds the shifts (see
    _genz._lattice_shifts); an int seed s passes as (s, ()).
    """
    q = factor.shape[1]
    last = np.max(np.where(factor != 0.0, np.arange(q), -1), axis=1, initial=-1)
    zero = last < 0
    if np.any(((a > 1e-12 * (1.0 + np.abs(a))) | (b < -1e-12 * (1.0 + np.abs(b))))[zero]):
        return 0.0, 0.0, 0.0, 0
    if q == 0:
        return 1.0, 0.0, 0.0, 0
    # drop the zero rows and orient each row so its last coefficient is positive
    rows = np.flatnonzero(~zero)
    up = factor[rows, last[rows]] > 0.0
    factor = np.where(up[:, None], factor[rows], -factor[rows])
    a, b = np.where(up, a[rows], -b[rows]), np.where(up, b[rows], -a[rows])
    groups = [np.flatnonzero(last[rows] == i) for i in range(q)]
    if q == 1:
        return max(_interval(*_first_interval(factor, a, b, groups[0])), 0.0), 0.0, _EXACT_TOL, 0
    if q == rows.size == 2:
        # x_2 = sd_2 (rho w_1 + r w_2) with r = sqrt(1 - rho^2)
        sd = np.array([factor[0, 0], math.hypot(factor[1, 0], factor[1, 1])])
        rho, r = factor[1, 0] / sd[1], factor[1, 1] / sd[1]
        return _rectangle2(a / sd, b / sd, rho, r), 0.0, _EXACT_TOL, 0
    from . import _genz  # compiled on the first Genz block only

    per_shift = _genz._lattice_size(n_samples, n_shifts)
    first = tuple(map(_norm_cdf, _first_interval(factor, a, b, groups[0])))
    estimates = np.array([
        _genz._genz_values(factor, a, b, groups, w, first).mean()
        for w in _genz._shifted_lattice(per_shift, q - 1, n_shifts, seed)
    ])
    se = float(estimates.std(ddof=1) / math.sqrt(n_shifts))
    return float(estimates.mean()), se, _EXACT_TOL, n_shifts * per_shift


def _first_interval(factor, a, b, rows):
    """The interval of w_0 left by the rows that end in the first column."""
    return (a[rows] / factor[rows, 0]).max(), (b[rows] / factor[rows, 0]).min()


def _norm_cdf(x) -> float:
    """Phi(x), with the two branches of cephes ndtr: 1/2 + erf/2 near zero and
    erfc in the tails, where 1 - Phi or Phi is small."""
    z = x * _SQRT_HALF
    if abs(z) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(z)
    y = 0.5 * math.erfc(abs(z))
    return 1.0 - y if z > 0.0 else y


def _interval(a, b) -> float:
    """P(a <= x <= b) for x ~ N(0, 1), taken from the side of the smaller tail."""
    if a > 0.0:
        return _norm_cdf(-a) - _norm_cdf(-b)
    return _norm_cdf(b) - _norm_cdf(a)


def _rectangle2(a, b, rho, r) -> float:
    """P(a <= x <= b) for standard normals with correlation rho, r = sqrt(1 - rho^2)."""
    # mirror an axis whose interval lies above the mean, so the corners are small tails
    flip = np.where(a > 0.0, -1.0, 1.0)
    lo, hi = np.minimum(flip * a, flip * b), np.maximum(flip * a, flip * b)
    rho = flip[0] * flip[1] * rho
    return (
        _bvn_cdf(hi[0], hi[1], rho, r) - _bvn_cdf(lo[0], hi[1], rho, r)
        - _bvn_cdf(hi[0], lo[1], rho, r) + _bvn_cdf(lo[0], lo[1], rho, r)
    )


def _bvn_cdf(h, k, rho, r) -> float:
    """P(x <= h, y <= k) for standard normals with correlation rho, r = sqrt(1 - rho^2).

    Genz's BVND (Genz 2004, after Drezner & Wesolowsky 1990), written for the
    upper orthant P(x > -h, y > -k). For |rho| < 0.925 it integrates Plackett's
    derivative over arcsin(rho); beyond, it integrates the remainder of an
    expansion around rho = +-1, both by the 20-point Gauss-Legendre rule.
    """
    # Phi is 0 or 1 in double beyond |x| = 40, so such a bound acts as an
    # infinite one, and h * k below cannot overflow
    if max(abs(h), abs(k)) >= 40.0:
        return _norm_cdf(min(h, k))
    h, k = -h, -k
    hk = h * k
    if abs(rho) < 0.925:
        hs, asr = 0.5 * (h * h + k * k), 0.5 * math.asin(rho)
        total = 0.0
        for x, w in _GAUSS_LEGENDRE:
            sn = math.sin(asr * x)
            total += w * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        return total * asr / (2.0 * math.pi) + _norm_cdf(-h) * _norm_cdf(-k)
    if rho < 0.0:
        k, hk = -k, -hk
    a2, bs = r * r, (h - k) ** 2
    c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 80.0
    near = 0.0  # the expansion's closed-form terms; those below e^-100 are dropped
    if bs / a2 + hk < 200.0:
        near = r * math.exp(-0.5 * (bs / a2 + hk)) * (
            1.0 - c * (bs - a2) * (1.0 - d * bs) / 3.0 + c * d * a2 * a2
        )
    if hk > -100.0:
        b = math.sqrt(bs)
        near -= (
            math.exp(-0.5 * hk) * _SQRT_2PI * _norm_cdf(-b / r) * b
            * (1.0 - c * bs * (1.0 - d * bs) / 3.0)
        )
    half, total = 0.5 * r, 0.0
    for x, w in _GAUSS_LEGENDRE:
        xs = (half * x) ** 2
        if bs / xs + hk < 200.0:
            rs = math.sqrt(1.0 - xs)
            ep = math.exp(-0.5 * hk * xs / (1.0 + rs) ** 2) / rs
            sp = 1.0 + c * xs * (1.0 + 5.0 * d * xs)
            total += w * math.exp(-0.5 * (bs / xs + hk)) * (sp - ep)
    bvn = (half * total - near) / (2.0 * math.pi)
    if rho > 0.0:
        bvn += _norm_cdf(-max(h, k))
    elif h >= k:
        bvn = -bvn
    elif h < 0.0:
        bvn = _norm_cdf(k) - _norm_cdf(h) - bvn
    else:
        bvn = _norm_cdf(-h) - _norm_cdf(-k) - bvn
    return min(max(bvn, 0.0), 1.0)
