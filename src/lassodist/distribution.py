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
to the orthant. Rectangles of one or two coordinates have closed forms (the
normal CDF; the bivariate normal through Owen's T); larger ones use Genz's
randomized quasi-Monte Carlo estimate with a reported error bound. These
paths need full column rank (the Gaussian on X'y is singular otherwise);
rank-deficient designs go through the reduced-rank representation (rank-1
analytically, any rank by Monte Carlo over the solver).

Event-threshold convention: a threshold z_j = -beta_j on a D+- coordinate is
accepted and yields the open event {bhat_j < 0} (resp. > 0); thresholds
strictly on the wrong side of -beta_j are rejected. Under this convention the
3^p orthant events at z = -beta partition R^p, so their probabilities sum
to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr, ndtri, owens_t

from .errors import (
    ConditioningError,
    ConvergenceError,
    DimensionLimitError,
    InputError,
    NumericalError,
)
from .model import ZERO_TOL, DesignProblem, GaussianModel, SignVector, TuningVector
from .rng import gaussian_chunks
from .solver import solve_many

QUAD_DIM_LIMIT = 6
CDF_P_LIMIT = 4
# QMC points of one Genz estimate: rectangles of three or more coordinates
_GENZ_POINTS = 2**16
# error bound reported by the closed-form rectangle kernels
_EXACT_TOL = 1e-14
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EVENT_SIDE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RegionProbability:
    """A probability estimate together with how it was obtained.

    Quadrature-class results carry std_error = 0 and a quad_tol error bound;
    Monte Carlo results carry the binomial standard error and quad_tol = 0.
    """

    estimate: float
    std_error: float
    method: str
    n_samples: int
    seed: int | None
    quad_tol: float


@dataclass(frozen=True, eq=False)
class OrthantEvent:
    """Thresholds z (error coordinates) with the orthant signs d.

    The event reads: u_j <= z_j and bhat_j < 0 on D-, u_j >= z_j and
    bhat_j > 0 on D+, bhat_j = 0 on D0 (which requires z_j = -beta_j).
    """

    z: np.ndarray
    d: SignVector


def error_orthant_event(z, d) -> OrthantEvent:
    z = np.asarray(z, dtype=float).ravel()
    if not isinstance(d, SignVector):
        d = SignVector(d=tuple(int(v) for v in d))
    if z.shape[0] != d.p:
        raise InputError("thresholds and sign vector must have equal length")
    return OrthantEvent(z=z, d=d)


def estimator_orthant_event(model: GaussianModel, z, d=None) -> OrthantEvent:
    """Build the event {bhat_j <= z_j (D-), >= z_j (D+), = 0 (D0)}.

    z is in estimator coordinates; d defaults to sgn(z) with exact zeros
    mapped to D0. Internally the event is stored in error coordinates
    (z - beta on D+-, -beta on D0).
    """
    z = np.asarray(z, dtype=float).ravel()
    if d is None:
        d = SignVector(d=tuple(int(v) for v in np.sign(z)))
    elif not isinstance(d, SignVector):
        d = SignVector(d=tuple(int(v) for v in d))
    if z.shape[0] != d.p or z.shape[0] != model.beta.shape[0]:
        raise InputError("thresholds, sign vector and model must have equal length")
    z_err = z - model.beta
    for j in d.d_zero:
        if abs(z[j]) > _EVENT_SIDE_TOL:
            raise InputError(f"D0 coordinate {j} needs threshold 0, got {z[j]!r}")
        z_err[j] = -model.beta[j]
    return OrthantEvent(z=z_err, d=d)


def _validate_event(event: OrthantEvent, model: GaussianModel, p: int):
    z, d = event.z, event.d
    if z.shape[0] != p or d.p != p or model.beta.shape[0] != p:
        raise InputError("event does not match the problem dimension")
    if not np.all(np.isfinite(z)):
        raise InputError("event thresholds must be finite")
    # threshold positions relative to the orthant split, positive on the wrong side
    signs, zb = d.as_array(), z + model.beta
    wrong = np.flatnonzero(np.where(signs == 0, np.abs(zb), -signs * zb) > _EVENT_SIDE_TOL)
    if wrong.size:
        j = int(wrong[0])
        raise InputError(
            f"coordinate {j}: threshold z_j = {z[j]!r} lies on the wrong side of "
            f"-beta_j = {-model.beta[j]!r} for d_j = {signs[j]} (D0 requires equality)"
        )


def _check_shapes(problem: DesignProblem, model: GaussianModel, tuning: TuningVector):
    if tuning.p != problem.p or model.beta.shape[0] != problem.p:
        raise InputError("model/tuning dimensions do not match the design")


class _CenteredGaussian:
    """log-density of N(0, cov) with the covariance factored once."""

    def __init__(self, cov):
        self.chol = np.linalg.cholesky(cov)
        self.log_norm = -cov.shape[0] * _LOG_SQRT_2PI - float(
            np.sum(np.log(np.diag(self.chol)))
        )

    def logpdf(self, x):
        w = solve_triangular(self.chol, x, lower=True)
        return self.log_norm - 0.5 * float(w @ w)

    def pdf(self, x):
        return math.exp(self.logpdf(x))


def _pattern(problem, model, tuning, signs):
    """Gaussian blocks of one sign pattern: (A, (mean, cov) of u_A, (mean, cov) of s_0)."""
    moving, zero = np.flatnonzero(signs != 0), np.flatnonzero(signs == 0)
    gram, beta, var = problem.gram, model.beta, model.sigma**2
    g_inv = np.linalg.inv(gram[np.ix_(moving, moving)])
    g_0a, g_00 = gram[np.ix_(zero, moving)], gram[np.ix_(zero, zero)]
    mean_a = g_inv @ (g_0a.T @ beta[zero] - signs[moving] * tuning.lam[moving])
    return (
        moving,
        (mean_a, var * g_inv),
        (g_00 @ beta[zero] - g_0a @ mean_a, var * (g_00 - g_0a @ g_inv @ g_0a.T)),
    )


def _pattern_prob(problem, model, tuning, signs, lower, upper, seed):
    """(P(lower_A <= u_A <= upper_A), P(s_0 in the lambda-box), error bound of
    their product, QMC points) for one pattern; bounds off A are not read."""
    moving, (mean_a, cov_a), (mean_0, cov_0) = _pattern(problem, model, tuning, signs)
    lo, hi = lower[moving] - mean_a, upper[moving] - mean_a
    p_a, err_a, pts_a = _rectangle(np.linalg.cholesky(cov_a), lo, hi, seed)
    lam_0 = tuning.lam[signs == 0]
    if np.any(lam_0 == 0.0):
        return p_a, 0.0, err_a, pts_a  # an unpenalized coordinate carries no atom at zero
    p_0, err_0, pts_0 = _rectangle(np.linalg.cholesky(cov_0), -lam_0 - mean_0, lam_0 - mean_0, seed)
    return p_a, p_0, err_a + err_0, pts_a + pts_0


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


def _require_quad(problem, dim):
    if problem.rank_x < problem.p:
        raise InputError(
            "quadrature needs full column rank (the Gaussian on X'y is singular); "
            "use method='mc'"
        )
    if dim > QUAD_DIM_LIMIT:
        raise DimensionLimitError(
            f"integration dimension {dim} exceeds {QUAD_DIM_LIMIT}; use method='mc'"
        )


def prob_orthant_event(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    event: OrthantEvent,
    method: str = "quad",
    *,
    n_samples: int = 100_000,
    seed: int = 0,
    quad_tol: float = 1e-5,
    zero_tol: float = ZERO_TOL,
    solver_tol: float = 1e-10,
) -> RegionProbability:
    """P(u_j <= z_j on D-, u_j >= z_j on D+, bhat_j = 0 on D0).

    Quadrature reports the larger of quad_tol and its kernels' summed error
    bound; seed also seeds the QMC scrambling.
    """
    _check_shapes(problem, model, tuning)
    _validate_event(event, model, problem.p)
    z, d = event.z, event.d

    if method == "mc":
        return _mc_probability(
            problem, model, tuning,
            _event_indicator(z, d, model.beta, zero_tol),
            n_samples, seed, solver_tol,
        )
    if method != "quad":
        raise InputError("method must be 'quad' or 'mc'")

    _require_quad(problem, problem.p)
    signs = d.as_array()
    p_a, p_0, bound, points = _pattern_prob(problem, model, tuning, signs, *_orthant(signs, z), seed)
    return _quadrature(p_a * p_0, bound, points, seed, quad_tol)


def _event_indicator(z, d: SignVector, beta, zero_tol):
    signs = d.as_array()
    szb = signs * (z + beta)  # thresholds in estimator coordinates, signed

    def indicator(B):
        sb = signs * B
        moving = (sb > zero_tol) & (sb >= szb)
        return np.all(np.where(signs == 0, np.abs(B) <= zero_tol, moving), axis=1)

    return indicator


def _mc_probability(problem, model, tuning, indicator, n_samples, seed, solver_tol):
    hits = 0
    fails = 0
    for _start, _count, Z in gaussian_chunks(seed, n_samples, problem.n):
        Y = model.mu + model.sigma * Z
        B, resids = solve_many(problem, Y, tuning, tol=solver_tol)
        fails += int(np.sum(resids > solver_tol))
        hits += int(np.count_nonzero(indicator(B)))
    if fails > 0.001 * n_samples:
        raise ConvergenceError(
            f"{fails} of {n_samples} Monte Carlo replicates failed to converge"
        )
    return _binomial_probability(hits, n_samples, seed)


def prob_all_zero(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    method: str = "quad",
    *,
    n_samples: int = 100_000,
    seed: int = 0,
    zero_tol: float = ZERO_TOL,
    solver_tol: float = 1e-10,
) -> RegionProbability:
    """P(bhat = 0) = P(X'y inside the lambda-box).

    Full column rank: the all-zero sign pattern, a Gaussian rectangle (mean
    X'X beta, covariance sigma^2 X'X). Rank one: exact interval reduction
    along the row-space coordinate. Other rank-deficient designs: Monte Carlo.
    """
    _check_shapes(problem, model, tuning)
    if method == "mc":
        def all_zero(B, _tol=zero_tol):
            return np.all(np.abs(B) <= _tol, axis=1)

        return _mc_probability(problem, model, tuning, all_zero, n_samples, seed, solver_tol)
    if method != "quad":
        raise InputError("method must be 'quad' or 'mc'")
    if problem.rank_x == problem.p:
        signs = np.zeros(problem.p, dtype=int)
        bounds = _orthant(signs, -model.beta)
        p_a, p_0, bound, points = _pattern_prob(problem, model, tuning, signs, *bounds, seed)
        return _quadrature(p_a * p_0, bound, points, seed)
    if problem.rank_x == 1:
        return _rank1_zero_atom(problem, model, tuning)
    raise DimensionLimitError(
        f"no deterministic path for rank {problem.rank_x} < p = {problem.p} designs; "
        "use method='mc'"
    )


def _rank1_zero_atom(problem, model, tuning):
    # X'y = u t with t = u'X'y one-dimensional Gaussian; the lambda-box pulls
    # back to an interval in t, intersected over the coordinate constraints
    u = problem.row_space_basis[:, 0]
    t_mean = float(u @ (problem.gram @ model.beta))
    t_sd = model.sigma * math.sqrt(float(u @ problem.gram @ u))
    hi = math.inf
    for j in range(problem.p):
        a = abs(float(u[j]))
        if a > 1e-15:
            hi = min(hi, float(tuning.lam[j]) / a)
    if not math.isfinite(hi):  # unreachable: u has unit norm
        raise InputError("degenerate row-space basis")
    return _quadrature(_interval((-hi - t_mean) / t_sd, (hi - t_mean) / t_sd), _EXACT_TOL, 0, None)


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
        OrthantEvent(z=-model.beta.copy(), d=d),
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
    It is phi_A(z_active) / P(u_A in the orthant). Raises NumericalError
    when the QMC error bound of P(bhat in O^d) exceeds quad_tol.
    """
    _check_shapes(problem, model, tuning)
    _require_quad(problem, problem.p)
    z_active = np.asarray(z_active, dtype=float).ravel()
    signs = d.as_array()
    moving, (mean_a, cov_a), _ = _pattern(problem, model, tuning, signs)
    if z_active.shape[0] != moving.size:
        raise InputError(f"z_active must have length ||d||_1 = {moving.size}")
    bounds = _orthant(signs, -model.beta)
    p_a, p_0, bound, _ = _pattern_prob(problem, model, tuning, signs, *bounds, 0)
    if p_a * p_0 < 1e-12:
        raise ConditioningError(
            f"P(bhat in O^d) = {p_a * p_0:.3e} is numerically zero for d = {d.d}"
        )
    if bound > quad_tol:
        raise NumericalError(f"QMC error bound {bound:.3e} exceeds quad_tol = {quad_tol:.3e}")
    # strict orthant indicator on the moving coordinates
    if not np.all(signs[moving] * (z_active + model.beta[moving]) > 0.0):
        return 0.0
    return _CenteredGaussian(cov_a).pdf(z_active - mean_a) / p_a


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
    Raises NumericalError when the summed QMC error bound exceeds quad_tol.
    """
    _check_shapes(problem, model, tuning)
    _require_quad(problem, problem.p)
    if problem.p > CDF_P_LIMIT:
        raise DimensionLimitError(
            f"cdf sums 3^p rectangle products; p = {problem.p} > {CDF_P_LIMIT}. "
            "Use the simulation module's empirical CDF instead."
        )
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != problem.p:
        raise InputError("z must have length p")
    if coords == "estimator":
        z = z - model.beta
    elif coords != "error":
        raise InputError("coords must be 'error' or 'estimator'")
    atom = -model.beta
    total, bound = 0.0, 0.0
    for pattern in product((-1, 0, 1), repeat=problem.p):
        signs = np.array(pattern)
        if np.any((signs == 0) & (z < atom)) or np.any((signs == 1) & (z <= atom)):
            continue  # the atom misses the event, or (-beta_j, z_j] is empty
        lower, upper = _orthant(signs, atom)
        p_a, p_0, err, _ = _pattern_prob(
            problem, model, tuning, signs, lower, np.minimum(upper, z), 0
        )
        total += p_a * p_0
        bound += err
    if bound > quad_tol:
        raise NumericalError(f"QMC error bound {bound:.3e} exceeds quad_tol = {quad_tol:.3e}")
    return float(min(max(total, 0.0), 1.0))


def error_density(problem: DesignProblem, model: GaussianModel, tuning: TuningVector, z) -> float:
    """Density of the full-support continuous part of the error at z.

    Nonzero only where every coordinate of z + beta has a strict sign d_j;
    there it equals |det X'X| times the Gaussian at X'X z + d*lam.
    Lower-dimensional parts carry no p-dimensional density and report 0.
    """
    _check_shapes(problem, model, tuning)
    _require_quad(problem, problem.p)
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != problem.p:
        raise InputError("z must have length p")
    d = np.sign(z + model.beta)
    if np.any(d == 0.0):
        return 0.0
    density = _CenteredGaussian(model.sigma**2 * problem.gram)
    jac = abs(float(np.linalg.det(problem.gram)))
    return jac * density.pdf(problem.gram @ z + d * tuning.lam)


def region_support_includes(j: int, zero_tol: float = ZERO_TOL):
    """Predicate factory: solutions whose coordinate j is active."""

    def region(B):
        return np.abs(B[:, j]) > zero_tol

    return region


def region_below(z):
    """Predicate factory: solutions componentwise <= z (estimator coordinates)."""
    z = np.asarray(z, dtype=float).ravel()

    def region(B):
        return np.all(B <= z, axis=1)

    return region


def prob_region_high(
    problem: DesignProblem,
    model: GaussianModel,
    tuning: TuningVector,
    region,
    method: str = "mc",
    *,
    n_samples: int = 100_000,
    seed: int = 0,
    solver_tol: float = 1e-10,
) -> RegionProbability:
    """P(bhat in B) for an arbitrary vectorized solution predicate, any rank.

    Monte Carlo over the solver. The estimate depends on the model only
    through mu = X beta, so fiber-equivalent parameter vectors give
    bit-identical results at the same seed.
    """
    _check_shapes(problem, model, tuning)
    if method != "mc":
        raise InputError(
            "prob_region_high is Monte Carlo only; prob_all_zero/prob_orthant_event "
            "have the deterministic paths"
        )
    return _mc_probability(problem, model, tuning, region, n_samples, seed, solver_tol)


def mvn_box_probability(
    mean, cov, lower, upper, *, n_samples: int = 8192, seed: int = 0, n_shifts: int = 8
) -> RegionProbability:
    """P(lower <= x <= upper) for x ~ N(mean, cov), bounds may be infinite.

    Nonsingular covariance: closed forms for one or two coordinates, beyond
    that the separation-of-variables transform on n_shifts independent
    scramblings of a Sobol set, whose spread gives the reported error bound.
    Singular covariance: plain Monte Carlo through a reduced-rank factor.
    """
    mean = np.asarray(mean, dtype=float).ravel()
    lower = np.asarray(lower, dtype=float).ravel()
    upper = np.asarray(upper, dtype=float).ravel()
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    p = mean.shape[0]
    if cov.shape != (p, p) or lower.shape[0] != p or upper.shape[0] != p:
        raise InputError("mean/cov/bounds dimensions are inconsistent")
    if np.any(lower > upper):
        raise InputError("lower bound exceeds upper bound")
    sym = 0.5 * (cov + cov.T)
    if not np.allclose(cov, sym, rtol=1e-8, atol=1e-12):
        raise InputError("covariance must be symmetric")
    eigs = np.linalg.eigvalsh(sym)
    if eigs[0] < -1e-10 * max(1.0, eigs[-1]):
        raise InputError("covariance is not positive semidefinite")

    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return _mvn_box_singular(sym, mean, lower, upper, n_samples, seed)
    return _quadrature(*_rectangle(chol, lower - mean, upper - mean, seed, n_samples, n_shifts), seed)


def _rectangle(chol, a, b, seed, n_samples=_GENZ_POINTS, n_shifts=8):
    """P(a <= chol w <= b) for w ~ N(0, I): (estimate, error bound, QMC points).

    Closed forms up to two coordinates; beyond, Genz's transform on n_shifts
    scrambled Sobol sets, bounded by three standard errors of their mean.
    """
    k = a.shape[0]
    if k == 0:
        return 1.0, 0.0, 0
    if k == 1:
        return _interval(a[0] / chol[0, 0], b[0] / chol[0, 0]), _EXACT_TOL, 0
    if k == 2:
        # x_2 = sd_2 (rho w_1 + r w_2) with r = sqrt(1 - rho^2)
        sd = np.array([chol[0, 0], math.hypot(chol[1, 0], chol[1, 1])])
        rho, r = chol[1, 0] / sd[1], chol[1, 1] / sd[1]
        return _rectangle2(a / sd, b / sd, rho, r), _EXACT_TOL, 0
    from scipy.stats import qmc  # slow to import, and only this path needs it

    per_shift = 2 ** int(np.clip(np.ceil(np.log2(max(n_samples // n_shifts, 64))), 6, 16))
    estimates = np.empty(n_shifts)
    for i in range(n_shifts):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i))))
        sob = qmc.Sobol(d=k - 1, scramble=True, seed=gen)
        w = sob.random_base2(int(np.log2(per_shift)))
        estimates[i] = _genz_estimate(chol, a, b, w)
    spread = float(estimates.std(ddof=1) / math.sqrt(n_shifts))
    return float(estimates.mean()), 3.0 * spread + 1e-12, n_shifts * per_shift


def _interval(a, b) -> float:
    """P(a <= x <= b) for x ~ N(0, 1), taken from the side of the smaller tail."""
    if a > 0.0:
        return float(ndtr(-a) - ndtr(-b))
    return float(ndtr(b) - ndtr(a))


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
    """P(x <= h, y <= k) for standard normals with correlation rho (Owen, 1956)."""
    if math.isinf(h) or math.isinf(k):
        return float(ndtr(min(h, k)))
    if h == 0.0 and k == 0.0:
        return 0.25 + math.atan2(rho, r) / (2.0 * math.pi)

    def owen(x, y):  # T(x, (y - rho x) / (x r)), which is +-1/4 at x = 0
        return float(owens_t(x, (y - rho * x) / (x * r))) if x else math.copysign(0.25, y)

    half = 0.5 if h * k < 0.0 or (h * k == 0.0 and h + k < 0.0) else 0.0
    return 0.5 * float(ndtr(h) + ndtr(k)) - owen(h, k) - owen(k, h) - half


def _genz_estimate(chol, a, b, w):
    m, p = w.shape[0], a.shape[0]
    f = np.ones(m)
    ys = np.empty((m, p - 1))
    for i in range(p):
        center = ys[:, :i] @ chol[i, :i]
        lo = ndtr((a[i] - center) / chol[i, i])
        hi = ndtr((b[i] - center) / chol[i, i])
        f *= np.maximum(hi - lo, 0.0)
        if i < p - 1:
            ys[:, i] = ndtri(np.clip(lo + w[:, i] * (hi - lo), 1e-16, 1.0 - 1e-16))
    return float(f.mean())


def _mvn_box_singular(sym, mean, lower, upper, n_samples, seed):
    eigs, vecs = np.linalg.eigh(sym)
    keep = eigs > max(1e-300, eigs[-1]) * sym.shape[0] * 1e-12
    factor = vecs[:, keep] * np.sqrt(eigs[keep])
    rank = factor.shape[1]
    slack_lo = lower - 1e-12 * (1.0 + np.abs(lower))
    slack_hi = upper + 1e-12 * (1.0 + np.abs(upper))
    hits = 0
    for _start, count, Z in gaussian_chunks(seed, n_samples, rank):
        x = mean + Z @ factor.T
        hits += int(np.count_nonzero(np.all((x >= slack_lo) & (x <= slack_hi), axis=1)))
    return _binomial_probability(hits, n_samples, seed)
