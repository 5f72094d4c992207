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

Imports: the module needs numpy alone, and no call loads scipy. The first
QMC block imports the standard library's `random` to draw the lattice
shifts; closed-form calls never import it, and no quadrature call loads
numpy.random. The solver and the Gaussian replicate generator (`rng`) load
only with the Monte-Carlo path (through `simulate`), so closed-form and Genz
calls compile neither. The Genz kernel's Phi and Phi^-1 are numpy ports of
cephes ndtr and of Wichura's AS241 (_ndtr, _ndtri).

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

from . import _lazy
from .errors import ConditioningError, DimensionLimitError, InputError, NumericalError
from .model import ZERO_TOL, DesignProblem, GaussianModel, SignVector, TuningVector
from .model import _as_signs, _as_vector, _check_dims, _check_seed, _check_zero_tol

# uncalled here, but read as attributes of this module: perfbench/tracing.py
# wraps both and perfbench/worker.py calls solve_many. They load on first use
__getattr__ = _lazy(globals(), {"solve_many": "solver", "gaussian_chunks": "rng"})


QUAD_DIM_LIMIT = 6
CDF_P_LIMIT = 4
# QMC points of one Genz estimate: rectangles of three or more coordinates
_GENZ_POINTS = 2**16
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
# Korobov multipliers: for the lattice of n points in dim dimensions, the odd a
# minimising the P2 figure of merit; regenerate with scripts/korobov_table.py
_KOROBOV = {
    (64, 2): 19, (64, 3): 5, (64, 4): 3, (64, 5): 5,
    (128, 2): 47, (128, 3): 25, (128, 4): 21, (128, 5): 3,
    (256, 2): 75, (256, 3): 37, (256, 4): 39, (256, 5): 21,
    (512, 2): 149, (512, 3): 119, (512, 4): 115, (512, 5): 151,
    (1024, 2): 275, (1024, 3): 149, (1024, 4): 27, (1024, 5): 189,
    (2048, 2): 791, (2048, 3): 495, (2048, 4): 137, (2048, 5): 453,
    (4096, 2): 1557, (4096, 3): 751, (4096, 4): 791, (4096, 5): 755,
    (8192, 2): 2431, (8192, 3): 1503, (8192, 4): 2019, (8192, 5): 2099,
    (16384, 2): 6229, (16384, 3): 1951, (16384, 4): 3779, (16384, 5): 2959,
    (32768, 2): 12031, (32768, 3): 8895, (32768, 4): 1475, (32768, 5): 1543,
    (65536, 2): 19463, (65536, 3): 15395, (65536, 4): 19303, (65536, 5): 9143,
}
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
_EVENT_SIDE_TOL = 1e-9
# cephes ndtr's rational approximations, highest degree first: erf on |x| <= 1
# is x T(x^2) / U(x^2); erfc is exp(-x^2) P(x) / Q(x) on [1, 8) and
# exp(-x^2) R(x) / S(x) beyond, and 0 once x^2 exceeds cephes' MAXLOG
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# x <= this exactly when x * x <= MAXLOG = 7.09782712893383996843e2
_ERFC_MAX_X = math.sqrt(7.09782712893383996843e2)
# Wichura's AS241 (PPND16), highest degree first: the central branch in
# r = 0.180625 - q^2 for |q| <= 0.425, q = p - 1/2, and the tails in
# r = sqrt(-log(min(p, 1 - p))), shifted by 1.6 up to r = 5 and by 5 beyond
_AS241_A = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
            4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
            1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_B = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
            2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
            4.2313330701600911252e1, 1.0)
_AS241_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
            1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
            4.63033784615654529590e0, 1.42343711074968357734e0)
_AS241_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
            1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
            2.05319162663775882187e0, 1.0)
_AS241_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
            2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
            5.46378491116411436990e0, 6.65790464350110377720e0)
_AS241_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
            7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
            5.99832206555887937690e-1, 1.0)


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
            raise InputError(f"D0 coordinate {j} needs threshold 0, got {z[j]!r}")
        event.z[j] = -model.beta[j]
    return event


def _validate_event(z, d: SignVector, model: GaussianModel):
    """The event thresholds z as a vector, checked against the signs d and the model."""
    z = _as_vector(z, d.p, "event thresholds")
    # threshold positions relative to the orthant split, positive on the wrong side
    signs, zb = d.as_array(), z + model.beta
    wrong = np.flatnonzero(np.where(signs == 0, np.abs(zb), -signs * zb) > _EVENT_SIDE_TOL)
    if wrong.size:
        j = int(wrong[0])
        raise InputError(
            f"coordinate {j}: threshold z_j = {z[j]!r} lies on the wrong side of "
            f"-beta_j = {-model.beta[j]!r} for d_j = {signs[j]} (D0 requires equality)"
        )
    return z


class _CenteredGaussian:
    """log-density of N(0, cov) with the covariance factored once."""

    def __init__(self, cov):
        self.chol = np.linalg.cholesky(cov)
        self.log_norm = -cov.shape[0] * _LOG_SQRT_2PI - float(
            np.sum(np.log(np.diag(self.chol)))
        )

    def logpdf(self, x):
        w = np.linalg.solve(self.chol, x)
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
    """Rectangle-kernel results (estimate, standard error, rounding bound, QMC
    points) of P(lower_A <= u_A <= upper_A) and of P(s_0 in the lambda-box)
    for one pattern; bounds off A are not read. seed is (entropy, spawn_key);
    the two blocks take spawn keys key + (0,) and key + (1,)."""
    moving, (mean_a, cov_a), (mean_0, cov_0) = _pattern(problem, model, tuning, signs)
    entropy, key = seed
    seed_a, seed_0 = (entropy, key + (0,)), (entropy, key + (1,))
    lo, hi = lower[moving] - mean_a, upper[moving] - mean_a
    block_a = _rectangle(_factor(cov_a), lo, hi, seed_a)
    lam_0 = tuning.lam[signs == 0]
    if np.any(lam_0 == 0.0):  # an unpenalized coordinate carries no atom at zero
        return block_a, (0.0, 0.0, 0.0, 0)
    return block_a, _rectangle(_factor(cov_0), -lam_0 - mean_0, lam_0 - mean_0, seed_0)


def _product(block_a, block_0):
    """(estimate, standard error, rounding bound, QMC points) of the product of
    two independent block estimates; the standard error is first order."""
    (p_a, se_a, tol_a, pts_a), (p_0, se_0, tol_0, pts_0) = block_a, block_0
    return p_a * p_0, math.hypot(p_0 * se_a, p_a * se_0), tol_a + tol_0, pts_a + pts_0


def _bound(se, tol):
    """Reported error bound: _BOUND_SE standard errors plus the rounding terms."""
    return _BOUND_SE * se + tol


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


def _require_quad(problem):
    if problem.rank_x < problem.p:
        raise InputError(
            "quadrature needs full column rank (the Gaussian on X'y is singular); "
            "use method='mc'"
        )
    if problem.p > QUAD_DIM_LIMIT:
        raise DimensionLimitError(
            f"integration dimension {problem.p} exceeds {QUAD_DIM_LIMIT}; use method='mc'"
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

    Quadrature reports the larger of quad_tol and its error bound (seven
    standard errors of the QMC blocks plus the kernels' rounding terms); seed
    also seeds the random lattice shifts.
    """
    d = _as_signs(event.d)
    _check_dims(problem, tuning, model, d)
    z = _validate_event(event.z, d, model)
    seed = _check_seed(seed)
    _check_zero_tol(zero_tol)

    if method == "mc":
        return _mc_probability(
            problem, model, tuning,
            _event_indicator(z, d, model.beta, zero_tol),
            n_samples, seed, solver_tol,
        )
    if method != "quad":
        raise InputError("method must be 'quad' or 'mc'")

    _require_quad(problem)
    signs = d.as_array()
    estimate, se, tol, points = _product(*_pattern_prob(
        problem, model, tuning, signs, *_orthant(signs, z), (seed, ())
    ))
    return _quadrature(estimate, _bound(se, tol), points, seed, quad_tol)


def _event_indicator(z, d: SignVector, beta, zero_tol):
    signs = d.as_array()
    szb = signs * (z + beta)  # thresholds in estimator coordinates, signed

    def indicator(B):
        sb = signs * B
        moving = (sb > zero_tol) & (sb >= szb)
        return np.all(np.where(signs == 0, np.abs(B) <= zero_tol, moving), axis=1)

    return indicator


def _mc_probability(problem, model, tuning, indicator, n_samples, seed, solver_tol):
    from .simulate import _solve_replicates  # loads the solver, which closed forms never run

    hits = []
    _solve_replicates(problem, model, tuning, n_samples, seed, solver_tol,
                      lambda Y, B: hits.append(int(np.count_nonzero(indicator(B)))))
    return _binomial_probability(sum(hits), n_samples, seed)


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
    """P(bhat = 0) = P(X'y inside the lambda-box), at any rank of X.

    X'y ~ N(X'X beta, sigma^2 X'X) has rank rk(X): one rectangle (closed form
    for rk(X) = 1 or p = 2, else Genz's transform in rk(X) - 1 dimensions,
    whose lattice shifts seed seeds).
    """
    _check_dims(problem, tuning, model)
    seed = _check_seed(seed)
    _check_zero_tol(zero_tol)
    if method == "mc":
        def all_zero(B, _tol=zero_tol):
            return np.all(np.abs(B) <= _tol, axis=1)

        return _mc_probability(problem, model, tuning, all_zero, n_samples, seed, solver_tol)
    if method != "quad":
        raise InputError("method must be 'quad' or 'mc'")
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
    It is phi_A(z_active) / P(u_A in the orthant). Raises NumericalError
    when the QMC error bound of P(u_A in the orthant) exceeds quad_tol.
    """
    d = _as_signs(d)
    _check_dims(problem, tuning, model, d)
    _require_quad(problem)
    z_active = _as_vector(z_active, d.norm1, "z_active")
    signs = d.as_array()
    moving, (mean_a, cov_a), _ = _pattern(problem, model, tuning, signs)
    bounds = _orthant(signs, -model.beta)
    (p_a, se_a, tol_a, _), (p_0, *_) = _pattern_prob(
        problem, model, tuning, signs, *bounds, (0, ())
    )
    bound = _bound(se_a, tol_a)  # the density divides by p_a alone
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
    Pattern i of the product order draws its lattice shifts from the seed
    (0, (i,)), so the parts' QMC errors are independent and the error bound
    is 7 sqrt(sum of their squared standard errors) plus the summed rounding
    terms. Raises
    NumericalError when that bound exceeds quad_tol.
    """
    _check_dims(problem, tuning, model)
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
    total, var, tol = 0.0, 0.0, 0.0
    for i, pattern in enumerate(product((-1, 0, 1), repeat=problem.p)):
        signs = np.array(pattern)
        if np.any((signs == 0) & (z < atom)) or np.any((signs == 1) & (z <= atom)):
            continue  # the atom misses the event, or (-beta_j, z_j] is empty
        lower, upper = _orthant(signs, atom)
        part, se, part_tol, _ = _product(*_pattern_prob(
            problem, model, tuning, signs, lower, np.minimum(upper, z), (0, (i,))
        ))
        total += part
        var += se * se
        tol += part_tol
    bound = _bound(math.sqrt(var), tol)
    if bound > quad_tol:
        raise NumericalError(f"QMC error bound {bound:.3e} exceeds quad_tol = {quad_tol:.3e}")
    return float(min(max(total, 0.0), 1.0))


def error_density(problem: DesignProblem, model: GaussianModel, tuning: TuningVector, z) -> float:
    """Density of the full-support continuous part of the error at z.

    Nonzero only where every coordinate of z + beta has a strict sign d_j;
    there it equals |det X'X| times the Gaussian at X'X z + d*lam.
    Lower-dimensional parts carry no p-dimensional density and report 0.
    """
    _check_dims(problem, tuning, model)
    _require_quad(problem)
    z = _as_vector(z, problem.p, "z")
    d = np.sign(z + model.beta)
    if np.any(d == 0.0):
        return 0.0
    density = _CenteredGaussian(model.sigma**2 * problem.gram)
    jac = abs(float(np.linalg.det(problem.gram)))
    return jac * density.pdf(problem.gram @ z + d * tuning.lam)


def region_support_includes(j: int, zero_tol: float = ZERO_TOL):
    """Predicate factory: solutions whose coordinate j is active."""
    _check_zero_tol(zero_tol)

    def region(B):
        return np.abs(B[:, j]) > zero_tol

    return region


def region_below(z):
    """Predicate factory: solutions componentwise <= z (estimator coordinates)."""
    z = _as_vector(z, None, "z", allow_inf=True)

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
    _check_dims(problem, tuning, model)
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

    A NaN bound, a non-finite mean or covariance entry, or n_shifts < 2
    raises InputError. The covariance may be singular (see _rectangle): a
    factor of one column, or of two coordinates, has a closed form; beyond
    that the separation-of-variables transform runs on n_shifts random shifts
    of a Korobov lattice of about n_samples / n_shifts points, whose
    multipliers are tuned for up to six coordinates (see _shifted_lattice).
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
    if n_shifts < 2:
        raise InputError(f"n_shifts must be at least 2 for a standard error, got {n_shifts}")
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
    Korobov lattice (see _shifted_lattice), one shift's points at a time,
    with the standard error of the mean of the shift estimates. seed is
    (entropy, spawn_key), which seeds the shifts (see _lattice_shifts); an
    int seed s passes as (s, ()).
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
    per_shift = 2 ** int(np.clip(np.ceil(np.log2(max(n_samples // n_shifts, 64))), 6, 16))
    estimates = np.array([
        _genz_values(factor, a, b, groups, w).mean()
        for w in _shifted_lattice(per_shift, q - 1, n_shifts, seed)
    ])
    se = float(estimates.std(ddof=1) / math.sqrt(n_shifts))
    return float(estimates.mean()), se, _EXACT_TOL, n_shifts * per_shift


def _first_interval(factor, a, b, rows):
    """The interval of w_0 left by the rows that end in the first column."""
    return (a[rows] / factor[rows, 0]).max(), (b[rows] / factor[rows, 0]).min()


def _shifted_lattice(n, dim, n_shifts, seed):
    """n_shifts random shifts of the rank-1 lattice x_i = frac(i z / n),
    z = (1, a, a^2, ...) mod n, each folded by the baker's transform
    1 - |2x - 1|: yields one (n, dim) array per shift.

    The shifts are _lattice_shifts(seed, n_shifts, dim). The Korobov
    multiplier a is _KOROBOV's entry for (n, dim). Dimensions beyond 5
    (factors of 7 or more columns) reuse the dim-5 multiplier, which was not
    chosen for them. The estimate stays unbiased, and z repeats no entry up
    to dimension 16 at any n of the table (the least multiplicative order of
    a multiplier there is 16); beyond that, coordinates repeat and the rule
    degrades.
    """
    a = _KOROBOV[n, min(max(dim, 2), 5)]  # z = (1,) in one dimension
    z = np.ones(dim, dtype=np.int64)
    for j in range(1, dim):
        z[j] = z[j - 1] * a % n
    lattice = (np.arange(n, dtype=np.int64)[:, None] * z % n) / n
    for shift in _lattice_shifts(seed, n_shifts, dim):
        yield 1.0 - np.abs(2.0 * ((lattice + shift) % 1.0) - 1.0)


def _lattice_shifts(seed, n_shifts, dim):
    """The (n_shifts, dim) shifts of one QMC block for seed = (entropy,
    spawn_key), row by row the first draws of a fresh random.Random seeded by
    the ints joined by ":" ((7, (0, 1)) seeds "7:0:1"), a string injective in
    the pair. CPython repeats a str seed's stream across versions, and the
    global random state is untouched."""
    import random  # closed-form calls never import it

    entropy, key = seed
    draw = random.Random(":".join(map(str, (entropy, *key)))).random
    return np.array([draw() for _ in range(n_shifts * dim)]).reshape(n_shifts, dim)


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
    if math.isinf(h) or math.isinf(k):
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


def _horner(x, coefs):
    """The polynomial with coefficients coefs (highest degree first) at the
    array x, by Horner's rule in place (cephes polevl; a leading 1.0 gives p1evl)."""
    out = x * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _erf(x):
    """erf on an array with |x| <= 1 (cephes erf)."""
    x2 = x * x
    return x * _horner(x2, _ERF_T) / _horner(x2, _ERF_U)


def _erfc(x):
    """erfc on an array with x >= 0 (cephes erfc): 1 - erf below 1, the P/Q
    rational below 8, R/S up to _ERFC_MAX_X, and 0 beyond."""
    out = np.zeros_like(x)
    low = x < 1.0
    i = np.flatnonzero(low)
    out[i] = 1.0 - _erf(x[i])
    for mask, num, den in (
        (~low & (x < 8.0), _ERFC_P, _ERFC_Q),
        ((x >= 8.0) & (x <= _ERFC_MAX_X), _ERFC_R, _ERFC_S),
    ):
        i = np.flatnonzero(mask)
        t = x[i]
        out[i] = np.exp(-t * t) * _horner(t, num) / _horner(t, den)
    return out


def _ndtr(x):
    """Phi at each entry of the array x, with the branches of cephes ndtr:
    1/2 + erf/2 near zero and erfc of |x|/sqrt(2) in the tails, where 1 - Phi
    or Phi is small. Each branch is evaluated on its own entries only."""
    z = x * _SQRT_HALF
    out = np.empty_like(z)
    near = np.abs(z) < _SQRT_HALF
    i = np.flatnonzero(near)
    out[i] = 0.5 + 0.5 * _erf(z[i])
    i = np.flatnonzero(~near)
    zt = z[i]
    tail = 0.5 * _erfc(np.abs(zt))
    out[i] = np.where(zt > 0.0, 1.0 - tail, tail)
    return out


def _ndtri(p):
    """Phi^-1 at each entry of the array p in (0, 1): Wichura's AS241
    (PPND16), relative error about 1e-16. Each branch is evaluated on its
    own entries only."""
    q = p - 0.5
    out = np.empty_like(q)
    central = np.abs(q) <= 0.425
    i = np.flatnonzero(central)
    qc = q[i]
    r = 0.180625 - qc * qc
    out[i] = qc * _horner(r, _AS241_A) / _horner(r, _AS241_B)
    i = np.flatnonzero(~central)
    pt = p[i]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    near = r <= 5.0
    j, k = np.flatnonzero(near), np.flatnonzero(~near)
    rn, rf = r[j] - 1.6, r[k] - 5.0
    r[j] = _horner(rn, _AS241_C) / _horner(rn, _AS241_D)
    r[k] = _horner(rf, _AS241_E) / _horner(rf, _AS241_F)
    out[i] = np.copysign(r, q[i])
    return out


def _genz_values(factor, a, b, groups, w):
    """Genz's separation-of-variables integrand at the points w in [0, 1]^(q-1);
    groups[i] lists the rows that end in column i, with positive coefficients."""
    m, q = w.shape[0], len(groups)
    ys = np.empty((m, q - 1))
    # the first coordinate's center is 0, so its two Phi values are scalars
    lo, hi = map(_norm_cdf, _first_interval(factor, a, b, groups[0]))
    f = np.full(m, max(hi - lo, 0.0))
    for i in range(1, q):
        ys[:, i - 1] = _ndtri(np.clip(lo + w[:, i - 1] * (hi - lo), 1e-16, 1.0 - 1e-16))
        rows = groups[i]
        if rows.size == 1:
            r = rows[0]
            center = ys[:, :i] @ factor[r, :i]
            # an infinite bound has Phi 0 or 1 exactly
            lo = 0.0 if a[r] == -np.inf else _ndtr((a[r] - center) / factor[r, i])
            hi = 1.0 if b[r] == np.inf else _ndtr((b[r] - center) / factor[r, i])
        else:
            center = ys[:, :i] @ factor[rows, :i].T
            lo = _ndtr(np.max((a[rows] - center) / factor[rows, i], axis=1))
            hi = _ndtr(np.min((b[rows] - center) / factor[rows, i], axis=1))
        f *= np.maximum(hi - lo, 0.0)
    return f
