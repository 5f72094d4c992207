import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal, norm

import lassodist as ld
from conftest import SRC
from lassodist import _genz
from lassodist._genz import _KOROBOV, _lattice_size, _ndtr, _ndtri, _shifted_lattice
from lassodist.distribution import (
    _BOUND_SE,
    _EXACT_TOL,
    _GENZ_POINTS,
    _PIVOT_RTOL,
    _bvn_cdf,
    _factor,
    _norm_cdf,
    _rectangle,
)
from lassodist.errors import (
    ConditioningError,
    DimensionLimitError,
    InputError,
    NumericalError,
)
from mvn_oracle import box_prob, cdf_value, event_prob, singular_box_prob

GRAM2 = np.array([[1.0, 0.5], [0.5, 1.0]])
LAM2 = np.array([0.75, 0.75])
BETA2 = np.array([0.0, -0.25])

# sign-pattern masses at the boundary z = -beta for the design above,
# frozen from the linear-transform oracle (tests/mvn_oracle.py)
NINE_EVENTS = {
    (-1, -1): 0.06649414119487884,
    (-1, 0): 0.13854818402058441,
    (-1, 1): 0.02313959156524229,
    (0, -1): 0.1760304782032126,
    (0, 0): 0.3196725824690695,
    (0, 1): 0.09051786805044029,
    (1, -1): 0.039850210974996456,
    (1, 0): 0.11494730289752543,
    (1, 1): 0.030799640624050086,
}

# F(z) at error-coordinate thresholds, same design, same oracle
CDF_VALUES = {
    (0.0, 0.25): 0.7007453858877454,
    (0.4, -0.1): 0.16291995922582636,
    (-0.3, 0.6): 0.13996574455363875,
    (1.0, 1.0): 0.9326418970535767,
    (-1.2, 0.2): 0.005971788663123534,
}


@pytest.fixture
def setup2(corr2):
    model = ld.gaussian_model(corr2, BETA2, 1.0)
    tuning = ld.tuning_vector(LAM2)
    return corr2, model, tuning


def test_nine_orthant_masses_partition(setup2):
    prob, model, tuning = setup2
    total = 0.0
    for d, expected in NINE_EVENTS.items():
        r = ld.orthant_mass(prob, model, tuning, ld.SignVector(d=d))
        assert r.method == "quadrature" and r.std_error == 0.0
        assert abs(r.estimate - expected) <= 1e-9, d
        total += r.estimate
    assert abs(total - 1.0) <= 1e-9


def test_event_matches_transform_oracle(setup2):
    prob, model, tuning = setup2
    ev1 = ld.error_orthant_event([0.0, -0.1], (0, -1))
    r1 = ld.prob_orthant_event(prob, model, tuning, ev1)
    assert abs(r1.estimate - 0.11277276707536031) <= 1e-9
    assert abs(r1.estimate - event_prob(GRAM2, LAM2, BETA2, 1.0, (0, -1), [0.0, -0.1])) <= 1e-8

    ev2 = ld.error_orthant_event([0.2, 0.25], (1, 0))
    r2 = ld.prob_orthant_event(prob, model, tuning, ev2)
    assert abs(r2.estimate - 0.08506402807606211) <= 1e-9
    assert abs(r2.estimate - event_prob(GRAM2, LAM2, BETA2, 1.0, (1, 0), [0.2, 0.25])) <= 1e-8


def test_event_quad_vs_mc(setup2):
    prob, model, tuning = setup2
    ev = ld.error_orthant_event([-0.0, 0.25], (0, 0))
    quad = ld.prob_orthant_event(prob, model, tuning, ev)
    mc = ld.prob_orthant_event(prob, model, tuning, ev, method="mc", n_samples=20_000, seed=3)
    assert mc.method == "monte-carlo" and mc.n_samples == 20_000
    assert abs(quad.estimate - mc.estimate) <= 3.0 * mc.std_error + 1e-3


def test_estimator_event_coordinates(setup2):
    prob, model, tuning = setup2
    # estimator thresholds shift by beta internally
    ev = ld.estimator_orthant_event(model, [0.0, 0.4], (0, 1))
    assert abs(ev.z[0] - 0.0) <= 1e-15
    assert abs(ev.z[1] - 0.65) <= 1e-15
    # default signs come from sgn(z)
    ev2 = ld.estimator_orthant_event(model, [0.3, -0.2])
    assert ev2.d.d == (1, -1)
    with pytest.raises(InputError):
        ld.estimator_orthant_event(model, [0.1, 0.4], (0, 1))


def test_event_validation(setup2):
    prob, model, tuning = setup2
    # threshold strictly on the positive side contradicts D-
    with pytest.raises(InputError):
        ld.prob_orthant_event(prob, model, tuning, ld.error_orthant_event([0.5, 0.0], (-1, -1)))
    # D0 requires z_j = -beta_j
    with pytest.raises(InputError):
        ld.prob_orthant_event(prob, model, tuning, ld.error_orthant_event([0.3, 0.0], (0, -1)))
    with pytest.raises(InputError):
        ld.prob_orthant_event(prob, model, tuning, ld.error_orthant_event([np.inf, 0.25], (1, 0)))
    with pytest.raises(InputError):
        ld.error_orthant_event([0.0], (0, 1))
    with pytest.raises(InputError):
        ld.prob_orthant_event(prob, model, tuning, ld.error_orthant_event([0.0], (0,)))
    with pytest.raises(InputError):
        ld.prob_orthant_event(
            prob, model, tuning, ld.error_orthant_event([0.0, 0.25], (0, 0)), method="midpoint"
        )


def test_unpenalized_coordinate_has_no_atom(corr2):
    model = ld.gaussian_model(corr2, BETA2, 1.0)
    tuning = ld.tuning_vector([0.75, 0.0])
    r = ld.prob_orthant_event(
        corr2, model, tuning, ld.error_orthant_event([0.1, 0.25], (1, 0))
    )
    assert r.estimate == 0.0 and r.method == "quadrature"


def test_cdf_frozen_values(setup2):
    prob, model, tuning = setup2
    for z, expected in CDF_VALUES.items():
        got = ld.cdf(prob, model, tuning, np.array(z))
        assert abs(got - expected) <= 1e-9, z
        assert abs(got - cdf_value(GRAM2, LAM2, BETA2, 1.0, np.array(z))) <= 1e-8, z


def test_cdf_monotone_and_extreme(setup2):
    prob, model, tuning = setup2
    base = ld.cdf(prob, model, tuning, [0.1, 0.1])
    assert base <= ld.cdf(prob, model, tuning, [0.6, 0.1]) + 1e-9
    assert base <= ld.cdf(prob, model, tuning, [0.1, 0.6]) + 1e-9
    assert ld.cdf(prob, model, tuning, [8.0, 8.0]) >= 1.0 - 1e-5
    assert ld.cdf(prob, model, tuning, [-8.0, -8.0]) <= 1e-7


def test_cdf_estimator_coordinates(setup2):
    prob, model, tuning = setup2
    z_est = np.array([0.2, -0.1])
    a = ld.cdf(prob, model, tuning, z_est, coords="estimator")
    b = ld.cdf(prob, model, tuning, z_est - BETA2, coords="error")
    assert abs(a - b) <= 1e-12
    with pytest.raises(InputError):
        ld.cdf(prob, model, tuning, z_est, coords="raw")


def test_cdf_rejects_nan_and_keeps_infinite_thresholds(setup2):
    prob, model, tuning = setup2
    with pytest.raises(InputError):
        ld.cdf(prob, model, tuning, [np.nan, 0.25])
    assert abs(ld.cdf(prob, model, tuning, [np.inf, np.inf]) - 1.0) <= 1e-15
    assert ld.cdf(prob, model, tuning, [-np.inf, 0.25]) == 0.0
    marginal = ld.cdf(prob, model, tuning, [np.inf, 0.25])
    assert abs(marginal - cdf_value(GRAM2, LAM2, BETA2, 1.0, np.array([40.0, 0.25]))) <= 1e-8


def test_cdf_matches_simulation(setup2):
    prob, model, tuning = setup2
    z_est = np.array([0.15, -0.05])
    analytic = ld.cdf(prob, model, tuning, z_est, coords="estimator")
    mc = ld.prob_region_high(
        prob, model, tuning, ld.region_below(z_est), n_samples=20_000, seed=11
    )
    assert abs(analytic - mc.estimate) <= 3.0 * mc.std_error + 1e-3


def test_cdf_dimension_limit():
    prob = ld.build_problem(np.eye(5))
    model = ld.gaussian_model(prob, np.zeros(5), 1.0)
    with pytest.raises(DimensionLimitError):
        ld.cdf(prob, model, ld.uniform_tuning(5, 1.0), np.zeros(5))


def test_quad_requires_full_rank(n1p2):
    model = ld.gaussian_model(n1p2, [1.0, 0.0], 1.0)
    t = ld.uniform_tuning(2, 2.0)
    ev = ld.error_orthant_event([-1.0, 0.0], (0, 0))
    with pytest.raises(InputError):
        ld.prob_orthant_event(n1p2, model, t, ev)
    with pytest.raises(InputError):
        ld.cdf(n1p2, model, t, [0.0, 0.0])
    with pytest.raises(InputError):
        ld.error_density(n1p2, model, t, [0.1, 0.1])


def test_quad_dimension_limit():
    prob = ld.build_problem(np.eye(7))
    model = ld.gaussian_model(prob, np.zeros(7), 1.0)
    ev = ld.error_orthant_event(np.zeros(7), (-1,) * 7)
    with pytest.raises(DimensionLimitError):
        ld.prob_orthant_event(prob, model, ld.uniform_tuning(7, 1.0), ev)


def test_prob_all_zero_full_rank(setup2):
    prob, model, tuning = setup2
    r = ld.prob_all_zero(prob, model, tuning)
    expected = box_prob(GRAM2 @ BETA2, GRAM2, -LAM2, LAM2)
    assert abs(r.estimate - NINE_EVENTS[(0, 0)]) <= max(4.0 * r.quad_tol, 1e-6)
    assert abs(r.estimate - expected) <= max(4.0 * r.quad_tol, 1e-6)


def test_oracle_box_prob_repeats():
    # scipy integrates a 4-coordinate box by randomized quasi-Monte Carlo, so
    # the oracle repeats only where its fixed generator reaches that
    # integration; unseeded, three calls here differ by up to 1.5e-8
    cov = 0.5 * np.eye(4) + 0.5
    args = (np.zeros(4), cov, -np.ones(4), np.full(4, 0.5))
    assert box_prob(*args, abseps=1e-7) == box_prob(*args, abseps=1e-7)


def test_prob_all_zero_rank_one(n1p2):
    t = ld.uniform_tuning(2, 2.0)
    # X'y = (y, 2y) lies in the box iff |y| <= 1; y ~ N(mu, 1)
    for mu_beta in ([1.0, 0.0], [0.0, 0.0]):
        model = ld.gaussian_model(n1p2, mu_beta, 1.0)
        mu = model.mu[0]
        r = ld.prob_all_zero(n1p2, model, t)
        assert r.method == "quadrature"
        assert abs(r.estimate - (norm.cdf(1.0 - mu) - norm.cdf(-1.0 - mu))) <= 1e-13


def test_prob_all_zero_frozen_atoms(n1p2):
    t = ld.uniform_tuning(2, 2.0)
    r1 = ld.prob_all_zero(n1p2, ld.gaussian_model(n1p2, [1.0, 0.0], 1.0), t)
    assert abs(r1.estimate - 0.4772498680518208) <= 1e-12
    r0 = ld.prob_all_zero(n1p2, ld.gaussian_model(n1p2, [0.0, 0.0], 1.0), t)
    assert abs(r0.estimate - 0.6826894921370859) <= 1e-12


def test_prob_all_zero_mc(n1p2):
    t = ld.uniform_tuning(2, 2.0)
    model = ld.gaussian_model(n1p2, [1.0, 0.0], 1.0)
    analytic = ld.prob_all_zero(n1p2, model, t)
    mc = ld.prob_all_zero(n1p2, model, t, method="mc", n_samples=20_000, seed=5)
    assert abs(analytic.estimate - mc.estimate) <= 3.0 * mc.std_error + 1e-3


def test_prob_all_zero_intermediate_rank(x2x3):
    # rank 2 of p = 3: one rectangle on a two-column factor, the Genz
    # transform in one dimension, against the eigenvector-coordinate oracle
    # and against Monte Carlo over the solver
    t = ld.tuning_vector([1.0, 0.8, 1.2])
    for beta in ([0.0, 0.0, 0.0], [0.4, -0.3, 0.2]):
        model = ld.gaussian_model(x2x3, beta, 1.0)
        r = ld.prob_all_zero(x2x3, model, t, seed=3)
        assert r.method == "quadrature" and r.n_samples == _GENZ_POINTS
        mean = x2x3.gram @ model.beta
        want, want_err = singular_box_prob(mean, x2x3.gram, -t.lam, t.lam)
        assert want_err < 1e-12
        assert abs(r.estimate - want) <= r.quad_tol
        box = ld.mvn_box_probability(mean, x2x3.gram, -t.lam, t.lam, n_samples=_GENZ_POINTS, seed=3)
        assert box.estimate == r.estimate and box.quad_tol == r.quad_tol
        mc = ld.prob_all_zero(x2x3, model, t, method="mc", n_samples=20_000, seed=2)
        assert abs(r.estimate - mc.estimate) <= 3.0 * mc.std_error + r.quad_tol


def test_conditional_density_one_dimensional():
    prob = ld.build_problem(np.array([[1.0]]))
    model = ld.gaussian_model(prob, [0.0], 1.0)
    t = ld.tuning_vector([0.5])
    d = ld.SignVector(d=(1,))
    # f(z | bhat > 0) = phi(z + 1/2) / Phi(-1/2) for z > 0
    for z in (0.25, 1.0):
        got = ld.conditional_density(prob, model, t, d, [z])
        assert abs(got - norm.pdf(z + 0.5) / norm.cdf(-0.5)) <= 1e-9
    assert abs(ld.conditional_density(prob, model, t, d, [0.25]) - 0.9760155389786962) <= 1e-9
    assert abs(ld.conditional_density(prob, model, t, d, [1.0]) - 0.41977905249615904) <= 1e-9
    assert ld.conditional_density(prob, model, t, d, [-0.1]) == 0.0


def test_conditional_density_matches_error_density(setup2):
    # with no pinned coordinates the conditional density is the continuous
    # part of the error density rescaled by the orthant mass
    prob, model, tuning = setup2
    d = ld.SignVector(d=(1, -1))
    z = np.array([0.6, -0.45])
    mass = ld.orthant_mass(prob, model, tuning, d).estimate
    lhs = ld.conditional_density(prob, model, tuning, d, z)
    rhs = ld.error_density(prob, model, tuning, z) / mass
    assert abs(lhs - rhs) <= 1e-9


def test_conditional_density_matches_oracle_derivative(setup2):
    # d/dz P(bhat_2 >= z, bhat_1 = 0) recovers the conditional density of the
    # moving coordinate, via the transform oracle and a central difference
    prob, model, tuning = setup2
    d = ld.SignVector(d=(0, 1))
    z1, h = 0.6, 1e-4
    lo = event_prob(GRAM2, LAM2, BETA2, 1.0, (0, 1), [0.0, z1 - h])
    hi = event_prob(GRAM2, LAM2, BETA2, 1.0, (0, 1), [0.0, z1 + h])
    mass = event_prob(GRAM2, LAM2, BETA2, 1.0, (0, 1), [0.0, 0.25])
    fd = (lo - hi) / (2.0 * h) / mass
    got = ld.conditional_density(prob, model, tuning, d, [z1])
    assert abs(got - fd) <= 1e-5


def test_conditional_density_errors(setup2):
    prob, model, tuning = setup2
    with pytest.raises(InputError):
        ld.conditional_density(prob, model, tuning, ld.SignVector(d=(1, -1)), [0.5])
    far = ld.gaussian_model(prob, [-12.0, -12.0], 1.0)
    with pytest.raises(ConditioningError):
        ld.conditional_density(prob, far, tuning, ld.SignVector(d=(1, 1)), [13.0, 13.0])


def test_conditional_density_rejects_non_finite_points(setup2):
    prob, model, tuning = setup2
    d = ld.SignVector(d=(1, -1))
    for bad in ([np.nan, 0.2], [0.3, np.inf], [-np.inf, 0.2]):
        with pytest.raises(InputError):
            ld.conditional_density(prob, model, tuning, d, bad)


def test_conditional_density_bounds_the_orthant_block_alone():
    # the density divides by P(u_A in the orthant), so its guard must bound
    # that block's error. With a small lambda-box mass p_0 the product
    # P(bhat in O^d) = p_a p_0 is known far better than p_a itself
    beta = np.array([0.3, -0.2, 0.4, 0.0])
    lam = np.array([0.5, 0.6, 0.7, 0.02])
    prob, model, _, _, _ = _random_setup(4, 0, beta)
    tuning = ld.tuning_vector(lam)
    d = ld.SignVector(d=(1, -1, 1, 0))
    z = -beta[:3] + np.array([0.2, -0.3, 0.1])
    mass = ld.orthant_mass(prob, model, tuning, d, quad_tol=0.0)
    assert mass.n_samples == _GENZ_POINTS  # one Genz block: u_A, three coordinates
    assert mass.estimate < 0.01 and mass.quad_tol < 1e-7
    with pytest.raises(NumericalError):
        ld.conditional_density(prob, model, tuning, d, z, quad_tol=1e-7)
    assert ld.conditional_density(prob, model, tuning, d, z, quad_tol=1e-5) > 0.0


def test_error_density_formula(setup2):
    prob, model, tuning = setup2
    z = np.array([0.3, 0.2])  # z + beta = (0.3, -0.05): strict signs (1, -1)
    d = np.array([1.0, -1.0])
    expected = abs(np.linalg.det(GRAM2)) * multivariate_normal.pdf(
        GRAM2 @ z + d * LAM2, mean=np.zeros(2), cov=GRAM2
    )
    assert abs(ld.error_density(prob, model, tuning, z) - expected) <= 1e-12
    # a coordinate exactly at the atom position carries no 2-d density
    assert ld.error_density(prob, model, tuning, [0.0, 0.2]) == 0.0


def test_error_density_needs_full_rank_at_any_p():
    # p = 7 is past QUAD_DIM_LIMIT, but the density integrates nothing
    rng = np.random.default_rng(707)
    X = rng.normal(size=(12, 7))
    prob = ld.build_problem(X)
    beta = rng.normal(size=7)
    model = ld.gaussian_model(prob, beta, 0.8)
    tuning = ld.tuning_vector(rng.uniform(0.5, 1.5, size=7))
    z = rng.normal(scale=0.3, size=7)
    d = np.sign(z + beta)
    assert np.all(d != 0.0)
    # u = G^-1 (X'eps - d lam) ~ N(-G^-1 d lam, sigma^2 G^-1) on the orthant of d
    gram = X.T @ X
    cov = 0.8**2 * np.linalg.inv(gram)
    r = z + np.linalg.solve(gram, d * tuning.lam)
    want = math.exp(-0.5 * r @ np.linalg.solve(cov, r)) / math.sqrt(
        (2.0 * math.pi) ** 7 * np.linalg.det(cov))
    got = ld.error_density(prob, model, tuning, z)
    assert want > 0.0 and abs(got - want) <= 1e-9 * want
    wide = ld.build_problem(X[:5])
    with pytest.raises(InputError):
        ld.error_density(wide, ld.gaussian_model(wide, beta, 0.8), tuning, z)


def test_error_density_rejects_non_finite_points(setup2):
    prob, model, tuning = setup2
    for bad in ([np.nan, 0.2], [0.3, np.inf], [-np.inf, -np.inf]):
        with pytest.raises(InputError):
            ld.error_density(prob, model, tuning, bad)


def test_error_density_is_cdf_mixed_partial(setup2):
    prob, model, tuning = setup2
    z = np.array([0.3, 0.2])
    h = 5e-3
    f = lambda a, b: ld.cdf(prob, model, tuning, [a, b], quad_tol=1e-9)
    fd = (
        f(z[0] + h, z[1] + h)
        - f(z[0] + h, z[1] - h)
        - f(z[0] - h, z[1] + h)
        + f(z[0] - h, z[1] - h)
    ) / (4.0 * h * h)
    assert abs(ld.error_density(prob, model, tuning, z) - fd) <= 5e-4


def test_tail_thresholds_stay_finite(setup2):
    prob, model, tuning = setup2
    far = ld.prob_orthant_event(
        prob, model, tuning, ld.error_orthant_event([5.0, 6.0], (1, 1))
    )
    assert np.isfinite(far.estimate) and 0.0 <= far.estimate < 1e-6
    deep = ld.prob_orthant_event(
        prob, model, tuning, ld.error_orthant_event([-8.0, -9.0], (-1, -1))
    )
    assert np.isfinite(deep.estimate) and 0.0 <= deep.estimate < 1e-10


def test_fiber_invariance_bitwise(n1p2):
    # two parameter vectors with the same mean X beta: Monte Carlo results
    # agree bit for bit at the same seed
    t = ld.uniform_tuning(2, 2.0)
    m1 = ld.gaussian_model(n1p2, [1.0, 0.0], 1.0)
    m2 = ld.gaussian_model(n1p2, [0.0, 0.5], 1.0)
    e1 = ld.estimator_orthant_event(m1, [0.0, 0.3], (0, 1))
    e2 = ld.estimator_orthant_event(m2, [0.0, 0.3], (0, 1))
    r1 = ld.prob_orthant_event(n1p2, m1, t, e1, method="mc", n_samples=8192, seed=9)
    r2 = ld.prob_orthant_event(n1p2, m2, t, e2, method="mc", n_samples=8192, seed=9)
    assert r1.estimate == r2.estimate


def test_region_predicates(n1p2):
    t = ld.uniform_tuning(2, 2.0)
    model = ld.gaussian_model(n1p2, [1.0, 0.0], 1.0)
    never = ld.prob_region_high(
        n1p2, model, t, ld.region_support_includes(0), n_samples=4096, seed=0
    )
    assert never.estimate == 0.0
    with pytest.raises(InputError):
        ld.prob_region_high(n1p2, model, t, ld.region_below([0.0, 0.0]), method="quad")


def test_mc_probabilities_equal_prob_region_high(setup2, n1p2):
    # method="mc" is prob_region_high with the event's predicate: the same
    # record, field for field, at the same seed and solver tolerance
    zero_tol = 1e-9
    cases = (
        (*setup2, ld.error_orthant_event([0.1, 0.25], (1, 0))),
        (n1p2, ld.gaussian_model(n1p2, [1.0, 0.0], 1.0), ld.uniform_tuning(2, 2.0),
         ld.error_orthant_event([-1.0, 0.3], (0, 1))),
    )
    for prob, model, tuning, event in cases:
        signs = event.d.as_array()
        edge = signs * (event.z + model.beta)

        def in_event(B):
            sb = signs * B
            moving = (sb > zero_tol) & (sb >= edge)
            return np.all(np.where(signs == 0, np.abs(B) <= zero_tol, moving), axis=1)

        def all_zero(B):
            return np.all(np.abs(B) <= zero_tol, axis=1)

        kwargs = dict(n_samples=10_000, seed=11, solver_tol=1e-9)
        pairs = (
            (ld.prob_orthant_event(prob, model, tuning, event, method="mc",
                                   zero_tol=zero_tol, **kwargs), in_event),
            (ld.prob_all_zero(prob, model, tuning, method="mc", zero_tol=zero_tol, **kwargs),
             all_zero),
        )
        for got, region in pairs:
            want = ld.prob_region_high(prob, model, tuning, region, **kwargs)
            assert 0.0 < want.estimate < 1.0
            assert vars(got) == vars(want)


def test_mvn_box_exact_one_dimensional():
    r = ld.mvn_box_probability([0.0], [[4.0]], [-2.0], [2.0])
    assert abs(r.estimate - (norm.cdf(1.0) - norm.cdf(-1.0))) <= 1e-14
    assert r.method == "quadrature"


def test_mvn_box_diagonal_product():
    r = ld.mvn_box_probability(
        [1.0, -1.0], np.diag([1.0, 4.0]), [0.0, -3.0], [2.0, 1.0], n_samples=32768
    )
    expected = (norm.cdf(1.0) - norm.cdf(-1.0)) * (norm.cdf(1.0) - norm.cdf(-1.0))
    assert abs(r.estimate - expected) <= max(4.0 * r.quad_tol, 1e-6)


def test_mvn_box_matches_scipy():
    cov = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 1.5]])
    mean = np.array([0.1, -0.2, 0.3])
    lower = np.array([-1.0, -np.inf, -2.0])
    upper = np.array([1.5, 0.8, np.inf])
    r = ld.mvn_box_probability(mean, cov, lower, upper, n_samples=65536)
    assert abs(r.estimate - box_prob(mean, cov, lower, upper)) <= max(4.0 * r.quad_tol, 1e-5)


def test_mvn_box_deterministic():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    a = ld.mvn_box_probability([0.0, 0.0], cov, [-1.0, -1.0], [1.0, 1.0], seed=4)
    b = ld.mvn_box_probability([0.0, 0.0], cov, [-1.0, -1.0], [1.0, 1.0], seed=4)
    assert a.estimate == b.estimate


@pytest.mark.parametrize("mean,lower,upper", [
    ((0.0, 0.0), (0.0, -np.inf), (np.inf, 0.0)),
    ((0.0, 0.0), (-np.inf, -np.inf), (0.0, 0.0)),
    ((0.1, 0.0), (0.5, -1.0), (2.0, 0.0)),
    ((0.1, 0.0), (-0.3, 1.2), (0.4, np.inf)),
    ((0.1, 0.0), (-6.0, -7.0), (-5.0, -6.5)),
])
def test_mvn_box_bivariate_closed_form(mean, lower, upper):
    # zero and infinite standardized corners, mirrored axes and a far tail
    cov = np.array([[1.5, -0.9], [-0.9, 1.0]])
    r = ld.mvn_box_probability(mean, cov, lower, upper)
    assert r.n_samples == 0 and r.seed is None
    assert abs(r.estimate - box_prob(mean, cov, lower, upper)) <= 2e-11


def _bvn_reference(h, k, rho, r):
    """P(x <= h, y <= k) as the integral of phi(x) Phi((k - rho x) / r) over
    x <= h, split where Phi's argument changes sign; the mass beyond |x| = 12
    (below 1e-32) is left out. At this tolerance QUADPACK reports roundoff
    (full_output keeps that off the warnings) while agreeing with a
    40-digit reference to about 1e-15."""
    top = min(h, 12.0)
    if top <= -12.0:
        return 0.0
    kinks = [k / rho + j * r / abs(rho) for j in (-8, 0, 8)] if rho and math.isfinite(k) else []
    return integrate.quad(
        lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * ndtr((k - rho * x) / r),
        -12.0, top, points=[x for x in kinks if -12.0 < x < top] or None,
        epsabs=1e-15, epsrel=0.0, limit=200, full_output=1,
    )[0]


def test_bvn_cdf_matches_quadrature():
    # both branches of BVND (|rho| below and above 0.925), up to |rho| = 1 - 1e-7,
    # at zero, infinite and far-tail corners
    edges = (-9.0, -4.5, -1.7, -0.4, 0.0, 0.3, 1.2, 2.8, 5.0, 9.0, -np.inf, np.inf)
    rhos = (-0.9999999, -0.999, -0.95, -0.93, -0.92, -0.6, -0.2, 0.0,
            0.3, 0.7, 0.924, 0.926, 0.98, 0.9999999)
    for h, k, rho in product(edges, edges, rhos):
        r = math.sqrt(1.0 - rho * rho)
        got = _bvn_cdf(h, k, rho, r)
        assert abs(got - _bvn_reference(h, k, rho, r)) <= _EXACT_TOL, (h, k, rho)


def test_norm_cdf_matches_ndtr():
    x = np.linspace(-20.0, 9.0, 5801)
    got = np.array([_norm_cdf(float(v)) for v in x])
    assert np.all(np.abs(got - ndtr(x)) <= 2e-14 * ndtr(x))
    assert _norm_cdf(-np.inf) == 0.0 and _norm_cdf(np.inf) == 1.0


def _both_sides(points):
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])


def test_ndtr_port_matches_scipy():
    # cephes' branch edges sit at |x| / sqrt(2) = 1/sqrt(2), 1 and 8
    edges = [s * e for s in (-1.0, 1.0) for e in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0))]
    x = np.concatenate([np.linspace(-38.0, 9.0, 94001), _both_sides(edges), [0.0]])
    got, want = _ndtr(x), ndtr(x)
    assert np.all(np.abs(got - want) <= 2e-15 * want)
    # scipy's far tail underflows to 0, so the check above needs an exact 0 there
    assert np.count_nonzero(want == 0.0) > 0
    assert np.array_equal(_ndtr(np.array([-np.inf, np.inf])), [0.0, 1.0])


def test_ndtri_port_matches_scipy():
    # AS241's branch edges sit at |p - 1/2| = 0.425 and at min(p, 1 - p) = e^-25
    edges = [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)]
    p = np.concatenate([
        np.linspace(0.0, 1.0, 100001)[1:-1],
        np.logspace(-300.0, -1.0, 3001),
        1.0 - np.logspace(-16.0, -1.0, 1501),
        _both_sides(edges),
        [1e-16, 1.0 - 1e-16],
    ])
    got, want = _ndtri(p), ndtri(p)
    assert np.all(np.abs(got - want) <= 4e-15 * np.abs(want))


def _scipy_genz_values(chol, a, b, groups, w):
    # the integrand with scipy's ufuncs: the reference for the numpy ports on
    # full-rank factors, where the row that ends in column i is row i
    assert [g.tolist() for g in groups] == [[i] for i in range(a.shape[0])]
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
    return f


def test_rectangle_matches_scipy_ufunc_integrand(monkeypatch):
    rng = np.random.default_rng(81)
    cases = []
    for k in (3, 4, 5) * 16:
        f = rng.normal(size=(k, k))
        chol = np.linalg.cholesky(f @ f.T / k + 0.3 * np.eye(k))
        a = rng.uniform(-2.5, 0.5, k)
        b = a + rng.uniform(0.3, 4.0, k)
        a[rng.random(k) < 0.3] = -np.inf
        b[rng.random(k) < 0.3] = np.inf
        cases.append((chol, a, b, (int(rng.integers(2**31)), ())))
    ours = [_rectangle(*case) for case in cases]
    monkeypatch.setattr(_genz, "_genz_values", _scipy_genz_values)
    theirs = [_rectangle(*case) for case in cases]
    assert sum(np.isinf(a).any() and np.isinf(b).any() for _, a, b, _ in cases) > 0
    for mine, ref in zip(ours, theirs):
        assert mine[3] == ref[3] == _GENZ_POINTS
        assert abs(mine[0] - ref[0]) <= 1e-13, (mine, ref)


def test_mvn_box_singular_covariance():
    # rank-one covariance: both coordinates equal one N(0,1) draw, an interval
    cov = np.ones((2, 2))
    r = ld.mvn_box_probability([0.0, 0.0], cov, [-1.0, -1.0], [1.0, 1.0], n_samples=40_000)
    assert r.method == "quadrature" and r.n_samples == 0 and r.quad_tol == _EXACT_TOL
    assert abs(r.estimate - 0.6826894921370859) <= 1e-14


def test_mvn_box_rank_two_of_three():
    # x = (w_1, w_2, w_1 + w_2): two columns under three rows, so the Genz
    # transform runs in one dimension; the value is the oracle's, which equals
    # 2 int_0^1 phi(w) (Phi(1 - w) - Phi(-1)) dw = 0.36849253273889432...
    f = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    want, want_err = singular_box_prob(np.zeros(3), f @ f.T, -np.ones(3), np.ones(3))
    assert abs(want - 0.36849253273889432) <= 1e-15 and want_err < 1e-13
    for n_samples in (8192, _GENZ_POINTS):
        r = ld.mvn_box_probability(np.zeros(3), f @ f.T, -np.ones(3), np.ones(3),
                                   n_samples=n_samples)
        assert r.method == "quadrature" and r.n_samples == n_samples
        assert abs(r.estimate - want) <= r.quad_tol < 1e-6


@pytest.mark.parametrize("f,mean,lower,upper", [
    # a duplicated row, a negated row and a zero row around a full-rank pair
    ([[1.0, 0.0], [0.5, 1.0], [-0.5, -1.0], [0.0, 0.0]], [0.2, -0.1, 0.1, 0.3],
     [-1.0, -np.inf, -0.5, 0.0], [1.5, 0.8, np.inf, 0.5]),
    # rank one in four coordinates, one of them of zero variance: an interval
    ([[1.0], [-2.0], [0.0], [0.5]], [0.0, 0.3, -0.2, 0.1],
     [-1.0, -1.0, -0.2, -np.inf], [np.inf, 2.0, 0.1, 0.4]),
    # a row that ends in the first column after the second opened
    ([[1.0, 0.0], [0.3, 0.8], [2.0, 0.0]], [0.0, 0.0, 0.0],
     [-1.0, -1.0, -1.5], [1.0, 0.5, 1.0]),
])
def test_mvn_box_singular_matches_oracle(f, mean, lower, upper):
    f = np.array(f)
    cov = f @ f.T
    want, want_err = singular_box_prob(mean, cov, lower, upper)
    assert want_err < 1e-12 and want > 0.01
    r = ld.mvn_box_probability(mean, cov, lower, upper, n_samples=_GENZ_POINTS)
    assert r.method == "quadrature"
    assert abs(r.estimate - want) <= r.quad_tol
    if f.shape[1] == 1:
        assert r.n_samples == 0 and r.quad_tol == _EXACT_TOL


def test_mvn_box_zero_covariance_is_an_indicator():
    cov = np.zeros((2, 2))
    inside = ld.mvn_box_probability([0.5, 0.0], cov, [0.0, 0.0], [1.0, 0.0])
    outside = ld.mvn_box_probability([0.5, 0.0], cov, [0.0, 1e-9], [1.0, 1.0])
    # means off their point bounds by rounding (0.1 + 0.2 and 0.7 - 0.4
    # against 0.3, one on each side) are inside
    rounded = ld.mvn_box_probability([0.1 + 0.2, 0.7 - 0.4], cov, [0.3, 0.3], [0.3, 0.3])
    assert (inside.estimate, outside.estimate, rounded.estimate) == (1.0, 0.0, 1.0)
    assert inside.n_samples == outside.n_samples == 0


def test_mvn_box_with_no_coordinates_is_certain():
    # an empty box has an empty spectrum: the semidefiniteness check is skipped
    r = ld.mvn_box_probability([], np.zeros((0, 0)), [], [])
    assert (r.estimate, r.quad_tol, r.n_samples, r.seed) == (1.0, 0.0, 0, None)


def test_factor_matches_cholesky_and_drops_at_its_threshold():
    # on full-rank covariances it is LAPACK's Cholesky to rounding, and
    # bitwise for two coordinates, which keeps the p = 2 goldens' bytes
    rng = np.random.default_rng(11)
    for m in range(1, 7):
        f = rng.normal(size=(m, m))
        cov = f @ f.T / m + 0.3 * np.eye(m)
        chol = np.linalg.cholesky(cov)
        assert np.max(np.abs(_factor(cov) - chol)) <= 4e-16 * np.max(np.abs(chol)), m
    for _ in range(200):
        f = rng.normal(size=(2, 2))
        cov = f @ f.T + 0.1 * np.eye(2)
        assert np.array_equal(_factor(cov), np.linalg.cholesky(cov))
    # the second pivot's remaining variance 1 - b^2 against 2 eps for m = 2:
    # b = 1 - 2^-52 leaves exactly 2^-51 = 2 eps (dropped), b = 1 - 3 2^-53
    # leaves 3 eps (kept)
    assert _PIVOT_RTOL == 2.0**-52
    for b, rank in ((1.0 - 2.0**-52, 1), (1.0 - 3.0 * 2.0**-53, 2)):
        factor = _factor(np.array([[1.0, b], [b, 1.0]]))
        assert factor.shape == (2, rank)
        assert factor[1, 0] == b
    # a dropped pivot's row keeps its entries but zeroes rounding-level ones:
    # x_3 = 0.1 x_1 leaves 1.9e-18 on the second column before the zeroing
    f = np.array([[0.7, 0.0], [0.2, 0.9], [0.07, 0.0]])
    factor = _factor(f @ f.T)
    assert factor.shape == (3, 2) and factor[2, 1] == 0.0
    assert abs(factor[2, 0] - 0.07) <= 1e-17


def test_mvn_box_rejects_fewer_than_two_shifts():
    # one shift has no standard error (it would claim an exact result), none
    # would divide by zero, and a negative count cannot size the lattice
    mean, cov = np.zeros(3), np.eye(3) + 0.3
    for n_shifts in (1, 0, -2):
        with pytest.raises(InputError, match="n_shifts"):
            ld.mvn_box_probability(mean, cov, -np.ones(3), np.ones(3), n_shifts=n_shifts)
    r = ld.mvn_box_probability(mean, cov, -np.ones(3), np.ones(3), n_shifts=2)
    assert r.n_samples == 8192 and r.quad_tol > 0.0
    # an integral float counts as its int
    three = [ld.mvn_box_probability(mean, cov, -np.ones(3), np.ones(3), n_shifts=k).estimate
             for k in (3, 3.0)]
    assert three[0] == three[1]


def test_negative_seed_raises_input_error(setup2):
    # closed forms (p = 2) and Genz blocks (p = 3), quadrature and Monte Carlo
    prob, model, tuning = setup2
    gram3 = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]])
    prob3 = ld.design_from_gram(gram3)
    model3, tuning3 = ld.gaussian_model(prob3, np.zeros(3), 1.0), ld.uniform_tuning(3, 0.5)
    event2, event3 = ld.error_orthant_event(-BETA2, (0, 0)), ld.error_orthant_event(np.zeros(3), (0, 0, 0))
    for call in (
        lambda: ld.prob_orthant_event(prob, model, tuning, event2, seed=-1),
        lambda: ld.prob_orthant_event(prob3, model3, tuning3, event3, seed=-1),
        lambda: ld.prob_all_zero(prob3, model3, tuning3, seed=-5),
        lambda: ld.prob_all_zero(prob, model, tuning, method="mc", n_samples=10, seed=-1),
        lambda: ld.mvn_box_probability(np.zeros(3), gram3, -np.ones(3), np.ones(3), seed=-1),
        lambda: ld.prob_region_high(prob, model, tuning, ld.region_below([0.0, 0.0]),
                                    n_samples=10, seed=-1),
    ):
        with pytest.raises(InputError, match="seed must be a nonnegative integer"):
            call()


def test_mvn_box_validation():
    with pytest.raises(InputError):
        ld.mvn_box_probability([0.0], [[1.0]], [1.0], [-1.0])
    with pytest.raises(InputError):
        ld.mvn_box_probability([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]], [-1, -1], [1, 1])
    with pytest.raises(InputError):
        ld.mvn_box_probability([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], [-1, -1], [1, 1])
    with pytest.raises(InputError):
        ld.mvn_box_probability([0.0, 0.0], [[1.0]], [-1, -1], [1, 1])


def test_mvn_box_rejects_non_finite_inputs():
    # the closed forms (one and two coordinates) and a Genz block (three);
    # infinite bounds stay valid
    def spoil(x, value):
        x = x.copy()
        x.flat[-1] = value
        return x

    for k in (1, 2, 3):
        mean, cov = np.zeros(k), np.eye(k) + 0.3 * (1.0 - np.eye(k))
        lower, upper = np.full(k, -1.0), np.full(k, np.inf)
        for args in (
            (spoil(mean, np.nan), cov, lower, upper),
            (spoil(mean, np.inf), cov, lower, upper),
            (mean, spoil(cov, np.nan), lower, upper),
            (mean, cov, spoil(lower, np.nan), upper),
            (mean, cov, lower, spoil(upper, np.nan)),
        ):
            with pytest.raises(InputError):
                ld.mvn_box_probability(*args)
        r = ld.mvn_box_probability(mean, cov, lower, upper)
        assert 0.0 < r.estimate < 1.0 and r.quad_tol > 0.0


_GRAMS = (
    np.eye(2),
    np.array([[1.0, 0.5], [0.5, 1.0]]),
    np.array([[2.0, -0.6], [-0.6, 1.0]]),
)
_LAMS = ((0.5, 0.5), (0.75, 1.25), (1.0, 2.0))
_BETAS = ((0.0, 0.0), (0.3, -0.4), (-1.0, 0.25))
_OFFS = (0.0, 0.2, 0.7)


@given(st.data())
@settings(deadline=None, max_examples=30)
def test_event_probability_matches_oracle(data):
    gram = data.draw(st.sampled_from(_GRAMS))
    lam = np.array(data.draw(st.sampled_from(_LAMS)))
    beta = np.array(data.draw(st.sampled_from(_BETAS)))
    sigma = data.draw(st.sampled_from((0.8, 1.0)))
    d = data.draw(st.sampled_from([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]))
    z = np.empty(2)
    for j, dj in enumerate(d):
        off = data.draw(st.sampled_from(_OFFS))
        z[j] = -beta[j] + dj * off if dj else -beta[j]

    prob = ld.design_from_gram(gram)
    model = ld.gaussian_model(prob, beta, sigma)
    tuning = ld.tuning_vector(lam)
    got = ld.prob_orthant_event(prob, model, tuning, ld.error_orthant_event(z, d))
    want = event_prob(gram, lam, beta, sigma, d, z)
    assert abs(got.estimate - want) <= 5e-5


def _random_setup(p, seed, beta):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * p, p))
    gram = a.T @ a / (2 * p) + 0.5 * np.eye(p)
    lam = rng.uniform(0.4, 0.9, p)
    prob = ld.design_from_gram(gram)
    return prob, ld.gaussian_model(prob, beta, 1.0), ld.tuning_vector(lam), gram, lam


def test_qmc_bound_is_reported_or_raised():
    beta = np.array([0.2, -0.1, 0.3])
    prob, model, tuning, _, _ = _random_setup(3, 5, beta)
    r = ld.orthant_mass(prob, model, tuning, ld.SignVector(d=(1, 1, -1)), quad_tol=0.0, seed=7)
    assert r.n_samples == _GENZ_POINTS and r.seed == 7
    assert 0.0 < r.quad_tol < 1e-5
    with pytest.raises(NumericalError):
        ld.cdf(prob, model, tuning, -beta + 0.2, quad_tol=1e-12)


def test_partition_p5():
    beta = np.array([0.5, -0.3, 0.0, 0.2, -0.6])
    prob, model, tuning, _, _ = _random_setup(5, 1, beta)
    masses = [
        ld.orthant_mass(prob, model, tuning, ld.SignVector(d=d), quad_tol=0.0)
        for d in product((-1, 0, 1), repeat=5)
    ]
    assert len(masses) == 243
    assert abs(sum(r.estimate for r in masses) - 1.0) <= sum(r.quad_tol for r in masses)


def test_orthant_masses_p6_match_oracle():
    beta = np.array([0.4, -0.2, 0.6, 0.0, -0.5, 0.3])
    prob, model, tuning, gram, lam = _random_setup(6, 2, beta)
    for d in ((0,) * 6, (1, 0, -1, 0, 0, 1)):
        r = ld.orthant_mass(prob, model, tuning, ld.SignVector(d=d), quad_tol=0.0)
        assert r.n_samples > 0 and r.seed == 0
        want = event_prob(gram, lam, beta, 1.0, d, -beta)
        assert abs(r.estimate - want) <= r.quad_tol + 1e-9, d


def test_full_support_mass_p6_matches_mc():
    d = (1, -1, 1, -1, 1, -1)
    prob, model, tuning, _, _ = _random_setup(6, 2, 1.5 * np.array(d))
    sv = ld.SignVector(d=d)
    quad = ld.orthant_mass(prob, model, tuning, sv)
    mc = ld.orthant_mass(prob, model, tuning, sv, method="mc", n_samples=20_000, seed=4)
    assert quad.estimate > 0.1
    assert abs(quad.estimate - mc.estimate) <= 3.0 * mc.std_error + 1e-3


def test_cdf_p4_matches_oracle_and_mc():
    beta = np.array([0.3, -0.5, -0.4, -0.6])
    prob, model, tuning, gram, lam = _random_setup(4, 3, beta)
    # three coordinates below their atoms leave the three patterns (d_1, -1, -1, -1)
    z = -beta + np.array([0.5, -0.05, -0.02, -0.05])
    got = ld.cdf(prob, model, tuning, z)
    assert abs(got - cdf_value(gram, lam, beta, 1.0, z)) <= 1e-5 + 1e-8
    mc = ld.prob_region_high(
        prob, model, tuning, ld.region_below(z + beta), n_samples=20_000, seed=6
    )
    assert got > 0.05
    assert abs(got - mc.estimate) <= 3.0 * mc.std_error + 1e-3


def test_oracle_checks_hold_at_three_standard_errors():
    # reported bounds count seven standard errors, so the quad_tol-relative
    # checks of test_mvn_box_matches_scipy, test_partition_p5 and
    # test_orthant_masses_p6_match_oracle allow more than their earlier form
    # of three; their cases must still pass at three
    three = 3.0 / _BOUND_SE
    cov = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 1.5]])
    mean = np.array([0.1, -0.2, 0.3])
    lower = np.array([-1.0, -np.inf, -2.0])
    upper = np.array([1.5, 0.8, np.inf])
    r = ld.mvn_box_probability(mean, cov, lower, upper, n_samples=65536)
    want = box_prob(mean, cov, lower, upper)
    assert abs(r.estimate - want) <= max(4.0 * three * r.quad_tol, 1e-5)

    beta = np.array([0.5, -0.3, 0.0, 0.2, -0.6])
    prob, model, tuning, _, _ = _random_setup(5, 1, beta)
    masses = [
        ld.orthant_mass(prob, model, tuning, ld.SignVector(d=d), quad_tol=0.0)
        for d in product((-1, 0, 1), repeat=5)
    ]
    assert abs(sum(r.estimate for r in masses) - 1.0) <= three * sum(r.quad_tol for r in masses)

    beta = np.array([0.4, -0.2, 0.6, 0.0, -0.5, 0.3])
    prob, model, tuning, gram, lam = _random_setup(6, 2, beta)
    for d in ((0,) * 6, (1, 0, -1, 0, 0, 1)):
        r = ld.orthant_mass(prob, model, tuning, ld.SignVector(d=d), quad_tol=0.0)
        want = event_prob(gram, lam, beta, 1.0, d, -beta)
        assert abs(r.estimate - want) <= three * r.quad_tol + 1e-9, d


def _one_factor_box(load, sd, lo, hi):
    """P(lo <= x <= hi) for x_i = load_i t + sd_i e_i, t and e i.i.d. N(0, 1):
    a one-dimensional integral over t, and quad's estimate of its error."""
    def integrand(t):
        m = load * t
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * float(
            np.prod(ndtr((hi - m) / sd) - ndtr((lo - m) / sd))
        )

    return integrate.quad(integrand, -12.0, 12.0, epsabs=1e-15, epsrel=1e-13, limit=500)


def test_genz_bound_covers_true_error():
    # 240 seeded rectangles of 4 and 5 coordinates with one-factor covariance,
    # whose probability is a 1-d integral that quad gives to about 1e-13: the
    # reported bound must contain the true error in at least 99% of them, and
    # a third of the bound must not
    rng = np.random.default_rng(0)
    errors, bounds, ref_errors = [], [], []
    while len(errors) < 240:
        k = 4 + len(errors) % 2
        load = rng.normal(size=k) * rng.uniform(0.3, 1.0)
        sd = rng.uniform(0.5, 1.2, k)
        lo, hi = np.full(k, -np.inf), np.full(k, np.inf)
        for i, kind in enumerate(rng.integers(3, size=k)):
            edge = rng.normal(scale=0.8)
            if kind == 0:
                hi[i] = edge
            elif kind == 1:
                lo[i] = edge
            else:
                lo[i], hi[i] = edge - rng.uniform(0.3, 2.0), edge
        ref, ref_err = _one_factor_box(load, sd, lo, hi)
        if ref < 1e-3:
            continue
        cov = np.outer(load, load) + np.diag(sd**2)
        r = ld.mvn_box_probability(
            np.zeros(k), cov, lo, hi, n_samples=_GENZ_POINTS, seed=len(errors)
        )
        assert r.n_samples == _GENZ_POINTS
        errors.append(abs(r.estimate - ref))
        bounds.append(r.quad_tol)
        ref_errors.append(ref_err)
    errors, bounds = np.array(errors), np.array(bounds)
    assert max(ref_errors) < 0.1 * np.median(bounds)
    assert np.mean(errors <= bounds) >= 0.99
    assert np.mean(errors <= bounds / 3.0) < 0.99


def _grouped_factor_box(load, sd, group, lo, hi):
    """P(lo <= x <= hi) for x_i = load_i t + sd_i e_{group_i}, t and e i.i.d.
    N(0, 1): given t, each e_g lies in the intersection of its rows'
    intervals, so this is a one-dimensional integral over t, split where two
    rows of a group swap the binding bound; and quad's estimate of its error."""
    rows = [np.flatnonzero(group == g) for g in range(group.max() + 1)]

    def integrand(t):
        a, b = (lo - load * t) / sd, (hi - load * t) / sd
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * math.prod(
            max(ndtr(b[r].min()) - ndtr(a[r].max()), 0.0) for r in rows
        )

    cuts = set()
    for r in rows:
        for i, j in product(r, r):
            slope = load[i] / sd[i] - load[j] / sd[j]
            for u, v in product((lo[i], hi[i]), (lo[j], hi[j])):
                if i < j and slope != 0.0 and np.isfinite(u) and np.isfinite(v):
                    cuts.add((u / sd[i] - v / sd[j]) / slope)
    cuts = sorted(t for t in cuts if -12.0 < t < 12.0)
    return integrate.quad(integrand, -12.0, 12.0, points=cuts or None,
                          epsabs=1e-15, epsrel=1e-13, limit=500)


def test_genz_bound_covers_true_error_below_full_rank():
    # the coverage check above on singular covariances: 240 seeded rectangles
    # of 5 and 6 rows on four factor columns (one common factor, three
    # idiosyncratic ones shared by pairs of rows), so the Genz transform runs
    # in three dimensions with groups of two rows. Rounding keeps a fifth
    # pivot in some of them; at least three quarters must run with q < m
    rng = np.random.default_rng(1)
    errors, bounds, ref_errors, below = [], [], [], 0
    while len(errors) < 240:
        k = 5 + len(errors) % 2
        group = rng.permutation([0, 0, 1, 1, 2, 2][:k] if k == 6 else [0, 0, 1, 2, 2])
        load = rng.normal(size=k) * rng.uniform(0.3, 1.0)
        sd = rng.uniform(0.5, 1.2, k)
        lo, hi = np.full(k, -np.inf), np.full(k, np.inf)
        for i, kind in enumerate(rng.integers(3, size=k)):
            edge = rng.normal(scale=0.8)
            if kind == 0:
                hi[i] = edge
            elif kind == 1:
                lo[i] = edge
            else:
                lo[i], hi[i] = edge - rng.uniform(0.3, 2.0), edge
        ref, ref_err = _grouped_factor_box(load, sd, group, lo, hi)
        if ref < 1e-3:
            continue
        f = np.zeros((k, 4))
        f[:, 0], f[np.arange(k), 1 + group] = load, sd
        cov = f @ f.T
        below += _factor(cov).shape[1] < k
        r = ld.mvn_box_probability(
            np.zeros(k), cov, lo, hi, n_samples=_GENZ_POINTS, seed=len(errors)
        )
        assert r.n_samples == _GENZ_POINTS
        errors.append(abs(r.estimate - ref))
        bounds.append(r.quad_tol)
        ref_errors.append(ref_err)
    errors, bounds = np.array(errors), np.array(bounds)
    assert below >= 180
    assert max(ref_errors) < 0.1 * np.median(bounds)
    assert np.mean(errors <= bounds) >= 0.99
    assert np.mean(errors <= bounds / 3.0) < 0.99


def test_mvn_box_beyond_the_korobov_table():
    # seven coordinates take the lattice in six dimensions, past the table's
    # five: its generating vector repeats no entry up to 16 dimensions, and
    # one-factor boxes stay inside their bounds at both point counts used.
    # At 2^16 points those bounds are 3e-6 to 1.2e-5; a lattice whose six
    # coordinates coincided would report about 1e-2
    for n in sorted({n for n, _ in _KOROBOV}):
        assert len({pow(_KOROBOV[n, 5], j, n) for j in range(16)}) == 16, n
    rng = np.random.default_rng(7)
    for seed in range(6):
        load = rng.normal(size=7) * 0.6
        sd = rng.uniform(0.5, 1.2, 7)
        lo = np.where(rng.random(7) < 0.5, -np.inf, -1.0)
        hi = np.where(rng.random(7) < 0.3, np.inf, 1.0)
        ref, ref_err = _one_factor_box(load, sd, lo, hi)
        cov = np.outer(load, load) + np.diag(sd**2)
        for n_samples in (8192, _GENZ_POINTS):
            r = ld.mvn_box_probability(np.zeros(7), cov, lo, hi, n_samples=n_samples, seed=seed)
            assert r.n_samples == n_samples
            assert ref_err < 0.1 * r.quad_tol
            assert abs(r.estimate - ref) <= r.quad_tol, (seed, n_samples)
        assert r.quad_tol < 3e-5, seed


def test_import_skips_scipy_stats_and_integrate():
    # one fresh interpreter, three stages: the import, then calls whose blocks
    # all have closed forms (at most two coordinates; the p = 3 pattern
    # (1, 0, -1) has a two-coordinate u_A and a one-coordinate slack), then
    # Genz blocks of three and five coordinates; no stage loads any scipy module
    code = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import lassodist as ld
stages = [scipy_modules()]
prob = ld.design_from_gram(np.array([[1.0, 0.5], [0.5, 1.0]]))
model = ld.gaussian_model(prob, [0.0, -0.25], 1.0)
tuning = ld.tuning_vector([0.75, 0.75])
ld.orthant_mass(prob, model, tuning, ld.SignVector(d=(1, -1)))
ld.cdf(prob, model, tuning, [0.4, -0.1])
ld.prob_all_zero(prob, model, tuning)
ld.error_density(prob, model, tuning, [0.3, 0.2])
ld.conditional_density(prob, model, tuning, ld.SignVector(d=(1, -1)), [0.3, 0.2])
prob = ld.design_from_gram(np.array([[1, .3, .2], [.3, 1, .4], [.2, .4, 1]]))
model = ld.gaussian_model(prob, [0.2, -0.1, 0.3], 1.0)
tuning = ld.uniform_tuning(3, 0.7)
closed = ld.orthant_mass(prob, model, tuning, ld.SignVector(d=(1, 0, -1)))
stages.append(scipy_modules())
genz = ld.orthant_mass(prob, model, tuning, ld.SignVector(d=(0, 0, 0)))
ld.cdf(prob, model, tuning, [0.5, 0.5, 0.5])
box = ld.mvn_box_probability(np.zeros(5), np.eye(5) + 0.3, [-1.0] * 5, [np.inf, 1, 1, 1, 1])
stages.append(scipy_modules())
print(json.dumps([stages, closed.n_samples, genz.n_samples, box.n_samples]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    stages, closed_points, genz_points, box_points = json.loads(proc.stdout)
    assert stages == [[], [], []]
    assert (closed_points, genz_points, box_points) == (0, _GENZ_POINTS, 8192)


def test_genz_paths_run_without_scipy():
    # scipy made unimportable: a p = 3 Genz mass, a p = 3 cdf and the 81
    # sign-pattern masses of a p = 4 design, which sum to one within their bounds
    code = """
import json, sys
sys.modules["scipy"] = None
from itertools import product
import numpy as np
import lassodist as ld

prob = ld.design_from_gram(np.array([[1, .3, .2], [.3, 1, .4], [.2, .4, 1]]))
model = ld.gaussian_model(prob, [0.2, -0.1, 0.3], 1.0)
tuning = ld.uniform_tuning(3, 0.7)
genz = ld.orthant_mass(prob, model, tuning, ld.SignVector(d=(0, 0, 0)))
value = ld.cdf(prob, model, tuning, [0.5, 0.5, 0.5])
a = np.random.default_rng(4).normal(size=(8, 4))
prob = ld.design_from_gram(a.T @ a / 8 + 0.5 * np.eye(4))
model = ld.gaussian_model(prob, [0.3, -0.2, 0.0, 0.5], 1.0)
tuning = ld.tuning_vector([0.5, 0.8, 0.6, 0.7])
masses = [ld.orthant_mass(prob, model, tuning, ld.SignVector(d=d), quad_tol=0.0)
          for d in product((-1, 0, 1), repeat=4)]
print(json.dumps([genz.n_samples, genz.estimate, value, len(masses),
                  sum(r.estimate for r in masses), sum(r.quad_tol for r in masses),
                  sum(r.n_samples > 0 for r in masses)]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    genz_points, mass, value, count, total, bound, genz_masses = json.loads(proc.stdout)
    assert genz_points == _GENZ_POINTS and 0.0 < mass < 1.0 and 0.0 < value < 1.0
    assert count == 81 and genz_masses > 0
    assert abs(total - 1.0) <= bound


def test_korobov_table_matches_search():
    path = Path(__file__).resolve().parent.parent / "scripts" / "korobov_table.py"
    spec = importlib.util.spec_from_file_location("korobov_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert set(_KOROBOV) == {
        (2**e, dim) for e in range(6, 17) for dim in (2, 3, 4, 5)
    }
    assert all(a % 2 == 1 and 1 < a < n // 2 for (n, _), a in _KOROBOV.items())
    small = script.table(max_log2_n=10)
    assert small == {key: a for key, a in _KOROBOV.items() if key[0] <= 2**10}


def test_lattice_size_spans_the_korobov_table():
    # the points per shift are n_samples // n_shifts rounded up to a power of
    # two, clipped to the lattice sizes of _KOROBOV and to no literal of their own
    sizes = sorted({n for n, _ in _KOROBOV})
    assert _lattice_size(1, 8) == sizes[0]
    assert _lattice_size(10**9, 8) == sizes[-1]
    assert [_lattice_size(8 * n, 8) for n in sizes] == sizes
    assert [_lattice_size(8 * n + 8, 8) for n in sizes[:-1]] == sizes[1:]
    r = ld.mvn_box_probability(np.zeros(3), np.eye(3) + 0.5, -np.ones(3), np.ones(3), n_samples=1)
    assert r.n_samples == 8 * sizes[0]


def test_shifted_lattice_is_a_folded_rank1_lattice():
    n, dim, n_shifts, seed = 64, 3, 4, 5
    # an int seed s passes as (s, ()): the shifts of random.Random("s")
    w = np.array(list(_shifted_lattice(n, dim, n_shifts, (seed, ()))))
    assert w.shape == (n_shifts, n, dim)
    a = _KOROBOV[n, dim]
    lattice = (np.arange(n)[:, None] * np.array([1, a, a * a % n]) % n) / n
    draw = random.Random(str(seed)).random
    shifts = [[draw() for _ in range(dim)] for _ in range(n_shifts)]
    for s in range(n_shifts):
        x = (lattice + shifts[s]) % 1.0
        assert np.allclose(w[s], 1.0 - np.abs(2.0 * x - 1.0), rtol=0.0, atol=1e-15)
    # an odd multiplier makes every coordinate a permutation of the n-point grid
    assert all(len(set(lattice[:, j])) == n for j in range(dim))
