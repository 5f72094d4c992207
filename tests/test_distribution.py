import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm

import lassodist as ld
from conftest import SRC
from lassodist.distribution import _GENZ_POINTS
from lassodist.errors import (
    ConditioningError,
    DimensionLimitError,
    InputError,
    NumericalError,
)
from mvn_oracle import box_prob, cdf_value, event_prob

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


def test_prob_all_zero_intermediate_rank_needs_mc(x2x3):
    model = ld.gaussian_model(x2x3, np.zeros(3), 1.0)
    t = ld.uniform_tuning(3, 1.0)
    with pytest.raises(DimensionLimitError):
        ld.prob_all_zero(x2x3, model, t)
    r = ld.prob_all_zero(x2x3, model, t, method="mc", n_samples=4096, seed=2)
    assert r.method == "monte-carlo" and 0.0 <= r.estimate <= 1.0


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


def test_mvn_box_singular_covariance():
    # rank-one covariance: both coordinates equal one N(0,1) draw
    cov = np.ones((2, 2))
    r = ld.mvn_box_probability([0.0, 0.0], cov, [-1.0, -1.0], [1.0, 1.0], n_samples=40_000)
    assert r.method == "monte-carlo"
    assert abs(r.estimate - 0.6826894921370859) <= 4.0 * r.std_error + 2e-3


def test_mvn_box_validation():
    with pytest.raises(InputError):
        ld.mvn_box_probability([0.0], [[1.0]], [1.0], [-1.0])
    with pytest.raises(InputError):
        ld.mvn_box_probability([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]], [-1, -1], [1, 1])
    with pytest.raises(InputError):
        ld.mvn_box_probability([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], [-1, -1], [1, 1])
    with pytest.raises(InputError):
        ld.mvn_box_probability([0.0, 0.0], [[1.0]], [-1, -1], [1, 1])


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


def test_import_skips_scipy_stats_and_integrate():
    code = (
        "import sys, lassodist; "
        "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
