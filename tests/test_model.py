import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lassodist as ld
from lassodist.errors import InputError


def test_build_problem_shapes(n1p2):
    assert n1p2.n == 1 and n1p2.p == 2
    assert n1p2.rank_x == 1
    assert n1p2.row_space_basis.shape == (2, 1)
    assert n1p2.null_space_basis.shape == (2, 1)


def test_build_problem_bases_orthonormal():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 5))
    prob = ld.build_problem(X)
    assert prob.rank_x == 3
    U = prob.row_space_basis
    N = prob.null_space_basis
    assert np.allclose(U.T @ U, np.eye(3), atol=1e-12)
    assert np.allclose(N.T @ N, np.eye(2), atol=1e-12)
    assert np.allclose(X @ N, 0.0, atol=1e-10)
    assert np.allclose(U.T @ N, 0.0, atol=1e-12)


def test_build_problem_keeps_no_n_by_n_factor():
    # a tall design: the full SVD's 3000 x 3000 U alone takes 72 MB
    X = np.random.default_rng(5).normal(size=(3000, 4))
    tracemalloc.start()
    try:
        prob = ld.build_problem(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    assert prob.rank_x == 4 and prob.null_space_basis.shape == (4, 0)
    assert np.allclose(prob.row_space_basis.T @ prob.row_space_basis, np.eye(4), atol=1e-12)


def test_build_problem_rejects_nonfinite():
    with pytest.raises(InputError):
        ld.build_problem(np.array([[1.0, np.nan]]))
    with pytest.raises(InputError):
        ld.build_problem(np.array([[np.inf, 1.0]]))


def test_design_from_gram_roundtrip():
    gram = np.array([[2.0, 0.3], [0.3, 1.5]])
    prob = ld.design_from_gram(gram)
    assert np.allclose(prob.gram, gram, atol=1e-12)
    assert prob.rank_x == 2


def test_design_from_gram_rejects_indefinite():
    with pytest.raises(InputError):
        ld.design_from_gram(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(InputError):
        ld.design_from_gram(np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_tuning_vector_validation():
    t = ld.tuning_vector([1.0, 0.0, 2.0])
    assert t.p == 3
    assert t.m0 == (1,)
    assert not t.is_uniform
    with pytest.raises(InputError):
        ld.tuning_vector([-0.5, 1.0])
    with pytest.raises(InputError):
        ld.tuning_vector([np.inf, 1.0])


def test_uniform_tuning():
    t = ld.uniform_tuning(4, 2.5)
    assert t.is_uniform and t.m0 == ()
    assert np.all(t.lam == 2.5)
    # lam_bar = 0 is legal (no penalty) but is not "uniform" in the scaling sense
    t0 = ld.uniform_tuning(3, 0.0)
    assert not t0.is_uniform and t0.m0 == (0, 1, 2)
    with pytest.raises(InputError):
        ld.uniform_tuning(3, -1.0)


def test_sign_vector_validation():
    sv = ld.SignVector(d=(-1, 0, 1))
    assert sv.d_minus == (0,) and sv.d_zero == (1,) and sv.d_plus == (2,)
    assert sv.norm1 == 2
    with pytest.raises((InputError, ValueError)):
        ld.SignVector(d=(2, 0))


def test_sign_partition_thresholds():
    z = np.array([-1.0, -1e-12, 0.0, 1e-12, 3.0])
    assert tuple(ld.sign_partition(z).d) == (-1, 0, 0, 0, 1)
    assert tuple(ld.sign_partition(z, zero_tol=0.0).d) == (-1, -1, 0, 1, 1)


def test_zero_tol_must_be_finite_and_nonnegative(corr2):
    model = ld.gaussian_model(corr2, [0.2, -0.1], 1.0)
    tuning = ld.uniform_tuning(2, 0.5)
    event = ld.error_orthant_event([-0.2, 0.1], (0, 0))
    y, b = [0.9, -0.4], [0.3, 0.0]
    mc = {"method": "mc", "n_samples": 16}
    calls = {
        "sign_partition": lambda tol: ld.sign_partition(b, tol),
        "prob_orthant_event": lambda tol: ld.prob_orthant_event(
            corr2, model, tuning, event, zero_tol=tol),
        "prob_orthant_event.mc": lambda tol: ld.prob_orthant_event(
            corr2, model, tuning, event, zero_tol=tol, **mc),
        "prob_all_zero": lambda tol: ld.prob_all_zero(corr2, model, tuning, zero_tol=tol),
        "prob_all_zero.mc": lambda tol: ld.prob_all_zero(
            corr2, model, tuning, zero_tol=tol, **mc),
        "region_support_includes": lambda tol: ld.region_support_includes(0, tol),
        "is_solution": lambda tol: ld.is_solution(corr2, y, tuning, b, zero_tol=tol),
        "describe_solution_set": lambda tol: ld.describe_solution_set(
            corr2, y, tuning, zero_tol=tol),
        "shrinkage_set_high": lambda tol: ld.shrinkage_set_high(corr2, tuning, b, tol),
        "shrinkage_set_low": lambda tol: ld.shrinkage_set_low(corr2, tuning, b, tol),
    }
    for name, call in calls.items():
        call(0.0)  # zero counts only exact zeros
        for tol in (math.nan, -1.0, math.inf):
            with pytest.raises(InputError, match="zero_tol must be finite and nonnegative"):
                call(tol)
                pytest.fail(f"{name} accepted zero_tol={tol}")


def test_gaussian_model_mu(n1p2):
    m = ld.gaussian_model(n1p2, np.array([1.0, 0.0]), 1.0)
    assert np.allclose(m.mu, [1.0])
    with pytest.raises(InputError):
        ld.gaussian_model(n1p2, np.array([1.0, 0.0]), 0.0)
    with pytest.raises(InputError):
        ld.gaussian_model(n1p2, np.array([1.0]), 1.0)


def test_fiber_equivalent(n1p2):
    m1 = ld.gaussian_model(n1p2, np.array([1.0, 0.0]), 1.0)
    m2 = ld.gaussian_model(n1p2, np.array([0.0, 0.5]), 1.0)
    m3 = ld.gaussian_model(n1p2, np.array([1.0, 1.0]), 1.0)
    assert ld.fiber_equivalent(m1, m2, n1p2)
    assert not ld.fiber_equivalent(m1, m3, n1p2)


# one design, tuning and model per dimension; the malformed inputs below mix them
_P2 = ld.design_from_gram(np.array([[1.0, 0.5], [0.5, 1.0]]))
_P1X2 = ld.build_problem(np.array([[1.0, 2.0]]))
_P3 = ld.design_from_gram(np.eye(3))
_T2, _T1 = ld.uniform_tuning(2, 0.75), ld.tuning_vector([0.75])
_M2 = ld.gaussian_model(_P2, [0.2, -0.1], 1.0)
_M3 = ld.gaussian_model(_P3, [0.2, -0.1, 0.3], 1.0)
_EVENT = ld.error_orthant_event([-0.2, 0.1], (0, 0))
_NAN = [math.nan, 0.2]
_THREE = [0.1, 0.2, 0.3]
_D3 = ld.SignVector(d=(1, 0, 1))
_MC = {"n_samples": 16}

# (entry point, malformed input) -> the call. Input kinds: a tuning vector,
# a model's beta, a vector or a sign vector of the wrong length; a NaN
# entry; a sign vector with an entry outside {-1, 0, 1} ("signs"); a
# non-integral dimension ("p")
_MALFORMED = {
    ("gaussian_model", "length"): lambda: ld.gaussian_model(_P2, [0.2], 1.0),
    ("gaussian_model", "nan"): lambda: ld.gaussian_model(_P2, _NAN, 1.0),
    ("fiber_equivalent", "beta"): lambda: ld.fiber_equivalent(_M2, _M3, _P2),
    ("tuning_vector", "nan"): lambda: ld.tuning_vector(_NAN),
    ("uniform_tuning", "p"): lambda: ld.uniform_tuning(2.5, 1.0),
    ("sign_partition", "nan"): lambda: ld.sign_partition(_NAN),
    ("error_orthant_event", "length"): lambda: ld.error_orthant_event(_THREE, (1, 1)),
    ("error_orthant_event", "nan"): lambda: ld.error_orthant_event(_NAN, (1, 1)),
    ("error_orthant_event", "signs"): lambda: ld.error_orthant_event([0.1, 0.2], [0.5, 1]),
    ("estimator_orthant_event", "length"): lambda: ld.estimator_orthant_event(_M2, _THREE),
    ("estimator_orthant_event", "nan"): lambda: ld.estimator_orthant_event(_M2, _NAN),
    ("estimator_orthant_event", "signs-length"): lambda: ld.estimator_orthant_event(
        _M2, [0.1, 0.2], (1, 1, 1)),
    ("estimator_orthant_event", "signs"): lambda: ld.estimator_orthant_event(
        _M2, [0.0, 0.2], [-0.9, 1]),
    ("prob_orthant_event", "tuning"): lambda: ld.prob_orthant_event(_P2, _M2, _T1, _EVENT),
    ("prob_orthant_event", "beta"): lambda: ld.prob_orthant_event(_P2, _M3, _T2, _EVENT),
    ("prob_orthant_event", "signs-length"): lambda: ld.prob_orthant_event(
        _P2, _M2, _T2, ld.OrthantEvent(z=np.array([0.1, 0.2]), d=_D3)),
    ("prob_orthant_event", "nan"): lambda: ld.prob_orthant_event(
        _P2, _M2, _T2, ld.OrthantEvent(z=np.array(_NAN), d=ld.SignVector(d=(1, 1)))),
    ("prob_orthant_event", "signs"): lambda: ld.prob_orthant_event(
        _P2, _M2, _T2, ld.OrthantEvent(z=np.array([0.1, 0.2]), d=(0.5, 1))),
    ("prob_all_zero", "tuning"): lambda: ld.prob_all_zero(_P2, _M2, _T1),
    ("prob_all_zero", "beta"): lambda: ld.prob_all_zero(_P2, _M3, _T2),
    ("orthant_mass", "tuning"): lambda: ld.orthant_mass(_P2, _M2, _T1, (0, 0)),
    ("orthant_mass", "beta"): lambda: ld.orthant_mass(_P2, _M3, _T2, (0, 0)),
    ("orthant_mass", "signs-length"): lambda: ld.orthant_mass(_P2, _M2, _T2, _D3),
    ("orthant_mass", "signs"): lambda: ld.orthant_mass(_P2, _M2, _T2, [1, 0.5]),
    ("conditional_density", "tuning"): lambda: ld.conditional_density(
        _P2, _M2, _T1, (1, 0), [0.1]),
    ("conditional_density", "beta"): lambda: ld.conditional_density(
        _P2, _M3, _T2, (1, 0), [0.1]),
    ("conditional_density", "signs-length"): lambda: ld.conditional_density(
        _P2, _M2, _T2, _D3, [0.1, 0.2]),
    ("conditional_density", "signs"): lambda: ld.conditional_density(
        _P2, _M2, _T2, [1, 2], [0.1]),
    ("conditional_density", "length"): lambda: ld.conditional_density(
        _P2, _M2, _T2, (1, 0), [0.1, 0.2]),
    ("conditional_density", "nan"): lambda: ld.conditional_density(
        _P2, _M2, _T2, (1, 0), [math.nan]),
    ("cdf", "tuning"): lambda: ld.cdf(_P2, _M2, _T1, [0.1, 0.2]),
    ("cdf", "beta"): lambda: ld.cdf(_P2, _M3, _T2, [0.1, 0.2]),
    ("cdf", "length"): lambda: ld.cdf(_P2, _M2, _T2, _THREE),
    ("cdf", "nan"): lambda: ld.cdf(_P2, _M2, _T2, _NAN),
    ("error_density", "tuning"): lambda: ld.error_density(_P2, _M2, _T1, [0.1, 0.2]),
    ("error_density", "beta"): lambda: ld.error_density(_P2, _M3, _T2, [0.1, 0.2]),
    ("error_density", "length"): lambda: ld.error_density(_P2, _M2, _T2, _THREE),
    ("error_density", "nan"): lambda: ld.error_density(_P2, _M2, _T2, _NAN),
    ("prob_region_high", "tuning"): lambda: ld.prob_region_high(
        _P2, _M2, _T1, ld.region_support_includes(0), **_MC),
    ("prob_region_high", "beta"): lambda: ld.prob_region_high(
        _P2, _M3, _T2, ld.region_support_includes(0), **_MC),
    ("region_below", "nan"): lambda: ld.region_below(_NAN),
    ("mvn_box_probability", "length"): lambda: ld.mvn_box_probability(
        [0.0, 0.0], np.eye(2), [-1.0, -1.0, -1.0], [1.0, 1.0]),
    ("mvn_box_probability", "nan"): lambda: ld.mvn_box_probability(
        _NAN, np.eye(2), [-1.0, -1.0], [1.0, 1.0]),
    ("selectable", "tuning"): lambda: ld.selectable(_P2, _T1, (0,)),
    ("structural_set", "tuning"): lambda: ld.structural_set(_P2, _T1),
    ("check_uniqueness", "tuning"): lambda: ld.check_uniqueness(_P1X2, _T1),
    ("construct_nonuniqueness_witness", "tuning"): lambda: ld.construct_nonuniqueness_witness(
        _P1X2, _T1, (0, 1), [1.0, 2.0]),
    ("construct_nonuniqueness_witness", "length"): lambda: ld.construct_nonuniqueness_witness(
        _P1X2, ld.tuning_vector([1.0, 2.0]), (0, 1), _THREE),
    ("construct_nonuniqueness_witness", "nan"): lambda: ld.construct_nonuniqueness_witness(
        _P1X2, ld.tuning_vector([1.0, 2.0]), (0, 1), [math.nan, 2.0]),
    ("FaceBox.contains", "length"): lambda: ld.face_box(_T2, (0,), (1,)).contains(_THREE),
    ("FaceBox.contains", "nan"): lambda: ld.face_box(_T2, (0,), (1,)).contains(_NAN),
    ("face_box", "signs"): lambda: ld.face_box(_T2, (0,), (1.7,)),
    ("ShrinkageSet.contains", "length"): lambda: ld.shrinkage_set_low(
        _P2, _T2, [0.5, 0.0]).contains(_THREE),
    ("ShrinkageSet.contains", "nan"): lambda: ld.shrinkage_set_low(
        _P2, _T2, [0.5, 0.0]).contains(_NAN),
    ("shrinkage_set_high", "tuning"): lambda: ld.shrinkage_set_high(_P2, _T1, [0.5, 0.0]),
    ("shrinkage_set_high", "length"): lambda: ld.shrinkage_set_high(_P2, _T2, _THREE),
    ("shrinkage_set_high", "nan"): lambda: ld.shrinkage_set_high(_P2, _T2, _NAN),
    ("shrinkage_set_low", "tuning"): lambda: ld.shrinkage_set_low(_P2, _T1, [0.5, 0.0]),
    ("shrinkage_set_low", "length"): lambda: ld.shrinkage_set_low(_P2, _T2, _THREE),
    ("shrinkage_set_low", "nan"): lambda: ld.shrinkage_set_low(_P2, _T2, _NAN),
    ("shrinkage_singleton", "tuning"): lambda: ld.shrinkage_singleton(_P2, _T1, [0.5, -0.3]),
    ("shrinkage_singleton", "length"): lambda: ld.shrinkage_singleton(_P2, _T2, _THREE),
    ("shrinkage_singleton", "nan"): lambda: ld.shrinkage_singleton(_P2, _T2, _NAN),
    ("map_ls_to_lasso", "tuning"): lambda: ld.map_ls_to_lasso(_P2, _T1, [0.5, -0.3]),
    ("map_ls_to_lasso", "length"): lambda: ld.map_ls_to_lasso(_P2, _T2, _THREE),
    ("map_ls_to_lasso", "nan"): lambda: ld.map_ls_to_lasso(_P2, _T2, _NAN),
    ("solve", "tuning"): lambda: ld.solve(_P2, [1.0, 0.5], _T1),
    ("solve", "length"): lambda: ld.solve(_P2, _THREE, _T2),
    ("solve", "nan"): lambda: ld.solve(_P2, _NAN, _T2),
    ("solve_many", "tuning"): lambda: ld.solve_many(_P2, [[1.0, 0.5]], _T1),
    ("is_solution", "tuning"): lambda: ld.is_solution(_P2, [1.0, 0.5], _T1, [0.3, 0.0]),
    ("is_solution", "length"): lambda: ld.is_solution(_P2, [1.0, 0.5], _T2, _THREE),
    ("is_solution", "nan"): lambda: ld.is_solution(_P2, [1.0, 0.5], _T2, [math.nan, 0.0]),
    ("describe_solution_set", "tuning"): lambda: ld.describe_solution_set(
        _P2, [1.0, 0.5], _T1),
    ("run_simulation", "tuning"): lambda: ld.run_simulation(
        _P2, _M2, _T1, ld.SimulationConfig(n_rep=16)),
    ("run_simulation", "beta"): lambda: ld.run_simulation(
        _P2, _M3, _T2, ld.SimulationConfig(n_rep=16)),
    ("estimate_nonuniqueness_probability", "tuning"): lambda: (
        ld.estimate_nonuniqueness_probability(_P2, _M2, _T1, ld.SimulationConfig(n_rep=16))),
    ("estimate_nonuniqueness_probability", "beta"): lambda: (
        ld.estimate_nonuniqueness_probability(_P2, _M3, _T2, ld.SimulationConfig(n_rep=16))),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED), ids="-".join)
def test_malformed_input_raises_input_error(case):
    with pytest.raises(InputError):
        _MALFORMED[case]()


def test_sign_vector_may_be_a_plain_sequence():
    for d in ((1, 0), [1, 0], np.array([1.0, 0.0])):
        assert ld.orthant_mass(_P2, _M2, _T2, d).estimate == ld.orthant_mass(
            _P2, _M2, _T2, ld.SignVector(d=(1, 0))).estimate
        assert ld.conditional_density(_P2, _M2, _T2, d, [0.1]) == ld.conditional_density(
            _P2, _M2, _T2, ld.SignVector(d=(1, 0)), [0.1])


# integer entries keep the nonzero singular values well away from the rank
# cutoff, so the comparison with numpy cannot flip on rounding
@given(
    arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5)),
           elements=st.integers(-5, 5).map(float)),
)
@settings(deadline=None, max_examples=80)
def test_rank_matches_numpy(X):
    prob = ld.build_problem(X)
    assert prob.rank_x == np.linalg.matrix_rank(X)
    U = prob.row_space_basis
    if prob.rank_x:
        assert np.allclose(U.T @ U, np.eye(prob.rank_x), atol=1e-10)
    # null basis really annihilates the design
    assert np.allclose(X @ prob.null_space_basis, 0.0, atol=1e-9)
