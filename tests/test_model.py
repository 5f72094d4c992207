import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lassodist as ld
from lassodist import simulate, solver
from lassodist.errors import InputError


def test_build_problem_shapes(n1p2):
    assert n1p2.n == 1 and n1p2.p == 2
    assert n1p2.rank_x == 1
    assert n1p2.gram.shape == (2, 2) and n1p2.scale.shape == (2,) and n1p2.unit.shape == (1, 2)


def test_build_problem_bases_orthonormal():
    # the unit-norm design and its norm: columns of norm 1, spanning X's
    # column space, and ||U||_2 its largest singular value
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 5))
    prob = ld.build_problem(X)
    assert prob.rank_x == 3
    assert np.allclose(np.linalg.norm(prob.unit, axis=0), 1.0, atol=1e-12)
    assert np.allclose(prob.unit * prob.scale, X, rtol=1e-15, atol=0.0)
    assert prob.unit_norm == pytest.approx(np.linalg.norm(prob.unit, 2), rel=1e-12)


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
    assert prob.rank_x == 4 and prob.unit.shape == (3000, 4)


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
    # zero only when exactly 0: a tiny entry keeps its sign at any scale
    z = np.array([-1.0, -1e-12, 0.0, -0.0, 1e-12, 3.0])
    assert tuple(ld.sign_partition(z).d) == (-1, -1, 0, 0, 1, 1)


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
# non-integral dimension ("p"); a model index that is non-integral, repeated,
# negative or p ("index-..."); a region predicate that cannot read p columns
# ("region-..."); a tolerance, sample count, shift count or sweep limit that
# is NaN, infinite, zero, negative, fractional, a string or above its cap; a
# matrix or sigma that is not numeric, or a matrix of the wrong shape
_MALFORMED = {
    ("build_problem", "string"): lambda: ld.build_problem([["a", 1.0]]),
    ("build_problem", "ragged"): lambda: ld.build_problem([[1.0, [2.0]]]),
    ("build_problem", "3-d"): lambda: ld.build_problem(np.ones((2, 2, 2))),
    ("design_from_gram", "string"): lambda: ld.design_from_gram([["a"]]),
    ("design_from_gram", "non-square"): lambda: ld.design_from_gram(np.ones((2, 3))),
    ("gaussian_model", "length"): lambda: ld.gaussian_model(_P2, [0.2], 1.0),
    ("gaussian_model", "nan"): lambda: ld.gaussian_model(_P2, _NAN, 1.0),
    ("gaussian_model", "sigma-string"): lambda: ld.gaussian_model(_P2, [0, 0], "x"),
    # sigma^2, X'X and X'X beta must be finite doubles, and sigma^2 nonzero
    ("build_problem", "huge"): lambda: ld.build_problem([[1e151, 0.0], [0.0, 1.0]]),
    ("gaussian_model", "huge-sigma"): lambda: ld.gaussian_model(_P2, [0, 0], 1e151),
    ("gaussian_model", "tiny-sigma"): lambda: ld.gaussian_model(_P2, [0, 0], 1e-151),
    ("gaussian_model", "huge-beta"): lambda: ld.gaussian_model(_P2, [1.7e308, 1.7e308], 1.0),
    # each legal alone, sigma^2 times X'X's largest diagonal entry 1e300 is not
    ("gaussian_model", "huge-sigma-gram"): lambda: ld.gaussian_model(
        ld.build_problem([[1e150, 0.5], [0.0, 0.9]]), [0, 0], 1e150),
    ("fiber_equivalent", "beta"): lambda: ld.fiber_equivalent(_M2, _M3, _P2),
    ("tuning_vector", "nan"): lambda: ld.tuning_vector(_NAN),
    ("tuning_vector", "empty"): lambda: ld.tuning_vector([]),
    # weights and responses are squared and multiplied: a finite 1e151 overflows
    ("tuning_vector", "huge"): lambda: ld.tuning_vector([1.0, 1e151]),
    ("uniform_tuning", "p"): lambda: ld.uniform_tuning(2.5, 1.0),
    ("uniform_tuning", "lam_bar-string"): lambda: ld.uniform_tuning(2, "x"),
    ("uniform_tuning", "lam_bar-vector"): lambda: ld.uniform_tuning(2, [1.0, 2.0]),
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
    ("orthant_mass", "quad_tol-nan"): lambda: ld.orthant_mass(
        _P2, _M2, _T2, (0, 0), quad_tol=math.nan),
    ("orthant_mass", "quad_tol-inf"): lambda: ld.orthant_mass(
        _P2, _M2, _T2, (0, 0), quad_tol=math.inf),
    ("orthant_mass", "quad_tol-negative"): lambda: ld.orthant_mass(
        _P2, _M2, _T2, (0, 0), quad_tol=-1.0),
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
    ("conditional_density", "quad_tol-nan"): lambda: ld.conditional_density(
        _P2, _M2, _T2, (1, 0), [0.1], quad_tol=math.nan),
    ("conditional_density", "quad_tol-inf"): lambda: ld.conditional_density(
        _P2, _M2, _T2, (1, 0), [0.1], quad_tol=math.inf),
    ("conditional_density", "quad_tol-zero"): lambda: ld.conditional_density(
        _P2, _M2, _T2, (1, 0), [0.1], quad_tol=0.0),
    ("conditional_density", "quad_tol-negative"): lambda: ld.conditional_density(
        _P2, _M2, _T2, (1, 0), [0.1], quad_tol=-1.0),
    ("cdf", "tuning"): lambda: ld.cdf(_P2, _M2, _T1, [0.1, 0.2]),
    ("cdf", "beta"): lambda: ld.cdf(_P2, _M3, _T2, [0.1, 0.2]),
    ("cdf", "length"): lambda: ld.cdf(_P2, _M2, _T2, _THREE),
    ("cdf", "nan"): lambda: ld.cdf(_P2, _M2, _T2, _NAN),
    ("cdf", "quad_tol-nan"): lambda: ld.cdf(_P2, _M2, _T2, [0.1, 0.2], quad_tol=math.nan),
    ("cdf", "quad_tol-inf"): lambda: ld.cdf(_P2, _M2, _T2, [0.1, 0.2], quad_tol=math.inf),
    ("cdf", "quad_tol-zero"): lambda: ld.cdf(_P2, _M2, _T2, [0.1, 0.2], quad_tol=0.0),
    ("cdf", "quad_tol-negative"): lambda: ld.cdf(_P2, _M2, _T2, [0.1, 0.2], quad_tol=-1.0),
    ("error_density", "tuning"): lambda: ld.error_density(_P2, _M2, _T1, [0.1, 0.2]),
    ("error_density", "beta"): lambda: ld.error_density(_P2, _M3, _T2, [0.1, 0.2]),
    ("error_density", "length"): lambda: ld.error_density(_P2, _M2, _T2, _THREE),
    ("error_density", "nan"): lambda: ld.error_density(_P2, _M2, _T2, _NAN),
    ("prob_region_high", "tuning"): lambda: ld.prob_region_high(
        _P2, _M2, _T1, ld.region_support_includes(0), **_MC),
    ("prob_region_high", "beta"): lambda: ld.prob_region_high(
        _P2, _M3, _T2, ld.region_support_includes(0), **_MC),
    ("prob_region_high", "region-column"): lambda: ld.prob_region_high(
        _P2, _M2, _T2, ld.region_support_includes(5), **_MC),
    ("prob_region_high", "region-length"): lambda: ld.prob_region_high(
        _P2, _M2, _T2, ld.region_below([1.0, 2.0, 3.0]), **_MC),
    ("prob_region_high", "region-short"): lambda: ld.prob_region_high(
        _P2, _M2, _T2, ld.region_below([1.0]), **_MC),
    ("prob_region_high", "region-shape"): lambda: ld.prob_region_high(
        _P2, _M2, _T2, lambda B: B > 0.0, **_MC),
    ("prob_region_high", "n_samples-fraction"): lambda: ld.prob_region_high(
        _P2, _M2, _T2, ld.region_orthant((0, 0)), n_samples=2.5, seed=1),
    ("prob_region_high", "n_samples-string"): lambda: ld.prob_region_high(
        _P2, _M2, _T2, ld.region_orthant((0, 0)), n_samples="10", seed=1),
    ("prob_region_high", "region_orthant-signs-length"): lambda: ld.prob_region_high(
        _P2, _M2, _T2, ld.region_orthant((0, 0, 0)), **_MC),
    ("region_below", "nan"): lambda: ld.region_below(_NAN),
    ("region_support_includes", "index-negative"): lambda: ld.region_support_includes(-1),
    ("region_support_includes", "index-fraction"): lambda: ld.region_support_includes(0.5),
    ("mvn_box_probability", "length"): lambda: ld.mvn_box_probability(
        [0.0, 0.0], np.eye(2), [-1.0, -1.0, -1.0], [1.0, 1.0]),
    ("mvn_box_probability", "nan"): lambda: ld.mvn_box_probability(
        _NAN, np.eye(2), [-1.0, -1.0], [1.0, 1.0]),
    ("mvn_box_probability", "n_samples-zero"): lambda: ld.mvn_box_probability(
        np.zeros(3), np.eye(3), -np.ones(3), np.ones(3), n_samples=0),
    ("mvn_box_probability", "n_samples-negative"): lambda: ld.mvn_box_probability(
        np.zeros(3), np.eye(3), -np.ones(3), np.ones(3), n_samples=-3),
    ("mvn_box_probability", "n_samples-fraction"): lambda: ld.mvn_box_probability(
        np.zeros(3), np.eye(3), -np.ones(3), np.ones(3), n_samples=2.5),
    ("mvn_box_probability", "n_shifts-fraction"): lambda: ld.mvn_box_probability(
        np.zeros(3), np.eye(3), -np.ones(3), np.ones(3), n_shifts=2.5),
    ("mvn_box_probability", "n_samples-cap"): lambda: ld.mvn_box_probability(
        np.zeros(3), np.eye(3), -np.ones(3), np.ones(3), n_samples=2**20),
    ("selectable", "tuning"): lambda: ld.selectable(_P2, _T1, (0,)),
    ("selectable", "index-fraction"): lambda: ld.selectable(_P2, _T2, (0.7,)),
    ("selectable", "index-repeat"): lambda: ld.selectable(_P2, _T2, (0, 0)),
    ("selectable", "index-negative"): lambda: ld.selectable(_P2, _T2, (-1,)),
    ("selectable", "index-p"): lambda: ld.selectable(_P2, _T2, (2,)),
    ("selectable", "index-string"): lambda: ld.selectable(_P2, _T2, ("a",)),
    ("structural_set", "tuning"): lambda: ld.structural_set(_P2, _T1),
    ("check_uniqueness", "tuning"): lambda: ld.check_uniqueness(_P1X2, _T1),
    ("construct_nonuniqueness_witness", "tuning"): lambda: ld.construct_nonuniqueness_witness(
        _P1X2, _T1, (0, 1), [1.0, 2.0]),
    ("construct_nonuniqueness_witness", "length"): lambda: ld.construct_nonuniqueness_witness(
        _P1X2, ld.tuning_vector([1.0, 2.0]), (0, 1), _THREE),
    ("construct_nonuniqueness_witness", "nan"): lambda: ld.construct_nonuniqueness_witness(
        _P1X2, ld.tuning_vector([1.0, 2.0]), (0, 1), [math.nan, 2.0]),
    ("construct_nonuniqueness_witness", "index-fraction"): lambda: (
        ld.construct_nonuniqueness_witness(_P2, _T2, (0, 0.9, 1), [0.5, 0.5])),
    ("construct_nonuniqueness_witness", "index-repeat"): lambda: (
        ld.construct_nonuniqueness_witness(_P1X2, _T2, (1, 1), [0.75, 1.5])),
    ("construct_nonuniqueness_witness", "index-negative"): lambda: (
        ld.construct_nonuniqueness_witness(_P1X2, _T2, (-1, 0), [0.75, 1.5])),
    ("construct_nonuniqueness_witness", "index-p"): lambda: (
        ld.construct_nonuniqueness_witness(_P1X2, _T2, (0, 2), [0.75, 1.5])),
    ("FaceBox.contains", "length"): lambda: ld.face_box(_T2, (0,), (1,)).contains(_THREE),
    ("FaceBox.contains", "nan"): lambda: ld.face_box(_T2, (0,), (1,)).contains(_NAN),
    ("face_box", "signs"): lambda: ld.face_box(_T2, (0,), (1.7,)),
    ("face_box", "index-fraction"): lambda: ld.face_box(_T2, (0.5,), (1,)),
    ("face_box", "index-repeat"): lambda: ld.face_box(_T2, (0, 0), (1, 1)),
    ("face_box", "index-negative"): lambda: ld.face_box(_T2, (-1,), (1,)),
    ("face_box", "index-p"): lambda: ld.face_box(_T2, (2,), (1,)),
    ("face_box", "signs-length"): lambda: ld.face_box(_T2, (0, 1), (1,)),
    ("face_intersects_row_space", "p"): lambda: ld.face_intersects_row_space(
        _P2, ld.face_box(ld.uniform_tuning(3, 0.75), (0,), (1,))),
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
    ("solve", "huge"): lambda: ld.solve(_P2, [1e151, 0.5], _T2),
    ("solve_many", "huge"): lambda: ld.solve_many(_P2, [[1.0, 0.5], [-1e151, 0.0]], _T2),
    # the largest legal sigma draws responses above MAX_MAGNITUDE
    ("prob_region_high", "huge-sigma"): lambda: ld.prob_region_high(
        _P2, ld.gaussian_model(_P2, [0.0, 0.0], 1e150), _T2, ld.region_below([1.0, 2.0]), **_MC),
    ("solve", "max_iter-zero"): lambda: ld.solve(_P2, [1.0, 0.5], _T2, max_iter=0),
    ("solve", "max_iter-negative"): lambda: ld.solve(_P2, [1.0, 0.5], _T2, max_iter=-1),
    ("solve", "max_iter-fraction"): lambda: ld.solve(_P2, [1.0, 0.5], _T2, max_iter=2.5),
    ("solve_many", "tuning"): lambda: ld.solve_many(_P2, [[1.0, 0.5]], _T1),
    ("solve_many", "max_iter-zero"): lambda: ld.solve_many(_P2, [[1.0, 0.5]], _T2, max_iter=0),
    ("solve_many", "max_iter-negative"): lambda: ld.solve_many(
        _P2, [[1.0, 0.5]], _T2, max_iter=-1),
    ("solve_many", "max_iter-fraction"): lambda: ld.solve_many(
        _P2, [[1.0, 0.5]], _T2, max_iter=2.5),
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


def test_integral_inputs_follow_one_integer_rule():
    # model._as_int reads every integral value, a bool included, as that int
    assert ld.uniform_tuning(True, 1.0).p == 1 and ld.uniform_tuning(np.float64(2.0), 1.0).p == 2
    got = ld.prob_region_high(_P2, _M2, _T2, ld.region_support_includes(True), n_samples=True)
    want = ld.prob_region_high(_P2, _M2, _T2, ld.region_support_includes(1), n_samples=1)
    assert vars(got) == vars(want)


def test_integer_rule_messages_print_plain_values():
    # a numpy scalar reads as the number it holds, not as its repr
    box = (np.zeros(3), np.eye(3), -np.ones(3), np.ones(3))
    for call in (
        lambda: ld.mvn_box_probability(*box, n_samples=np.float64(2.5)),
        lambda: ld.mvn_box_probability(*box, n_shifts=np.float64(2.5)),
        lambda: ld.uniform_tuning(np.float64(2.5), 1.0),
        lambda: ld.region_support_includes(np.float64(2.5)),
    ):
        with pytest.raises(InputError) as info:
            call()
        assert "got 2.5" in str(info.value) and "np." not in str(info.value)


def test_region_predicate_checked_before_any_replicate(monkeypatch):
    chunks = []

    def spy(*args, **kwargs):
        chunks.append(args)
        return solver.solve_many(*args, **kwargs)

    monkeypatch.setattr(simulate, "solve_many", spy)
    for kind in ("region-column", "region-length", "region-short"):
        with pytest.raises(InputError):
            _MALFORMED[("prob_region_high", kind)]()
    assert chunks == []
    # a predicate that reads p columns still samples
    ld.prob_region_high(_P2, _M2, _T2, ld.region_below([1.0, 2.0]), **_MC)
    assert len(chunks) == 1


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


def _records():
    """(record, field names in order, value equality) for every public record."""
    from lassodist.cli import Envelope

    prob = ld.build_problem(np.array([[1.0, 2.0]]))
    v = np.array([0.5, -0.25])
    sv = ld.SignVector(d=(1, 0))
    face = ld.FaceBox(lam=np.ones(2), fixed_sign=np.array([1, 0]))
    sol = ld.LassoSolution(b=v, fit=np.array([0.0]), objective=1.5, kkt_residual=1e-12,
                           active_model=(0, 1))
    rp = ld.RegionProbability(0.25, 0.01, "monte-carlo", 100, 3, 0.0)
    witness = ld.NonuniquenessWitness(y=np.array([4.0]), b=v, b_tilde=-v)
    return [
        (prob, ("X", "gram", "rank_x", "scale", "unit", "unit_norm"), False),
        (ld.TuningVector(lam=v, m0=()), ("lam", "m0"), False),
        (sv, ("d",), True),
        (ld.GaussianModel(beta=v, sigma=1.0, mu=np.array([0.0])), ("beta", "sigma", "mu"), False),
        (rp, ("estimate", "std_error", "method", "n_samples", "seed", "quad_tol"), False),
        (ld.OrthantEvent(z=v, d=sv), ("z", "d"), False),
        (face, ("lam", "fixed_sign"), False),
        (ld.RowSpacePoint(v=v, z=np.array([1.0])), ("v", "z"), False),
        (witness, ("y", "b", "b_tilde"), False),
        (ld.ViolatingFace(model=(0, 1), signs=(1, -1), v=v), ("model", "signs", "v"), False),
        (ld.UniquenessVerdict(unique=False, witness=witness, violating_face=None),
         ("unique", "witness", "violating_face"), False),
        (ld.ShrinkageSet(center=v, box=face, b=v, gram=prob.gram, domain="xty"),
         ("center", "box", "b", "gram", "domain"), False),
        (ld.SimulationConfig(n_rep=10, seed=2),
         ("n_rep", "seed", "solver_tol"), True),
        (ld.EmpiricalSummary(n_rep=10, seed=2, sign_pattern_freq={sv: 10}, support_freq={(0,): 10},
                             ecdf_grid=(((0.0, 0.5),),), nonunique_count=1),
         ("n_rep", "seed", "sign_pattern_freq", "support_freq", "ecdf_grid", "nonunique_count",
          "convergence_failures"), False),
        (ld.ComparisonReport(analytic=rp, empirical=rp, discrepancy=0.0, tolerance=0.1,
                             passed=True),
         ("analytic", "empirical", "discrepancy", "tolerance", "passed"), False),
        (sol, ("b", "fit", "objective", "kkt_residual", "active_model"), False),
        (ld.KKTReport(ok=True, max_violation=0.0, worst_index=1),
         ("ok", "max_violation", "worst_index"), False),
        (ld.SolutionSetDescription(fit=np.array([0.0]), anchor=sol, equicorrelation_signs=(1, 0),
                                   is_unique_at_y=True),
         ("fit", "anchor", "equicorrelation_signs", "is_unique_at_y"), False),
        (Envelope(problem=prob, lam=v, model=ld.gaussian_model(prob, v, 1.0), y=None),
         ("problem", "lam", "model", "y"), False),
    ]


_RECORDS = sorted(name for name in ld.__all__ if isinstance(getattr(ld, name), type)
                  and getattr(ld, name).__repr__.__qualname__.startswith("_record."))


def test_every_public_record_is_in_the_contract_table():
    assert len(_RECORDS) == 18
    assert {type(rec).__name__ for rec, _, _ in _records()} == {*_RECORDS, "Envelope"}


@pytest.mark.parametrize("name", [*_RECORDS, "Envelope"])
def test_record_contract(name):
    import copy
    import pickle

    rec, names, by_value = next(r for r in _records() if type(r[0]).__name__ == name)
    cls = type(rec)
    values = [getattr(rec, k) for k in names]
    text = f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in zip(names, values)) + ")"
    assert repr(rec) == text
    positional = cls(*values)
    assert repr(positional) == text and all(getattr(positional, k) is v
                                            for k, v in zip(names, values))
    for k in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, k, None)
        with pytest.raises(AttributeError):
            delattr(rec, k)
    assert repr(rec) == text
    # value equality and hash only where declared; identity elsewhere
    assert rec == rec and hash(rec) == hash(rec)
    if by_value:
        assert positional == rec and hash(positional) == hash(rec)
    else:
        assert positional != rec and hash(rec) == object.__hash__(rec)
    clones = [copy.copy(rec), copy.deepcopy(rec)]
    clones += [pickle.loads(pickle.dumps(rec, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is cls and repr(clone) == text
        assert (clone == rec) is by_value
        with pytest.raises(AttributeError):
            setattr(clone, names[0], None)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[1:], **{names[0]: values[0], "extra": None})


# the parameters of every public function, in order; records are pinned by
# _records. A new option shows up here as a change to review
_PARAMETERS = {
    "build_problem": ("X",),
    "cdf": ("problem", "model", "tuning", "z", "coords", "quad_tol"),
    "check_uniqueness": ("problem", "tuning", "tol"),
    "compare_analytic_empirical": ("analytic", "empirical"),
    "conditional_density": ("problem", "model", "tuning", "d", "z_active", "quad_tol"),
    "construct_nonuniqueness_witness": ("problem", "tuning", "model", "v", "z"),
    "describe_solution_set": ("problem", "y", "tuning", "tol"),
    "design_from_gram": ("gram",),
    "error_density": ("problem", "model", "tuning", "z"),
    "error_orthant_event": ("z", "d"),
    "estimate_nonuniqueness_probability": ("problem", "model", "tuning", "config"),
    "estimator_orthant_event": ("model", "z", "d"),
    "face_box": ("tuning", "model", "signs"),
    "face_intersects_row_space": ("problem", "face", "tol"),
    "fiber_equivalent": ("m1", "m2", "problem"),
    "gaussian_model": ("problem", "beta", "sigma"),
    "general_position": ("problem",),
    "is_solution": ("problem", "y", "tuning", "b", "tol"),
    "map_ls_to_lasso": ("problem", "tuning", "z_ls", "tol"),
    "mvn_box_probability": ("mean", "cov", "lower", "upper", "n_samples", "seed", "n_shifts"),
    "orthant_mass": ("problem", "model", "tuning", "d", "kwargs"),
    "prob_all_zero": ("problem", "model", "tuning", "seed"),
    "prob_orthant_event": ("problem", "model", "tuning", "event", "seed", "quad_tol"),
    "prob_region_high": ("problem", "model", "tuning", "region", "n_samples", "seed",
                         "solver_tol"),
    "region_below": ("z",),
    "region_orthant": ("d", "z"),
    "region_support_includes": ("j",),
    "run_simulation": ("problem", "model", "tuning", "config"),
    "selectable": ("problem", "tuning", "model", "tol"),
    "shrinkage_set_high": ("problem", "tuning", "b"),
    "shrinkage_set_low": ("problem", "tuning", "b"),
    "shrinkage_singleton": ("problem", "tuning", "b"),
    "sign_partition": ("z",),
    "solve": ("problem", "y", "tuning", "tol", "max_iter"),
    "solve_many": ("problem", "Y", "tuning", "tol", "max_iter"),
    "structural_set": ("problem", "tuning", "tol"),
    "tuning_vector": ("lam",),
    "uniform_tuning": ("p", "lam_bar"),
}


def test_public_parameters_are_pinned():
    import inspect

    functions = {name: getattr(ld, name) for name in ld.__all__
                 if not isinstance(getattr(ld, name), type)}
    assert {name: tuple(inspect.signature(f).parameters) for name, f in functions.items()} == (
        _PARAMETERS)


def test_record_defaults_and_checks():
    a, b = ld.EmpiricalSummary(1, 0), ld.EmpiricalSummary(n_rep=1, seed=0)
    assert a.sign_pattern_freq == {} and a.sign_pattern_freq is not b.sign_pattern_freq
    assert a.support_freq is not b.support_freq
    a.sign_pattern_freq[ld.SignVector((1,))] = 1
    assert b.sign_pattern_freq == {} and ld.EmpiricalSummary(1, 0).sign_pattern_freq == {}
    assert (a.ecdf_grid, a.nonunique_count, a.convergence_failures) == ((), 0, 0)
    assert ld.SimulationConfig() == ld.SimulationConfig(100_000, 0)
    with pytest.raises(TypeError):
        ld.SignVector()
    # __post_init__ runs on every construction, positional or keyword
    with pytest.raises(InputError):
        ld.SignVector((2,))
    with pytest.raises(InputError):
        ld.SimulationConfig(0)
    with pytest.raises(InputError):
        ld.SimulationConfig(n_rep=10, solver_tol=0.0)
