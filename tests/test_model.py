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
