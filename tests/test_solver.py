import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lassodist as ld
from lassodist.errors import ConvergenceError, InputError
from lassodist.solver import DEFAULT_TOL, kernel_sign_cone_nonempty
from prox_oracle import ista_solve, objective


def test_soft_threshold_solution(n1p2):
    # X = (1 2), y = 3, lam = (2 2): only the second coordinate can be active
    sol = ld.solve(n1p2, [3.0], ld.uniform_tuning(2, 2.0))
    assert sol.active_model == (1,)
    assert abs(sol.b[0]) <= 1e-12
    # (X'X)_22 = 4, X_2'y = 6, soft(6, 2)/4 = 1
    assert abs(sol.b[1] - 1.0) <= 1e-10
    assert sol.kkt_residual <= 1e-10


def test_no_penalty_recovers_least_squares():
    prob = ld.build_problem(np.eye(2))
    sol = ld.solve(prob, [0.7, -0.3], ld.tuning_vector([0.0, 0.0]))
    assert np.allclose(sol.b, [0.7, -0.3], atol=1e-10)
    assert sol.objective <= 1e-18


def test_solve_matches_ista_on_fixed_cases():
    cases = [
        (np.array([[1.0, 2.0]]), np.array([3.0]), np.array([2.0, 2.0])),
        (np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), np.array([2.0, -1.0]), np.array([1.0, 1.0, 1.0])),
        (np.array([[1.0, 1.0, 2.0, 0.0], [0.0, 0.0, 1.0, 3.0]]), np.array([1.5, 2.5]), np.array([0.5, 1.0, 0.0, 2.0])),
    ]
    for X, y, lam in cases:
        prob = ld.build_problem(X)
        sol = ld.solve(prob, y, ld.tuning_vector(lam))
        ref = ista_solve(X, y, lam)
        obj_ref = objective(X, y, lam, ref)
        assert sol.objective <= obj_ref + 1e-8 * (1.0 + abs(obj_ref))
        assert ld.is_solution(prob, y, ld.tuning_vector(lam), sol.b, tol=1e-8).ok


def test_solution_objective_value(n1p2):
    t = ld.uniform_tuning(2, 2.0)
    sol = ld.solve(n1p2, [3.0], t)
    r = 3.0 - (sol.b[0] + 2.0 * sol.b[1])
    assert abs(sol.objective - (r * r + 2.0 * (2.0 * abs(sol.b[0]) + 2.0 * abs(sol.b[1])))) <= 1e-12


def test_is_solution_rejects_perturbation(n1p2):
    t = ld.uniform_tuning(2, 2.0)
    sol = ld.solve(n1p2, [3.0], t)
    report = ld.is_solution(n1p2, [3.0], t, sol.b + np.array([0.0, 0.05]))
    assert not report.ok
    assert report.max_violation > 1e-3
    assert report.worst_index in (0, 1)


def test_solve_many_matches_solve(x2x3):
    t = ld.tuning_vector([1.0, 0.5, 2.0])
    Y = np.array([[2.0, -1.0], [0.0, 0.0], [5.0, 5.0], [-3.0, 1.0]])
    B, resids = ld.solve_many(x2x3, Y, t)
    assert np.all(resids <= DEFAULT_TOL)
    # one engine: solve is the one-row call of solve_many, bit for bit
    for i in range(Y.shape[0]):
        one = ld.solve(x2x3, Y[i], t)
        assert np.array_equal(B[i], one.b)


def test_convergence_error_carries_best_iterate(corr2):
    # both coordinates active on a correlated design: coordinate descent
    # approaches the optimum geometrically, so one sweep cannot hit 1e-15
    t = ld.tuning_vector([0.1, 0.1])
    with pytest.raises(ConvergenceError) as exc:
        ld.solve(corr2, [2.0, -1.5], t, tol=1e-15, max_iter=1)
    assert exc.value.b is not None and exc.value.b.shape == (2,)
    assert np.isfinite(exc.value.kkt_residual)
    # the same engine: the batched call returns that row's best iterate
    B, resids = ld.solve_many(corr2, [[2.0, -1.5]], t, tol=1e-15, max_iter=1)
    assert np.array_equal(exc.value.b, B[0])
    assert exc.value.kkt_residual == resids[0]
    report = ld.is_solution(corr2, [2.0, -1.5], t, exc.value.b, zero_tol=0.0)
    assert abs(report.max_violation - exc.value.kkt_residual) <= 1e-12


def test_solve_many_checks_inputs_like_solve(n1p2):
    # a non-finite response would give a NaN residual, which no
    # "residual > tol" failure count sees
    t = ld.uniform_tuning(2, 1.0)
    with pytest.raises(InputError):
        ld.solve_many(n1p2, [[np.nan], [3.0], [np.inf]], t)
    with pytest.raises(InputError):
        ld.solve_many(n1p2, [[3.0]], t, tol=0.0)
    with pytest.raises(InputError):
        ld.solve_many(n1p2, [[3.0, 1.0]], t)


def test_input_validation(n1p2):
    t = ld.uniform_tuning(2, 1.0)
    with pytest.raises(InputError):
        ld.solve(n1p2, [1.0, 2.0], t)
    with pytest.raises(InputError):
        ld.solve(n1p2, [np.nan], t)
    with pytest.raises(InputError):
        ld.solve(n1p2, [1.0], ld.uniform_tuning(3, 1.0))
    with pytest.raises(InputError):
        ld.solve(n1p2, [1.0], t, tol=0.0)
    with pytest.raises(InputError):
        ld.is_solution(n1p2, [1.0], t, [0.0, 0.0, 0.0])


def test_describe_unique_case(n1p2):
    desc = ld.describe_solution_set(n1p2, [3.0], ld.uniform_tuning(2, 2.0))
    assert desc.is_unique_at_y
    assert desc.anchor.active_model == (1,)
    # at b = (0,1)': g = (1, 2)', so coordinate 1 sits at +lam and
    # coordinate 2 is strictly inside its tube
    assert desc.equicorrelation_signs == (0, 1)


def test_describe_nonunique_case(n1p2):
    # lam = (1 2)' matches the column ratio, so the solution set is a segment
    desc = ld.describe_solution_set(n1p2, [4.0], ld.tuning_vector([1.0, 2.0]))
    assert not desc.is_unique_at_y
    assert np.allclose(desc.fit, [3.0], atol=1e-9)


def test_describe_small_response_is_unique(n1p2):
    # |X'y| < lam componentwise: only solution is 0, despite rank deficiency
    desc = ld.describe_solution_set(n1p2, [0.25], ld.tuning_vector([1.0, 2.0]))
    assert desc.is_unique_at_y
    assert np.allclose(desc.anchor.b, 0.0, atol=1e-12)
    # g = (0.25, 0.5)', strictly inside both tubes
    assert desc.equicorrelation_signs == (0, 0)


def test_describe_reports_unpenalized_index_at_plus_one(x2x3):
    # lam_1 = 0: both boundaries coincide and g_1 is rounding noise around 0
    # (negative here), so the index is reported at +1 whatever that noise is
    desc = ld.describe_solution_set(x2x3, [0.3, 1.3], ld.tuning_vector([0.0, 0.5, 0.5]))
    assert desc.equicorrelation_signs == (1, 1, 1)


def test_kernel_sign_cone(n1p2):
    # ker X = span{(2, -1)'}: a direction with h_1 >= 0 exists, with
    # h_1 >= 0 and h_2 >= 0 jointly it does not
    assert kernel_sign_cone_nonempty(n1p2, [0, 1], [0], [1.0])
    assert not kernel_sign_cone_nonempty(n1p2, [0, 1], [0, 1], [1.0, 1.0])
    assert not kernel_sign_cone_nonempty(n1p2, [], [], [])


def _random_case(draw):
    n = draw(st.integers(1, 4))
    p = draw(st.integers(1, 5))
    entry = st.integers(-3, 3).map(float)
    X = np.array([[draw(entry) for _ in range(p)] for _ in range(n)])
    y = np.array([draw(entry) for _ in range(n)])
    lam = np.array([draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) for _ in range(p)])
    return X, y, lam


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_matches_ista_objective(data):
    X, y, lam = _random_case(data.draw)
    prob = ld.build_problem(X)
    t = ld.tuning_vector(lam)
    sol = ld.solve(prob, y, t)
    ref = ista_solve(X, y, lam)
    obj_ref = objective(X, y, lam, ref)
    assert sol.objective <= obj_ref + 1e-8 * (1.0 + abs(obj_ref))
    assert ld.is_solution(prob, y, t, sol.b, tol=1e-8).ok


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_solution_set_shares_fit(data):
    X, y, lam = _random_case(data.draw)
    prob = ld.build_problem(X)
    t = ld.tuning_vector(lam)
    desc = ld.describe_solution_set(prob, y, t)
    ref = ista_solve(X, y, lam)
    # any optimum has the same fit as the anchor
    if ld.is_solution(prob, y, t, ref, tol=1e-7).ok:
        assert np.allclose(X @ ref, desc.fit, atol=1e-5)
