import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lassodist as ld
from lassodist import solver
from lassodist.errors import ConvergenceError, InputError
from lassodist.solver import DEFAULT_TOL, kernel_sign_cone_nonempty
from conftest import FIXTURES
from prox_oracle import ista_solve, objective, soft


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
    report = ld.is_solution(corr2, [2.0, -1.5], t, exc.value.b)
    assert abs(report.max_violation - exc.value.kkt_residual) <= 1e-12


@pytest.mark.parametrize("name", ["corr2", "corr3", "n12p10"])
def test_large_scale_responses_are_certified(name):
    # the rounding of a KKT entry grows with |X'y|, so from about 1e6 no
    # iterate meets tol = 1e-10 in absolute terms; each entry is allowed
    # the rounding bound of its own terms, and kkt_residual stays raw
    env = json.loads((FIXTURES / f"{name}.json").read_text())
    prob, t = ld.build_problem(env["X"]), ld.tuning_vector(env["lambda"])
    for scale in (1e6, 1e9, 1e12):
        Y = scale * np.random.default_rng(0).normal(size=(300, prob.n))
        B, resids = ld.solve_many(prob, Y, t)
        assert np.any(resids > DEFAULT_TOL)
        for y, b in zip(Y, B):
            assert ld.is_solution(prob, y, t, b, tol=DEFAULT_TOL)
        # the one-row call certifies its own answer, which matches the batched
        # row to BLAS rounding only
        assert ld.is_solution(prob, Y[0], t, ld.solve(prob, Y[0], t).b, DEFAULT_TOL)
        assert not ld.is_solution(prob, Y[0], t, B[0] * (1.0 + 1e-9), tol=DEFAULT_TOL)
        model = ld.gaussian_model(prob, np.zeros(prob.p), scale)
        summary = ld.run_simulation(prob, model, t, ld.SimulationConfig(n_rep=1000, seed=1))
        assert summary.n_rep == 1000


def test_solve_many_checks_inputs_like_solve(n1p2):
    # a non-finite response would give a NaN residual, which no
    # "residual > tol" failure count sees
    t = ld.uniform_tuning(2, 1.0)
    with pytest.raises(InputError):
        ld.solve_many(n1p2, [[np.nan], [3.0], [np.inf]], t)
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(InputError):
            ld.solve_many(n1p2, [[3.0]], t, tol=tol)
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
    # an infinite tolerance would accept the first sweep's iterate, and
    # would certify any b
    for tol in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InputError):
            ld.solve(n1p2, [1.0], t, tol=tol)
        with pytest.raises(InputError):
            ld.is_solution(n1p2, [1.0], t, [5.0, 5.0], tol=tol)
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
    # h_1 >= 0 and h_2 >= 0 jointly it does not, and none with both pinned
    assert kernel_sign_cone_nonempty(n1p2, [1, 0])
    assert not kernel_sign_cone_nonempty(n1p2, [1, 1])
    assert not kernel_sign_cone_nonempty(n1p2, [2, 2])


def test_kernel_sign_cone_ignores_column_units():
    # columns 1 and 3 of scaled_2x3, of norms 1e12 and 2.2, are independent:
    # ranked at their own scale they would count as dependent and report a
    # second solution that check_uniqueness, on the same design, rules out
    env = json.loads((FIXTURES / "scaled_2x3.json").read_text())
    prob = ld.build_problem(env["X"])
    assert not kernel_sign_cone_nonempty(prob, [0, 2, 0])
    assert ld.check_uniqueness(prob, ld.tuning_vector(env["lambda"])).unique


def test_active_model_lists_every_nonzero_coefficient():
    # b_1 = 7.5e-13 on the column of norm 1e12 is a coefficient like any other
    env = json.loads((FIXTURES / "scaled_2x3.json").read_text())
    sol = ld.solve(ld.build_problem(env["X"]), [1.0, 1.0], ld.tuning_vector(env["lambda"]))
    assert sol.b[0] != 0.0
    assert sol.active_model == tuple(np.flatnonzero(sol.b)) == (0, 2)


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


def _sweep(gram, lam, C, B):
    """One cyclic coordinate-descent sweep over the rows of B, in place."""
    diag = np.diag(gram)
    for j in range(gram.shape[0]):
        if diag[j] <= 0.0:
            continue
        rho = C[:, j] - B @ gram[:, j] + diag[j] * B[:, j]
        B[:, j] = soft(rho, lam[j]) / diag[j]


def _plain_descend(gram, lam, C, tol, max_iter):
    """Coordinate descent alone, residual after every sweep: the engine without its finish."""
    m, p = C.shape
    B = np.zeros((m, p))
    resids = np.full(m, np.inf)
    rows, Ba, Ca = np.arange(m), B.copy(), C
    for _ in range(max_iter):
        if rows.size == 0:
            break
        _sweep(gram, lam, Ca, Ba)
        r = solver._kkt_violation(Ca - Ba @ gram, Ba, lam).max(axis=1)
        better = r < resids[rows]
        B[rows[better]], resids[rows[better]] = Ba[better], r[better]
        keep = r > tol
        if not keep.all():
            rows, Ba, Ca = rows[keep], Ba[keep], Ca[keep]
    return B, resids


def _correlated(rng, n, p, rho):
    X = np.sqrt(1.0 - rho) * rng.normal(size=(n, p)) + np.sqrt(rho) * rng.normal(size=(n, 1))
    return X * (np.sqrt(n) / np.linalg.norm(X, axis=0))


def _finish_cases():
    """(X, lam, mean response, rows, P) per design kind; b @ P are the coefficients
    that every solution shares in sign."""
    rng = np.random.default_rng(20261018)
    rho09 = _correlated(rng, 30, 12, 0.9)
    dup = rng.normal(size=(6, 5))
    dup[:, 3] = dup[:, 0]
    # equal columns with equal lam: solutions differ in how they split b_0 + b_3,
    # and plain descent itself leaves rounding-sized splits, so compare the sum
    merge = np.delete(np.eye(5), 3, axis=1)
    merge[3, 0] = 1.0
    return {
        "full_rank_rho09": (rho09, np.full(12, 2.0), rho09[:, :4] @ [1.0, -1.0, 0.8, 0.5], 256,
                            np.eye(12)),
        "wide_5x8": (rng.normal(size=(5, 8)), np.ones(8), np.zeros(5), 512, np.eye(8)),
        "duplicated_columns": (dup, np.ones(5), dup[:, :2] @ [1.0, -0.5], 256, merge),
        "zero_lambda_slots": (_correlated(rng, 8, 5, 0.7), np.array([0.0, 1.0, 0.5, 0.0, 1.0]),
                              np.zeros(8), 256, np.eye(5)),
    }


@pytest.mark.parametrize("case", list(_finish_cases()))
def test_finish_matches_plain_coordinate_descent(case, monkeypatch):
    X, lam, mu, m, P = _finish_cases()[case]
    prob, t = ld.build_problem(X), ld.tuning_vector(lam)
    Y = mu + 2.0 * np.random.default_rng(7).normal(size=(m, X.shape[0]))
    finish, finished = solver._finish, []

    def spy(*args):
        out = finish(*args)
        finished.append(int(out[0].sum()))
        return out

    monkeypatch.setattr(solver, "_finish", spy)
    B, resids = ld.solve_many(prob, Y, t)
    assert sum(finished) > 0  # the finish closed rows of this design
    ref, ref_resids = _plain_descend(prob.gram, lam, Y @ X, DEFAULT_TOL, 100_000)
    assert np.all(resids <= DEFAULT_TOL) and np.all(ref_resids <= DEFAULT_TOL)

    def pattern(b):
        b = b @ P
        return np.where(np.abs(b) > 1e-9, np.sign(b), 0.0)

    def objectives(b):
        return np.sum((Y - b @ X.T) ** 2, axis=1) + 2.0 * np.abs(b) @ lam

    assert np.array_equal(pattern(B), pattern(ref))
    obj, obj_ref = objectives(B), objectives(ref)
    assert np.all(np.abs(obj - obj_ref) <= 1e-12 * np.maximum(1.0, np.abs(obj_ref)))
    assert all(ld.is_solution(prob, Y[i], t, B[i], tol=1e-8).ok for i in range(m))
    for i in range(0, m, m // 4):
        b_ista = ista_solve(X, Y[i], lam)
        assert obj[i] <= objective(X, Y[i], lam, b_ista) + 1e-8 * (1.0 + abs(obj[i]))


@pytest.mark.filterwarnings("error")
def test_finish_skips_rows_it_cannot_solve(n1p2, x2x4, monkeypatch):
    systems = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda M, b: systems.append(len(M)) or solve(M, b))
    cases = [
        (n1p2, np.ones(2), np.array([[6.3], [8.3], [-9.2]])),
        (x2x4, np.ones(4), np.array([[6.3, -9.9], [4.6, -6.5], [-9.4, -7.5]])),
    ]
    for prob, lam, Y in cases:
        systems.clear()
        C = Y @ prob.X
        B = np.zeros((Y.shape[0], prob.p))
        for _ in range(solver._FIRST_FINISH):
            _sweep(prob.gram, lam, C, B)
        # at the first finish each row has more active coordinates than rk(X)
        assert np.all(np.count_nonzero(B, axis=1) > prob.rank_x)
        accepted, _ = solver._finish(prob, lam, C, B, np.ones(len(Y), bool), DEFAULT_TOL)
        assert not accepted.any() and systems == []  # no system is even formed
        out, resids = ld.solve_many(prob, Y, ld.tuning_vector(lam))
        assert np.all(np.isfinite(out)) and np.all(resids <= DEFAULT_TOL)
    # x2x4's first two columns are equal: |A| = 2 = rk(X), but G_AA is exactly singular
    systems.clear()
    Bc = np.array([[1.0, 0.5, 0.0, 0.0], [0.5, -0.25, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    C = np.array([[3.0, 3.0, 6.0, 0.0]]).repeat(3, axis=0)
    accepted, rf = solver._finish(x2x4, np.ones(4), C, Bc, np.ones(3, bool), DEFAULT_TOL)
    # rows 0 and 2 form one block of 2 x 2 systems, which fails on row 0 and is
    # solved again without it; row 1 has |A| = 3 > rk(X). The finish updates
    # Bc in place
    assert systems == [2, 1] and not accepted[:2].any()
    assert np.all(np.isfinite(Bc)) and np.all(np.isfinite(rf))


def test_finish_acceptance_rule():
    # X = I, lam = (1, 1). Row 0: y = (3, 1 + 1e-8), whose solution is
    # (2, 1e-8); on the support {0} the finish gives (2, 0), 1e-8 off KKT.
    # Row 1: the same y on the right support. Row 2: y = (3, 1); on the
    # support {0, 1} the finish gives (2, 0), a solution whose second sign is
    # not the iterate's, so the row stays in descent, stepped to (2, 0): its
    # second coordinate changes sign at the end of the segment
    prob = ld.build_problem(np.eye(2))
    C = np.array([[3.0, 1.0 + 1e-8], [3.0, 1.0 + 1e-8], [3.0, 1.0]])
    Bc = np.array([[1.5, 0.0], [1.5, 1e-9], [1.5, 0.5]])
    accepted, rf = solver._finish(prob, np.ones(2), C, Bc, np.ones(3, bool), DEFAULT_TOL)
    assert accepted.tolist() == [False, True, False]
    assert abs(rf[0] - 1e-8) <= 1e-12 and rf[1] <= DEFAULT_TOL
    assert np.array_equal(Bc[2], [2.0, 0.0]) and rf[2] == 0.0


def test_finish_closes_correlated_rows_within_300_sweeps():
    # rho = 0.9, (50, 30): descent alone leaves nearly every row open after 300 sweeps
    rng = np.random.default_rng(6)
    X = _correlated(rng, 50, 30, 0.9)
    beta = np.zeros(30)
    beta[[1, 7, 12, 20, 27]] = [1.2, -0.8, 1.0, -1.4, 0.6]
    Y = X @ beta + rng.normal(size=(1024, 50))
    _, resids = ld.solve_many(ld.build_problem(X), Y, ld.uniform_tuning(30, 3.0), tol=1e-10,
                              max_iter=300)
    assert np.all(resids <= 1e-10)


def test_rank_deficient_tail_row_closes_within_400_sweeps():
    # a (5, 8) row whose descent support exceeds rk(X) = 5 at the first finish
    # and whose coordinate with index 3 sits at |g_3| / lam_3 = 0.9997 in the
    # solution; descent alone is still 1e-3 off KKT after 400 sweeps, and with
    # a finish that drops its rejected solutions the row needed 4470 sweeps
    rng = np.random.default_rng(9)
    X = rng.normal(size=(5, 8))
    beta = rng.uniform(-0.5, 0.5, 8)
    y = (X @ beta + rng.normal(size=(512, 5)))[469]
    prob, lam = ld.build_problem(X), np.ones(8)
    C = y[None, :] @ X
    B = np.zeros((1, 8))
    for _ in range(solver._FIRST_FINISH):
        _sweep(prob.gram, lam, C, B)
    assert np.count_nonzero(B) > prob.rank_x
    _, plain_resids = _plain_descend(prob.gram, lam, C, DEFAULT_TOL, 400)
    assert plain_resids[0] > 1e-4
    B, resids = ld.solve_many(prob, [y], ld.tuning_vector(lam), max_iter=400)
    assert resids[0] <= DEFAULT_TOL
    g = X.T @ y - prob.gram @ B[0]
    assert 0.999 < abs(g[3]) < 1.0 and B[0][3] == 0.0
    b_ista = ista_solve(X, y, lam)
    assert objective(X, y, lam, B[0]) <= objective(X, y, lam, b_ista) + 1e-10


def test_null_steps_on_a_tall_design_stay_small(monkeypatch):
    # n = 200 and column 0 equal to column 1 at a higher lam: descent makes
    # both active, so the finish meets a singular G_AA on every row and takes
    # null steps, each on X_A' of k x 200. An n x n factor per stuck row
    # would hold 320 kB, or over 400 MB for 2000 rows; in chunks the solve
    # stays within a few MB
    rng = np.random.default_rng(5)
    X0 = rng.normal(size=(200, 5))
    X = np.column_stack([X0[:, 0], X0])
    Y = X @ np.array([0.0, 0.4, -0.3, 0.2, 0.0, 0.1]) + rng.normal(size=(2000, 200))
    lam = np.full(6, 8.0)
    lam[0] = 12.0
    stepped = []
    null_step = solver._null_step
    monkeypatch.setattr(solver, "_null_step",
                        lambda XtA, *a: stepped.append(len(XtA)) or null_step(XtA, *a))
    tracemalloc.start()
    try:
        B, resids = ld.solve_many(ld.build_problem(X), Y, ld.tuning_vector(lam), max_iter=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(stepped) >= 1000 and max(stepped) < 2000
    assert peak < 16e6
    assert np.all(resids <= DEFAULT_TOL) and np.all(B[:, 0] == 0.0)
    # the solution is unique: the design without the dearer copy gives it
    ref, _ = ld.solve_many(ld.build_problem(X0), Y, ld.tuning_vector(lam[1:]))
    assert np.allclose(B[:, 1:], ref, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("tiny", [0.0, 1e-9])
def test_kkt_violation_is_bitwise_its_formula(tiny):
    # written over g with one temporary, each entry is still the formula's;
    # an entry of b is zero only when it is exactly 0, so one at 1e-9
    # must meet g_j = sgn(b_j) lam_j
    rng = np.random.default_rng(11)
    b = rng.normal(size=(200, 6))
    b[rng.random(b.shape) < 0.4] = 0.0
    b[rng.random(b.shape) < 0.1] = tiny
    lam = rng.uniform(0.0, 1.0, 6)
    lam[0] = 0.0
    g = np.where(rng.random(b.shape) < 0.3, np.sign(b) * lam, rng.normal(size=b.shape))
    g[0] = -0.0
    want = np.where(b != 0.0, np.abs(g - np.sign(b) * lam), np.maximum(np.abs(g) - lam, 0.0))
    got = solver._kkt_violation(g.copy(), b, lam)
    assert got.tobytes() == want.tobytes()


def test_is_solution_counts_only_exact_zeros():
    # the solver's acceptance rule: b_1 = 5e-10 is a nonzero coefficient, so
    # g_1 = 0.5 must equal lam_1 = 1; read as a zero, b would pass
    prob, t = ld.build_problem(np.eye(2)), ld.tuning_vector([1.0, 1.0])
    report = ld.is_solution(prob, [0.5, -0.2], t, [5e-10, 0.0])
    assert not report.ok and report.worst_index == 0
    assert report.max_violation == pytest.approx(0.5)


def test_descent_keeps_few_arrays_the_size_of_a_block():
    # 8192 rows of a p = 3 design: iterates, right-hand sides, best iterates
    # and bookkeeping take 0.72 MB, and with the residual's two temporaries
    # the solve peaks at 1.31 MB traced. Four more arrays of that size in the
    # residual, or a copy of the iterates, give 1.86 MB
    prob = ld.design_from_gram(np.full((3, 3), 0.3) + 0.7 * np.eye(3))
    model = ld.gaussian_model(prob, [0.1, -0.15, 0.05], 1.0)
    t = ld.uniform_tuning(3, 0.75)
    Y = model.mu + np.random.default_rng(7).standard_normal((8192, 3))
    ld.solve_many(prob, Y, t)
    tracemalloc.start()
    try:
        B, resids = ld.solve_many(prob, Y, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(resids <= DEFAULT_TOL)
    assert peak < 1.5e6


def test_finish_batches_stay_near_the_byte_budget():
    # 20,000 rows supported on all 3 columns of a p = 3 design. Sized by the
    # 3 x 3 systems alone, a batch took 14,563 rows and the finish peaked at
    # 9.4 MB; sized by every array a row holds, a batch stays near
    # _FINISH_BYTES, and what remains is a few bytes of bookkeeping per row
    rng = np.random.default_rng(3)
    prob = ld.build_problem(rng.normal(size=(3, 3)))
    m = 20_000
    C, B = rng.normal(size=(m, 3)), rng.normal(size=(m, 3))
    tracemalloc.start()
    try:
        solver._finish(prob, np.full(3, 0.3), C, B, np.ones(m, dtype=bool), DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * solver._FINISH_BYTES + 64 * m


def _step_case(draw, singular):
    """A support A of k columns, an iterate b_A with signs s and the data of L on A."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(2, n + 3)) if singular else draw(st.integers(1, n))
    if draw(st.booleans()):
        X = np.array([[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(n)], float)
    else:
        X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, k))
    if singular and (k <= n or draw(st.booleans())):
        X[:, -1] = X[:, 0]  # equal columns: singular at any n
    y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n) * 3.0
    lam = np.array([draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) for _ in range(k)])
    b = np.array([draw(st.floats(0.01, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
                  for _ in range(k)])
    return X, y, lam, b


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_step_to_solution_never_raises_objective(data):
    X, y, lam, b = _step_case(data.draw, singular=False)
    M = X.T @ X
    assume(np.linalg.matrix_rank(M) == M.shape[0])
    s = np.sign(b)
    x = np.linalg.solve(M, X.T @ y - s * lam)
    new = solver._step_to_solution(M[None], (X.T @ y)[None], lam[None], b[None], x[None])[0]
    before = objective(X, y, lam, b)
    assert objective(X, y, lam, new) <= before + 1e-12 * (1.0 + abs(before))
    assert np.all(s * new >= 0.0)  # the signs hold on the segment
    if np.linalg.cond(M) < 1e6 and not np.array_equal(x, b):
        assert not np.array_equal(new, b)  # only rounding can refuse the step
    if np.any(s * x <= 0.0):
        assert np.count_nonzero(new) < len(b) or np.array_equal(new, b)
    else:
        assert np.array_equal(new, x) or np.array_equal(new, b)


def _refused_null_step_shift(X, lam, b):
    """How far the null step's candidate moves X b, and the bound _NULL_TOL * |X|_F |b|
    above which _null_step refuses it. The candidate is rebuilt from the same
    singular vector the solver takes, oriented and cut as its docstring says."""
    Xt = X.T[None]
    h = np.linalg.svd(Xt, full_matrices=Xt.shape[1] > Xt.shape[2])[0][0, :, -1]
    h[np.abs(h) <= solver._NULL_TOL] = 0.0
    s = np.sign(b)
    if np.sum(lam * s * h) > 0.0 or not np.any(s * h < 0.0):
        h = -h
    down = s * h < 0.0
    t = np.where(down, np.abs(b) / np.where(down, np.abs(h), 1.0), np.inf)
    first = int(np.argmin(t))
    cand = b + t[first] * h
    cand[s * cand <= 0.0] = 0.0
    cand[first] = 0.0
    # the fit moves only by rounding; measure it in the solver's own order
    shift = np.linalg.norm(np.einsum("ikn,ik->in", Xt, (cand - b)[None]))
    return shift, solver._NULL_TOL * np.linalg.norm(X) * np.linalg.norm(b)


def _check_null_step(X, y, lam, b):
    new = solver._null_step(X.T[None], lam[None], b[None])[0]
    fit = X @ b
    scale = max(np.linalg.norm(fit), np.linalg.norm(X) * np.linalg.norm(b))
    assert np.linalg.norm(X @ new - fit) <= 1e-12 * scale
    before = objective(X, y, lam, b)
    assert objective(X, y, lam, new) <= before + 1e-12 * (1.0 + abs(before))
    assert np.all(np.sign(b) * new >= 0.0)
    # a coordinate reaches 0, or the step would move the fit by more than
    # _NULL_TOL relative and b comes back unchanged
    if np.count_nonzero(new) == len(b):
        shift, bound = _refused_null_step_shift(X, lam, b)
        assert np.array_equal(new, b) and shift > bound
    return new


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_null_step_keeps_fit_and_never_raises_objective(data):
    _check_null_step(*_step_case(data.draw, singular=True))


def test_null_step_refuses_a_step_that_moves_the_fit():
    # the null vector carries 4.2e-4 on the only penalized coordinate, so the
    # step is 5.9e3 long and moves X b by 4.7e-13, above 1e-13 * |X| |b| = 3.8e-13
    X = np.random.default_rng(19463).normal(size=(1, 3))
    lam, b = np.array([0.0, 0.5, 0.0]), np.array([-1.0, 2.5, -1.0])
    new = _check_null_step(X, np.array([1.0]), lam, b)
    assert np.array_equal(new, b)
