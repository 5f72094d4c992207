"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package on fixed instances,
prints a [PASS] line with its wall-clock time, and enforces an explicit
runtime budget. Monte-Carlo comparisons run at fixed seeds, so every check
here is deterministic.
"""

import math
import time

import numpy as np

import lassodist as ld
from lassodist.rng import gaussian_chunks
from lassodist.solver import solve_many
from prox_oracle import ista_solve, objective

GRAM2 = np.array([[1.0, 0.5], [0.5, 1.0]])
LAM2 = np.array([0.75, 0.75])
BETA2 = np.array([0.0, -0.25])

TWO_PHI_M1 = 2.0 * 0.15865525393145707  # 2 Phi(-1)


def _budget(t0, limit, label):
    dt = time.perf_counter() - t0
    assert dt < limit, f"{label} took {dt:.2f}s, budget {limit}s"
    return dt


def test_criterion_1_collinear_coordinate_never_selected():
    t0 = time.perf_counter()
    prob = ld.build_problem(np.array([[1.0, 2.0]]))
    t = ld.uniform_tuning(2, 2.0)
    model = ld.gaussian_model(prob, [1.0, 0.0], 1.0)
    worst = 0.0
    for _start, _count, Z in gaussian_chunks(0, 10_000, 1):
        Y = model.mu + model.sigma * Z
        B, resids = solve_many(prob, Y, t)
        assert np.all(resids <= 1e-10)
        worst = max(worst, float(np.max(np.abs(B[:, 0]))))
    assert worst <= 1e-9
    assert not ld.selectable(prob, t, [0])
    dt = _budget(t0, 5.0, "criterion 1")
    print(f"[PASS] criterion 1: coordinate 1 never active over 10^4 replicates ({dt:.2f}s)")


def test_criterion_2_zero_atom_analytic_vs_monte_carlo():
    t0 = time.perf_counter()
    prob = ld.build_problem(np.array([[1.0, 2.0]]))
    t = ld.uniform_tuning(2, 2.0)
    model = ld.gaussian_model(prob, [1.0, 0.0], 1.0)
    analytic = ld.prob_all_zero(prob, model, t)
    assert abs(analytic.estimate - 0.477250) <= 5e-6
    mc = ld.prob_region_high(prob, model, t, ld.region_orthant((0, 0)), n_samples=100_000,
                             seed=101)
    report = ld.compare_analytic_empirical(analytic, mc)
    assert report.passed, f"discrepancy {report.discrepancy:.2e} > {report.tolerance:.2e}"
    dt = _budget(t0, 10.0, "criterion 2")
    print(f"[PASS] criterion 2: P(bhat = 0) = {analytic.estimate:.6f} within 3 SE of MC ({dt:.2f}s)")


def test_criterion_3_nonuniqueness_probability_and_witness():
    t0 = time.perf_counter()
    prob = ld.build_problem(np.array([[1.0, 2.0]]))
    t = ld.tuning_vector([1.0, 2.0])
    model = ld.gaussian_model(prob, [0.0, 0.0], 1.0)
    r = ld.estimate_nonuniqueness_probability(
        prob, model, t, ld.SimulationConfig(n_rep=100_000, seed=102)
    )
    assert abs(r.estimate - TWO_PHI_M1) <= 3.0 * r.std_error

    verdict = ld.check_uniqueness(prob, t)
    assert not verdict.unique
    w = verdict.witness
    assert ld.is_solution(prob, w.y, t, w.b, tol=1e-8).ok
    assert ld.is_solution(prob, w.y, t, w.b_tilde, tol=1e-8).ok
    assert np.max(np.abs(w.b - w.b_tilde)) > 1e-6
    dt = _budget(t0, 10.0, "criterion 3")
    print(f"[PASS] criterion 3: nonuniqueness freq {r.estimate:.5f} ~ 2 Phi(-1), witness verified ({dt:.2f}s)")


def test_criterion_4_uniqueness_verdicts_exact():
    prob12 = ld.build_problem(np.array([[1.0, 2.0]]))
    prob24 = ld.build_problem(np.array([[1.0, 1.0, 2.0, 0.0], [0.0, 0.0, 1.0, 3.0]]))
    cases = [
        (prob12, ld.tuning_vector([1.0, 1.0]), True),
        (prob24, ld.uniform_tuning(4, 1.0), True),
        (prob12, ld.tuning_vector([1.0, 2.0]), False),
    ]
    for prob, t, expect in cases:
        t0 = time.perf_counter()
        assert ld.check_uniqueness(prob, t).unique is expect
        _budget(t0, 1.0, "criterion 4 verdict")
    t0 = time.perf_counter()
    assert not ld.general_position(prob24)
    _budget(t0, 1.0, "criterion 4 general position")
    print("[PASS] criterion 4: three uniqueness verdicts exact, each under 1s")


def test_criterion_5_structural_sets_and_scale_invariance():
    t0 = time.perf_counter()
    prob12 = ld.build_problem(np.array([[1.0, 2.0]]))
    prob23 = ld.build_problem(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
    for lam_bar in (0.5, 2.0, 10.0):
        assert ld.structural_set(prob12, ld.uniform_tuning(2, lam_bar)) == (1,)
        assert ld.structural_set(prob23, ld.uniform_tuning(3, lam_bar)) == (0, 1, 2)
    dt = _budget(t0, 1.0, "criterion 5")
    print(f"[PASS] criterion 5: structural sets {{2}} and {{1,2,3}}, invariant in the scale ({dt:.2f}s)")


def test_criterion_6_quadrature_against_monte_carlo():
    t0 = time.perf_counter()
    prob = ld.design_from_gram(GRAM2)
    model = ld.gaussian_model(prob, BETA2, 1.0)
    tuning = ld.tuning_vector(LAM2)

    atom = ld.prob_all_zero(prob, model, tuning)
    atom_mc = ld.prob_region_high(prob, model, tuning, ld.region_orthant((0, 0)),
                                  n_samples=100_000, seed=111)
    assert abs(atom.estimate - atom_mc.estimate) <= 3.0 * atom_mc.std_error + 1e-3

    events = [
        ((0, -1), np.array([0.0, -0.1])),
        ((1, 0), np.array([0.2, 0.25])),
        ((-1, -1), -BETA2),
        ((1, 1), -BETA2),
    ]
    for k, (d, z) in enumerate(events):
        ev = ld.error_orthant_event(z, d)
        quad = ld.prob_orthant_event(prob, model, tuning, ev)
        mc = ld.prob_region_high(
            prob, model, tuning, ld.region_orthant(d, z + BETA2), n_samples=100_000, seed=120 + k
        )
        assert abs(quad.estimate - mc.estimate) <= 3.0 * mc.std_error + 1e-3, (d, tuple(z))

    cdf_points = [(0.0, 0.25), (0.4, -0.1), (-0.3, 0.6), (1.0, 1.0), (-1.2, 0.2)]
    for k, z_err in enumerate(cdf_points):
        z_err = np.array(z_err)
        quad_val = ld.cdf(prob, model, tuning, z_err)
        mc = ld.prob_region_high(
            prob, model, tuning, ld.region_below(z_err + BETA2),
            n_samples=100_000, seed=130 + k,
        )
        assert abs(quad_val - mc.estimate) <= 3.0 * mc.std_error + 1e-3, tuple(z_err)

    total = sum(
        ld.orthant_mass(prob, model, tuning, ld.SignVector(d=(a, b))).estimate
        for a in (-1, 0, 1)
        for b in (-1, 0, 1)
    )
    assert abs(total - 1.0) <= 5e-3
    dt = _budget(t0, 60.0, "criterion 6")
    print(f"[PASS] criterion 6: 10 quad/MC comparisons within 3 SE + 1e-3, partition sum {total:.12f} ({dt:.2f}s)")


def test_criterion_7_solver_against_proximal_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 7))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        lam = rng.uniform(0.2, 2.0, size=p)
        lam[rng.random(p) < 0.25] = 0.0
        prob = ld.build_problem(X)
        t = ld.tuning_vector(lam)
        sol = ld.solve(prob, y, t)
        ref = ista_solve(X, y, lam)
        obj_ref = objective(X, y, lam, ref)
        assert abs(sol.objective - obj_ref) <= 1e-8 * (1.0 + abs(obj_ref))
        assert ld.is_solution(prob, y, t, sol.b, tol=1e-8).ok
    dt = _budget(t0, 30.0, "criterion 7")
    print(f"[PASS] criterion 7: 100 random instances match the proximal oracle ({dt:.2f}s)")


def test_criterion_8_shrinkage_correspondence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    done = 0
    while done < 200:
        p = int(rng.integers(2, 4))
        X = rng.integers(-3, 4, size=(p + 1, p)).astype(float)
        if np.linalg.matrix_rank(X) < p:
            continue
        prob = ld.build_problem(X)
        t = ld.tuning_vector(rng.uniform(0.25, 2.0, size=p))
        z = rng.integers(-6, 7, size=p) / 2.0
        sol = ld.map_ls_to_lasso(prob, t, z)
        assert ld.shrinkage_set_low(prob, t, sol.b).contains(z, tol=1e-8)
        if np.all(np.abs(sol.b) > 1e-9):
            z_back = ld.shrinkage_singleton(prob, t, sol.b)
            assert np.max(np.abs(z_back - z)) <= 1e-8
        done += 1
    dt = _budget(t0, 10.0, "criterion 8")
    print(f"[PASS] criterion 8: 200 least-squares points land in their shrinkage areas ({dt:.2f}s)")


def test_criterion_9_witnesses_on_planted_faces():
    t0 = time.perf_counter()
    rng = np.random.default_rng(510)
    done = 0
    while done < 50:
        n, p = 2, 4
        X = rng.normal(size=(n, p))
        prob = ld.build_problem(X)
        r = prob.rank_x
        z = rng.normal(size=n)
        v = X.T @ z
        model = sorted(int(j) for j in rng.choice(p, size=r + 1, replace=False))
        if np.min(np.abs(v[model])) < 0.05:
            continue
        lam = np.abs(v) + rng.uniform(0.1, 1.0, size=p)
        lam[model] = np.abs(v[model])
        t = ld.tuning_vector(lam)
        assert not ld.check_uniqueness(prob, t).unique
        w = ld.construct_nonuniqueness_witness(prob, t, model, v, z=z)
        assert ld.is_solution(prob, w.y, t, w.b, tol=1e-8).ok
        assert ld.is_solution(prob, w.y, t, w.b_tilde, tol=1e-8).ok
        assert np.max(np.abs(w.b - w.b_tilde)) > 1e-6
        done += 1
    dt = _budget(t0, 30.0, "criterion 9")
    print(f"[PASS] criterion 9: 50 constructed nonuniqueness witnesses verified ({dt:.2f}s)")


def test_criterion_10_uniqueness_at_the_p14_limit():
    t0 = time.perf_counter()
    prob = ld.build_problem(np.random.default_rng(1414).normal(size=(5, 14)))
    assert prob.p == ld.geometry.UNIQUENESS_LIMIT
    assert ld.check_uniqueness(prob, ld.uniform_tuning(14, 1.0)).unique
    dt_unique = _budget(t0, 10.0, "criterion 10 unique")

    t0 = time.perf_counter()
    rng = np.random.default_rng(1415)
    X = rng.normal(size=(5, 14))
    prob = ld.build_problem(X)
    v = X.T @ rng.normal(size=5)
    model = sorted(int(j) for j in rng.choice(14, size=prob.rank_x + 1, replace=False))
    assert np.min(np.abs(v[model])) >= 0.05
    lam = np.abs(v) + rng.uniform(0.1, 1.0, size=14)
    lam[model] = np.abs(v[model])
    t = ld.tuning_vector(lam)
    verdict = ld.check_uniqueness(prob, t)
    assert not verdict.unique
    w = verdict.witness
    assert ld.is_solution(prob, w.y, t, w.b, tol=1e-8).ok
    assert ld.is_solution(prob, w.y, t, w.b_tilde, tol=1e-8).ok
    assert np.max(np.abs(w.b - w.b_tilde)) > 1e-6
    dt_planted = _budget(t0, 10.0, "criterion 10 planted")
    print(f"[PASS] criterion 10: p = 14 unique design certified ({dt_unique:.2f}s), "
          f"planted face yields a verified witness ({dt_planted:.2f}s)")
