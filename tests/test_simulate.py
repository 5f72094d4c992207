import functools
import json
import math

import numpy as np
import pytest

import lassodist as ld
from lassodist import simulate, solver
from lassodist.errors import ConvergenceError, InputError
from lassodist.rng import gaussian_chunks

from conftest import FIXTURES

ATOM_N1P2 = 0.4772498680518208  # P(bhat = 0) for X = (1 2), lam = 2, mu = 1
TWO_PHI_M1 = 0.31731050786291415  # nonuniqueness probability for lam = (1 2)'


def test_config_validation():
    ld.SimulationConfig(n_rep=10, seed=3)
    with pytest.raises(InputError):
        ld.SimulationConfig(n_rep=0)
    with pytest.raises(InputError):
        ld.SimulationConfig(seed=-1)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(InputError):
            ld.SimulationConfig(zero_tol=tol)
        with pytest.raises(InputError):
            ld.SimulationConfig(solver_tol=tol)
    with pytest.raises(InputError):
        ld.SimulationConfig(ecdf_points=1)
    for span in (0.0, math.inf, math.nan):
        with pytest.raises(InputError):
            ld.SimulationConfig(ecdf_span=span)


def test_runs_are_deterministic(n1p2):
    model = ld.gaussian_model(n1p2, [1.0, 0.0], 1.0)
    t = ld.uniform_tuning(2, 2.0)
    cfg = ld.SimulationConfig(n_rep=5000, seed=42)
    s1 = ld.run_simulation(n1p2, model, t, cfg)
    s2 = ld.run_simulation(n1p2, model, t, cfg)
    assert s1.sign_pattern_freq == s2.sign_pattern_freq
    assert s1.support_freq == s2.support_freq
    assert s1.ecdf_grid == s2.ecdf_grid
    assert s1.nonunique_count == s2.nonunique_count


def test_counters_account_for_every_replicate(n1p2):
    model = ld.gaussian_model(n1p2, [1.0, 0.0], 1.0)
    t = ld.uniform_tuning(2, 2.0)
    cfg = ld.SimulationConfig(n_rep=6000, seed=7)
    s = ld.run_simulation(n1p2, model, t, cfg)
    assert sum(s.sign_pattern_freq.values()) == cfg.n_rep
    assert sum(s.support_freq.values()) == cfg.n_rep
    assert s.convergence_failures == 0
    assert len(s.ecdf_grid) == 2 and all(len(g) == cfg.ecdf_points for g in s.ecdf_grid)


def test_zero_atom_frequency_matches_analytic(n1p2):
    model = ld.gaussian_model(n1p2, [1.0, 0.0], 1.0)
    t = ld.uniform_tuning(2, 2.0)
    cfg = ld.SimulationConfig(n_rep=20_000, seed=1)
    s = ld.run_simulation(n1p2, model, t, cfg)
    freq = s.support_freq.get((), 0) / cfg.n_rep
    se = math.sqrt(ATOM_N1P2 * (1.0 - ATOM_N1P2) / cfg.n_rep)
    assert abs(freq - ATOM_N1P2) <= 3.0 * se + 1e-3


def test_collinear_coordinate_never_selected(n1p2):
    model = ld.gaussian_model(n1p2, [1.0, 0.0], 1.0)
    t = ld.uniform_tuning(2, 2.0)
    s = ld.run_simulation(n1p2, model, t, ld.SimulationConfig(n_rep=8000, seed=5))
    structural = set(ld.structural_set(n1p2, t))
    for support in s.support_freq:
        assert set(support) <= structural
    for pattern in s.sign_pattern_freq:
        assert pattern.d[0] == 0


def test_unpenalized_identity_design_is_least_squares():
    prob = ld.build_problem(np.eye(2))
    model = ld.gaussian_model(prob, [0.4, -0.8], 1.0)
    t = ld.tuning_vector([0.0, 0.0])
    cfg = ld.SimulationConfig(n_rep=10_000, seed=13)
    s = ld.run_simulation(prob, model, t, cfg)
    # bhat = y exactly: the ecdf at beta_j (the middle grid point) sits at 1/2
    for j in range(2):
        zs = [z for z, _ in s.ecdf_grid[j]]
        fs = [f for _, f in s.ecdf_grid[j]]
        assert abs(zs[10] - model.beta[j]) <= 1e-12
        assert abs(fs[10] - 0.5) <= 0.02
        assert all(a <= b for a, b in zip(fs, fs[1:]))
        assert fs[-1] >= 0.999


def test_ecdf_matches_quadrature_cdf(corr2):
    model = ld.gaussian_model(corr2, [0.0, -0.25], 1.0)
    t = ld.tuning_vector([0.75, 0.75])
    cfg = ld.SimulationConfig(n_rep=20_000, seed=17)
    s = ld.run_simulation(corr2, model, t, cfg)
    z_mid, f_mid = s.ecdf_grid[0][10]
    assert abs(z_mid - model.beta[0]) <= 1e-12
    analytic = ld.cdf(corr2, model, t, [z_mid - model.beta[0], 8.0])
    se = math.sqrt(f_mid * (1.0 - f_mid) / cfg.n_rep)
    assert abs(f_mid - analytic) <= 3.0 * se + 1e-3


def test_nonuniqueness_frequency(n1p2):
    model = ld.gaussian_model(n1p2, [0.0, 0.0], 1.0)
    t = ld.tuning_vector([1.0, 2.0])
    cfg = ld.SimulationConfig(n_rep=20_000, seed=2)
    r = ld.estimate_nonuniqueness_probability(n1p2, model, t, cfg)
    assert r.method == "monte-carlo" and r.n_samples == cfg.n_rep
    assert abs(r.estimate - TWO_PHI_M1) <= 3.0 * r.std_error + 1e-3


def test_nonuniqueness_never_fires_when_unique(n1p2, corr2):
    cfg = ld.SimulationConfig(n_rep=4000, seed=3)
    # uniform tuning on the collinear design: unique for every response
    m1 = ld.gaussian_model(n1p2, [1.0, 0.0], 1.0)
    assert ld.run_simulation(n1p2, m1, ld.uniform_tuning(2, 2.0), cfg).nonunique_count == 0
    # full column rank: strictly convex objective
    m2 = ld.gaussian_model(corr2, [0.0, -0.25], 1.0)
    assert ld.run_simulation(corr2, m2, ld.tuning_vector([0.75, 0.75]), cfg).nonunique_count == 0


@pytest.mark.parametrize(
    "X, lam",
    [
        ([[1.0, 2.0]], [1.0, 2.0]),
        ([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 2.0, 0.5]),
    ],
    ids=["n1p2", "n2p3_block"],
)
def test_nonunique_count_matches_describe_solution_set(X, lam):
    # the chunked counter and the one-response description share one
    # classification: regenerate the replicates and describe each of them
    prob = ld.build_problem(np.array(X))
    model = ld.gaussian_model(prob, np.zeros(prob.p), 1.0)
    t = ld.tuning_vector(lam)
    cfg = ld.SimulationConfig(n_rep=2000, seed=5)
    summary = ld.run_simulation(prob, model, t, cfg)
    Y = np.vstack([model.mu + model.sigma * Z for _, _, Z in gaussian_chunks(5, 2000, prob.n)])
    described = sum(not ld.describe_solution_set(prob, y, t).is_unique_at_y for y in Y)
    assert 0 < summary.nonunique_count < cfg.n_rep
    assert summary.nonunique_count == described


def test_dimension_mismatch_rejected(corr2, x2x3):
    model = ld.gaussian_model(corr2, [0.0, 0.0], 1.0)
    with pytest.raises(InputError):
        ld.run_simulation(x2x3, model, ld.uniform_tuning(3, 1.0), ld.SimulationConfig(n_rep=10))


def _one_replicate_missed(*args, **kwargs):
    B, resids = solver.solve_many(*args, **kwargs)
    resids[0] = math.inf
    return B, resids


# one sweep leaves many replicates above solver_tol; a single miss among 2000
# replicates is a share below 0.1%, which a tolerance by share would let through
@pytest.mark.parametrize("solve_many", [
    functools.partial(solver.solve_many, max_iter=1), _one_replicate_missed,
], ids=["one-sweep", "one-miss"])
def test_monte_carlo_raises_on_an_unconverged_replicate(monkeypatch, solve_many):
    monkeypatch.setattr(simulate, "solve_many", solve_many)
    env = json.loads((FIXTURES / "corr3.json").read_text())
    prob = ld.build_problem(env["X"])
    model = ld.gaussian_model(prob, env["beta"], env["sigma"])
    t = ld.tuning_vector(env["lambda"])
    event = ld.error_orthant_event(-model.beta, (0, 0, 0))
    n = 2000
    calls = {
        "run_simulation": lambda: ld.run_simulation(prob, model, t, ld.SimulationConfig(n_rep=n)),
        "prob_orthant_event": lambda: ld.prob_orthant_event(
            prob, model, t, event, method="mc", n_samples=n),
        "prob_region_high": lambda: ld.prob_region_high(
            prob, model, t, ld.region_support_includes(0), n_samples=n),
    }
    for name, call in calls.items():
        with pytest.raises(ConvergenceError):
            call()
            pytest.fail(f"{name} counted an unconverged replicate")


def test_comparison_report_passes_within_noise():
    analytic = ld.RegionProbability(0.477250, 0.0, "quadrature", 0, None, 1e-4)
    empirical = ld.RegionProbability(0.4785, 0.00158, "monte-carlo", 100_000, 0, 0.0)
    rep = ld.compare_analytic_empirical(analytic, empirical)
    assert rep.passed
    assert abs(rep.discrepancy - 0.00125) <= 1e-12
    assert abs(rep.tolerance - (3.0 * 0.00158 + 1e-4)) <= 1e-12


def test_comparison_report_flags_real_gaps():
    a = ld.RegionProbability(0.5, 0.0, "quadrature", 0, None, 1e-6)
    b = ld.RegionProbability(0.4, 0.005, "monte-carlo", 10_000, 0, 0.0)
    rep = ld.compare_analytic_empirical(a, b)
    assert not rep.passed
    assert rep.discrepancy > rep.tolerance
