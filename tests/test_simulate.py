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
            ld.SimulationConfig(solver_tol=tol)


def test_config_counts_must_be_integers():
    for n_rep in (2.5, math.nan, math.inf):
        with pytest.raises(InputError):
            ld.SimulationConfig(n_rep=n_rep)


def test_config_keeps_integral_counts_as_int(n1p2):
    cfg = ld.SimulationConfig(n_rep=2.0, seed=3.0)
    assert [(type(v), v) for v in (cfg.n_rep, cfg.seed)] == [(int, 2), (int, 3)]
    assert cfg == ld.SimulationConfig(n_rep=2, seed=3)
    summary = ld.run_simulation(n1p2, ld.gaussian_model(n1p2, [1.0, 0.0], 1.0),
                                ld.uniform_tuning(2, 2.0), cfg)
    assert type(summary.n_rep) is int and type(summary.seed) is int
    assert [len(axis) for axis in summary.ecdf_grid] == [simulate.ECDF_POINTS] * 2


def test_zero_column_axis_spans_sigma():
    # b_2 is always 0 and has no spread to scale its ECDF axis: the axis
    # spans ECDF_SPAN = 4 sigma around beta_2, in ECDF_POINTS = 21 points
    prob = ld.build_problem(np.array([[1.0, 0.0], [0.5, 0.0]]))
    model = ld.gaussian_model(prob, [0.4, 0.0], 2.0)
    cfg = ld.SimulationConfig(n_rep=200, seed=1)
    s = ld.run_simulation(prob, model, ld.uniform_tuning(2, 0.5), cfg)
    axis = np.linspace(-8.0, 8.0, 21)
    assert s.ecdf_grid[1] == tuple((float(z), float(z >= 0.0)) for z in axis)


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
    assert len(s.ecdf_grid) == 2 and all(len(g) == simulate.ECDF_POINTS for g in s.ecdf_grid)


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
    n = 2000
    calls = {
        "run_simulation": lambda: ld.run_simulation(prob, model, t, ld.SimulationConfig(n_rep=n)),
        "prob_region_high": lambda: ld.prob_region_high(
            prob, model, t, ld.region_support_includes(0), n_samples=n),
    }
    for name, call in calls.items():
        with pytest.raises(ConvergenceError):
            call()
            pytest.fail(f"{name} counted an unconverged replicate")


def _rank2_case():
    env = json.loads((FIXTURES / "x2x3_rank2.json").read_text())
    prob = ld.build_problem(env["X"])
    return prob, ld.gaussian_model(prob, env["beta"], env["sigma"]), ld.tuning_vector(env["lambda"])


@pytest.mark.parametrize("n_rep", [1, 4095, 4097, 8192, 10001])
def test_blocks_match_chunk_by_chunk_solves(monkeypatch, n_rep):
    # a block of two RNG chunks gives each row the bits of its own chunk's solve
    prob, model, t = _rank2_case()
    ref = [solver.solve_many(prob, model.mu + model.sigma * Z, t)[0]
           for _, _, Z in gaussian_chunks(11, n_rep, prob.n)]
    blocks = []
    simulate._solve_replicates(prob, model, t, n_rep, 11, 1e-10, lambda Y, B: blocks.append(B))
    assert [len(B) for B in blocks] == [min(8192, n_rep - s) for s in range(0, n_rep, 8192)]
    assert np.array_equal(np.vstack(blocks), np.vstack(ref))

    cfg = ld.SimulationConfig(n_rep=n_rep, seed=11)
    summary = ld.run_simulation(prob, model, t, cfg)
    all_zero = ld.region_orthant((0, 0, 0))
    zero = ld.prob_region_high(prob, model, t, all_zero, n_samples=n_rep, seed=11)
    monkeypatch.setattr(simulate, "_BLOCK_CHUNKS", 1)
    by_chunk = ld.run_simulation(prob, model, t, cfg)
    assert summary.sign_pattern_freq == by_chunk.sign_pattern_freq
    assert summary.support_freq == by_chunk.support_freq
    assert summary.ecdf_grid == by_chunk.ecdf_grid
    assert summary.nonunique_count == by_chunk.nonunique_count
    assert zero.estimate == ld.prob_region_high(
        prob, model, t, all_zero, n_samples=n_rep, seed=11).estimate


def test_cone_verdicts_are_kept_across_blocks(monkeypatch):
    # three blocks on n1p2 at lambda (1, 2): one cone test per distinct class
    # over the whole run, where a fresh cache per block would make 9, and the
    # same count as that recount
    env = json.loads((FIXTURES / "n1p2_lam12.json").read_text())
    prob = ld.build_problem(env["X"])
    model = ld.gaussian_model(prob, env["beta"], env["sigma"])
    t = ld.tuning_vector(env["lambda"])
    cfg = ld.SimulationConfig(n_rep=2 * 8192 + 100, seed=1)
    calls = []

    def cone(*args, **kwargs):
        calls.append(args)
        return solver.kernel_sign_cone_nonempty(*args, **kwargs)

    monkeypatch.setattr(simulate, "kernel_sign_cone_nonempty", cone)
    summary = ld.run_simulation(prob, model, t, cfg)
    assert len(calls) == 3
    per_block = []
    simulate._solve_replicates(
        prob, model, t, cfg.n_rep, cfg.seed, cfg.solver_tol,
        lambda Y, B: per_block.append(simulate._count_nonunique(prob, t, cfg, Y, B, {})))
    assert len(per_block) == 3 and len(calls) == 3 + 9
    assert summary.nonunique_count == sum(per_block) == 5241


@pytest.mark.parametrize("fixture,n_rep,seed", [("x2x3_rank2.json", 10_000, 5),
                                                 ("n12p10.json", 4000, 7)])
def test_summary_tables_keep_first_seen_order(fixture, n_rep, seed):
    # sign patterns enter the summary block by block, each block's new ones
    # in sorted order, and each support with its first pattern: the order of
    # counting each block's rows with np.unique(axis=0)
    env = json.loads((FIXTURES / fixture).read_text())
    prob = ld.build_problem(env["X"])
    model = ld.gaussian_model(prob, env["beta"], env["sigma"])
    t = ld.tuning_vector(env["lambda"])
    cfg = ld.SimulationConfig(n_rep=n_rep, seed=seed)
    blocks = []
    simulate._solve_replicates(prob, model, t, n_rep, seed, cfg.solver_tol,
                               lambda Y, B: blocks.append(B))
    signs, supports = {}, {}
    for B in blocks:
        classes = np.where(B > cfg.zero_tol, 1, np.where(B < -cfg.zero_tol, -1, 0))
        patterns, counts = np.unique(classes, axis=0, return_counts=True)
        for d, count in zip(map(tuple, patterns.tolist()), counts.tolist()):
            signs[d] = signs.get(d, 0) + count
    for d, count in signs.items():
        support = tuple(j for j, v in enumerate(d) if v)
        supports[support] = supports.get(support, 0) + count

    summary = ld.run_simulation(prob, model, t, cfg)
    assert [(sv.d, count) for sv, count in summary.sign_pattern_freq.items()] == list(signs.items())
    assert list(summary.support_freq.items()) == list(supports.items())
    assert len(blocks) == -(-n_rep // 8192)


def test_region_predicates_receive_whole_blocks():
    prob, model, t = _rank2_case()
    rows = []

    def region(B):
        rows.append(B.shape[0])
        return B[:, 0] > 0.0

    ld.prob_region_high(prob, model, t, region, n_samples=10001, seed=2)
    assert rows == [1, 8192, 1809]  # the probe row, then two blocks


def test_convergence_error_names_the_failing_block(monkeypatch):
    prob, model, t = _rank2_case()
    calls = []

    def second_block_misses(*args, **kwargs):
        B, resids = solver.solve_many(*args, **kwargs)
        calls.append(len(B))
        if len(calls) == 2:
            resids[-1] = math.inf
        return B, resids

    monkeypatch.setattr(simulate, "solve_many", second_block_misses)
    with pytest.raises(ConvergenceError, match=r"replicates 8192\.\.10000: 1 missed"):
        ld.run_simulation(prob, model, t, ld.SimulationConfig(n_rep=10001))
    assert calls == [8192, 1809]


def _seeded_problem(seed, n, p, rho=0.0, lam=0.7):
    rng = np.random.default_rng(seed)
    X = math.sqrt(1.0 - rho) * rng.normal(size=(n, p)) + math.sqrt(rho) * rng.normal(size=(n, 1))
    prob = ld.build_problem(X)
    beta = rng.uniform(-0.6, 0.6, p)
    return prob, ld.gaussian_model(prob, beta, 1.0), ld.tuning_vector(np.broadcast_to(lam, p))


# (design, signs, thresholds): full rank at p = 2-4, one at equicorrelation
# 0.9, an unpenalized column on and off the event's support, and a
# rank-deficient design, where only bhat = 0 is decided
_SORTED_EVENTS = [
    (lambda: _seeded_problem(1, 5, 2), (1, -1), None),
    (lambda: _seeded_problem(2, 6, 3), (0, 0, 0), None),
    (lambda: _seeded_problem(3, 6, 3), (1, 0, -1), (0.3, 0.0, -0.2)),
    (lambda: _seeded_problem(4, 8, 4, rho=0.9), (0, 1, 0, -1), None),
    (lambda: _seeded_problem(5, 8, 4, rho=0.9), (0, 0, 0, 0), None),
    (lambda: _seeded_problem(6, 6, 3, lam=(0.0, 0.7, 0.7)), (1, 0, -1), None),
    (lambda: _seeded_problem(7, 6, 3, lam=(0.7, 0.0, 0.7)), (1, 0, 0), None),
    (lambda: _seeded_problem(8, 6, 3, lam=(0.7, 0.0, 0.7)), (0, 0, 0), None),
    (_rank2_case, (0, 0, 0), None),
    (_rank2_case, (1, 0, 0), None),
]


@pytest.mark.parametrize("case,signs,z", _SORTED_EVENTS)
def test_decided_rows_have_the_verdict_of_their_solution(case, signs, z):
    prob, model, t = case()
    region = ld.region_orthant(signs, z)
    sort = region.decide(prob, t, 1e-10)
    if not any(signs) or prob.rank_x == prob.p:
        assert sort is not None
    else:
        assert sort is None  # rank-deficient with a nonzero sign: every row is solved
        return
    Y = next(gaussian_chunks(9, 4096, prob.n))[2] * 1.5 + model.mu
    hit, undecided = sort(Y @ prob.X)
    B, _ = solver.solve_many(prob, Y, t)
    verdict = region(B)
    assert verdict[hit].all() and not verdict[~hit & ~undecided].any()
    # misses occur, hits wherever the event does (never on an unpenalized
    # coordinate that must be 0), and the band holds at most 1% of the rows
    assert hit.any() == verdict.any() and (~hit & ~undecided).any()
    assert undecided.sum() <= len(Y) // 100


def test_rows_inside_the_band_reach_the_solver(monkeypatch):
    # sigma = 1e-150 leaves every response at mu, bit for bit; on X = I_2,
    # c = y, and c_1 = lam_1 + 2e-12 exceeds its threshold by far less than
    # the margin h (above tol = 1e-10): the solver must see that row, and
    # its b_1 = 2e-12 is nonzero, so bhat = 0 misses
    prob, t = ld.build_problem(np.eye(2)), ld.tuning_vector([1.0, 1.0])
    solved = []

    def counted(problem, Y, *args, **kwargs):
        solved.append(len(Y))
        return solver.solve_many(problem, Y, *args, **kwargs)

    monkeypatch.setattr(simulate, "solve_many", counted)
    for mu, signs, solves, estimate in [
        ((1.0 + 2e-12, 0.0), (0, 0), 100, 0.0),
        ((0.5, 0.0), (0, 0), 0, 1.0),  # below both thresholds: decided, never solved
        ((1.0 + 1e-10, -2.0), (1, -1), 100, 1.0),  # x_1 = 1e-10, within delta of 0
        ((1.0 + 5e-10, -2.0), (1, -1), 0, 1.0),  # x_1 = 5e-10 clears delta
        ((3.0, -2.0), (1, -1), 0, 1.0),
    ]:
        solved.clear()
        model = ld.gaussian_model(prob, mu, 1e-150)
        rp = ld.prob_region_high(prob, model, t, ld.region_orthant(signs), n_samples=100)
        assert sum(solved) == solves and rp.estimate == estimate, (mu, signs)


def test_decided_counts_equal_solving_every_row():
    # the event's sorter against the same predicate without one, over 20 seeds
    for case, signs, z in _SORTED_EVENTS:
        prob, model, t = case()
        region = ld.region_orthant(signs, z)
        for seed in range(20):
            decided = ld.prob_region_high(prob, model, t, region, n_samples=1000, seed=seed)
            solved = ld.prob_region_high(prob, model, t, lambda B: region(B), n_samples=1000,
                                         seed=seed)
            assert decided.estimate == solved.estimate, (signs, seed)


def test_a_wrapped_predicate_does_not_inherit_the_sorter():
    # functools.wraps copies the event's decide onto a predicate of another event
    for case, signs, z in _SORTED_EVENTS[:4]:
        prob, model, t = case()
        region = ld.region_orthant(signs, z)
        negated = functools.wraps(region)(lambda B: ~region(B))
        assert negated.decide is region.decide
        for seed in range(5):
            wrapped = ld.prob_region_high(prob, model, t, negated, n_samples=1000, seed=seed)
            solved = ld.prob_region_high(prob, model, t, lambda B: ~region(B), n_samples=1000,
                                         seed=seed)
            assert wrapped.estimate == solved.estimate, (signs, seed)


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


def test_simulate_on_badly_scaled_columns(capsys):
    # column norms 1e12 and about 1: the solver's finish admits supports up to
    # rk(X) = 2 on the unit-norm columns, so every replicate is certified, and
    # no replicate has a second solution, as check_uniqueness says
    from lassodist import cli

    args = ["simulate", "--input", str(FIXTURES / "scaled_2x3.json"), "--reps", "2000", "--seed", "1"]
    assert cli.main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nonunique_count"] == 0 and report["convergence_failures"] == 0
    # b_1, of order 1e-12 on the column of norm 1e12, is nonzero in every replicate
    assert all(1 in row["support"] for row in report["support_freq"])


def test_zero_atom_on_badly_scaled_columns():
    # bhat = 0 has quadrature probability 3e-13 here: b_1, of order 1e-12 on
    # the column of norm 1e12, is nonzero in almost every replicate
    env = json.loads((FIXTURES / "scaled_2x3.json").read_text())
    prob, t = ld.build_problem(env["X"]), ld.tuning_vector(env["lambda"])
    model = ld.gaussian_model(prob, np.zeros(3), 1.0)
    exact = ld.prob_all_zero(prob, model, t)
    mc = ld.prob_region_high(prob, model, t, ld.region_orthant((0, 0, 0)), n_samples=20_000,
                             seed=1)
    se = math.sqrt(exact.estimate * (1.0 - exact.estimate) / mc.n_samples)
    assert abs(mc.estimate - exact.estimate) <= 3.0 * se + exact.quad_tol
