"""The Lasso's symmetries as an oracle for the public routines.

Each transform maps a problem (X, lam, beta, y) to one whose solutions,
verdicts and event probabilities follow from the original's:

- signed column permutation, X -> X[:, perm] s, lam -> lam[perm];
- per-column rescaling, X_j -> c_j X_j, lam_j -> c_j lam_j;
- rotation of the response space, X -> QX and y -> Qy for orthogonal Q;
- the global flip y -> -y;
- the penalty's scale, lam -> g lam and y -> g y.

A coefficient is zero only when it is exactly 0, so Monte-Carlo sign
patterns and event counts keep their values when a column is scaled up.

Under their composition b solves (X, lam, y) iff g f s b[perm] / c solves the
transformed problem (f = -1 for the flip), so every geometry verdict is
unchanged and the error u = b - beta maps as b does. Designs are seeded,
small-integer (tie-heavy and often rank deficient) and Gaussian.
"""

import numpy as np
import pytest

import lassodist as ld


class _Map:
    """X -> Q X[:, perm] diag(s c), lam -> g c lam[perm], y -> g f Q y, and so
    b -> g f s b[perm] / c on coefficients, betas and error coordinates."""

    def __init__(self, n, p, perm=None, s=None, c=None, Q=None, f=1.0, g=1.0):
        self.perm = np.arange(p) if perm is None else perm
        self.s = np.ones(p) if s is None else s
        self.c = np.ones(p) if c is None else c
        self.Q = np.eye(n) if Q is None else Q
        self.f = f
        self.g = g

    def problem(self, X, lam):
        X = self.Q @ X[:, self.perm] * (self.s * self.c)
        return ld.build_problem(X), ld.tuning_vector(self.g * lam[self.perm] * self.c)

    def y(self, y):
        return self.g * self.f * (self.Q @ y)

    def b(self, b):
        return self.g * self.f * self.s * b[self.perm] / self.c

    def signs(self, d):
        return (self.f * self.s * np.asarray(d)[self.perm]).astype(int)

    def model(self, model):
        return tuple(k for k in range(len(self.perm)) if self.perm[k] in model)


def _transform(kind, n, p, rng):
    if kind == "permutation":
        return _Map(n, p, perm=rng.permutation(p), s=rng.choice([-1.0, 1.0], size=p))
    if kind == "scale":
        return _Map(n, p, c=10.0 ** rng.uniform(-6.0, 6.0, size=p))
    if kind == "penalty":
        # every lam_j / ||X_j|| far below LP_TOL, or far above 1
        return _Map(n, p, c=10.0 ** rng.uniform(-6.0, 6.0, size=p),
                    g=10.0 ** rng.choice([-11.0, 11.0]))
    if kind == "rotation":
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        return _Map(n, p, Q=q * np.sign(np.diag(r)))
    assert kind == "flip"
    return _Map(n, p, f=-1.0)


def _designs(family, count, seed, p_max=6, n_min=2):
    """count seeded (X, lam): small integers with integer weights, or Gaussian."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n, p = int(rng.integers(n_min, 5)), int(rng.integers(2, p_max + 1))
        if family == "integer":
            out.append((rng.integers(-2, 3, size=(n, p)).astype(float),
                        rng.integers(1, 4, size=p).astype(float)))
        else:
            out.append((rng.normal(size=(n, p)), rng.uniform(0.5, 2.0, size=p)))
    return out


def _certified(problem, tuning, verdict):
    w = verdict.witness
    return (ld.is_solution(problem, w.y, tuning, w.b).ok
            and ld.is_solution(problem, w.y, tuning, w.b_tilde).ok
            and np.max(np.abs(w.b - w.b_tilde)) > 0.0)


# the scale cases: 300 small-integer and 100 Gaussian designs at 10^+-6
@pytest.mark.parametrize("kind, family, count", [
    ("scale", "integer", 300),
    ("scale", "gaussian", 100),
    ("penalty", "integer", 60),
    ("penalty", "gaussian", 20),
    ("permutation", "integer", 60),
    ("permutation", "gaussian", 30),
    ("rotation", "integer", 60),
    ("rotation", "gaussian", 30),
])
def test_geometry_is_invariant(kind, family, count):
    rng = np.random.default_rng(31)
    for i, (X, lam) in enumerate(_designs(family, count, seed=2026)):
        n, p = X.shape
        m = _transform(kind, n, p, rng)
        prob, t = ld.build_problem(X), ld.tuning_vector(lam)
        prob2, t2 = m.problem(X, lam)
        case = f"design {i}: X = {X.tolist()}, lam = {lam.tolist()}"
        assert prob2.rank_x == prob.rank_x, case
        verdict, verdict2 = ld.check_uniqueness(prob, t), ld.check_uniqueness(prob2, t2)
        assert verdict2.unique == verdict.unique, case
        if not verdict.unique:
            assert _certified(prob, t, verdict) and _certified(prob2, t2, verdict2), case
        members = ld.structural_set(prob, t)
        assert ld.structural_set(prob2, t2) == m.model(members), case
        for model in (members[:2], tuple(sorted(rng.choice(p, size=min(p, 3), replace=False)))):
            assert ld.selectable(prob2, t2, m.model(model)) == ld.selectable(prob, t, model), case


@pytest.mark.parametrize("kind", ["scale", "permutation", "rotation", "flip"])
@pytest.mark.parametrize("family", ["integer", "gaussian"])
def test_solve_maps_its_solution(kind, family):
    # each solve is certified to a KKT residual of 1e-10 in its own units; the
    # transformed one, mapped back, agrees to 1e-7 relative in its fit and,
    # where the solution is unique, in b (at worst 7e-10 and 1.4e-13 here)
    rng = np.random.default_rng(17)
    for i, (X, lam) in enumerate(_designs(family, 30, seed=5)):
        n, p = X.shape
        m = _transform(kind, n, p, rng)
        y = 3.0 * rng.normal(size=n)
        prob, t = ld.build_problem(X), ld.tuning_vector(lam)
        prob2, t2 = m.problem(X, lam)
        sol, sol2 = ld.solve(prob, y, t), ld.solve(prob2, m.y(y), t2)
        case = f"design {i}: X = {X.tolist()}, lam = {lam.tolist()}, y = {y.tolist()}"
        fit = m.f * m.Q.T @ sol2.fit
        assert np.max(np.abs(fit - sol.fit)) <= 1e-7 * (1.0 + np.max(np.abs(sol.fit))), case
        if ld.check_uniqueness(prob, t).unique:
            b = np.empty(p)
            b[m.perm] = m.f * m.s * sol2.b * m.c
            assert np.max(np.abs(b - sol.b)) <= 1e-7 * (1.0 + np.max(np.abs(sol.b))), case


@pytest.mark.parametrize("kind", ["scale", "permutation", "rotation", "flip"])
def test_orthant_events_are_invariant(kind):
    rng = np.random.default_rng(23)
    for i, (X, lam) in enumerate(_designs("gaussian", 12, seed=11, p_max=3, n_min=3)):
        n, p = X.shape
        m = _transform(kind, n, p, rng)
        beta = rng.normal(size=p)
        d = rng.integers(-1, 2, size=p)
        z = -beta + d * rng.uniform(0.0, 1.0, size=p)  # on the side of -beta that d names
        prob, t = ld.build_problem(X), ld.tuning_vector(lam)
        prob2, t2 = m.problem(X, lam)
        got = ld.prob_orthant_event(prob, ld.gaussian_model(prob, beta, 1.0), t,
                                    ld.error_orthant_event(z, d))
        got2 = ld.prob_orthant_event(prob2, ld.gaussian_model(prob2, m.b(beta), 1.0), t2,
                                     ld.error_orthant_event(m.b(z), m.signs(d)))
        assert abs(got2.estimate - got.estimate) <= got.quad_tol + got2.quad_tol, (i, X, lam)


@pytest.mark.parametrize("kind", ["scale", "permutation", "rotation"])
def test_cdf_is_invariant(kind):
    # the cdf maps as an event only where every coordinate keeps its sign
    rng = np.random.default_rng(29)
    quad_tol = 1e-5
    for i, (X, lam) in enumerate(_designs("gaussian", 4, seed=13, p_max=3, n_min=3)):
        n, p = X.shape
        m = _Map(n, p, perm=rng.permutation(p)) if kind == "permutation" else _transform(
            kind, n, p, rng)
        beta, z = rng.normal(size=p), rng.normal(size=p)
        prob, t = ld.build_problem(X), ld.tuning_vector(lam)
        prob2, t2 = m.problem(X, lam)
        got = ld.cdf(prob, ld.gaussian_model(prob, beta, 1.0), t, z, quad_tol=quad_tol)
        got2 = ld.cdf(prob2, ld.gaussian_model(prob2, m.b(beta), 1.0), t2, m.b(z),
                      quad_tol=quad_tol)
        # each is within its reported bound, quad_tol, of the true value
        assert abs(got2 - got) <= 2.0 * quad_tol, (i, X, lam)


@pytest.mark.parametrize("kind", ["scale", "permutation", "rotation"])
def test_conditional_density_is_invariant(kind):
    # u -> s u[perm] / c on the active coordinates has Jacobian prod 1 / c_k
    # over the mapped active set, so the mapped density is the original's
    # times prod c_k there. Each divides by P(u_A in the orthant): a closed
    # form below three moving coordinates, else within quad_tol, and at
    # least P(bhat in O^d)
    rng = np.random.default_rng(37)
    quad_tol = 1e-5
    for i, (X, lam) in enumerate(_designs("gaussian", 12, seed=11, p_max=3, n_min=3)):
        n, p = X.shape
        m = _transform(kind, n, p, rng)
        beta = rng.normal(size=p)
        d = rng.integers(-1, 2, size=p)
        d[rng.integers(p)] = rng.choice([-1, 1])  # at least one moving coordinate
        u = np.where(d != 0, -beta + d * rng.uniform(0.1, 1.0, size=p), 0.0)
        prob, t = ld.build_problem(X), ld.tuning_vector(lam)
        prob2, t2 = m.problem(X, lam)
        model, model2 = ld.gaussian_model(prob, beta, 1.0), ld.gaussian_model(prob2, m.b(beta), 1.0)
        d2 = m.signs(d)
        active2 = np.flatnonzero(d2)
        got = ld.conditional_density(prob, model, t, d, u[d != 0], quad_tol=quad_tol)
        got2 = ld.conditional_density(prob2, model2, t2, d2, m.b(u)[active2], quad_tol=quad_tol)
        want = got * np.prod(m.c[active2])
        rel = 1e-12 if active2.size < 3 else (
            3.0 * quad_tol / ld.orthant_mass(prob, model, t, d).estimate)
        assert got > 0.0 and abs(got2 - want) <= rel * want, (i, X, lam, d)


@pytest.mark.parametrize("kind", ["permutation", "flip"])
def test_solve_many_keeps_sign_patterns(kind):
    # Gaussian designs are in general position, so each solution is unique
    # and its signs map as b does, row for row; coordinate descent visits the
    # columns in another order, so a row with a coefficient within 1e-7 of
    # zero (but not 0) may resolve that tie either way and is left out
    rng = np.random.default_rng(41)
    near = lambda B: np.any((B != 0.0) & (np.abs(B) <= 1e-7), axis=1)
    left_out = total = 0
    for i, (X, lam) in enumerate(_designs("gaussian", 10, seed=7)):
        n, p = X.shape
        m = _transform(kind, n, p, rng)
        Y = X @ rng.normal(size=p) + rng.normal(size=(1000, n))
        prob, t = ld.build_problem(X), ld.tuning_vector(lam)
        prob2, t2 = m.problem(X, lam)
        B, _ = ld.solve_many(prob, Y, t)
        B2, _ = ld.solve_many(prob2, Y @ (m.f * m.Q.T), t2)
        keep = ~(near(B) | near(B2))
        want = m.f * m.s * np.sign(B)[:, m.perm]
        assert np.array_equal(np.sign(B2)[keep], want[keep]), f"design {i}: X = {X.tolist()}"
        left_out += np.count_nonzero(~keep)
        total += len(Y)
    assert left_out <= total // 100


def test_general_position_fails_on_every_nonunique_design():
    # general position makes the solution unique for every y under uniform
    # lam, so no design that check_uniqueness finds non-unique may have it
    nonunique = 0
    for i, (X, _) in enumerate(_designs("integer", 100, seed=2026)):
        prob, p = ld.build_problem(X), X.shape[1]
        for lam in (0.5, 1.0, 3.0):
            if not ld.check_uniqueness(prob, ld.uniform_tuning(p, lam)).unique:
                nonunique += 1
                assert not ld.general_position(prob), f"design {i}: X = {X.tolist()}, lam = {lam}"
    assert nonunique >= 50


@pytest.mark.parametrize("c", [1e10, 1e12])
def test_monte_carlo_counts_survive_a_column_scaled_up(c):
    # X_1 -> c X_1 with lam_1 and beta_1 alike leaves mu and so the replicates'
    # responses; b_1, now of order 1 / c, keeps its sign in every replicate
    X = np.random.default_rng(5).normal(size=(4, 3))
    lam, beta = np.full(3, 0.5), np.array([2.0, -1.5, 0.0])
    config = ld.SimulationConfig(n_rep=10_000, seed=3)
    counts = []
    for scale in (np.ones(3), np.array([c, 1.0, 1.0])):
        prob, t = ld.build_problem(X * scale), ld.tuning_vector(lam * scale)
        model = ld.gaussian_model(prob, beta / scale, 1.0)
        hits = ld.prob_region_high(prob, model, t, ld.region_orthant((1, -1, 0)),
                                   n_samples=10_000, seed=3)
        summary = ld.run_simulation(prob, model, t, config)
        counts.append((hits.estimate, summary.sign_pattern_freq, summary.support_freq))
    assert counts[1] == counts[0]
    assert counts[0][0] > 0.3
