from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lassodist as ld
from lassodist.errors import CombinatorialLimitError, InputError
from lassodist import geometry
from lassodist.geometry import _sign_patterns, face_box, face_intersects_row_space


def test_tolerances_must_be_finite_and_positive(n1p2):
    t = ld.uniform_tuning(2, 1.0)
    face = face_box(t, (1,), (1,))
    for tol in (0.0, -1.0, np.nan, np.inf):
        for call in (
            lambda: ld.structural_set(n1p2, t, tol=tol),
            lambda: ld.selectable(n1p2, t, (1,), tol=tol),
            lambda: ld.check_uniqueness(n1p2, t, tol=tol),
            lambda: face_intersects_row_space(n1p2, face, tol=tol),
        ):
            with pytest.raises(InputError, match="tol must be"):
                call()


def test_face_box_basics():
    t = ld.tuning_vector([1.0, 2.0, 0.0])
    face = face_box(t, (0, 2), (-1, -1))
    assert face.model == (0, 2)
    # lam_j = 0 slots are stored at +1 and pin the value 0
    assert tuple(face.fixed_sign) == (-1, 0, 1)
    assert face.contains([-1.0, 0.5, 0.0])
    assert not face.contains([-1.0, 0.5, 0.5])
    assert not face.contains([1.0, 0.5, 0.0])
    with pytest.raises(InputError):
        face.contains([1.0, 2.0])
    with pytest.raises(InputError):
        face_box(t, (0, 0), (1, 1))
    with pytest.raises(InputError):
        face_box(t, (0,), (2,))


def test_face_intersection_certificate(n1p2):
    t = ld.tuning_vector([1.0, 2.0])
    point = face_intersects_row_space(n1p2, face_box(t, (0, 1), (1, 1)))
    assert point is not None
    assert np.allclose(point.v, n1p2.X.T @ point.z, atol=1e-9)
    assert np.allclose(point.v, [1.0, 2.0], atol=1e-8)
    # the uniform box misses the full-model face entirely
    t2 = ld.uniform_tuning(2, 1.0)
    assert face_intersects_row_space(n1p2, face_box(t2, (0, 1), (1, 1))) is None


def test_structural_set_collinear(n1p2):
    for lam_bar in (0.5, 2.0, 10.0):
        assert ld.structural_set(n1p2, ld.uniform_tuning(2, lam_bar)) == (1,)
    # the ratio tuning puts both coordinates on reachable faces
    assert ld.structural_set(n1p2, ld.tuning_vector([1.0, 2.0])) == (0, 1)


def test_structural_set_full(x2x3):
    assert ld.structural_set(x2x3, ld.uniform_tuning(3, 1.0)) == (0, 1, 2)


def test_structural_set_partial_tuning(n1p2):
    # lam_1 = 0 pins g_1 = 0 at every solution, which kills coordinate 2
    assert ld.structural_set(n1p2, ld.tuning_vector([0.0, 1.0])) == (0,)


def test_selectable(n1p2):
    t = ld.uniform_tuning(2, 1.0)
    assert ld.selectable(n1p2, t, [])
    assert not ld.selectable(n1p2, t, [0])
    assert ld.selectable(n1p2, t, [1])
    assert not ld.selectable(n1p2, t, [0, 1])
    # with lam = (1,2)' the full model becomes reachable
    assert ld.selectable(n1p2, ld.tuning_vector([1.0, 2.0]), [0, 1])
    with pytest.raises(InputError):
        ld.selectable(n1p2, t, [5])


def test_selectable_limit():
    prob = ld.build_problem(np.ones((1, 31)))
    with pytest.raises(CombinatorialLimitError):
        ld.selectable(prob, ld.uniform_tuning(31, 1.0), range(31))


def test_uniqueness_verdicts(n1p2, x2x4):
    v1 = ld.check_uniqueness(n1p2, ld.uniform_tuning(2, 1.0))
    assert v1.unique and v1.witness is None and v1.violating_face is None

    v2 = ld.check_uniqueness(n1p2, ld.tuning_vector([1.0, 2.0]))
    assert not v2.unique
    assert v2.violating_face.model == (0, 1)
    w = v2.witness
    t = ld.tuning_vector([1.0, 2.0])
    assert ld.is_solution(n1p2, w.y, t, w.b, tol=1e-8).ok
    assert ld.is_solution(n1p2, w.y, t, w.b_tilde, tol=1e-8).ok
    assert np.max(np.abs(w.b - w.b_tilde)) > 1e-6
    # rebuilt from the face alone, the certificate z comes from least squares
    face = v2.violating_face
    w = ld.construct_nonuniqueness_witness(n1p2, t, face.model, face.v)
    assert ld.is_solution(n1p2, w.y, t, w.b, tol=1e-8)
    assert ld.is_solution(n1p2, w.y, t, w.b_tilde, tol=1e-8)
    with pytest.raises(InputError, match="not a row-space point"):
        ld.construct_nonuniqueness_witness(
            n1p2, t, face.model, face.v + n1p2.null_space_basis[:, 0])

    # not in general position, yet unique for every uniform weight
    for lam_bar in (0.5, 1.0, 3.0):
        assert ld.check_uniqueness(x2x4, ld.uniform_tuning(4, lam_bar)).unique
    assert not ld.general_position(x2x4)


def test_uniqueness_full_rank_shortcut(corr2):
    v = ld.check_uniqueness(corr2, ld.uniform_tuning(2, 1.0))
    assert v.unique


def test_uniqueness_limit():
    prob = ld.build_problem(np.ones((1, 15)))
    with pytest.raises(CombinatorialLimitError):
        ld.check_uniqueness(prob, ld.uniform_tuning(15, 1.0))


def test_uniqueness_limit_message_points_to_monte_carlo():
    # general_position() stops at p = 12 < 15, so it cannot be the fallback here
    prob = ld.build_problem(np.ones((1, 15)))
    with pytest.raises(CombinatorialLimitError) as err:
        ld.check_uniqueness(prob, ld.uniform_tuning(15, 1.0))
    assert ld.geometry.GENERAL_POSITION_LIMIT < 15
    assert "estimate_nonuniqueness_probability" in str(err.value)
    assert "general_position" not in str(err.value)


def test_general_position(n1p2):
    assert ld.general_position(n1p2)
    # third column is an affine combination of the first two
    prob = ld.build_problem(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
    assert not ld.general_position(prob)
    big = ld.build_problem(np.ones((1, 13)))
    with pytest.raises(CombinatorialLimitError):
        ld.general_position(big)


def test_witness_construction_needs_low_rank(corr2):
    with pytest.raises(InputError):
        ld.construct_nonuniqueness_witness(
            corr2, ld.uniform_tuning(2, 1.0), [0], np.array([1.0, 0.0])
        )


def test_witness_from_planted_face():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, p = 2, 4
        X = rng.normal(size=(n, p))
        prob = ld.build_problem(X)
        r = prob.rank_x
        z = rng.normal(size=n)
        v = X.T @ z
        if np.min(np.abs(v[: r + 1])) < 0.05:
            continue
        model = list(range(r + 1))
        lam = np.abs(v) + rng.uniform(0.1, 1.0, size=p)
        lam[model] = np.abs(v[model])
        t = ld.tuning_vector(lam)
        w = ld.construct_nonuniqueness_witness(prob, t, model, v, z=z)
        assert ld.is_solution(prob, w.y, t, w.b, tol=1e-8).ok
        assert ld.is_solution(prob, w.y, t, w.b_tilde, tol=1e-8).ok
        assert np.max(np.abs(w.b - w.b_tilde)) > 1e-6


def test_shrinkage_singleton_roundtrip(corr2):
    t = ld.tuning_vector([0.75, 0.75])
    b = np.array([0.5, -0.3])
    z = ld.shrinkage_singleton(corr2, t, b)
    sol = ld.map_ls_to_lasso(corr2, t, z)
    assert np.allclose(sol.b, b, atol=1e-8)
    assert ld.shrinkage_set_low(corr2, t, b).contains(z)


def test_shrinkage_singleton_requires_active(corr2):
    with pytest.raises(InputError):
        ld.shrinkage_singleton(corr2, ld.uniform_tuning(2, 1.0), [0.5, 0.0])


def test_shrinkage_set_high_rank_deficient(n1p2):
    t = ld.uniform_tuning(2, 2.0)
    sol = ld.solve(n1p2, [3.0], t)
    area = ld.shrinkage_set_high(n1p2, t, sol.b)
    assert area.contains(n1p2.X.T @ np.array([3.0]))
    assert not area.contains(n1p2.X.T @ np.array([30.0]))


def test_rank_deficient_ls_maps_rejected(n1p2):
    t = ld.uniform_tuning(2, 1.0)
    with pytest.raises(InputError):
        ld.shrinkage_set_low(n1p2, t, [0.0, 1.0])
    with pytest.raises(InputError):
        ld.shrinkage_singleton(n1p2, t, [1.0, 1.0])
    with pytest.raises(InputError):
        ld.map_ls_to_lasso(n1p2, t, [1.0, 1.0])


def _full_rank_design(draw):
    p = draw(st.integers(2, 3))
    entry = st.integers(-3, 3).map(float)
    for _ in range(20):
        X = np.array([[draw(entry) for _ in range(p)] for _ in range(p + 1)])
        if np.linalg.matrix_rank(X) == p:
            return X
    return np.eye(p + 1, p)


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_ls_map_membership(data):
    X = _full_rank_design(data.draw)
    p = X.shape[1]
    prob = ld.build_problem(X)
    lam = np.array([data.draw(st.sampled_from([0.25, 1.0, 2.0])) for _ in range(p)])
    t = ld.tuning_vector(lam)
    z = np.array([data.draw(st.integers(-6, 6)) for _ in range(p)], dtype=float) / 2.0
    sol = ld.map_ls_to_lasso(prob, t, z)
    assert ld.shrinkage_set_low(prob, t, sol.b).contains(z, tol=1e-7)
    if np.all(np.abs(sol.b) > 1e-9):
        assert np.allclose(ld.shrinkage_singleton(prob, t, sol.b), z, atol=1e-6)


def _exhaustive_first_face(problem, tuning, tol=1e-9):
    """The unpruned scan: one LP per signed face with |M| = rk(X)+1, in order.

    Returns the first meeting face as (model, signs, point), or None.
    """
    rank = problem.rank_x
    if rank >= problem.p:
        return None
    for model in combinations(range(problem.p), rank + 1):
        for signs in _sign_patterns(tuning, model):
            point = face_intersects_row_space(problem, face_box(tuning, model, signs), tol)
            if point is not None:
                return model, tuple(signs), point
    return None


def _equivalence_design(rng, kind):
    """One seeded design of the given kind, with its tuning vector."""
    if kind == "gaussian":
        n = int(rng.integers(1, 5))
        X = rng.normal(size=(n, int(rng.integers(n + 1, n + 5))))
        return X, np.full(X.shape[1], rng.uniform(0.3, 2.0))
    if kind == "integer":  # ties among columns and among weights
        n = int(rng.integers(1, 4))
        X = rng.integers(-2, 3, size=(n, int(rng.integers(n + 1, n + 4)))).astype(float)
        return X, rng.choice([1.0, 2.0], size=X.shape[1])
    if kind == "degenerate":  # duplicated and zero columns, unpenalized coordinates
        n = int(rng.integers(1, 4))
        p = int(rng.integers(n + 2, n + 5))
        X = rng.normal(size=(n, p))
        X[:, 1] = X[:, 0]
        X[:, rng.integers(p)] = 0.0
        lam = rng.uniform(0.5, 2.0, size=p)
        lam[rng.random(p) < 0.3] = 0.0
        return X, lam
    # planted face, as in acceptance criterion 9: lam_M = |v_M| for v = X'z
    n = int(rng.integers(1, 4))
    p = int(rng.integers(n + 2, n + 5))
    X = rng.normal(size=(n, p))
    v = X.T @ rng.normal(size=n)
    model = rng.choice(p, size=np.linalg.matrix_rank(X) + 1, replace=False)
    lam = np.abs(v) + rng.uniform(0.1, 1.0, size=p)
    lam[model] = np.abs(v[model])
    return X, lam


def test_pruned_scan_matches_exhaustive_scan():
    rng = np.random.default_rng(1313)
    nonunique = 0
    for k in range(240):
        X, lam = _equivalence_design(rng, ("gaussian", "integer", "degenerate", "planted")[k % 4])
        prob, t = ld.build_problem(X), ld.tuning_vector(lam)
        verdict = ld.check_uniqueness(prob, t)
        ref = _exhaustive_first_face(prob, t)
        assert verdict.unique == (ref is None), k
        if ref is None:
            assert verdict.witness is None and verdict.violating_face is None
            continue
        nonunique += 1
        model, signs, point = ref
        face = verdict.violating_face
        assert (face.model, face.signs) == (model, signs), k
        assert face.v.tobytes() == point.v.tobytes(), k
        w_ref = ld.construct_nonuniqueness_witness(prob, t, model, point.v, z=point.z)
        w = verdict.witness
        for got, want in ((w.y, w_ref.y), (w.b, w_ref.b), (w.b_tilde, w_ref.b_tilde)):
            assert got.tobytes() == want.tobytes(), k
    assert 60 <= nonunique <= 180  # both verdicts well represented


def _count_lps(monkeypatch):
    calls = []
    real = geometry.feasible_point

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "feasible_point", counting)
    return calls


def test_uniqueness_lp_count_uniform_n4p10(monkeypatch):
    # the base design of the benchmark's exact workload; the unpruned scan
    # runs C(10,5) * 2^4 = 4032 LPs on it, all infeasible
    prob = ld.build_problem(np.random.default_rng([2, 4]).normal(size=(4, 10)))
    calls = _count_lps(monkeypatch)
    assert ld.check_uniqueness(prob, ld.uniform_tuning(10, 1.0)).unique
    assert len(calls) <= 100


def test_uniqueness_lp_count_near_full_rank(monkeypatch):
    # at rank p-1 almost no face is pruned: the scan costs the exhaustive
    # count plus the structural set and the pair table
    prob = ld.build_problem(np.random.default_rng(1112).normal(size=(11, 12)))
    t = ld.uniform_tuning(12, 1.0)
    members = ld.structural_set(prob, t)
    calls = _count_lps(monkeypatch)
    assert ld.check_uniqueness(prob, t).unique
    # a unique verdict means the exhaustive scan ran every face
    exhaustive = sum(1 for m in combinations(range(12), 12) for _ in _sign_patterns(t, m))
    assert exhaustive == 2**11
    assert len(calls) <= exhaustive + prob.p + len(members) * (len(members) - 1)


def _lp_log(monkeypatch):
    """Spy on the LPs of the geometry entry points: one entry per LP, the
    face's signs as -0+ with a * when it meets col(X'), and the arguments and
    the point of each LP."""
    faces, lps = [], []
    real_face, real_lp = geometry.face_intersects_row_space, geometry.feasible_point

    def face_spy(problem, face, tol=1e-9):
        faces.append("".join("-0+"[s + 1] for s in face.fixed_sign))
        return real_face(problem, face, tol)

    def lp_spy(*args, **kwargs):
        z = real_lp(*args, **kwargs)
        lps.append((args, kwargs, z))
        return z

    monkeypatch.setattr(geometry, "face_intersects_row_space", face_spy)
    monkeypatch.setattr(geometry, "feasible_point", lp_spy)

    def take():
        assert len(faces) == len(lps)
        log = " ".join(f + ("*" if z is not None else "") for f, (_, _, z) in zip(faces, lps))
        points = [z for *_, z in lps if z is not None]
        # each point is the one its LP gives when solved alone
        for args, kwargs, z in lps:
            again = real_lp(*args, **kwargs)
            assert (again is None) if z is None else again.tobytes() == z.tobytes()
        faces.clear()
        lps.clear()
        return log, points

    return take


# LP sequences of check_uniqueness, structural_set and selectable (models
# (1,), (0, 1), (0, 1, 3) where they fit), recorded before the face loops
# were merged, with a fingerprint of the points: sum over the k-th point z of
# k * sum |z_i|
_X2X4 = [[1.0, 1.0, 2.0, 0.0], [0.0, 0.0, 1.0, 3.0]]
_LP_SEQUENCES = [
    (_X2X4, [1.0, 1.0, 1.0, 1.0], "+000 0+00 00+0* 000+*",
     "+000 0+00 00+0* 000+*", "0+00 ++00 +-00 ++0+ ++0- +-0+ +-0-", 4.0),
    (_X2X4, [0.0, 1.0, 3.0, 1.0], "0+00 00+0 000+*",
     "0+00 00+0 000+*", "0+00 ++00 ++0+ ++0-", 1.0),
    (_X2X4, [1.0, 1.0, 3.0, 1.0],
     "+000* 0+00* 00+0 000+* ++00* +-00 +00+* +00-* 0+0+* 0+0-* ++0+*",
     "+000* 0+00* 00+0 000+*", "0+00* ++00* ++0+*", 126.66666666666666),
    ([[1.0, 2.0]], [1.0, 2.0], "+0* 0+* ++* +- ++*", "+0* 0+*", "0+* ++*", 36.0),
    ("rng", None,
     "+000000000 0+00000000* 00+0000000 000+000000* 0000+00000 00000+0000* 000000+000* "
     "0000000+00* 00000000+0* 000000000+* 0+0+000000* 0+0-000000* 0+000+0000 0+000-0000* "
     "0+0000+000* 0+0000-000* 0+00000+00* 0+00000-00* 0+000000+0* 0+000000-0* 0+0000000+* "
     "0+0000000-* 000+0+0000* 000+0-0000 000+00+000* 000+00-000* 000+000+00* 000+000-00* "
     "000+0000+0* 000+0000-0 000+00000+* 000+00000-* 00000++000* 00000+-000 00000+0+00 "
     "00000+0-00* 00000+00+0* 00000+00-0 00000+000+ 00000+000-* 000000++00 000000+-00* "
     "000000+0+0 000000+0-0* 000000+00+ 000000+00-* 0000000++0 0000000+-0* 0000000+0+* "
     "0000000+0-* 00000000++* 00000000+- 0+0-0--+00 0+0-0--00+ 0+0-0-0+-0 0+0-0-0+0+ "
     "0+0+00+-0- 0+0+00-+0+ 0+0-00+-0- 0+0-00-+0+ 0+0+00-0++ 0+0-00+0-- 0+0+000-++ "
     "0+0-000+-- 0+000--+0+ 000+0++-0-",
     "+000000000 0+00000000* 00+0000000 000+000000* 0000+00000 00000+0000* 000000+000* "
     "0000000+00* 00000000+0* 000000000+*",
     "0+00000000* ++00000000 +-00000000 ++0+000000 ++0-000000 +-0+000000 +-0-000000",
     1420.6361835040182),
]


@pytest.mark.parametrize(
    "X, lam, uniqueness, structural, selectable, fingerprint", _LP_SEQUENCES)
def test_face_scans_keep_their_lp_sequences(
    monkeypatch, X, lam, uniqueness, structural, selectable, fingerprint
):
    # the same LPs in the same order with the same points; the last design
    # is the n = 4, p = 10 Gaussian one at lambda = 1, 66 LPs in its scan
    X = np.random.default_rng([2, 1]).normal(size=(4, 10)) if X == "rng" else np.array(X)
    prob = ld.build_problem(X)
    t = ld.uniform_tuning(prob.p, 1.0) if lam is None else ld.tuning_vector(lam)
    take = _lp_log(monkeypatch)
    logs, points = [], []
    for run in (
        lambda: ld.check_uniqueness(prob, t),
        lambda: ld.structural_set(prob, t),
        lambda: [ld.selectable(prob, t, m) for m in ((1,), (0, 1), (0, 1, 3)) if m[-1] < prob.p],
    ):
        run()
        log, got = take()
        logs.append(log)
        points += got
    assert logs == [uniqueness, structural, selectable]
    got = sum(k * float(np.abs(z).sum()) for k, z in enumerate(points, 1))
    assert abs(got - fingerprint) <= 1e-12 * fingerprint
