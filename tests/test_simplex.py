import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from lassodist import simplex
from lassodist.simplex import feasible, feasible_point


def test_equalities_only():
    x = feasible_point([[1.0, 1.0], [1.0, -1.0]], [2.0, 0.0], None, None, 2)
    assert x is not None
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)


def test_inequalities_only():
    x = feasible_point(None, None, [[1.0, 0.0], [-1.0, 0.0]], [3.0, -2.0], 2)
    assert x is not None
    assert 2.0 - 1e-9 <= x[0] <= 3.0 + 1e-9


def test_mixed_system():
    # x1 + x2 = 1, x1 - x2 <= -0.5  =>  x2 >= 0.75
    x = feasible_point([[1.0, 1.0]], [1.0], [[1.0, -1.0]], [-0.5], 2)
    assert x is not None
    assert abs(x[0] + x[1] - 1.0) <= 1e-9
    assert x[0] - x[1] <= -0.5 + 1e-9


def test_infeasible_equalities():
    assert feasible_point([[1.0], [1.0]], [0.0, 1.0], None, None, 1) is None


def test_infeasible_box():
    assert not feasible(None, None, [[1.0], [-1.0]], [1.0, -2.0], 1)


def test_no_constraints_returns_origin():
    x = feasible_point(None, None, None, None, 3)
    assert np.allclose(x, 0.0)


def test_negative_rhs_handled():
    # -x <= -5 forces x >= 5
    x = feasible_point(None, None, [[-1.0]], [-5.0], 1)
    assert x is not None and x[0] >= 5.0 - 1e-9


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        feasible_point([[1.0, 2.0]], [1.0], None, None, 3)


def _lp_blocks(draw):
    n = draw(st.integers(1, 4))
    m_eq = draw(st.integers(0, 3))
    m_ub = draw(st.integers(0, 4))
    coef = st.integers(-4, 4).map(float)
    a_eq = [[draw(coef) for _ in range(n)] for _ in range(m_eq)]
    b_eq = [draw(coef) for _ in range(m_eq)]
    a_ub = [[draw(coef) for _ in range(n)] for _ in range(m_ub)]
    b_ub = [draw(coef) for _ in range(m_ub)]
    return n, a_eq, b_eq, a_ub, b_ub


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_matches_scipy_verdict(data):
    n, a_eq, b_eq, a_ub, b_ub = _lp_blocks(data.draw)
    x = feasible_point(a_eq or None, b_eq or None, a_ub or None, b_ub or None, n)

    res = linprog(
        c=np.zeros(n),
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        bounds=[(None, None)] * n,
        method="highs",
    )
    scipy_feasible = res.status == 0
    assert (x is not None) == scipy_feasible

    if x is not None:
        if a_eq:
            assert np.max(np.abs(np.array(a_eq) @ x - np.array(b_eq))) <= 1e-7
        if a_ub:
            assert np.max(np.array(a_ub) @ x - np.array(b_ub)) <= 1e-7


def _pivot_by_rows(tab, row, col):
    """The row-by-row elimination the rank-1 pivot replaced; kept as its reference."""
    tab[row] /= tab[row, col]
    for r in range(tab.shape[0]):
        if r != row and tab[r, col] != 0.0:
            tab[r] -= tab[r, col] * tab[row]


def _random_lp(rng):
    n = int(rng.integers(1, 6))
    m_eq, m_ub = int(rng.integers(0, 4)), int(rng.integers(0, 9))
    if rng.random() < 0.5:
        draw = lambda *shape: rng.normal(size=shape)
    else:  # small integers: ties in the ratio test, zero entries in the pivot column
        draw = lambda *shape: rng.integers(-3, 4, size=shape).astype(float)
    return (draw(m_eq, n), draw(m_eq), draw(m_ub, n), draw(m_ub) + 1.0, n)


def test_rank1_pivot_matches_row_loop(monkeypatch):
    rng = np.random.default_rng(2718)
    lps = [_random_lp(rng) for _ in range(2000)]
    fast = [feasible_point(*lp) for lp in lps]
    monkeypatch.setattr(simplex, "_pivot", _pivot_by_rows)
    slow = [feasible_point(*lp) for lp in lps]
    assert sum(x is not None for x in fast) > 200
    for x, ref in zip(fast, slow):
        assert (x is None) == (ref is None)
        if x is not None:
            assert x.tobytes() == ref.tobytes()
