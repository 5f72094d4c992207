"""Dense phase-1 simplex for small linear feasibility problems.

Answers one question: does {x in R^n : A_eq x = b_eq, A_ub x <= b_ub} contain
a point, and if so, which one. Free variables are split x = u - v with
u, v >= 0, rows are sign-normalized to b >= 0, inequality rows get slacks,
and every row without a usable unit column gets an artificial variable.
Phase 1 minimizes the artificial mass under Bland's rule (smallest-index
entering and leaving choices), which cannot cycle. The systems solved here
have at most a few dozen rows, so a dense tableau is the right tool.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

_PIVOT_EPS = 1e-10
_MAX_PIVOTS = 20000


def _as_rows(a, b, n_free):
    if a is None or (hasattr(a, "size") and np.asarray(a).size == 0):
        return np.zeros((0, n_free)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float)).ravel()
    if a.shape[1] != n_free or a.shape[0] != b.shape[0]:
        raise ValueError("constraint block has inconsistent shape")
    return a, b


def _pivot(tab, row, col):
    """Scale tab[row] to a unit pivot and clear column col from every other row.

    One masked rank-1 update over the rows with a nonzero entry in col; each
    entry gets the same product and difference as in a row-by-row sweep, so
    the result is bitwise that of the sweep.
    """
    tab[row] /= tab[row, col]
    factor = tab[:, col].copy()
    factor[row] = 0.0
    hit = factor != 0.0
    tab[hit] -= factor[hit, None] * tab[row]


def feasible_point(a_eq, b_eq, a_ub, b_ub, n_free, tol=1e-9):
    """Return some x with A_eq x = b_eq and A_ub x <= b_ub, or None.

    A point is accepted when the phase-1 optimum is <= tol and the extracted
    x violates no original constraint by more than tol. Raises NumericalError
    if the pivot cap is hit or the optimality claim and the violation check
    disagree.
    """
    a_eq, b_eq = _as_rows(a_eq, b_eq, n_free)
    a_ub, b_ub = _as_rows(a_ub, b_ub, n_free)
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = m_eq + m_ub
    if m == 0:
        return np.zeros(n_free)

    body = np.vstack([a_eq, a_ub])
    rhs = np.concatenate([b_eq, b_ub])
    slack = np.zeros((m, m_ub))
    for i in range(m_ub):
        slack[m_eq + i, i] = 1.0
    cols = np.hstack([body, -body, slack])

    neg = rhs < 0
    cols[neg] *= -1.0
    rhs = np.where(neg, -rhs, rhs)

    # initial basis: surviving (+1) slacks where possible, artificials elsewhere
    n_core = cols.shape[1]
    basis = np.empty(m, dtype=int)
    art_rows = []
    for i in range(m):
        if i >= m_eq and not neg[i]:
            basis[i] = 2 * n_free + (i - m_eq)
        else:
            art_rows.append(i)
    art = np.zeros((m, len(art_rows)))
    for k, i in enumerate(art_rows):
        art[i, k] = 1.0
        basis[i] = n_core + k

    tab = np.hstack([cols, art, rhs[:, None]])
    n_total = n_core + len(art_rows)

    # reduced-cost row for phase 1 (cost 1 on artificials), pre-reduced over
    # the basic artificial rows; last entry tracks -objective
    cost = np.zeros(n_total + 1)
    cost[n_core:n_total] = 1.0
    for i in art_rows:
        cost -= tab[i]

    for _ in range(_MAX_PIVOTS):
        negative = np.nonzero(cost[:-1] < -_PIVOT_EPS)[0]
        if negative.size == 0:
            break
        col = int(negative[0])  # Bland: smallest entering index
        positive = tab[:, col] > _PIVOT_EPS
        if not positive.any():
            # phase-1 objective is bounded below by 0, so this is numerical
            raise NumericalError("phase-1 simplex became unbounded (numerical breakdown)")
        rows = np.nonzero(positive)[0]
        ratios = tab[rows, -1] / tab[rows, col]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        row = int(ties[np.argmin(basis[ties])])  # Bland: smallest leaving basis index
        _pivot(tab, row, col)
        cost -= cost[col] * tab[row]
        basis[row] = col
    else:
        raise NumericalError(f"phase-1 simplex exceeded {_MAX_PIVOTS} pivots")

    if -cost[-1] > tol:
        return None

    values = np.zeros(n_total)
    values[basis] = tab[:, -1]
    x = values[:n_free] - values[n_free : 2 * n_free]

    worst = 0.0
    if m_eq:
        worst = max(worst, float(np.max(np.abs(a_eq @ x - b_eq))))
    if m_ub:
        worst = max(worst, float(np.max(a_ub @ x - b_ub)))
    if worst > max(tol, 1e3 * _PIVOT_EPS) * 10:
        raise NumericalError(
            f"simplex claimed feasibility but the point violates a constraint by {worst:.3e}"
        )
    return x


def feasible(a_eq, b_eq, a_ub, b_ub, n_free, tol=1e-9) -> bool:
    return feasible_point(a_eq, b_eq, a_ub, b_ub, n_free, tol=tol) is not None
