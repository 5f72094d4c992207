"""Weighted-Lasso solver, optimality certificates, solution-set description.

Objective convention used everywhere in this package:

    L(b) = ||y - X b||^2  +  2 * sum_j lam_j |b_j|

Note the factor 2 on the penalty; most libraries scale differently, so the
soft-threshold level for coordinate j here is lam_j / (X'X)_jj. A vector b
minimizes L iff, with g = X'y - X'Xb,

    g_j = sgn(b_j) lam_j        where b_j != 0,
    |g_j| <= lam_j              where b_j == 0,

which is what is_solution certifies and what coordinate descent uses as its
convergence criterion.

One batched coordinate-descent engine solves every response; solve is its
one-row call. A row that misses tol within max_iter sweeps keeps its best
iterate: solve_many returns it, solve raises ConvergenceError carrying it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .model import ZERO_TOL, DesignProblem, TuningVector
from .simplex import feasible

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class LassoSolution:
    b: np.ndarray
    fit: np.ndarray
    objective: float
    kkt_residual: float
    active_model: tuple


@dataclass(frozen=True, eq=False)
class KKTReport:
    """Verdict of the first-order conditions plus the worst violation."""

    ok: bool
    max_violation: float
    worst_index: int

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class SolutionSetDescription:
    """The full solution set at one response y.

    Every solution shares `fit`; solutions differ from the anchor by null
    space directions only. equicorrelation_signs classifies g = X'y - X'Xb
    per index: +1 at the upper boundary g_j = +lam_j, -1 at the lower, 0
    strictly inside (which forces b'_j = 0 in every solution). For lam_j = 0
    both boundaries coincide and the index is reported at +1.
    """

    fit: np.ndarray
    anchor: LassoSolution
    equicorrelation_signs: tuple
    is_unique_at_y: bool


def _soft(u, t):
    return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)


def _kkt_violation(g, b, lam, zero_tol):
    active = np.abs(b) > zero_tol
    return np.where(active, np.abs(g - np.sign(b) * lam), np.maximum(np.abs(g) - lam, 0.0))


def _check_inputs(problem, Y, tuning, tol=None):
    """Validated responses as an (m, n) array; one response becomes one row."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.ndim != 2 or Y.shape[1] != problem.n:
        raise InputError(f"each response must have length n={problem.n}")
    if not np.all(np.isfinite(Y)):
        raise InputError("responses have non-finite entries")
    if tuning.p != problem.p:
        raise InputError("tuning vector length does not match the design")
    if tol is not None and not tol > 0:
        raise InputError("tol must be positive")
    return Y


def _descend(gram, lam, C, tol, max_iter):
    """Cyclic coordinate descent from b = 0 on each row of C = Y X, order 1..p.

    A row closes once its KKT residual meets tol; every row keeps its best
    iterate and residual.
    """
    m, p = C.shape
    diag = np.diag(gram).copy()
    B = np.zeros((m, p))
    resids = np.full(m, np.inf)
    rows, Ba, Ca = np.arange(m), B.copy(), C
    for _ in range(max_iter):
        if rows.size == 0:
            break
        for j in range(p):
            if diag[j] <= 0.0:
                continue  # zero column: coefficient pinned at 0
            rho = Ca[:, j] - Ba @ gram[:, j] + diag[j] * Ba[:, j]
            Ba[:, j] = _soft(rho, lam[j]) / diag[j]
        r = _kkt_violation(Ca - Ba @ gram, Ba, lam, 0.0).max(axis=1)
        better = r < resids[rows]
        B[rows[better]], resids[rows[better]] = Ba[better], r[better]
        keep = r > tol
        if not keep.all():
            rows, Ba, Ca = rows[keep], Ba[keep], Ca[keep]
    return B, resids


def solve(
    problem: DesignProblem,
    y,
    tuning: TuningVector,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LassoSolution:
    """Cyclic coordinate descent from b = 0, coordinates in order 1..p.

    The one-row call of the engine behind solve_many. Deterministic in its
    inputs. Convergence is declared on the first-order residual (not on
    objective decrease), so the output always passes is_solution at the same
    tol; otherwise ConvergenceError carries the best iterate and its residual.
    """
    Y = _check_inputs(problem, np.ravel(y), tuning, tol)
    B, resids = _descend(problem.gram, tuning.lam, Y @ problem.X, tol, max_iter)
    b, resid = B[0], float(resids[0])
    if resid > tol:
        raise ConvergenceError(
            f"coordinate descent did not reach tol={tol:g} within {max_iter} sweeps "
            f"(best residual {resid:.3e})",
            b=b,
            kkt_residual=resid,
        )
    return _package(problem, Y[0], tuning, b, resid)


def _package(problem, y, tuning, b, resid):
    fit = problem.X @ b
    r = y - fit
    objective = float(r @ r + 2.0 * tuning.lam @ np.abs(b))
    active = tuple(int(j) for j in np.flatnonzero(np.abs(b) > ZERO_TOL))
    return LassoSolution(
        b=b.copy(), fit=fit, objective=objective, kkt_residual=float(resid), active_model=active
    )


def solve_many(
    problem: DesignProblem,
    Y,
    tuning: TuningVector,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Solve one Lasso per row of Y (m x n). Returns (B, residuals).

    The engine of solve(), which is its one-row call, with the same input
    checks. A row still above tol after max_iter sweeps comes back as its
    best iterate with that iterate's residual, so callers can count failures
    instead of dying mid-batch.
    """
    Y = _check_inputs(problem, Y, tuning, tol)
    return _descend(problem.gram, tuning.lam, Y @ problem.X, tol, max_iter)


def is_solution(
    problem: DesignProblem,
    y,
    tuning: TuningVector,
    b,
    tol: float = 1e-8,
    zero_tol: float = ZERO_TOL,
) -> KKTReport:
    """Certify b against the first-order conditions at tolerance tol."""
    y = _check_inputs(problem, np.ravel(y), tuning)[0]
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != problem.p:
        raise InputError(f"b must have length p={problem.p}")
    g = problem.X.T @ y - problem.gram @ b
    viol = _kkt_violation(g, b, tuning.lam, zero_tol)
    worst = int(np.argmax(viol))
    return KKTReport(ok=bool(viol[worst] <= tol), max_violation=float(viol[worst]), worst_index=worst)


def kernel_sign_cone_nonempty(problem, boundary, constrained, constrained_signs, tol=1e-9):
    """Does {h != 0 : supp(h) in boundary, Xh = 0, s_k h_{c_k} >= 0} exist?

    `boundary` are the indices allowed to move, `constrained` a subset of them
    whose movement must respect the given signs. Decided exactly by a rank
    test on the sign-free columns plus a phase-1 LP over the sign cone
    (normalized by sum_k s_k h_{c_k} = 1, valid since the cone is scale
    invariant).
    """
    boundary = list(boundary)
    constrained = list(constrained)
    signs = np.asarray(constrained_signs, dtype=float).ravel()
    if not boundary:
        return False
    free = [j for j in boundary if j not in set(constrained)]
    X = problem.X
    if free:
        cols = X[:, free]
        s = np.linalg.svd(cols, compute_uv=False)
        smax = float(s[0]) if s.size else 0.0
        rank = int(np.sum(s > max(cols.shape) * smax * 1e-12))
        if rank < len(free):
            return True
    if not constrained:
        return False
    pos = {j: k for k, j in enumerate(boundary)}
    a_eq = np.vstack([X[:, boundary], np.zeros((1, len(boundary)))])
    for j, sj in zip(constrained, signs):
        a_eq[-1, pos[j]] = sj
    b_eq = np.concatenate([np.zeros(X.shape[0]), [1.0]])
    a_ub = np.zeros((len(constrained), len(boundary)))
    for k, (j, sj) in enumerate(zip(constrained, signs)):
        a_ub[k, pos[j]] = -sj
    b_ub = np.zeros(len(constrained))
    return feasible(a_eq, b_eq, a_ub, b_ub, n_free=len(boundary), tol=tol)


def _uniqueness_classes(G, B, lam, tol, zero_tol):
    """Per-coordinate classes of the rows of B, with G = Y X - B X'X.

    2: interior (b_j = 0, lam_j - |g_j| > class_tol), pinned at 0 in every
    solution; +-1: a zero held at the strict boundary g_j = +-lam_j, whose
    movement must respect that sign; 0: a sign-free boundary coordinate.
    """
    class_tol = max(100.0 * tol, 1e-8)
    zeroish = np.abs(B) <= zero_tol
    interior = (lam - np.abs(G) > class_tol) & zeroish
    constrained = ~interior & zeroish & (lam > 0) & (np.abs(G) > class_tol)
    return np.where(interior, 2, np.where(G >= 0, 1, -1) * constrained).astype(np.int8)


def _cone_arguments(classes):
    """(boundary, constrained, signs) for kernel_sign_cone_nonempty from one class row."""
    constrained = np.flatnonzero(np.abs(classes) == 1)
    return np.flatnonzero(classes != 2), constrained, classes[constrained].astype(float)


def describe_solution_set(
    problem: DesignProblem,
    y,
    tuning: TuningVector,
    tol: float = DEFAULT_TOL,
    zero_tol: float = ZERO_TOL,
) -> SolutionSetDescription:
    """Solve, classify the equicorrelation structure, decide uniqueness at y."""
    anchor = solve(problem, y, tuning, tol=tol)
    y = np.asarray(y, dtype=float).ravel()
    g = problem.X.T @ y - problem.gram @ anchor.b
    classes = _uniqueness_classes(g, anchor.b, tuning.lam, tol, zero_tol)
    signs = np.where(classes == 2, 0, np.where((g >= 0) | (tuning.lam == 0), 1, -1))
    unique = problem.rank_x == problem.p or not kernel_sign_cone_nonempty(
        problem, *_cone_arguments(classes)
    )
    return SolutionSetDescription(
        fit=anchor.fit,
        anchor=anchor,
        equicorrelation_signs=tuple(int(v) for v in signs),
        is_unique_at_y=unique,
    )
