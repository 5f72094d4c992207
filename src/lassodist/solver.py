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
one-row call. Every 10 sweeps it tries an active-set finish on each open
row: with A the support of the current iterate and s its signs, it solves
G_AA b_A = X_A'y - s_A lam_A and sets b = 0 off A. The row closes on that
solution only when |A| <= rk(X), LU meets no zero pivot in G_AA, the signs
of b_A are s_A and b passes the KKT check above at tol; any other row stays
in coordinate descent unchanged. On correlated and rank-deficient designs
the sign pattern settles long before descent alone reaches tol: most rows
now close within tens of sweeps and the slowest within a few hundred,
where descent alone took hundreds to thousands.

The residual is evaluated after each of the first 9 sweeps, at every
finish and after the last sweep, and nowhere else. A row that misses tol
within max_iter sweeps keeps its best iterate among those evaluated:
solve_many returns it, solve raises ConvergenceError carrying it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .model import ZERO_TOL, DesignProblem, TuningVector
from .simplex import feasible

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
# the active-set finish runs after every _FINISH_EVERY sweeps and solves its
# batched systems in row blocks of about _FINISH_BYTES
_FINISH_EVERY = 10
_FINISH_BYTES = 1 << 20


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


def _descend(gram, lam, C, tol, max_iter, rank):
    """Cyclic coordinate descent from b = 0 on each row of C = Y X, order 1..p,
    with an active-set finish after every _FINISH_EVERY sweeps.

    The KKT residual is evaluated after each sweep before the first finish,
    then only at the finishes and after the last sweep. A row closes once an
    evaluated residual meets tol or the finish accepts it; every row keeps
    the best evaluated iterate and its residual.
    """
    m, p = C.shape
    diag = np.diag(gram).copy()
    B = np.zeros((m, p))
    resids = np.full(m, np.inf)
    rows, Ba, Ca = np.arange(m), B.copy(), C
    for sweep in range(1, max_iter + 1):
        if rows.size == 0:
            break
        for j in range(p):
            if diag[j] <= 0.0:
                continue  # zero column: coefficient pinned at 0
            rho = Ca[:, j] - Ba @ gram[:, j] + diag[j] * Ba[:, j]
            Ba[:, j] = _soft(rho, lam[j]) / diag[j]
        finish = sweep % _FINISH_EVERY == 0
        if not (finish or sweep < _FINISH_EVERY or sweep == max_iter):
            continue
        r = _kkt_violation(Ca - Ba @ gram, Ba, lam, 0.0).max(axis=1)
        better = r < resids[rows]
        B[rows[better]], resids[rows[better]] = Ba[better], r[better]
        done = r <= tol
        if finish:
            accepted, Bf, rf = _finish(gram, lam, Ca, Ba, ~done, tol, rank)
            B[rows[accepted]], resids[rows[accepted]] = Bf[accepted], rf[accepted]
            done |= accepted
        if done.any():
            rows, Ba, Ca = rows[~done], Ba[~done], Ca[~done]
    return B, resids


def _finish(gram, lam, C, Bc, todo, tol, rank):
    """Active-set finish of the rows of Bc marked in todo.

    With A a row's support and s its signs, solve G_AA b_A = c_A - s_A lam_A
    and set b = 0 off A. A row is accepted only when |A| <= rank, LU meets
    no zero pivot in G_AA, b_A keeps the signs s_A and the KKT residual of b
    (zero_tol 0) meets tol. Returns the accepted mask over the rows of Bc,
    and solutions and residuals that are valid where it is set.
    """
    active = Bc != 0.0
    size = active.sum(axis=1)
    cand = np.flatnonzero(todo & (size > 0) & (size <= rank))
    accepted = np.zeros(Bc.shape[0], dtype=bool)
    Bf, rf = np.zeros_like(Bc), np.zeros(Bc.shape[0])
    # rows of one support size share a batch of |A| x |A| systems, solved in
    # blocks of about _FINISH_BYTES
    for k in np.unique(size[cand]):
        group = cand[size[cand] == k]
        step = max(1, _FINISH_BYTES // (8 * k * k))
        for lo in range(0, group.size, step):
            i = group[lo:lo + step]
            A = np.nonzero(active[i])[1].reshape(i.size, k)
            s = np.take_along_axis(np.sign(Bc[i]), A, axis=1)
            M = gram[A[:, :, None], A[:, None, :]]
            rhs = np.take_along_axis(C[i], A, axis=1) - s * lam[A]
            try:
                x = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
                ok = np.ones(i.size, dtype=bool)
            except np.linalg.LinAlgError:
                # an exactly singular G_AA in the block, such as two equal
                # columns in A; G_AA is positive semidefinite, so a positive
                # determinant marks the systems that can be solved
                ok = np.linalg.slogdet(M)[0] > 0
                x = np.zeros_like(rhs)
                x[ok] = np.linalg.solve(M[ok], rhs[ok, :, None])[:, :, 0]
            b = np.zeros((i.size, Bc.shape[1]))
            np.put_along_axis(b, A, x, axis=1)
            r = _kkt_violation(C[i] - b @ gram, b, lam, 0.0).max(axis=1)
            accepted[i] = ok & np.all(np.sign(x) == s, axis=1) & (r <= tol)
            Bf[i], rf[i] = b, r
    return accepted, Bf, rf


def solve(
    problem: DesignProblem,
    y,
    tuning: TuningVector,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LassoSolution:
    """Cyclic coordinate descent from b = 0, coordinates in order 1..p,
    with the active-set finish of the module docstring.

    The one-row call of the engine behind solve_many. Deterministic in its
    inputs. Convergence is declared on the first-order residual (not on
    objective decrease), whether descent or the finish reaches it, so the
    output always passes is_solution at the same tol. Otherwise
    ConvergenceError carries the best iterate and its residual, best among
    the sweeps where the residual is evaluated.
    """
    Y = _check_inputs(problem, np.ravel(y), tuning, tol)
    B, resids = _descend(problem.gram, tuning.lam, Y @ problem.X, tol, max_iter, problem.rank_x)
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
    checks; every 10 sweeps it closes the rows whose active-set finish is
    accepted (see the module docstring). A row still above tol after
    max_iter sweeps comes back as its best iterate with that iterate's
    residual, best among the sweeps where the residual is evaluated, so
    callers can count failures instead of dying mid-batch.
    """
    Y = _check_inputs(problem, Y, tuning, tol)
    return _descend(problem.gram, tuning.lam, Y @ problem.X, tol, max_iter, problem.rank_x)


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
