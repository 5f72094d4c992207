"""Weighted-Lasso solver, optimality certificates, solution-set description.

Objective convention used everywhere in this package:

    L(b) = ||y - X b||^2  +  2 * sum_j lam_j |b_j|

Note the factor 2 on the penalty; most libraries scale differently, so the
soft-threshold level for coordinate j here is lam_j / (X'X)_jj. A vector b
minimizes L iff, with g = X'y - X'Xb,

    g_j = sgn(b_j) lam_j        where b_j != 0,
    |g_j| <= lam_j              where b_j == 0,

which is the one acceptance rule: is_solution certifies it and coordinate
descent uses it as its convergence criterion, with b_j == 0 exact and each
entry up to tol plus the rounding bound of its own terms,
(p + 2) eps (|c_j| + (|b||G|)_j + lam_j) with c = X'y: no iterate meets tol
alone once |X'y| reaches about 1e6. Residuals stay raw violations. The
same rule reads a solution's model and signs everywhere in the package:
b_j is zero only when it is exactly 0.

One batched coordinate-descent engine solves every response; solve is its
one-row call. It keeps the open rows coordinate-major, (p, rows), so each
coordinate update reads and writes one contiguous row. After sweep 2 and
then every 10 sweeps it tries an active-set finish on each open row: with
A the support of the current iterate and s its signs, it solves
G_AA b_A = X_A'y - s_A lam_A and sets b = 0 off A. The row closes on that
solution only when |A| <= rk(X), LU meets no zero pivot in G_AA, the signs
of b_A are s_A and b passes the KKT check above at tol. Any other row stays
in coordinate descent, but keeps what the finish found in one step that
does not raise L:

- where b_A was solved, a feature-sign step: move from the iterate toward
  b_A up to the first sign change and set that coordinate to 0 (L is a
  convex quadratic on the closed orthant face of s, minimized at b_A);
- where G_AA is singular (|A| > rk(X), or equal columns), a step along a
  null vector h of X_A, oriented so that sum lam_j s_j h_j <= 0, until a
  coordinate of A reaches 0: the fit stays and the penalty does not rise.

On small full-rank designs more than 90% of rows close by the first
finish. On correlated and rank-deficient ones the slowest rows close within
a few hundred sweeps, where a finish that discarded its rejected solutions
left rows open for tens of thousands.

The residual is evaluated after sweeps 1 and 2, at every finish and after
the last sweep, and nowhere else. A row that misses tol within max_iter
sweeps keeps its best iterate among those evaluated: solve_many returns it,
solve raises ConvergenceError carrying it.
"""

from __future__ import annotations


import numpy as np

from .errors import ConvergenceError, InputError
from .model import DEFAULT_TOL, LP_TOL, MAX_MAGNITUDE, DesignProblem, TuningVector
from .model import _as_vector
from .model import _as_int, _check_dims, _check_tol, _column_rank, _record
from .simplex import feasible

DEFAULT_MAX_ITER = 100_000
# the active-set finish runs after sweep _FIRST_FINISH and then after every
# _FINISH_EVERY sweeps, and solves its batched systems in row blocks whose
# transient arrays take about _FINISH_BYTES
_FIRST_FINISH = 2
_FINISH_EVERY = 10
_FINISH_BYTES = 1 << 20
# relative tolerance of the null step: entries of a unit null vector at or
# below it are rounding, and the step may move X_A b_A by at most this much
# relative to ||X_A||_F ||b_A||
_NULL_TOL = 1e-13
_EPS = float(np.finfo(float).eps)


@_record
class LassoSolution:
    b: np.ndarray
    fit: np.ndarray
    objective: float
    kkt_residual: float
    active_model: tuple


@_record
class KKTReport:
    """Verdict of the first-order conditions plus the worst violation."""

    ok: bool
    max_violation: float
    worst_index: int

    def __bool__(self) -> bool:
        return self.ok


@_record
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


def _kkt_violation(g, b, lam):
    """Per-entry KKT violation of b, written over g = X'y - X'Xb and returned.

    |g_j - sgn(b_j) lam_j| where b_j != 0, else max(|g_j| - lam_j, 0).
    One temporary the size of b holds the threshold subtracted from g and then
    the one subtracted from |g|: s_j lam_j and 0 on the support, 0 and lam_j
    off it. Subtracting an exact 0 changes nothing, so each entry is bitwise
    that of its formula.
    """
    t = np.sign(b)
    t *= lam
    g -= t
    np.abs(g, out=g)
    np.abs(t, out=t)
    np.subtract(lam, t, out=t)
    g -= t
    return np.maximum(g, 0.0, out=g)


def _accepted(viol, c, b, gram, lam, tol):
    """The acceptance rule on one row or the rows of (m, p) arrays: each entry of
    viol, b's KKT violation at c = X'y, is at most tol plus its rounding bound."""
    bound = np.abs(b) @ np.abs(gram) + np.abs(c) + lam
    return np.all(viol <= tol + (lam.size + 2) * _EPS * bound, axis=-1)


def _passes(r, C, B, gram, lam, tol):
    """_accepted on the rows (m, p) of C = Y X and B, whose raw residuals are r, for
    rows within the largest bound of tol only: no row-sized array at unit scale."""
    ok = r <= tol
    if not ok.all():
        most = max(C.max(), -C.min()) + lam.max()
        most += np.abs(gram).sum(axis=1).max() * max(B.max(), -B.min())
        i = np.flatnonzero(~ok & (r <= tol + (lam.size + 2) * _EPS * most))
        if i.size:
            C, B = C[i], B[i]
            ok[i] = _accepted(_kkt_violation(C - B @ gram, B, lam), C, B, gram, lam, tol)
    return ok


def _check_inputs(problem, Y, tuning, tol):
    """Validated responses as an (m, n) array; one response becomes one row."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.ndim != 2 or Y.shape[1] != problem.n:
        raise InputError(f"each response must have length n={problem.n}")
    # reductions, not an array the size of Y; a NaN fails both comparisons
    if Y.size and not (-MAX_MAGNITUDE <= Y.min() and Y.max() <= MAX_MAGNITUDE):
        raise InputError(f"responses must be finite, of magnitude at most {MAX_MAGNITUDE:g}")
    _check_dims(problem, tuning)
    _check_tol(tol)
    return Y


def _descend(problem, lam, Y, tol, max_iter):
    """Cyclic coordinate descent from b = 0 on each row of C = Y X, order 1..p,
    with an active-set finish of every open row after sweep _FIRST_FINISH
    and every _FINISH_EVERY sweeps.

    The iterates are coordinate-major, (p, open rows), so that each
    coordinate update reads and writes one contiguous row. The KKT residual
    is evaluated after each sweep up to the first finish, then only at the
    finishes and after the last sweep. A row closes once an evaluated
    iterate passes _passes or the finish accepts it; every row keeps the
    best evaluated iterate and its residual. Beside the iterates, their
    right-hand sides and the result, the residual takes two arrays the size
    of the open rows and the finish its batches of about _FINISH_BYTES.
    """
    gram = problem.gram
    m, p = Y.shape[0], problem.p
    diag = np.diag(gram).copy()
    cols = np.ascontiguousarray(gram.T)  # cols[j] is column j of gram
    B = np.zeros((m, p))
    resids = np.full(m, np.inf)
    rows, Bt, Ct = np.arange(m), np.zeros((p, m)), np.ascontiguousarray((Y @ problem.X).T)
    for sweep in range(1, max_iter + 1):
        if rows.size == 0:
            break
        for j in range(p):
            if diag[j] <= 0.0:
                continue  # zero column: coefficient pinned at 0
            # soft(c_j - G_j b + G_jj b_j, lam_j) / G_jj, in place
            rho = cols[j] @ Bt
            np.subtract(Ct[j], rho, out=rho)
            rho += diag[j] * Bt[j]
            u = np.abs(rho)
            u -= lam[j]
            np.maximum(u, 0.0, out=u)
            u *= np.sign(rho)
            np.divide(u, diag[j], out=Bt[j])
        finish = sweep == _FIRST_FINISH or sweep % _FINISH_EVERY == 0
        if not (finish or sweep < _FIRST_FINISH or sweep == max_iter):
            continue
        g = gram @ Bt
        r = _kkt_violation(np.subtract(Ct, g, out=g), Bt, lam[:, None]).max(axis=0)
        del g
        done = _passes(r, Ct.T, Bt.T, gram, lam, tol)
        better = (r < resids[rows]) | done
        _store(B, resids, rows[better], Bt, better, r)
        if finish:
            accepted, rf = _finish(problem, lam, Ct.T, Bt.T, ~done, tol)
            _store(B, resids, rows[accepted], Bt, accepted, rf)
            done |= accepted
        if done.any():
            # one array at a time, so the old and new copies of both never coexist
            keep = ~done
            rows = rows[keep]
            Bt = Bt[:, keep]
            Ct = Ct[:, keep]
    return B, resids


def _store(B, resids, idx, Bt, mask, r):
    """B[idx] = Bt[:, mask].T and resids[idx] = r[mask], one coordinate at a
    time, so that no copy of the open rows' iterates is made."""
    for j, row in enumerate(Bt):
        B[idx, j] = row[mask]
    resids[idx] = r[mask]


def _finish(problem, lam, C, B, todo, tol):
    """Active-set finish of the rows of B marked in todo, in place.

    With A a row's support and s its signs, solve G_AA b_A = c_A - s_A lam_A
    and set b = 0 off A. A row is accepted only when |A| <= rk(X), LU meets
    no zero pivot in G_AA, b_A keeps the signs s_A and the KKT residual of b
    meets tol; its row of B becomes that solution. Any other
    row keeps what the finish found in one step that does not raise L:
    toward the solution where one was found (_step_to_solution), else along
    a null vector of X_A (_null_step). The null step works on X_A', k x n
    per row, so it takes a block's stuck rows in chunks of about
    _FINISH_BYTES, counted as k max(k, n) entries per row. Returns the
    accepted mask over the rows of B, and the residuals of the finish
    solutions, valid where a system was solved and 0 elsewhere.
    """
    gram, Xt, n = problem.gram, problem.X.T, problem.n
    active = B != 0.0
    size = active.sum(axis=1)
    cand = np.flatnonzero(todo & (size > 0))
    accepted = np.zeros(B.shape[0], dtype=bool)
    rf = np.zeros(B.shape[0])
    # rows of one support size share a batch of |A| x |A| systems, handled
    # in blocks of about _FINISH_BYTES. A row of a batch holds G_AA and the
    # solver's copy of it, about a dozen k-vectors (indices, signs, right-hand
    # side, solution, step temporaries) and about eight p-vectors (its rows of
    # B and C, the finish solution, KKT temporaries). np.bincount rather than
    # np.unique, which imports numpy.ma
    p = B.shape[1]
    for k in np.flatnonzero(np.bincount(size[cand])):
        group = cand[size[cand] == k]
        step = max(1, _FINISH_BYTES // (8 * (2 * k * k + 12 * k + 8 * p)))
        for lo in range(0, group.size, step):
            i = group[lo:lo + step]
            A = np.nonzero(active[i])[1].reshape(i.size, k)
            rows = np.arange(i.size)[:, None]
            bA = B[i[:, None], A]
            lamA = lam[A]
            ok = np.zeros(i.size, dtype=bool)
            if k <= problem.rank_x:
                s = np.sign(bA)
                M = gram[A[:, :, None], A[:, None, :]]
                Ci = C[i]
                cA = Ci[rows, A]
                rhs = cA - s * lamA
                try:
                    x = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
                    ok[:] = True
                except np.linalg.LinAlgError:
                    # an exactly singular G_AA in the block, such as two equal
                    # columns in A; G_AA is positive semidefinite, so a positive
                    # determinant marks the systems that can be solved
                    ok = np.linalg.slogdet(M)[0] > 0
                    x = np.zeros_like(rhs)
                    x[ok] = np.linalg.solve(M[ok], rhs[ok, :, None])[:, :, 0]
                b = np.zeros((i.size, p))
                b[rows, A] = x
                r = _kkt_violation(np.subtract(Ci, b @ gram, out=Ci), b, lam).max(axis=1)
                acc = ok & np.all(np.sign(x) == s, axis=1) & (r <= tol)
                accepted[i], rf[i] = acc, np.where(ok, r, 0.0)
                bA[acc] = x[acc]
                move = np.flatnonzero(ok & ~acc)
                if move.size:
                    bA[move] = _step_to_solution(M[move], cA[move], lamA[move], bA[move],
                                                 x[move])
            stuck = np.flatnonzero(~ok)
            span = max(1, _FINISH_BYTES // (8 * k * max(k, n)))
            for lo_s in range(0, stuck.size, span):
                j = stuck[lo_s:lo_s + span]
                bA[j] = _null_step(Xt[A[j]], lamA[j], bA[j])
            B[i[:, None], A] = bA
    return accepted, rf


def _objective_on_support(M, cA, lamA, bA):
    """L(b) - ||y||^2 = b'Gb - 2c'b + 2 lam'|b| for rows of b supported on A."""
    quad = np.einsum("ij,ijk,ik->i", bA, M, bA)
    return quad - 2.0 * np.sum(cA * bA, axis=1) + 2.0 * np.sum(lamA * np.abs(bA), axis=1)


def _step_to_solution(M, cA, lamA, bA, x):
    """Feature-sign step from b_A toward the solution x of its face.

    On the closed orthant face of the signs s of b_A, L is the convex
    quadratic whose minimizer over the span of A is x, so L does not rise on
    the segment from b_A to x while the signs hold. Move up to the first
    coordinate whose sign would change and set it to 0; with no change, move
    to x. A step whose evaluated objective is above b_A's, which rounding in
    an ill-conditioned G_AA can cause, is not taken.
    """
    s = np.sign(bA)
    flip = s * x <= 0.0
    t = np.where(flip, np.abs(bA) / (np.abs(bA) + np.abs(x)), np.inf)
    first = np.argmin(t, axis=1)
    moved = flip.any(axis=1)
    t_min = np.where(moved, t[np.arange(len(t)), first], 1.0)[:, None]
    new = np.where(moved[:, None], bA + t_min * (x - bA), x)
    new[s * new <= 0.0] = 0.0
    new[np.flatnonzero(moved), first[moved]] = 0.0
    worse = _objective_on_support(M, cA, lamA, new) > _objective_on_support(M, cA, lamA, bA)
    new[worse] = bA[worse]
    return new


def _null_step(XtA, lamA, bA):
    """Step along a null vector h of X_A until a coordinate of A reaches 0.

    XtA holds X_A' per row, and X_A has no full column rank (|A| > rk(X), or
    equal columns): h is its last right singular vector, the last left one
    of X_A'. For k <= n the thin SVD holds all k of those, and for k > n the
    full one does, so no row holds an n x n factor. Oriented so that
    sum lam_j s_j h_j <= 0 and some s_j h_j < 0, the step leaves the fit
    unchanged and does not raise the penalty while the signs s hold. Entries
    of h at rounding level are taken as 0, and a step that moves X_A b_A by
    more than _NULL_TOL relative, which a tiny entry of h can cause, is not
    taken.
    """
    h = np.linalg.svd(XtA, full_matrices=XtA.shape[1] > XtA.shape[2])[0][:, :, -1]
    h[np.abs(h) <= _NULL_TOL] = 0.0
    s = np.sign(bA)
    flip = (np.sum(lamA * s * h, axis=1) > 0.0) | ~np.any(s * h < 0.0, axis=1)
    h[flip] = -h[flip]
    down = s * h < 0.0
    t = np.where(down, np.abs(bA) / np.where(down, np.abs(h), 1.0), np.inf)
    first = np.argmin(t, axis=1)
    moves = np.flatnonzero(down.any(axis=1))
    new = bA.copy()
    new[moves] += t[moves, first[moves], None] * h[moves]
    new[s * new <= 0.0] = 0.0
    new[moves, first[moves]] = 0.0
    shift = np.linalg.norm(np.einsum("ikn,ik->in", XtA, new - bA), axis=1)
    scale = np.linalg.norm(XtA, axis=(1, 2)) * np.linalg.norm(bA, axis=1)
    far = shift > _NULL_TOL * scale
    new[far] = bA[far]
    return new


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
    y = np.asarray(np.ravel(y), dtype=float)
    B, resids = solve_many(problem, y, tuning, tol, max_iter)
    b, resid = B[0], float(resids[0])
    if resid > tol and not is_solution(problem, y, tuning, b, tol):
        raise ConvergenceError(
            f"coordinate descent did not reach tol={tol:g} within {int(max_iter)} sweeps "
            f"(best residual {resid:.3e})",
            b=b,
            kkt_residual=resid,
        )
    fit = problem.X @ b
    r = y - fit
    objective = float(r @ r + 2.0 * tuning.lam @ np.abs(b))
    active = tuple(np.flatnonzero(b).tolist())
    return LassoSolution(
        b=b.copy(), fit=fit, objective=objective, kkt_residual=resid, active_model=active
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
    checks; after sweep 2 and every 10 sweeps it closes the rows whose
    active-set finish is accepted (see the module docstring). A row still
    above tol after max_iter sweeps comes back as its best iterate with that
    iterate's residual, best among the sweeps where the residual is
    evaluated, so callers can count failures instead of dying mid-batch.
    """
    Y = _check_inputs(problem, Y, tuning, tol)
    max_iter = _as_int(max_iter, 1, "max_iter must be a positive integer")
    return _descend(problem, tuning.lam, Y, tol, max_iter)


def is_solution(
    problem: DesignProblem,
    y,
    tuning: TuningVector,
    b,
    tol: float = 1e-8,
) -> KKTReport:
    """Certify b against the first-order conditions at tolerance tol, each
    entry up to its rounding bound (module docstring); max_violation is raw.
    A coordinate is zero only when it is exactly 0, as in the solver's own
    acceptance rule, so whatever solve returns passes here at its tol."""
    y = _check_inputs(problem, np.ravel(y), tuning, tol)[0]
    b = _as_vector(b, problem.p, "b")
    c = problem.X.T @ y
    viol = _kkt_violation(c - problem.gram @ b, b, tuning.lam)
    worst = int(np.argmax(viol))
    ok = bool(_accepted(viol, c, b, problem.gram, tuning.lam, tol))
    return KKTReport(ok=ok, max_violation=float(viol[worst]), worst_index=worst)


def kernel_sign_cone_nonempty(problem, classes, tol=LP_TOL):
    """Does {h != 0 : Xh = 0, h_j = 0 where classes_j = 2, s h_j >= 0 where
    classes_j = s = +-1} exist?

    `classes` is one row of _uniqueness_classes: 2 pins a coordinate at 0,
    +-1 lets it move in that direction only and 0 lets it move freely.
    Decided on U = X / d, whose cone is X's scaled by d > 0: a rank test of the
    free columns by _column_rank, then a phase-1 LP over the sign cone
    (normalized by sum_j s_j h_j = 1, valid since the cone is scale invariant).
    """
    classes = np.asarray(classes).ravel()
    boundary = np.flatnonzero(classes != 2)
    if not boundary.size:
        return False
    U = problem.unit
    free = np.flatnonzero(classes == 0)
    if free.size and _column_rank(problem, free) < free.size:
        return True
    signs = classes[boundary].astype(float)  # 0 where the coordinate moves freely
    constrained = np.flatnonzero(signs)
    if not constrained.size:
        return False
    a_eq = np.vstack([U[:, boundary], signs])
    b_eq = np.concatenate([np.zeros(U.shape[0]), [1.0]])
    a_ub = np.diag(-signs)[constrained]
    b_ub = np.zeros(constrained.size)
    return feasible(a_eq, b_eq, a_ub, b_ub, n_free=boundary.size, tol=tol)


def _uniqueness_classes(G, B, lam, tol):
    """Per-coordinate classes of the rows of B, with G = Y X - B X'X.

    2: interior (b_j exactly 0, lam_j - |g_j| > class_tol), pinned
    at 0 in every solution; +-1: a zero held at the strict boundary
    g_j = +-lam_j, whose movement must respect that sign; 0: a sign-free
    boundary coordinate.
    """
    class_tol = max(100.0 * tol, 1e-8)
    zeroish = B == 0
    interior = (lam - np.abs(G) > class_tol) & zeroish
    constrained = ~interior & zeroish & (lam > 0) & (np.abs(G) > class_tol)
    return np.where(interior, 2, np.where(G >= 0, 1, -1) * constrained).astype(np.int8)


def describe_solution_set(
    problem: DesignProblem,
    y,
    tuning: TuningVector,
    tol: float = DEFAULT_TOL,
) -> SolutionSetDescription:
    """Solve, classify the equicorrelation structure, decide uniqueness at y."""
    anchor = solve(problem, y, tuning, tol=tol)
    y = np.asarray(y, dtype=float).ravel()
    g = problem.X.T @ y - problem.gram @ anchor.b
    classes = _uniqueness_classes(g, anchor.b, tuning.lam, tol)
    signs = np.where(classes == 2, 0, np.where((g >= 0) | (tuning.lam == 0), 1, -1))
    unique = problem.rank_x == problem.p or not kernel_sign_cone_nonempty(problem, classes)
    return SolutionSetDescription(
        fit=anchor.fit,
        anchor=anchor,
        equicorrelation_signs=tuple(int(v) for v in signs),
        is_unique_at_y=unique,
    )
