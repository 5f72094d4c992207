"""Polyhedral geometry of the weighted Lasso.

Faces of the lambda-box and their intersection with the row space col(X')
decide which models are selectable, which coordinates the structural set
keeps, and (through the faces one rank above rk(X)) whether the solution is
unique for every response. All intersection questions reduce to small LP
feasibility problems in z (the n response-space variables), solved by the
phase-1 simplex. Only `map_ls_to_lasso` runs the solver, which loads on
first use (PEP 562).
"""

from __future__ import annotations

import sys
from itertools import combinations, product
from typing import TYPE_CHECKING

import numpy as np

from . import _lazy
from .errors import CombinatorialLimitError, InputError, NumericalError
from .model import DEFAULT_TOL, LP_TOL, ZERO_TOL, DesignProblem, TuningVector, _as_indices
from .model import _as_signs, _as_vector, _check_dims, _check_tol, _record, sign_partition
from .simplex import feasible_point

if TYPE_CHECKING:
    from .solver import LassoSolution

UNIQUENESS_LIMIT = 14
SELECTABLE_LIMIT = 30
GENERAL_POSITION_LIMIT = 12


__getattr__ = _lazy(globals(), {"solve": "solver"})


@_record
class FaceBox:
    """A fully sign-resolved face of the box prod_j [-lam_j, lam_j].

    fixed_sign[j] in {-1, 0, +1}: nonzero pins coordinate j at
    fixed_sign[j] * lam_j, zero leaves the full interval. Coordinates with
    lam_j = 0 that belong to the face's model are stored with sign +1 and pin
    the (degenerate) value 0.
    """

    lam: np.ndarray
    fixed_sign: np.ndarray

    @property
    def model(self) -> tuple:
        return tuple(int(j) for j in np.flatnonzero(self.fixed_sign != 0))

    def contains(self, v, tol: float = 1e-9) -> bool:
        v = _as_vector(v, self.lam.shape[0], "probe vector")
        fixed = self.fixed_sign != 0
        if np.any(np.abs(v[fixed] - self.fixed_sign[fixed] * self.lam[fixed]) > tol):
            return False
        return bool(np.all(np.abs(v[~fixed]) <= self.lam[~fixed] + tol))


def face_box(tuning: TuningVector, model, signs) -> FaceBox:
    model = _as_indices(model, tuning.p)
    signs = _as_signs(signs).d
    if len(model) != len(signs) or 0 in signs:
        raise InputError("each model index needs a sign in {-1, +1}")
    fixed = np.zeros(tuning.p, dtype=int)
    for j, s in zip(model, signs):
        fixed[j] = 1 if tuning.lam[j] == 0.0 else s
    return FaceBox(lam=tuning.lam, fixed_sign=fixed)


def _sign_slots(tuning, model):
    """The signs each index of a face family may take, lam_j = 0 slots collapsed to +1.

    The first positively-penalized index is pinned at +1: every caller's
    feasibility question is invariant under v -> -v (col(X') is a subspace
    and the box is symmetric), which halves the enumeration.
    """
    slots = []
    fixed_one = True
    for j in model:
        if tuning.lam[j] == 0.0:
            slots.append((1,))
        elif fixed_one:
            slots.append((1,))
            fixed_one = False
        else:
            slots.append((1, -1))
    return slots


def _sign_patterns(tuning, model):
    """The sign resolutions of a face family up to v -> -v, in product order
    of _sign_slots."""
    return product(*_sign_slots(tuning, model))


@_record
class RowSpacePoint:
    """A point v = X'z of the row space, with its certificate z."""

    v: np.ndarray
    z: np.ndarray


def face_intersects_row_space(problem: DesignProblem, face: FaceBox, tol: float = LP_TOL):
    """Find v = X'z inside the face, or None if col(X') misses it.

    LP feasibility in z: (X'z)_j pinned on the face's model, boxed elsewhere.
    Boundary-touching points count as intersecting (the face is closed).
    """
    if face.lam.shape[0] != problem.p:
        raise InputError("face does not match the design dimension")
    _check_tol(tol)
    X = problem.X
    fixed = face.fixed_sign != 0
    a_eq = X[:, fixed].T
    b_eq = (face.fixed_sign[fixed] * face.lam[fixed]).astype(float)
    free_cols = X[:, ~fixed].T
    a_ub = np.vstack([free_cols, -free_cols])
    b_ub = np.concatenate([face.lam[~fixed], face.lam[~fixed]])
    z = feasible_point(a_eq, b_eq, a_ub, b_ub, n_free=problem.n, tol=tol)
    if z is None:
        return None
    return RowSpacePoint(v=X.T @ z, z=z)


def _meeting_faces(problem, tuning, model, tol, patterns=None):
    """(signs, point) for each sign resolution of the face family over model
    whose face meets col(X'), one LP per resolution in the order of patterns
    (default: _sign_patterns). Lazy, so a caller that stops early runs no
    further LP."""
    for signs in _sign_patterns(tuning, model) if patterns is None else patterns:
        point = face_intersects_row_space(problem, face_box(tuning, model, signs), tol)
        if point is not None:
            yield signs, point


def selectable(problem: DesignProblem, tuning: TuningVector, model, tol: float = LP_TOL) -> bool:
    """Can some response make the Lasso select exactly this model?

    True iff some sign resolution of the face family B_model meets col(X').
    """
    model = sorted(_as_indices(model, problem.p))
    _check_dims(problem, tuning)
    _check_tol(tol)
    if len(model) > SELECTABLE_LIMIT:
        raise CombinatorialLimitError(
            f"model has {len(model)} indices; sign enumeration capped at {SELECTABLE_LIMIT}"
        )
    if not model:
        return True  # v = 0 lies in every lambda-box and in col(X')
    return next(_meeting_faces(problem, tuning, model, tol), None) is not None


def structural_set(problem: DesignProblem, tuning: TuningVector, tol: float = LP_TOL) -> tuple:
    """Indices that appear in some Lasso solution for some response.

    By v -> -v symmetry only the +1 face of each index needs an LP; indices
    with lam_j = 0 are always members (z = 0 certifies them).
    """
    _check_dims(problem, tuning)
    _check_tol(tol)
    # _sign_patterns of one positively-penalized index is its +1 face alone
    return tuple(
        j for j in range(problem.p)
        if tuning.lam[j] == 0.0 or next(_meeting_faces(problem, tuning, (j,), tol), None)
    )


def _meeting_pairs(problem, tuning, members, tol):
    """The signed pair faces over `members` that meet col(X').

    Returned as a set of (j, s_j, k, s_k) with j < k and signs as face_box
    stores them. One LP per pair and sign pattern with the leading sign
    pinned; the mirror v -> -v of a meeting pair (lam = 0 slots stay +1)
    meets col(X') too.
    """
    lam = tuning.lam
    pairs = set()
    for pair in combinations(members, 2):
        for signs, _ in _meeting_faces(problem, tuning, pair, tol):
            mirror = [s if lam[j] == 0.0 else -s for j, s in zip(pair, signs)]
            pairs.add((pair[0], signs[0], pair[1], signs[1]))
            pairs.add((pair[0], mirror[0], pair[1], mirror[1]))
    return pairs


def _pair_consistent_signs(tuning, model, pairs):
    """_sign_patterns(tuning, model), in the same order, less
    every pattern with a signed pair outside `pairs`.

    Signs are chosen slot by slot and a prefix is dropped as soon as one of
    its pairs misses, so pruned patterns are never enumerated.
    """
    slots = _sign_slots(tuning, model)
    signs = []

    def extend(t):
        if t == len(slots):
            yield tuple(signs)
            return
        for s in slots[t]:
            if all((model[u], signs[u], model[t], s) in pairs for u in range(t)):
                signs.append(s)
                yield from extend(t + 1)
                signs.pop()

    return extend(0)


@_record
class NonuniquenessWitness:
    y: np.ndarray
    b: np.ndarray
    b_tilde: np.ndarray


@_record
class ViolatingFace:
    model: tuple
    signs: tuple
    v: np.ndarray


@_record
class UniquenessVerdict:
    unique: bool
    witness: NonuniquenessWitness | None
    violating_face: ViolatingFace | None


def check_uniqueness(problem: DesignProblem, tuning: TuningVector, tol: float = LP_TOL) -> UniquenessVerdict:
    """Is the Lasso solution unique for every response y?

    Unique iff col(X') misses every face B_M with |M| > rk(X); by face
    nesting it suffices to scan |M| = rk(X)+1. The first face found to
    intersect (models in lexicographic order, signs with the leading
    positively-penalized index pinned at +1) is returned with a constructed
    two-solution witness.

    A signed face lies inside each of its signed sub-faces, so it can meet
    col(X') only if every index of M is in the structural set and every
    signed pair of M meets col(X'). The scan therefore first solves the
    structural set (at most p LPs) and the signed pairs over it (at most
    |S|(|S|-1) LPs, two per pair after the v -> -v mirror), then runs an LP
    only on the faces that pass both tests. Every face it skips misses
    col(X'), and every face it keeps gets the same LP in the same order as
    in the exhaustive scan, so the verdict, the reported face, its point and
    the witness are those of the exhaustive scan.
    """
    _check_dims(problem, tuning)
    _check_tol(tol)
    if problem.p > UNIQUENESS_LIMIT:
        raise CombinatorialLimitError(
            f"p={problem.p} exceeds the enumeration limit {UNIQUENESS_LIMIT}; "
            "simulate.estimate_nonuniqueness_probability() estimates the chance of a "
            "non-unique solution by Monte Carlo"
        )
    rank = problem.rank_x
    unique = UniquenessVerdict(unique=True, witness=None, violating_face=None)
    if rank >= problem.p:
        return unique
    members = structural_set(problem, tuning, tol)
    if len(members) <= rank:
        return unique
    pairs = _meeting_pairs(problem, tuning, members, tol)
    for model in combinations(members, rank + 1):
        patterns = _pair_consistent_signs(tuning, model, pairs)
        for signs, point in _meeting_faces(problem, tuning, model, tol, patterns):
            witness = construct_nonuniqueness_witness(problem, tuning, model, point.v, z=point.z)
            face = ViolatingFace(model=model, signs=tuple(signs), v=point.v)
            return UniquenessVerdict(unique=False, witness=witness, violating_face=face)
    return unique


def construct_nonuniqueness_witness(
    problem: DesignProblem, tuning: TuningVector, model, v, z=None
) -> NonuniquenessWitness:
    """Turn a face certificate v = X'z (|model| > rk X) into two solutions.

    If the face contains an unpenalized zero column the witness is immediate
    (that coefficient is arbitrary). Otherwise some column of X_model depends
    on the others; splitting the dependency across the two solutions keeps
    X b = X b_tilde and g = X'y - X'Xb = v, so both satisfy the first-order
    conditions at y = z + Xb while differing in coordinate j by 1/(2c).
    """
    model = sorted(_as_indices(model, problem.p))
    _check_dims(problem, tuning)
    v = _as_vector(v, problem.p, "v")
    if len(model) <= problem.rank_x:
        raise InputError("witness construction needs |model| > rank(X)")
    X, lam = problem.X, tuning.lam
    if z is None:
        z, *_ = np.linalg.lstsq(X.T, v, rcond=None)
    z = _as_vector(z, problem.n, "z")
    if np.max(np.abs(X.T @ z - v)) > 1e-8 * (1.0 + np.max(np.abs(v))):
        raise InputError("v is not a row-space point (no z with X'z = v)")

    for j in model:
        if lam[j] == 0.0 and not np.any(X[:, j]):
            b = np.zeros(problem.p)
            b_tilde = np.zeros(problem.p)
            b_tilde[j] = 1.0
            return NonuniquenessWitness(y=z.copy(), b=b, b_tilde=b_tilde)

    col_scale = max(1.0, float(np.max(np.abs(X[:, model]))))
    for j in model:
        others = [l for l in model if l != j]
        if not others:
            break
        d = float(np.sign(v[j])) if lam[j] > 0 else 1.0
        if d == 0.0:
            d = 1.0
        coef, *_ = np.linalg.lstsq(X[:, others], d * X[:, j], rcond=None)
        if np.max(np.abs(X[:, others] @ coef - d * X[:, j])) > 1e-8 * col_scale:
            continue  # X_j independent of the rest; try the next index
        c = float(np.max(np.abs(coef)))
        if c <= 1e-12:
            continue  # zero column with lam_j > 0 cannot sit on this face
        b = np.zeros(problem.p)
        b[others] = np.sign(v[others])
        b[j] = d / (2.0 * c)
        y = z + X @ b
        b_tilde = np.zeros(problem.p)
        b_tilde[others] = np.sign(v[others]) + coef / (2.0 * c)
        return NonuniquenessWitness(y=y, b=b, b_tilde=b_tilde)
    raise NumericalError(
        "no dependent column found over the face's model; certificate inconsistent "
        "with |model| > rank(X)"
    )


def general_position(problem: DesignProblem) -> bool:
    """No k-dim affine subspace (k < min(n,p)) holds k+2 of the signed columns.

    Checked exhaustively: every choice of k+2 distinct column indices and
    signs (first sign pinned to +1; a global flip preserves affine
    dependence) must span a full (k+1)-dimensional affine hull. Sufficient
    for uniqueness under uniform tuning, not necessary.
    """
    if problem.p > GENERAL_POSITION_LIMIT:
        raise CombinatorialLimitError(
            f"p={problem.p} exceeds the general-position enumeration limit "
            f"{GENERAL_POSITION_LIMIT}"
        )
    X = problem.X
    for k in range(min(problem.n, problem.p)):
        size = k + 2
        if size > problem.p:
            break
        for idx in combinations(range(problem.p), size):
            cols = X[:, idx]
            for signs in product((1.0, -1.0), repeat=size - 1):
                pts = cols * np.concatenate(([1.0], signs))
                diffs = pts[:, 1:] - pts[:, [0]]
                if np.linalg.matrix_rank(diffs) <= k:
                    return False
    return True


@_record
class ShrinkageSet:
    """All points mapped to the Lasso output b.

    domain == "xty": membership of v means v in X'Xb + prod_j B_j(b_j), the
    set of X'y values producing b (any rank). domain == "ls_estimate":
    membership of z means the least-squares estimate z is mapped to b (full
    column rank; the probe is gram @ z).
    """

    center: np.ndarray
    box: FaceBox
    b: np.ndarray
    gram: np.ndarray
    domain: str

    def contains(self, point, tol: float = 1e-9) -> bool:
        point = _as_vector(point, self.b.shape[0], "point")
        probe = self.gram @ point if self.domain == "ls_estimate" else point
        return self.box.contains(probe - self.center, tol=tol)


def _shrinkage_set(problem, tuning, b, zero_tol, domain):
    _check_dims(problem, tuning)
    b = _as_vector(b, problem.p, "b")
    d = sign_partition(b, zero_tol)
    model = tuple(j for j in range(problem.p) if d.d[j] != 0)
    box = face_box(tuning, model, tuple(d.d[j] for j in model))
    return ShrinkageSet(center=problem.gram @ b, box=box, b=b.copy(), gram=problem.gram, domain=domain)


def shrinkage_set_high(
    problem: DesignProblem, tuning: TuningVector, b, zero_tol: float = ZERO_TOL
) -> ShrinkageSet:
    """The X'y values whose Lasso solution set contains b (any rank)."""
    return _shrinkage_set(problem, tuning, b, zero_tol, "xty")


def shrinkage_set_low(
    problem: DesignProblem, tuning: TuningVector, b, zero_tol: float = ZERO_TOL
) -> ShrinkageSet:
    """The least-squares estimates mapped to Lasso output b (full column rank)."""
    if problem.rank_x < problem.p:
        raise InputError("design is rank deficient; use shrinkage_set_high")
    return _shrinkage_set(problem, tuning, b, zero_tol, "ls_estimate")


def shrinkage_singleton(problem: DesignProblem, tuning: TuningVector, b) -> np.ndarray:
    """The unique LS point mapped to an all-active b:  b + (X'X)^{-1}(sgn(b) lam)."""
    if problem.rank_x < problem.p:
        raise InputError("design is rank deficient; the singleton needs full column rank")
    _check_dims(problem, tuning)
    b = _as_vector(b, problem.p, "b")
    if np.any(b == 0.0):
        raise InputError("singleton form requires every coefficient nonzero")
    return b + np.linalg.solve(problem.gram, np.sign(b) * tuning.lam)


def map_ls_to_lasso(
    problem: DesignProblem, tuning: TuningVector, z_ls, tol: float = DEFAULT_TOL
) -> LassoSolution:
    """The unique b whose shrinkage area contains the given LS estimate.

    Computed by solving the Lasso at y = X z_ls; the output is cross-checked
    by shrinkage-area membership before returning.
    """
    if problem.rank_x < problem.p:
        raise InputError("design is rank deficient; the LS map needs full column rank")
    z_ls = _as_vector(z_ls, problem.p, "z_ls")
    # through the module attribute, so a replaced `solve` is the one that runs
    sol = sys.modules[__name__].solve(problem, problem.X @ z_ls, tuning, tol=tol)
    area = shrinkage_set_low(problem, tuning, sol.b)
    if not area.contains(z_ls, tol=max(1e-7, 1e3 * tol)):
        raise NumericalError("solver output failed the shrinkage-area membership cross-check")
    return sol
