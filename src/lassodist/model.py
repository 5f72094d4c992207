"""Design matrices, penalty weights, sign partitions and Gaussian models.

Everything downstream works off the Gram matrix X'X and the orthonormal
row-space / null-space bases of X, so these are computed once at
construction time and frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# default |b_j| <= ZERO_TOL  <=>  coordinate j counts as zero
ZERO_TOL = 1e-9

# singular value sigma_k counts toward the rank iff sigma_k > max(n,p)*smax*RANK_RTOL
RANK_RTOL = 1e-12


def _check_seed(seed) -> int:
    """seed as an int; a negative or non-integral seed raises InputError."""
    try:
        if int(seed) == seed and seed >= 0:
            return int(seed)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError("seed must be a nonnegative integer")


def _check_tol(tol, name: str = "tol") -> None:
    """Raise InputError unless tol is finite and positive."""
    if not tol > 0:
        raise InputError(f"{name} must be positive")
    if not math.isfinite(tol):
        raise InputError(f"{name} must be finite")


def _check_zero_tol(zero_tol) -> None:
    """Raise InputError unless zero_tol is finite and nonnegative (0 is legal)."""
    if not (zero_tol >= 0 and math.isfinite(zero_tol)):
        raise InputError("zero_tol must be finite and nonnegative")


def _as_vector(v, length, name: str, allow_inf: bool = False) -> np.ndarray:
    """v as a flat float array of `length` entries (any length when None).

    A non-numeric v, another length, a NaN entry or, unless allow_inf, a
    +-inf entry raises InputError naming v.
    """
    try:
        v = np.asarray(v, dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} is not a numeric vector") from exc
    if length is not None and v.shape[0] != length:
        raise InputError(f"{name} must have length {length}, got {v.shape[0]}")
    if allow_inf:
        if np.any(np.isnan(v)):
            raise InputError(f"{name} must not be NaN")
    elif not np.all(np.isfinite(v)):
        raise InputError(f"{name} must be finite (no NaN or inf)")
    return v


def _check_dims(problem, tuning=None, model=None, d=None) -> None:
    """Raise InputError unless the tuning vector, the model's beta and the
    SignVector d, each where given, have the design's p entries."""
    for name, size in (
        ("tuning vector", None if tuning is None else tuning.p),
        ("beta", None if model is None else model.beta.shape[0]),
        ("sign vector", None if d is None else d.p),
    ):
        if size is not None and size != problem.p:
            raise InputError(f"{name} has length {size}; the design has p={problem.p}")


def _as_signs(d) -> SignVector:
    """d as a SignVector; an entry outside {-1, 0, +1} raises InputError
    rather than being truncated to one."""
    if isinstance(d, SignVector):
        return d
    d = _as_vector(d, None, "sign vector")
    if not np.all(np.isin(d, (-1.0, 0.0, 1.0))):
        raise InputError("sign vector entries must be -1, 0 or +1")
    return SignVector(d=tuple(int(v) for v in d))


def _numerical_rank(s, shape) -> int:
    """The rank of an n x p matrix with descending singular values s (RANK_RTOL)."""
    smax = float(s[0]) if s.size else 0.0
    return int(np.sum(s > max(shape) * smax * RANK_RTOL))


@dataclass(frozen=True, eq=False)
class DesignProblem:
    """A fixed design matrix with its cached linear-algebra companions.

    row_space_basis U (p x r) spans col(X'); null_space_basis N (p x (p-r))
    spans ker(X). Both come from one SVD and are orthonormal.
    """

    X: np.ndarray
    gram: np.ndarray
    rank_x: int
    row_space_basis: np.ndarray
    null_space_basis: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def build_problem(X) -> DesignProblem:
    """Build a DesignProblem from an n x p array-like (rows = observations)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise InputError("design matrix must be 2-d with at least one row and column")
    if not np.all(np.isfinite(X)):
        raise InputError("design matrix has non-finite entries")
    n, p = X.shape
    # all of V splits row space from null space; only n < p needs full matrices for it
    _, s, vt = np.linalg.svd(X, full_matrices=n < p)
    rank = _numerical_rank(s, X.shape)
    return DesignProblem(
        X=X,
        gram=X.T @ X,
        rank_x=rank,
        row_space_basis=vt[:rank].T.copy(),
        null_space_basis=vt[rank:].T.copy(),
    )


def design_from_gram(gram) -> DesignProblem:
    """Build a p x p design whose Gram matrix equals the given SPD matrix.

    Useful when a problem is specified through X'X only: the Cholesky factor
    L with LL' = gram gives X = L', and X'X = gram exactly.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise InputError("gram must be a square matrix")
    if not np.allclose(gram, gram.T, rtol=1e-12, atol=1e-12):
        raise InputError("gram must be symmetric")
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise InputError("gram is not positive definite") from exc
    return build_problem(chol.T)


@dataclass(frozen=True, eq=False)
class TuningVector:
    """Per-coordinate penalty weights lambda_j >= 0.

    m0 collects the indices with lambda_j == 0 exactly (partial tuning).
    """

    lam: np.ndarray
    m0: tuple

    @property
    def p(self) -> int:
        return self.lam.shape[0]

    @property
    def is_uniform(self) -> bool:
        return bool(self.lam.size) and bool(np.all(self.lam == self.lam[0])) and self.lam[0] > 0


def tuning_vector(lam) -> TuningVector:
    lam = _as_vector(lam, None, "tuning vector")
    if lam.size < 1:
        raise InputError("tuning vector must have at least one entry")
    if np.any(lam < 0):
        raise InputError("tuning weights must be nonnegative")
    return TuningVector(lam=lam, m0=tuple(int(j) for j in np.flatnonzero(lam == 0.0)))


def uniform_tuning(p: int, lam_bar: float) -> TuningVector:
    """The weight lam_bar on each of p coordinates; p must be a positive integer."""
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise InputError(f"p must be a positive integer, got {p!r}")
    return tuning_vector(np.full(p, float(lam_bar)))


@dataclass(frozen=True)
class SignVector:
    """A vector d in {-1, 0, +1}^p and the index partition it induces."""

    d: tuple

    def __post_init__(self):
        if any(v not in (-1, 0, 1) for v in self.d):
            raise InputError("sign vector entries must be -1, 0 or +1")

    @property
    def p(self) -> int:
        return len(self.d)

    @property
    def d_minus(self) -> tuple:
        return tuple(j for j, v in enumerate(self.d) if v == -1)

    @property
    def d_plus(self) -> tuple:
        return tuple(j for j, v in enumerate(self.d) if v == 1)

    @property
    def d_zero(self) -> tuple:
        return tuple(j for j, v in enumerate(self.d) if v == 0)

    @property
    def norm1(self) -> int:
        return sum(abs(v) for v in self.d)

    def as_array(self) -> np.ndarray:
        return np.array(self.d, dtype=int)


def sign_partition(z, zero_tol: float = ZERO_TOL) -> SignVector:
    """Classify each coordinate of z as -1, 0 or +1; |z_j| <= zero_tol is 0."""
    _check_zero_tol(zero_tol)
    z = _as_vector(z, None, "z", allow_inf=True)
    d = np.sign(z)
    d[np.abs(z) <= zero_tol] = 0.0
    return SignVector(d=tuple(int(v) for v in d))


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Response model y = X beta + eps, eps ~ N(0, sigma^2 I_n).

    beta is one representative of the fiber {b : Xb = mu}; everything the
    package computes about the estimator's distribution depends on beta only
    through mu = X beta.
    """

    beta: np.ndarray
    sigma: float
    mu: np.ndarray


def gaussian_model(problem: DesignProblem, beta, sigma: float) -> GaussianModel:
    beta = _as_vector(beta, problem.p, "beta")
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma <= 0:
        raise InputError("sigma must be a positive real")
    return GaussianModel(beta=beta, sigma=sigma, mu=problem.X @ beta)


def fiber_equivalent(m1: GaussianModel, m2: GaussianModel, problem: DesignProblem) -> bool:
    """True iff both models induce the same mean X beta (same fiber element)."""
    _check_dims(problem, model=m1)
    _check_dims(problem, model=m2)
    return bool(np.allclose(m1.mu, m2.mu, rtol=1e-9, atol=1e-12))
