"""Design matrices, penalty weights, sign partitions and Gaussian models.

Everything downstream works off the Gram matrix X'X and the design with
unit-norm columns, which holds every rank, so these are computed once at
construction time and frozen. A coordinate counts as zero only when it is
exactly 0, the solver's rule, which no rescaling of a column moves: that one
zero rule reads every sign partition and every solution's model and signs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

# default solver tolerance on the KKT residual
DEFAULT_TOL = 1e-10

# default feasibility tolerance of the phase-1 simplex LPs
LP_TOL = 1e-9

# how far an orthant threshold may lie on the wrong side of its split (_check_side)
_EVENT_SIDE_TOL = 1e-9

# singular value sigma_k counts toward the rank iff sigma_k > max(n,p)*smax*RANK_RTOL
RANK_RTOL = 1e-12

# largest tuning weight, response, design entry or sigma (and 1/MAX_MAGNITUDE
# the least sigma): the package squares and multiplies them, and (1e150)^2
# stays far below the largest double, about 1.8e308
MAX_MAGNITUDE = 1e150


def _record(cls=None, *, eq=False):
    """Class decorator: an immutable record over the class's annotated fields.

    It does what a frozen dataclass does here, without generating code per
    class: construction by position or keyword in annotation order, class
    attributes as defaults (a dict default is copied for each record),
    __post_init__ when the class has one, AttributeError on assignment or
    deletion and the repr Name(field=value, ...). With eq=True, records of
    one class compare and hash by their field values; otherwise by identity.
    Fields live in the instance __dict__, so pickle and copy work unchanged.
    """
    if cls is None:
        return lambda c: _record(c, eq=eq)
    name = cls.__name__
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} fields, got {len(args)} positional")
        values = dict(zip(names, args))
        for k, v in kwargs.items():
            if k not in names or k in values:
                raise TypeError(f"{name}() got an unexpected or repeated field {k!r}")
            values[k] = v
        state = self.__dict__
        for k in names:
            if k in values:
                state[k] = values[k]
            elif k in defaults:
                state[k] = dict(defaults[k]) if type(defaults[k]) is dict else defaults[k]
            else:
                raise TypeError(f"{name}() missing field {k!r}")
        if post_init is not None:
            post_init(self)

    def __setattr__(self, k, v):
        raise AttributeError(f"cannot assign to field {k!r}")

    def __delattr__(self, k):
        raise AttributeError(f"cannot delete field {k!r}")

    def __repr__(self):
        fields = ", ".join(f"{k}={self.__dict__[k]!r}" for k in names)
        return f"{type(self).__qualname__}({fields})"

    cls.__init__, cls.__setattr__, cls.__delattr__ = __init__, __setattr__, __delattr__
    cls.__repr__ = __repr__
    if eq:
        key = lambda r: tuple(r.__dict__[k] for k in names)
        cls.__eq__ = lambda self, other: (
            key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented)
        cls.__hash__ = lambda self: hash(key(self))
    return cls


def _as_int(value, least: int, message: str) -> int:
    """value as an int when it is an integer >= least; anything else (2.5,
    NaN, inf, a string) raises InputError(message)."""
    try:
        if int(value) == value and value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(message)


def _plain(value):
    """value as an error message shows it: a numpy scalar as the Python number
    it holds, so the message reads 2.5 rather than np.float64(2.5)."""
    return value.item() if isinstance(value, np.generic) else value


def _check_seed(seed) -> int:
    """seed as an int; a negative or non-integral seed raises InputError."""
    return _as_int(seed, 0, "seed must be a nonnegative integer")


def _check_tol(tol, name: str = "tol") -> None:
    """Raise InputError unless tol is finite and positive."""
    if not tol > 0:
        raise InputError(f"{name} must be positive")
    if not math.isfinite(tol):
        raise InputError(f"{name} must be finite")


def _check_quad_tol(quad_tol) -> None:
    """Raise InputError unless quad_tol is finite and nonnegative (0 is legal)."""
    if not (quad_tol >= 0 and math.isfinite(quad_tol)):
        raise InputError("quad_tol must be finite and nonnegative")


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


def _as_signs(d, name: str = "sign vector") -> SignVector:
    """d as a SignVector; an entry outside {-1, 0, +1} raises InputError
    naming d rather than being truncated to one."""
    if isinstance(d, SignVector):
        return d
    d = _as_vector(d, None, name)
    if not np.all(np.isin(d, (-1.0, 0.0, 1.0))):
        raise InputError(f"{name} entries must be -1, 0 or +1")
    return SignVector(d=tuple(int(v) for v in d))


def _check_side(signs, z, split):
    """InputError unless each threshold z_j lies on the side of split_j that
    signs[j] names, or at split_j where it is 0, within _EVENT_SIDE_TOL."""
    zs = z - split
    wrong = np.flatnonzero(np.where(signs == 0, np.abs(zs), -signs * zs) > _EVENT_SIDE_TOL)
    if wrong.size:
        j = int(wrong[0])
        raise InputError(f"coordinate {j}: threshold z_j = {float(z[j])!r} lies on the wrong "
                         f"side of {float(split[j])!r} for d_j = {signs[j]} (D0 requires equality)")


def _as_indices(indices, p: int) -> tuple:
    """indices as a tuple of ints in order; an entry that is not an integer in
    0..p-1, or a repeat, raises InputError naming its position (entry 1, 2, ...)."""
    out = []
    for k, j in enumerate(indices, 1):
        try:
            ok = int(j) == j and 0 <= j < p and int(j) not in out
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise InputError(f"model entry {k} repeats or is not an integer column index (p={p})")
        out.append(int(j))
    return tuple(out)


def _numerical_rank(s, shape, smax=None) -> int:
    """The rank of an n x p matrix with descending singular values s (RANK_RTOL),
    or of some of its columns with singular values s when smax is its largest."""
    smax = (float(s[0]) if s.size else 0.0) if smax is None else smax
    return int(np.sum(s > max(shape) * smax * RANK_RTOL))


def _column_rank(problem, cols) -> int:
    """The rank of columns cols of X: RANK_RTOL on those columns of U = X / scale
    at U's shape and norm, so no set outranks X and no column rescaling moves it."""
    s = np.linalg.svd(problem.unit[:, list(cols)], compute_uv=False)
    return _numerical_rank(s, problem.unit.shape, problem.unit_norm)


@_record
class DesignProblem:
    """A fixed design matrix with its cached linear-algebra companions.

    scale d holds the column norms (1 for a zero column), unit U = X / d and
    unit_norm ||U||_2. The Lasso of (X, lam) is that of (U, lam / d) with
    b = b' / d, so every rank, rank_x = rk(X) included, is _column_rank's.
    """

    X: np.ndarray
    gram: np.ndarray
    rank_x: int
    scale: np.ndarray
    unit: np.ndarray
    unit_norm: float

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def build_problem(X) -> DesignProblem:
    """Build a DesignProblem from an n x p array-like (rows = observations)."""
    try:
        X = np.atleast_2d(np.asarray(X, dtype=float))
    except (TypeError, ValueError) as exc:
        raise InputError(f"design matrix is not a numeric matrix: {exc}") from exc
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise InputError("design matrix must be 2-d with at least one row and column")
    # reductions, not an array the size of X; a NaN fails both comparisons.
    # X'X is then finite for any n below 1e8
    if not (-MAX_MAGNITUDE <= X.min() and X.max() <= MAX_MAGNITUDE):
        raise InputError(
            f"design matrix entries must be finite, of magnitude at most {MAX_MAGNITUDE:g}")
    scale = np.linalg.norm(X, axis=0)
    scale[scale == 0.0] = 1.0
    unit = X / scale
    # rank is _column_rank's on all columns, and s[0] is ||U||_2
    s = np.linalg.svd(unit, compute_uv=False)
    return DesignProblem(
        X=X,
        gram=X.T @ X,
        rank_x=_numerical_rank(s, X.shape),
        scale=scale,
        unit=unit,
        unit_norm=float(s[0]),
    )


def design_from_gram(gram) -> DesignProblem:
    """Build a p x p design whose Gram matrix equals the given SPD matrix.

    Useful when a problem is specified through X'X only: the Cholesky factor
    L with LL' = gram gives X = L', and X'X = gram exactly.
    """
    try:
        gram = np.asarray(gram, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"gram is not a numeric matrix: {exc}") from exc
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise InputError("gram must be a square matrix")
    if not np.allclose(gram, gram.T, rtol=1e-12, atol=1e-12):
        raise InputError("gram must be symmetric")
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise InputError("gram is not positive definite") from exc
    return build_problem(chol.T)


@_record
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
    if np.any(lam < 0) or np.any(lam > MAX_MAGNITUDE):
        raise InputError(f"tuning weights must lie in [0, {MAX_MAGNITUDE:g}]")
    return TuningVector(lam=lam, m0=tuple(int(j) for j in np.flatnonzero(lam == 0.0)))


def uniform_tuning(p: int, lam_bar: float) -> TuningVector:
    """The weight lam_bar, one number, on each of p coordinates; p must be a
    positive integer."""
    p = _as_int(p, 1, f"p must be a positive integer, got {_plain(p)!r}")
    return tuning_vector(np.full(p, _as_vector(lam_bar, 1, "lam_bar")[0]))


@_record(eq=True)
class SignVector:
    """A vector d in {-1, 0, +1}^p and the index partition it induces."""

    d: tuple

    def __post_init__(self):
        if not all(map((-1, 0, 1).__contains__, self.d)):
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


def sign_partition(z) -> SignVector:
    """Classify each coordinate of z as -1, 0 or +1 by its sign: z_j is 0 only
    when it is exactly 0, the package's one zero rule (that of the solver)."""
    z = _as_vector(z, None, "z", allow_inf=True)
    return SignVector(d=tuple(int(v) for v in np.sign(z)))


@_record
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
    try:
        sigma = float(sigma)
    except (TypeError, ValueError):
        sigma = math.nan
    # sigma^2 must be a finite, nonzero double; a NaN fails both comparisons
    if not (1.0 / MAX_MAGNITUDE <= sigma <= MAX_MAGNITUDE):
        raise InputError(
            f"sigma must be a positive real in [{1.0 / MAX_MAGNITUDE:g}, {MAX_MAGNITUDE:g}]")
    # the largest diagonal entry of X'X bounds every entry, so sigma^2 X'X is finite
    if not math.isfinite(sigma**2 * float(np.max(np.diag(problem.gram)))):
        raise InputError("sigma is too large for the design: sigma^2 X'X overflows")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the error below
        mu = problem.X @ beta
        mean = problem.gram @ beta
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(mean))):
        raise InputError("beta is too large for the design: X beta or X'X beta overflows")
    return GaussianModel(beta=beta, sigma=sigma, mu=mu)


def fiber_equivalent(m1: GaussianModel, m2: GaussianModel, problem: DesignProblem) -> bool:
    """True iff both models induce the same mean X beta (same fiber element)."""
    _check_dims(problem, model=m1)
    _check_dims(problem, model=m2)
    return bool(np.allclose(m1.mu, m2.mu, rtol=1e-9, atol=1e-12))


@_record
class RegionProbability:
    """A probability estimate together with how it was obtained.

    Quadrature-class results carry std_error = 0 and a quad_tol error bound;
    Monte Carlo results carry the binomial standard error and quad_tol = 0.
    n_samples counts the QMC points or replicates behind the estimate (0 for
    a closed form); a refined QMC block counts its 2^16-point run alone.
    """

    estimate: float
    std_error: float
    method: str
    n_samples: int
    seed: int | None
    quad_tol: float
