"""Sign-pattern event probabilities through scipy's multivariate normal CDF.

Every orthant event of the weighted Lasso is, after the linear change of
variables T = J^{-1}(W - c) with J = [G[:, A], I[:, D0]] and W = X'eps, a
plain Gaussian rectangle probability. This oracle applies scipy's
multivariate normal CDF to that unfactorized p-dimensional rectangle. The
package instead splits each event into two independent blocks (the moving
coordinates and the lambda-box slack) and has its own rectangle kernels, so
the two routes share no code and the oracle stays an independent check.

Singular covariances of rank one or two go through singular_box_prob:
nested adaptive quadrature over the eigenvector coordinates.
"""

from itertools import product

import numpy as np
from scipy import integrate
from scipy.stats import multivariate_normal, norm


def box_prob(mean, cov, lower, upper, abseps=1e-11):
    mean = np.asarray(mean, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    sd = np.sqrt(np.diag(cov))
    lo = np.where(np.isinf(lower), mean - 12.0 * sd, lower)
    hi = np.maximum(np.where(np.isinf(upper), mean + 12.0 * sd, upper), lo)
    return float(
        multivariate_normal.cdf(hi, mean=mean, cov=cov, lower_limit=lo,
                                abseps=abseps, releps=0.0)
    )


def _event_box(gram, lam, beta, sigma, d, z):
    """Transform one sign-pattern event into (mean, cov, lower, upper)."""
    p = len(d)
    J = np.zeros((p, p))
    c = np.zeros(p)
    lower = np.empty(p)
    upper = np.empty(p)
    k = 0
    for j, dj in enumerate(d):
        if dj == 0:
            J[:, k] = np.eye(p)[:, j]
            lower[k], upper[k] = -lam[j], lam[j]
            c += gram[:, j] * (-beta[j])
        else:
            J[:, k] = gram[:, j]
            c += np.eye(p)[:, j] * (dj * lam[j])
            if dj > 0:
                lower[k], upper[k] = z[j], np.inf
            else:
                lower[k], upper[k] = -np.inf, z[j]
        k += 1
    Jinv = np.linalg.inv(J)
    mean = -Jinv @ c
    cov = sigma**2 * Jinv @ gram @ Jinv.T
    return mean, cov, lower, upper


def event_prob(gram, lam, beta, sigma, d, z):
    """P(u_j <= z_j on D-, u_j >= z_j on D+, bhat_j = 0 on D0), error coords."""
    gram = np.asarray(gram, dtype=float)
    lam = np.asarray(lam, dtype=float)
    beta = np.asarray(beta, dtype=float)
    z = np.asarray(z, dtype=float)
    return box_prob(*_event_box(gram, lam, beta, sigma, d, z))


def cdf_value(gram, lam, beta, sigma, z):
    """F(z) = P(u <= z componentwise) by summing 3^p pattern boxes."""
    gram = np.asarray(gram, dtype=float)
    lam = np.asarray(lam, dtype=float)
    beta = np.asarray(beta, dtype=float)
    z = np.asarray(z, dtype=float)
    p = z.shape[0]
    total = 0.0
    for pat in product((-1, 0, 1), repeat=p):
        J = np.zeros((p, p))
        c = np.zeros(p)
        lower = np.empty(p)
        upper = np.empty(p)
        empty = False
        for k, (j, dj) in enumerate(zip(range(p), pat)):
            if dj == 0:
                if z[j] < -beta[j]:
                    empty = True
                    break
                J[:, k] = np.eye(p)[:, j]
                lower[k], upper[k] = -lam[j], lam[j]
                c += gram[:, j] * (-beta[j])
            elif dj == -1:
                J[:, k] = gram[:, j]
                lower[k], upper[k] = -np.inf, min(z[j], -beta[j])
                c += np.eye(p)[:, j] * (-lam[j])
            else:
                if z[j] <= -beta[j]:
                    empty = True
                    break
                J[:, k] = gram[:, j]
                lower[k], upper[k] = -beta[j], z[j]
                c += np.eye(p)[:, j] * lam[j]
        if empty:
            continue
        Jinv = np.linalg.inv(J)
        mean = -Jinv @ c
        cov = sigma**2 * Jinv @ gram @ Jinv.T
        total += box_prob(mean, cov, lower, upper)
    return total


def singular_box_prob(mean, cov, lower, upper):
    """P(lower <= x <= upper) for x ~ N(mean, cov) of rank q <= 2, and quad's
    error estimate.

    x = mean + F t with t ~ N(0, I_q) and F from the eigendecomposition of
    cov (eigenvalues below 1e-12 of the largest count as zero). A row of F
    that is zero is an indicator of its bounds at the mean; a row that is
    zero on the last reduced coordinate bounds the first one alone. The
    probability is nested scipy.integrate.quad over the reduced coordinates,
    the inner one over the interval of t_2 left by the rows at t_1, the outer
    one split where two of those rows' bounds cross.
    """
    mean = np.asarray(mean, dtype=float)
    lower = np.asarray(lower, dtype=float) - mean
    upper = np.asarray(upper, dtype=float) - mean
    eigs, vecs = np.linalg.eigh(np.asarray(cov, dtype=float))
    keep = eigs > 1e-12 * eigs[-1]
    F = vecs[:, keep][:, ::-1] * np.sqrt(eigs[keep][::-1])
    q = F.shape[1]
    if q > 2:
        raise ValueError(f"rank {q} > 2")
    tiny = 1e-9 * np.sqrt(np.max(eigs))
    dead = np.all(np.abs(F) <= tiny, axis=1)
    if np.any(lower[dead] > 1e-9) or np.any(upper[dead] < -1e-9):
        return 0.0, 0.0
    F, lower, upper = F[~dead], lower[~dead], upper[~dead]

    def interval(coef, lo, hi):
        """[max, min] over rows of the bounds on c in lo <= coef c <= hi."""
        a, b = lo / coef, hi / coef
        return np.max(np.minimum(a, b)), np.min(np.maximum(a, b))

    def mass(lo, hi):
        if lo >= hi:
            return 0.0
        return integrate.quad(norm.pdf, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    first = np.abs(F[:, -1]) <= tiny if q == 2 else np.ones(F.shape[0], dtype=bool)
    t_lo, t_hi = interval(F[first, 0], lower[first], upper[first]) if first.any() else (-12.0, 12.0)
    t_lo, t_hi = max(t_lo, -12.0), min(t_hi, 12.0)
    if t_lo >= t_hi:
        return 0.0, 0.0
    if q == 1:
        return integrate.quad(norm.pdf, t_lo, t_hi, epsabs=1e-15, epsrel=1e-13)

    F, lower, upper = F[~first], lower[~first], upper[~first]
    # t_2 = (bound - F_1 t_1) / F_2: each finite bound is a line in t_1
    lines = [((bnd / f2), -f1 / f2) for (f1, f2), lo, hi in zip(F, lower, upper)
             for bnd in (lo, hi) if np.isfinite(bnd)]
    cuts = {(c1 - c0) / (s0 - s1) for (c0, s0), (c1, s1) in product(lines, repeat=2)
            if s0 != s1}
    cuts = sorted(t for t in cuts if t_lo < t < t_hi)

    def outer(t1):
        lo, hi = interval(F[:, 1], lower - F[:, 0] * t1, upper - F[:, 0] * t1)
        return norm.pdf(t1) * mass(lo, hi)

    return integrate.quad(outer, t_lo, t_hi, points=cuts or None, epsabs=1e-14,
                          epsrel=1e-12, limit=1000)
