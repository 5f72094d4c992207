"""Sign-pattern event probabilities through scipy's multivariate normal CDF.

Every orthant event of the weighted Lasso is, after the linear change of
variables T = J^{-1}(W - c) with J = [G[:, A], I[:, D0]] and W = X'eps, a
plain Gaussian rectangle probability. This oracle applies scipy's
multivariate normal CDF to that unfactorized p-dimensional rectangle. The
package instead splits each event into two independent blocks (the moving
coordinates and the lambda-box slack) and has its own rectangle kernels, so
the two routes share no code and the oracle stays an independent check.
"""

import numpy as np
from scipy.stats import multivariate_normal


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
    from itertools import product

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
