"""Genz's separation-of-variables kernel on a randomly shifted Korobov lattice.

`distribution._rectangle` loads this module on its first rectangle of three
or more coordinates, so closed-form and Monte-Carlo calls never compile it.
It holds the lattice rule (the multipliers of `_KOROBOV`, which
scripts/korobov_table.py regenerates, and the shifts, drawn from the
standard library's random), numpy ports of Phi and Phi^-1 (cephes ndtr and
Wichura's AS241: _ndtr, _ndtri) and the integrand (_genz_values; Genz 1992,
Genz & Bretz 2009, ch. 4).
"""

from __future__ import annotations

import math
import random

import numpy as np

_SQRT_HALF = math.sqrt(0.5)
# Korobov multipliers: for the lattice of n points in dim dimensions, the odd a
# minimising the P2 figure of merit; regenerate with scripts/korobov_table.py
_KOROBOV = {
    (64, 2): 19, (64, 3): 5, (64, 4): 3, (64, 5): 5,
    (128, 2): 47, (128, 3): 25, (128, 4): 21, (128, 5): 3,
    (256, 2): 75, (256, 3): 37, (256, 4): 39, (256, 5): 21,
    (512, 2): 149, (512, 3): 119, (512, 4): 115, (512, 5): 151,
    (1024, 2): 275, (1024, 3): 149, (1024, 4): 27, (1024, 5): 189,
    (2048, 2): 791, (2048, 3): 495, (2048, 4): 137, (2048, 5): 453,
    (4096, 2): 1557, (4096, 3): 751, (4096, 4): 791, (4096, 5): 755,
    (8192, 2): 2431, (8192, 3): 1503, (8192, 4): 2019, (8192, 5): 2099,
    (16384, 2): 6229, (16384, 3): 1951, (16384, 4): 3779, (16384, 5): 2959,
    (32768, 2): 12031, (32768, 3): 8895, (32768, 4): 1475, (32768, 5): 1543,
    (65536, 2): 19463, (65536, 3): 15395, (65536, 4): 19303, (65536, 5): 9143,
}
# the lattice sizes of the table: _lattice_size rounds into this range, and
# mvn_box_probability rejects n_samples // n_shifts above its top
_MIN_LATTICE = min(n for n, _ in _KOROBOV)
_MAX_LATTICE = max(n for n, _ in _KOROBOV)
# cephes ndtr's rational approximations, highest degree first: erf on |x| <= 1
# is x T(x^2) / U(x^2); erfc is exp(-x^2) P(x) / Q(x) on [1, 8) and
# exp(-x^2) R(x) / S(x) beyond, and 0 once x^2 exceeds cephes' MAXLOG
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# x <= this exactly when x * x <= MAXLOG = 7.09782712893383996843e2
_ERFC_MAX_X = math.sqrt(7.09782712893383996843e2)
# Wichura's AS241 (PPND16), highest degree first: the central branch in
# r = 0.180625 - q^2 for |q| <= 0.425, q = p - 1/2, and the tails in
# r = sqrt(-log(min(p, 1 - p))), shifted by 1.6 up to r = 5 and by 5 beyond
_AS241_A = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
            4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
            1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_B = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
            2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
            4.2313330701600911252e1, 1.0)
_AS241_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
            1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
            4.63033784615654529590e0, 1.42343711074968357734e0)
_AS241_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
            1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
            2.05319162663775882187e0, 1.0)
_AS241_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
            2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
            5.46378491116411436990e0, 6.65790464350110377720e0)
_AS241_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
            7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
            5.99832206555887937690e-1, 1.0)


def _lattice_size(n_samples, n_shifts):
    """Points per shift for n_samples over n_shifts shifts: the quotient
    rounded up to a power of two, and into the sizes of _KOROBOV."""
    want = max(n_samples // n_shifts, 1)
    return min(max(1 << (want - 1).bit_length(), _MIN_LATTICE), _MAX_LATTICE)


def _shifted_lattice(n, dim, n_shifts, seed):
    """n_shifts random shifts of the rank-1 lattice x_i = frac(i z / n),
    z = (1, a, a^2, ...) mod n, each folded by the baker's transform
    1 - |2x - 1|: yields one (n, dim) array per shift.

    The shifts are _lattice_shifts(seed, n_shifts, dim). The Korobov
    multiplier a is _KOROBOV's entry for (n, dim). Dimensions beyond 5
    (factors of 7 or more columns) reuse the dim-5 multiplier, which was not
    chosen for them. The estimate stays unbiased, and z repeats no entry up
    to dimension 16 at any n of the table (the least multiplicative order of
    a multiplier there is 16); beyond that, coordinates repeat and the rule
    degrades.
    """
    a = _KOROBOV[n, min(max(dim, 2), 5)]  # z = (1,) in one dimension
    z = np.ones(dim, dtype=np.int64)
    for j in range(1, dim):
        z[j] = z[j - 1] * a % n
    lattice = (np.arange(n, dtype=np.int64)[:, None] * z % n) / n
    for shift in _lattice_shifts(seed, n_shifts, dim):
        yield 1.0 - np.abs(2.0 * ((lattice + shift) % 1.0) - 1.0)


def _lattice_shifts(seed, n_shifts, dim):
    """The (n_shifts, dim) shifts of one QMC block for seed = (entropy,
    spawn_key), row by row the first draws of a fresh random.Random seeded by
    the ints joined by ":" ((7, (0, 1)) seeds "7:0:1"), a string injective in
    the pair. CPython repeats a str seed's stream across versions, and the
    global random state is untouched."""
    entropy, key = seed
    draw = random.Random(":".join(map(str, (entropy, *key)))).random
    return np.array([draw() for _ in range(n_shifts * dim)]).reshape(n_shifts, dim)


def _horner(x, coefs):
    """The polynomial with coefficients coefs (highest degree first) at the
    array x, by Horner's rule in place (cephes polevl; a leading 1.0 gives p1evl)."""
    out = x * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _erf(x):
    """erf on an array with |x| <= 1 (cephes erf)."""
    x2 = x * x
    return x * _horner(x2, _ERF_T) / _horner(x2, _ERF_U)


def _erfc(x):
    """erfc on an array with x >= 0 (cephes erfc): 1 - erf below 1, the P/Q
    rational below 8, R/S up to _ERFC_MAX_X, and 0 beyond."""
    out = np.zeros_like(x)
    low = x < 1.0
    i = np.flatnonzero(low)
    out[i] = 1.0 - _erf(x[i])
    for mask, num, den in (
        (~low & (x < 8.0), _ERFC_P, _ERFC_Q),
        ((x >= 8.0) & (x <= _ERFC_MAX_X), _ERFC_R, _ERFC_S),
    ):
        i = np.flatnonzero(mask)
        t = x[i]
        out[i] = np.exp(-t * t) * _horner(t, num) / _horner(t, den)
    return out


def _ndtr(x):
    """Phi at each entry of the array x, with the branches of cephes ndtr:
    1/2 + erf/2 near zero and erfc of |x|/sqrt(2) in the tails, where 1 - Phi
    or Phi is small. Each branch is evaluated on its own entries only."""
    z = x * _SQRT_HALF
    out = np.empty_like(z)
    near = np.abs(z) < _SQRT_HALF
    i = np.flatnonzero(near)
    out[i] = 0.5 + 0.5 * _erf(z[i])
    i = np.flatnonzero(~near)
    zt = z[i]
    tail = 0.5 * _erfc(np.abs(zt))
    out[i] = np.where(zt > 0.0, 1.0 - tail, tail)
    return out


def _ndtri(p):
    """Phi^-1 at each entry of the array p in (0, 1): Wichura's AS241
    (PPND16), relative error about 1e-16. Each branch is evaluated on its
    own entries only."""
    q = p - 0.5
    out = np.empty_like(q)
    central = np.abs(q) <= 0.425
    i = np.flatnonzero(central)
    qc = q[i]
    r = 0.180625 - qc * qc
    out[i] = qc * _horner(r, _AS241_A) / _horner(r, _AS241_B)
    i = np.flatnonzero(~central)
    pt = p[i]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    near = r <= 5.0
    j, k = np.flatnonzero(near), np.flatnonzero(~near)
    rn, rf = r[j] - 1.6, r[k] - 5.0
    r[j] = _horner(rn, _AS241_C) / _horner(rn, _AS241_D)
    r[k] = _horner(rf, _AS241_E) / _horner(rf, _AS241_F)
    out[i] = np.copysign(r, q[i])
    return out


def _genz_values(factor, a, b, groups, w, first):
    """Genz's separation-of-variables integrand at the points w in [0, 1]^(q-1);
    groups[i] lists the rows that end in column i, with positive coefficients;
    first = (lo, hi), the Phi values of the first coordinate's interval (center 0)."""
    m, q = w.shape[0], len(groups)
    ys = np.empty((m, q - 1))
    lo, hi = first
    f = np.full(m, max(hi - lo, 0.0))
    for i in range(1, q):
        ys[:, i - 1] = _ndtri(np.clip(lo + w[:, i - 1] * (hi - lo), 1e-16, 1.0 - 1e-16))
        rows = groups[i]
        if rows.size == 1:
            r = rows[0]
            center = ys[:, :i] @ factor[r, :i]
            # an infinite bound has Phi 0 or 1 exactly
            lo = 0.0 if a[r] == -np.inf else _ndtr((a[r] - center) / factor[r, i])
            hi = 1.0 if b[r] == np.inf else _ndtr((b[r] - center) / factor[r, i])
        else:
            center = ys[:, :i] @ factor[rows, :i].T
            lo = _ndtr(np.max((a[rows] - center) / factor[rows, i], axis=1))
            hi = _ndtr(np.min((b[rows] - center) / factor[rows, i], axis=1))
        f *= np.maximum(hi - lo, 0.0)
    return f
