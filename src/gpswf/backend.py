"""Numerical kernels: symmetric tridiagonal eigenvalues, Clenshaw evaluation
of Jacobi series, and Bessel J ladders.

Every kernel has this one NumPy implementation.  All tridiagonal eigenvalue
work in the package (basis ``chi_n`` and Gauss-rule nodes) goes through
:func:`tridiag_eig`, which is LAPACK through ``numpy.linalg``; no kernel
computes eigenvectors.

:func:`bessel_ladder` gives the Bessel orders ``nu0 + j`` at one argument;
:func:`bessel_ladders` gives them at many.  Arguments in the upward regime
share one vectorised recurrence, the rest go through the scalar Miller
ladder, and each row of the batch is bitwise equal to the scalar ladder at
its argument: the start values are the same scalar Hankel sums and every
recurrence step is the same pair of IEEE operations on each argument.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "python"


def tridiag_eig(diag, offdiag):
    """Ascending eigenvalues of a symmetric tridiagonal matrix (LAPACK
    ``syevd`` on the dense lower triangle)."""
    d = np.asarray(diag, dtype=float)
    a = np.diag(d)
    i = np.arange(d.size - 1)
    a[i + 1, i] = offdiag  # eigvalsh reads the lower triangle only
    return np.linalg.eigvalsh(a)


def jacobi_series(coef, rec, p0, x, nderiv=0):
    """Clenshaw evaluation of ``sum_k coef[k] * Jt_k(x)`` and derivatives.

    ``Jt_k`` are the orthonormal symmetric-Jacobi polynomials with three-term
    recurrence ``x Jt_k = rec[k+1] Jt_{k+1} + rec[k] Jt_{k-1}`` and
    ``Jt_0 = p0``.  ``rec`` must have length ``>= len(coef) + 2``.  Derivative
    sums (``nderiv`` up to 2) come from differentiating the Clenshaw
    recurrence, not from finite differences.

    Returns an array of shape ``(nderiv + 1, len(x))``.
    """
    coef = np.asarray(coef, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = coef.size
    npts = x.size
    out = np.zeros((nderiv + 1, npts))
    if m == 0:
        return out
    u1 = np.zeros(npts)
    u2 = np.zeros(npts)
    d1_1 = np.zeros(npts)
    d1_2 = np.zeros(npts)
    d2_1 = np.zeros(npts)
    d2_2 = np.zeros(npts)
    for k in range(m - 1, -1, -1):
        inv_a = 1.0 / rec[k + 1]
        ratio = rec[k + 1] / rec[k + 2]
        u0 = coef[k] + x * u1 * inv_a - ratio * u2
        if nderiv >= 1:
            d1_0 = (u1 + x * d1_1) * inv_a - ratio * d1_2
        if nderiv >= 2:
            d2_0 = (2.0 * d1_1 + x * d2_1) * inv_a - ratio * d2_2
        u2 = u1
        u1 = u0
        if nderiv >= 1:
            d1_2 = d1_1
            d1_1 = d1_0
        if nderiv >= 2:
            d2_2 = d2_1
            d2_1 = d2_0
    out[0] = u1 * p0
    if nderiv >= 1:
        out[1] = d1_1 * p0
    if nderiv >= 2:
        out[2] = d2_1 * p0
    return out


# 2*pi to 60 decimal digits; exact rational arithmetic below makes the
# reduction error independent of the size of x.
_TWO_PI = Fraction(
    "6.283185307179586476925286766559005768394338798750211641949889185"
)


@lru_cache(maxsize=4096)
def _reduce_mod_2pi(x: float) -> float:
    """Return x mod 2*pi with absolute error ~1 ulp regardless of |x|."""
    return float(Fraction(x) % _TWO_PI)


# ---------------------------------------------------------------------------
# Bessel J ladders.
#
# bessel_ladder(nu0, count, x) returns J_{nu0 + j}(x), j = 0..count-1, for
# a base order nu0 in [-0.5, 0.5).  Two regimes:
#   * Miller backward recurrence, normalized by the Neumann-type sum
#     (x/2)^nu = sum_k (nu + 2k) Gamma(nu + k) / k!  J_{nu+2k}(x),
#     used whenever the top order is comparable to x or x is moderate;
#   * Hankel asymptotics at the two bottom orders followed by upward
#     recurrence, used when x is large and all orders sit well below x
#     (upward recurrence is stable in the oscillatory regime).
# ---------------------------------------------------------------------------

_RESCALE = 2.0 ** 600
_RESCALE_LOG2 = 600
_MILLER_X_MAX = 370.0


def _hankel_j(nu, x):
    """Large-argument asymptotic J_nu(x); needs x >> nu^2 (small nu here)."""
    mu = 4.0 * nu * nu
    inv8x = 0.125 / x
    p = 1.0
    q = 0.0
    term = 1.0
    sign = 1.0
    prev = math.inf
    k = 1
    while k <= 40:
        term *= (mu - (2 * k - 1) ** 2) * inv8x / k
        if abs(term) > prev:
            break  # asymptotic series started diverging; stop at smallest term
        prev = abs(term)
        if k % 2 == 1:
            q += sign * term
        else:
            sign = -sign
            p += sign * term
        if abs(term) < 1e-18:
            break
        k += 1
    omega = _reduce_mod_2pi(x) - (0.5 * nu + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(omega) - q * math.sin(omega))


def _ladder_miller(nu0, count, x):
    nu_top = max(float(count + 1), 1.02 * x - nu0)
    jtop = int(math.ceil(nu_top + 12.0 * math.sqrt(x + 1.0) + 32.0))
    out = np.zeros(count)
    outexp = np.zeros(count, dtype=np.int64)
    vp1 = 0.0          # order nu0 + j + 1
    v = 1e-30          # order nu0 + j
    scale_count = 0
    neumann = 0.0
    lg_nu0p1 = math.lgamma(nu0 + 1.0)
    for j in range(jtop, -1, -1):
        if j < count:
            out[j] = v
            outexp[j] = scale_count
        if j % 2 == 0:
            k = j // 2
            if k == 0:
                cf = math.exp(lg_nu0p1)
            else:
                cf = (nu0 + j) * math.exp(math.lgamma(nu0 + k) - math.lgamma(k + 1.0))
            neumann += cf * v
        if j > 0:
            vm1 = (2.0 * (nu0 + j) / x) * v - vp1
            vp1 = v
            v = vm1
            if abs(v) > _RESCALE:
                v /= _RESCALE
                vp1 /= _RESCALE
                neumann /= _RESCALE
                scale_count += 1
    # sum_k cf_k J_{nu0+2k}(x) = (x/2)^nu0, so J_{nu0+j} = out[j]/neumann
    # * (x/2)^nu0, with the scale bookkeeping folded in through log space.
    log_norm = nu0 * math.log(0.5 * x) - math.log(abs(neumann))
    sign_norm = math.copysign(1.0, neumann)
    ladder = np.zeros(count)
    for j in range(count):
        if out[j] == 0.0:
            continue
        t = (math.log(abs(out[j])) + log_norm
             + (outexp[j] - scale_count) * _RESCALE_LOG2 * math.log(2.0))
        if t < -745.0:
            continue
        ladder[j] = math.copysign(math.exp(t), out[j] * sign_norm)
    return ladder


def _ladder_upward(nu0, count, xs):
    """Ladders at an array of arguments in the upward regime, one row per
    order (shape (count, len(xs))), so each step is one contiguous vector op
    and every argument sees the same IEEE operations as it would alone."""
    lad = np.empty((count, xs.size))
    lad[0] = [_hankel_j(nu0, x) for x in xs.tolist()]
    if count > 1:
        lad[1] = [_hankel_j(nu0 + 1.0, x) for x in xs.tolist()]
        for j in range(2, count):
            lad[j] = (2.0 * (nu0 + j - 1) / xs) * lad[j - 1] - lad[j - 2]
    return lad


def _upward_regime(nu0, count, x):
    return x > _MILLER_X_MAX and not nu0 + count - 1 > 0.88 * x


def bessel_ladder(nu0, count, x):
    """J_{nu0+j}(x) for j = 0..count-1, nu0 in [-0.5, 0.5), x >= 0."""
    if x == 0.0:
        ladder = np.zeros(count)
        if nu0 == 0.0:
            ladder[0] = 1.0
        return ladder
    if not _upward_regime(nu0, count, x):
        return _ladder_miller(nu0, count, x)
    return _ladder_upward(nu0, count, np.array([x]))[:, 0]


def bessel_ladders(nu0, count, x):
    """J_{nu0+j}(x_i) as an array of shape (len(x), count); row i is bitwise
    equal to ``bessel_ladder(nu0, count, x_i)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, count))
    up = np.array([_upward_regime(nu0, count, xi) for xi in x.tolist()], dtype=bool)
    for i in np.flatnonzero(~up):
        out[i] = bessel_ladder(nu0, count, float(x[i]))
    if up.any():
        out[up] = _ladder_upward(nu0, count, x[up]).T
    return out
