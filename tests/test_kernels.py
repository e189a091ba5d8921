"""Eigenvectors of the coefficient eigensystem: orthogonality, and agreement
with a 60-digit mpmath oracle entry by entry and in the transform eigenvalue
mu_n of the boundary identity; the transform terms at the smallest
arguments against the same oracle; and the exactly rounded row sums of
``backend.fsum_rows`` against ``math.fsum``, bit for bit."""

import math
import re
import sys

import mpmath as mp
import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpswf import backend
from gpswf import basis as B
from gpswf import spectral as S


@pytest.mark.parametrize("alpha,c,nmax", [(0.0, math.pi, 20), (0.5, 30.0, 61),
                                          (1.5, 10.0, 30), (2.5, 20 * math.pi, 90)])
def test_per_parity_orthogonality(alpha, c, nmax):
    b = B.build_basis(alpha, c, nmax)
    for parity in (0, 1):
        z = np.stack([b.beta[n] for n in range(parity, nmax, 2)], axis=1)
        assert np.max(np.abs(z.T @ z - np.eye(z.shape[1]))) <= 1e-12


# ---------------------------------------------------------------------------
# Oracle: the coefficient system assembled in 60-digit arithmetic from the
# closed-form recurrence coefficients, solved by two Rayleigh-quotient
# iterations and four inverse iterations at the converged shift.  The float
# chi_n only seeds the shift; an inertia count confirms that the iteration
# found the eigenvalue of index n.  The LU solves of a tridiagonal are
# componentwise backward stable, so the tiny tail entries come out with full
# relative accuracy.  mu_n follows from the vector by the boundary identity
# of spectral._mu_from_boundary, with Jt_k(0) and Jt_k'(0) from the same
# recurrence.
# ---------------------------------------------------------------------------

def _mp_a2(alpha, k):
    """Square of the orthonormal-Jacobi recurrence coefficient a_k."""
    if k == 0:
        return mp.mpf(0)
    return k * (k + 2 * alpha) / ((2 * k + 2 * alpha + 1) * (2 * k + 2 * alpha - 1))


def _mp_system(alpha, c, m, parity):
    alpha, c = mp.mpf(alpha), mp.mpf(c)
    ks = [2 * i + parity for i in range(m)]
    d = [k * (k + 2 * alpha + 1) + c * c * (_mp_a2(alpha, k) + _mp_a2(alpha, k + 1))
         for k in ks]
    e = [c * c * mp.sqrt(_mp_a2(alpha, k + 1) * _mp_a2(alpha, k + 2)) for k in ks[:-1]]
    return d, e


def _mp_factor(d, e, s):
    """LU of T - s: pivots and sub-diagonal multipliers."""
    piv, mult = [d[0] - s], []
    for i in range(1, len(d)):
        mult.append(e[i - 1] / piv[-1])
        piv.append(d[i] - s - mult[-1] * e[i - 1])
    return piv, mult


def _mp_solve(e, lu, b):
    piv, mult = lu
    y = [b[0]]
    for i in range(1, len(b)):
        y.append(b[i] - mult[i - 1] * y[-1])
    x = [y[-1] / piv[-1]]
    for i in range(len(b) - 2, -1, -1):
        x.append((y[i] - e[i] * x[-1]) / piv[i])
    return x[::-1]


def _mp_rayleigh(d, e, x):
    off = [x[i] * x[i + 1] for i in range(len(e))]
    return (mp.fdot(d, [v * v for v in x]) + 2 * mp.fdot(e, off)) / mp.fdot(x, x)


def _mp_eigpair(d, e, guess):
    s = mp.mpf(guess)
    x = [mp.mpf(1)] * len(d)
    for _ in range(2):
        x = _mp_solve(e, _mp_factor(d, e, s), x)
        s = _mp_rayleigh(d, e, x)
    lu = _mp_factor(d, e, s)
    for _ in range(4):
        x = _mp_solve(e, lu, x)
    norm = mp.sqrt(mp.fdot(x, x))
    return s, [v / norm for v in x]


def _mp_jacobi_at_zero(alpha, m, sqrt_m0):
    """Jt_k(0) and Jt_k'(0) for k < m, from x Jt_k = a_{k+1} Jt_{k+1} + a_k Jt_{k-1}
    and its derivative at x = 0."""
    a = [mp.sqrt(_mp_a2(mp.mpf(alpha), k)) for k in range(m)]
    val, der = [1 / sqrt_m0, mp.mpf(0)], [mp.mpf(0), 1 / (a[1] * sqrt_m0)]
    for k in range(1, m - 1):
        val.append(-a[k] * val[k - 1] / a[k + 1])
        der.append((val[k] - a[k] * der[k - 1]) / a[k + 1])
    return val, der


def test_eigenpairs_match_mpmath_oracle():
    alpha, c, nmax = 0.5, 30.0, 61
    b = B.build_basis(alpha, c, nmax)
    with mp.workdps(60):
        sqrt_m0 = mp.sqrt(mp.sqrt(mp.pi) * mp.gamma(mp.mpf(alpha) + 1)
                          / mp.gamma(mp.mpf(alpha) + mp.mpf(1.5)))
        val0, der0 = _mp_jacobi_at_zero(alpha, 2 * b.trunc, sqrt_m0)
        a1 = mp.sqrt(_mp_a2(mp.mpf(alpha), 1))
        for parity in (0, 1):
            d, e = _mp_system(alpha, c, b.trunc, parity)
            for n in range(parity, nmax, 2):
                chi, vec = _mp_eigpair(d, e, b.chi[n])
                # Sylvester inertia: exactly n // 2 eigenvalues lie below chi
                lu = _mp_factor(d, e, chi * (1 - mp.mpf(10) ** -40))
                assert sum(p < 0 for p in lu[0]) == n // 2, n
                assert abs(b.chi[n] - float(chi)) <= 1e-13 * float(chi), n
                ref = np.array([float(v) for v in vec])
                mine = b.beta[n]
                peak = int(np.argmax(np.abs(ref)))
                ref *= math.copysign(1.0, ref[peak] * mine[peak])
                keep = np.abs(ref) >= 1e-250
                rel = np.abs(mine[keep] - ref[keep]) / np.abs(ref[keep])
                assert np.max(rel) <= 1e-11, (n, float(np.max(rel)))
                # even n: mu psi(0) = beta_0 sqrt(m0); odd n: mu psi'(0) =
                # i c a_1 beta_1 sqrt(m0); the sign of the vector cancels
                if parity == 0:
                    mu = vec[0] * sqrt_m0 / mp.fdot(vec, val0[0::2])
                else:
                    mu = (mp.mpc(0, 1) * c * a1 * vec[0] * sqrt_m0
                          / mp.fdot(vec, der0[1::2]))
                mu = complex(mu)
                got = S._mu_from_boundary(b, n, b.psi(n, [0.0], 1)[:, 0])
                assert abs(got - mu) <= 1e-12 * abs(mu), (n, abs(got - mu) / abs(mu))


def _mp_jacobi_at(alpha, m, sqrt_m0, x):
    """Jt_k(x) for k < m, from x Jt_k = a_{k+1} Jt_{k+1} + a_k Jt_{k-1}."""
    a = [mp.sqrt(_mp_a2(mp.mpf(alpha), k)) for k in range(m)]
    val = [1 / sqrt_m0, x / (a[1] * sqrt_m0)]
    for k in range(1, m - 1):
        val.append((x * val[k] - a[k] * val[k - 1]) / a[k + 1])
    return val


def _mp_fc_jacobi(alpha, k, u):
    """(F_c Jt_k)(x) at u = c x > 0: i^k sqrt(pi) (2/u)^(a+1/2)
    G(k+a+1) / (k! sqrt(h_k)) J_{k+a+1/2}(u)."""
    alpha = mp.mpf(alpha)
    h = (2 ** (2 * alpha + 1) * mp.gamma(k + alpha + 1) ** 2
         / (mp.factorial(k) * (2 * k + 2 * alpha + 1) * mp.gamma(k + 2 * alpha + 1)))
    return (mp.mpc(0, 1) ** k * mp.sqrt(mp.pi) * (2 / u) ** (alpha + mp.mpf(0.5))
            * mp.gamma(k + alpha + 1) / (mp.factorial(k) * mp.sqrt(h))
            * mp.besselj(k + alpha + mp.mpf(0.5), u))


def test_deep_n_mu_matches_mpmath_transform_ratio():
    # mu at the deepest even and odd n as (F_c psi_n)(x) / psi_n(x) at the
    # best-conditioned probe candidate, all in 60 digits: independent of the
    # boundary identity and of the float Bessel and Jacobi ladders
    alpha, c, nmax = 0.5, 10.0, 120
    b = B.build_basis(alpha, c, nmax)
    entries = S.compute_spectrum(b)
    with mp.workdps(60):
        sqrt_m0 = mp.sqrt(mp.sqrt(mp.pi) * mp.gamma(mp.mpf(alpha) + 1)
                          / mp.gamma(mp.mpf(alpha) + mp.mpf(1.5)))
        for n in (nmax - 2, nmax - 1):
            parity = n % 2
            d, e = _mp_system(alpha, c, b.trunc, parity)
            chi, vec = _mp_eigpair(d, e, b.chi[n])
            assert abs(b.chi[n] - float(chi)) <= 1e-13 * float(chi), n
            # the candidate the library ranks first
            coef = oracles.full_coefficients(b, n)
            floors = [float(np.max(np.abs(coef * S._fc_terms(alpha, coef.size - 1, c * x))))
                      / abs(v) for x, v in zip(S._PROBE_X, b.psi(n, S._PROBE_X, 0)[0])]
            x = mp.mpf(float(S._PROBE_X[int(np.argmin(floors))]))
            ks = range(parity, 2 * b.trunc, 2)
            psi = mp.fdot(vec, _mp_jacobi_at(alpha, 2 * b.trunc, sqrt_m0, x)[parity::2])
            image = mp.fsum(v * _mp_fc_jacobi(alpha, k, c * x) for v, k in zip(vec, ks))
            mu = complex(image / psi)
            got = entries[n].mu_abs * entries[n].mu_phase
            assert abs(got - mu) <= 1e-12 * abs(mu), (n, abs(got - mu) / abs(mu))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.5])
@pytest.mark.parametrize("u", [1e-300, 1e-150, 1e-20, 1e-9])
def test_small_argument_terms_against_mpmath(alpha, u):
    # at u <= backend._SMALL_X each term is s_k gamma_k sqrt(pi) (u/2)^k /
    # Gamma(k + a + 3/2), with no Bessel factor to underflow: within 16 eps
    # of the closed form, and 0 only where that is below the smallest
    # subnormal (measured: at most 6.9 eps)
    assert u <= backend._SMALL_X
    with mp.workdps(40):
        for k in range(5):
            ref = complex(_mp_fc_jacobi(alpha, k, mp.mpf(u)))
            got = S.fc_on_jacobi(alpha, 2.0 * u, k, 0.5)
            assert abs(got - ref) <= 16 * np.finfo(float).eps * abs(ref), (k, got, ref)
            assert (got == 0.0) == (ref == 0.0)


def _mp_term_rows(alpha, kmax, us):
    """(t_k(u), J_{k+a+1/2}(u)) for k = 0..kmax, one row per u, in 60 digits:
    t_k = s_k sqrt(pi) (2/u)^(a+1/2) gamma_k J_{k+a+1/2}(u), with gamma_k^2 =
    (2k + 2a + 1) Gamma(k + 2a + 1) / (k! 2^(2a+1))."""
    with mp.workdps(60):
        a = mp.mpf(alpha)
        pre = [(-1 if k % 4 >= 2 else 1) * mp.sqrt(mp.pi * (2 * k + 2 * a + 1)
                                                   * mp.gamma(k + 2 * a + 1)
                                                   / (mp.factorial(k) * 2 ** (2 * a + 1)))
               for k in range(kmax + 1)]
        rows = []
        for u in map(mp.mpf, us):
            bessel = [mp.besselj(k + a + mp.mpf(0.5), u) for k in range(kmax + 1)]
            rows.append([(p * (2 / u) ** (a + mp.mpf(0.5)) * j, j) for p, j in zip(pre, bessel)])
        return rows


_TINY_U = (1e-300, 1e-150, 1e-8, 2e-8)


@pytest.mark.parametrize("alpha,kmax,us,tol,lost", [
    # the c = 5 probes of the cells past alpha 90; at alpha 130 the
    # prefactor (2/u)^(a+1/2) also passes the largest double
    (98.3, 89, tuple(5.0 * S._PROBE_X), 128, 1907),
    (130.0, 53, tuple(5.0 * S._PROBE_X), 128, 1364),
    (0.0, 20, _TINY_U, 8, 2), (0.5, 20, _TINY_U, 8, 2), (2.5, 20, _TINY_U, 8, 5),
    (130.0, 20, _TINY_U, 128, 47)])
def test_terms_against_mpmath(alpha, kmax, us, tol, lost):
    # each term within tol ulps, an ulp taken at the smallest normal exponent
    # below it, so a term is 0 or subnormal only where t_k is; ``lost`` terms
    # are normal doubles whose Bessel factor is not (measured worst: 82 ulps
    # at 98.3, from the orders nu0 + j rounded in the recurrence, 66 and 49
    # at 130, at most 6.2 at alpha <= 2.5)
    rows = S._fc_term_rows(alpha, kmax, us)
    with mp.workdps(60):
        tiny = mp.ldexp(1, -1022)
        refs = _mp_term_rows(alpha, kmax, us)
        for got, ref in zip(rows.tolist(), refs):
            for g, (t, _) in zip(got, ref):
                ulp = mp.ldexp(1, max(int(mp.floor(mp.log(abs(t), 2))), -1022) - 52)
                assert abs(g - t) <= tol * ulp, (g, t)
        assert sum(abs(j) < tiny <= abs(t) for row in refs for t, j in row) == lost


# ---------------------------------------------------------------------------
# backend.fsum_rows: each row's sum bit for bit math.fsum's, and the same
# exception.  The rows are drawn by kind; numpy fills them from a drawn seed,
# so a row of 300 costs one draw.
# ---------------------------------------------------------------------------

_MAX = sys.float_info.max


def _spread(rng, size, lo, hi):
    """Random signs and mantissas times 2^e, e uniform in [lo, hi]."""
    return np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(lo, hi + 1, size))


def _tie(rng):
    """b plus half of one of its gaps (a tie, the lower one half the upper
    at a power of two), and maybe a tiny term of either sign that breaks it."""
    b = float(_spread(rng, 1, -1000, 1000)[0])
    if rng.random() < 0.5:
        b = math.copysign(2.0 ** math.frexp(b)[1], b)
    up = rng.random() < 0.5
    half = 0.5 * abs(math.nextafter(b, math.inf if up else -math.inf) - b)
    core = [b, half if up else -half]
    if rng.random() < 0.7:
        core.append(math.copysign(math.ldexp(half, -int(rng.integers(50, 120))),
                                  rng.choice([-1.0, 1.0])))
    return core


def _row(kind, width, rng):
    if kind == "spread":
        lo = int(rng.integers(-1074, 1024))
        return _spread(rng, width, lo, int(rng.integers(lo, 1024)))
    if kind == "tie":
        core = _tie(rng)
    elif kind == "cancel":  # pairs x, -x, and maybe a subnormal or small rest
        xs = _spread(rng, width // 2, -1074, 1023)
        rest = [rng.choice([5e-324, -5e-324, 2.0 ** -1030, 1e-300, 1.0])] if width % 2 else []
        core = list(xs) + list(-xs) + rest
    elif kind == "zeros":
        return rng.choice([0.0, -0.0], width)
    elif kind == "special":  # inf, -inf or nan in a finite row
        row = _spread(rng, width, -50, 50)
        row[rng.integers(0, width, 3)] = rng.choice([math.inf, -math.inf, math.nan], 3)
        return row
    else:  # overflow: entries near the largest double
        core = list(rng.choice([1.0, -1.0], width) * rng.uniform(0.3, 1.0, width) * _MAX)
    row = np.zeros(width)
    row[:min(width, len(core))] = core[:width]
    return rng.permutation(row)


@st.composite
def _sum_rows(draw):
    width = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = st.sampled_from(["spread", "tie", "cancel", "zeros", "special", "overflow"])
    return np.array([_row(draw(kinds), width, rng) for _ in range(draw(st.integers(1, 3)))])


_S = 2.0 ** -107 - 2.0 ** -159


@settings(max_examples=150, deadline=None)
@given(_sum_rows())
@example(np.array([[1.0, 2.0 ** -53]]))  # a tie, to even
@example(np.array([[1.0, -2.0 ** -54, -2.0 ** -130]]))  # below the tie under 1
@example(np.array([[2.0 ** 600, 2.0 ** 547, 2.0 ** 400], [3.0, -(2.0 ** -52), 0.0]]))
# lo = fl(sum e) misses the midpoint that sum e passes: only delta refuses it
@example(np.array([[1.5, 1.0, -1.0, 0.25, 2.0 ** -53 - 2.0 ** -106, _S, _S, _S]]))
@example(np.array([[0.0, -0.0], [-0.0, -0.0]]))
@example(np.array([[1e308, 1e308, -1e308], [1.0, math.inf, -math.inf], [math.nan, 1.0, 2.0]]))
# math.fsum overflows at a prefix sum that no subtree of the tree reaches
@example(np.array([[6e307, -6e307, 6e307, 6e307, 6e307, -6e307, -6e307, -6e307, 1.0]]))
@example(np.array([[5e-324, -1e-323, 2.0 ** -1022]]))
def test_fsum_rows_is_math_fsum(rows):
    try:
        want = np.array([math.fsum(row) for row in rows.tolist()])
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            backend.fsum_rows(rows)
    else:
        assert backend.fsum_rows(rows).tobytes() == want.tobytes()
