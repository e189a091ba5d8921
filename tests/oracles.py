"""Independent reference computations that the tests compare the library
against.  pytest does not collect this file; test modules ``import oracles``.

* The concentration operator (c / 2 pi) F* F applied by quadrature: the
  route to lambda_n that does not go through mu_n and the boundary identity.
* d chi_n / dc from a central finite difference of chi_n over two extra
  bases, against the exact moment 2c int x^2 psi_n^2 w_a.
* The norm of a cosine series from the two direct O(K^2) products, and the
  sup error of a projection from the N x 2001 psi table on the sup grid:
  the forms the library's FFT norm and one-series sup error replaced.
* The exact wm norm summed pair by pair in a Python loop over lists, each
  row's transforms computed afresh: the form that the library's pair table
  and blocked running sum replaced.
* The one-argument Hankel sum with ``math.cos`` and ``math.sin``: the
  form the array Hankel start replaced.
* The one-argument start order of the Miller recurrence in ``math``: the
  form the array start orders replaced.
* The transform of one psi_n at one argument from ``math.fsum`` over a
  list of its terms: the per-n form that ``backend.fsum_rows`` replaced.
* psi_n's coefficients scattered over all Jacobi indices, zero off its
  parity: the layout that the library's per-parity sums replaced.
* The eigenvector march and splice of one parity block, with int64
  exponents: the form that the library's march of both blocks at once
  replaced.

The other former implementations are gone: ``tests/golden/`` pins their
inputs' outputs by sha256.
"""

import math
from dataclasses import dataclass

import numpy as np

from gpswf import approx, backend, specfun, spectral
from gpswf.basis import build_basis, moment_b


def concentration_kernel(alpha, u):
    """K_a(u) = sqrt(pi) 2^(a+1/2) Gamma(a+1) J_{a+1/2}(u) / u^(a+1/2).

    Even and entire in u; the removable singularity at u = 0 is evaluated by
    the ascending series.
    """
    u = np.abs(np.atleast_1d(np.asarray(u, dtype=float)))
    out = np.empty_like(u)
    pref = math.sqrt(math.pi) * math.exp((alpha + 0.5) * math.log(2.0)
                                         + specfun.ln_gamma(alpha + 1.0))
    small = u <= 12.0
    if np.any(small):
        us = u[small]
        # J_nu(u)/u^nu = sum_m (-1)^m u^(2m) / (2^(2m+nu) m! Gamma(m+nu+1))
        term = np.full(us.shape,
                       math.exp(-(alpha + 0.5) * math.log(2.0)
                                - specfun.ln_gamma(alpha + 1.5)))
        acc = term.copy()
        u2 = us * us
        for m in range(1, 60):
            term = -term * u2 / (4.0 * m * (m + alpha + 0.5))
            acc += term
            if np.max(np.abs(term)) < 1e-18:
                break
        out[small] = pref * acc
    if np.any(~small):
        idx = np.nonzero(~small)[0]
        nu = alpha + 0.5
        jv = specfun.bessel_j(nu, u[idx])
        for i, j in zip(idx, jv):
            out[i] = pref * j / u[i] ** nu
    return out


def apply_concentration(alpha, c, rule, values):
    """Apply (c/2pi) * the kernel integral operator to samples on a rule."""
    diff = c * (rule.nodes[:, None] - rule.nodes[None, :])
    kmat = concentration_kernel(alpha, diff.ravel()).reshape(diff.shape)
    return (c / (2.0 * math.pi)) * kmat @ (rule.weights * values)


@dataclass(frozen=True)
class DchiDcRecord:
    analytic: float
    finite_diff: float


def dchi_dc(alpha, c, n, h=None, nmax=None):
    """d chi_n / dc: analytic moment value 2c * int x^2 psi_n^2 w_a dx versus
    a central finite difference of chi_n(c +/- h) from fresh bases."""
    if h is None:
        h = 1e-4 * c
    if nmax is None:
        nmax = n + 1
    b0 = build_basis(alpha, c, nmax)
    analytic = 2.0 * c * moment_b(b0, n)
    bp = build_basis(alpha, c + h, nmax)
    bm = build_basis(alpha, c - h, nmax)
    fd = (float(bp.chi[n]) - float(bm.chi[n])) / (2.0 * h)
    return DchiDcRecord(analytic=analytic, finite_diff=fd)


def _cos_transform_table(alpha, K):
    """W(j pi), j = 0..2K, from one ``approx._cos_transforms`` call."""
    return approx._cos_transforms(alpha, np.arange(2 * K + 1) * math.pi)


def cosine_series_norm2(alpha, weighted_amplitudes):
    """||sum_k y_k cos(k pi x)||^2 in L2(w_a), via exact cosine transforms:
    <cos(j pi .), cos(k pi .)>_w = (W(|j-k| pi) + W((j+k) pi)) / 2."""
    y = np.asarray(weighted_amplitudes, dtype=float)
    K = y.size
    w = _cos_transform_table(alpha, K)
    auto = np.correlate(y, y, mode="full")  # lags -(K-1)..K-1
    w_diff = w[:K]
    norm2 = 0.5 * float(auto[K - 1] * w_diff[0]
                        + 2.0 * np.dot(auto[K:], w_diff[1:]))
    w_sum = w[2:]
    pair = np.convolve(y, y, mode="full")  # index d holds sum_{j+k=d+2} y y
    norm2 += 0.5 * float(np.dot(pair, w_sum))
    return norm2


def cosine_series_norm2_three_ffts(alpha, weighted_amplitudes):
    """The form the one-FFT ``approx.cosine_series_norm2`` replaced: the
    autocorrelation and the self-convolution of y from the inverse FFTs of
    |Y|^2 and Y^2, Y the zero-padded real FFT of length L >= 2K - 1, then
    dotted with W(|j-k| pi) and W((j+k) pi)."""
    y = np.asarray(weighted_amplitudes, dtype=float)
    K = y.size
    w = _cos_transform_table(alpha, K)
    L = 1 << (2 * K - 2).bit_length()
    Y = np.fft.rfft(y, L)
    auto = np.fft.irfft(Y * Y.conj(), L)[:K]  # lags 0..K-1
    norm2 = 0.5 * float(auto[0] * w[0] + 2.0 * np.dot(auto[1:], w[1:K]))
    pair = np.fft.irfft(Y * Y, L)[:2 * K - 1]  # index d holds sum_{j+k=d+2} y y
    norm2 += 0.5 * float(np.dot(pair, w[2:]))
    return norm2


def wm_l2_norm_squared(alpha, s, lam, K):
    """||M_{s,lam}||^2 in L2(w_a) for K terms: one add per pair i <= j < K
    in row order, (1 or 2) amps_i amps_j P[i, j] from Python floats, with
    each row's transforms from one ``approx._cos_transforms`` call over its
    own pair arguments, not from the library's pair table."""
    freqs = lam ** np.arange(K)
    amps = (lam ** (-(2.0 - s) * np.arange(K))).tolist()
    total = 0.0
    for i in range(K):
        row = freqs[i:]
        w = approx._cos_transforms(alpha, np.concatenate([np.abs(freqs[i] - row),
                                                          freqs[i] + row]))
        prods = (0.5 * (w[:row.size] - w[row.size:])).tolist()
        for j, p in enumerate(prods, start=i):
            total += (1.0 if i == j else 2.0) * amps[i] * amps[j] * p
    return total


def full_coefficients(basis, n):
    """The coefficients of psi_n over all Jacobi indices k = 0..2 trunc - 1,
    ``beta[n]`` on the parity of n and 0 off it: a vector for one n, one row
    per n for a sequence."""
    ns = basis._check_index(n)
    rows = np.zeros((ns.size, 2 * basis.trunc))
    for row, m in zip(rows, ns.tolist()):
        row[m % 2::2] = basis.beta[m]
    return rows[0] if np.ndim(n) == 0 else rows


def sup_error_table(basis, f, coeffs):
    """max |f - sum_n coeffs_n psi_n| on the sup grid, from the psi table."""
    grid = approx._SUP_GRID
    return float(np.max(np.abs(f(grid)
                               - coeffs @ basis.psi_table(grid, range(coeffs.size)))))


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
    theta = (0.5 * nu + 0.25) * math.pi
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cos_w = math.cos(x) * cos_t + math.sin(x) * sin_t
    sin_w = math.sin(x) * cos_t - math.cos(x) * sin_t
    return math.sqrt(2.0 / math.pi / x) * (p * cos_w - q * sin_w)


def miller_top(nu0, count, x):
    """Start order of the backward recurrence at one argument x, in Python
    floats and ``math``."""
    nu_top = max(float(count + 1), 1.02 * x - nu0)
    return int(math.ceil(nu_top + 12.0 * math.sqrt(x + 1.0) + 32.0))


def fc_sum(terms, parity):
    """The transform value from its terms (``coef * t``) for a coefficient
    vector of the given parity.  The terms alternate in sign and their peak
    can tower over the sum, so the reduction is exactly rounded; the error
    left is the roundoff of the terms themselves, about eps * max |term|.
    ``math.fsum`` reads a list of floats about twice as fast as an array row,
    and its exactly rounded value is the same either way."""
    total = math.fsum(terms)
    return 1j * total if parity else complex(total)


def fc_series(alpha, row, parity, u):
    """int e^{iuy} psi(y) w_a(y) dy for psi = sum_i row_i Jt_{2i+parity} (a
    row of a basis's beta) and u > 0; see :func:`fc_sum`, whose exactly
    rounded sum makes this the value over all Jacobi indices bit for bit."""
    terms = spectral._fc_terms(alpha, 2 * row.size - 1, u)
    return fc_sum((row * terms[parity::2]).tolist(), parity)


def march_one_parity(tri, lam):
    """Both directions of the three-term recurrence of ``(T - lam) v = 0``
    for one tridiagonal block ``tri``, as one march over a state of shape
    (2, len(lam)).  Returns mantissas and int64 exponents, ``v = mant *
    2**(600 * exp)``, of shape (m, 2, len(lam)): ``[:, 0]`` marched down
    from ``v[-1] = 1`` by row, ``[::-1, 1]`` up from ``v[0] = 1``."""
    d, e = tri.diag, tri.offdiag
    lower = np.concatenate([[0.0], e])   # coefficient of v[i-1] in row i
    upper = np.concatenate([e, [0.0]])   # coefficient of v[i+1] in row i
    m = d.size
    dd = np.stack([d, d[::-1]], axis=1)[:, :, None]
    near = np.stack([upper, lower[::-1]], axis=1)[:, :, None]
    far = np.stack([lower, upper[::-1]], axis=1)[:, :, None]
    mant = np.empty((m, 2, lam.size))
    expo = np.zeros((m, 2, lam.size), dtype=np.int64)
    v_next = np.zeros((2, lam.size))
    mant[m - 1] = 1.0
    v = mant[m - 1]
    scale = np.zeros((2, lam.size), dtype=np.int64)
    t = np.empty((2, lam.size))
    w = np.empty((2, lam.size))
    for i in range(m - 1, 0, -1):
        np.subtract(lam, dd[i], out=t)
        t *= v
        np.multiply(near[i], v_next, out=w)
        t -= w
        v, v_next = np.divide(t, far[i], out=mant[i - 1]), v
        np.abs(v, out=w)
        if np.maximum.reduce(w, axis=None, initial=0.0) > backend._RESCALE:
            big = w > backend._RESCALE
            v[big] /= backend._RESCALE
            v_next = np.where(big, v_next / backend._RESCALE, v_next)
            scale[big] += 1
        expo[i - 1] = scale
    return mant, expo


def recurrence_vectors_one_parity(tri, lam):
    """Unit eigenvectors of one tridiagonal block for the eigenvalues
    ``lam``, as columns: :func:`march_one_parity` spliced at the largest row
    whose predecessor is no larger than it, then normalized."""
    m = tri.diag.size
    mant, expo = march_one_parity(tri, lam)
    b_mant, b_exp = mant[:, 0], expo[:, 0]
    f_mant, f_exp = mant[::-1, 1], expo[::-1, 1]
    with np.errstate(divide="ignore"):
        size = np.log2(np.abs(b_mant)) + backend._RESCALE_LOG2 * b_exp
    flat = size[:-1] <= size[1:]
    last = m - 2 - np.argmax(flat[::-1], axis=0)
    peak = np.where(flat.any(axis=0), last + 1, 0)
    cols = np.arange(lam.size)
    below = np.arange(m)[:, None] < peak
    mant = np.where(below, f_mant / f_mant[peak, cols], b_mant / b_mant[peak, cols])
    expo = np.where(below, f_exp - f_exp[peak, cols], b_exp - b_exp[peak, cols])
    z = np.ldexp(mant, (backend._RESCALE_LOG2 * expo).astype(np.int32))
    return z / np.linalg.norm(z, axis=0)
