"""Independent reference computations that the tests compare the library
against.  pytest does not collect this file; test modules ``import oracles``.

* The concentration operator (c / 2 pi) F* F applied by quadrature: the
  route to lambda_n that does not go through mu_n and the boundary identity.
* d chi_n / dc from a central finite difference of chi_n over two extra
  bases, against the exact moment 2c int x^2 psi_n^2 w_a.
* The norm of a cosine series from the two direct O(K^2) products, and the
  sup error of a projection from the N x 2001 psi table on the sup grid:
  the forms the library's FFT norm and one-series sup error replaced.
* The one-argument Hankel sum with ``math.cos`` and ``math.sin``, and the
  Weierstrass-Mandelbrot coefficients from one memoised transform row per
  term: the forms the array Hankel start and the one-ladder WM rows
  replaced.
* The spectrum and the local estimate n by n: per-n probe floors, ranking
  and exact sums over array rows, the boundary and decay constants rebuilt
  for every n, and every local estimate from its own envelope and weight:
  the forms the one pass per basis replaced; and the coefficient bound
  verdict read from the full coefficient vector of psi_n.
* The Weierstrass-Mandelbrot norm from its own batched ladder per K, the
  WM term rows as one memoised entry per (lo, hi), and the cosine-transform
  table in 64-frequency batches: the forms that the pair transforms and
  term rows shared across s, and the 256-frequency batches, replaced.
* The eigenvector marches one direction at a time, and the forward Jacobi
  recurrence as whole-array steps at every point count: the forms that one
  march per parity, the Python-float one-point recurrence and the rows
  written in place replaced.  Both are kept word for word, so a test can
  hold the library to them byte for byte.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from gpswf import approx, backend, specfun, spectral
from gpswf.basis import (BetaBoundVerdict, LocalEstimateReport, _estimate_grid,
                         _improved_regime, beta_bound_constant, build_basis,
                         decay_regime_multiplier, moment_b)
from gpswf.errors import ConsistencyError
from gpswf.spectral import (_N_PROBES, _PROBE_TOL, _PROBE_X, DecayVerdict,
                            SpectrumEntry, _fc_term_rows, _log_lambda,
                            _log_mu, lambda_decay_constant, mu_decay_constant)


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


def cosine_series_norm2(alpha, weighted_amplitudes):
    """||sum_k y_k cos(k pi x)||^2 in L2(w_a), via exact cosine transforms:
    <cos(j pi .), cos(k pi .)>_w = (W(|j-k| pi) + W((j+k) pi)) / 2."""
    y = np.asarray(weighted_amplitudes, dtype=float)
    K = y.size
    w = approx._cos_transform_table(alpha, 2 * K)
    auto = np.correlate(y, y, mode="full")  # lags -(K-1)..K-1
    w_diff = w[:K]
    norm2 = 0.5 * float(auto[K - 1] * w_diff[0]
                        + 2.0 * np.dot(auto[K:], w_diff[1:]))
    w_sum = w[2:]
    pair = np.convolve(y, y, mode="full")  # index d holds sum_{j+k=d+2} y y
    norm2 += 0.5 * float(np.dot(pair, w_sum))
    return norm2


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
    return math.sqrt(2.0 / (math.pi * x)) * (p * cos_w - q * sin_w)


def wm_all_coefficients(basis, s, lam, N, K=None):
    """<M_{s,lam}, psi_n> for n < N; exact Bessel form, zero at even n.

    ``K`` terms of the series, by default ``wm_truncation(s, lam)`` like
    :func:`weierstrass_mandelbrot`."""
    if K is None:
        K = approx.wm_truncation(s, lam)
    out = np.zeros(N)
    odd = [n for n in range(N) if n % 2 == 1]
    if not odd:
        return out
    coefs = np.stack([basis.full_coefficients(n) for n in odd])
    kmax = coefs.shape[1] - 1
    for k in np.arange(K):
        # Im of the transform value for odd-parity coefficient vectors
        out[odd] += float(lam ** (-(2.0 - s) * k)) * (
            coefs @ spectral._fc_terms(basis.alpha, kmax, float(lam ** k)))
    return out


@lru_cache(maxsize=64)
def wm_l2_norm_squared(alpha, s, lam, K):
    """Sums amps_i amps_j P[i, j] pairwise over i <= j < K, where P[i, j] =
    int sin(lam^i x) sin(lam^j x) w_a(x) dx comes from one batched ladder over
    the distinct arguments |lam^i - lam^j| and lam^i + lam^j."""
    freqs = lam ** np.arange(K)
    iu, ju = np.triu_indices(K)
    diff = np.abs(freqs[iu] - freqs[ju])
    sums = freqs[iu] + freqs[ju]
    u = np.array(sorted(set(diff.tolist() + sums.tolist())))
    w = approx._cos_transforms(alpha, u)
    # int sin(ax) sin(bx) w = (cosT(|a-b|) - cosT(a+b)) / 2
    prods = np.zeros((K, K))
    prods[iu, ju] = 0.5 * (w[np.searchsorted(u, diff)] - w[np.searchsorted(u, sums)])
    amps = lam ** (-(2.0 - s) * np.arange(K))
    total = 0.0
    for i in range(K):
        for j in range(i, K):
            total += (1.0 if i == j else 2.0) * amps[i] * amps[j] * prods[i, j]
    return total


@lru_cache(maxsize=16)
def wm_term_rows(alpha, kmax, lam, lo, hi):
    """The transform terms at lam^k, k = lo..hi-1, one row each from one
    ladder call, read-only: a series of at most ``_EVAL_BLOCK`` terms is one
    entry, which every N and s at its basis and lam share.  The powers take
    NumPy integers k: a Python int exponent may round lam^k differently."""
    us = [float(lam ** k) for k in np.arange(lo, hi)]
    rows = spectral._fc_term_rows(alpha, kmax, us)
    rows.setflags(write=False)
    return rows


def cosine_transform_table(basis, k_max, N):
    """Matrix T[k-1, n] = <cos(k pi x), psi_n> for k = 1..k_max, n < N.

    Exact Bessel form, one ladder per frequency; odd-n columns vanish by
    parity.  Seed-independent, so random cosine-series projections reduce to
    a matrix-vector product with exact coefficients (a quadrature rule of
    practical size cannot resolve thousands of cosine modes, and aliasing
    noise gets amplified by the endpoint growth of psi_n).
    """
    approx._check_N(basis, N)
    coefs = basis.full_coefficients(range(0, N, 2))
    kmax = coefs.shape[1] - 1
    table = np.zeros((k_max, N))
    block = 64  # frequencies per batched ladder; bounds its memory
    for lo in range(0, k_max, block):
        u = np.arange(lo + 1, min(lo + block, k_max) + 1) * math.pi
        for i, terms in enumerate(spectral._fc_term_rows(basis.alpha, kmax, u)):
            table[lo + i, 0::2] = coefs @ terms
    return table


def _fc_sum(terms, parity):
    """The transform value, ``math.fsum`` over the array row of terms."""
    total = math.fsum(terms)
    return 1j * total if parity else complex(total)


def _mu_from_boundary(basis, n, at0):
    """mu_n from the x = 0 identities, the weight mass and a_1 rebuilt per n."""
    sqrt_m0 = math.sqrt(specfun.weight_mass(basis.alpha))
    bottom = float(basis.beta[n, 0])
    if n % 2 == 0:
        return complex(bottom * sqrt_m0 / float(at0[0]))
    a1 = float(specfun.jacobi_recurrence(basis.alpha, 2)[1])
    return 1j * basis.c * a1 * bottom * sqrt_m0 / float(at0[1])


def decay_bound_check(n, mu_abs, alpha, c):
    """The decay verdict with k_a and K_a recomputed on every call."""
    applicable = n > (math.e * c + 1.0) / 2.0
    if not applicable:
        return DecayVerdict(n=n, applicable=False, log_mu_bound=math.inf,
                            log_lambda_bound=math.inf, margin_mu=math.inf,
                            margin_lambda=math.inf)
    big_l = math.log((2.0 * n - 1.0) / (math.e * c))
    log_mu_bound = (math.log(mu_decay_constant(alpha))
                    - (0.5 * alpha + 1.0) * math.log(c)
                    - math.log(big_l) - (n + 0.5 * alpha) * big_l)
    log_lambda_bound = (math.log(lambda_decay_constant(alpha))
                        - (alpha + 1.0) * math.log(c)
                        - 2.0 * math.log(big_l) - (2.0 * n + alpha) * big_l)
    return DecayVerdict(n=n, applicable=True, log_mu_bound=log_mu_bound,
                        log_lambda_bound=log_lambda_bound,
                        margin_mu=log_mu_bound - _log_mu(mu_abs),
                        margin_lambda=log_lambda_bound - _log_lambda(mu_abs, c))


def spectrum_per_n(basis):
    """:func:`spectral.compute_spectrum` without its phase check, one n at a
    time: a (32, trunc) product, its floors and an ``argsort`` per n, and
    ``math.fsum`` over array rows."""
    eps = np.finfo(float).eps
    ns = range(basis.nmax)
    vals = basis.psi(ns, _PROBE_X, 0)[0]
    at0 = basis.psi(ns, np.array([0.0]), 1)[:, :, 0]
    rows = _fc_term_rows(basis.alpha, 2 * basis.trunc - 1, basis.c * _PROBE_X)
    entries = []
    prev_log_lam = None
    for n in ns:
        mu = _mu_from_boundary(basis, n, at0[:, n])
        mu_abs = abs(mu)
        # psi_n's coefficients vanish off its parity: sum only its orders
        terms = basis.beta[n] * rows[:, n % 2::2]
        with np.errstate(divide="ignore"):  # psi_n(x) = 0 ranks last
            floors = 1024.0 * eps * np.max(np.abs(terms), axis=1) / np.abs(vals[n])
        keep = np.argsort(floors)[:_N_PROBES]
        devs = np.array([abs(_fc_sum(terms[i], n % 2) / vals[n, i] - mu) for i in keep])
        spread, floor = float(devs.max()), float(floors[keep[-1]])
        if floor > _PROBE_TOL * mu_abs or np.any(devs > _PROBE_TOL * mu_abs + floors[keep]):
            if mu_abs < np.finfo(float).tiny:  # subnormal or zero
                raise ConsistencyError(
                    f"|mu_n| = {mu_abs:.3e} at n={n} underflowed below the smallest "
                    f"normal double, so the probes cannot check it (absolute "
                    f"spread {spread:.3e}, floor {floor:.3e})")
            raise ConsistencyError(
                f"mu probe spread {spread / mu_abs:.3e} (floor {floor / mu_abs:.3e}) "
                f"exceeds {_PROBE_TOL:.1e} at n={n} (insufficient truncation?)")
        lam = basis.c / (2.0 * math.pi) * mu_abs ** 2
        log_lam = _log_lambda(mu_abs, basis.c)
        if lam > 1.0 + 1e-9:
            raise ConsistencyError(f"lambda_{n} = {lam!r} exceeds 1")
        if prev_log_lam is not None and log_lam > prev_log_lam + 1e-12:
            raise ConsistencyError(f"lambda sequence not decreasing at n={n}")
        prev_log_lam = log_lam
        phase = mu / mu_abs if mu_abs > 0.0 else complex(1.0)
        bound = decay_bound_check(n, mu_abs, basis.alpha, basis.c)
        entries.append(SpectrumEntry(n=n, chi=float(basis.chi[n]), mu_abs=mu_abs,
                                     mu_phase=phase, lam=lam, log_lam=log_lam,
                                     bound=bound,
                                     probe_spread=spread,
                                     probe_floor=floor / mu_abs))
    return entries


def local_estimates_per_n(basis, grid_size):
    """:func:`basis.local_estimate` for every n, each from its own envelope,
    weight and sup over the psi table of the whole basis."""
    ns = range(basis.nmax)
    grid = basis.psi(ns, _estimate_grid(grid_size), 0)[0]
    at0 = basis.psi(ns, np.array([0.0]), 1)[:, :, 0]
    moments = moment_b(basis, ns)
    reports = []
    for n in ns:
        chi = float(basis.chi[n])
        q = basis.c ** 2 / chi
        x = _estimate_grid(grid_size)
        psi = grid[n]
        envelope = np.sqrt(np.maximum((1.0 - x ** 2) * (1.0 - q * x ** 2), 0.0))
        w = (1.0 - x ** 2) ** basis.alpha
        sup_value = float(np.max(envelope * w * psi ** 2))
        a_squared = float(at0[0, n] ** 2 + at0[1, n] ** 2 / chi)
        reports.append(LocalEstimateReport(
            n=n, q=q, sup_value=sup_value, a_squared=a_squared,
            b_moment=float(moments[n]),
            bound_applicable=_improved_regime(basis.alpha, q), alpha=basis.alpha))
    return reports


def beta_bound_check(basis, n, k, mu_abs, c_prime=None):
    """:func:`basis.beta_bound_check` with beta_k^n read from
    ``full_coefficients(n)``, zero past its last index."""
    chi = float(basis.chi[n])
    q = basis.c ** 2 / chi
    coefs = basis.full_coefficients(n)
    beta_k = abs(float(coefs[k])) if k < coefs.size else 0.0
    c_alpha = beta_bound_constant(basis.alpha)
    log_bound = (math.log(c_alpha) + k * (math.log(2.0 * math.sqrt(chi)) - math.log(basis.c))
                 + math.log(mu_abs)) if mu_abs > 0.0 else -math.inf
    log_beta = math.log(beta_k) if beta_k > 0.0 else -math.inf
    condition_value = k * (k + 2.0 * basis.alpha + 1.0)
    condition_ok = None
    if c_prime is not None:
        condition_ok = condition_value + c_prime * basis.c ** 2 <= chi
    regime = (k <= n / 1.9) and (n >= decay_regime_multiplier(basis.alpha) * basis.c)
    margin = log_bound - log_beta  # +inf when beta_k is exactly zero
    return BetaBoundVerdict(n=n, k=k, q=q, c_alpha=c_alpha, log_bound=log_bound,
                            log_beta=log_beta, margin=margin,
                            applicable_q=q < 1.0, condition_value=condition_value,
                            condition_ok=condition_ok, regime=regime)


def _march(d, lower, upper, lam):
    """Three-term recurrence of ``(T - lam) v = 0`` from the last row down.

    Row i reads ``lower[i] v[i-1] + (d[i] - lam) v[i] + upper[i] v[i+1] = 0``
    with ``upper[-1] = 0``; the march starts from ``v[-1] = 1`` and solves
    each row for ``v[i-1]``, one column per eigenvalue in ``lam``.  Returns
    mantissas and exponents: ``v = mant * 2**(600 * exp)``.
    """
    m = d.size
    mant = np.empty((m, lam.size))
    expo = np.zeros((m, lam.size), dtype=np.int64)
    v_next = np.zeros(lam.size)
    v = np.ones(lam.size)
    scale = np.zeros(lam.size, dtype=np.int64)
    mant[m - 1] = v
    for i in range(m - 1, 0, -1):
        v, v_next = ((lam - d[i]) * v - upper[i] * v_next) / lower[i], v
        big = np.abs(v) > backend._RESCALE
        if big.any():
            v[big] /= backend._RESCALE
            v_next[big] /= backend._RESCALE
            scale[big] += 1
        mant[i - 1] = v
        expo[i - 1] = scale
    return mant, expo


def _recurrence_vectors(tri, lam):
    """Unit eigenvectors of the tridiagonal ``tri`` (positive off-diagonal)
    for the eigenvalues ``lam``, as the columns of the returned array.

    Above its largest entries an eigenvector decays: there it is the minimal
    solution of the three-term recurrence, which marching up from the last
    row computes stably.  Below, it is the solution that grows upward from
    row 0, which marching down from row 0 computes stably.  The two marches
    are spliced at the first local peak of |v| seen from the last row; every
    entry keeps its relative accuracy, however small (Gautschi, SIAM Rev. 9,
    1967).
    """
    d, e = tri.diag, tri.offdiag
    m = d.size
    lower = np.concatenate([[0.0], e])   # coefficient of v[i-1] in row i
    upper = np.concatenate([e, [0.0]])   # coefficient of v[i+1] in row i
    b_mant, b_exp = _march(d, lower, upper, lam)
    f_mant, f_exp = _march(d[::-1], upper[::-1], lower[::-1], lam)
    f_mant, f_exp = f_mant[::-1], f_exp[::-1]
    with np.errstate(divide="ignore"):
        size = np.log2(np.abs(b_mant)) + backend._RESCALE_LOG2 * b_exp
    # peak: the largest row p whose predecessor p-1 is no larger than it
    flat = size[:-1] <= size[1:]
    last = m - 2 - np.argmax(flat[::-1], axis=0)
    peak = np.where(flat.any(axis=0), last + 1, 0)
    cols = np.arange(lam.size)
    below = np.arange(m)[:, None] < peak
    mant = np.where(below, f_mant / f_mant[peak, cols], b_mant / b_mant[peak, cols])
    expo = np.where(below, f_exp - f_exp[peak, cols], b_exp - b_exp[peak, cols])
    z = np.ldexp(mant, (backend._RESCALE_LOG2 * expo).astype(np.int32))
    return z / np.linalg.norm(z, axis=0)


def _jacobi_rows(rec, p0, kmax, x, nderiv, chunk):
    """Forward recurrence for ``Jt_k(x)``, k = 0..kmax, and its derivatives.

    ``Jt_k`` are the orthonormal symmetric-Jacobi polynomials with three-term
    recurrence ``x Jt_k = rec[k+1] Jt_{k+1} + rec[k] Jt_{k-1}`` and
    ``Jt_0 = p0``; ``rec`` needs length ``>= kmax + 1``.  Differentiating it
    d times gives ``rec[k+1] Jt_{k+1}^(d) = x Jt_k^(d) + d Jt_k^(d-1) -
    rec[k] Jt_{k-1}^(d)``, and each step updates every order d <= nderiv in
    one array operation.  Yields ``(k0, rows)`` with ``rows[d, i] =
    Jt_{k0+i}^(d)(x)`` for at most ``chunk`` consecutive k, so rows has shape
    (nderiv+1, <= chunk, len(x)).  The recurrence is stable inside [-1, 1]
    (Gautschi, *Orthogonal Polynomials*, 2004).
    """
    dmul = np.arange(1.0, nderiv + 1.0)[:, None]
    prev = np.zeros((nderiv + 1, x.size))
    cur = np.zeros((nderiv + 1, x.size))
    cur[0] = p0
    for k0 in range(0, kmax + 1, chunk):
        rows = np.empty((nderiv + 1, min(chunk, kmax + 1 - k0), x.size))
        for i in range(rows.shape[1]):
            k = k0 + i
            if k:
                step = x * cur
                if nderiv:
                    step[1:] += dmul * cur[:-1]
                step -= rec[k - 1] * prev
                prev, cur = cur, step / rec[k]
            rows[:, i] = cur
        yield k0, rows
