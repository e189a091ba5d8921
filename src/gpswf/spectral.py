"""Eigenvalues of the weighted finite Fourier transform and decay bounds.

The transform F_c f(x) = int_{-1}^{1} e^{i c x y} f(y) w_a(y) dy maps the
orthonormal Jacobi polynomial Jt_k to a closed-form Bessel expression with
phase i^k.  mu_n comes from the boundary identity at x = 0 (only the lowest
Jacobi mode survives there), and the expansion summed over a coefficient
vector gives F_c psi_n exactly, which verifies mu_n as the ratio
(F_c psi_n)(x*) / psi_n(x*) at the probe points where that sum is best
conditioned.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import backend, basis as basis_mod, specfun
from .errors import ConsistencyError, DomainError

__all__ = [
    "SpectrumEntry",
    "DecayVerdict",
    "fc_on_jacobi",
    "compute_spectrum",
    "decay_bound_check",
    "mu_decay_constant",
    "lambda_decay_constant",
    "kernel_trace",
    "lambda_bound_tail",
]


@lru_cache(maxsize=64)
def _signed_gammas(alpha, kmax):
    """s_k sqrt(pi) gamma_k, k = 0..kmax, as mantissas and exponents, where
    gamma_k = Gamma(k+a+1) / (Gamma(k+1) sqrt(h_k)) and s_k = +1 for k mod 4
    in {0, 1}, -1 otherwise.  pi gamma_k^2 = pi (2k + z) Q_k 2^-z, z = 2a + 1,
    and Q_k = Gamma(k + z) / k! is a product renormalised at each factor:
    Gamma(f) f (f + 1) ... (z - 1) with f = z - n in [1, 2), then (k + z - 1) / k."""
    z = 2.0 * alpha + 1.0
    n = max(math.floor(z) - 1, 0)
    f = z - n
    m, e = 1.0, 0
    mant, expo = np.empty(n + kmax + 1), np.empty(n + kmax + 1, dtype=np.int32)
    factors = ([math.gamma(f)] + [f + j for j in range(n)]
               + [(k + z - 1.0) / k for k in range(1, kmax + 1)])
    for i, factor in enumerate(factors):
        m, de = math.frexp(m * factor)
        e += de
        mant[i], expo[i] = m, e
    # pi 2^-z = pi 2^(1 - f) 2^-(n + 1); an odd exponent moves a factor 2
    # into the mantissa, so that the square root halves an even one
    k = np.arange(kmax + 1)
    mant, de = np.frexp(mant[n:] * (math.pi * math.pow(2.0, 1.0 - f) * (2.0 * k + z)))
    expo = expo[n:] + de - (n + 1)
    mant *= 1.0 + (expo & 1)
    expo >>= 1
    np.sqrt(mant, out=mant)
    mant[k % 4 >= 2] *= -1.0
    for a in (mant, expo):
        a.setflags(write=False)
    return mant, expo


def _mantissa_power(m, s):
    """m^s for mantissas m in [1/2, 1) and an integer s >= 0, as mantissas and
    exponents, by binary powering renormalised at each product."""
    out, out_e = np.ones_like(m), np.zeros(m.shape, dtype=np.int32)
    sq, sq_e = m, np.zeros(m.shape, dtype=np.int32)
    while s:
        if s & 1:
            out, de = np.frexp(out * sq)
            out_e += de + sq_e
        s >>= 1
        sq, de = np.frexp(sq * sq)
        sq_e = 2 * sq_e + de
    return out, out_e


def _fc_term_rows(alpha, kmax, us):
    """Real transform terms t_k = s_k sqrt(pi) (2/u)^(a+1/2) gamma_k
    J_{k+a+1/2}(u), k = 0..kmax, one row per argument u > 0 of ``us``, from
    one Bessel ladder call; nothing is memoised.

    int e^{iuy} Jt_k(y) w_a(y) dy = i^(k mod 2) t_k, so a coefficient vector
    of one parity transforms to its dot product with t (times i if odd).  This
    is the only place that knows the Bessel expansion of F_c.

    The ladder gives J (2/u)^b, with a + 1/2 = b + s for an integer s, so
    (2/u)^s is left: m^-s 2^(s (1 - e)) for u = m 2^e.  Every factor is a
    mantissa with an exponent, and each term is rounded to a double once, so
    it is 0 or subnormal only where t_k is (|t_k| <= sqrt(m0) by Cauchy-Schwarz).
    """
    us = np.asarray(us, dtype=float)
    _, s = specfun._split_order(alpha + 0.5)
    mant, expo = specfun.bessel_j_ladder(alpha + 0.5, kmax, us)
    g_mant, g_expo = _signed_gammas(alpha, kmax)
    m, e = np.frexp(us)
    p_mant, p_expo = _mantissa_power(m, s)
    expo += g_expo
    expo += (s * (1 - e) - p_expo)[:, None]
    mant *= g_mant
    mant /= p_mant[:, None]
    return np.ldexp(mant, expo)


@lru_cache(maxsize=256)
def _fc_terms(alpha, kmax, u):
    """The row of :func:`_fc_term_rows` at one argument u, read-only.  The
    terms depend on (alpha, kmax, u) alone, so they are memoised: every n of
    a basis, and every seed or call, shares one ladder per argument."""
    terms = _fc_term_rows(alpha, kmax, [u])[0]
    terms.setflags(write=False)
    return terms


def _check_bandwidth(c):
    """Refuse a bandwidth c that is not finite and > 0 with DomainError, in
    one chained comparison, which NaN fails."""
    if not 0.0 < c < math.inf:
        raise DomainError(f"bandwidth c must be > 0, got {c!r}")


def fc_on_jacobi(alpha, c, k, x):
    """(F_c Jt_k)(x) = i^k sqrt(pi) (2/(c|x|))^(a+1/2) G(k+a+1)/(G(k+1) sqrt(h_k))
    J_{k+a+1/2}(c|x|), extended to x < 0 by parity; at x = 0 only k = 0
    survives, with value int Jt_0 w_a = sqrt(m0)."""
    _check_bandwidth(c)
    alpha = specfun._check_alpha(alpha)
    specfun._check_count("the Jacobi order k", k)
    if not (math.isfinite(x) and abs(x) <= 1.0 + 8.0 * np.finfo(float).eps):
        raise DomainError(f"transform evaluation requires a finite x with |x| <= 1, "
                          f"got x={x!r}")
    u = c * abs(x)
    if u == 0.0:  # x = 0, or c |x| below the smallest subnormal
        return complex(math.sqrt(specfun.weight_mass(alpha))) if k == 0 else 0.0j
    val = 1j ** (k % 2) * float(_fc_terms(alpha, k, u)[k])
    # parity: (F_c Jt_k)(-x) = (-1)^k (F_c Jt_k)(x)
    if x < 0.0 and k % 2 == 1:
        val = -val
    return val


@dataclass(frozen=True)
class DecayVerdict:
    n: int
    applicable: bool
    log_mu_bound: float
    log_lambda_bound: float
    margin_mu: float
    margin_lambda: float

    @property
    def ok(self):
        return (not self.applicable) or (self.margin_mu >= 0.0
                                         and self.margin_lambda >= 0.0)


def mu_decay_constant(alpha):
    """k_a = (2/e)^(1 + a/2) pi sqrt(Gamma(a+1))."""
    alpha = specfun._check_alpha(alpha)
    return ((2.0 / math.e) ** (1.0 + 0.5 * alpha) * math.pi
            * math.exp(0.5 * specfun.ln_gamma(alpha + 1.0)))


def lambda_decay_constant(alpha):
    """K_a = (pi/2) (2/e)^(a+2) Gamma(a+1); equals k_a^2 / (2 pi)."""
    alpha = specfun._check_alpha(alpha)
    return (0.5 * math.pi * (2.0 / math.e) ** (alpha + 2.0)
            * math.exp(specfun.ln_gamma(alpha + 1.0)))


@lru_cache(maxsize=64)
def _log_decay_constants(alpha):
    """log k_a and log K_a, which :func:`decay_bound_check` reads on every
    call (:func:`lambda_bound_tail` makes up to ``_TAIL_MAX_TERMS`` of them);
    from alpha 170.7, where Gamma(alpha + 1) passes the largest double, the
    constants are refused."""
    try:
        return math.log(mu_decay_constant(alpha)), math.log(lambda_decay_constant(alpha))
    except OverflowError:
        raise DomainError(f"the decay constant K_a passes the largest double at "
                          f"alpha={alpha!r}") from None


def _log_mu(mu_abs):
    """log |mu_n|, -inf when mu_n is 0."""
    return math.log(mu_abs) if mu_abs > 0.0 else -math.inf


def _log_lambda(mu_abs, c):
    """log lambda_n = log(c / 2 pi) + 2 log |mu_n|, from |mu_n|: finite where
    lambda_n itself underflows to 0 (-inf only when mu_n is 0)."""
    return math.log(c / (2.0 * math.pi)) + 2.0 * _log_mu(mu_abs)


def decay_bound_check(n, mu_abs, alpha, c):
    """Super-exponential decay bounds on |mu_n| and lambda_n, in log space.

    log lambda_n comes from |mu_n| (:func:`_log_lambda`), so the lambda
    margin stays finite where lambda_n itself underflows to 0.
    Applicable for n > (e c + 1)/2; inapplicable entries return a flagged
    verdict with infinite margins.  A c that is not finite and > 0, an n
    that is not an integer >= 0, a modulus |mu_n| that is NaN, negative
    or infinite, or an alpha that is not finite and > -1 raises DomainError,
    whether or not the bound applies.
    """
    _check_bandwidth(c)
    specfun._check_count("n", n)
    if not 0.0 <= mu_abs < math.inf:
        raise DomainError(f"the modulus |mu_n| must be finite and >= 0, got {mu_abs!r}")
    specfun._check_alpha(alpha)
    applicable = n > (math.e * c + 1.0) / 2.0
    if not applicable:
        return DecayVerdict(n=n, applicable=False, log_mu_bound=math.inf,
                            log_lambda_bound=math.inf, margin_mu=math.inf,
                            margin_lambda=math.inf)
    big_l = math.log((2.0 * n - 1.0) / (math.e * c))
    log_k_mu, log_k_lambda = _log_decay_constants(alpha)
    log_mu_bound = (log_k_mu
                    - (0.5 * alpha + 1.0) * math.log(c)
                    - math.log(big_l) - (n + 0.5 * alpha) * big_l)
    log_lambda_bound = (log_k_lambda
                        - (alpha + 1.0) * math.log(c)
                        - 2.0 * math.log(big_l) - (2.0 * n + alpha) * big_l)
    return DecayVerdict(n=n, applicable=True, log_mu_bound=log_mu_bound,
                        log_lambda_bound=log_lambda_bound,
                        margin_mu=log_mu_bound - _log_mu(mu_abs),
                        margin_lambda=log_lambda_bound - _log_lambda(mu_abs, c))


@dataclass(frozen=True)
class SpectrumEntry:
    """Transform eigenvalue record: lambda = (c / 2 pi) |mu|^2 by construction,
    and ``log_lam`` its logarithm from log |mu|, finite where ``lam``
    underflows to 0; ``probe_spread`` is the largest |ratio - mu| over the
    probes of n, and ``probe_floor`` the largest roundoff floor of those
    probes over |mu|."""

    n: int
    chi: float
    mu_abs: float
    mu_phase: complex
    lam: float
    log_lam: float
    bound: DecayVerdict
    probe_spread: float
    probe_floor: float


# probe candidates, geometric so that they are dense near x = 0, where the
# Bessel sum of a deep psi_n cancels least; each n keeps the _N_PROBES with the
# smallest roundoff floor, and each ratio must agree to _PROBE_TOL relative
_PROBE_X = np.geomspace(1e-3, 0.99, 32)
_PROBE_X.setflags(write=False)
_N_PROBES = 5
_PROBE_TOL = 1e-8


def _mu_from_boundary(basis, n, at0):
    """mu_n from the x = 0 identities, given ``at0`` = (psi_n(0), psi_n'(0)):
    only the k = 0 (resp. k = 1) Jacobi mode contributes to (F_c psi_n)(0)
    (resp. its derivative), so

        even n:  mu_n psi_n(0)  = beta_0 sqrt(m0)
        odd n:   mu_n psi_n'(0) = i c a_1 beta_1 sqrt(m0)

    with m0 the weight mass and a_1 the first recurrence coefficient.  The
    bottom coefficient is the first entry of the basis's recurrence
    eigenvector, which keeps full relative accuracy however small it gets.
    """
    sqrt_m0, a1 = _boundary_constants(basis.alpha)
    bottom = float(basis.beta[n, 0])
    if n % 2 == 0:
        return complex(bottom * sqrt_m0 / float(at0[0]))
    return 1j * basis.c * a1 * bottom * sqrt_m0 / float(at0[1])


@lru_cache(maxsize=64)
def _boundary_constants(alpha):
    """sqrt(m0) and a_1 of :func:`_mu_from_boundary`: they depend on alpha
    alone, not on n."""
    return (math.sqrt(specfun.weight_mass(alpha)),
            float(specfun.jacobi_recurrence(alpha, 2)[1]))


# the phase check's points x0 and Jacobi indices k
_PHASE_X = (0.37, 0.61)
_PHASE_K = (0, 1)


def _phase_rule_order(c):
    """Nodes of :func:`_check_phase`'s Gauss-Jacobi rule at bandwidth c.

    Its integrand e^{iuy} Jt_k(y) w_a(y), k <= 1, u = c x0 <= 0.61 c, is
    resolved to 1e-13 by about u/2 + 5 u^(1/3) nodes; ceil(c/2) + 32 is at
    least u/2 + 0.195 c + 32 at both x0, far past that.  A rule of about
    c/2 nodes, not c, keeps the rule's dense eigensolve and m x m
    Christoffel table from setting the cold cost and memory peak of
    :func:`compute_spectrum` at large c."""
    return 32 + math.ceil(c / 2)


def _phase_quadratures(alpha, c, m):
    """int e^{i c x0 y} Jt_k(y) w_a(y) dy by the m-node Gauss-Jacobi rule,
    indexed [k, x0] over ``_PHASE_K`` and ``_PHASE_X``."""
    rule = specfun.gauss_jacobi(alpha, m)
    table = specfun.jacobi_table(alpha, 1, rule.nodes)
    return np.array([[np.dot(rule.weights, np.exp(1j * c * x0 * rule.nodes) * table[k])
                      for x0 in _PHASE_X] for k in _PHASE_K])


def _check_phase(basis, terms):
    """One-off check of the i^k phase convention against direct quadrature.
    ``terms`` holds the rows of :func:`_fc_term_rows` at c x0 for x0 in
    ``_PHASE_X``, in that order; their entries k give the closed forms
    i^k t_k(c x0)."""
    direct = _phase_quadratures(basis.alpha, basis.c, _phase_rule_order(basis.c))
    for k in _PHASE_K:
        for d, row in zip(direct[k], terms):
            closed = 1j ** k * float(row[k])
            if abs(d - closed) > 1e-8 * max(1.0, abs(d)):
                raise ConsistencyError(
                    f"transform phase validation failed at k={k}: "
                    f"quadrature {d:.3e} vs closed form {closed:.3e}")


# n of one parity per block of the probe floors: the block's product holds
# _FLOOR_BLOCK x 32 x trunc doubles (0.4 MB at trunc 96), where all n at
# once would hold nmax / _FLOOR_BLOCK times that
_FLOOR_BLOCK = 16


def _probe_floors(basis, rows, vals, mu_abs, norms):
    """The roundoff floor of every candidate of every n, shape (nmax, 32):
    1024 eps times two parts, over |psi_n(x*)| (``vals``).  The largest
    |term| of the candidate's transform sum counts its cancellation
    (``rows``: the terms of every candidate over all Jacobi indices).
    |mu_n| times the norm of the Jacobi rows Jt_k(x*) of n's parity
    (``norms[p]``) counts psi_n(x*)'s own: beta_n has unit norm, so by
    Cauchy-Schwarz that norm bounds sum_k |beta_k Jt_k(x*)|.  The largest
    |beta_k t_k| is taken as the largest |beta_k| |t_k|, which is the same
    product bit for bit, over blocks of ``_FLOOR_BLOCK`` n of one parity.
    psi_n(x*) = 0 gives an infinite floor, which ranks last.
    """
    peaks = np.empty(vals.shape)
    abs_beta = np.abs(basis.beta)
    for p in (0, 1):
        abs_rows = np.abs(rows[:, p::2])
        for lo in range(p, basis.nmax, 2 * _FLOOR_BLOCK):
            block = slice(lo, lo + 2 * _FLOOR_BLOCK, 2)
            peaks[block] = np.max(abs_beta[block, None, :] * abs_rows, axis=2)
        peaks[p::2] += mu_abs[p::2, None] * norms[p]
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1024.0 * np.finfo(float).eps * peaks / np.abs(vals)


def compute_spectrum(basis):
    """Eigenvalues mu_n (complex) and lambda_n for every n of the basis.

    The primary value comes from the exact boundary identity at x = 0, which
    stays fully accurate however small mu_n gets.  It is then checked against
    the ratios (F_c psi_n)(x*) / psi_n(x*) at the candidates x* where the
    ratio has the smallest roundoff floor (:func:`_probe_floors`: the
    alternating Bessel sum's largest term and psi_n(x*)'s own rounding).  A
    consistency error is raised when the worst kept floor exceeds
    ``_PROBE_TOL`` relative (the check would be vacuous), when a ratio misses
    mu by more than that plus its floor, when the phase convention disagrees
    with quadrature, when a lambda exceeds 1, and when log lambda increases
    by more than 1e-12 (the log form of a 1e-12 relative rise, which stays
    strict where lambda underflows).  The checks run over all n at once; the
    first n that fails one raises, with the probe checked before lambda <= 1
    and that before the decrease.
    """
    # the transform terms at every candidate argument and at the phase
    # check's two, from one batched Bessel ladder (a row does not depend on
    # the other arguments of the call); the phase check runs first
    rows = _fc_term_rows(basis.alpha, 2 * basis.trunc - 1,
                         np.concatenate([basis.c * _PROBE_X,
                                         [basis.c * x0 for x0 in _PHASE_X]]))
    _check_phase(basis, rows[_PROBE_X.size:])
    rows = rows[:_PROBE_X.size]
    ns = range(basis.nmax)
    # the Jacobi rows at the candidates (positive and ascending, so the rows
    # of psi_table's distinct |x|) give every psi_n(x*), bitwise psi_table's,
    # and each parity's row norms
    jac = specfun.jacobi_table(basis.alpha, 2 * basis.trunc - 1, _PROBE_X)
    parts = (jac[0::2], jac[1::2])
    vals = np.empty((basis.nmax, _PROBE_X.size))
    for p, part in enumerate(backend.table_series(basis._parity_coefficients(), parts)):
        vals[p::2] = part[0]
    norms = [np.sqrt(np.einsum("kj,kj->j", part, part)) for part in parts]
    at0 = basis_mod._psi_at0(basis)
    # mu per n as a Python complex, since mu_phase prints its sign of zero;
    # lambda squares |mu| as an array, x * x, which is correctly rounded
    mus = [_mu_from_boundary(basis, n, at0[:, n]) for n in ns]
    mu_abs = [abs(mu) for mu in mus]
    mu_arr = np.array(mu_abs)
    # every n's floors and candidate ranking
    floors = _probe_floors(basis, rows, vals, mu_arr, norms)
    ranked = np.argsort(floors, axis=1)[:, :_N_PROBES]
    # psi_n's coefficients vanish off its parity: each n sums only its
    # orders.  The terms alternate in sign and their peak can tower over the
    # sum, so each sum is exactly rounded; the products are gathered for
    # blocks of _FLOOR_BLOCK n of one parity, one fsum_rows call per block
    sums = np.empty(ranked.shape)
    for p in (0, 1):
        for lo in range(p, basis.nmax, 2 * _FLOOR_BLOCK):
            block = slice(lo, lo + 2 * _FLOOR_BLOCK, 2)
            prods = basis.beta[block, None, :] * rows[ranked[block], p::2]
            sums[block] = backend.fsum_rows(
                prods.reshape(-1, basis.trunc)).reshape(prods.shape[:2])
    lams = (basis.c / (2.0 * math.pi) * (mu_arr * mu_arr)).tolist()
    log_lams = [_log_lambda(a, basis.c) for a in mu_abs]
    # an even (odd) n's sums are mu's real (imaginary) part times psi_n(x*)
    # and the other parts are zero, so this is |ratio - mu| bit for bit
    on_axis = np.array([mu.imag if n % 2 else mu.real for n, mu in zip(ns, mus)])
    kept = (np.arange(basis.nmax)[:, None], ranked)
    with np.errstate(divide="ignore", invalid="ignore"):
        devs = np.abs(sums / vals[kept] - on_axis[:, None])
    kept_floors = floors[kept]
    spread, floor = devs.max(axis=1).tolist(), kept_floors[:, -1].tolist()
    # a mu of 0 with sums of 0 would pass the comparisons vacuously
    tol = _PROBE_TOL * mu_arr
    probe_bad = ((mu_arr == 0.0) | (kept_floors[:, -1] > tol)
                 | np.any(devs > tol[:, None] + kept_floors, axis=1))
    lam_bad = np.array(lams) > 1.0 + 1e-9
    log_lam = np.array(log_lams)
    rising = np.r_[False, log_lam[1:] > log_lam[:-1] + 1e-12]
    failed = np.flatnonzero(probe_bad | lam_bad | rising)
    if failed.size:
        n = int(failed[0])
        if probe_bad[n] and mu_abs[n] < np.finfo(float).tiny:  # subnormal or zero
            raise ConsistencyError(
                f"|mu_n| = {mu_abs[n]:.3e} at n={n} underflowed below the smallest "
                f"normal double, so the probes cannot check it (absolute "
                f"spread {spread[n]:.3e}, floor {floor[n]:.3e})")
        if probe_bad[n]:
            raise ConsistencyError(
                f"mu probe spread {spread[n] / mu_abs[n]:.3e} (floor "
                f"{floor[n] / mu_abs[n]:.3e}) exceeds {_PROBE_TOL:.1e} at n={n} "
                f"(insufficient truncation?)")
        if lam_bad[n]:
            raise ConsistencyError(f"lambda_{n} = {lams[n]!r} exceeds 1")
        raise ConsistencyError(f"lambda sequence not decreasing at n={n}")
    return [SpectrumEntry(n=n, chi=float(basis.chi[n]), mu_abs=mu_abs[n],
                          mu_phase=mus[n] / mu_abs[n] if mu_abs[n] > 0.0 else complex(1.0),
                          lam=lams[n], log_lam=log_lams[n],
                          bound=decay_bound_check(n, mu_abs[n], basis.alpha, basis.c),
                          probe_spread=spread[n], probe_floor=floor[n] / mu_abs[n])
            for n in ns]


# ---------------------------------------------------------------------------
# Sums over the whole spectrum: the trace of the concentration operator and
# the decay bound on its tail.
# ---------------------------------------------------------------------------

def kernel_trace(alpha, c):
    """Trace of the concentration operator: (c/2) (Gamma(a+1)/Gamma(a+3/2))^2."""
    _check_bandwidth(c)
    alpha = specfun._check_alpha(alpha)
    return 0.5 * c * math.exp(2.0 * (specfun.ln_gamma(alpha + 1.0)
                                     - specfun.ln_gamma(alpha + 1.5)))


# terms of the decay bound that lambda_bound_tail adds at most
_TAIL_MAX_TERMS = 20000


def lambda_bound_tail(alpha, c, n_from):
    """Upper bound on sum_{n >= n_from} lambda_n from the decay estimate;
    n_from must be an integer >= 0 past (e c + 1)/2."""
    _check_bandwidth(c)
    specfun._check_count("n_from", n_from)
    n0 = int(max(n_from, math.floor((math.e * c + 1.0) / 2.0) + 1))
    if n0 > n_from:
        raise DomainError(f"tail bound needs n_from > (ec+1)/2; got {n_from}")
    total = 0.0
    for n in range(n0, n0 + _TAIL_MAX_TERMS):
        v = decay_bound_check(n, 0.0, alpha, c)
        term = math.exp(min(v.log_lambda_bound, 700.0))
        total += term
        if term < 1e-30 * max(total, 1e-300):
            break
    return total
