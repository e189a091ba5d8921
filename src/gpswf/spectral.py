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

from . import basis as basis_mod, specfun
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
    """s_k gamma_k for k = 0..kmax, where gamma_k = Gamma(k+a+1) / (Gamma(k+1)
    sqrt(h_k)) and s_k = +1 for k mod 4 in {0, 1}, -1 otherwise."""
    k = np.arange(kmax + 1, dtype=float)
    lg = np.vectorize(math.lgamma)
    with np.errstate(over="ignore"):
        out = np.exp(-(alpha + 0.5) * math.log(2.0)
                     + 0.5 * (np.log(2.0 * k + 2.0 * alpha + 1.0)
                              + lg(k + 2.0 * alpha + 1.0) - lg(k + 1.0)))
    if out[-1] == math.inf:  # gamma_k grows with k
        raise DomainError(f"the transform factor gamma_k passes the largest double "
                          f"at alpha={alpha!r}, k={int(np.argmax(out == math.inf))}")
    out[k % 4 >= 2] *= -1.0
    out.setflags(write=False)
    return out


def _fc_pref(alpha, u):
    # a Python-float expression per argument: a vectorised pow may round
    # differently
    try:
        pref = math.sqrt(math.pi) * (2.0 / u) ** (alpha + 0.5)
    except OverflowError:
        pref = math.inf
    if pref == math.inf:
        raise DomainError(f"the transform factor (2/u)^(alpha+1/2) passes the largest "
                          f"double at alpha={alpha!r}, u={u!r}")
    return pref


def _fc_term_rows(alpha, kmax, us):
    """Real transform terms t_k = s_k sqrt(pi) (2/u)^(a+1/2) gamma_k
    J_{k+a+1/2}(u), k = 0..kmax, one row per argument u > 0 of ``us``, from
    one Bessel ladder call; nothing is memoised.

    int e^{iuy} Jt_k(y) w_a(y) dy = i^(k mod 2) t_k, so a coefficient vector
    of one parity transforms to its dot product with t (times i if odd).  This
    is the only place that knows the Bessel expansion of F_c.
    """
    pref = np.array([_fc_pref(alpha, u) for u in np.asarray(us, float).tolist()])
    terms = pref[:, None] * _signed_gammas(alpha, kmax)
    terms *= specfun.bessel_j_ladder(alpha + 0.5, kmax, us)
    return terms


@lru_cache(maxsize=256)
def _fc_terms(alpha, kmax, u):
    """The row of :func:`_fc_term_rows` at one argument u, read-only.  The
    terms depend on (alpha, kmax, u) alone, so they are memoised: every n of
    a basis, and every seed or call, shares one ladder per argument."""
    terms = _fc_term_rows(alpha, kmax, [u])[0]
    terms.setflags(write=False)
    return terms


def _fc_sum(terms, parity):
    """The transform value from its terms (``coef * t``) for a coefficient
    vector of the given parity.  The terms alternate in sign and their peak
    can tower over the sum, so the reduction is exactly rounded; the error
    left is the roundoff of the terms themselves, about eps * max |term|.
    ``math.fsum`` reads a list of floats about twice as fast as an array row,
    and its exactly rounded value is the same either way."""
    total = math.fsum(terms)
    return 1j * total if parity else complex(total)


def _fc_series(alpha, row, parity, u):
    """int e^{iuy} psi(y) w_a(y) dy for psi = sum_i row_i Jt_{2i+parity} (a
    row of a basis's beta) and u > 0; see :func:`_fc_sum`, whose exactly
    rounded sum makes this the value over all Jacobi indices bit for bit."""
    terms = _fc_terms(alpha, 2 * row.size - 1, u)
    return _fc_sum((row * terms[parity::2]).tolist(), parity)


def fc_on_jacobi(alpha, c, k, x):
    """(F_c Jt_k)(x) = i^k sqrt(pi) (2/(c|x|))^(a+1/2) G(k+a+1)/(G(k+1) sqrt(h_k))
    J_{k+a+1/2}(c|x|), extended to x < 0 by parity; at x = 0 only k = 0
    survives, with value int Jt_0 w_a = sqrt(m0)."""
    if not math.isfinite(c) or c <= 0.0:
        raise DomainError(f"bandwidth c must be > 0, got {c!r}")
    if abs(x) > 1.0 + 8.0 * np.finfo(float).eps:
        raise DomainError("transform evaluation requires |x| <= 1")
    if x == 0.0:
        return complex(math.sqrt(specfun.weight_mass(alpha))) if k == 0 else 0.0j
    val = 1j ** (k % 2) * float(_fc_terms(alpha, k, c * abs(x))[k])
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
    return ((2.0 / math.e) ** (1.0 + 0.5 * alpha) * math.pi
            * math.exp(0.5 * specfun.ln_gamma(alpha + 1.0)))


def lambda_decay_constant(alpha):
    """K_a = (pi/2) (2/e)^(a+2) Gamma(a+1); equals k_a^2 / (2 pi)."""
    return (0.5 * math.pi * (2.0 / math.e) ** (alpha + 2.0)
            * math.exp(specfun.ln_gamma(alpha + 1.0)))


@lru_cache(maxsize=64)
def _log_decay_constants(alpha):
    """log k_a and log K_a, which :func:`decay_bound_check` reads on every
    call (:func:`lambda_bound_tail` makes up to ``_TAIL_MAX_TERMS`` of them)."""
    return math.log(mu_decay_constant(alpha)), math.log(lambda_decay_constant(alpha))


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
    verdict with infinite margins.
    """
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


def _check_phase(basis):
    # one-off check of the i^k phase convention against direct quadrature
    rule = specfun.gauss_jacobi(basis.alpha, 80 + int(basis.c))
    table = specfun.jacobi_table(basis.alpha, 1, rule.nodes)
    for k in (0, 1):
        for x0 in (0.37, 0.61):
            direct = np.dot(rule.weights,
                            np.exp(1j * basis.c * x0 * rule.nodes) * table[k])
            closed = fc_on_jacobi(basis.alpha, basis.c, k, x0)
            if abs(direct - closed) > 1e-8 * max(1.0, abs(direct)):
                raise ConsistencyError(
                    f"transform phase validation failed at k={k}: "
                    f"quadrature {direct:.3e} vs closed form {closed:.3e}")


# n of one parity per block of the probe floors: the block's product holds
# _FLOOR_BLOCK x 32 x trunc doubles (0.4 MB at trunc 96), where all n at
# once would hold nmax / _FLOOR_BLOCK times that
_FLOOR_BLOCK = 16


def _probe_floors(basis, rows, vals):
    """The roundoff floor of every candidate of every n, shape (nmax, 32):
    1024 eps times the largest |term| of the candidate's transform sum, over
    |psi_n(x*)| (``vals``); ``rows`` holds the transform terms of every
    candidate over all Jacobi indices.

    The largest |beta_k t_k| is taken as the largest |beta_k| |t_k|, which is
    the same product bit for bit, over blocks of ``_FLOOR_BLOCK`` n of one
    parity.  psi_n(x*) = 0 gives an infinite floor, which ranks last.
    """
    peaks = np.empty(vals.shape)
    abs_beta = np.abs(basis.beta)
    for p in (0, 1):
        abs_rows = np.abs(rows[:, p::2])
        for lo in range(p, basis.nmax, 2 * _FLOOR_BLOCK):
            block = slice(lo, lo + 2 * _FLOOR_BLOCK, 2)
            peaks[block] = np.max(abs_beta[block, None, :] * abs_rows, axis=2)
    with np.errstate(divide="ignore"):
        return 1024.0 * np.finfo(float).eps * peaks / np.abs(vals)


def compute_spectrum(basis):
    """Eigenvalues mu_n (complex) and lambda_n for every n of the basis.

    The primary value comes from the exact boundary identity at x = 0, which
    stays fully accurate however small mu_n gets.  It is then checked against
    the ratios (F_c psi_n)(x*) / psi_n(x*) at the candidates x* where the
    alternating Bessel sum has the smallest roundoff floor (1024 eps times its
    largest term over |psi_n(x*)|).  A consistency error is raised when the
    worst kept floor exceeds ``_PROBE_TOL`` relative (the check would be
    vacuous), when a ratio misses mu by more than that plus its floor, when
    the phase convention disagrees with quadrature, when a lambda exceeds 1,
    and when log lambda increases by more than 1e-12 (the log form of a
    1e-12 relative rise, which stays strict where lambda underflows).
    The checks run n by n, so the first n that fails one raises.
    """
    _check_phase(basis)
    ns = range(basis.nmax)
    # every n at every candidate and at x = 0, the transform terms at every
    # candidate argument from one batched Bessel ladder, and every n's floors
    # and candidate ranking
    vals = basis.psi(ns, _PROBE_X, 0)[0]
    at0 = basis_mod._psi_at0(basis)
    rows = _fc_term_rows(basis.alpha, 2 * basis.trunc - 1, basis.c * _PROBE_X)
    floors = _probe_floors(basis, rows, vals)
    ranked = np.argsort(floors, axis=1)[:, :_N_PROBES]
    entries = []
    prev_log_lam = None
    for n in ns:
        p = n % 2
        mu = _mu_from_boundary(basis, n, at0[:, n])
        mu_abs = abs(mu)
        keep = ranked[n]
        # psi_n's coefficients vanish off its parity: sum only its orders
        terms = (basis.beta[n] * rows[keep, p::2]).tolist()
        devs = np.array([abs(_fc_sum(t, p) / v - mu) for t, v in zip(terms, vals[n, keep])])
        kept_floors = floors[n, keep]
        spread, floor = float(devs.max()), float(kept_floors[-1])
        # a mu of 0 with sums of 0 would pass the comparisons vacuously
        if (mu_abs == 0.0 or floor > _PROBE_TOL * mu_abs
                or np.any(devs > _PROBE_TOL * mu_abs + kept_floors)):
            if mu_abs < np.finfo(float).tiny:  # subnormal or zero
                raise ConsistencyError(
                    f"|mu_n| = {mu_abs:.3e} at n={n} underflowed below the smallest "
                    f"normal double, so the probes cannot check it (absolute "
                    f"spread {spread:.3e}, floor {floor:.3e})")
            raise ConsistencyError(
                f"mu probe spread {spread / mu_abs:.3e} (floor {floor / mu_abs:.3e}) "
                f"exceeds {_PROBE_TOL:.1e} at n={n} (insufficient truncation?)")
        # scalar expressions: an array square may round differently from pow
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


# ---------------------------------------------------------------------------
# Sums over the whole spectrum: the trace of the concentration operator and
# the decay bound on its tail.
# ---------------------------------------------------------------------------

def kernel_trace(alpha, c):
    """Trace of the concentration operator: (c/2) (Gamma(a+1)/Gamma(a+3/2))^2."""
    return 0.5 * c * math.exp(2.0 * (specfun.ln_gamma(alpha + 1.0)
                                     - specfun.ln_gamma(alpha + 1.5)))


# terms of the decay bound that lambda_bound_tail adds at most
_TAIL_MAX_TERMS = 20000


def lambda_bound_tail(alpha, c, n_from):
    """Upper bound on sum_{n >= n_from} lambda_n from the decay estimate."""
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
