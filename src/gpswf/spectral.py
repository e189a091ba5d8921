"""Eigenvalues of the weighted finite Fourier transform and decay bounds.

The transform F_c f(x) = int_{-1}^{1} e^{i c x y} f(y) w_a(y) dy maps the
orthonormal Jacobi polynomial Jt_k to a closed-form Bessel expression with
phase i^k.  mu_n comes from the boundary identity at x = 0 (only the lowest
Jacobi mode survives there), and the expansion summed over a coefficient
vector gives F_c psi_n exactly, which verifies mu_n as the ratio
(F_c psi_n)(x*) / psi_n(x*) at probe points.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
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
    out = np.exp(-(alpha + 0.5) * math.log(2.0)
                 + 0.5 * (np.log(2.0 * k + 2.0 * alpha + 1.0)
                          + lg(k + 2.0 * alpha + 1.0) - lg(k + 1.0)))
    out[k % 4 >= 2] *= -1.0
    out.setflags(write=False)
    return out


def _fc_pref(alpha, u):
    # a Python-float expression per argument: a vectorised pow may round
    # differently
    return math.sqrt(math.pi) * (2.0 / u) ** (alpha + 0.5)


@lru_cache(maxsize=256)
def _fc_terms(alpha, kmax, u):
    """Real transform terms t_k = s_k sqrt(pi) (2/u)^(a+1/2) gamma_k
    J_{k+a+1/2}(u) for k = 0..kmax and u > 0, as a read-only array.

    int e^{iuy} Jt_k(y) w_a(y) dy = i^(k mod 2) t_k, so a coefficient vector
    of one parity transforms to its dot product with t (times i if odd).  This
    is the only place that knows the Bessel expansion of F_c.  The terms
    depend on (alpha, kmax, u) alone, so they are memoised: every n of a
    basis, and every seed or call, shares one ladder per argument.  Many
    arguments at once (the probes of :func:`compute_spectrum`) go through
    :func:`_fc_term_rows` instead.
    """
    terms = (_fc_pref(alpha, u) * _signed_gammas(alpha, kmax)
             * specfun.bessel_j_ladder(alpha + 0.5, kmax, u))
    terms.setflags(write=False)
    return terms


def _fc_term_rows(alpha, kmax, us):
    """Row i holds ``_fc_terms(alpha, kmax, us[i])``, bitwise, from one
    batched Bessel ladder; nothing is memoised."""
    pref = np.array([_fc_pref(alpha, u) for u in np.asarray(us, float).tolist()])
    terms = pref[:, None] * _signed_gammas(alpha, kmax)
    terms *= specfun.bessel_j_ladders(alpha + 0.5, kmax, us)
    return terms


def _fc_sum(terms, parity):
    """The transform value from its terms (``coef * t``) for a coefficient
    vector of the given parity, and its conditioning scale (largest term).

    The terms alternate in sign and their peak can tower over the sum, so the
    reduction uses exactly rounded summation; the remaining error is the
    roundoff of the terms themselves, about eps * scale.
    """
    total = math.fsum(terms)
    return (1j * total if parity else complex(total)), float(np.max(np.abs(terms)))


def _fc_series(alpha, coef, parity, u):
    """int e^{iuy} (sum_k coef_k Jt_k)(y) w_a(y) dy for a coefficient vector of
    the given parity, u > 0, and its conditioning scale; see :func:`_fc_sum`."""
    coef = np.asarray(coef, dtype=float)
    return _fc_sum(coef * _fc_terms(alpha, coef.size - 1, u), parity)


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


def decay_bound_check(n, mu_abs, alpha, c):
    """Super-exponential decay bounds on |mu_n| and lambda_n, in log space.

    log lambda_n = log(c / 2 pi) + 2 log |mu_n| comes from |mu_n|, so the
    lambda margin stays finite where lambda_n itself underflows to 0.
    Applicable for n > (e c + 1)/2; inapplicable entries return a flagged
    verdict with infinite margins.
    """
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
    log_mu = math.log(mu_abs) if mu_abs > 0.0 else -math.inf
    log_lam = math.log(c / (2.0 * math.pi)) + 2.0 * log_mu
    return DecayVerdict(n=n, applicable=True, log_mu_bound=log_mu_bound,
                        log_lambda_bound=log_lambda_bound,
                        margin_mu=log_mu_bound - log_mu,
                        margin_lambda=log_lambda_bound - log_lam)


@dataclass(frozen=True)
class SpectrumEntry:
    """Transform eigenvalue record: lambda = (c / 2 pi) |mu|^2 by construction."""

    n: int
    chi: float
    mu_abs: float
    mu_phase: complex
    lam: float
    bound: DecayVerdict
    probe_spread: float


# probe points per n, and the relative agreement each probe ratio must reach
_N_PROBES = 5
_PROBE_TOL = 1e-8


def _probe_candidates(nmax):
    # Chebyshev candidates in (0, 1), dense enough to catch oscillation tops
    # near x = 0 for moderately large n
    npts = max(256, 8 * nmax)
    return np.cos(math.pi * (2.0 * np.arange(npts) + 1.0) / (4.0 * npts))


def _select_probes(grid, vals):
    """Indices into ``grid`` of the probe points of one psi_n, whose values
    there are ``vals``, in ascending order of x.  They are the smallest x
    where |psi_n| exceeds a tenth of its peak, since the Bessel expansion of
    the transform is best conditioned there, or the largest |psi_n| when
    fewer than ``_N_PROBES`` candidates do."""
    peak = float(np.max(np.abs(vals)))
    idx = np.nonzero(np.abs(vals) > 0.1 * peak)[0]
    if idx.size < _N_PROBES:
        idx = np.argsort(-np.abs(vals))[:_N_PROBES]
    return idx[np.argsort(grid[idx])][:_N_PROBES]


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
    sqrt_m0 = math.sqrt(specfun.weight_mass(basis.alpha))
    bottom = float(basis.beta[n][0])
    if n % 2 == 0:
        return complex(bottom * sqrt_m0 / float(at0[0]))
    a1 = float(specfun.jacobi_recurrence(basis.alpha, 2)[1])
    return 1j * basis.c * a1 * bottom * sqrt_m0 / float(at0[1])


def _check_phase(basis):
    # one-off check of the i^k phase convention against direct quadrature
    rule = specfun.gauss_jacobi(basis.alpha, 80 + int(basis.c))
    for k in (0, 1):
        for x0 in (0.37, 0.61):
            direct = np.dot(rule.weights,
                            np.exp(1j * basis.c * x0 * rule.nodes)
                            * specfun.jacobi_table(basis.alpha, k, rule.nodes)[k])
            closed = fc_on_jacobi(basis.alpha, basis.c, k, x0)
            if abs(direct - closed) > 1e-8 * max(1.0, abs(direct)):
                raise ConsistencyError(
                    f"transform phase validation failed at k={k}: "
                    f"quadrature {direct:.3e} vs closed form {closed:.3e}")


def compute_spectrum(basis):
    """Eigenvalues mu_n (complex) and lambda_n for every n of the basis.

    The primary value comes from the exact boundary identity at x = 0, which
    stays fully accurate however small mu_n gets.  It is then checked against
    the ratios (F_c psi_n)(x*) / psi_n(x*) at probe points where |psi_n| is a
    sizable fraction of its maximum; the ratios must agree with mu to
    ``_PROBE_TOL`` relative plus the roundoff floor of the alternating Bessel
    sum (its largest term over |psi(x*)| times machine epsilon), otherwise a
    consistency error is raised.  So is a phase convention that disagrees
    with quadrature, a lambda above 1, or a lambda sequence that increases.
    """
    _check_phase(basis)
    eps = np.finfo(float).eps
    ns = range(basis.nmax)
    # every n at the probe candidates and at x = 0 in one pass; a probe's
    # psi value is its entry in the candidate table
    grid = _probe_candidates(basis.nmax)
    grid_vals = basis.psi(ns, grid, 0)[0]
    at0 = basis.psi(ns, np.array([0.0]), 1)[:, :, 0]
    sels = [_select_probes(grid, grid_vals[n]) for n in ns]
    # the transform terms at every distinct probe argument, from one batched
    # Bessel ladder; row_of maps a candidate index to its row
    used = np.zeros(grid.size, dtype=bool)
    used[np.concatenate(sels)] = True
    probes = np.flatnonzero(used)
    kmax = 2 * basis.trunc - 1
    rows = _fc_term_rows(basis.alpha, kmax, basis.c * grid[probes])
    row_of = np.empty(grid.size, dtype=np.intp)
    row_of[probes] = np.arange(probes.size)
    entries = []
    prev_lam = None
    for n in ns:
        mu = _mu_from_boundary(basis, n, at0[:, n])
        mu_abs = abs(mu)
        beta_n = basis.beta[n]
        spread = 0.0
        for i in sels[n]:
            # psi_n's coefficients vanish off its parity: sum only its orders
            val, scale = _fc_sum(beta_n * rows[row_of[i], n % 2::2], n % 2)
            v = grid_vals[n, i]
            ratio = val / v
            floor = 1024.0 * eps * scale / abs(v)
            dev = abs(ratio - mu)
            if dev > _PROBE_TOL * mu_abs + floor:
                raise ConsistencyError(
                    f"mu probe spread {dev / max(mu_abs, 1e-300):.3e} exceeds "
                    f"{_PROBE_TOL:.1e} at n={n} (insufficient truncation?)")
            spread = max(spread, dev)
        lam = basis.c / (2.0 * math.pi) * mu_abs ** 2
        if lam > 1.0 + 1e-9:
            raise ConsistencyError(f"lambda_{n} = {lam!r} exceeds 1")
        if prev_lam is not None and lam > prev_lam * (1.0 + 1e-12):
            raise ConsistencyError(f"lambda sequence not decreasing at n={n}")
        prev_lam = lam
        phase = mu / mu_abs if mu_abs > 0.0 else complex(1.0)
        bound = decay_bound_check(n, mu_abs, basis.alpha, basis.c)
        entries.append(SpectrumEntry(n=n, chi=float(basis.chi[n]), mu_abs=mu_abs,
                                     mu_phase=phase, lam=lam, bound=bound,
                                     probe_spread=spread))
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
