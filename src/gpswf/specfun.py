"""Special functions and Gauss-Jacobi quadrature for the weight
``w_a(x) = (1 - x^2)^a`` on [-1, 1]."""

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import backend
from .errors import ConsistencyError, DomainError

__all__ = [
    "QuadratureRule",
    "ln_gamma",
    "ln_beta",
    "gamma_bracket",
    "bessel_j",
    "bessel_j_ladder",
    "weight_mass",
    "jacobi_recurrence",
    "jacobi_norm0",
    "jacobi_table",
    "gauss_jacobi",
]

def ln_gamma(x):
    """log Gamma(x) for a finite real x > 0, a Python or NumPy number."""
    if not isinstance(x, numbers.Real):
        raise DomainError(f"ln_gamma requires a real number, got {type(x).__name__}")
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"ln_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def ln_beta(a, b):
    """log B(a, b) for a, b > 0."""
    return ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)


def gamma_bracket(x):
    """Two-sided bracket (lo, hi) for Gamma(x + 1), x > 0:
    sqrt(2e) ((x+1/2)/e)^(x+1/2) <= Gamma(x+1) <= sqrt(2 pi) ((x+1/2)/e)^(x+1/2).
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_bracket requires finite x > 0, got {x!r}")
    core = (x + 0.5) * (math.log(x + 0.5) - 1.0)
    return (math.exp(0.5 * math.log(2.0 * math.e) + core),
            math.exp(0.5 * math.log(2.0 * math.pi) + core))


def _is_integer(n):
    """Whether n is one Python or NumPy integer, not a bool."""
    return type(n) is int or isinstance(n, np.integer)


def _check_count(name, n, lower=0):
    """Refuse a count ``n`` that is not an integer >= ``lower``."""
    if not (_is_integer(n) and n >= lower):
        raise DomainError(f"{name} must be an integer >= {lower}, got {n!r}")


def _points(x, what):
    """``x``, a number or a 1-d array, as a 1-d float array; an array of
    more dimensions raises DomainError naming ``what`` and its shape."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim > 1:
        raise DomainError(f"{what} must be a number or a 1-d array, got shape {x.shape}")
    return x


def _check_alpha(alpha, lower=-1.0):
    """The weight exponent as a float, finite and > ``lower``: w_a needs
    a > -1; the Jacobi recurrence and h_0 divide by 2a + 1, and a_1 is 0/0
    at a = -1/2, so they take a lower bound of -1/2."""
    if not math.isfinite(alpha) or alpha <= lower:
        raise DomainError(f"alpha must be finite and > {lower:g}, got {alpha!r}")
    return float(alpha)


def weight_mass(alpha):
    """Total mass of the weight: int_{-1}^{1} (1-x^2)^a dx = sqrt(pi) G(a+1)/G(a+3/2)."""
    alpha = _check_alpha(alpha)
    return math.exp(0.5 * math.log(math.pi) + ln_gamma(alpha + 1.0) - ln_gamma(alpha + 1.5))


# ---------------------------------------------------------------------------
# Bessel functions of the first kind, real order nu >= -1/2, x >= 0.
# ---------------------------------------------------------------------------

def _split_order(nu):
    """(base, shift) with nu = base + shift, base in [-1/2, 1/2) a Python
    float, shift >= 0."""
    if not (math.isfinite(nu) and nu >= -0.5):
        raise DomainError(f"bessel order must be finite and >= -1/2, got {nu!r}")
    base = float(nu - math.floor(nu + 0.5))
    return base, int(round(nu - base))


def bessel_j_ladder(nu, kmax, x):
    """J_{nu+j}(x_i) (2/x_i)^b, j = 0..kmax, b the base order of
    :func:`_split_order`, for an array of x_i, one row per argument, as the
    mantissas and exponents of :func:`backend.bessel_ladder`; a row does not
    depend on the other arguments of the call."""
    base, shift = _split_order(nu)
    _check_count("kmax", kmax)
    x = _points(x, "bessel argument")
    bad = np.flatnonzero(~(np.isfinite(x) & (x >= 0.0)))
    if bad.size:
        raise DomainError("bessel argument must be finite and >= 0, "
                          f"got {float(x.flat[bad[0]])!r}")
    mant, expo = backend.bessel_ladder(base, shift + kmax + 1, x)
    return mant[:, shift:], expo[:, shift:]


def bessel_j(nu, x):
    """J_nu(x) for real order nu >= -1/2 and x >= 0: a float for a scalar x,
    an array for an array of x; +inf at x = 0 for nu < 0.  The ladder's value
    times (x/2)^b as x^b 2^-b, so that a subnormal x/2 never rounds."""
    base, _ = _split_order(nu)
    mant, expo = bessel_j_ladder(nu, 0, x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore"):
        lead = np.power(xs, base) * 2.0 ** -base
    # at x = 0 the ladder holds 1 / Gamma(b + 1) at order b and 0 above
    lead[xs == 0.0] = math.inf if nu < 0.0 else float(nu == 0.0)
    lead, shift = np.frexp(lead)
    col = np.ldexp(mant[:, 0] * lead, expo[:, 0] + shift)
    return col if np.ndim(x) else float(col[0])


# ---------------------------------------------------------------------------
# Orthonormal symmetric Jacobi polynomials Jt_k (weight w_a, unit L2 norm).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _recurrence_cached(alpha, m):
    k = np.arange(m, dtype=float)
    with np.errstate(invalid="ignore"):
        a2 = k * (k + 2.0 * alpha) / ((2.0 * k + 2.0 * alpha + 1.0)
                                      * (2.0 * k + 2.0 * alpha - 1.0))
    a2[0] = 0.0
    a = np.sqrt(a2)
    a.setflags(write=False)
    return a


def jacobi_recurrence(alpha, m):
    """Coefficients a_k, k = 0..m-1, of ``x Jt_k = a_{k+1} Jt_{k+1} + a_k Jt_{k-1}``;
    a finite alpha > -1/2 and an integer m >= 1."""
    _check_count("m", m, 1)
    return _recurrence_cached(_check_alpha(alpha, -0.5), int(m))


def jacobi_norm0(alpha):
    """Jt_0(x) = 1/sqrt(h_0), h_0 the squared norm of the constant polynomial;
    a finite alpha > -1/2."""
    alpha = _check_alpha(alpha, -0.5)
    ln_h0 = ((2.0 * alpha + 1.0) * math.log(2.0) + 2.0 * ln_gamma(alpha + 1.0)
             - math.log(2.0 * alpha + 1.0) - ln_gamma(2.0 * alpha + 1.0))
    return math.exp(-0.5 * ln_h0)


def jacobi_table(alpha, kmax, x, nderiv=0):
    """Forward-recurrence table of Jt_k(x), k = 0..kmax, on a point array.

    Returns shape (kmax+1, len(x)) for nderiv == 0, else
    (nderiv+1, kmax+1, len(x)).
    """
    _check_count("kmax", kmax)
    _check_count("nderiv", nderiv)
    x = _points(x, "Jacobi points")
    a = jacobi_recurrence(alpha, kmax + 2)
    _, out = next(backend._jacobi_rows(a, jacobi_norm0(alpha), kmax, x, nderiv,
                                       kmax + 1))
    return out[0] if nderiv == 0 else out


# ---------------------------------------------------------------------------
# Gauss-Jacobi quadrature: nodes are the eigenvalues of the recurrence
# matrix, weights w_j = 1 / sum_k Jt_k(x_j)^2 (the Christoffel function).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule exact for polynomials of degree <= 2*order - 1 against w_a."""

    alpha: float
    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def integrate(self, values):
        """Integral of f against w_a from samples f(nodes)."""
        return np.dot(self.weights, values)


def _build_rule(alpha, m):
    from .eigensolver import SymTridiag, eig_symtridiag

    a = jacobi_recurrence(alpha, m + 1)
    nodes = eig_symtridiag(SymTridiag(np.zeros(m), a[1:m].copy())).values
    # the problem is symmetric under x -> -x; make the node set exactly so
    nodes = 0.5 * (nodes - nodes[::-1])
    if m % 2 == 1:
        nodes[m // 2] = 0.0
    # Christoffel weights keep the tiny end weights relatively accurate, where
    # squared first eigenvector components are accurate only absolutely; and
    # Jt_k(-x)^2 == Jt_k(x)^2 exactly, so they come out exactly symmetric
    table = jacobi_table(alpha, m - 1, nodes)
    weights = 1.0 / np.sum(table * table, axis=0)
    return nodes, weights


@lru_cache(maxsize=64)
def _rule_cached(alpha, m):
    nodes, weights = _build_rule(alpha, m)
    mass = weight_mass(alpha)
    if abs(weights.sum() - mass) > 1e-12 * mass:
        raise ConsistencyError("quadrature weights do not sum to the weight mass")
    if np.any(np.diff(nodes) <= 0.0) or np.any(weights <= 0.0):
        raise ConsistencyError("quadrature nodes/weights failed sanity checks")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(alpha=alpha, order=m, nodes=nodes, weights=weights)


def gauss_jacobi(alpha, m):
    """Gauss-Jacobi rule with m nodes for the weight (1 - x^2)^alpha, alpha > -1/2."""
    alpha = _check_alpha(alpha, -0.5)
    _check_count("quadrature order m", m, 1)
    return _rule_cached(alpha, int(m))
