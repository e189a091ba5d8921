"""Scalar special functions and Gauss-Jacobi quadrature for the weight
``w_a(x) = (1 - x^2)^a`` on [-1, 1]."""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import backend
from .errors import ConsistencyError, DomainError

__all__ = [
    "JacobiParams",
    "QuadratureRule",
    "ln_gamma",
    "ln_beta",
    "gamma_bracket",
    "bessel_j",
    "bessel_j_ladder",
    "bessel_j_ladders",
    "weight_mass",
    "jacobi_recurrence",
    "jacobi_norm0",
    "jacobi_normalized",
    "jacobi_table",
    "gauss_jacobi",
]

def ln_gamma(x):
    """log Gamma(x) for finite x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0.0:
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


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponent for w_a(x) = (1 - x^2)^a; requires a > -1."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha) or self.alpha <= -1.0:
            raise DomainError(f"alpha must be finite and > -1, got {self.alpha!r}")

    def weight(self, x):
        return (1.0 - np.asarray(x) ** 2) ** self.alpha


def _alpha_of(params):
    return params.alpha if isinstance(params, JacobiParams) else JacobiParams(params).alpha


def weight_mass(alpha):
    """Total mass of the weight: int_{-1}^{1} (1-x^2)^a dx = sqrt(pi) G(a+1)/G(a+3/2)."""
    return math.exp(0.5 * math.log(math.pi) + ln_gamma(alpha + 1.0) - ln_gamma(alpha + 1.5))


# ---------------------------------------------------------------------------
# Bessel functions of the first kind, real order nu >= -1/2, x >= 0.
# ---------------------------------------------------------------------------

def _split_order(nu):
    """(base, shift) with nu = base + shift, base in [-1/2, 1/2), shift >= 0."""
    if nu < -0.5:
        raise DomainError(f"bessel order must be >= -1/2, got {nu!r}")
    base = nu - math.floor(nu + 0.5)
    return base, int(round(nu - base))


def _check_argument(x):
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"bessel argument must be finite and >= 0, got {x!r}")


def bessel_j_ladder(nu, kmax, x):
    """Array J_{nu+j}(x) for j = 0..kmax (one backward recurrence for all)."""
    base, shift = _split_order(nu)
    _check_argument(x)
    full = backend.bessel_ladder(base, shift + kmax + 1, float(x))
    return np.asarray(full)[shift:]


def bessel_j_ladders(nu, kmax, x):
    """J_{nu+j}(x_i), j = 0..kmax, one row per argument; row i is bitwise
    equal to ``bessel_j_ladder(nu, kmax, x_i)``."""
    base, shift = _split_order(nu)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    for xi in x.tolist():
        _check_argument(xi)
    return backend.bessel_ladders(base, shift + kmax + 1, x)[:, shift:]


def bessel_j(nu, x):
    """J_nu(x) for real order nu >= -1/2 and x >= 0."""
    return float(bessel_j_ladder(nu, 0, x)[0])


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
    """Coefficients a_k, k = 0..m-1, of ``x Jt_k = a_{k+1} Jt_{k+1} + a_k Jt_{k-1}``."""
    return _recurrence_cached(float(alpha), int(m))


def jacobi_norm0(alpha):
    """Jt_0(x) = 1/sqrt(h_0), h_0 the squared norm of the constant polynomial."""
    ln_h0 = ((2.0 * alpha + 1.0) * math.log(2.0) + 2.0 * ln_gamma(alpha + 1.0)
             - math.log(2.0 * alpha + 1.0) - ln_gamma(2.0 * alpha + 1.0))
    return math.exp(-0.5 * ln_h0)


def jacobi_normalized(k, params, x, derivative=0):
    """Orthonormal Jacobi polynomial Jt_k(x) (or derivative of order 1 or 2)."""
    alpha = _alpha_of(params)
    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k!r}")
    if derivative not in (0, 1, 2):
        raise DomainError("derivative order must be 0, 1 or 2")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xa) > 1.0 + 8.0 * np.finfo(float).eps) or not np.all(np.isfinite(xa)):
        raise DomainError("jacobi_normalized requires |x| <= 1")
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    rec = jacobi_recurrence(alpha, k + 3)
    out = backend.jacobi_series(coef, rec, jacobi_norm0(alpha), xa, derivative)
    vals = out[derivative]
    return float(vals[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else vals


def jacobi_table(alpha, kmax, x, nderiv=0):
    """Forward-recurrence table of Jt_k(x), k = 0..kmax, on a point array.

    Returns shape (kmax+1, len(x)) for nderiv == 0, else
    (nderiv+1, kmax+1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = jacobi_recurrence(alpha, kmax + 2)
    p0 = jacobi_norm0(alpha)
    vals = np.zeros((kmax + 1, x.size))
    vals[0] = p0
    if kmax >= 1:
        vals[1] = x * p0 / a[1]
        for k in range(1, kmax):
            vals[k + 1] = (x * vals[k] - a[k] * vals[k - 1]) / a[k + 1]
    if nderiv == 0:
        return vals
    out = np.zeros((nderiv + 1, kmax + 1, x.size))
    out[0] = vals
    # differentiating x p_k = a_{k+1} p_{k+1} + a_k p_{k-1} d times gives
    # a_{k+1} p_{k+1}^(d) = x p_k^(d) + d p_k^(d-1) - a_k p_{k-1}^(d)
    for d in range(1, nderiv + 1):
        dv = out[d]
        prev = out[d - 1]
        if kmax >= 1:
            dv[1] = (d * prev[0] + x * dv[0]) / a[1]
            for k in range(1, kmax):
                dv[k + 1] = (d * prev[k] + x * dv[k] - a[k] * dv[k - 1]) / a[k + 1]
    return out


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

    def integrate_fn(self, f):
        return self.integrate(f(self.nodes))


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


def gauss_jacobi(params, m):
    """Gauss-Jacobi rule with m nodes for the weight (1 - x^2)^alpha."""
    alpha = _alpha_of(params)
    if int(m) < 1:
        raise DomainError(f"quadrature order must be >= 1, got {m!r}")
    return _rule_cached(float(alpha), int(m))
