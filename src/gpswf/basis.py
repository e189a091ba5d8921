"""Wave-function bases for the weighted finite Fourier transform.

For fixed (alpha, c) the basis functions expand in orthonormal symmetric
Jacobi polynomials, psi_n = sum_k beta_k^n Jt_k, where the coefficient
vectors solve a symmetric tridiagonal eigensystem coupling k to k +/- 2.
Even and odd k decouple, so the two parities are solved separately and the
spectra merged.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import backend, specfun
from .eigensolver import SymTridiag, eig_symtridiag
from .errors import ConsistencyError, DomainError, TruncationError

__all__ = [
    "GpswfBasis",
    "LocalEstimateReport",
    "ChiBoundVerdict",
    "BetaBoundVerdict",
    "assemble_eigensystem",
    "build_basis",
    "chi_bracket",
    "chi_lower_bound_check",
    "improved_chi_constant",
    "beta_bound_constant",
    "decay_regime_multiplier",
    "beta_bound_check",
    "local_estimate",
]

_PARITIES = {"even": 0, "odd": 1}


def assemble_eigensystem(alpha, c, M, parity):
    """Tridiagonal matrix of the coefficient eigensystem for one parity.

    Row i corresponds to Jacobi index k = 2*i + parity, i = 0..M-1.  The
    diagonal is k(k + 2a + 1) + c^2 (a_k^2 + a_{k+1}^2) and the coupling of k
    to k+2 is c^2 a_{k+1} a_{k+2}, with a_k the orthonormal-Jacobi recurrence
    coefficients; these products equal the usual closed-form rational
    expressions in k and alpha but stay finite at the removable singularity
    k = 0, alpha = 1/2.
    """
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise DomainError(f"alpha must be > -1, got {alpha!r}")
    if not math.isfinite(c) or c < 0.0:
        raise DomainError(f"bandwidth c must be >= 0, got {c!r}")
    if M < 2:
        raise DomainError(f"truncation order must be >= 2, got {M!r}")
    p = _PARITIES.get(parity)
    if p is None:
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    k = 2.0 * np.arange(M) + p
    a = specfun.jacobi_recurrence(alpha, 2 * M + p + 2)
    c2 = c * c
    diag = k * (k + 2.0 * alpha + 1.0) + c2 * (a[k.astype(int)] ** 2
                                               + a[k.astype(int) + 1] ** 2)
    ki = k.astype(int)[:-1]
    offdiag = c2 * a[ki + 1] * a[ki + 2]
    return SymTridiag(diag, offdiag)


@dataclass(frozen=True, eq=False)
class GpswfBasis:
    """Eigenpairs (chi_n, beta^n) of a fixed (alpha, c) family.

    ``beta[n]`` holds the coefficients over Jacobi indices of parity n mod 2,
    i.e. k = (n mod 2), (n mod 2) + 2, ..., length ``trunc``; each vector has
    unit Euclidean norm, which equals the weighted L2 normalization of psi_n.
    A basis compares and hashes by identity.
    """

    alpha: float
    c: float
    trunc: int
    nmax: int
    chi: np.ndarray = field(repr=False)
    beta: tuple = field(repr=False)

    def full_coefficients(self, n):
        """Coefficient vector over all Jacobi indices k = 0..2*trunc-1."""
        full = np.zeros(2 * self.trunc)
        full[n % 2::2] = self.beta[n]
        return full

    def psi(self, n, x, nderiv=0):
        """psi_n and derivatives on an array of points; shape (nderiv+1, len(x)).

        ``n`` may also be a sequence of indices: the result then has shape
        (nderiv+1, len(n), len(x)), from one :func:`backend.jacobi_series`
        call over all of them.
        """
        ns = [n] if np.ndim(n) == 0 else list(n)
        coef = np.zeros((2 * self.trunc, len(ns)))
        for j, k in enumerate(ns):
            if not 0 <= k < self.nmax:
                raise IndexError(f"basis index {k} out of range (nmax={self.nmax})")
            coef[k % 2::2, j] = self.beta[k]
        rec = specfun.jacobi_recurrence(self.alpha, 2 * self.trunc + 2)
        out = backend.jacobi_series(coef, rec, specfun.jacobi_norm0(self.alpha),
                                    x, nderiv)
        return out[:, 0] if np.ndim(n) == 0 else out

    def psi_table(self, x, n_list=None, nderiv=0):
        """Values (and derivatives) of many psi_n on a node array at once:
        ``psi(n_list, x, nderiv)``, all n by default, shape (len(n_list),
        len(x)) when nderiv is 0."""
        out = self.psi(range(self.nmax) if n_list is None else n_list, x, nderiv)
        return out[0] if nderiv == 0 else out


def _merge_parities(chi_even, chi_odd, nmax):
    chi = np.concatenate([chi_even, chi_odd])
    parity = np.concatenate([np.zeros(chi_even.size, dtype=int),
                             np.ones(chi_odd.size, dtype=int)])
    order = np.argsort(chi, kind="stable")
    chi, parity = chi[order], parity[order]
    if np.any(parity[:nmax] != np.arange(nmax) % 2):
        raise ConsistencyError("even/odd spectra failed to interleave")
    scale = np.maximum(1.0, np.abs(chi[1:nmax]))
    if np.any(np.diff(chi[:nmax]) <= 1e-12 * scale):
        raise ConsistencyError("merged eigenvalues are not strictly increasing")
    return chi[:nmax]


_RESCALE_LOG2 = 600
_RESCALE = 2.0 ** _RESCALE_LOG2


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
        big = np.abs(v) > _RESCALE
        if big.any():
            v[big] /= _RESCALE
            v_next[big] /= _RESCALE
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
        size = np.log2(np.abs(b_mant)) + _RESCALE_LOG2 * b_exp
    # peak: the largest row p whose predecessor p-1 is no larger than it
    flat = size[:-1] <= size[1:]
    last = m - 2 - np.argmax(flat[::-1], axis=0)
    peak = np.where(flat.any(axis=0), last + 1, 0)
    cols = np.arange(lam.size)
    below = np.arange(m)[:, None] < peak
    mant = np.where(below, f_mant / f_mant[peak, cols], b_mant / b_mant[peak, cols])
    expo = np.where(below, f_exp - f_exp[peak, cols], b_exp - b_exp[peak, cols])
    z = np.ldexp(mant, (_RESCALE_LOG2 * expo).astype(np.int32))
    return z / np.linalg.norm(z, axis=0)


# The truncation rule.  Cache entries are keyed on (alpha, c, nmax) alone, so
# a change to any of these three, or to the start order below, must come with
# a bump of ``experiments._FORMAT_VERSION``.
_TAIL_BUFFER = 8   # trailing coefficients whose squared mass is checked
_TAIL_TOL = 1e-24  # largest squared tail mass accepted in any eigenvector
_M_CAP = 8192      # largest per-parity order reached by doubling


def _truncation_orders(c, nmax):
    """Per-parity truncation orders that :func:`build_basis` tries, in order:
    ``nmax + ceil(c) + 40``, then doublings while they stay within ``_M_CAP``.
    """
    m = nmax + math.ceil(c) + 40
    yield m
    while 2 * m <= _M_CAP:
        m *= 2
        yield m


def build_basis(alpha, c, nmax):
    """Build a basis with nmax eigenpairs, choosing the truncation adaptively.

    The per-parity truncation runs through :func:`_truncation_orders` until
    the squared mass in the last ``_TAIL_BUFFER`` coefficients of every
    retained eigenvector is below ``_TAIL_TOL``.  Eigenvalues come from
    :func:`eig_symtridiag` (LAPACK), eigenvectors from the spliced recurrence of :func:`_recurrence_vectors`.
    """
    if not math.isfinite(alpha) or alpha < 0.0:
        raise DomainError(f"basis construction requires alpha >= 0, got {alpha!r}")
    if not math.isfinite(c) or c <= 0.0:
        raise DomainError(f"basis construction requires c > 0, got {c!r}")
    if nmax < 1:
        raise DomainError(f"nmax must be >= 1, got {nmax!r}")
    for M in _truncation_orders(c, nmax):
        tris = [assemble_eigensystem(alpha, c, M, p) for p in ("even", "odd")]
        spectra = [eig_symtridiag(t).values for t in tris]
        chi = _merge_parities(*spectra, nmax)
        # n of parity p is column n // 2 of that parity's spectrum
        vecs = [_recurrence_vectors(t, s[:(nmax - p + 1) // 2])
                for p, (t, s) in enumerate(zip(tris, spectra))]
        beta = [vecs[n % 2][:, n // 2].copy() for n in range(nmax)]
        tails = [float(np.sum(vec[-_TAIL_BUFFER:] ** 2)) for vec in beta]
        worst = int(np.argmax(tails))
        if tails[worst] <= _TAIL_TOL:
            break
    else:
        raise TruncationError(
            f"coefficient tail mass {tails[worst]:.3e} at n={worst} still "
            f"above {_TAIL_TOL:.1e} at truncation order {M}",
            n=worst, tail_mass=tails[worst])
    _apply_sign_convention(alpha, M, beta)
    chi = np.array(chi)
    chi.setflags(write=False)
    return GpswfBasis(alpha=float(alpha), c=float(c), trunc=M, nmax=int(nmax),
                      chi=chi, beta=tuple(beta))


def _apply_sign_convention(alpha, M, beta):
    # even n: psi_n(0) > 0; odd n: psi_n'(0) > 0; if the value at 0 is
    # numerically nil, fall back to the largest-|beta| coefficient positive
    table = specfun.jacobi_table(alpha, 2 * M - 1, np.array([0.0]), nderiv=1)
    j0 = table[0, :, 0]
    j0p = table[1, :, 0]
    for n, vec in enumerate(beta):
        ref = j0[n % 2::2] if n % 2 == 0 else j0p[n % 2::2]
        s = float(np.dot(vec, ref))
        if abs(s) < 1e-13:
            s = vec[int(np.argmax(np.abs(vec)))]
        if s < 0.0:
            vec *= -1.0


def chi_bracket(alpha, c, n):
    """Two-sided bracket n(n+2a+1) <= chi_n <= n(n+2a+1) + c^2."""
    base = n * (n + 2.0 * alpha + 1.0)
    return base, base + c * c


def improved_chi_constant(alpha):
    """C_a = 2(2a+1)^2 + 1 - 2(2a+1) sqrt(1 + (2a+1)^2)."""
    t = 2.0 * alpha + 1.0
    return 2.0 * t * t + 1.0 - 2.0 * t * math.sqrt(1.0 + t * t)


@dataclass(frozen=True)
class ChiBoundVerdict:
    n: int
    chi: float
    q: float
    applicable: bool
    c_alpha: float
    lower: float
    upper: float
    margin_lower: float
    margin_upper: float

    @property
    def ok(self):
        return (not self.applicable) or (self.margin_lower >= 0.0
                                         and self.margin_upper >= 0.0)


def chi_lower_bound_check(basis, n):
    """Improved lower bound check, applicable for alpha <= 1/4 and q < 3/17."""
    chi = float(basis.chi[n])
    q = basis.c ** 2 / chi
    applicable = basis.alpha <= 0.25 and q < 3.0 / 17.0
    c_alpha = improved_chi_constant(basis.alpha)
    base = n * (n + 2.0 * basis.alpha + 1.0)
    lower = base + c_alpha * basis.c ** 2
    upper = base + basis.c ** 2
    return ChiBoundVerdict(n=n, chi=chi, q=q, applicable=applicable,
                           c_alpha=c_alpha, lower=lower, upper=upper,
                           margin_lower=chi - lower, margin_upper=upper - chi)


@dataclass(frozen=True)
class LocalEstimateReport:
    """Pointwise amplitude diagnostic for one basis function.

    sup_value  = sup over sampled x in [0,1] of
                 sqrt((1-x^2)(1-q x^2)) * w_a(x) * psi_n(x)^2
    a_squared  = psi_n(0)^2 + psi_n'(0)^2 / chi_n
    b_moment   = int x^2 psi_n^2 w_a dx
    The bound sup <= A^2 <= 2a+1 (and 1 - B <= 2 A^2) applies when
    alpha <= 1/4 and q = c^2/chi_n < 3/17.
    """

    n: int
    q: float
    sup_value: float
    a_squared: float
    b_moment: float
    bound_applicable: bool


def _estimate_grid(grid_size):
    # Chebyshev-style clustering toward x = 1 where the envelope varies fastest
    return np.sin(0.5 * math.pi * np.linspace(0.0, 1.0, grid_size))


@lru_cache(maxsize=1)
def _estimate_values(basis, grid_size):
    """Every psi_n of the basis on the local-estimate grid (shape
    (nmax, grid_size)) and psi_n, psi_n' at x = 0 (shape (2, nmax)), read-only.

    :func:`local_estimate` is called once per n of one basis in turn, so one
    entry serves them all; the key is the basis's identity.
    """
    ns = range(basis.nmax)
    grid = basis.psi(ns, _estimate_grid(grid_size), 0)[0]
    at0 = basis.psi(ns, np.array([0.0]), 1)[:, :, 0]
    grid.setflags(write=False)
    at0.setflags(write=False)
    return grid, at0


def local_estimate(basis, n, grid_size=400):
    if grid_size < 100:
        raise DomainError("grid_size must be >= 100")
    if not 0 <= n < basis.nmax:
        raise IndexError(f"basis index {n} out of range (nmax={basis.nmax})")
    chi = float(basis.chi[n])
    q = basis.c ** 2 / chi
    x = _estimate_grid(grid_size)
    grid, at0 = _estimate_values(basis, grid_size)
    psi = grid[n]
    envelope = np.sqrt(np.maximum((1.0 - x ** 2) * (1.0 - q * x ** 2), 0.0))
    w = (1.0 - x ** 2) ** basis.alpha
    sup_value = float(np.max(envelope * w * psi ** 2))
    a_squared = float(at0[0, n] ** 2 + at0[1, n] ** 2 / chi)
    b_moment = moment_b(basis, n)
    applicable = basis.alpha <= 0.25 and q < 3.0 / 17.0
    return LocalEstimateReport(n=n, q=q, sup_value=sup_value,
                               a_squared=a_squared, b_moment=b_moment,
                               bound_applicable=applicable)


def moment_b(basis, n):
    """B = int x^2 psi_n(x)^2 w_a(x) dx, exactly, as ||J beta||^2.

    With psi = sum_k f_k Jt_k, the product x psi has the coefficients
    (x psi)_k = a_k f_{k-1} + a_{k+1} f_{k+1}; orthonormality of the Jt_k
    turns the integral into their sum of squares.
    """
    f = basis.full_coefficients(n)
    m = f.size
    a = specfun.jacobi_recurrence(basis.alpha, m + 1)
    g = np.zeros(m + 1)
    g[1:] += a[1:] * f
    g[:m - 1] += a[1:m] * f[1:]
    return float(np.dot(g, g))


def beta_bound_constant(alpha):
    """C_a = 2^a (3/2)^(3/4) (3/2 + 2a)^(3/4 + a) / e^(2a + 3/2)."""
    return math.exp(alpha * math.log(2.0) + 0.75 * math.log(1.5)
                    + (0.75 + alpha) * math.log(1.5 + 2.0 * alpha)
                    - (2.0 * alpha + 1.5))


def decay_regime_multiplier(alpha):
    """m_a = 4.13 (1.28 + (2a+1)/1.9)^0.55, the N/c threshold for the
    exponential coefficient-decay regime."""
    return 4.13 * (1.28 + (2.0 * alpha + 1.0) / 1.9) ** 0.55


@dataclass(frozen=True)
class BetaBoundVerdict:
    n: int
    k: int
    q: float
    c_alpha: float
    log_bound: float
    log_beta: float
    margin: float
    applicable_q: bool
    condition_value: float
    condition_ok: bool | None
    regime: bool

    @property
    def holds(self):
        return self.margin >= 0.0


def beta_bound_check(basis, n, k, mu_abs, c_prime=None):
    """Check |beta_k^n| <= C_a (2 sqrt(chi_n)/c)^k |mu_n| (log space).

    The applicability condition k(k+2a+1) + C'_a c^2 <= chi_n involves an
    unspecified constant C'_a; pass ``c_prime`` to evaluate it, otherwise the
    condition value k(k+2a+1) is only reported.  Also flags the regime
    k <= n/1.9 and n >= m_a c of the exponential decay estimate.
    """
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
