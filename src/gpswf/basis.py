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

    ``beta`` is one float64 matrix of shape (nmax, trunc): row n holds the
    coefficients of psi_n over the Jacobi indices k = (n mod 2), (n mod 2) +
    2, ...; each row has unit Euclidean norm, the weighted L2 normalization
    of psi_n.  Construction checks the shapes of ``beta`` and ``chi`` (nmax,)
    (:class:`DomainError`) and keeps both read-only.  A basis compares and
    hashes by identity.
    """

    alpha: float
    c: float
    trunc: int
    nmax: int
    chi: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, shape in (("chi", (self.nmax,)), ("beta", (self.nmax, self.trunc))):
            try:
                value = np.asarray(getattr(self, name), dtype=float).view()
            except ValueError as exc:  # rows of unequal length
                raise DomainError(f"{name} is not an array of shape {shape}: {exc}") from exc
            if value.shape != shape:
                raise DomainError(f"{name} has shape {value.shape}, expected {shape}")
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def _check_index(self, n):
        """``n``, one index or a sequence of them, as a 1-d integer array; one
        that is not an integer in 0..nmax-1 raises IndexError."""
        if type(n) is int or isinstance(n, np.integer):  # one index: no array pass
            if 0 <= n < self.nmax:
                return np.array([n], dtype=np.intp)
            raise IndexError(f"basis index out of range 0..{self.nmax - 1}: {n!r}")
        ns = np.asarray(n)
        if ns.size and (ns.dtype.kind not in "iu" or ns.min() < 0 or ns.max() >= self.nmax):
            raise IndexError(f"basis index out of range 0..{self.nmax - 1}: {n!r}")
        return np.atleast_1d(ns).astype(np.intp)

    def full_coefficients(self, n):
        """Coefficients over all Jacobi indices k = 0..2*trunc-1, zero off the
        parity of n: a vector for one n, one row per n (C order) for a
        sequence."""
        rows = self._beta_matrix(n, order="F").T
        return rows[0] if np.ndim(n) == 0 else rows

    def psi(self, n, x, nderiv=0):
        """psi_n and derivatives on an array of points; shape (nderiv+1, len(x)).

        ``n`` may also be a sequence of indices: the result then has shape
        (nderiv+1, len(n), len(x)), from one :func:`backend.jacobi_series`
        call over all of them.
        """
        out = self._series(self._beta_matrix(n), x, nderiv)
        return out[:, 0] if np.ndim(n) == 0 else out

    def _beta_matrix(self, ns, order="C"):
        """The beta^n of each n in ``ns`` (one index or a sequence) as the
        columns of a (2 trunc, len(ns)) matrix over all Jacobi indices, in
        memory order ``order``: row 2i + n mod 2 of column j holds
        ``beta[ns[j], i]``, the rest is 0."""
        ns = self._check_index(ns)
        coef = np.zeros((2 * self.trunc, ns.size), order=order)
        rows = ns % 2 + 2 * np.arange(self.trunc)[:, None]
        coef[rows, np.arange(ns.size)] = self.beta[ns].T
        return coef

    def _series(self, coef, x, nderiv=0):
        """One Jacobi series per column of ``coef`` (2 trunc rows, all Jacobi
        indices) on the points x: :func:`backend.jacobi_series` with this
        basis's recurrence, shape (nderiv+1, ncols, len(x))."""
        rec = specfun.jacobi_recurrence(self.alpha, 2 * self.trunc + 2)
        return backend.jacobi_series(coef, rec, specfun.jacobi_norm0(self.alpha),
                                     x, nderiv)

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


def _march(d, lower, upper, lam):
    """Three-term recurrences of ``(T - lam) v = 0`` from both ends at once.

    Row i reads ``lower[i] v[i-1] + (d[i] - lam) v[i] + upper[i] v[i+1] = 0``
    with ``lower[0] = upper[-1] = 0``.  Direction 0 starts from ``v[-1] = 1``
    and solves each row for ``v[i-1]``; direction 1 starts from ``v[0] = 1``
    and solves each row for ``v[i+1]``.  Both run as one march over a state
    of shape (2, len(lam)), one column per eigenvalue, each element through
    the IEEE operations of its own one-direction march.  Returns mantissas
    and exponents, ``v = mant * 2**(600 * exp)``, of shape (m, 2, len(lam)):
    ``[:, 0]`` holds direction 0 by row, ``[::-1, 1]`` direction 1.
    """
    m = d.size
    # coefficients of step i, shape (m, 2, 1): direction 1 reads the rows
    # reversed, with the roles of lower and upper swapped
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
        # v[i-1] = ((lam - d[i]) v[i] - upper[i] v[i+1]) / lower[i], written
        # straight into its row; the row stays the state of the next step
        np.subtract(lam, dd[i], out=t)
        t *= v
        np.multiply(near[i], v_next, out=w)
        t -= w
        v, v_next = np.divide(t, far[i], out=mant[i - 1]), v
        np.abs(v, out=w)
        if np.maximum.reduce(w, axis=None, initial=0.0) > backend._RESCALE:
            big = w > backend._RESCALE
            v[big] /= backend._RESCALE
            # a fresh array: v_next is the row above, stored at its old scale
            v_next = np.where(big, v_next / backend._RESCALE, v_next)
            scale[big] += 1
        expo[i - 1] = scale
    return mant, expo


def _recurrence_vectors(tri, lam):
    """Unit eigenvectors of the tridiagonal ``tri`` (positive off-diagonal)
    for the eigenvalues ``lam``, as the columns of the returned array.

    Above its largest entries an eigenvector decays: there it is the minimal
    solution of the three-term recurrence, which marching up from the last
    row computes stably.  Below, it is the solution that grows upward from
    row 0, which marching down from row 0 computes stably.  :func:`_march`
    runs both marches as one; they are spliced at the first local peak of
    |v| seen from the last row, and every entry keeps its relative accuracy,
    however small (Gautschi, SIAM Rev. 9, 1967).
    """
    d, e = tri.diag, tri.offdiag
    m = d.size
    lower = np.concatenate([[0.0], e])   # coefficient of v[i-1] in row i
    upper = np.concatenate([e, [0.0]])   # coefficient of v[i+1] in row i
    mant, expo = _march(d, lower, upper, lam)
    b_mant, b_exp = mant[:, 0], expo[:, 0]
    f_mant, f_exp = mant[::-1, 1], expo[::-1, 1]
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


# The truncation rule.  Cache entries are keyed on (alpha, c, nmax) alone, so
# a change to any of these three, or to the start order below, must come with
# a bump of ``experiments._FORMAT_VERSION``.
_TAIL_BUFFER = 8   # trailing coefficients whose squared mass is checked
_TAIL_TOL = 1e-24  # largest squared tail mass accepted in any eigenvector
_M_CAP = 8192      # largest per-parity order reached by doubling


def _start_order(c, nmax):
    """The first per-parity order tried: ``ceil(hypot(nmax, c) / 2) + 40``.

    By the bracket of :func:`chi_bracket` every kept chi_n is at most
    nmax(nmax + 2a + 1) + c^2, so above Jacobi degree K* ~ hypot(nmax, c)
    each diagonal entry of the coefficient matrix exceeds every kept chi and
    the eigenvectors decay there.  Row i of a parity block is degree 2i + p,
    so K* / 2 rows reach K*, and 40 more hold the decay.
    """
    return math.ceil(math.hypot(nmax, c) / 2) + 40


def _truncation_orders(c, nmax):
    """Per-parity truncation orders that :func:`build_basis` tries, in order:
    :func:`_start_order`, then doublings while they stay within ``_M_CAP``.
    A start past the cap raises TruncationError before any order is tried.
    """
    m = _start_order(c, nmax)
    if m > _M_CAP:
        raise TruncationError(f"start order {m} for c={c!r}, nmax={nmax} is past "
                              f"the truncation cap {_M_CAP}")
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
        if M < (nmax + 1) // 2:
            raise TruncationError(
                f"truncation order {M} gives fewer than {(nmax + 1) // 2} "
                f"rows per parity for nmax={nmax}")
        tris = [assemble_eigensystem(alpha, c, M, p) for p in ("even", "odd")]
        spectra = [eig_symtridiag(t).values for t in tris]
        chi = _merge_parities(*spectra, nmax)
        # n of parity p is column n // 2 of that parity's spectrum
        beta = np.empty((nmax, M))
        for p, (t, s) in enumerate(zip(tris, spectra)):
            beta[p::2] = _recurrence_vectors(t, s[:(nmax - p + 1) // 2]).T
        tails = np.sum(beta[:, -_TAIL_BUFFER:] ** 2, axis=1)
        worst = int(np.argmax(tails))  # the first NaN, if there is one
        if tails[worst] <= _TAIL_TOL:
            break
        if not math.isfinite(tails[worst]):
            # a larger order repeats the overflow: refuse at the first
            raise TruncationError(
                f"coefficient tail mass {tails[worst]} at n={worst}, truncation "
                f"order {M}: the eigenvector march overflowed at c={c!r}, whose "
                f"off-diagonals fall to {min(t.offdiag.min() for t in tris):.3e}",
                n=worst, tail_mass=float(tails[worst]))
    else:
        raise TruncationError(
            f"coefficient tail mass {tails[worst]:.3e} at n={worst} still "
            f"above {_TAIL_TOL:.1e} at truncation order {M}",
            n=worst, tail_mass=float(tails[worst]))
    _apply_sign_convention(alpha, M, beta)
    return GpswfBasis(alpha=float(alpha), c=float(c), trunc=M, nmax=int(nmax),
                      chi=chi, beta=beta)


def _apply_sign_convention(alpha, M, beta):
    # even n: psi_n(0) > 0; odd n: psi_n'(0) > 0; if the value at 0 is
    # numerically nil, fall back to the largest-|beta| coefficient positive
    table = specfun.jacobi_table(alpha, 2 * M - 1, np.array([0.0]), nderiv=1)
    s = np.empty(beta.shape[0])
    for p in (0, 1):
        s[p::2] = beta[p::2] @ table[p, p::2, 0]
    nil = np.flatnonzero(np.abs(s) < 1e-13)
    s[nil] = beta[nil, np.argmax(np.abs(beta[nil]), axis=1)]
    beta[s < 0.0] *= -1.0


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


def _improved_regime(alpha, q):
    """Whether the improved chi bound and the local estimate apply: alpha <=
    1/4 and q = c^2 / chi_n < 3/17."""
    return alpha <= 0.25 and q < 3.0 / 17.0


def chi_lower_bound_check(basis, n):
    """Improved lower bound check, applicable for alpha <= 1/4 and q < 3/17."""
    basis._check_index(n)
    chi = float(basis.chi[n])
    q = basis.c ** 2 / chi
    applicable = _improved_regime(basis.alpha, q)
    c_alpha = improved_chi_constant(basis.alpha)
    base, upper = chi_bracket(basis.alpha, basis.c, n)
    lower = base + c_alpha * basis.c ** 2
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
    alpha <= 1/4 and q = c^2/chi_n < 3/17; ``ok`` holds when it does not
    apply or when all three inequalities hold to 1e-9.
    """

    n: int
    q: float
    sup_value: float
    a_squared: float
    b_moment: float
    bound_applicable: bool
    alpha: float

    @property
    def ok(self):
        return (not self.bound_applicable) or (
            self.sup_value <= self.a_squared + 1e-9
            and self.a_squared <= 2 * self.alpha + 1 + 1e-9
            and 1 - self.b_moment <= 2 * self.a_squared + 1e-9)


def _estimate_grid(grid_size):
    # Chebyshev-style clustering toward x = 1 where the envelope varies fastest
    return np.sin(0.5 * math.pi * np.linspace(0.0, 1.0, grid_size))


@lru_cache(maxsize=1)
def _psi_at0(basis):
    """psi_n(0) and psi_n'(0) for every n of the basis, shape (2, nmax),
    read-only.  The spectrum's boundary identity and the local estimate's A^2
    both read it, so one entry (2 nmax doubles) keyed on the basis's
    identity serves both."""
    at0 = basis.psi(range(basis.nmax), np.array([0.0]), 1)[:, :, 0]
    at0.setflags(write=False)
    return at0


@lru_cache(maxsize=1)
def _estimate_values(basis, grid_size):
    """q_n, the sampled sup, A_n^2 and B_n (:func:`moment_b`) for every n of
    the basis, one tuple of floats each.

    :func:`local_estimate` is called once per n of one basis in turn, so one
    entry, keyed on the basis's identity, serves them all.  The sup comes
    from one (nmax, grid_size) array pass; A^2 stays a scalar expression per
    n, since a scalar pow and an array square of the same double may differ
    in the last bit.
    """
    ns = range(basis.nmax)
    x = _estimate_grid(grid_size)
    q = basis.c ** 2 / basis.chi
    moments = moment_b(basis, ns)
    psi = basis.psi(ns, x, 0)[0]
    # sqrt((1 - x^2)(1 - q x^2)) w_a(x) psi_n(x)^2, formed in place
    x2 = x ** 2
    curve = 1.0 - q[:, None] * x2
    curve *= 1.0 - x2
    np.sqrt(np.maximum(curve, 0.0, out=curve), out=curve)
    curve *= (1.0 - x2) ** basis.alpha
    psi **= 2
    curve *= psi
    at0 = _psi_at0(basis)
    chi = basis.chi.tolist()
    a_squared = tuple(float(at0[0, n] ** 2 + at0[1, n] ** 2 / chi[n]) for n in ns)
    return (tuple(q.tolist()), tuple(np.max(curve, axis=1).tolist()), a_squared,
            tuple(moments.tolist()))


# The largest local-estimate grid: the psi table and the curve of
# _estimate_values hold about 24 bytes per n and grid point, 2.4 MB per n
# at the cap
_MAX_GRID_SIZE = 10 ** 5


def _check_grid_size(grid_size):
    """The local estimate's grid range, which ``gpswf bounds`` checks before
    it builds anything."""
    if not 100 <= grid_size <= _MAX_GRID_SIZE:
        raise DomainError(f"grid_size must lie in 100..{_MAX_GRID_SIZE}, got {grid_size!r}")


def local_estimate(basis, n, grid_size=400):
    _check_grid_size(grid_size)
    basis._check_index(n)
    q, sup, a_squared, moments = _estimate_values(basis, grid_size)
    return LocalEstimateReport(n=n, q=q[n], sup_value=sup[n],
                               a_squared=a_squared[n], b_moment=moments[n],
                               bound_applicable=_improved_regime(basis.alpha, q[n]),
                               alpha=basis.alpha)


def moment_b(basis, n):
    """B = int x^2 psi_n(x)^2 w_a(x) dx, exactly, as ||J beta||^2: a float
    for one n, an array for a sequence of n.

    With psi = sum_k f_k Jt_k, the product x psi has the coefficients
    (x psi)_k = a_k f_{k-1} + a_{k+1} f_{k+1}; orthonormality of the Jt_k
    turns the integral into their sum of squares, one dot product per n.
    """
    f = basis.full_coefficients(n)
    m = f.shape[-1]
    a = specfun.jacobi_recurrence(basis.alpha, m + 1)
    g = np.zeros(f.shape[:-1] + (m + 1,))
    g[..., 1:] += a[1:] * f
    g[..., :m - 1] += a[1:m] * f[..., 1:]
    sums = np.array([np.dot(row, row) for row in np.atleast_2d(g)])
    return float(sums[0]) if np.ndim(n) == 0 else sums


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
    basis._check_index(n)
    chi = float(basis.chi[n])
    q = basis.c ** 2 / chi
    # beta_k^n is row n's entry k // 2 at the parity of n, and 0 elsewhere
    on_row = k % 2 == n % 2 and k < 2 * basis.trunc
    beta_k = abs(float(basis.beta[n, k // 2])) if on_row else 0.0
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
