"""Wave-function bases for the weighted finite Fourier transform.

For fixed (alpha, c) the basis functions expand in orthonormal symmetric
Jacobi polynomials, psi_n = sum_k beta_k^n Jt_k, where the coefficient
vectors solve a symmetric tridiagonal eigensystem coupling k to k +/- 2.
Even and odd k decouple, so the two parities are solved separately and the
spectra merged.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import backend, specfun
from .eigensolver import SymTridiag, eig_symtridiag
from .errors import ConsistencyError, DomainError, TruncationError
from .specfun import _check_count, _is_integer

__all__ = [
    "GpswfBasis",
    "LocalEstimateReport",
    "ChiBoundVerdict",
    "assemble_eigensystem",
    "build_basis",
    "chi_bracket",
    "chi_lower_bound_check",
    "improved_chi_constant",
    "decay_regime_multiplier",
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
    _check_count("truncation order M", M, 2)
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
    hashes by identity, and keeps the tables derived from it alone
    (:meth:`_table`), so they are freed with it.
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
        object.__setattr__(self, "_tables", {})

    def _table(self, kind, key, make):
        """``make()``, read-only if an array, kept in one slot per ``kind``
        until ``key`` changes; a copy by ``dataclasses.replace`` or from
        bytes starts with none."""
        kept = self._tables.get(kind)
        if kept is None or kept[0] != key:
            kept = self._tables[kind] = (key, make())
            if isinstance(kept[1], np.ndarray):
                kept[1].setflags(write=False)
        return kept[1]

    def _check_index(self, n):
        """``n``, one index or a sequence of them, as a 1-d integer array; one
        that is not an integer in 0..nmax-1 raises IndexError."""
        if _is_integer(n):  # one index: no array pass
            if 0 <= n < self.nmax:
                return np.array([n], dtype=np.intp)
            raise IndexError(f"basis index out of range 0..{self.nmax - 1}: {n!r}")
        ns = np.asarray(n)
        if ns.size and (ns.dtype.kind not in "iu" or ns.min() < 0 or ns.max() >= self.nmax):
            raise IndexError(f"basis index out of range 0..{self.nmax - 1}: {n!r}")
        return np.atleast_1d(ns).astype(np.intp)

    def psi(self, n, x, nderiv=0):
        """psi_n and derivatives on an array of points; shape (nderiv+1, len(x)).

        ``n`` may also be a sequence of indices: the result then has shape
        (nderiv+1, len(n), len(x)).  One :func:`backend.jacobi_series` call
        sums each parity's coefficients over that parity's rows at the
        distinct |x|; the value at x is sign(x)^((n + d) mod 2) times that.
        """
        ns = self._check_index(n)
        _check_count("nderiv", nderiv)
        x = specfun._points(x, "psi points")
        u, index = _distinct_abs(x)
        rec = specfun.jacobi_recurrence(self.alpha, 2 * self.trunc + 2)
        sums = backend.jacobi_series(self._parity_coefficients(ns), rec,
                                     specfun.jacobi_norm0(self.alpha), u, nderiv)
        out = _unfold(ns, sums, index, x < 0.0)
        return out[:, 0] if np.ndim(n) == 0 else out

    def _parity_coefficients(self, ns):
        """Per parity p, the beta rows of the n of ``ns`` of that parity as the
        columns of a C-order matrix (:func:`backend.jacobi_series`): BLAS
        rounds products over beta's own row layout differently at some x."""
        return [np.take(self.beta.T, ns[ns % 2 == p], axis=1) for p in (0, 1)]

    def _abs_rows(self, kind, key, x):
        """(index, neg, rows), read-only, kept under ``kind`` for ``key``:
        ``rows[p][i, j] = Jt_{2i+p}(u_j)`` at the distinct |x| u_j, the index
        of each point's |x| among them, and where x < 0."""
        def make():
            u, index = _distinct_abs(x)
            rows = specfun.jacobi_table(self.alpha, 2 * self.trunc - 1, u)
            neg = x < 0.0
            for a in (index, neg, rows):
                a.setflags(write=False)
            return index, neg, (rows[0::2], rows[1::2])

        return self._table(kind, key, make)

    def psi_table(self, x, n_list=None, nderiv=0):
        """Values (and derivatives) of many psi_n on a node array at once:
        ``psi(n_list, x, nderiv)``, all n by default, shape (len(n_list),
        len(x)) when nderiv is 0."""
        out = self.psi(range(self.nmax) if n_list is None else n_list, x, nderiv)
        return out[0] if nderiv == 0 else out


def _drop_repeats(sorted_values):
    """The mask of the first of each run of equal values in a sorted array:
    with it a sort gives ``np.unique``, which imports ``numpy.ma``."""
    first = np.ones(sorted_values.size, dtype=bool)
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


def _distinct_abs(x):
    """The distinct |x_i| ascending, and the index of each |x_i| among them."""
    ax = np.abs(x)
    order = np.argsort(ax, kind="stable")
    first = _drop_repeats(ax[order])
    index = np.empty(x.size, dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return ax[order][first], index


def _unfold(ns, sums, index, neg):
    """The values at the points, shape (nderiv+1, len(ns), len(index)), of
    each parity's ``sums`` at the distinct |x|: ``sums[p][d, j, index[i]]``,
    negated where ``neg`` when p + d is odd."""
    out = np.empty((sums[0].shape[0], ns.size, index.size))
    for p, part in enumerate(sums):
        vals = part[:, :, index]
        for d in range(1 - p, vals.shape[0], 2):
            np.negative(vals[d], out=vals[d], where=neg)
        out[:, ns % 2 == p] = vals
    return out


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


def _march(tris, lam):
    """Three-term recurrences of ``(T_p - lam) v = 0`` from both ends of both
    parity blocks ``tris`` (of one order m) at once.

    Row i of block p reads ``e[i-1] v[i-1] + (d[i] - lam) v[i] + e[i] v[i+1]
    = 0``, with d and e the diagonal and off-diagonal of ``tris[p]`` and the
    terms past either end dropped; ``lam`` (2, h) holds h eigenvalues of
    each block.  Direction 0 starts from ``v[-1] = 1`` and solves each row
    for ``v[i-1]``; direction 1 starts from ``v[0] = 1`` and solves each row
    for ``v[i+1]``.  All four run as one march over a state of shape (2
    directions, 2 parities, h), one column per eigenvalue, each element
    through the IEEE operations of its own one-direction, one-parity march;
    each step writes its row of the result in place, through row views
    taken once from lists.  Returns mantissas and int16 exponents (counts
    of rescales by 2**600), ``v = mant * 2**(600 * exp)``, of shape (m, 2,
    2, h): ``[:, 0, p]`` holds direction 0 of block p by row, ``[::-1, 1,
    p]`` direction 1.
    """
    d = np.stack([t.diag for t in tris], axis=1)
    e = np.stack([t.offdiag for t in tris], axis=1)
    zero = np.zeros((1, 2))
    lower = np.concatenate([zero, e])   # coefficient of v[i-1] in row i
    upper = np.concatenate([e, zero])   # coefficient of v[i+1] in row i
    m = d.shape[0]
    # coefficients of step i, shape (2, 2, 1) per row: direction 1 reads the
    # rows reversed, with the roles of lower and upper swapped
    dd = list(np.stack([d, d[::-1]], axis=1)[..., None])
    near = list(np.stack([upper, lower[::-1]], axis=1)[..., None])
    far = list(np.stack([lower, upper[::-1]], axis=1)[..., None])
    shape = (2,) + lam.shape
    mant = np.empty((m,) + shape)
    expo = np.zeros((m,) + shape, dtype=np.int16)
    rows, exps = list(mant), list(expo)
    v_next = np.zeros(shape)
    v = rows[m - 1]
    v[...] = 1.0
    scale = np.zeros(shape, dtype=np.int16)
    t = np.empty(shape)
    w = np.empty(shape)
    for i in range(m - 1, 0, -1):
        # v[i-1] = ((lam - d[i]) v[i] - upper[i] v[i+1]) / lower[i], written
        # straight into its row; the row stays the state of the next step
        np.subtract(lam, dd[i], out=t)
        t *= v
        np.multiply(near[i], v_next, out=w)
        t -= w
        v, v_next = np.divide(t, far[i], out=rows[i - 1]), v
        np.abs(v, out=w)
        if np.maximum.reduce(w, axis=None, initial=0.0) > backend._RESCALE:
            big = w > backend._RESCALE
            v[big] /= backend._RESCALE
            # a fresh array: v_next is the row above, stored at its old scale
            v_next = np.where(big, v_next / backend._RESCALE, v_next)
            scale[big] += 1
        exps[i - 1][...] = scale
    return mant, expo


def _recurrence_vectors(tris, spectra, nmax):
    """beta of shape (nmax, m): row n is the unit eigenvector of the parity
    block ``tris[n % 2]`` (positive off-diagonal) for the eigenvalue
    ``spectra[n % 2][n // 2]``.

    Above its largest entries an eigenvector decays: there it is the minimal
    solution of the three-term recurrence, which marching up from the last
    row computes stably.  Below, it is the solution that grows upward from
    row 0, which marching down from row 0 computes stably.  :func:`_march`
    runs both marches of both blocks as one, over ceil(nmax / 2) columns per
    block: at odd nmax the odd block marches its next eigenvalue too, and
    that column is dropped.  Each block's marches are spliced at the first
    local peak of |v| seen from the last row (:func:`_splice`), and every
    entry keeps its relative accuracy, however small (Gautschi, SIAM Rev. 9,
    1967).
    """
    h = (nmax + 1) // 2
    mant, expo = _march(tris, np.stack([s[:h] for s in spectra]))
    beta = np.empty((nmax, mant.shape[0]))
    for p in (0, 1):
        cols = (nmax - p + 1) // 2
        beta[p::2] = _splice(mant[:, :, p, :cols], expo[:, :, p, :cols]).T
    return beta


def _splice(mant, expo):
    """The unit vectors, as the columns of a C-order (m, ncols) array, that
    join one block's two marches of :func:`_march` (``[:, 0]`` down from
    the last row, ``[::-1, 1]`` up from row 0, shape (m, 2, ncols)) at the
    largest row p whose predecessor is no larger than it.  Both marches are
    scaled to 1 at p in place, and the upward one is copied over the
    downward one below p, so at most two (m, ncols) blocks of floats live
    beside them at once.
    """
    m, ncols = mant.shape[0], mant.shape[2]
    b_mant, b_exp = mant[:, 0], expo[:, 0]
    f_mant, f_exp = mant[::-1, 1], expo[::-1, 1]
    size = np.abs(b_mant)
    with np.errstate(divide="ignore"):
        np.log2(size, out=size)
    # widened first: 600 times an int16 exponent overflows int16
    size += float(backend._RESCALE_LOG2) * b_exp
    flat = size[:-1] <= size[1:]
    del size
    last = m - 2 - np.argmax(flat[::-1], axis=0)
    peak = np.where(flat.any(axis=0), last + 1, 0)
    cols = np.arange(ncols)
    for part in (f_mant, b_mant):
        part /= part[peak, cols]
    for part in (f_exp, b_exp):
        part -= part[peak, cols]
    below = np.arange(m)[:, None] < peak
    np.copyto(b_mant, f_mant, where=below)
    np.copyto(b_exp, f_exp, where=below)
    shift = b_exp.astype(np.int32)
    shift *= backend._RESCALE_LOG2
    z = np.ldexp(b_mant, shift)
    del shift
    # np.linalg.norm(z, axis=0), without its copy of z
    z /= np.sqrt(np.add.reduce(z * z, axis=0))
    return z


# The truncation rule.  Cache entries are keyed on (alpha, c, nmax) alone, so
# a change to any of these, or to the start order below, must come with a
# bump of ``experiments._FORMAT_VERSION``.
_TAIL_BUFFER = 8   # trailing coefficients whose squared mass is checked
_TAIL_TOL = 1e-24  # largest squared tail mass accepted in any eigenvector
_M_CAP = 8192      # largest per-parity start order built


def _start_order(c, nmax):
    """The per-parity truncation order: ``ceil(hypot(nmax, c) / 2) + 24``.

    By the bracket of :func:`chi_bracket` every kept chi_n is at most
    nmax(nmax + 2a + 1) + c^2, so above Jacobi degree K* ~ hypot(nmax, c)
    each diagonal entry of the coefficient matrix exceeds every kept chi and
    the eigenvectors decay there, super-exponentially.  Row i of a parity
    block is degree 2i + p, so K* / 2 rows reach K*, and the rows past it
    hold the decay.  For the tail check 24 suffice: no cell of
    ``scripts/truncation_grid.py`` (alpha 0 to 100, c 0.5 to 1000, nmax 1
    to 2001) needs more than 20, and the largest tail mass at 24 rows is
    2e-33, where ``_TAIL_TOL`` accepts 1e-24.  The probe check of
    :func:`spectral.compute_spectrum` needs no more at any alpha: its floor
    counts the rounding of psi_n(x*) near x = +-1, where the Jacobi rows
    grow like k^(alpha + 1/2), and the transform terms keep their digits
    where the Bessel factor alone would underflow.  The order is at least
    (nmax + 1) // 2 + 24, so each parity block holds its kept eigenvalues.
    """
    return math.ceil(math.hypot(nmax, c) / 2) + 24


def _check_basis_args(alpha, c, nmax):
    """Refuse what :func:`build_basis` cannot build: an alpha that is not
    finite and >= 0, a c not finite and > 0, an nmax not an integer >= 1.
    The disk cache checks its keys with it too."""
    if not math.isfinite(alpha) or alpha < 0.0:
        raise DomainError(f"basis construction requires alpha >= 0, got {alpha!r}")
    if not math.isfinite(c) or c <= 0.0:
        raise DomainError(f"basis construction requires c > 0, got {c!r}")
    _check_count("nmax", nmax, 1)


def build_basis(alpha, c, nmax):
    """Build a basis with nmax eigenpairs at the truncation order
    :func:`_start_order`.

    Each parity block is assembled and solved once.  The squared mass in the
    last ``_TAIL_BUFFER`` coefficients of every retained eigenvector must be
    at most ``_TAIL_TOL``, or TruncationError names the worst n; a start
    order past ``_M_CAP`` raises DomainError before any assembly.
    Eigenvalues come from :func:`eig_symtridiag` (LAPACK), eigenvectors from
    the spliced recurrence of :func:`_recurrence_vectors`.
    """
    _check_basis_args(alpha, c, nmax)
    M = _start_order(c, nmax)
    if M > _M_CAP:
        raise DomainError(f"start order {M} for alpha={alpha!r}, c={c!r}, nmax={nmax} "
                          f"is past the truncation cap {_M_CAP}")
    tris = [assemble_eigensystem(alpha, c, M, p) for p in ("even", "odd")]
    spectra = [eig_symtridiag(t).values for t in tris]
    chi = _merge_parities(*spectra, nmax)
    # a march that overflows (c below about 1e-63 at small alpha and nmax)
    # leaves a non-finite tail, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        beta = _recurrence_vectors(tris, spectra, nmax)
    tails = np.sum(beta[:, -_TAIL_BUFFER:] ** 2, axis=1)
    worst = int(np.argmax(tails))  # the first NaN, if there is one
    if not tails[worst] <= _TAIL_TOL:
        why = (f"above {_TAIL_TOL:.1e}" if math.isfinite(tails[worst]) else
               f"the eigenvector march overflowed at c={c!r}, whose off-diagonals "
               f"fall to {min(t.offdiag.min() for t in tris):.3e}")
        raise TruncationError(f"coefficient tail mass {tails[worst]:.3e} at n={worst}, "
                              f"truncation order {M}: {why}",
                              n=worst, tail_mass=float(tails[worst]))
    return _apply_sign_convention(GpswfBasis(alpha=float(alpha), c=float(c), trunc=M,
                                             nmax=int(nmax), chi=chi, beta=beta))


def _apply_sign_convention(basis):
    """``basis`` with psi_n(0) > 0 at even n and psi_n'(0) > 0 at odd n, or
    where that value is numerically nil, the largest-|beta| coefficient
    positive.  The values at 0 (:func:`_psi_at0`) decide, and are kept on
    the returned basis, flipped with their rows."""
    at0, beta = np.array(_psi_at0(basis)), np.array(basis.beta)
    s = at0[np.arange(basis.nmax) % 2, np.arange(basis.nmax)]
    nil = np.flatnonzero(np.abs(s) < 1e-13)
    s[nil] = beta[nil, np.argmax(np.abs(beta[nil]), axis=1)]
    flip = s < 0.0
    beta[flip] *= -1.0
    # 0.0 - x, not -x: a psi'(0) of exactly +0.0 at even n stays +0.0, as
    # psi of the flipped row gives it
    at0[:, flip] = 0.0 - at0[:, flip]
    signed = replace(basis, beta=beta)
    signed._table("psi_at0", None, lambda: at0)
    return signed


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


def _psi_at0(basis):
    """psi_n(0) and psi_n'(0) for every n of the basis, shape (2, nmax),
    read-only, kept on the basis: the sign convention, the spectrum's
    boundary identity and the local estimate's A^2 all read it."""
    return basis._table("psi_at0", None,
                        lambda: basis.psi_table(np.array([0.0]), nderiv=1)[:, :, 0])


def _estimate_values(basis, grid_size):
    """q_n, the sampled sup, A_n^2 and B_n (:func:`moment_b`) for every n of
    the basis, one tuple of floats each.

    :func:`local_estimate` is called once per n of one basis in turn, and
    reads the tuples that the basis keeps for the last grid size.  The sup
    comes from one (nmax, grid_size) array pass, and A^2 from one array
    expression whose squares are ``x * x``, correctly rounded.
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
    a_squared = tuple((at0[0] * at0[0] + at0[1] * at0[1] / basis.chi).tolist())
    return (tuple(q.tolist()), tuple(np.max(curve, axis=1).tolist()), a_squared,
            tuple(moments.tolist()))


# The largest local-estimate grid: the psi table and the curve of
# _estimate_values hold about 24 bytes per n and grid point, 2.4 MB per n
# at the cap
_MAX_GRID_SIZE = 10 ** 5


def _check_grid_size(grid_size):
    """The local estimate's grid range, which ``gpswf bounds`` checks before
    it builds anything."""
    if not (_is_integer(grid_size) and 100 <= grid_size <= _MAX_GRID_SIZE):
        raise DomainError(f"grid_size must lie in 100..{_MAX_GRID_SIZE}, got {grid_size!r}")


def local_estimate(basis, n, grid_size=400):
    _check_grid_size(grid_size)
    basis._check_index(n)
    q, sup, a_squared, moments = basis._table(
        "estimate", grid_size, lambda: _estimate_values(basis, grid_size))
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
    f_{2i+p} = beta[n, i] at n's parity p: (x psi)_k lives on k = 2i - 1 + p,
    i = 1 - p .. trunc.
    """
    ns = basis._check_index(n)
    a = specfun.jacobi_recurrence(basis.alpha, 2 * basis.trunc + 2)
    sums = np.empty(ns.size)
    for p in (0, 1):
        sel = ns % 2 == p
        # beta rows between two zeros: from column 1 - p, columns c and c + 1
        # hold f_{k-1} and f_{k+1} of k = 2c + 1 - p
        f = np.zeros((np.count_nonzero(sel), basis.trunc + 2))
        f[:, 1:-1] = basis.beta[ns[sel]]
        g = a[1 - p:-1:2] * f[:, 1 - p:-1] + a[2 - p::2] * f[:, 2 - p:]
        sums[sel] = [np.dot(row, row) for row in g]
    return float(sums[0]) if np.ndim(n) == 0 else sums


def decay_regime_multiplier(alpha):
    """m_a = 4.13 (1.28 + (2a+1)/1.9)^0.55, the N/c threshold for the
    exponential coefficient-decay regime."""
    return 4.13 * (1.28 + (2.0 * alpha + 1.0) / 1.9) ** 0.55

