"""Spectral projection onto the wave-function basis, the test-function
corpus, and the closed-form coefficients and norms of its series."""

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache, partial, wraps

import numpy as np

from . import backend, specfun, spectral
from .errors import DomainError
from .specfun import _is_integer

__all__ = [
    "TargetFunction",
    "ProjectionResult",
    "GAUSSIAN_GENERATOR",
    "brownian",
    "brownian_from_coefficients",
    "weierstrass_mandelbrot",
    "periodic_exponential",
    "user_sampled",
    "target_from_config",
    "project",
    "wm_all_coefficients",
    "wm_l2_norm_squared",
    "wm_projection_error",
    "cosine_transform_table",
    "cosine_series_norm2",
    "cosine_series_projection",
    "periodic_coefficient",
]

GAUSSIAN_GENERATOR = "philox4x64-boxmuller"


@dataclass(frozen=True)
class TargetFunction:
    """A function on [-1, 1] with an evaluator.  ``exact(basis, N)``, when
    given, returns the closed-form <f, psi_n>, n < N, and ||f - S_N f||.
    """

    kind: str
    params: dict = field(repr=False)
    evaluator: object = field(repr=False)
    exact: object = field(default=None, repr=False)

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


def _gaussian_samples(seed, count):
    # Box-Muller on top of the counter-based Philox stream; recorded in
    # reports as GAUSSIAN_GENERATOR so runs are reproducible by name+seed.
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    # one draw of 2 count: the stream is sequential, so its halves are the
    # draws of count each that the generator's name stands for
    u = gen.random(2 * count)
    u1 = 1.0 - u[:count]
    u2 = u[count:]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


# The most series terms a corpus function takes: K comes from outside input
# (a ``--fn`` spec or a config), and both series allocate O(K) arrays.
_MAX_TERMS = 10 ** 6
# series terms per block of an evaluation, which bounds its memory to
# _EVAL_BLOCK doubles per point
_EVAL_BLOCK = 512


def _check_terms(K):
    if not _is_integer(K):
        raise DomainError(f"K must be an integer, got {K!r}")
    if not 1 <= K <= _MAX_TERMS:
        raise DomainError(f"K must lie in 1..{_MAX_TERMS}, got {K!r}")


# The sup-error grid: 2001 equispaced points of the open interval (-1, 1)
_SUP_GRID = np.linspace(-1.0, 1.0, 2003)[1:-1]
_SUP_GRID.setflags(write=False)


def _cos_series_grid(coefs, m):
    """sum_k coefs[k-1] cos(k pi x_i) at x_i = -1 + 2i/L, i = 1..m, L = m + 1.

    There cos(k pi x_i) = (-1)^k cos(2 pi k i / L), so the series is the real
    part of one length-L FFT of (-1)^k coefs_k folded into bins k mod L."""
    L = m + 1
    k = np.arange(1, coefs.size + 1)
    signed = np.where(k % 2 == 1, -coefs, coefs)
    bins = np.bincount(k % L, weights=signed, minlength=L)
    return np.fft.fft(bins).real[1:m + 1]


def _cos_series_eval(coefs):
    k = np.arange(1, coefs.size + 1, dtype=float)

    def evaluator(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # the equispaced open grid (as np.linspace builds it) takes the FFT
        if x.ndim == 1 and np.array_equal(x, np.linspace(-1.0, 1.0, x.size + 2)[1:-1]):
            return _cos_series_grid(coefs, x.size)
        out = np.zeros(x.size)
        for lo in range(0, coefs.size, _EVAL_BLOCK):
            hi = min(lo + _EVAL_BLOCK, coefs.size)
            out += coefs[lo:hi] @ np.cos(math.pi * np.outer(k[lo:hi], x))
        return out

    return evaluator


def _check_brownian_s(s):
    if not (math.isfinite(s) and s > 0.5):
        raise DomainError(f"brownian requires a finite s > 1/2, got {s!r}")


def brownian_from_coefficients(s, coefs):
    """Random-cosine-series path with explicitly supplied amplitudes X_k."""
    _check_brownian_s(s)
    coefs = _amplitudes(coefs)
    scaled = coefs / np.arange(1.0, coefs.size + 1) ** s
    return TargetFunction(kind="brownian", evaluator=_cos_series_eval(scaled),
                          params={"s": s, "K": coefs.size, "seed": None,
                                  "amplitudes": coefs},
                          exact=lambda basis, N: cosine_series_projection(basis, scaled, N))


# one past the largest brownian seed: a Philox key is two 64-bit words
SEED_END = 2 ** 128


def brownian(s, seed, K=4000):
    """B_s(x) = sum_{k=1}^{K} X_k k^{-s} cos(k pi x) with standard Gaussian X_k.

    Deterministic in ``seed``; the generator is GAUSSIAN_GENERATOR.  The
    dropped tail has expected sup norm about 0.8 K^(1-s)/(s-1) (a soft bound;
    the realized per-seed tail depends on the draw), roughly 2.5e-2 at the
    default K = 4000 with s = 1.5.
    """
    _check_terms(K)
    _check_brownian_s(s)
    if not (0 <= seed < SEED_END and seed == int(seed)):
        raise DomainError(f"brownian seed must lie in 0..2**128-1 as a whole number, "
                          f"got {seed!r}")
    f = brownian_from_coefficients(s, _gaussian_samples(seed, K))
    f.params.update({"seed": int(seed), "generator": GAUSSIAN_GENERATOR})
    return f


# the largest geometric tail bound a truncated Weierstrass-Mandelbrot series
# may leave out
_WM_TAIL_TOL = 1e-12


def wm_truncation(s, lam):
    """Smallest K with geometric-tail bound lam^(-K(2-s)) / (1 - lam^(-(2-s)))
    <= ``_WM_TAIL_TOL``."""
    r = lam ** (-(2.0 - s))
    if r == 0.0:  # underflowed: the bound of K = 1 is 0
        return 1
    return max(1, int(math.ceil(math.log(_WM_TAIL_TOL * (1.0 - r)) / math.log(r))))


def _wm_terms(s, lam, K):
    """The term count of a Weierstrass-Mandelbrot series, by default
    :func:`wm_truncation`; a lam <= 1, an s > 1, either not finite, or a
    count outside 1.._MAX_TERMS raise DomainError."""
    if not (math.isfinite(lam) and lam > 1.0):
        raise DomainError(f"lambda must be finite and > 1, got {lam!r}")
    if not (math.isfinite(s) and s <= 1.0):
        raise DomainError(f"s must be finite and <= 1, got {s!r}")
    if K is None:
        K = wm_truncation(s, lam)
    _check_terms(K)
    _check_wm_power(lam, K, 1.0, "lambda^(K-1)")
    return K


def _check_wm_power(lam, K, scale, what):
    """Raise DomainError, naming ``what``, K and lam, unless scale *
    lam^(K-1), a NumPy power as the series forms its frequencies, is a
    finite double.  A test on (K - 1) ln lam against ln(DBL_MAX) passes lam 2 at
    K 1025, where both logs are the same double and 2^1024 overflows."""
    with np.errstate(over="ignore"):
        top = scale * float(lam ** np.int64(K - 1))
    if not math.isfinite(top):
        raise DomainError(f"{what} overflows a double at K={K}, lambda={lam!r}")


def weierstrass_mandelbrot(s, lam, K=None):
    """M_{s,lam}(x) = sum_{k=0}^{K-1} sin(lam^k x) / lam^(k(2-s)); lam > 1, s <= 1."""
    K = _wm_terms(s, lam, K)
    freqs = lam ** np.arange(K)
    amps = lam ** (-(2.0 - s) * np.arange(K))

    def evaluator(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.size)
        for lo in range(0, K, _EVAL_BLOCK):
            hi = min(lo + _EVAL_BLOCK, K)
            out += np.sin(np.outer(x, freqs[lo:hi])) @ amps[lo:hi]
        return out

    def exact(basis, N):
        norm2 = wm_l2_norm_squared(basis.alpha, s, lam, K)
        coeffs = wm_all_coefficients(basis, s, lam, N, K=K)
        return coeffs, _parseval_error(norm2, coeffs)

    return TargetFunction(kind="weierstrass_mandelbrot", evaluator=evaluator,
                          params={"s": s, "lambda": lam, "K": K}, exact=exact)


def periodic_exponential(k):
    """f(x) = e^{i k pi x}; single-mode periodic test function (complex)."""
    try:
        kpi = math.pi * k
    except OverflowError:  # an int k past the largest double
        kpi = math.inf
    if not math.isfinite(kpi):
        raise DomainError(f"k pi must be finite, got k={k!r}")
    if k != int(k):
        raise DomainError(f"periodic_exponential takes a whole number k, got {k!r}")

    def evaluator(x):
        return np.exp(1j * kpi * np.asarray(x, dtype=float))

    return TargetFunction(kind="periodic_exponential", evaluator=evaluator,
                          params={"k": int(k)})


def user_sampled(grid, values):
    """Piecewise-linear interpolant of samples on a grid covering [-1, 1]:
    finite, strictly increasing, from at most -1 to at least 1."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
        raise DomainError("grid and values must be 1-D arrays of equal length >= 2, "
                          f"got shapes {grid.shape} and {values.shape}")
    if not np.all(np.isfinite(values)):
        raise DomainError("sampled values must be finite")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)
            and grid[0] <= -1.0 and grid[-1] >= 1.0):
        raise DomainError("the sample grid must be finite, strictly increasing and "
                          f"cover [-1, 1], got {float(grid[0])!r}..{float(grid[-1])!r}")

    def evaluator(x):
        return np.interp(np.asarray(x, dtype=float), grid, values)

    return TargetFunction(kind="user_sampled", evaluator=evaluator,
                          params={"npoints": grid.size})


def _whole(value):
    # an integer as itself, a string as int() parses it, a float only when it
    # is a whole number: none is truncated or rounded through a double
    if isinstance(value, (int, str, np.integer)):
        return int(value)
    if not float(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


# per corpus kind, its builder and the keys it reads, in argument order, each
# with its conversion and default (_REQUIRED: the key must be given)
_REQUIRED = object()
_floats = partial(np.asarray, dtype=float)
_TARGETS = {
    "brownian": (brownian, {"s": (float, _REQUIRED), "seed": (_whole, 0),
                            "K": (_whole, 4000)}),
    "wm": (weierstrass_mandelbrot, {"s": (float, _REQUIRED), "lambda": (float, _REQUIRED),
                                    "K": (_whole, None)}),
    "periodic": (periodic_exponential, {"k": (_whole, _REQUIRED)}),
    "user_sampled": (user_sampled, {"grid": (_floats, _REQUIRED),
                                    "values": (_floats, _REQUIRED)}),
}
_TARGETS.update(weierstrass_mandelbrot=_TARGETS["wm"],
                periodic_exponential=_TARGETS["periodic"])


def target_from_config(cfg):
    """Build a corpus function from a declarative record (kind + parameters);
    an unknown kind or key, a missing key or a bad value raise DomainError."""
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _TARGETS:
        raise DomainError(f"unknown target kind {kind!r}")
    build, keys = _TARGETS[kind]
    unknown = sorted(set(cfg) - set(keys) - {"kind"})
    missing = [k for k, (_, default) in keys.items() if default is _REQUIRED and k not in cfg]
    if unknown or missing:
        raise DomainError(f"target {kind!r} reads {', '.join(keys)}; "
                          f"unknown keys {unknown}, missing keys {missing}")
    try:
        args = [convert(cfg[key]) if key in cfg else default
                for key, (convert, default) in keys.items()]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"invalid {kind!r} parameter: {exc}") from exc
    return build(*args)


# ---------------------------------------------------------------------------
# Projection S_N f = sum_{n<N} <f, psi_n> psi_n.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionResult:
    N: int
    coefficients: np.ndarray = field(repr=False)
    l2w_error: float = math.nan
    sup_error: float = math.nan


def _check_N(basis, N):
    """A projection order N counts basis functions: it must be an integer in
    1..nmax."""
    if not _is_integer(N):
        raise DomainError(f"N={N!r} must be an integer in 1..nmax={basis.nmax}")
    if not 1 <= N <= basis.nmax:
        raise DomainError(f"N={N} must lie in 1..nmax={basis.nmax}")


# The largest projection rule: its dense eigensolve and Jacobi table hold
# 16 m^2 bytes for m nodes, 4.3 GB at the cap
_MAX_QUAD_ORDER = 2 ** 14


def project(basis, f, N, quad_order=None):
    """Coefficients <f, psi_n> for n < N plus weighted-L2 and sup errors.

    ``wm`` and ``brownian`` take ``f.exact``, their closed form with the
    error by Parseval, and no Gauss rule (a ``quad_order`` raises).  Other
    targets take a rule of ``quad_order`` nodes (at least m + 32, by default
    m + 64; m = max(trunc, nmax + ceil(c) + 40)), the residual one of at
    least m + 64.  ``periodic`` stays there: Parseval cannot resolve an
    error below about sqrt(eps) ||f||.  The sup error is the largest
    |f - S_N f| on 2001 equispaced points of the open interval, only a lower
    bound for a target the grid cannot resolve; the weight vanishes at the
    endpoints, so the method does not control pointwise values there.
    """
    _check_N(basis, N)
    if f.exact is not None:
        if quad_order is not None:
            raise DomainError(f"quad_order={quad_order!r} sets a Gauss rule, which a "
                              f"{f.kind} target does not take: it has a closed form")
        coeffs, l2w = f.exact(basis, N)
    else:
        m = max(basis.trunc, basis.nmax + math.ceil(basis.c) + 40)
        quad_order = m + 64 if quad_order is None else quad_order
        if not (_is_integer(quad_order) and m + 32 <= quad_order <= _MAX_QUAD_ORDER):
            raise DomainError(f"quad_order must lie in {m + 32}..{_MAX_QUAD_ORDER}, "
                              f"got {quad_order!r}")
        rule = specfun.gauss_jacobi(basis.alpha, quad_order)
        fvals = f(rule.nodes)
        tab = _rule_psi(basis, rule, N)
        coeffs = tab @ (rule.weights * fvals)
        if quad_order < m + 64:  # the residual takes a rule of m + 64 nodes
            rule = specfun.gauss_jacobi(basis.alpha, m + 64)
            fvals = f(rule.nodes)
            tab = _rule_psi(basis, rule, N, kind="residual_psi")
        if np.iscomplexobj(coeffs):
            # the real and imaginary parts as two real rows, as in
            # _sup_grid_values: a complex product rounds apart by BLAS thread count
            parts = np.stack([coeffs.real, coeffs.imag]) @ tab
            resid = fvals - (parts[0] + 1j * parts[1])
        else:
            resid = fvals - coeffs @ tab
        l2w = math.sqrt(max(float(np.real(np.dot(rule.weights, np.abs(resid) ** 2))), 0.0))
    sup = float(np.max(np.abs(f(_SUP_GRID) - _sup_grid_values(basis, coeffs))))
    return ProjectionResult(N=N, coefficients=coeffs, l2w_error=l2w, sup_error=sup)


def _rule_psi(basis, rule, N, kind="rule_psi"):
    """psi_n, n < N, at the nodes of a Gauss rule of the basis's weight, shape
    (N, rule.order): ``basis.psi_table(rule.nodes, range(N))`` bit for bit.

    The basis keeps ``psi_table(rule.nodes)``, psi_n of every n < nmax, under
    ``kind`` for the last rule order; any N reads its first N rows, a
    read-only view.  Below N = 4 a parity holds one n, whose one-column
    product BLAS rounds apart from the same column of a wider one, so there
    ``psi_table`` sums it afresh."""
    table = basis._table(kind, rule.order, lambda: basis.psi_table(rule.nodes))
    return table[:N] if N >= 4 else basis.psi_table(rule.nodes, range(N))


def _sup_grid_values(basis, coeffs):
    """S_N f = sum_n coeffs_n psi_n on ``_SUP_GRID`` as E(|x|) + sign(x) O(|x|).

    psi_n has the parity of n, so E sums g_{2i} = sum_{n even} coeffs_n
    beta[n, i] over the even-order rows Jt_{2i}(|x|) that the basis keeps at
    the grid's distinct |x| (``GpswfBasis._abs_rows``), and O sums g_{2j+1}
    = sum_{n odd} coeffs_n beta[n, j] over the odd-order rows Jt_{2j+1}(|x|),
    one matrix product per parity.  The real and imaginary part of complex
    coefficients are two columns, so no N x 2001 psi table is built."""
    complex_ = np.iscomplexobj(coeffs)
    parts = np.stack([coeffs.real, coeffs.imag], axis=1) if complex_ else coeffs[:, None]
    # g of each parity, from a contiguous copy of its coefficient rows: the
    # product over the strided view rounds otherwise (README, sup error)
    n = coeffs.size
    g = [basis.beta[p:n:2].T @ np.ascontiguousarray(parts[p::2]) for p in (0, 1)]
    index, neg, rows = basis._abs_rows("sup_rows", None, _SUP_GRID)
    even, odd = ((gp.T @ rp)[:, index] for gp, rp in zip(g, rows))
    vals = even + np.negative(odd, out=odd, where=neg)
    return vals[0] + 1j * vals[1] if complex_ else vals[0]


# ---------------------------------------------------------------------------
# Closed-form coefficients of the Weierstrass-Mandelbrot corpus.
# ---------------------------------------------------------------------------

def wm_all_coefficients(basis, s, lam, N, K=None):
    """<M_{s,lam}, psi_n> for n < N; exact Bessel form, zero at even n.

    ``K`` terms of the series, by default ``wm_truncation(s, lam)`` like
    :func:`weierstrass_mandelbrot`, whose checks it shares."""
    _check_N(basis, N)
    K = _wm_terms(s, lam, K)
    out = np.zeros(N)
    if N < 2:
        return out
    for lo in range(0, K, _EVAL_BLOCK):
        hi = min(lo + _EVAL_BLOCK, K)
        rows = _wm_term_rows(basis.alpha, 2 * basis.trunc - 1, lam, lo, hi)
        # Im of the transform value of the odd n, one term per k, each over
        # the odd orders, at the evaluator's amplitudes
        amps = lam ** (-(2.0 - s) * np.arange(lo, hi))
        terms = amps[:, None] * _row_products(basis.beta[1:N:2], rows[:, 1::2])
        # the running sum from out, adding the terms in the order of k
        out[1::2] = np.cumsum(np.concatenate([out[None, 1::2], terms]), axis=0)[-1]
    return out


def _row_products(coefs, rows):
    """``coefs @ row`` for every row of ``rows``, as one stacked matrix-vector
    product: NumPy runs it as the same gemv per row, so each result is
    bitwise the row's own product, where ``rows @ coefs.T`` (a gemm) may
    round differently."""
    return np.matmul(coefs, rows[:, :, None])[:, :, 0]


def _grown_lru(maxsize, nkey):
    """Memoise ``grow(kept, *args)`` on its first ``nkey`` arguments, in an
    LRU of at most ``maxsize`` read-only tables.  ``grow`` returns the table
    to keep and the value to return: ``kept`` (None on a miss) as it is when
    it covers the request, or grown by only what it lacks.  Every value of a
    table is bitwise what a fresh call gives, so a table grown across calls,
    or one a concurrent call replaced by a smaller one, reads the same.
    ``cache_clear`` empties it, as on ``functools.lru_cache``."""

    def decorate(grow):
        tables = OrderedDict()
        lock = threading.Lock()

        @wraps(grow)
        def cached(*args):
            key = args[:nkey]
            with lock:
                kept = tables.get(key)
            table, value = grow(kept, *args)
            with lock:
                tables[key] = table
                tables.move_to_end(key)
                if len(tables) > maxsize:
                    tables.popitem(last=False)
            return value

        cached.cache_clear = tables.clear
        return cached

    return decorate


@_grown_lru(maxsize=16, nkey=4)
def _wm_term_rows(kept, alpha, kmax, lam, lo, hi):
    """The transform terms at lam^k, k = lo..hi-1, one row each, read-only.

    One table per (alpha, kmax, lam, lo) holds the rows up to the largest hi
    asked (at most ``lo + _EVAL_BLOCK``); a larger hi adds the rows it lacks
    from one ladder call, so every N and s at one basis and lam share one
    block.  Each row is bitwise independent of its batch."""
    have = lo if kept is None else lo + len(kept)
    if hi > have:
        new = spectral._fc_term_rows(alpha, kmax, lam ** np.arange(have, hi))
        kept = new if kept is None else np.concatenate([kept, new])
        kept.setflags(write=False)
    return kept, kept[:hi - lo]


def _cos_transforms(alpha, u):
    """W(u_i) = int cos(u_i x) w_a(x) dx = sqrt(pi) (2/u)^(a+1/2) Gamma(a+1)
    J_{a+1/2}(u) for an array of u_i >= 0, the Bessel values from one ladder
    call; W(0) is the weight mass.  A W(u_i) that is not a finite double
    raises DomainError, naming alpha and u_i."""
    u = np.asarray(u, dtype=float)
    pos = u != 0.0
    w = np.full(u.size, specfun.weight_mass(alpha))
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = np.exp(np.float64(specfun.ln_gamma(alpha + 1.0)))
        pref = math.sqrt(math.pi) * np.power(2.0 / u[pos], alpha + 0.5)
        w[pos] = pref * gamma * specfun.bessel_j(alpha + 0.5, u)[pos]
    bad = ~np.isfinite(w)
    if bad.any():
        raise DomainError(f"the cosine transform W(u) is not a finite double at "
                          f"alpha={alpha!r}, u={u[bad][0].item()!r}")
    return w


# the most bytes the pair table of the exact wm norm may take: K <= 2896
_WM_TABLE_BYTES = 2 ** 26


def wm_l2_norm_squared(alpha, s, lam, K):
    """Exact ||M_{s,lam}||^2 in L2(w_a) for the K-term truncation (memoised).

    Its pair sums reach 2 lam^(K-1), and its pair table takes 8 K^2 bytes: a
    K where either passes what a double or ``_WM_TABLE_BYTES`` holds raises
    DomainError, before any transform is computed."""
    K = _wm_terms(s, lam, K)
    _check_wm_power(lam, K, 2.0, "the pair sum 2 lambda^(K-1)")
    if 8 * K * K > _WM_TABLE_BYTES:
        raise DomainError(f"the exact wm norm takes K <= {math.isqrt(_WM_TABLE_BYTES // 8)}, "
                          f"got K={K}: its pair table takes 8 K^2 bytes, at most "
                          f"{_WM_TABLE_BYTES >> 20} MiB")
    # the memo sits behind a plain function, which perfbench's tracer wraps
    return _wm_l2_norm_squared(alpha, s, lam, K)


def _pair_blocks(start, K):
    # bounds (lo, hi) of the blocks of rows or columns of a K x K pair table:
    # at most _EVAL_BLOCK^2 / 4 entries, at 90-150 traced bytes per transform
    step = max(1, _EVAL_BLOCK ** 2 // (4 * K))
    return [(lo, min(lo + step, K)) for lo in range(start, K, step)]


@_grown_lru(maxsize=8, nkey=2)
def _wm_pair_products(kept, alpha, lam, K):
    """The K x K table P[i, j] = int sin(lam^i x) sin(lam^j x) w_a(x) dx =
    (W(|lam^i - lam^j|) - W(lam^i + lam^j)) / 2 for i <= j, 0 below, read-only.
    One table per (alpha, lam) grows by the columns j it lacks, each block of
    them from one :func:`_cos_transforms` call; a smaller K reads its leading
    K x K block."""
    kept = np.zeros((0, 0)) if kept is None else kept
    have = len(kept)
    if K > have:
        kept = np.pad(kept, (0, K - have))
        freqs = lam ** np.arange(K)
        for lo, hi in _pair_blocks(have, K):
            upper = np.arange(hi)[:, None] <= np.arange(lo, hi)
            fi = np.broadcast_to(freqs[:hi, None], upper.shape)[upper]
            fj = np.broadcast_to(freqs[lo:hi], upper.shape)[upper]
            w = _cos_transforms(alpha, np.concatenate([np.abs(fi - fj), fi + fj]))
            kept[:hi, lo:hi][upper] = 0.5 * (w[:fi.size] - w[fi.size:])
        kept.setflags(write=False)
    return kept, kept[:K, :K]


@lru_cache(maxsize=64)
def _wm_l2_norm_squared(alpha, s, lam, K):
    """Sums ((1 or 2) amps_i) amps_j P[i, j] over the pairs i <= j < K of
    :func:`_wm_pair_products`, row by row as a pair loop takes them, one
    block of rows at a time with a running total."""
    table = _wm_pair_products(alpha, lam, K)
    amps = lam ** (-(2.0 - s) * np.arange(K))
    total = np.empty(0)
    for lo, hi in _pair_blocks(0, K):
        i, j = np.arange(lo, hi)[:, None], np.arange(lo, K)
        terms = np.where(i == j, 1.0, 2.0) * amps[i] * amps[j] * table[lo:hi, lo:]
        # cumsum adds in sequence, where np.sum adds pairwise
        total = np.cumsum(np.concatenate([total, terms[i <= j]]))[-1:]
    return float(total[0])


def _parseval_error(norm2, coeffs):
    """||f - S_N f|| in L2(w_a) by Parseval, from ||f||^2 and the real c_n."""
    return math.sqrt(max(norm2 - float(np.sum(coeffs ** 2)), 0.0))


def wm_projection_error(basis, s, lam, N, K=None):
    """||M - S_N M||_{L2(w_a)} via Parseval in the orthonormal basis."""
    return weierstrass_mandelbrot(s, lam, K).exact(basis, N)[1]


def cosine_transform_table(basis, k_max, N):
    """Matrix T[k-1, n] = <cos(k pi x), psi_n> for k = 1..k_max, n < N.

    Exact Bessel form, one ladder per frequency; odd-n columns vanish by
    parity.  Seed-independent, so random cosine-series projections reduce to
    a matrix-vector product with exact coefficients (a quadrature rule of
    practical size cannot resolve thousands of cosine modes, and aliasing
    noise gets amplified by the endpoint growth of psi_n).
    """
    _check_N(basis, N)
    if not (_is_integer(k_max) and k_max >= 1):
        raise DomainError(f"k_max={k_max!r} must be an integer >= 1")
    table = np.zeros((k_max, N))
    block = 256  # frequencies per batched ladder; bounds its memory
    for lo in range(0, k_max, block):
        u = np.arange(lo + 1, min(lo + block, k_max) + 1) * math.pi
        rows = spectral._fc_term_rows(basis.alpha, 2 * basis.trunc - 1, u)
        table[lo:lo + u.size, 0::2] = _row_products(basis.beta[0:N:2], rows[:, 0::2])
    return table


def _amplitudes(amplitudes):
    """A cosine series' amplitudes: a 1-D float array of at least one entry, all finite."""
    y = np.asarray(amplitudes, dtype=float)
    if y.ndim != 1 or y.size < 1 or not np.isfinite(y).all():
        raise DomainError(f"a cosine series needs at least one amplitude, all finite, "
                          f"in a 1-D array; got shape {y.shape}")
    return y


def _fft_length(K):
    """The smallest power of two L >= 2K - 1: a length-L transform of K
    amplitudes holds their products at every lag and sum without wrapping."""
    return 1 << (2 * K - 2).bit_length()


@lru_cache(maxsize=8)
def _cos_spectra(alpha, K):
    """The weights of :func:`cosine_series_norm2` at K amplitudes, read-only:
    c_f (Omega_f +- Re Pi_f) / 2L and c_f Im Pi_f / L, f = 0..L/2, from one
    :func:`_cos_transforms` call over W(j pi), j = 0..2K."""
    w = _cos_transforms(alpha, np.arange(2 * K + 1) * math.pi)
    L = _fft_length(K)
    lags = np.zeros(L)  # W(|d| pi) at the circular lags d, |d| < K
    lags[:K] = w[:K]
    lags[L - K + 1:] = w[K - 1:0:-1]
    omega = np.fft.rfft(lags).real
    pi_ = np.fft.rfft(w[2:], L)  # W((d + 2) pi) at d = 0..2K-2
    c = np.full(omega.size, 2.0)
    c[0] = c[-1] = 1.0  # f = 0 and f = L/2; L = 1 has f = 0 alone
    c /= 2 * L
    weights = (c * (omega + pi_.real), c * (omega - pi_.real), 2.0 * c * pi_.imag)
    for a in weights:
        a.setflags(write=False)
    return weights


def cosine_series_norm2(alpha, weighted_amplitudes):
    """||sum_k y_k cos(k pi x)||^2 in L2(w_a), via exact cosine transforms:
    <cos(j pi .), cos(k pi .)>_w = (W(|j-k| pi) + W((j+k) pi)) / 2.

    The double sum over j, k is a circular correlation of y with the lags'
    W(|d| pi) plus the self-convolution of y against W((d + 2) pi); with
    Y = rfft(y, L), L >= 2K - 1 so that nothing wraps, the correlation
    theorem makes it one FFT of y (the discrete Wiener-Khinchin form):

        ||f||^2 = (1/2L) sum_f c_f (|Y_f|^2 Omega_f + Re(Y_f^2 conj(Pi_f))),

    Omega = rfft(omega), omega[0] = W(0), omega[d] = omega[L-d] = W(d pi)
    for 1 <= d < K, 0 elsewhere (so Omega is real); Pi = rfft(pi),
    pi[d] = W((d+2) pi) for 0 <= d <= 2K-2; c_f = 1 at f = 0 and f = L/2,
    2 elsewhere.  Omega and Pi are kept per (alpha, K)
    (:func:`_cos_spectra`), so a call takes one length-L FFT and three
    dot products over the L/2 + 1 frequencies."""
    alpha = specfun._check_alpha(alpha)
    y = _amplitudes(weighted_amplitudes)
    plus, minus, cross = _cos_spectra(alpha, y.size)
    Y = np.fft.rfft(y, _fft_length(y.size))
    re, im = Y.real, Y.imag
    # |Y|^2 Omega + Re(Y^2 conj Pi) = re^2 (Omega + Re Pi) + im^2 (Omega - Re Pi)
    # + 2 re im Im Pi
    return float(np.dot(re * re, plus) + np.dot(im * im, minus) + np.dot(re * im, cross))


def cosine_series_projection(basis, weighted_amplitudes, N, table=None):
    """Exact projection data for f = sum_k y_k cos(k pi x).

    Returns (coefficients, l2w_error).  ``weighted_amplitudes`` are the y_k
    (amplitude over k^s already applied).  The error uses Parseval in the
    orthonormal basis with ||f||^2 from :func:`cosine_series_norm2`.  A
    ``table`` from :func:`cosine_transform_table` needs one row per y_k and
    at least N columns.
    """
    y = _amplitudes(weighted_amplitudes)
    _check_N(basis, N)
    if table is None:
        table = cosine_transform_table(basis, y.size, N)
    shape = np.shape(table)
    if len(shape) != 2 or shape[0] != y.size or shape[1] < N:
        raise DomainError(f"a table of shape {shape} does not serve {y.size} "
                          f"amplitudes at N={N}: it needs shape ({y.size}, >= {N})")
    coeffs = y @ table[:, :N]
    return coeffs, _parseval_error(cosine_series_norm2(basis.alpha, y), coeffs)


def _periodic_sums(basis, u):
    """The real transform sums int e^{iuy} psi_n(y) w_a(y) dy / i^(n mod 2)
    of every n at u > 0, from one row of transform terms: psi_n's
    coefficients vanish off its parity, so row n sums beta[n] times the terms
    of n's parity.  The terms alternate in sign and their peak can tower over
    the sum, so each sum is exactly rounded, which leaves the roundoff of the
    terms themselves, about eps max |term|."""
    terms = spectral._fc_terms(basis.alpha, 2 * basis.trunc - 1, u)
    prods = np.empty(basis.beta.shape)
    for p in (0, 1):
        np.multiply(basis.beta[p::2], terms[p::2], out=prods[p::2])
    return backend.fsum_rows(prods)


def _periodic_values(basis, u):
    """<e^{iux}, psi_n> of every n at u > 0, a tuple of Python complex
    numbers: i^(n mod 2) times :func:`_periodic_sums`."""
    return tuple(1j * total if n % 2 else complex(total)
                 for n, total in enumerate(_periodic_sums(basis, u).tolist()))


def periodic_coefficient(basis, k, n):
    """<e^{i k pi x}, psi_n> in L2(w_a), via the exact transform expansion.

    The coefficients of every n at the last |k| pi are kept on the basis as
    Python complex numbers, so the nmax coefficients at one k take one
    exactly rounded pass; a negative k reads their conjugates.  A Python int
    passes each integer check on its type alone."""
    if not (type(n) is int or _is_integer(n)):
        raise DomainError(f"basis index {n!r} is not an integer")
    if not 0 <= n < basis.nmax:
        raise DomainError(f"basis index {n} out of range")
    try:
        u = abs(k) * math.pi
    except OverflowError:
        u = math.inf
    except TypeError:  # not a number, such as "3"
        raise DomainError(f"the frequency index k={k!r} is not an integer") from None
    if not math.isfinite(u):
        raise DomainError(f"the frequency |k| pi is not a finite double at k={k!r}")
    if not (type(k) is int or _is_integer(k)):
        raise DomainError(f"the frequency index k={k!r} is not an integer")
    if k == 0:
        if n % 2 == 1:
            return 0.0j
        return complex(basis.beta[n, 0] * math.sqrt(specfun.weight_mass(basis.alpha)))
    val = basis._table("periodic", u, lambda: _periodic_values(basis, u))[n]
    return val.conjugate() if k < 0 else val

