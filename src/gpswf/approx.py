"""Spectral projection onto the wave-function basis, test-function corpus,
weighted Sobolev norms, and approximation-rate checkers."""

import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache, partial, wraps

import numpy as np

from . import specfun, spectral
from .basis import decay_regime_multiplier
from .errors import DomainError

__all__ = [
    "TargetFunction",
    "ProjectionResult",
    "SobolevNorm",
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
    "sobolev_norm",
    "derivative_sobolev_norm",
    "chi_tail_error_check",
    "projection_rate_check",
]

GAUSSIAN_GENERATOR = "philox4x64-boxmuller"


@dataclass(frozen=True)
class TargetFunction:
    """A function on [-1, 1] with an evaluator and optional derivatives.

    ``derivative(x, order)`` must return the order-th derivative when
    available (order 0 = the function itself).
    """

    kind: str
    params: dict = field(repr=False)
    evaluator: object = field(repr=False)
    derivative: object = field(default=None, repr=False)

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


def _gaussian_samples(seed, count):
    # Box-Muller on top of the counter-based Philox stream; recorded in
    # reports as GAUSSIAN_GENERATOR so runs are reproducible by name+seed.
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    u1 = 1.0 - gen.random(count)
    u2 = gen.random(count)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


# The most series terms a corpus function takes: K comes from outside input
# (a ``--fn`` spec or a config), and both series allocate O(K) arrays.
_MAX_TERMS = 10 ** 6
# series terms per block of an evaluation, which bounds its memory to
# _EVAL_BLOCK doubles per point
_EVAL_BLOCK = 512


def _check_terms(K):
    if not 1 <= K <= _MAX_TERMS:
        raise DomainError(f"K must lie in 1..{_MAX_TERMS}, got {K!r}")


# The sup-error grid: 2001 equispaced points of the open interval (-1, 1).
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

    def derivative(x, order):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # the equispaced open grid (as np.linspace builds it) takes the FFT
        if (order == 0 and x.ndim == 1
                and np.array_equal(x, np.linspace(-1.0, 1.0, x.size + 2)[1:-1])):
            return _cos_series_grid(coefs, x.size)
        scaled = coefs * (math.pi * k) ** order
        out = np.zeros(x.size)
        for lo in range(0, coefs.size, _EVAL_BLOCK):
            hi = min(lo + _EVAL_BLOCK, coefs.size)
            out += scaled[lo:hi] @ np.cos(
                math.pi * np.outer(k[lo:hi], x) + 0.5 * math.pi * order)
        return out

    return (lambda x: derivative(x, 0)), derivative


def _check_brownian_s(s):
    if not (math.isfinite(s) and s > 0.5):
        raise DomainError(f"brownian requires a finite s > 1/2, got {s!r}")


def brownian_from_coefficients(s, coefs):
    """Random-cosine-series path with explicitly supplied amplitudes X_k."""
    _check_brownian_s(s)
    coefs = np.asarray(coefs, dtype=float)
    if coefs.size < 1:
        raise DomainError("need at least one coefficient")
    k = np.arange(1, coefs.size + 1, dtype=float)
    scaled = coefs / k ** s
    evaluator, derivative = _cos_series_eval(scaled)
    return TargetFunction(kind="brownian", evaluator=evaluator,
                          derivative=derivative,
                          params={"s": s, "K": coefs.size, "seed": None,
                                  "amplitudes": coefs})


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
    if not 0 <= seed < SEED_END:
        raise DomainError(f"brownian seed must lie in 0..2**128-1, got {seed!r}")
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
    if (K - 1) * math.log(lam) > math.log(sys.float_info.max):
        raise DomainError(f"lambda^(K-1) overflows a double at K={K}, lambda={lam!r}")
    return K


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

    return TargetFunction(kind="weierstrass_mandelbrot", evaluator=evaluator,
                          params={"s": s, "lambda": lam, "K": K})


def periodic_exponential(k):
    """f(x) = e^{i k pi x}; single-mode periodic test function (complex)."""
    try:
        kpi = math.pi * k
    except OverflowError:  # an int k past the largest double
        kpi = math.inf
    if not math.isfinite(kpi):
        raise DomainError(f"k pi must be finite, got k={k!r}")

    def evaluator(x):
        return np.exp(1j * kpi * np.asarray(x, dtype=float))

    def derivative(x, order):
        return (1j * kpi) ** order * evaluator(x)

    return TargetFunction(kind="periodic_exponential", evaluator=evaluator,
                          derivative=derivative, params={"k": int(k)})


def user_sampled(grid, values):
    """Piecewise-linear interpolant of samples on a grid covering [-1, 1]."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size != values.size or grid.size < 2:
        raise DomainError("grid and values must be 1-D arrays of equal length >= 2")
    if not np.all(np.isfinite(values)):
        raise DomainError("sampled values must be finite")

    def evaluator(x):
        return np.interp(np.asarray(x, dtype=float), grid, values)

    return TargetFunction(kind="user_sampled", evaluator=evaluator,
                          params={"npoints": grid.size})


def _whole(value):
    # a float or string that is not a whole number is an error, not truncated
    if int(value) != float(value):
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
    """A projection order N counts basis functions: it must lie in 1..nmax."""
    if not 1 <= N <= basis.nmax:
        raise DomainError(f"N={N} must lie in 1..nmax={basis.nmax}")


# The largest projection rule: its dense eigensolve and Jacobi table hold
# 16 m^2 bytes for m nodes, 4.3 GB at the cap
_MAX_QUAD_ORDER = 2 ** 14


def project(basis, f, N, quad_order=None):
    """Coefficients <f, psi_n> for n < N plus weighted-L2 and sup errors.

    Coefficients use a Gauss rule with ``quad_order`` nodes (at least
    m + 32, by default m + 64); the residual norm uses at least m + 64 nodes.
    Here m = max(trunc, nmax + ceil(c) + 40), which holds the rules at the
    sizes of the former truncation start order.  The sup
    error is approximated on 2001 equispaced points of the open
    interval: the weight (1-x^2)^a vanishes at the endpoints, so the method
    does not control pointwise values exactly there.
    """
    _check_N(basis, N)
    m = max(basis.trunc, basis.nmax + math.ceil(basis.c) + 40)
    if quad_order is None:
        quad_order = m + 64
    if not m + 32 <= quad_order <= _MAX_QUAD_ORDER:
        raise DomainError(f"quad_order must lie in {m + 32}..{_MAX_QUAD_ORDER}, "
                          f"got {quad_order!r}")
    rule = specfun.gauss_jacobi(basis.alpha, quad_order)
    fvals = f(rule.nodes)
    tab = basis.psi_table(rule.nodes, range(N))
    coeffs = tab @ (rule.weights * fvals)
    res_order = max(quad_order, m + 64)
    if res_order == quad_order:
        res_rule, res_f, res_tab = rule, fvals, tab
    else:
        res_rule = specfun.gauss_jacobi(basis.alpha, res_order)
        res_f = f(res_rule.nodes)
        res_tab = basis.psi_table(res_rule.nodes, range(N))
    resid = res_f - coeffs @ res_tab
    l2w = math.sqrt(max(float(np.real(np.dot(res_rule.weights,
                                             np.abs(resid) ** 2))), 0.0))
    sup = float(np.max(np.abs(f(_SUP_GRID) - _sup_grid_values(basis, coeffs))))
    return ProjectionResult(N=N, coefficients=coeffs, l2w_error=l2w, sup_error=sup)


def _sup_grid_values(basis, coeffs):
    """S_N f = sum_n coeffs_n psi_n on ``_SUP_GRID`` as one Jacobi series in
    g = sum_n coeffs_n beta^n: one column, or the real and imaginary part of
    complex coefficients as two, so no N x 2001 psi table is built."""
    complex_ = np.iscomplexobj(coeffs)
    parts = np.stack([coeffs.real, coeffs.imag], axis=1) if complex_ else coeffs[:, None]
    vals = basis._series(basis._beta_matrix(range(coeffs.size)) @ parts, _SUP_GRID)[0]
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
    coefs = basis.full_coefficients(range(1, N, 2))
    kmax = coefs.shape[1] - 1
    for lo in range(0, K, _EVAL_BLOCK):
        hi = min(lo + _EVAL_BLOCK, K)
        rows = _wm_term_rows(basis.alpha, kmax, lam, lo, hi)
        for k in np.arange(lo, hi):
            # Im of the transform value for odd-parity coefficient vectors
            out[1::2] += float(lam ** (-(2.0 - s) * k)) * (coefs @ rows[k - lo])
    return out


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
    block.  Each row is bitwise independent of its batch.  The powers take
    NumPy integers k: a Python int exponent may round lam^k differently.
    Every term enters the coefficients, so a row whose finite factors
    multiply past the largest double raises DomainError."""
    have = lo if kept is None else lo + len(kept)
    if hi > have:
        us = [float(lam ** k) for k in np.arange(have, hi)]
        with np.errstate(over="ignore", invalid="ignore"):
            new = spectral._fc_term_rows(alpha, kmax, us)
        bad = ~np.isfinite(new).all(axis=1)
        if bad.any():
            raise DomainError(f"the transform terms pass the largest double at "
                              f"alpha={alpha!r}, u={us[int(np.argmax(bad))]!r}")
        kept = new if kept is None else np.concatenate([kept, new])
        kept.setflags(write=False)
    return kept, kept[:hi - lo]


def _cos_transforms(alpha, u):
    """W(u_i) = int cos(u_i x) w_a(x) dx = sqrt(pi) (2/u)^(a+1/2) Gamma(a+1)
    J_{a+1/2}(u) for an array of u_i >= 0, the Bessel values from one ladder
    call; W(0) is the weight mass.  A W(u_i) that is not a finite double
    raises DomainError, naming alpha and u_i."""
    u = np.asarray(u, dtype=float)
    bessel = specfun.bessel_j(alpha + 0.5, u).tolist()
    try:
        gamma = math.exp(specfun.ln_gamma(alpha + 1.0))
    except OverflowError:
        gamma = math.inf  # refused below, at the first u > 0
    w = np.array([spectral._fc_pref(alpha, uk) * gamma * jv if uk
                  else specfun.weight_mass(alpha)
                  for uk, jv in zip(u.tolist(), bessel)])
    bad = ~np.isfinite(w)
    if bad.any():
        raise DomainError(f"the cosine transform W(u) is not a finite double at "
                          f"alpha={alpha!r}, u={u[bad][0].item()!r}")
    return w


@lru_cache(maxsize=8)
def _cos_transform_table(alpha, jmax):
    """W(j pi), j = 0..jmax, from :func:`_cos_transforms`, read-only."""
    w = _cos_transforms(alpha, np.arange(jmax + 1) * math.pi)
    w.setflags(write=False)
    return w


def wm_l2_norm_squared(alpha, s, lam, K):
    """Exact ||M_{s,lam}||^2 in L2(w_a) for the K-term truncation (memoised)."""
    # the memo sits behind a plain function, which perfbench's tracer wraps
    return _wm_l2_norm_squared(alpha, s, lam, _wm_terms(s, lam, K))


@_grown_lru(maxsize=8, nkey=2)
def _wm_pair_transforms(kept, alpha, lam, u):
    """(args, W(args)), read-only, over sorted distinct arguments that cover
    the sorted distinct ``u``: one table per (alpha, lam), grown by the
    arguments it lacks from one :func:`_cos_transforms` call.  The pair
    arguments of a smaller K are a subset of a larger K's, so the table of
    the largest K serves every s."""
    if kept is None:
        kept = (np.empty(0), np.empty(0))
    missing = np.setdiff1d(u, kept[0], assume_unique=True)
    if missing.size:
        args = np.concatenate([kept[0], missing])
        order = np.argsort(args)
        kept = (args[order],
                np.concatenate([kept[1], _cos_transforms(alpha, missing)])[order])
        for a in kept:
            a.setflags(write=False)
    return kept, kept


@lru_cache(maxsize=64)
def _wm_l2_norm_squared(alpha, s, lam, K):
    """Sums amps_i amps_j P[i, j] pairwise over i <= j < K, where P[i, j] =
    int sin(lam^i x) sin(lam^j x) w_a(x) dx comes from the transforms at the
    distinct arguments |lam^i - lam^j| and lam^i + lam^j, which
    :func:`_wm_pair_transforms` keeps per (alpha, lam)."""
    freqs = lam ** np.arange(K)
    iu, ju = np.triu_indices(K)
    diff = np.abs(freqs[iu] - freqs[ju])
    sums = freqs[iu] + freqs[ju]
    u, w = _wm_pair_transforms(alpha, lam, np.unique(np.concatenate([diff, sums])))
    # int sin(ax) sin(bx) w = (cosT(|a-b|) - cosT(a+b)) / 2, row by row over
    # i <= j as np.triu_indices orders them
    prods = (0.5 * (w[np.searchsorted(u, diff)] - w[np.searchsorted(u, sums)])).tolist()
    amps = (lam ** (-(2.0 - s) * np.arange(K))).tolist()
    total = 0.0
    for i, j, p in zip(iu.tolist(), ju.tolist(), prods):
        total += (1.0 if i == j else 2.0) * amps[i] * amps[j] * p
    return total


def wm_projection_error(basis, s, lam, N, K=None):
    """||M - S_N M||_{L2(w_a)} via Parseval in the orthonormal basis."""
    _check_N(basis, N)
    K = _wm_terms(s, lam, K)
    norm2 = wm_l2_norm_squared(basis.alpha, s, lam, K)
    coeffs = wm_all_coefficients(basis, s, lam, N, K=K)
    return math.sqrt(max(norm2 - float(np.sum(coeffs ** 2)), 0.0))


def cosine_transform_table(basis, k_max, N):
    """Matrix T[k-1, n] = <cos(k pi x), psi_n> for k = 1..k_max, n < N.

    Exact Bessel form, one ladder per frequency; odd-n columns vanish by
    parity.  Seed-independent, so random cosine-series projections reduce to
    a matrix-vector product with exact coefficients (a quadrature rule of
    practical size cannot resolve thousands of cosine modes, and aliasing
    noise gets amplified by the endpoint growth of psi_n).
    """
    _check_N(basis, N)
    coefs = basis.full_coefficients(range(0, N, 2))
    kmax = coefs.shape[1] - 1
    table = np.zeros((k_max, N))
    block = 256  # frequencies per batched ladder; bounds its memory
    for lo in range(0, k_max, block):
        u = np.arange(lo + 1, min(lo + block, k_max) + 1) * math.pi
        for i, terms in enumerate(spectral._fc_term_rows(basis.alpha, kmax, u)):
            table[lo + i, 0::2] = coefs @ terms
    return table


def cosine_series_norm2(alpha, weighted_amplitudes):
    """||sum_k y_k cos(k pi x)||^2 in L2(w_a), via exact cosine transforms:
    <cos(j pi .), cos(k pi .)>_w = (W(|j-k| pi) + W((j+k) pi)) / 2.

    The autocorrelation and the self-convolution of y come from one
    zero-padded real FFT of length L >= 2K - 1, O(K log K) in place of two
    O(K^2) direct products."""
    y = np.asarray(weighted_amplitudes, dtype=float)
    K = y.size
    w = _cos_transform_table(alpha, 2 * K)
    L = 1 << (2 * K - 2).bit_length()  # the smallest power of two >= 2K - 1
    Y = np.fft.rfft(y, L)
    auto = np.fft.irfft(Y * Y.conj(), L)[:K]  # lags 0..K-1
    norm2 = 0.5 * float(auto[0] * w[0] + 2.0 * np.dot(auto[1:], w[1:K]))
    pair = np.fft.irfft(Y * Y, L)[:2 * K - 1]  # index d holds sum_{j+k=d+2} y y
    norm2 += 0.5 * float(np.dot(pair, w[2:]))
    return norm2


def cosine_series_projection(basis, weighted_amplitudes, N, table=None):
    """Exact projection data for f = sum_k y_k cos(k pi x).

    Returns (coefficients, l2w_error).  ``weighted_amplitudes`` are the y_k
    (amplitude over k^s already applied).  The error uses Parseval in the
    orthonormal basis with ||f||^2 from :func:`cosine_series_norm2`.
    """
    y = np.asarray(weighted_amplitudes, dtype=float)
    if table is None:
        table = cosine_transform_table(basis, y.size, N)
    coeffs = y @ table[:, :N]
    err2 = cosine_series_norm2(basis.alpha, y) - float(np.sum(coeffs ** 2))
    return coeffs, math.sqrt(max(err2, 0.0))


def periodic_coefficient(basis, k, n):
    """<e^{i k pi x}, psi_n> in L2(w_a), via the exact transform expansion."""
    if not 0 <= n < basis.nmax:
        raise DomainError(f"basis index {n} out of range")
    row = basis.beta[n]
    if k == 0:
        if n % 2 == 1:
            return 0.0j
        return complex(row[0] * math.sqrt(specfun.weight_mass(basis.alpha)))
    val = spectral._fc_series(basis.alpha, row, n % 2, abs(k) * math.pi)
    if k < 0:
        val = val.conjugate()
    return val


# ---------------------------------------------------------------------------
# Weighted Sobolev norms (coefficient characterizations).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SobolevNorm:
    """Value of the displayed coefficient sum (a squared-norm style quantity)."""

    s: float
    value: float
    style: str


def sobolev_norm(coeffs, s, style="jacobi_coefficient", alpha=None, k_values=None):
    """Coefficient-weighted Sobolev sum.

    jacobi_coefficient: sum_n (1 + (n(n+2a+1))^(2s)) |v_n|^2   (0^0 := 1)
    periodic_fourier:   sum_k (1 + (k pi)^2)^s |b_k|^2
    """
    if s < 0.0:
        raise DomainError("smoothness exponent must be >= 0")
    coeffs = np.asarray(coeffs)
    with np.errstate(over="ignore"):  # overflow handled by the finite check
        mags = np.abs(coeffs) ** 2
    if style == "jacobi_coefficient":
        if alpha is None:
            raise DomainError("jacobi_coefficient style requires alpha")
        n = np.arange(coeffs.size, dtype=float)
        base = n * (n + 2.0 * alpha + 1.0)
        weights = 1.0 + base ** (2.0 * s)
    elif style == "periodic_fourier":
        if k_values is None:
            raise DomainError("periodic_fourier style requires k_values")
        k = np.asarray(k_values, dtype=float)
        if k.size != coeffs.size:
            raise DomainError("k_values must match coefficient count")
        weights = (1.0 + (math.pi * k) ** 2) ** s
    else:
        raise DomainError(f"unknown Sobolev style {style!r}")
    value = float(np.dot(weights, mags))
    if not math.isfinite(value):
        raise DomainError("weighted Sobolev sum overflowed")
    return SobolevNorm(s=float(s), value=value, style=style)


# nodes of the Gauss rule of derivative_sobolev_norm
_SOBOLEV_QUAD_ORDER = 500


def derivative_sobolev_norm(f, r, alpha):
    """sum_{j=0}^{r} ||f^(j)||^2 in L2(w_a); needs analytic derivatives."""
    if f.derivative is None:
        raise DomainError(f"corpus function {f.kind!r} has no derivatives")
    rule = specfun.gauss_jacobi(alpha, _SOBOLEV_QUAD_ORDER)
    total = 0.0
    for j in range(r + 1):
        vals = f.derivative(rule.nodes, j)
        total += float(np.real(rule.integrate(np.abs(vals) ** 2)))
    return total


# ---------------------------------------------------------------------------
# Approximation-rate checkers.  The generic constants in the underlying
# estimates are never asserted numerically; the checks are structural
# (bounded ratios, negative fitted exponents).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailRatioReport:
    N_list: tuple
    errors: tuple
    tail_factors: tuple
    ratios: tuple
    slope: float
    norm_squared: float

    @property
    def max_ratio(self):
        return max(self.ratios)


def _chi_tail_factor(basis, N, m):
    # sum_{n > N} chi_n^(-2m), extending past nmax with the lower bound
    # chi_n >= n(n+2a+1)
    acc = 0.0
    for n in range(N + 1, basis.nmax):
        acc += math.exp(-2.0 * m * math.log(float(basis.chi[n])))
    n = max(basis.nmax, N + 1)
    while True:
        term = math.exp(-2.0 * m * math.log(n * (n + 2.0 * basis.alpha + 1.0)))
        acc += term
        if term < 1e-14 * acc or n > 10 ** 6:
            break
        n += 1
    return acc


def chi_tail_error_check(basis, f, m, N_list):
    """Ratio ||f - S_N f||^2 / (sum_{n>N} chi_n^(-2m) * ||f||^2_{m+2}) over N.

    A bounded, non-exploding ratio (and a log-log error slope <= -2m) is the
    checkable content; the constant in the estimate is generic.
    """
    N_list = sorted(N_list)
    n_top = N_list[-1]
    proj = project(basis, f, n_top)
    norm2 = derivative_sobolev_norm(f, m + 2, basis.alpha)
    errors, tails, ratios = [], [], []
    err2_top = proj.l2w_error ** 2
    for N in N_list:
        err2 = err2_top + float(np.sum(np.abs(proj.coefficients[N:n_top]) ** 2))
        tail = _chi_tail_factor(basis, N, m)
        errors.append(math.sqrt(max(err2, 0.0)))
        tails.append(tail)
        ratios.append(err2 / (tail * norm2))
    logs = np.log(np.maximum(errors, 1e-300))
    slope = float(np.polyfit(np.log(N_list), logs, 1)[0]) if len(N_list) > 1 else math.nan
    return TailRatioReport(N_list=tuple(N_list), errors=tuple(errors),
                           tail_factors=tuple(tails), ratios=tuple(ratios),
                           slope=slope, norm_squared=norm2)


@dataclass(frozen=True)
class RateReport:
    N_list: tuple
    errors: tuple
    algebraic: tuple
    applicable: tuple
    fitted_amplitude: float
    fitted_rate: float

    @property
    def rate_positive(self):
        return self.fitted_rate > 0.0

    @property
    def holds(self):
        return all(
            (not app) or err <= alg + self.fitted_amplitude
            * math.exp(-min(self.fitted_rate * n, 700.0)) + 1e-12
            for n, err, alg, app in zip(self.N_list, self.errors,
                                        self.algebraic, self.applicable))


def projection_rate_check(basis, f, s, N_list, hs_norm):
    """Check err_N <= (1 + (N/2)^2)^(-s/2) ||f||_{H^s} + A e^{-aN}.

    ``hs_norm`` is the (unsquared) smoothness norm of f.  The exponential
    part has generic constants, so (A, a) are fitted to the residuals above
    the algebraic term; the verdict is that the fitted rate is positive.
    Entries with N <= m_a c are flagged inapplicable.
    """
    N_list = sorted(N_list)
    threshold = decay_regime_multiplier(basis.alpha) * basis.c
    n_top = N_list[-1]
    proj = project(basis, f, n_top)
    err2_top = proj.l2w_error ** 2
    errors, algebraic, applicable = [], [], []
    for N in N_list:
        err2 = err2_top + float(np.sum(np.abs(proj.coefficients[N:n_top]) ** 2))
        errors.append(math.sqrt(max(err2, 0.0)))
        algebraic.append((1.0 + (N / 2.0) ** 2) ** (-0.5 * s) * hs_norm)
        applicable.append(N > threshold)
    resid = [(n, e - a) for n, e, a, app in zip(N_list, errors, algebraic,
                                                applicable) if app and e > a]
    if len(resid) >= 2:
        ns = np.array([r[0] for r in resid], dtype=float)
        ls = np.log([r[1] for r in resid])
        slope = np.polyfit(ns, ls, 1)[0]
        a_rate = -float(slope)
        amp = float(np.max(np.exp(ls + a_rate * ns)))
    elif len(resid) == 1:
        # one point cannot pin a rate; report it flat so the caller sees it
        a_rate, amp = 0.0, resid[0][1]
    else:
        a_rate, amp = math.inf, 0.0
    return RateReport(N_list=tuple(N_list), errors=tuple(errors),
                      algebraic=tuple(algebraic), applicable=tuple(applicable),
                      fitted_amplitude=amp, fitted_rate=a_rate)
