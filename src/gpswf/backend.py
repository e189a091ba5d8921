"""Numerical kernels: symmetric tridiagonal eigenvalues, the forward
recurrence of the orthonormal Jacobi polynomials and the series summed over
it or over its stored rows, and Bessel J ladders.

Every kernel has this one NumPy implementation.  All tridiagonal eigenvalue
work in the package (basis ``chi_n`` and Gauss-rule nodes) goes through
:func:`tridiag_eig`, which is LAPACK through ``numpy.linalg``; no kernel
computes eigenvectors.

The Jacobi recurrence :func:`_jacobi_rows` has two paths with bitwise the
same values.  At one point (x = 0 for the sign convention and psi_n(0)) it
steps in Python floats; at several points (probes, grids, Gauss nodes) it
writes each step into its output rows with ``out=`` ufuncs, taking a
block's row views from one list per derivative order rather than indexing
them step by step.  At these sizes both cost NumPy call overhead rather
than arithmetic, which is what they cut.  Each parity's series reads that
parity's rows only.  The spectrum's probe check, which also needs the
rows themselves, sums psi_table's values over them with
:func:`table_series`.

:func:`bessel_ladder` gives the Bessel orders ``nu0 + j`` times (2/x)^nu0 at
an array of arguments, one row each of mantissas and integer exponents, and
every row is bitwise what the argument would get alone.  One array expression
splits the arguments between the regimes.  Arguments in the upward regime
share one vectorised recurrence, which starts from one array Hankel sum per
start order, its phase from libm's ``cos`` and ``sin`` of x, which reduce
every double exactly.  Miller-regime arguments, ordered by one stable argsort
of their start orders (one array expression, :func:`_miller_top`), run in
blocks of array slices through one array backward recurrence each, in which
each run of equal start orders joins as one slice and each column rescales
on its own, at orders that are multiples of 8 for every column, so every
step is the same IEEE operations as the one-argument recurrence
:func:`_ladder_miller`; a set of fewer than ``_MILLER_LONE`` arguments runs
that recurrence per argument instead.  The blocks are sized in bytes at (jtop
+ 7 count) doubles per argument, which bounds a block's work arrays: as many
arguments as fit in ``_MILLER_BYTES`` (0.85 MB), never fewer than
``_MILLER_MIN`` (32), split evenly.  The close divides each value by its
column's Neumann sum (:func:`_miller_close`), exactly rounded in NumPy as in
Python floats, with one memoised table of Neumann coefficients per base
order.  Arguments at most ``_SMALL_X`` (1e-8) take the leading series term.

:func:`fsum_rows` sums each row of an array exactly rounded, bit for bit
``math.fsum``, in whole-array passes: a pairwise tree of error-free TwoSums
splits every row into a root and its errors, and a rigorous bound on the
errors' rounded sum certifies the result (Ogita, Rump & Oishi, SIAM J. Sci.
Comput. 26, 2005).  A row it cannot certify, near a tie, tiny, zero or not
finite, goes to ``math.fsum`` itself.
"""

import math
from functools import lru_cache

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "python"


def tridiag_eig(diag, offdiag):
    """Ascending eigenvalues of a symmetric tridiagonal matrix (LAPACK
    ``syevd`` on the dense lower triangle)."""
    d = np.asarray(diag, dtype=float)
    a = np.diag(d)
    i = np.arange(d.size - 1)
    a[i + 1, i] = offdiag  # eigvalsh reads the lower triangle only
    return np.linalg.eigvalsh(a)


def _jacobi_rows(rec, p0, kmax, x, nderiv, chunk):
    """Forward recurrence for ``Jt_k(x)``, k = 0..kmax, and its derivatives.

    ``Jt_k`` are the orthonormal symmetric-Jacobi polynomials with three-term
    recurrence ``x Jt_k = rec[k+1] Jt_{k+1} + rec[k] Jt_{k-1}`` and
    ``Jt_0 = p0``; ``rec`` needs length ``>= kmax + 1``.  Differentiating it
    d times gives ``rec[k+1] Jt_{k+1}^(d) = x Jt_k^(d) + d Jt_k^(d-1) -
    rec[k] Jt_{k-1}^(d)``.  Yields ``(k0, rows)`` with ``rows[d, i] =
    Jt_{k0+i}^(d)(x)`` for at most ``chunk`` consecutive k, so rows has shape
    (nderiv+1, <= chunk, len(x)).  The recurrence is stable inside [-1, 1]
    (Gautschi, *Orthogonal Polynomials*, 2004).

    Two paths, chosen by ``x.size``, take every value through the same IEEE
    operations in the same order, ``((x Jt_k + d Jt_k^(d-1)) - rec[k]
    Jt_{k-1}) / rec[k+1]``, with ``rec`` read as Python floats.  One point
    steps in Python floats, which round each operation as NumPy does (no
    FMA) without its per-call overhead.  Several points step one derivative
    order at a time with ``out=`` ufuncs on 1-d row views, made once per
    block: each step writes its rows of the block in place, with one
    scratch vector, and ``prev`` and ``cur`` are per-order vectors; the next
    block's first steps read the last rows of the one before, so a caller
    must not write to a block before asking for the next.
    """
    recs = rec.tolist()
    if x.size == 1:
        yield from _jacobi_rows_one(recs, p0, kmax, x.item(), nderiv, chunk)
        return
    prev = [np.zeros(x.size) for _ in range(nderiv + 1)]
    cur = [np.full(x.size, p0, dtype=float)] + prev[1:]
    tmp = np.empty(x.size)
    for k0 in range(0, kmax + 1, chunk):
        rows = np.empty((nderiv + 1, min(chunk, kmax + 1 - k0), x.size))
        # one tuple of row views per step: rows[d, i] for every order d
        for k, step in enumerate(zip(*map(list, rows)), k0):
            if k == 0:
                rows[:, 0] = cur
                continue
            for d, row in enumerate(step):
                np.multiply(x, cur[d], out=row)
                if d:
                    row += np.multiply(float(d), cur[d - 1], out=tmp)
                row -= np.multiply(recs[k - 1], prev[d], out=tmp)
                row /= recs[k]
            prev, cur = cur, step
        yield k0, rows


def _jacobi_rows_one(recs, p0, kmax, x, nderiv, chunk):
    """:func:`_jacobi_rows` at one point ``x``, in Python floats; ``recs`` is
    the recurrence as a list."""
    prev = [0.0] * (nderiv + 1)
    cur = [p0] + [0.0] * nderiv
    vals = list(cur)  # vals[k * (nderiv + 1) + d] = Jt_k^(d)(x)
    for k in range(1, kmax + 1):
        r0, r1 = recs[k - 1], recs[k]
        nxt = [(x * cur[0] - r0 * prev[0]) / r1]
        for d in range(1, nderiv + 1):
            nxt.append((x * cur[d] + d * cur[d - 1] - r0 * prev[d]) / r1)
        prev, cur = cur, nxt
        vals += cur
    # C order, so each derivative's rows are contiguous as in the array path
    table = np.array(vals).reshape(kmax + 1, nderiv + 1).T.copy()[:, :, None]
    for k0 in range(0, kmax + 1, chunk):
        yield k0, table[:, k0:k0 + chunk]


# Rows of the recurrence alive at once in jacobi_series: (nderiv+1) * 32 *
# len(x) doubles, so no caller needs to block over points.
_SERIES_ROWS = 32


def jacobi_series(coefs, rec, p0, x, nderiv=0):
    """The series ``sum_i coefs[p][i, j] Jt_{2i+p}(x)`` of each parity p = 0,
    1 and column j of ``coefs[p]``, shape (m_p, ncols_p), and derivatives up
    to order ``nderiv``: a pair of arrays of shape (nderiv + 1, ncols_p,
    len(x)).  The ``Jt_k`` and ``rec`` are those of :func:`_jacobi_rows`,
    which runs once; each block of ``_SERIES_ROWS`` rows adds its rows of
    parity p to that parity's sums and is dropped.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    kmax = max(2 * c.shape[0] - 2 + p for p, c in enumerate(coefs))
    blocks = ((k0 // 2, (rows[:, 0::2], rows[:, 1::2]))
              for k0, rows in _jacobi_rows(rec, p0, kmax, x, nderiv, _SERIES_ROWS))
    return _sum_blocks(coefs, blocks, nderiv + 1, x.size)


def table_series(coefs, tables):
    """:func:`jacobi_series` at nderiv 0 from stored rows of each parity,
    ``tables[p][i, j] = Jt_{2i+p}(x_j)`` (of a :func:`specfun.jacobi_table`),
    summed in the same blocks of ``_SERIES_ROWS`` // 2 rows per parity, so
    bitwise the same."""
    half = _SERIES_ROWS // 2
    blocks = ((i0, tuple(t[None, i0:i0 + half] for t in tables))
              for i0 in range(0, max(c.shape[0] for c in coefs), half))
    return _sum_blocks(coefs, blocks, 1, tables[0].shape[1])


def _sum_blocks(coefs, blocks, nd, npts):
    """The sums of each parity, shape (nd, ncols_p, npts), from blocks
    ``(i0, (even rows, odd rows))``, the rows of each parity from index i0:
    derivative order d of parity p adds ``coefs[p][i0:i0 + len].T @ rows[d]``."""
    outs = [np.zeros((nd, c.shape[1], npts)) for c in coefs]
    # one buffer per parity for every block's product: a fresh one per block
    # leaves freed heap that malloc keeps resident (+0.9 MB RSS in brownian)
    parts = [np.empty((c.shape[1], npts)) for c in coefs]
    for i0, pair in blocks:
        for coef, rows, out, part in zip(coefs, pair, outs, parts):
            block = coef[i0:i0 + rows.shape[1]].T
            for d in range(nd):
                out[d] += np.matmul(block, rows[d, :block.shape[1]], out=part)
    return outs


# ---------------------------------------------------------------------------
# Bessel J ladders.
#
# bessel_ladder(nu0, count, x) returns J_{nu0 + j}(x_i) (2/x_i)^nu0, j =
# 0..count-1, one row per argument x_i, for a base order nu0 in [-0.5, 0.5),
# as mantissas and integer exponents.  Three regimes:
#   * Miller backward recurrence (Gautschi, SIAM Review 9, 1967), normalized
#     by the Neumann-type sum
#     (x/2)^nu = sum_k (nu + 2k) Gamma(nu + k) / k!  J_{nu+2k}(x),
#     used whenever the top order is comparable to x or x is moderate;
#   * Hankel asymptotics at the two bottom orders followed by upward
#     recurrence, used when x is large and all orders sit well below x
#     (upward recurrence is stable in the oscillatory regime);
#   * the leading term of the ascending series, at 0 <= x <= 1e-8.
# ---------------------------------------------------------------------------

_RESCALE_LOG2 = 600
_RESCALE = 2.0 ** _RESCALE_LOG2
_MILLER_X_MAX = 370.0
# Arguments at most this take the leading series term (_ladder_small): at
# smaller x the Miller recurrence may grow past the largest double between
# two rescale tests
_SMALL_X = 1e-8


def _hankel_start(nu, xs, cos_x, sin_x):
    """Large-argument asymptotic J_nu(x) at an array of x >> nu^2 (small nu
    here), its phase x - (nu/2 + 1/4) pi from ``cos_x`` = cos x and ``sin_x``
    = sin x by angle addition.  Each element stops the series at its own
    smallest term or once a term falls below 1e-18, and sees the IEEE
    operations of the one-argument sum."""
    mu = 4.0 * nu * nu
    inv8x = 0.125 / xs
    p = np.ones(xs.size)
    q = np.zeros(xs.size)
    term = np.ones(xs.size)
    prev = np.full(xs.size, math.inf)
    live = np.ones(xs.size, dtype=bool)
    sign = 1.0
    for k in range(1, 41):
        step = term * (((mu - (2 * k - 1) ** 2) * inv8x) / k)
        mag = np.abs(step)
        live &= ~(mag > prev)  # diverging: stop at the smallest term
        term = np.where(live, step, term)
        prev = np.where(live, mag, prev)
        if k % 2 == 1:
            q = np.where(live, q + sign * step, q)
        else:
            sign = -sign
            p = np.where(live, p + sign * step, p)
        live &= ~(mag < 1e-18)
        if not live.any():
            break
    theta = (0.5 * nu + 0.25) * math.pi
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cos_w = cos_x * cos_t + sin_x * sin_t
    sin_w = sin_x * cos_t - cos_x * sin_t
    return np.sqrt(2.0 / math.pi / xs) * (p * cos_w - q * sin_w)


def _miller_top(nu0, count, x):
    """Start orders (int64) of the backward recurrence at the arguments x."""
    return np.ceil(np.maximum(float(count + 1), 1.02 * x - nu0)
                   + 12.0 * np.sqrt(x + 1.0) + 32.0).astype(np.int64)


@lru_cache(maxsize=32)
def _neumann_table(nu0, size):
    """cf_k, k = 0..size-1, of the Neumann sum sum_k cf_k J_{nu0+2k} =
    (x/2)^nu0: cf_0 = Gamma(nu0 + 1), cf_k = (nu0 + 2k) Gamma(nu0 + k) / k!."""
    return (math.exp(math.lgamma(nu0 + 1.0)),) + tuple(
        (nu0 + 2 * k) * math.exp(math.lgamma(nu0 + k) - math.lgamma(k + 1.0))
        for k in range(1, size))


def _neumann(nu0, jtop):
    """The Neumann coefficients of orders nu0 + 2k <= nu0 + jtop.  The table is
    memoised per nu0 in power-of-two sizes; each entry is computed on its own,
    so every size holds the same doubles."""
    size = 256
    while size <= jtop // 2:
        size *= 2
    return _neumann_table(nu0, size)


def _miller_close(vals, marks, neumann, scale):
    """Normalise backward recurrences, one column per argument: ``vals[j,
    i]`` is proportional to J_{nu0+j}(x_i) at the rescale count ``marks[(j +
    6) // 8, i]`` (see :func:`_ladder_miller`), and column i ended with
    Neumann sum ``neumann[i]`` at rescale count ``scale[i]``.  Returns the
    mantissas (a view of ``vals``) and exponents, shape (len(neumann),
    count); ``vals`` and ``marks`` are overwritten.

    sum_k cf_k J_{nu0+2k}(x) = (x/2)^nu0, so J_{nu0+j}(x) (2/x)^nu0 = vals[j]
    / neumann 2^(600 (marks - scale)), with no power of x.  With neumann = m
    2^e, 1/2 <= |m| < 1 (``frexp``), the mantissa vals[j] / m cannot overflow
    and is rounded once, in NumPy as in Python floats.
    """
    mant, expo = np.frexp(neumann)
    marks -= scale
    marks *= _RESCALE_LOG2
    marks -= expo
    vals /= mant
    return vals.T, marks[(np.arange(len(vals)) + 6) >> 3].T


def _ladder_miller(nu0, count, x, jtop):
    """The backward recurrence at one argument, in Python floats: the path
    of a lone Miller argument and the reference of :func:`_miller_block`.

    From v = 1e-30 at the start order ``jtop`` of :func:`_miller_top` down to
    order 0, each step is v_{j-1} = (2 (nu0 + j) / x) v_j - v_{j+1}, and
    every even order adds cf_{j/2} v_j to the Neumann sum.  Only at the orders j = 0 mod
    8 does it test max(|v_j|, |v_{j+1}|) > 2^600; if so it divides v_j,
    v_{j+1} (also where it is kept), the Neumann sum by 2^600 and counts
    one rescale.  ``marks[k]`` is the count after the test at order 8k, so a
    kept v_j is at count ``marks[(j + 6) // 8]``.

    The tests suffice: M_j = max(|v_j|, |v_{j+1}|) obeys M_{j-1} <= (2 (nu0
    + j) / x + 1) M_j, so between two tests M grows by at most the product
    of that factor over 8 orders.  For x > ``_SMALL_X`` = 1e-8 and start
    orders below 3e7 each factor is below 2^52.5 and the product below
    2^420, so |v| stays below 2^1020 (the largest count the library asks
    for is about 2 ``basis._M_CAP`` = 16384, plus the order's integer part).
    """
    cf = _neumann(nu0, jtop)
    vals = [0.0] * count
    marks = [0] * ((count + 5) // 8 + 1)
    vp1 = 0.0          # order nu0 + j + 1
    v = 1e-30          # order nu0 + j
    scale = 0
    neumann = 0.0
    for j in range(jtop, -1, -1):
        if not j & 7:
            if abs(v) > _RESCALE or abs(vp1) > _RESCALE:
                v /= _RESCALE
                vp1 /= _RESCALE
                neumann /= _RESCALE
                scale += 1
                if j + 1 < count:
                    vals[j + 1] = vp1
            if j >> 3 < len(marks):
                marks[j >> 3] = scale
        if j < count:
            vals[j] = v
        if not j & 1:
            neumann += cf[j >> 1] * v
        if j:
            v, vp1 = (2.0 * (nu0 + j) / x) * v - vp1, v
    mant, expo = _miller_close(np.array(vals)[:, None],
                               np.array(marks, dtype=np.int32)[:, None],
                               np.array([neumann]), np.array([scale]))
    return mant[0], expo[0]


def _miller_block(nu0, count, xs, tops):
    """Backward recurrences at the arguments ``xs``, an array sorted by
    descending start order ``tops``, as one array recurrence; returns the
    ladders of :func:`_miller_close`.

    A column joins at its own start order with (v, vp1, neumann) = (1e-30,
    0, 0) and rescales on its own at the test orders of
    :func:`_ladder_miller`, which are the same for every column, so it sees
    exactly the IEEE operations of :func:`_ladder_miller` at its argument;
    before that it runs from the block's start on values that its join
    discards; a run of equal start orders joins as one slice.  The orders
    below ``count`` are written straight into their rows, which a rescale
    then divides in place.
    """
    nb = xs.size
    jtop = int(tops[0])
    cf = _neumann(nu0, jtop)
    # the step factors 2 (nu0 + j) / x, each one division as in the scalar
    fac = np.divide((2.0 * (nu0 + np.arange(jtop + 1)))[:, None], xs)
    # the runs of start orders after the first: order -> slice of columns
    lo = np.flatnonzero(np.diff(tops)) + 1
    joins = dict(zip(tops[lo].tolist(), map(slice, lo.tolist(), lo[1:].tolist() + [nb])))
    v = np.full(nb, 1e-30)
    vp1 = np.zeros(nb)
    neumann = np.zeros(nb)
    scale = np.zeros(nb, dtype=np.int32)
    step = np.empty(nb)
    mag = np.empty(nb)
    vals = np.empty((count, nb))
    marks = np.empty(((count + 5) // 8 + 1, nb), dtype=np.int32)
    for j in range(jtop, -1, -1):
        cols = joins.get(j)
        if cols is not None:  # every column has joined before order count
            v[cols] = 1e-30
            vp1[cols] = 0.0
            neumann[cols] = 0.0
            scale[cols] = 0
        if not j & 7:
            np.maximum(np.abs(v, out=step), np.abs(vp1, out=mag), out=mag)
            if np.maximum.reduce(mag) > _RESCALE:
                big = mag > _RESCALE
                v[big] /= _RESCALE
                vp1[big] /= _RESCALE
                neumann[big] /= _RESCALE
                scale[big] += 1
            if j >> 3 < len(marks):
                marks[j >> 3] = scale
        if not j & 1:
            neumann += np.multiply(cf[j >> 1], v, out=step)
        if j:
            np.multiply(fac[j], v, out=step)
            nxt = vals[j - 1] if j <= count else vp1
            np.subtract(step, vp1, out=nxt)
            v, vp1 = nxt, v
    return _miller_close(vals, marks, neumann, scale)


def _ladder_upward(nu0, count, xs):
    """Ladders at an array of arguments in the upward regime, one row per
    order (shape (count, len(xs))), so each step is one contiguous vector op
    and every argument sees the same IEEE operations as it would alone; the
    values are J_{nu0+j}(x) (x/2)^-nu0, which NumPy's power rounds alike in
    any batch."""
    lad = np.empty((count, xs.size))
    cos_x, sin_x = np.cos(xs), np.sin(xs)
    lad[0] = _hankel_start(nu0, xs, cos_x, sin_x)
    if count > 1:
        lad[1] = _hankel_start(nu0 + 1.0, xs, cos_x, sin_x)
        for j in range(2, count):
            lad[j] = (2.0 * (nu0 + j - 1) / xs) * lad[j - 1] - lad[j - 2]
    lad *= np.power(0.5 * xs, -nu0)
    return lad


def _upward_regime(nu0, count, x):
    """Which arguments of the array ``x`` take the upward recurrence: x past
    ``_MILLER_X_MAX`` with every order at most 0.88 x."""
    return (x > _MILLER_X_MAX) & ~(nu0 + count - 1 > 0.88 * x)


def _ladder_small(nu0, count, x):
    """The ladder at 0 <= x <= ``_SMALL_X`` from the leading series term
    (x/2)^nu / Gamma(nu + 1), nu = nu0 + j; the next term is (x/2)^2 / (nu +
    1) <= eps/4 of it, as (x/2)^2 < eps/8.  Scaled, it is (x/2)^j / Gamma(nu +
    1), a product of factors (x/2) / (nu0 + j) in Python floats, renormalised
    at each, with x/2 = m 2^(e - 1) from x = m 2^e; at x = 0 only j = 0 is
    left."""
    mant, expo = np.zeros(count), np.zeros(count, dtype=np.int32)
    m, e = math.frexp(x)
    v, ev = math.frexp(1.0 / math.gamma(nu0 + 1.0))
    mant[0], expo[0] = v, ev
    if x:
        for j in range(1, count):
            v, dv = math.frexp(v * m / (nu0 + j))
            ev += dv + e - 1
            mant[j], expo[j] = v, ev
    return mant, expo


# Bytes a batched Miller recurrence may hold: its work arrays take at most
# (jtop + 7 count) doubles per argument, and a block takes as many arguments
# as fit, but never fewer than _MILLER_MIN.
_MILLER_BYTES = 850_000
_MILLER_MIN = 32
# Below this many arguments a block runs _ladder_miller per argument: at
# count 181, 9 arguments (x = 1..256) took 3.5 ms as a block and 1.4 ms
# alone, and 32 about tie (timings in README).
_MILLER_LONE = 16


def _miller_blocks(count, tops):
    """Bounds ``(lo, hi)`` of the blocks of Miller arguments, sorted by
    descending start order ``tops``: as few blocks as hold every argument
    within ``_MILLER_BYTES`` at the largest start order (or ``_MILLER_MIN``
    arguments each), split evenly, so each block but a lone set of fewer
    than ``_MILLER_LONE`` arguments runs as one array recurrence."""
    if not tops.size:
        return []
    width = max(_MILLER_MIN, _MILLER_BYTES // (8 * (int(tops[0]) + 7 * count)))
    nblocks = -(-len(tops) // width)
    bounds = [len(tops) * i // nblocks for i in range(nblocks + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def bessel_ladder(nu0, count, x):
    """J_{nu0+j}(x_i) (2/x_i)^nu0, j = 0..count-1, for nu0 in [-0.5, 0.5) and
    an array of x_i >= 0, as mantissas and integer exponents, each of shape
    (len(x), count), the value ``mant * 2**expo``: no regime forms J or
    (2/x)^nu0 as a double, so none under- or overflows.  Row i is bitwise
    the same whatever other arguments share the call.

    Miller-regime arguments, in a stable argsort of their start orders, run
    in the blocks of :func:`_miller_blocks` as one array recurrence each; a
    block of fewer than ``_MILLER_LONE`` arguments runs :func:`_ladder_miller`
    per argument, faster there (a lone argument by about ten times).
    Upward-regime arguments share one array Hankel start and one recurrence.
    Arguments in [0, ``_SMALL_X``] take :func:`_ladder_small` one by one.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mant, expo = np.empty((x.size, count)), np.zeros((x.size, count), dtype=np.int32)
    up = _upward_regime(nu0, count, x)
    for i in np.flatnonzero(x <= _SMALL_X).tolist():
        mant[i], expo[i] = _ladder_small(nu0, count, float(x[i]))
    miller = np.flatnonzero(~up & (x > _SMALL_X))
    tops = _miller_top(nu0, count, x[miller])
    order = np.argsort(-tops, kind="stable")
    miller, tops = miller[order], tops[order]
    for lo, hi in _miller_blocks(count, tops):
        block = miller[lo:hi]
        if block.size < _MILLER_LONE:
            for i, top in zip(block.tolist(), tops[lo:hi].tolist()):
                mant[i], expo[i] = _ladder_miller(nu0, count, float(x[i]), top)
        else:
            mant[block], expo[block] = _miller_block(nu0, count, x[block], tops[lo:hi])
    if up.any():
        mant[up] = _ladder_upward(nu0, count, x[up]).T
    return mant, expo


# ---------------------------------------------------------------------------
# Exactly rounded row sums.
# ---------------------------------------------------------------------------

# A certified row's sum is at least this in magnitude, so that half its
# smaller gap is a normal double with room below it (see fsum_rows)
_FSUM_TINY = 2.0 ** -900
# A row of k entries is certified only if k max |x| is below this, so that no
# partial sum of the tree or of math.fsum can overflow
_FSUM_HUGE = 2.0 ** 1000


def fsum_rows(rows):
    """Each row's sum of the 2-D float array ``rows``, bit for bit
    ``math.fsum(row)``, and raising what that raises.

    A row of k entries is summed by a pairwise tree of TwoSums, s = a + b,
    z = s - a, e = (a - (s - z)) + (b - z), each of which gives s + e = a + b
    exactly in round to nearest, underflow included, as long as nothing
    overflows (Knuth, *TAOCP* 2, 4.2.2).  The rows are summed as columns,
    one level of the tree at a time: a level of w entries adds its first
    w // 2 to its last w // 2, the middle entry of an odd level goes up as
    it is, and the w // 2 errors go into one buffer of k - 1.  The row's
    exact sum is T = hi + sum e, with hi the root.

    Certificate.  lo = fl(sum e), in any order, is within g_n sum |e| of sum
    e, g_n = n u / (1 - n u) with u = 2^-53 and n = k - 2 additions; this
    holds with gradual underflow, where additions are exact (Higham,
    *Accuracy and Stability*, 2002, 4.2).  delta = c S with S = fl(sum |e|)
    and c = 4 w u, w the power of two above k, so c >= 2 g_k.  The factor 2
    pays for S's own rounding: S >= (1 - g_n) sum |e| >= sum |e| / 2, so c S
    >= g_n sum |e|.  c is a power of two, so fl(c S) is c S unless it is
    subnormal, and then within 2^-1075 of it.  A second TwoSum gives r + f =
    hi + lo exactly, so |T - r| <= |f| + delta + 2^-1075.  The gap below |r|,
    |r| - pred(|r|), is the smaller of its two gaps to the neighbouring
    doubles; call it 2h.  The row is certified when fl(2 fl(|f| + delta)) <
    2h.  That test is exact: doubling is exact, rounding is monotone and 2h
    is a double, so it implies |f| + delta < h in real numbers; all three are
    multiples of 2^-1074, so |f| + delta <= h - 2^-1074 and |T - r| < h.  T
    then lies strictly inside r's rounding interval, and every rounding to
    nearest, fsum's included, returns r.  |r| >= 2^-900 keeps h a normal
    double far above 2^-1074; k max |x| < 2^1000 keeps every partial sum of
    the tree and of fsum, at most about 3 k max |x|, finite, so fsum cannot
    raise on a certified row.

    Every other row goes to ``math.fsum(row.tolist())``: a sum within
    delta of a tie, r = 0 (whose sign fsum decides) or |r| < 2^-900, and
    rows with an infinite or nan entry or with k max |x| >= 2^1000, where
    fsum may raise ``OverflowError`` at a prefix sum that no subtree
    reaches.  Rows go in order, so the first row that raises is the first
    that ``math.fsum`` would raise on.
    """
    rows = np.asarray(rows, dtype=float)
    m, k = rows.shape
    if k == 0:
        return np.zeros(m)
    level = rows.T.copy()
    errs = np.empty((k - 1, m))
    sums = np.empty((k - k // 2, m))
    z = np.empty((k // 2, m))
    with np.errstate(over="ignore", invalid="ignore"):
        # one bound for the whole array; only when it fails, one per row
        big = not max(level.max(), -level.min()) < _FSUM_HUGE / k
        done, w = 0, k
        while w > 1:
            h = w // 2
            a, b, s, zh, e = level[:h], level[w - h:w], sums[:h], z[:h], errs[done:done + h]
            np.add(a, b, out=s)
            np.subtract(s, a, out=zh)
            np.subtract(s, zh, out=e)
            np.subtract(a, e, out=e)
            np.subtract(b, zh, out=zh)
            e += zh
            if w % 2:  # the middle row goes up a level as it is
                sums[h] = level[h]
            level, sums = sums[:w - h], level
            done, w = done + h, w - h
        hi = level[0]
        lo = np.add.reduce(errs, axis=0)
        delta = np.add.reduce(np.abs(errs, out=errs), axis=0)
        delta *= (1 << k.bit_length()) * 2.0 ** -51
        r = hi + lo
        z = r - hi
        f = (hi - (r - z)) + (lo - z)
        ar = np.abs(r)
        bound = np.abs(f, out=f)
        bound += delta
        bound += bound
        ok = (bound < ar - np.nextafter(ar, 0.0)) & (ar >= _FSUM_TINY)
        if big:
            ok &= np.max(np.abs(rows), axis=1) < _FSUM_HUGE / k
    if not ok.all():
        for i in np.flatnonzero(~ok).tolist():
            r[i] = math.fsum(rows[i].tolist())
    return r
