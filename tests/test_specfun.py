import math
import re
import warnings

import mpmath as mp
import numpy as np
import oracles
import pytest
from scipy.special import eval_jacobi, jv

from gpswf import approx, backend, basis, specfun, spectral
from gpswf.errors import DomainError


def series_bessel(nu, x, terms=120):
    """Independent ascending-series oracle for J_nu(x)."""
    acc = 0.0
    lg = math.lgamma
    for m in range(terms):
        t = ((-1.0) ** m) * math.exp((2 * m + nu) * math.log(x / 2.0)
                                     - lg(m + 1) - lg(m + nu + 1))
        acc += t
        if m > 0 and abs(t) <= 1e-20 * abs(acc):
            break
    return acc


class TestLnGamma:
    def test_factorial_points(self):
        assert specfun.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert specfun.ln_gamma(3.0) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert specfun.ln_gamma(0.5) == pytest.approx(0.57236494292470008707,
                                                      rel=1e-14)

    def test_against_stdlib(self):
        for x in [1e-3, 0.1, 0.7, 1.5, 6.0, 41.25, 500.0, 2000.0]:
            assert specfun.ln_gamma(x) == pytest.approx(math.lgamma(x),
                                                        rel=2e-14, abs=2e-14)

    def test_bracket_dense_grid(self):
        # sqrt(2e)((x+1/2)/e)^(x+1/2) <= G(x+1) <= sqrt(2pi)((x+1/2)/e)^(x+1/2)
        for x in np.linspace(0.01, 100.0, 500):
            lo, hi = specfun.gamma_bracket(float(x))
            val = math.exp(specfun.ln_gamma(float(x) + 1.0))
            assert lo <= val * (1 + 1e-13)
            assert val <= hi * (1 + 1e-13)

    def test_bracket_at_two(self):
        lo, hi = specfun.gamma_bracket(2.0)
        assert lo <= 2.0 <= hi  # Gamma(3) = 2

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.ln_gamma(0.0)
        with pytest.raises(DomainError):
            specfun.ln_gamma(-1.0)
        with pytest.raises(DomainError):
            specfun.ln_gamma(float("nan"))
        for x in (np.float32(0.0), np.int64(-2), np.float64(math.inf)):
            with pytest.raises(DomainError, match=re.escape(f"finite x > 0, got {x!r}")):
                specfun.ln_gamma(x)
        # a value that is not a real number is named by its type
        for x, kind in (("3", "str"), (None, "NoneType"), (1j, "complex"),
                        (np.array([3.0]), "ndarray")):
            with pytest.raises(DomainError, match=f"requires a real number, got {kind}"):
                specfun.ln_gamma(x)

    @pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint16, np.float16, np.float32,
                                      np.float64, np.longdouble])
    def test_numpy_reals(self, kind):
        # np.int64(3) was refused as "requires finite x > 0", and so was a
        # float32 alpha by weight_mass, jacobi_norm0 and cosine_series_norm2
        assert specfun.ln_gamma(kind(3)) == math.lgamma(3.0)
        if kind in (np.float16, np.float32):
            alpha = kind(0.3)
            assert specfun.weight_mass(alpha) == specfun.weight_mass(float(alpha))
            assert specfun.jacobi_norm0(alpha) == specfun.jacobi_norm0(float(alpha))
            assert approx.cosine_series_norm2(alpha, [1.0, 0.5]) == \
                approx.cosine_series_norm2(float(alpha), [1.0, 0.5])

    def test_numpy_order_leaves_the_neumann_memo_alone(self):
        # a float32 order used to run the Miller recurrence in float32, to
        # nan, and memoise float32 Neumann coefficients under a key equal to
        # the Python float's, so a later bessel_j(0.5, 3.0) read nan too
        want = specfun.bessel_j(0.5, 3.0)
        backend._neumann_table.cache_clear()
        try:
            assert specfun.bessel_j(np.float32(0.5), 3.0) == want
            assert specfun.bessel_j(0.5, 3.0) == want
        finally:
            backend._neumann_table.cache_clear()


class TestBesselJ:
    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        x = math.pi / 2.0
        assert specfun.bessel_j(0.5, x) == pytest.approx(2.0 / math.pi, rel=1e-13)

    def test_origin(self):
        assert specfun.bessel_j(0.0, 0.0) == 1.0
        assert specfun.bessel_j(2.5, 0.0) == 0.0

    def test_series_oracle_value(self):
        # frozen from the ascending-series oracle
        val = specfun.bessel_j(2.5, 5.0)
        assert val == pytest.approx(0.24037720111131735285, rel=1e-12)
        assert val == pytest.approx(series_bessel(2.5, 5.0), rel=1e-12)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 3.25, 10.5, 30.0])
    @pytest.mark.parametrize("x", [0.05, 1.0, 4.0, 6.0])
    def test_series_oracle_sweep(self, nu, x):
        # the alternating oracle itself loses ~e^x/x digits, so keep x modest
        ref = series_bessel(nu, x)
        assert specfun.bessel_j(nu, x) == pytest.approx(ref, rel=1e-12,
                                                        abs=1e-280)

    def test_against_scipy_wide(self):
        # relative to the oscillation envelope: near zeros of J neither
        # implementation carries relative accuracy
        rng = np.random.default_rng(7)
        for _ in range(200):
            nu = rng.uniform(-0.5, 60.0)
            x = rng.uniform(0.0, 900.0)
            ref = jv(nu, x)
            mine = specfun.bessel_j(nu, x)
            envelope = math.sqrt(2.0 / (math.pi * max(x, 1.0)))
            assert abs(mine - ref) <= 5e-11 * max(abs(ref), 1e-2 * envelope)

    def test_large_argument(self):
        # the asymptotic branch, its phase from libm cos and sin
        for nu, x in [(0.5, 1e5), (2.5, 4096.0), (1.25, 2.0 ** 30)]:
            assert specfun.bessel_j(nu, x) == pytest.approx(
                jv(nu, x), rel=1e-9, abs=1e-13)

    def test_magnitude_bound(self):
        # |J_nu(x)| <= |x|^nu / (2^nu Gamma(nu+1))
        rng = np.random.default_rng(11)
        for _ in range(400):
            nu = rng.uniform(-0.5, 50.0)
            x = rng.uniform(0.0, 100.0)
            val = abs(specfun.bessel_j(nu, x))
            log_bound = (nu * math.log(max(x, 1e-300)) - nu * math.log(2.0)
                         - math.lgamma(nu + 1.0)) if x > 0 else 0.0
            if x == 0.0:
                assert val <= 1.0
            else:
                assert math.log(max(val, 1e-300)) <= log_bound + 1e-10

    def test_ladder_matches_scalar(self):
        # the ladder holds J_{nu+j}(x) (2/x)^b, b = nu - 2 the base order
        mant, expo = specfun.bessel_j_ladder(1.5, 30, 12.3)
        lad = np.ldexp(mant[0], expo[0]) * (12.3 / 2.0) ** -0.5
        for j in [0, 3, 17, 30]:
            assert lad[j] == pytest.approx(jv(1.5 + j, 12.3), rel=1e-11,
                                           abs=1e-280)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.bessel_j(-0.75, 1.0)
        with pytest.raises(DomainError):
            specfun.bessel_j(1.0, -2.0)
        with pytest.raises(DomainError):
            specfun.bessel_j_ladder(1.0, 3, [1.0, -2.0])
        for nu in (math.nan, math.inf):
            with pytest.raises(DomainError, match=f"bessel order must be finite and >= -1/2, got {nu}"):
                specfun.bessel_j(nu, 1.0)
            with pytest.raises(DomainError, match=f"bessel order must be finite and >= -1/2, got {nu}"):
                specfun.bessel_j_ladder(nu, 2, [1.0])
        # kmax -5 and 2.5 raised bare ValueError and TypeError, True read as
        # 1 and -1 gave an empty ladder
        for kmax in (-5, -1, 2.5, True, "2"):
            with pytest.raises(DomainError, match=f"kmax must be an integer >= 0, got {kmax!r}"):
                specfun.bessel_j_ladder(0.5, kmax, [1.0])
        assert specfun.bessel_j_ladder(0.5, np.int64(2), [1.0])[0].shape == (1, 3)
        # a 2-d x raised a bare TypeError
        with pytest.raises(DomainError, match=r"got shape \(1, 2\)"):
            specfun.bessel_j_ladder(0.5, 3, [[1.0, 2.0]])
        with pytest.raises(DomainError, match=r"got shape \(1, 2\)"):
            specfun.bessel_j(0.5, np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                            (-1.0, "-1.0")])
    def test_batch_names_first_bad_argument(self, bad, shown):
        # one array pass over the batch; the message names the first bad
        # argument as a plain float, wherever it sits
        x = np.linspace(0.0, 500.0, 9)
        for where in (0, 4, 8):
            batch = x.copy()
            batch[where] = bad
            batch[-1 if where < 8 else 0] = -7.5  # a later or earlier second one
            first = shown if where < 8 else "-7.5"
            with pytest.raises(DomainError, match=rf"got {first}$"):
                specfun.bessel_j_ladder(0.5, 4, batch)

    # straddles the Miller/upward switch at x = 370 and, for 400 orders, the
    # top-order switch nu0 + count - 1 > 0.88 x near x = 453, and reaches
    # arguments far past 2^53, where libm's reduction of x mod 2 pi is the
    # whole phase; at 1.5e-8 the Miller recurrence grows by about 2^30 an
    # order, so |v| passes 2^600 orders before the test that rescales it
    # (test_miller_values_stay_below_the_overflow)
    LADDER_X = (0.0, 1.5e-8, 1e-3, 5.0, 120.0, 369.9, 370.0, 370.1, 400.0, 452.0, 453.0,
                454.0, 1000.0, 5000.0, 8000.0 * math.pi, 2.0 ** 41, 1e40, 1e60,
                1e300) + tuple(np.geomspace(0.01, 360.0, 70))
    # with these, the Miller arguments in (0, 370] fill several batched
    # blocks at every count (a block at count 1 takes about 160 of them),
    # each mixing start orders more than 100 apart, and rescale at different
    # steps (the recurrence grows by about 2 nu / x per step)
    MILLER_FILL = tuple(np.geomspace(0.02, 350.0, 300))

    @pytest.mark.parametrize("nu0", [-0.5, 0.0, 0.25])
    @pytest.mark.parametrize("count", [1, 2, 400])
    def test_regime_mask_equals_scalar_rule(self, nu0, count):
        scalar = [x > 370.0 and not nu0 + count - 1 > 0.88 * x for x in self.LADDER_X]
        assert scalar.count(True) >= 5 and scalar.count(False) >= 70
        mask = backend._upward_regime(nu0, count, np.array(self.LADDER_X))
        assert mask.tolist() == scalar

    @pytest.mark.parametrize("nu0", [-0.5, 0.0, 0.25])
    @pytest.mark.parametrize("count", [1, 2, 400])
    def test_batched_ladder_bitwise_equals_scalar(self, nu0, count):
        x = np.array(self.LADDER_X + self.MILLER_FILL)
        miller = x[(x > 0.0) & ~backend._upward_regime(nu0, count, x)]
        tops = np.sort(backend._miller_top(nu0, count, miller))[::-1]
        blocks = [tops[lo:hi] for lo, hi in backend._miller_blocks(count, tops)]
        assert len(blocks) >= 3 and min(map(len, blocks)) >= backend._MILLER_LONE
        assert max(b[0] - b[-1] for b in blocks) > 100
        mant, expo = backend.bessel_ladder(nu0, count, x)
        assert mant.shape == expo.shape == (x.size, count)
        for v, row, row_expo in zip(x.tolist(), mant, expo):
            lone = backend.bessel_ladder(nu0, count, [v])
            assert row.tobytes() == lone[0][0].tobytes()
            assert row_expo.tobytes() == lone[1][0].tobytes()
            if v > 370.0 and nu0 + count - 1 <= 0.88 * v:
                # upward regime: the plain-float recurrence, step by step,
                # times (x/2)^-nu0, exponent 0
                ref = [oracles._hankel_j(nu0, v), oracles._hankel_j(nu0 + 1.0, v)]
                for j in range(2, count):
                    ref.append((2.0 * (nu0 + j - 1) / v) * ref[j - 1] - ref[j - 2])
                ref = np.array(ref[:count]) * np.power(0.5 * v, -nu0)
                assert row.tobytes() == ref.tobytes() and not row_expo.any()
        # 40 copies of one argument: one or two array blocks, whose columns
        # all join at the block's start order
        same = np.full(40, 7.5)
        blocks = backend._miller_blocks(count, backend._miller_top(nu0, count, same))
        assert min(hi - lo for lo, hi in blocks) >= backend._MILLER_LONE
        mant, expo = backend.bessel_ladder(nu0, count, same)
        lone = backend.bessel_ladder(nu0, count, same[:1])
        assert mant.tobytes() == np.repeat(lone[0], 40, axis=0).tobytes()
        assert expo.tobytes() == np.repeat(lone[1], 40, axis=0).tobytes()

    @pytest.mark.parametrize("nu0", [-0.5, 0.0, 0.25, 0.3])
    @pytest.mark.parametrize("count", [1, 2, 400, 2 * basis._M_CAP + 200])
    def test_miller_top_equals_the_math_form(self, nu0, count):
        # every point whose start order is an int64; the front end takes
        # orders at Miller arguments only, x < (count + 1) / 0.88 or x <= 370
        x = np.array(self.LADDER_X + self.MILLER_FILL)
        x = x[x <= 2.0 ** 41]
        want = [oracles.miller_top(nu0, count, v) for v in x.tolist()]
        got = backend._miller_top(nu0, count, x)
        assert got.dtype == np.int64 and got.tolist() == want

    @pytest.mark.parametrize("count", [1, 2, 194, 394, 1000])
    def test_miller_blocks_fit_their_bytes(self, count):
        # every block's work arrays, (jtop + 7 count) doubles per argument,
        # fit in _MILLER_BYTES or are at most _MILLER_MIN arguments wide;
        # the blocks split their arguments evenly, and two of them together
        # would not fit
        x = np.geomspace(0.01, 370.0, 700)
        tops = np.sort(backend._miller_top(0.25, count, x))[::-1]
        bounds = backend._miller_blocks(count, tops)
        assert bounds[0][0] == 0 and bounds[-1][1] == len(tops)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert len(sizes) > 1 and max(sizes) - min(sizes) <= 1
        for lo, hi in bounds:
            column = 8 * (tops[lo] + 7 * count)
            assert (hi - lo) * column <= max(backend._MILLER_BYTES,
                                             backend._MILLER_MIN * column)
        column = 8 * (tops[0] + 7 * count)
        assert (sizes[0] + sizes[1]) * column > max(backend._MILLER_BYTES,
                                                    backend._MILLER_MIN * column)

    def test_batched_orders_bitwise_equal_scalar(self):
        x = np.array([3.0, 371.5, 2222.0])
        for nu, kmax in ((2.0, 0), (3.5, 40)):
            mant, expo = specfun.bessel_j_ladder(nu, kmax, x)
            for xi, row, row_expo in zip(x, mant, expo):
                lone = specfun.bessel_j_ladder(nu, kmax, [xi])
                assert row.tobytes() == lone[0][0].tobytes()
                assert row_expo.tobytes() == lone[1][0].tobytes()
            scalar = np.array([specfun.bessel_j(nu, xi) for xi in x.tolist()])
            assert specfun.bessel_j(nu, x).tobytes() == scalar.tobytes()


class TestUpwardStart:
    """The array Hankel start against its one-argument form
    ``oracles._hankel_j``, and the upward ladders against mpmath."""

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.25, 0.5, 1.0, 1.25])
    def test_hankel_sum_bitwise_oracle(self, nu):
        x = np.concatenate([np.geomspace(370.5, 1e6, 400),
                            [8000.0 * math.pi, 2.0 ** 41, 1e40, 1e60, 1e300]])
        got = backend._hankel_start(nu, x, np.cos(x), np.sin(x))
        want = np.array([oracles._hankel_j(nu, v) for v in x.tolist()])
        assert got.tobytes() == want.tobytes()

    # multiples of pi, where x - theta cancels most; powers of two and a
    # geometric sweep to 2^45; and arguments past 1e48, where x mod 2 pi
    # needs more than 63 digits of 2 pi
    MP_X = ([k * math.pi for k in range(118, 4001, 31)] + [4000.0 * math.pi]
            + [2.0 ** k for k in range(9, 46)]
            + np.geomspace(371.0, 2.0 ** 45, 40).tolist() + [1e60, 1e100, 1e300])

    @pytest.mark.parametrize("nu0", [-0.5, 0.0, 0.25])
    def test_upward_ladder_against_mpmath(self, nu0):
        orders = (0, 1, 5)
        x = np.array(self.MP_X)
        assert backend._upward_regime(nu0, orders[-1] + 1, x).all()
        mant, expo = backend.bessel_ladder(nu0, orders[-1] + 1, x)
        assert not expo.any()
        worst = 0.0
        with mp.workdps(30):
            for v, row in zip(self.MP_X, mant.tolist()):
                # the values are J_{nu0+j}(x) (2/x)^nu0
                scale = (2 / mp.mpf(v)) ** nu0
                envelope = math.sqrt(2.0 / (math.pi * v)) * scale
                for j in orders:
                    ref = mp.besselj(nu0 + j, v) * scale
                    worst = max(worst, float(abs(mp.mpf(row[j]) - ref) / envelope))
        assert worst <= 1e-15


class TestSmallArguments:
    """0 < x <= 1e-8 takes the leading series term, and the Miller
    recurrence just above it stays inside the doubles."""

    @pytest.mark.parametrize("x", [1e-8, 1e-20, 1e-128, 1e-300, 5e-324])
    def test_leading_term_against_mpmath(self, x):
        # bessel_j(0.25, 1e-128) was nan and bessel_j(0, 5e-324) raised
        # ValueError; a subnormal value is held to one smallest subnormal
        with mp.workdps(30):
            for nu in (-0.5, 0.0, 0.25, 1.0, 2.5):
                ref = mp.besselj(nu, x)
                got = specfun.bessel_j(nu, x)
                assert abs(mp.mpf(got) - ref) <= 4 * _EPS * abs(ref) + 5e-324, (nu, got)

    @pytest.mark.parametrize("nu, want", [(-0.5, math.inf), (-0.25, math.inf), (0.0, 1.0),
                                          (0.25, 0.0)])
    def test_order_at_zero(self, nu, want):
        # J_nu(0) = 0^nu / Gamma(nu + 1): +inf below order 0, as mpmath
        # gives (it read 0.0); the ladder holds the finite J_nu(x) (2/x)^nu
        # there, 1 / Gamma(nu + 1) at the base order and 0 above
        assert specfun.bessel_j(nu, 0.0) == want == mp.besselj(nu, 0)
        assert specfun.bessel_j(nu, np.zeros(2)).tolist() == [want, want]
        mant, expo = specfun.bessel_j_ladder(nu, 3, [0.0])
        assert np.ldexp(mant, expo).tolist() == [[1.0 / math.gamma(nu + 1.0), 0.0, 0.0, 0.0]]

    def test_transform_at_tiny_c_is_finite(self):
        # was nan+nanj, then 0j: J_2(5e-301) underflows before (2/u)^(a+1/2)
        # scales it back, so the term is formed without the Bessel factor
        assert spectral.fc_on_jacobi(0.5, 1e-300, 1, 0.5).imag == pytest.approx(
            3.1332853432887e-301, rel=1e-13)
        assert spectral.fc_on_jacobi(0.5, 1e-150, 2, 0.5).real == pytest.approx(
            -3.9166066791109e-302, rel=1e-13)
        assert spectral.fc_on_jacobi(0.5, 1e-20, 1, 0.5).imag == pytest.approx(
            3.133285343288749e-21, rel=1e-15)

    def test_transform_where_c_x_underflows_is_the_limit_at_0(self):
        # c |x| rounds to 0.0: the value at x = 0, sqrt(m0) at k = 0 and 0
        # above (it read nan, from 0 / 0 in the terms, with a warning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k, want in ((0, math.sqrt(specfun.weight_mass(0.5))), (1, 0.0), (2, 0.0)):
                for x in (1e-200, -1e-200):
                    assert spectral.fc_on_jacobi(0.5, 1e-200, k, x) == want

    def test_miller_values_stay_below_the_overflow(self):
        # the largest count: 2 x the truncation cap, plus the integer part
        # of orders up to alpha + 1/2 = 200; 16 arguments run as one block.
        # Every value J_{nu0+j}(x) (2/x)^nu0 is within 16 eps up to the first
        # order where J underflows a double (35 to 44 here; 9 eps measured).
        # Past it the value keeps its digits too, to the recurrence's own
        # error, which grows by about eps / 5 per order (3354 eps at the top
        # order, measured)
        count = 2 * basis._M_CAP + 200
        x = np.geomspace(math.nextafter(1e-8, 1.0), 1e-6, 16)
        assert backend._MILLER_LONE <= x.size
        for nu0 in (-0.5, 0.25):
            mant, expo = backend.bessel_ladder(nu0, count, x)
            assert np.all(np.abs(mant) >= np.finfo(float).tiny) and np.isfinite(mant).all()
            assert expo[:, -1].max() < -100000
            with mp.workdps(30):
                for xi, row, row_expo in zip(x.tolist(), mant, expo):
                    first = None
                    for j in list(range(60)) + [1000, count - 1]:
                        bessel = mp.besselj(nu0 + j, xi)
                        if first is None and bessel < mp.mpf(2) ** -1075:
                            first = j
                        ref = bessel * (2 / mp.mpf(xi)) ** nu0
                        got = mp.ldexp(mp.mpf(row[j]), int(row_expo[j]))
                        tol = 16 if first is None else 16 + j / 4
                        assert abs(got - ref) <= tol * _EPS * ref, (nu0, xi, j)
                    assert first is not None and first < 60
        # between two rescale tests |v| passes 2^600 but stays below the
        # docstring's bound 2^1020
        assert 600 < _miller_peak_log2(0.25, count, x[0]) < 1020
        for count in (1, 2, 400):
            assert _miller_peak_log2(0.25, count, 1.5e-8) > 600


_EPS = np.finfo(float).eps


def _miller_peak_log2(nu0, count, x):
    """log2 of the largest |v| that the backward recurrence of
    :func:`backend._ladder_miller` holds between two rescale tests (orders
    j = 0 mod 8, where it divides by 2^600 once max(|v_j|, |v_{j+1}|) >
    2^600), from the same steps renormalised by frexp at every order."""
    m, e = 1e-30, 0            # v_j = m 2^e
    mp1, ep1 = 0.0, 0          # v_{j+1}
    scale, peak = 0, -math.inf
    for j in range(backend._miller_top(nu0, count, x), 0, -1):
        size = max(math.log2(abs(m)) + e, math.log2(abs(mp1)) + ep1 if mp1 else -math.inf)
        if j % 8:
            peak = max(peak, size - 600 * scale)
        elif size - 600 * scale > 600:
            scale += 1
        m, e, mp1, ep1 = *math.frexp((2.0 * (nu0 + j) / x) * m
                                     - math.ldexp(mp1, ep1 - e)), mp1, e
        e += ep1
    return peak


class TestMillerAccuracy:
    def test_miller_ladders_against_mpmath(self):
        # 400 Miller ladders, nu0 in {-0.5, 0, 0.25} or uniform, count below
        # 200, x log-uniform on [1e-3, 369], three orders each, against the
        # exact order nu0 + j (a rounded order moves J by up to about 240
        # eps here).  The former per-element log/exp close read median 70
        # and p90 211 eps; the power-of-two close reads 2.9 and 79, its tail
        # at orders below x, near zeros of J.
        rng = np.random.default_rng(0)
        errs = []
        with mp.workdps(30):
            for _ in range(400):
                nu0 = float(rng.choice([-0.5, 0.0, 0.25, rng.uniform(-0.5, 0.5)]))
                count = int(rng.integers(1, 200))
                x = float(10 ** rng.uniform(-3, math.log10(369)))
                assert not backend._upward_regime(nu0, count, np.array([x]))[0]
                mant, expo = backend.bessel_ladder(nu0, count, [x])
                for j in rng.choice(count, size=min(count, 3), replace=False).tolist():
                    # the values are J_{nu0+j}(x) (2/x)^nu0, however small
                    ref = mp.besselj(mp.mpf(nu0) + j, x) * (2 / mp.mpf(x)) ** nu0
                    got = mp.ldexp(mp.mpf(mant[0, j]), int(expo[0, j]))
                    errs.append(float(abs(got / ref - 1)) / _EPS)
        median, p90 = np.percentile(errs, [50, 90])
        assert len(errs) > 1000
        assert median <= 10 and p90 <= 120, (median, p90)


def test_small_miller_block_bitwise_lone():
    # 9 Miller arguments: fewer than _MILLER_LONE, so each runs alone
    x = 2.0 ** np.arange(9)
    mant, expo = backend.bessel_ladder(0.25, 181, x)
    tops = backend._miller_top(0.25, 181, x).tolist()
    for i, xi in enumerate(x.tolist()):
        for got in (backend._ladder_miller(0.25, 181, xi, tops[i]),
                    tuple(a[0] for a in backend.bessel_ladder(0.25, 181, [xi]))):
            assert mant[i].tobytes() == got[0].tobytes()
            assert expo[i].tobytes() == got[1].tobytes()


def _forward_floats(alpha, kmax, x, nderiv):
    """Jt_k^(d)(x), k = 0..kmax, d = 0..nderiv, from the forward recurrence in
    Python floats at one point, each step in the kernel's order of operations:
    ``((x Jt_k^(d) + d Jt_k^(d-1)) - a_k Jt_{k-1}^(d)) / a_{k+1}``."""
    a = specfun.jacobi_recurrence(alpha, kmax + 2).tolist()
    prev = [0.0] * (nderiv + 1)
    cur = [specfun.jacobi_norm0(alpha)] + [0.0] * nderiv
    rows = [cur]
    for k in range(1, kmax + 1):
        step = [x * cur[d] + d * cur[d - 1] if d else x * cur[d]
                for d in range(nderiv + 1)]
        prev, cur = cur, [(step[d] - a[k - 1] * prev[d]) / a[k]
                          for d in range(nderiv + 1)]
        rows.append(cur)
    return np.array(rows).T  # (nderiv + 1, kmax + 1)


class TestJacobiTable:
    @pytest.mark.parametrize("nderiv", [0, 1, 2])
    @pytest.mark.parametrize("x", [[0.3], np.linspace(-1.0, 1.0, 23).tolist()])
    def test_table_bitwise_equals_float_recurrence(self, nderiv, x):
        kmax = 40
        for alpha in (0.0, 0.5, 2.5):
            table = specfun.jacobi_table(alpha, kmax, np.array(x), nderiv)
            table = table.reshape(nderiv + 1, kmax + 1, len(x))
            ref = np.stack([_forward_floats(alpha, kmax, xi, nderiv) for xi in x],
                           axis=-1)
            assert table.tobytes() == ref.tobytes()

    # one point each (the Python-float path; -0.0 so that a flipped zero
    # shows), two points and the 32 spectrum probes (the array path)
    POINT_SETS = ([[x] for x in (0.0, -0.0, 0.3, -0.3, 1.0, -1.0, 0.999)]
                  + [[-0.5, 0.7], spectral._PROBE_X.tolist()])

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 2.5, 5.0])
    def test_row_blocks_bitwise_equal_float_recurrence(self, alpha):
        # the whole table in one block, jacobi_series' blocks of 32, and
        # blocks of 7 that split the recurrence at odd places
        kmax = 101
        rec, p0 = specfun.jacobi_recurrence(alpha, kmax + 2), specfun.jacobi_norm0(alpha)
        for x in self.POINT_SETS:
            for nderiv in (0, 1, 2):
                ref = np.stack([_forward_floats(alpha, kmax, xi, nderiv) for xi in x],
                               axis=-1)
                table = specfun.jacobi_table(alpha, kmax, np.array(x), nderiv)
                assert table.tobytes() == ref.tobytes(), (x[0], len(x), nderiv)
                for chunk in (32, 7):
                    blocks = list(backend._jacobi_rows(rec, p0, kmax, np.array(x),
                                                       nderiv, chunk))
                    assert [k0 for k0, _ in blocks] == list(range(0, kmax + 1, chunk))
                    rows = np.concatenate([b for _, b in blocks], axis=1)
                    assert rows.tobytes() == ref.tobytes(), (x[0], len(x), nderiv, chunk)


class TestJacobiNormalized:
    def test_degree_zero(self):
        for alpha in [0.0, 0.5, 1.5]:
            h0 = (2.0 ** (2 * alpha + 1) * math.gamma(alpha + 1) ** 2
                  / ((2 * alpha + 1) * math.gamma(2 * alpha + 1)))
            assert specfun.jacobi_table(alpha, 0, 0.3)[0, 0] == pytest.approx(
                1.0 / math.sqrt(h0), rel=1e-14)

    def test_legendre_endpoint(self):
        # alpha = 0, k = 3 at x = 1: sqrt((2k+1)/2)
        assert specfun.jacobi_table(0.0, 3, 1.0)[3, 0] == pytest.approx(
            1.8708286933869706928, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
    def test_orthonormality(self, alpha):
        rule = specfun.gauss_jacobi(alpha, 40)
        table = specfun.jacobi_table(alpha, 20, rule.nodes)
        gram = table @ (rule.weights[:, None] * table.T)
        assert np.max(np.abs(gram - np.eye(21))) < 1e-12

    def test_matches_scipy(self):
        alpha = 0.8
        x = np.linspace(-1.0, 1.0, 9)
        for k in range(8):
            hk = (2.0 ** (2 * alpha + 1) * math.gamma(k + alpha + 1) ** 2
                  / (math.factorial(k) * (2 * k + 2 * alpha + 1)
                     * math.gamma(k + 2 * alpha + 1)))
            ref = eval_jacobi(k, alpha, alpha, x) / math.sqrt(hk)
            mine = specfun.jacobi_table(alpha, k, x)[k]
            np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=1e-12)

    def test_derivative_recurrence(self):
        # derivative from the recurrence, checked against central differences
        alpha, k, x, h = 0.6, 7, 0.37, 1e-6
        d1 = specfun.jacobi_table(alpha, k, x, 1)[1, k, 0]
        fd = (specfun.jacobi_table(alpha, k, x + h)[k, 0]
              - specfun.jacobi_table(alpha, k, x - h)[k, 0]) / (2 * h)
        assert d1 == pytest.approx(fd, rel=1e-8)

    def test_recurrence_stability_high_degree(self):
        vals = specfun.jacobi_table(0.5, 2000, np.array([-1.0, -0.5, 0.0, 0.7, 1.0]))
        assert np.all(np.isfinite(vals))

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.gauss_jacobi(-1.5, 4)
        # kmax -1 and 2.5 raised bare ValueError and TypeError
        for kmax in (-1, 2.5, True):
            with pytest.raises(DomainError, match=f"kmax must be an integer >= 0, got {kmax!r}"):
                specfun.jacobi_table(0.5, kmax, [0.3])
        for nderiv in (-1, 2.5):
            with pytest.raises(DomainError, match=f"nderiv must be an integer >= 0, got {nderiv!r}"):
                specfun.jacobi_table(0.5, 3, [0.3], nderiv)
        # alpha -2 gave [0, nan, 2, nan] with a RuntimeWarning; at -1/2 a_1
        # is 0/0, and below it h_0 took the log of 2 alpha + 1 < 0 (a bare
        # ValueError: math domain error); the weight itself takes alpha > -1
        for alpha in (-2.0, -1.0, math.nan, math.inf, -0.75, -0.5):
            msg = f"alpha must be finite and > -0.5, got {alpha!r}"
            for call in (lambda: specfun.jacobi_recurrence(alpha, 4),
                         lambda: specfun.jacobi_table(alpha, 3, [0.2]),
                         lambda: specfun.jacobi_norm0(alpha)):
                with pytest.raises(DomainError, match=re.escape(msg)):
                    call()
        assert specfun.weight_mass(-0.75) > 0.0
        assert specfun.jacobi_recurrence(-0.49, 3).shape == (3,)
        # m was read with int(): 2.5 gave two coefficients, -3 and 0 a bare
        # IndexError
        for m in (2.5, -3, 0, True, "4", None):
            with pytest.raises(DomainError, match=re.escape(f"m must be an integer >= 1, got {m!r}")):
                specfun.jacobi_recurrence(0.5, m)
        assert specfun.jacobi_recurrence(0.5, np.int64(3)) is specfun.jacobi_recurrence(0.5, 3)
        assert specfun.jacobi_table(0.5, np.int64(3), [0.3], np.int32(1)).shape == (2, 4, 1)


def mp_gauss_jacobi_half(alpha, m, guesses):
    """30-digit Gauss-Jacobi nodes and weights near the float ``guesses``.

    One Newton step on Jt_m from each guess, then the Christoffel-Darboux
    weight 1 / (a_m Jt_{m-1}(x) Jt_m'(x)); Jt_k and a_k come from the closed
    form in mp arithmetic, not from the library.
    """
    with mp.workdps(30):
        al = mp.mpf(alpha)
        a = [mp.mpf(0)] + [mp.sqrt(k * (k + 2 * al) / ((2 * k + 2 * al + 1)
                                                       * (2 * k + 2 * al - 1)))
                           for k in range(1, m + 1)]
        p0 = 1 / mp.sqrt(mp.sqrt(mp.pi) * mp.gamma(al + 1) / mp.gamma(al + 1.5))

        def sweep(x):  # Jt_{m-1}(x), Jt_m(x), Jt_m'(x)
            prev, p, dprev, d = mp.mpf(0), p0, mp.mpf(0), mp.mpf(0)
            for k in range(m):
                prev, p, dprev, d = (p, (x * p - a[k] * prev) / a[k + 1],
                                     d, (p + x * d - a[k] * dprev) / a[k + 1])
            return prev, p, d

        nodes, weights = [], []
        for g in guesses:
            x = mp.mpf(float(g))
            _, p, d = sweep(x)
            x -= p / d
            prev, p, d = sweep(x)
            assert abs(p / d) < 1e-25
            nodes.append(float(x))
            weights.append(float(1 / (a[m] * prev * d)))
    return np.array(nodes), np.array(weights)


class TestGaussJacobi:
    def test_single_node_legendre(self):
        rule = specfun.gauss_jacobi(0.0, 1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5, 3.2])
    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    def test_weight_sum(self, alpha, m):
        rule = specfun.gauss_jacobi(alpha, m)
        assert rule.weights.sum() == pytest.approx(specfun.weight_mass(alpha),
                                                   rel=1e-12)

    def test_even_moment_beta_function(self):
        # int x^8 w_{1/2} dx = B(4.5, 1.5), via the log-gamma oracle
        rule = specfun.gauss_jacobi(0.5, 10)
        ref = math.exp(specfun.ln_beta(4.5, 1.5))
        assert ref == pytest.approx(0.085902924121595908864, rel=1e-13)
        assert rule.integrate(rule.nodes ** 8) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.5])
    def test_random_polynomial_exactness(self, alpha):
        rng = np.random.default_rng(5)
        m = 12
        rule = specfun.gauss_jacobi(alpha, m)
        coef = rng.normal(size=2 * m)  # degree 2m-1
        exact = 0.0
        for p in range(0, 2 * m, 2):
            exact += coef[p] * math.exp(specfun.ln_beta(p / 2.0 + 0.5,
                                                        alpha + 1.0))
        quad = rule.integrate(np.polynomial.polynomial.polyval(rule.nodes, coef))
        assert quad == pytest.approx(exact, rel=1e-12)

    def test_node_symmetry(self):
        for m in (9, 10):
            rule = specfun.gauss_jacobi(0.75, m)
            np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
            np.testing.assert_array_equal(rule.weights, rule.weights[::-1])
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("alpha,m", [(0.0, 40), (2.5, 120), (5.0, 120)])
    def test_matches_mpmath_rule(self, alpha, m):
        # positive half only (the node symmetry is exact, tested above); the
        # end weight at alpha = 5 is 6e-15, where squared eigenvector
        # components (Golub-Welsch) miss by 5e-11 relative
        rule = specfun.gauss_jacobi(alpha, m)
        half = slice(m // 2, m)
        nodes, weights = mp_gauss_jacobi_half(alpha, m, rule.nodes[half])
        # distinct positive roots, m // 2 of them: the whole positive half
        assert nodes[0] > 0.0 and np.all(np.diff(nodes) > 0.0)
        assert np.max(np.abs(rule.nodes[half] - nodes)) <= 2e-15
        assert np.max(np.abs(rule.weights[half] / weights - 1.0)) <= 5e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.gauss_jacobi(0.5, 0)
        # a node count that is not an integer is refused, not truncated
        for m in (2.5, "5", True, math.nan, math.inf):
            with pytest.raises(DomainError, match=f"order m must be an integer >= 1, got {m!r}"):
                specfun.gauss_jacobi(0.5, m)
        # a_1 is 0/0 at alpha -1/2 ("matrix entries must be finite"), and
        # -0.75 raised a bare ValueError: math domain error
        for alpha in (-0.5, -0.75, -0.999):
            with pytest.raises(DomainError, match=re.escape(
                    f"alpha must be finite and > -0.5, got {alpha!r}")):
                specfun.gauss_jacobi(alpha, 5)
        assert specfun.gauss_jacobi(0.5, np.int64(5)) is specfun.gauss_jacobi(0.5, 5)


def test_two_dimensional_points_raise_domain_error():
    with pytest.raises(DomainError, match=r"Jacobi points .* got shape \(2, 2\)"):
        specfun.jacobi_table(0.5, 3, np.zeros((2, 2)))


def test_gamma_bracket_refuses_its_domain():
    for x in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="gamma_bracket requires finite x > 0"):
            specfun.gamma_bracket(x)
