import math

import mpmath as mp
import numpy as np
import oracles
import pytest
from scipy.special import eval_jacobi, jv

from gpswf import backend, specfun, spectral
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
        lad = specfun.bessel_j_ladder(1.5, 30, 12.3)[0]
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
    # whole phase; the 75 Miller arguments in (0, 370] fill several batched
    # blocks, each mixing start orders more than 100 apart, and rescale at
    # different steps (the recurrence grows by about 2 nu / x per step)
    LADDER_X = (0.0, 1e-3, 5.0, 120.0, 369.9, 370.0, 370.1, 400.0, 452.0, 453.0,
                454.0, 1000.0, 5000.0, 8000.0 * math.pi, 2.0 ** 41, 1e40, 1e60,
                1e300) + tuple(np.geomspace(0.01, 360.0, 70))

    @pytest.mark.parametrize("nu0", [-0.5, 0.0, 0.25])
    @pytest.mark.parametrize("count", [1, 2, 400])
    def test_batched_ladder_bitwise_equals_scalar(self, nu0, count):
        miller = [x for x in self.LADDER_X
                  if 0.0 < x and not backend._upward_regime(nu0, count, x)]
        tops = sorted((backend._miller_top(nu0, count, x) for x in miller),
                      reverse=True)
        blocks = [tops[i:i + backend._MILLER_BLOCK]
                  for i in range(0, len(tops), backend._MILLER_BLOCK)]
        assert len(blocks) >= 3
        assert max(b[0] - b[-1] for b in blocks) > 100
        rows = backend.bessel_ladder(nu0, count, np.array(self.LADDER_X))
        assert rows.shape == (len(self.LADDER_X), count)
        for x, row in zip(self.LADDER_X, rows):
            assert row.tobytes() == backend.bessel_ladder(nu0, count, [x])[0].tobytes()
            if x > 370.0 and nu0 + count - 1 <= 0.88 * x:
                # upward regime: the plain-float recurrence, step by step
                ref = [oracles._hankel_j(nu0, x), oracles._hankel_j(nu0 + 1.0, x)]
                for j in range(2, count):
                    ref.append((2.0 * (nu0 + j - 1) / x) * ref[j - 1] - ref[j - 2])
                assert row.tobytes() == np.array(ref[:count]).tobytes()

    def test_batched_orders_bitwise_equal_scalar(self):
        x = np.array([3.0, 371.5, 2222.0])
        for nu, kmax in ((2.0, 0), (3.5, 40)):
            rows = specfun.bessel_j_ladder(nu, kmax, x)
            for xi, row in zip(x, rows):
                assert row.tobytes() == specfun.bessel_j_ladder(nu, kmax, [xi])[0].tobytes()
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
        assert all(backend._upward_regime(nu0, orders[-1] + 1, v) for v in self.MP_X)
        rows = backend.bessel_ladder(nu0, orders[-1] + 1, x)
        worst = 0.0
        with mp.workdps(30):
            for v, row in zip(self.MP_X, rows.tolist()):
                envelope = math.sqrt(2.0 / (math.pi * v))
                for j in orders:
                    ref = mp.besselj(nu0 + j, v)
                    worst = max(worst, float(abs(mp.mpf(row[j]) - ref)) / envelope)
        assert worst <= 1e-15


def test_small_miller_block_bitwise_lone():
    # 9 Miller arguments: fewer than _MILLER_LONE, so each runs alone
    x = 2.0 ** np.arange(9)
    rows = backend.bessel_ladder(0.25, 181, x)
    for xi, row in zip(x.tolist(), rows):
        assert row.tobytes() == backend._ladder_miller(0.25, 181, xi).tobytes()
        assert row.tobytes() == backend.bessel_ladder(0.25, 181, [xi])[0].tobytes()


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
