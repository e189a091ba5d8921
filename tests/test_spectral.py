import dataclasses
import math
import tracemalloc

import numpy as np
import oracles
import pytest

from gpswf import basis as B
from gpswf import backend, specfun, spectral
from gpswf.errors import ConsistencyError, DomainError


@pytest.fixture(scope="module")
def basis_05_2():
    return B.build_basis(0.5, 2.0, 24)


@pytest.fixture(scope="module")
def spectrum_05_2(basis_05_2):
    return spectral.compute_spectrum(basis_05_2)


def quad_transform(alpha, c, values_fn, x, order=220):
    """Direct quadrature of int e^{icxy} f(y) w_a(y) dy."""
    rule = specfun.gauss_jacobi(alpha, order)
    return complex(np.dot(rule.weights,
                          np.exp(1j * c * x * rule.nodes) * values_fn(rule.nodes)))


class TestFcOnJacobi:
    def test_constant_mode_is_sinc(self):
        # alpha = 0: int e^{icxy} dy = 2 sin(cx)/(cx); Jt_0 = 1/sqrt(2)
        c, x = 2.0, 0.63
        val = spectral.fc_on_jacobi(0.0, c, 0, x)
        ref = (2.0 * math.sin(c * x) / (c * x)) / math.sqrt(2.0)
        assert val.imag == 0.0
        assert val.real == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
    def test_matches_quadrature(self, k):
        alpha, c, x = 0.6, 3.0, 0.41
        mine = spectral.fc_on_jacobi(alpha, c, k, x)
        ref = quad_transform(alpha, c,
                             lambda y: specfun.jacobi_table(alpha, k, y)[k], x)
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_magnitude_within_bessel_envelope(self):
        # |F_c Jt_k(x)| <= sqrt(pi) (c/2)^k G(k+a+1) |x|^k
        #                  / (G(k+1) G(k+a+3/2) sqrt(h_k))
        alpha, c = 0.5, 4.0
        for k in range(8):
            for x in (0.2, 0.7, 1.0):
                val = abs(spectral.fc_on_jacobi(alpha, c, k, x))
                hk = (2.0 ** (2 * alpha + 1) * math.gamma(k + alpha + 1) ** 2
                      / (math.factorial(k) * (2 * k + 2 * alpha + 1)
                         * math.gamma(k + 2 * alpha + 1)))
                bound = (math.sqrt(math.pi) * (c * x / 2.0) ** k
                         * math.gamma(k + alpha + 1)
                         / (math.gamma(k + 1) * math.gamma(k + alpha + 1.5)
                            * math.sqrt(hk)))
                assert val <= bound * (1 + 1e-12)

    def test_parity_and_origin(self):
        alpha, c = 0.3, 2.0
        for k in (1, 3):
            assert spectral.fc_on_jacobi(alpha, c, k, 0.0) == 0.0j
            v = spectral.fc_on_jacobi(alpha, c, k, 0.5)
            assert spectral.fc_on_jacobi(alpha, c, k, -0.5) == -v
        for k in (0, 2, 4):
            v = spectral.fc_on_jacobi(alpha, c, k, 0.5)
            assert spectral.fc_on_jacobi(alpha, c, k, -0.5) == v
        assert spectral.fc_on_jacobi(alpha, c, 2, 0.0) == 0.0j
        v0 = spectral.fc_on_jacobi(alpha, c, 0, 0.0)
        ref = quad_transform(alpha, c, lambda y: specfun.jacobi_table(alpha, 0, y)[0], 0.0)
        assert v0 == pytest.approx(ref, rel=1e-12)

    def test_domain(self):
        for c in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match=f"bandwidth c must be > 0, got {c}$"):
                spectral.fc_on_jacobi(0.5, c, 0, 0.3)
        with pytest.raises(DomainError):
            spectral.fc_on_jacobi(0.5, 2.0, 0, 1.4)
        # k = -1 would index from the end, 2.5 fails inside numpy, and a NaN
        # x passes any |x| <= 1 test by comparison
        for k in (-1, 2.5, True):
            with pytest.raises(DomainError, match=f"order k must be an integer >= 0, got {k}"):
                spectral.fc_on_jacobi(0.5, 2.0, k, 0.3)
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"finite x with \\|x\\| <= 1, got x={x}"):
                spectral.fc_on_jacobi(0.5, 2.0, 1, x)
        assert spectral.fc_on_jacobi(0.5, 2.0, np.int64(3), 0.3) == \
            spectral.fc_on_jacobi(0.5, 2.0, 3, 0.3)
        # alpha is named, not the Bessel order it sets
        for alpha in (math.nan, math.inf, -2.0):
            with pytest.raises(DomainError, match=f"alpha must be finite and > -1, got {alpha}"):
                spectral.fc_on_jacobi(alpha, 1.0, 0, 0.5)


def test_fc_terms_are_read_only():
    terms = spectral._fc_terms(0.5, 12, 3.7)
    with pytest.raises(ValueError):
        terms[0] = 1.0
    assert spectral._fc_terms(0.5, 12, 3.7) is terms


def test_fc_term_rows_bitwise_equal_fc_terms():
    u = [0.4, 369.0, 371.0, 900.0]
    rows = spectral._fc_term_rows(1.5, 60, u)
    for x, row in zip(u, rows):
        assert row.tobytes() == spectral._fc_terms(1.5, 60, x).tobytes()


class TestSpectrum:
    def test_lambda_identity_and_range(self, basis_05_2, spectrum_05_2):
        for e in spectrum_05_2:
            assert e.lam == pytest.approx(
                basis_05_2.c / (2 * math.pi) * e.mu_abs ** 2, rel=1e-12)
            assert 0.0 < e.lam <= 1.0 + 1e-12
        lams = [e.lam for e in spectrum_05_2]
        assert all(b < a * (1 + 1e-12) for a, b in zip(lams, lams[1:]))

    def test_phase_is_i_to_n(self, spectrum_05_2):
        for e in spectrum_05_2:
            assert abs(e.mu_phase - 1j ** (e.n % 4)) < 1e-8

    def test_mu_against_direct_quadrature(self, basis_05_2, spectrum_05_2):
        b = basis_05_2
        for n in (0, 1, 2, 5, 9):
            x0 = 0.4
            direct = quad_transform(b.alpha, b.c,
                                    lambda y: b.psi(n, y, 0)[0], x0)
            mu_direct = direct / b.psi(n, np.array([x0]), 0)[0, 0]
            e = spectrum_05_2[n]
            assert abs(mu_direct - e.mu_abs * e.mu_phase) < 1e-13 + 1e-9 * e.mu_abs

    def test_probe_spread_enforced(self, spectrum_05_2):
        for e in spectrum_05_2[:13]:
            assert e.probe_spread <= 1e-8 * e.mu_abs

    def test_partial_trace(self, basis_05_2, spectrum_05_2):
        total = spectral.kernel_trace(basis_05_2.alpha, basis_05_2.c)
        tail = spectral.lambda_bound_tail(basis_05_2.alpha, basis_05_2.c,
                                          basis_05_2.nmax)
        partial = sum(e.lam for e in spectrum_05_2)
        assert abs(partial - total) <= 1e-6 + tail

    def test_trace_alpha0_closed_form(self):
        # (c/2)(G(1)/G(3/2))^2 = 2c/pi
        assert spectral.kernel_trace(0.0, 3.0) == pytest.approx(
            6.0 / math.pi, rel=1e-13)

    @pytest.mark.parametrize("c", [0.0, -1.0, -3.0, math.nan, math.inf])
    def test_sums_refuse_a_bandwidth_not_finite_and_positive(self, c):
        # the sums take the bandwidth that fc_on_jacobi takes: finite, > 0
        for call in (lambda: spectral.decay_bound_check(5, 1e-3, 0.5, c),
                     lambda: spectral.lambda_bound_tail(0.5, c, 5),
                     lambda: spectral.kernel_trace(0.5, c)):
            with pytest.raises(DomainError, match=f"bandwidth c must be > 0, got {c}$"):
                call()

    @pytest.mark.parametrize("call, message", [
        (lambda: spectral.decay_bound_check(20, math.nan, 0.5, 5.0), "modulus .* finite and >= 0"),
        (lambda: spectral.decay_bound_check(20, -1.0, 0.5, 5.0), "modulus .* finite and >= 0"),
        (lambda: spectral.decay_bound_check(20, math.inf, 0.5, 5.0), "modulus .* finite and >= 0"),
        (lambda: spectral.decay_bound_check(20.5, 1e-3, 0.5, 5.0), "^n must be an integer >= 0"),
        (lambda: spectral.decay_bound_check(20.0, 1e-3, 0.5, 5.0), "^n must be an integer >= 0"),
        (lambda: spectral.decay_bound_check(True, 1e-3, 0.5, 5.0), "^n must be an integer >= 0"),
        (lambda: spectral.decay_bound_check(-1, 1e-3, 0.5, 5.0), "^n must be an integer >= 0"),
        (lambda: spectral.lambda_bound_tail(0.5, 5.0, math.nan), "^n_from must be an integer >= 0"),
        (lambda: spectral.lambda_bound_tail(0.5, 5.0, 20.5), "^n_from must be an integer >= 0"),
        (lambda: spectral.lambda_bound_tail(0.5, 5.0, -3), "^n_from must be an integer >= 0"),
    ], ids=["mu_nan", "mu_negative", "mu_inf", "n_fraction", "n_whole_float", "n_bool",
            "n_negative", "n_from_nan", "n_from_fraction", "n_from_negative"])
    def test_checks_refuse_an_index_or_modulus_out_of_range(self, call, message):
        # a NaN or negative modulus once read as log 0, with margins +inf
        with pytest.raises(DomainError, match=message):
            call()

    def test_checks_take_numpy_integers_and_a_zero_modulus(self):
        v = spectral.decay_bound_check(np.int64(20), 0.0, 0.5, 5.0)
        assert v.applicable and v.margin_mu == v.margin_lambda == math.inf
        assert spectral.lambda_bound_tail(0.5, 5.0, np.int64(20)) == \
            spectral.lambda_bound_tail(0.5, 5.0, 20)

    def test_probe_failure_raises(self, basis_05_2):
        # artificially corrupt one coefficient vector: probes must disagree
        import dataclasses

        bad_beta = list(basis_05_2.beta)
        vec = bad_beta[4].copy()
        vec[1] += 0.01  # mix a neighboring mode into one eigenvector
        vec /= np.linalg.norm(vec)
        bad_beta[4] = vec
        bad = dataclasses.replace(basis_05_2, beta=tuple(bad_beta))
        with pytest.raises(ConsistencyError, match="probe spread"):
            spectral.compute_spectrum(bad)

    def test_underflowed_mu_named_in_the_error(self):
        # |mu_n| turns subnormal near n = 210 at (0.5, 10, 240); the check
        # still refuses, and says why
        b = B.build_basis(0.5, 10.0, 240)
        with pytest.raises(ConsistencyError, match=r"at n=211 underflowed") as info:
            spectral.compute_spectrum(b)
        assert "truncation" not in str(info.value)

    def test_zero_mu_refused(self):
        # at c = 1e-12, mu_24 underflows to 0 and its probe sums are 0 too:
        # the comparisons held vacuously, and the floor over |mu| divided by 0
        b = B.build_basis(0.5, 1e-12, 40)
        with pytest.raises(ConsistencyError, match=r"= 0.000e\+00 at n=24 underflowed"):
            spectral.compute_spectrum(b)


def test_spectrum_probes_share_batched_ladders(monkeypatch):
    # every probe argument of every n goes through one batched Bessel
    # ladder; only _check_phase's two arguments, from one ladder call, run
    # the scalar one
    calls = []
    scalar = backend._ladder_miller

    def counted(*args):
        calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(backend, "_ladder_miller", counted)
    spectral._fc_terms.cache_clear()
    spectral.compute_spectrum(B.build_basis(1.0, 20 * math.pi, 93))
    assert len(calls) <= 2


def test_phase_check_refuses_a_wrong_phase(monkeypatch):
    # s_1 flipped: the closed form of F_c Jt_1 takes the opposite sign from
    # the quadrature, so the one-off phase check raises before any probe
    b = B.build_basis(0.5, 5.0, 12)
    spectral._check_phase(b)
    gammas = spectral._signed_gammas

    def flipped(alpha, kmax):
        mant, expo = gammas(alpha, kmax)
        mant = np.array(mant)
        mant[1] = -mant[1]
        return mant, expo

    monkeypatch.setattr(spectral, "_signed_gammas", flipped)
    with pytest.raises(ConsistencyError, match="phase validation failed at k=1"):
        spectral._check_phase(b)
    with pytest.raises(ConsistencyError, match="phase validation failed at k=1"):
        spectral.compute_spectrum(b)


@pytest.mark.parametrize("alpha,c,nmax,order", [(0.5, 5.0, 12, 35),
                                                 (1.0, 20 * math.pi, 93, 64)])
def test_phase_check_rule_order(monkeypatch, alpha, c, nmax, order):
    # the phase check asks for ceil(c/2) + 32 nodes, not the former 80 + c
    b = B.build_basis(alpha, c, nmax)
    calls = []
    rule = specfun.gauss_jacobi

    def recorded(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(specfun, "gauss_jacobi", recorded)
    spectral._check_phase(b)
    assert calls == [(alpha, order)]


@pytest.mark.parametrize("alpha", [0.0, 2.5, 30.0])
def test_phase_rule_agrees_with_the_former_rule(alpha):
    # the four quadratures of the phase check at ceil(c/2) + 32 nodes equal
    # those of the former 80 + int(c) nodes to 1e-13 on the check's scale
    for c in (1e-3, math.pi, 20 * math.pi, 200.0, 1000.0):
        new = spectral._phase_quadratures(alpha, c, spectral._phase_rule_order(c))
        old = spectral._phase_quadratures(alpha, c, 80 + int(c))
        assert np.all(np.abs(new - old) <= 1e-13 * np.maximum(1.0, np.abs(old))), c


def test_spectrum_peak_memory_below_two_and_a_quarter_betas():
    # at (0.5, 1000, 1130) beta holds 7.0 MB; psi at the probes reads it
    # per parity, with no zero-interleaved copy, and the phase check's
    # Gauss rule has 532 nodes, so the spectrum's traced peak stays below
    # 2.25 beta (2.11 measured with the Jacobi table at the 32 candidates,
    # 2.01 without it; 2.65 with the former 1080-node rule)
    b = B.build_basis(0.5, 1000.0, 1130)
    tracemalloc.start()
    try:
        spectral.compute_spectrum(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * b.beta.nbytes, peak / b.beta.nbytes


@pytest.mark.parametrize("alpha,c,nmax", [(0.5, 10.0, 120), (0.0, 200.0, 230),
                                           (0.5, 200.0, 230), (2.5, 200.0, 230),
                                           (5.0, 200.0, 230)])
def test_deep_n_probe_check_passes(alpha, c, nmax):
    # deep n, where psi_n's sizable values sit near x = 1 and the Bessel sum
    # cancels there: the probes still resolve mu to 1e-8 at every n
    entries = spectral.compute_spectrum(B.build_basis(alpha, c, nmax))
    assert len(entries) == nmax
    for e in entries:
        assert e.probe_spread <= 1e-8 * e.mu_abs
        assert e.probe_floor <= 1e-8


EPS = np.finfo(float).eps


def test_log_lambda_finite_and_decreasing_where_lambda_underflows():
    # from n = 127 on lambda underflows to 0.0, where a decreasing check on
    # lambda itself holds vacuously; log lambda stays finite and decreasing
    entries = spectral.compute_spectrum(B.build_basis(0.5, 10.0, 200))
    log_lam = np.array([e.log_lam for e in entries])
    assert sum(e.lam == 0.0 for e in entries) > 0
    assert np.all(np.isfinite(log_lam))
    assert np.all(np.diff(log_lam) < 0.0)
    tiny = np.finfo(float).tiny
    for e in entries:
        if e.lam >= tiny:  # a normal double: its log agrees to a few ulps
            assert abs(e.log_lam - math.log(e.lam)) <= 8 * EPS * max(1.0, abs(e.log_lam))
        if e.bound.applicable:
            assert e.bound.margin_lambda == e.bound.log_lambda_bound - e.log_lam




def _per_n_probes(basis, n, mu):
    """Probe ratios and floors of psi_n, ranked by floor, from its own psi
    call at the 32 geometric candidates and one transform sum per candidate;
    a floor also counts |mu| times the norm of the Jacobi rows of n's parity."""
    xs = np.geomspace(1e-3, 0.99, 32)
    vals = basis.psi(n, xs, 0)[0]
    coef = oracles.full_coefficients(basis, n)
    rows = specfun.jacobi_table(basis.alpha, 2 * basis.trunc - 1, xs)[n % 2::2]
    ratios, floors = [], []
    for x, v, norm in zip(xs, vals, np.linalg.norm(rows, axis=0)):
        u = basis.c * float(x)
        terms = coef * spectral._fc_terms(basis.alpha, coef.size - 1, u)
        ratios.append(oracles.fc_series(basis.alpha, basis.beta[n], n % 2, u) / v)
        floors.append(1024.0 * EPS * (float(np.max(np.abs(terms))) + abs(mu) * norm) / abs(v))
    keep = np.argsort(floors)[:5]
    return np.array(ratios)[keep], np.array(floors)[keep]


@pytest.mark.parametrize("alpha,c,nmax", [(0.5, 2.0, 24), (1.5, 5 * math.pi, 48)])
def test_one_pass_spectrum_matches_per_n_evaluation(alpha, c, nmax):
    # probes, mu, probe_spread and probe_floor from per-n psi calls; the
    # one-pass values differ from them only in the BLAS summation order
    b = B.build_basis(alpha, c, nmax)
    entries = spectral.compute_spectrum(b)
    for e in entries:
        n = e.n
        mu = spectral._mu_from_boundary(b, n, b.psi(n, np.array([0.0]), 1)[:, 0])
        ratios, floors = _per_n_probes(b, n, mu)
        spread = float(np.max(np.abs(ratios - mu)))
        assert abs(e.mu_abs * e.mu_phase - mu) <= 8 * EPS * abs(mu)
        assert abs(e.probe_spread - spread) <= 16 * EPS * abs(mu)
        assert e.probe_floor == pytest.approx(floors[-1] / abs(mu), rel=16 * EPS)


@pytest.mark.parametrize("alpha,c,nmax", [(0.5, 2.0, 24), (2.5, 20 * math.pi, 93)])
def test_probe_checks_equal_the_per_n_complex_form(alpha, c, nmax):
    # the whole-array checks compare each sum on mu's axis; per n, the
    # complex abs(sum / psi_n(x*) - mu) over the same kept candidates gives
    # the same doubles
    b = B.build_basis(alpha, c, nmax)
    rows = spectral._fc_term_rows(b.alpha, 2 * b.trunc - 1, b.c * spectral._PROBE_X)
    vals = b.psi(range(b.nmax), spectral._PROBE_X, 0)[0]
    at0 = B._psi_at0(b)
    mu_abs = np.array([abs(spectral._mu_from_boundary(b, n, at0[:, n])) for n in range(b.nmax)])
    table = specfun.jacobi_table(b.alpha, 2 * b.trunc - 1, spectral._PROBE_X)
    norms = [np.sqrt(np.einsum("kj,kj->j", t, t)) for t in (table[0::2], table[1::2])]
    floors = spectral._probe_floors(b, rows, vals, mu_abs, norms)
    ranked = np.argsort(floors, axis=1)[:, :spectral._N_PROBES]
    for e in spectral.compute_spectrum(b):
        n, p, keep = e.n, e.n % 2, ranked[e.n]
        mu = spectral._mu_from_boundary(b, n, at0[:, n])
        terms = (b.beta[n] * rows[keep, p::2]).tolist()
        devs = [abs(oracles.fc_sum(t, p) / v - mu) for t, v in zip(terms, vals[n, keep])]
        assert e.probe_spread == max(devs)
        assert e.probe_floor == float(floors[n, keep[-1]]) / abs(mu)


@pytest.mark.parametrize("rows", [(1,), (9, 6), (11, 3), (20,)])
def test_perturbed_rows_raise_at_the_first_n(basis_05_2, rows):
    # the first perturbed n raises, whatever fails after it (the golden file
    # pins each message)
    beta = np.array(basis_05_2.beta)
    for n in rows:
        beta[n, 1] += 0.01  # mix a neighboring mode into one eigenvector
        beta[n] /= np.linalg.norm(beta[n])
    with pytest.raises(ConsistencyError, match=f"at n={min(rows)} "):
        spectral.compute_spectrum(dataclasses.replace(basis_05_2, beta=beta))


def _swapped_beta(basis, perturbed):
    """beta with rows 4 and 6 swapped, then a neighbouring mode mixed into
    each row of ``perturbed``."""
    beta = np.array(basis.beta)
    beta[[4, 6]] = beta[[6, 4]]
    for n in perturbed:
        beta[n, 1] += 0.01
        beta[n] /= np.linalg.norm(beta[n])
    return beta


@pytest.mark.parametrize("perturbed,match", [
    ((), r"^lambda sequence not decreasing at n=5$"),
    ((9,), r"^lambda sequence not decreasing at n=5$"),
    ((3,), r"^mu probe spread .* at n=3 "),
])
def test_first_failing_n_raises_whichever_check_fails(basis_05_2, perturbed, match):
    # psi_4 carries psi_6's coefficients: its probes agree on mu_6, and the
    # rise from lambda_4 to lambda_5 fails the decreasing check at n=5; a
    # probe failure at a later n does not raise first, one at an earlier n does
    bad = dataclasses.replace(basis_05_2, beta=_swapped_beta(basis_05_2, perturbed))
    with pytest.raises(ConsistencyError, match=match):
        spectral.compute_spectrum(bad)


def test_lambda_above_one_raises_before_its_rise(basis_05_2, monkeypatch):
    # psi_3'(0) nearly cancels, so mu_3 from the boundary identity grows a
    # thousandfold: at n=3 the probes fail first; with them passed, lambda_3
    # both exceeds 1 and rises from lambda_2, and lambda <= 1 is named
    d = specfun.jacobi_table(0.5, 3, np.array([0.0]), nderiv=1)[1, :, 0]
    beta = np.array(basis_05_2.beta)
    beta[3] = 0.0
    beta[3, :2] = d[3], -0.999 * d[1]
    beta[3] /= np.linalg.norm(beta[3])
    bad = dataclasses.replace(basis_05_2, beta=beta)
    with pytest.raises(ConsistencyError, match=r"^mu probe spread .* at n=3 "):
        spectral.compute_spectrum(bad)
    monkeypatch.setattr(spectral, "_PROBE_TOL", math.inf)
    with pytest.raises(ConsistencyError, match=r"^lambda_3 = .* exceeds 1$"):
        spectral.compute_spectrum(bad)


def _warm_spectrum_peak(b):
    """tracemalloc peak of compute_spectrum(b) with its Gauss rule warm and
    the x = 0 values and transform terms cold, in bytes."""
    spectral.compute_spectrum(b)
    fresh = dataclasses.replace(b)  # keeps no x = 0 values
    spectral._fc_terms.cache_clear()
    tracemalloc.start()
    try:
        spectral.compute_spectrum(fresh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_peak_memory_stays_small():
    # the floor product runs in blocks of n: all n at once would hold
    # nmax x 32 x trunc doubles (2.3 MB here) per temporary
    assert _warm_spectrum_peak(B.build_basis(2.5, 20 * math.pi, 93)) < 1_000_000


def test_probe_gather_stays_blocked():
    # the kept candidates' terms are gathered in blocks of n too: every n of
    # one parity at once would hold nmax/2 x 5 x trunc doubles (0.9 MB here)
    # per temporary
    assert _warm_spectrum_peak(B.build_basis(0.5, 200.0, 230)) < 1_800_000


class TestDecayBounds:
    def test_constants_alpha0(self):
        assert spectral.mu_decay_constant(0.0) == pytest.approx(
            2.3114546995818434, rel=1e-13)

    @pytest.mark.parametrize("alpha", np.linspace(0.0, 3.0, 10).tolist())
    def test_constant_identity(self, alpha):
        # K_a = k_a^2 / (2 pi): the lambda bound is (c/2pi) (mu bound)^2
        assert spectral.lambda_decay_constant(alpha) == pytest.approx(
            spectral.mu_decay_constant(alpha) ** 2 / (2 * math.pi), rel=1e-12)

    def test_bounds_hold_on_pipeline(self):
        b = B.build_basis(1.0, 5.0, 41)
        for e in spectral.compute_spectrum(b):
            if e.n > (math.e * 5.0 + 1) / 2:
                assert e.bound.applicable
                assert e.bound.margin_mu >= 0.0
                assert e.bound.margin_lambda >= 0.0
            else:
                assert not e.bound.applicable

    def test_lambda_margin_finite_when_lambda_underflows(self):
        # lambda = (c / 2 pi) mu^2 is 0.0 in floats here; its bound is still
        # checked, from log |mu|
        v = spectral.decay_bound_check(120, 1e-170, 0.5, 10.0)
        assert v.applicable and math.isfinite(v.margin_lambda)
        assert v.margin_lambda == pytest.approx(2.0 * v.margin_mu, rel=1e-12)

    def test_inapplicable_below_threshold(self, spectrum_05_2):
        thr = (math.e * 2.0 + 1.0) / 2.0
        for e in spectrum_05_2:
            assert e.bound.applicable == (e.n > thr)


class TestOperator:
    def test_kernel_small_argument_limit(self):
        alpha = 0.8
        val = oracles.concentration_kernel(alpha, np.array([0.0]))[0]
        ref = (math.sqrt(math.pi) * math.gamma(alpha + 1.0)
               / math.gamma(alpha + 1.5))
        assert val == pytest.approx(ref, rel=1e-13)

    def test_kernel_large_argument_bitwise(self):
        # the u > 12 branch from batched ladders against the scalar formula
        alpha = 1.3
        u = np.array([12.5, 100.0, 369.9, 370.1, 5000.0])
        nu = alpha + 0.5
        pref = math.sqrt(math.pi) * math.exp((alpha + 0.5) * math.log(2.0)
                                             + specfun.ln_gamma(alpha + 1.0))
        ref = np.array([pref * specfun.bessel_j(nu, x) / x ** nu for x in u])
        assert oracles.concentration_kernel(alpha, u).tobytes() == ref.tobytes()

    def test_kernel_even(self):
        alpha = 0.4
        u = np.array([0.3, 1.7, 9.0])
        np.testing.assert_allclose(oracles.concentration_kernel(alpha, u),
                                   oracles.concentration_kernel(alpha, -u),
                                   rtol=0)

    def test_eigen_residual(self, basis_05_2, spectrum_05_2):
        b = basis_05_2
        rule = specfun.gauss_jacobi(b.alpha, 2 * b.trunc + 16)
        for n in range(0, 21, 4):
            vals = b.psi(n, rule.nodes, 0)[0]
            image = oracles.apply_concentration(b.alpha, b.c, rule, vals)
            resid = image - spectrum_05_2[n].lam * vals
            rnorm = math.sqrt(float(rule.integrate(resid ** 2)))
            assert rnorm <= 1e-8

    def test_nested_transform_consistency(self, basis_05_2, spectrum_05_2):
        # (c/2pi) F* F psi_n by two nested quadratures
        b = basis_05_2
        rule = specfun.gauss_jacobi(b.alpha, 160)
        n = 3
        psi_n = b.psi(n, rule.nodes, 0)[0]
        inner = np.exp(1j * b.c * np.outer(rule.nodes, rule.nodes)) @ (
            rule.weights * psi_n)
        outer = np.exp(-1j * b.c * np.outer(rule.nodes, rule.nodes)) @ (
            rule.weights * inner)
        image = b.c / (2 * math.pi) * outer
        resid = image - spectrum_05_2[n].lam * psi_n
        rnorm = math.sqrt(abs(float(rule.integrate(np.abs(resid) ** 2))))
        assert rnorm <= 1e-8


class TestDchiDc:
    def test_positive_and_bounded(self):
        rec = oracles.dchi_dc(0.5, 2.0, 3)
        assert rec.analytic > 0.0
        assert rec.analytic <= 2.0 * 2.0  # 2c since B <= 1

    def test_finite_difference_agreement(self):
        rec = oracles.dchi_dc(0.5, 3.0, 5)
        assert rec.finite_diff == pytest.approx(rec.analytic, rel=1e-5)


def test_bounds_refuse_a_bad_alpha():
    # these named ln_gamma and its argument alpha + 1 for a bad alpha
    for call in (lambda: spectral.kernel_trace(-2.0, 1.0),
                 lambda: spectral.decay_bound_check(30, 1e-30, math.nan, 1.0),
                 lambda: spectral.lambda_bound_tail(math.nan, 1.0, 10),
                 lambda: spectral.mu_decay_constant(math.inf),
                 lambda: spectral.lambda_decay_constant(-1.0)):
        with pytest.raises(DomainError, match="alpha must be finite and > -1"):
            call()


def test_decay_constant_overflow_and_early_tail_refused():
    # Gamma(alpha + 1) passes the largest double from alpha 170.7; a tail
    # from n_from <= (e c + 1)/2 (14.09 at c = 10) is refused
    with pytest.raises(DomainError, match="passes the largest double at alpha=171.0"):
        spectral.decay_bound_check(30, 1e-30, 171.0, 1.0)
    with pytest.raises(DomainError, match=r"needs n_from > \(ec\+1\)/2; got 14"):
        spectral.lambda_bound_tail(0.5, 10.0, 14)
