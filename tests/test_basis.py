import math

import mpmath as mp
import numpy as np
import pytest

from gpswf import specfun
from gpswf import basis as B
from gpswf.errors import ConsistencyError, DomainError, TruncationError


@pytest.fixture(scope="module")
def basis_05_2():
    return B.build_basis(0.5, 2.0, 16)


def displayed_row(alpha, c, k):
    """The closed-form rational matrix entries (diagonal, coupling to k+2)."""
    diag = (k * (k + 2 * alpha + 1)
            + c * c * (2 * k * (k + 2 * alpha + 1) + 2 * alpha - 1)
            / ((2 * k + 2 * alpha + 3) * (2 * k + 2 * alpha - 1)))
    off = (c * c * math.sqrt((k + 1) * (k + 2) * (k + 2 * alpha + 1)
                             * (k + 2 * alpha + 2))
           / ((2 * k + 2 * alpha + 3)
              * math.sqrt((2 * k + 2 * alpha + 5) * (2 * k + 2 * alpha + 1))))
    return diag, off


class TestAssembly:
    def test_zero_bandwidth_is_diagonal(self):
        m = B.assemble_eigensystem(0.7, 0.0, 8, "even")
        k = 2.0 * np.arange(8)
        np.testing.assert_allclose(m.diag, k * (k + 2 * 0.7 + 1), rtol=1e-14)
        np.testing.assert_allclose(m.offdiag, 0.0, atol=0)

    def test_k0_entry(self):
        # substituting k = 0 collapses the rational entry to c^2/(2a+3)
        for alpha in [0.0, 0.3, 1.7]:
            m = B.assemble_eigensystem(alpha, 2.0, 4, "even")
            assert m.diag[0] == pytest.approx(4.0 / (2 * alpha + 3), rel=1e-13)

    def test_alpha0_matches_classical_legendre_matrix(self):
        # independent hand-coded classical matrix at alpha = 0
        c = 2.0
        m = B.assemble_eigensystem(0.0, c, 6, "even")
        for i, k in enumerate(range(0, 12, 2)):
            diag = k * (k + 1) + c * c * (2 * k * (k + 1) - 1) / ((2 * k + 3)
                                                                  * (2 * k - 1))
            assert m.diag[i] == pytest.approx(diag, rel=1e-13)
            if i < 5:
                off = (c * c * (k + 2) * (k + 1)
                       / ((2 * k + 3) * math.sqrt((2 * k + 1) * (2 * k + 5))))
                assert m.offdiag[i] == pytest.approx(off, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.1])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_matches_displayed_formula(self, alpha, parity):
        c = 2.5
        m = B.assemble_eigensystem(alpha, c, 9, parity)
        p = 0 if parity == "even" else 1
        for i in range(9):
            k = 2 * i + p
            if k >= 1:  # displayed rational form; k = 0 has the 0/0 reduction
                diag, off = displayed_row(alpha, c, k)
                assert m.diag[i] == pytest.approx(diag, rel=1e-12)
                if i < 8:
                    assert m.offdiag[i] == pytest.approx(off, rel=1e-12)

    def test_symmetry_under_index_shift(self):
        # coupling (k -> k+2) equals coupling (k+2 -> k): structural here,
        # identical to the displayed sub/super-diagonal pair
        m = B.assemble_eigensystem(0.9, 3.0, 10, "odd")
        assert np.all(np.isfinite(m.offdiag))

    def test_half_alpha_removable_singularity(self):
        m = B.assemble_eigensystem(0.5, 3.0, 6, "even")
        assert np.all(np.isfinite(m.diag))
        assert m.diag[0] == pytest.approx(9.0 / 4.0, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            B.assemble_eigensystem(0.5, 2.0, 1, "even")
        with pytest.raises(DomainError):
            B.assemble_eigensystem(-2.0, 2.0, 8, "even")
        with pytest.raises(DomainError):
            B.assemble_eigensystem(0.5, 2.0, 8, "sideways")


class TestBuildBasis:
    def test_gegenbauer_degeneration(self):
        # c -> 0: chi_n -> n(n+2a+1) and |beta| -> unit vectors (the sign
        # convention psi_n(0) > 0 flips the sign for n = 2, 3 mod 4)
        alpha = 0.75
        b = B.build_basis(alpha, 1e-8, 6)
        for n in range(6):
            assert abs(b.chi[n] - n * (n + 2 * alpha + 1)) < 1e-6
            full = b.full_coefficients(n)
            assert abs(abs(full[n]) - 1.0) < 1e-8
        with pytest.raises(DomainError):
            B.build_basis(alpha, 0.0, 4)

    def test_dense_oracle_alpha0(self):
        # dense full-coupling matrix at larger truncation, generic solver
        c, nmax, mdense = 2.0, 11, 120
        b = B.build_basis(0.0, c, nmax)
        a = specfun.jacobi_recurrence(0.0, mdense + 2)
        dense = np.zeros((mdense, mdense))
        for k in range(mdense):
            dense[k, k] = k * (k + 1) + c * c * (a[k] ** 2 + a[k + 1] ** 2)
            if k + 2 < mdense:
                dense[k, k + 2] = dense[k + 2, k] = c * c * a[k + 1] * a[k + 2]
        vals, vecs = np.linalg.eigh(dense)
        for n in range(nmax):
            assert b.chi[n] == pytest.approx(vals[n], rel=1e-9)
            mine = np.abs(b.full_coefficients(n))
            ref = np.abs(vecs[: mine.size, n])
            ref /= np.linalg.norm(ref)
            np.testing.assert_allclose(mine, ref, atol=1e-8)

    def test_chi_matches_classical_prolate_solver(self):
        # scipy's spheroidal characteristic values solve the same ODE at
        # alpha = 0 (order-0 prolate case): an external cross-validation of
        # the whole eigensystem pipeline
        from scipy.special import pro_cv

        b = B.build_basis(0.0, 3.0, 12)
        for n in range(12):
            assert b.chi[n] == pytest.approx(pro_cv(0, n, 3.0), rel=1e-13)

    def test_chi_bracket_all(self, basis_05_2):
        b = basis_05_2
        for n in range(b.nmax):
            lo, hi = B.chi_bracket(b.alpha, b.c, n)
            assert lo <= b.chi[n] <= hi

    def test_chi_strictly_increasing_with_parity_interleave(self, basis_05_2):
        chi = basis_05_2.chi
        rel_gaps = np.diff(chi) / np.maximum(1.0, np.abs(chi[1:]))
        assert np.all(rel_gaps > 1e-9)

    def test_beta_normalized(self, basis_05_2):
        for n in range(basis_05_2.nmax):
            assert np.sum(basis_05_2.beta[n] ** 2) == pytest.approx(1.0,
                                                                    abs=1e-12)

    def test_tail_mass(self, basis_05_2):
        for n in range(basis_05_2.nmax):
            assert float(np.sum(basis_05_2.beta[n][-8:] ** 2)) <= 1e-24

    def test_truncation_cap_error(self, monkeypatch):
        # orders far too short for c = 30: every one leaves tail mass behind
        monkeypatch.setattr(B, "_truncation_orders", lambda c, nmax: iter((24, 28)))
        with pytest.raises(TruncationError, match="truncation order 28"):
            B.build_basis(0.5, 30.0, 40)

    def test_start_past_cap_raises_before_assembly(self, monkeypatch):
        # nmax 20000 starts at order 10041, past _M_CAP: no 10041^2 eigensolve
        def no_assembly(*args):
            raise AssertionError("assembled a system past the cap")

        monkeypatch.setattr(B, "assemble_eigensystem", no_assembly)
        with pytest.raises(TruncationError, match="start order 10041 .* past the truncation cap"):
            B.build_basis(0.5, 5.0, 20000)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_march_raises_at_the_first_order(self, monkeypatch):
        # c = 1e-70: off-diagonals of 2.5e-141 overflow the march at the start
        # order 42, and no doubling mends a NaN tail (to 5376: 10 s, 475 MB)
        assert B.build_basis(0.5, 1e-50, 4).trunc == 42  # finite at 1e-50
        monkeypatch.setattr(B, "_truncation_orders", lambda c, nmax: iter((42, 84)))
        with pytest.raises(TruncationError, match="order 42: the eigenvector march "
                                                  "overflowed at c=1e-70"):
            B.build_basis(0.5, 1e-70, 4)

    def test_order_short_of_nmax_names_it(self, monkeypatch):
        # 2 rows per parity cannot hold the 17 even n of nmax 34
        monkeypatch.setattr(B, "_truncation_orders", lambda c, nmax: iter((2,)))
        with pytest.raises(TruncationError, match="truncation order 2 "):
            B.build_basis(0.0, math.pi, 34)

    def test_short_start_grows_and_passes(self, monkeypatch):
        # a start below the smallest passing order (167 here) doubles once
        ref = B.build_basis(0.5, 200.0, 230)
        monkeypatch.setattr(B, "_start_order", lambda c, nmax: 120)
        b = B.build_basis(0.5, 200.0, 230)
        assert b.trunc == 240
        assert max(float(np.sum(v[-8:] ** 2)) for v in b.beta) <= 1e-24
        np.testing.assert_allclose(b.chi, ref.chi, rtol=1e-12, atol=0)

    def test_sign_convention(self, basis_05_2):
        for n in range(basis_05_2.nmax):
            at0 = basis_05_2.psi(n, np.array([0.0]), 1)
            if n % 2 == 0:
                assert at0[0, 0] > 0
            else:
                assert at0[0, 0] == 0.0
                assert at0[1, 0] > 0


class TestBasisArrays:
    def test_beta_is_one_matrix(self, basis_05_2):
        b = basis_05_2
        assert isinstance(b.beta, np.ndarray) and b.beta.dtype == np.float64
        assert b.beta.shape == (b.nmax, b.trunc) and b.chi.shape == (b.nmax,)

    def test_writes_raise(self, basis_05_2):
        b = basis_05_2
        before = b.psi(3, np.array([0.3]))
        with pytest.raises(ValueError):
            b.beta[3][:] *= 2
        with pytest.raises(ValueError):
            b.beta[0, 0] = 1.0
        with pytest.raises(ValueError):
            b.chi[0] = 1.0
        np.testing.assert_array_equal(b.psi(3, np.array([0.3])), before)

    def test_construction_leaves_the_callers_array_writable(self):
        beta, chi = np.eye(2, 3), np.zeros(2)
        b = B.GpswfBasis(alpha=0.5, c=2.0, trunc=3, nmax=2, chi=chi, beta=beta)
        assert beta.flags.writeable and chi.flags.writeable
        assert not b.beta.flags.writeable and not b.chi.flags.writeable

    @pytest.mark.parametrize("beta, chi", [
        ((np.ones(3), np.ones(4)), np.zeros(2)),   # ragged rows
        (np.ones((2, 4)), np.zeros(2)),            # rows longer than trunc
        (np.ones((3, 3)), np.zeros(2)),            # more rows than nmax
        (np.ones(6), np.zeros(2)),                 # flat
        (np.ones((2, 3)), np.zeros(3)),            # chi longer than nmax
    ])
    def test_wrong_shape_raises_domain_error(self, beta, chi):
        with pytest.raises(DomainError):
            B.GpswfBasis(alpha=0.5, c=2.0, trunc=3, nmax=2, chi=chi, beta=beta)

    def test_tails_and_signs_match_per_row_forms(self):
        # the array forms of the tail mass and the sign convention against
        # one row at a time, as dot products over each row's parity
        b = B.build_basis(0.5, 5.0, 21)
        tails = [float(np.sum(v[-B._TAIL_BUFFER:] ** 2)) for v in b.beta]
        assert max(tails) <= B._TAIL_TOL
        table = specfun.jacobi_table(0.5, 2 * b.trunc - 1, np.array([0.0]), nderiv=1)
        for n, vec in enumerate(b.beta):
            assert float(np.dot(vec, table[n % 2, n % 2::2, 0])) > 1e-13
        flipped = -np.array(b.beta)
        flipped[::3] *= -1.0
        B._apply_sign_convention(0.5, b.trunc, flipped)
        np.testing.assert_array_equal(flipped, b.beta)

    def test_sign_falls_back_to_the_largest_coefficient(self):
        # an even row orthogonal to (Jt_0(0), Jt_2(0), Jt_4(0)) has psi(0) = 0:
        # its largest-|beta| entry decides, made negative here
        ref = specfun.jacobi_table(0.5, 5, np.array([0.0]), nderiv=1)[0, 0::2, 0]
        v = np.array([ref[1], -ref[0], 0.0])
        v *= -np.sign(v[np.argmax(np.abs(v))]) / np.linalg.norm(v)
        beta = np.array([v, [1.0, 0.0, 0.0]])
        B._apply_sign_convention(0.5, 3, beta)
        np.testing.assert_array_equal(beta, [-v, [1.0, 0.0, 0.0]])


# The start order of the truncation rule at the sweep workload's corners
# (nmax = ceil(c) + 30), the projection and scenario cells, and bandwidth
# cells, two of them with nmax < c
_RULE_CELLS = [(0.0, math.pi, 34), (2.5, math.pi, 34), (0.0, 20 * math.pi, 93),
               (2.5, 20 * math.pi, 93), (0.5, 5 * math.pi, 96),
               (1.5, 5 * math.pi, 96), (1.5, 5 * math.pi, 91),
               (2.5, 5 * math.pi, 40), (0.5, 200.0, 230), (5.0, 200.0, 250),
               (0.5, 500.0, 250), (2.0, 300.0, 100)]


def _tail_passes(monkeypatch, alpha, c, nmax, M):
    with monkeypatch.context() as m:
        m.setattr(B, "_truncation_orders", lambda c, nmax: iter((M,)))
        try:
            B.build_basis(alpha, c, nmax)
        except (TruncationError, ConsistencyError):
            return False
    return True


class TestTruncationRule:
    @pytest.mark.parametrize("alpha,c,nmax", _RULE_CELLS)
    def test_start_needs_no_growth_and_keeps_chi(self, alpha, c, nmax):
        b = B.build_basis(alpha, c, nmax)
        assert b.trunc == B._start_order(c, nmax)
        # the former start order, nmax + ceil(c) + 40, as a dense oracle
        old = nmax + math.ceil(c) + 40
        dense = np.sort(np.concatenate([
            np.linalg.eigvalsh(B.assemble_eigensystem(alpha, c, old, p).dense())
            for p in ("even", "odd")]))[:nmax]
        np.testing.assert_allclose(b.chi, dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("alpha,c,nmax", _RULE_CELLS)
    def test_start_is_tight(self, monkeypatch, alpha, c, nmax):
        # bisect the smallest order that passes the tail check; each parity
        # block needs (nmax + 1) // 2 rows to hold its eigenvalues at all
        start = B._start_order(c, nmax)
        lo, hi = (nmax + 1) // 2 - 1, start
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _tail_passes(monkeypatch, alpha, c, nmax, mid):
                hi = mid
            else:
                lo = mid
        assert start - hi <= 60


EPS = np.finfo(float).eps


def _mp_jacobi_rows(alpha, kmax, xs):
    """Jt_k(x) and Jt_k'(x), k = 0..kmax, at 30 digits: [d][j][k] for xs[j]."""
    with mp.workdps(30):
        al = mp.mpf(alpha)
        a = [mp.mpf(0)] + [mp.sqrt(k * (k + 2 * al)
                                   / ((2 * k + 2 * al + 1) * (2 * k + 2 * al - 1)))
                           for k in range(1, kmax + 1)]
        h0 = (2 ** (2 * al + 1) * mp.gamma(al + 1) ** 2
              / ((2 * al + 1) * mp.gamma(2 * al + 1)))
        vals, ders = [], []
        for x in xs:
            x = mp.mpf(x)
            p, dp = [1 / mp.sqrt(h0)], [mp.mpf(0)]
            for k in range(kmax):
                prev, dprev = (p[k - 1], dp[k - 1]) if k else (0, 0)
                p.append((x * p[k] - a[k] * prev) / a[k + 1])
                dp.append((p[k] + x * dp[k] - a[k] * dprev) / a[k + 1])
            vals.append(p)
            ders.append(dp)
        return vals, ders


class TestEvaluation:
    def test_parity_structural(self, basis_05_2):
        x = np.linspace(0.05, 1.0, 9)
        for n in range(8):
            plus = basis_05_2.psi(n, x, 0)[0]
            minus = basis_05_2.psi(n, -x, 0)[0]
            np.testing.assert_array_equal(minus, (-1.0) ** n * plus)

    def test_orthonormality_matrix(self, basis_05_2):
        b = basis_05_2
        rule = specfun.gauss_jacobi(b.alpha, 2 * b.trunc + 8)
        tab = b.psi_table(rule.nodes)
        gram = tab @ (rule.weights[:, None] * tab.T)
        assert np.max(np.abs(gram - np.eye(b.nmax))) <= 1e-10

    def test_ode_residual(self, basis_05_2):
        b = basis_05_2
        xs = np.linspace(-0.98, 0.98, 50)
        dense = np.linspace(-1, 1, 400)
        for n in range(b.nmax):
            vals = b.psi(n, xs, 2)
            resid = (-(1 - xs ** 2) * vals[2] + 2 * (b.alpha + 1) * xs * vals[1]
                     + b.c ** 2 * xs ** 2 * vals[0] - b.chi[n] * vals[0])
            peak = np.max(np.abs(b.psi(n, dense, 0)[0]))
            assert np.max(np.abs(resid)) <= 1e-8 * (1 + b.chi[n]) * peak

    def test_psi_index_domain(self, basis_05_2):
        with pytest.raises(IndexError):
            basis_05_2.psi(99, np.array([0.0]))
        with pytest.raises(IndexError):
            basis_05_2.psi(-1, np.array([0.0]))
        with pytest.raises(IndexError):
            basis_05_2.psi([0, 16], np.array([0.0]))

    def test_one_index_fast_path(self, basis_05_2):
        # a Python or NumPy integer skips the array pass but gives the same
        # index array, and the same error for anything else
        for n in (0, 15, np.int64(7), np.uint8(3)):
            ns = basis_05_2._check_index(n)
            assert ns.dtype == np.intp and ns.tolist() == [int(n)]
        for n in (-1, 16, np.int64(-1), 2.0, True, np.bool_(True)):
            with pytest.raises(IndexError, match=r"out of range 0\.\.15"):
                basis_05_2._check_index(n)

    @pytest.mark.parametrize("n", [-1, 5])
    def test_full_coefficients_index_domain(self, n):
        # a negative n used to wrap to beta[n] at the parity of n
        b = B.build_basis(0.5, 2.0, 5)
        with pytest.raises(IndexError):
            b.full_coefficients(n)

    def test_full_coefficients_scatter_beta_rows(self, basis_05_2):
        b = basis_05_2
        rows = b.full_coefficients(range(b.nmax))
        assert rows.shape == (b.nmax, 2 * b.trunc) and rows.flags.c_contiguous
        cols = b._beta_matrix(range(b.nmax))
        assert cols.flags.c_contiguous
        np.testing.assert_array_equal(cols, rows.T)
        for n in range(b.nmax):
            np.testing.assert_array_equal(b.full_coefficients(n), rows[n])
            np.testing.assert_array_equal(rows[n, n % 2::2], b.beta[n])
            assert not rows[n, 1 - n % 2::2].any()

    @pytest.mark.parametrize("nderiv", [0, 1, 2])
    def test_psi_of_many_n_matches_single_n(self, basis_05_2, nderiv):
        # one call for all n sums the same rows as one call per n; only the
        # BLAS summation order differs
        b = basis_05_2
        x = np.linspace(-1.0, 1.0, 1500)
        many = b.psi(range(b.nmax), x, nderiv)
        assert many.shape == (nderiv + 1, b.nmax, x.size)
        for n in range(b.nmax):
            one = b.psi(n, x, nderiv)
            for d in range(nderiv + 1):
                peak = np.max(np.abs(one[d]))
                assert np.max(np.abs(many[d, n] - one[d])) <= 8 * EPS * peak
        assert b.psi([], x, nderiv).shape == (nderiv + 1, 0, x.size)

    @pytest.mark.parametrize("alpha,c,nmax", [(0.5, 2.0, 16), (1.5, 5 * math.pi, 48),
                                              (0.0, 20 * math.pi, 93)])
    def test_psi_matches_mpmath_series(self, alpha, c, nmax):
        # psi_n and psi_n' against the same coefficients summed over a
        # 30-digit recurrence, to 1e-13 of their peak on [-1, 1]
        b = B.build_basis(alpha, c, nmax)
        x = [-1.0, -0.93, -0.5, 0.0, 0.2, 0.71, 0.999, 1.0]
        ref = _mp_jacobi_rows(alpha, 2 * b.trunc - 1, x)
        got = b.psi(range(nmax), np.array(x), 1)
        peak = np.max(np.abs(b.psi(range(nmax), np.linspace(-1.0, 1.0, 2001), 1)),
                      axis=2)
        for n in range(nmax):
            coef = [mp.mpf(v) for v in b.beta[n]]
            for d in (0, 1):
                for j in range(len(x)):
                    exact = float(mp.fdot(coef, ref[d][j][n % 2::2]))
                    assert abs(got[d, n, j] - exact) <= 1e-13 * peak[d, n]


class TestBoundCheckers:
    def test_improved_constant_values(self):
        assert B.improved_chi_constant(0.0) == pytest.approx(
            0.1715728752538099, rel=1e-12)
        assert B.improved_chi_constant(0.25) == pytest.approx(
            0.09167308680401606, rel=1e-12)

    def test_improved_lower_bound_holds(self):
        b = B.build_basis(0.0, 2.0, 12)
        v = B.chi_lower_bound_check(b, 10)
        assert v.applicable  # q = 4/chi_10 < 3/17
        assert v.margin_lower > 0 and v.margin_upper > 0

    def test_inapplicable_flag(self):
        b = B.build_basis(1.0, 2.0, 6)
        v = B.chi_lower_bound_check(b, 5)
        assert not v.applicable
        assert v.ok  # inapplicable verdicts never fail

    def test_local_estimate(self):
        b = B.build_basis(0.0, 1.0, 21)
        rep = B.local_estimate(b, 20, grid_size=400)
        assert rep.bound_applicable
        assert rep.sup_value <= rep.a_squared + 1e-9
        assert rep.a_squared <= 2 * b.alpha + 1 + 1e-9
        assert 1 - rep.b_moment <= 2 * rep.a_squared + 1e-9
        assert 0.0 <= rep.b_moment <= 1.0
        # B against a direct quadrature with an independent rule order
        rule = specfun.gauss_jacobi(b.alpha, 2 * b.trunc + 40)
        vals = b.psi(20, rule.nodes, 0)[0]
        direct = float(rule.integrate(rule.nodes ** 2 * vals ** 2))
        assert rep.b_moment == pytest.approx(direct, rel=1e-11)

    @pytest.mark.parametrize("alpha,c,n", [(0.0, 10.0, 7), (0.5, 30.0, 20),
                                           (2.5, 60.0, 41)])
    def test_moment_b_matches_quadrature(self, alpha, c, n):
        # the coefficient sum ||J beta||^2 against a Gauss rule exact for it
        b = B.build_basis(alpha, c, n + 1)
        rule = specfun.gauss_jacobi(alpha, 2 * b.trunc + 10)
        vals = b.psi(n, rule.nodes, 0)[0]
        direct = float(rule.integrate(rule.nodes ** 2 * vals ** 2))
        assert B.moment_b(b, n) == pytest.approx(direct, rel=1e-12)

    def test_local_estimate_grid_floor(self):
        b = B.build_basis(0.0, 1.0, 2)
        with pytest.raises(DomainError):
            B.local_estimate(b, 0, grid_size=50)

    def test_local_estimate_cache_never_stale(self):
        # alternate bases and grid sizes: each report must equal one computed
        # with the cache emptied first, so the one-entry cache never serves a
        # table of another basis or grid
        bases = [B.build_basis(0.0, 1.0, 8), B.build_basis(0.5, 3.0, 8)]
        for b, grid_size, n in [(0, 400, 3), (0, 400, 4), (1, 400, 3), (1, 137, 5),
                                (1, 137, 6), (0, 137, 5), (0, 400, 6), (1, 137, 2),
                                (1, 400, 7)]:
            got = B.local_estimate(bases[b], n, grid_size)
            B._estimate_values.cache_clear()
            assert repr(got) == repr(B.local_estimate(bases[b], n, grid_size))
        assert (B.local_estimate(bases[1], np.int64(3)).sup_value
                == B.local_estimate(bases[1], 3).sup_value)
        with pytest.raises(IndexError):
            B.local_estimate(bases[0], -1)

    def test_beta_bound_check_reads_beta_like_full_coefficients(self, basis_05_2):
        # k at and off the parity of n, past the last coefficient and
        # negative (an index from the end, as before); the golden file pins
        # the other fields
        b = basis_05_2
        ks = (0, 1, 2, 3, 16, 17, 2 * b.trunc - 2, 2 * b.trunc - 1, 2 * b.trunc,
              2 * b.trunc + 1, 3 * b.trunc, -1, -2)
        for n in (0, 1, 6, 15, np.int64(9)):
            coefs = b.full_coefficients(n)
            for k in ks:
                beta_k = abs(float(coefs[k])) if k < coefs.size else 0.0
                want = math.log(beta_k) if beta_k > 0.0 else -math.inf
                assert B.beta_bound_check(b, n, k, 1e-3).log_beta == want
        with pytest.raises(IndexError):
            B.beta_bound_check(b, -1, 2, 1e-3)

    @pytest.mark.parametrize("n", [-1, 10])
    def test_checkers_refuse_index_out_of_range(self, n):
        # the index is checked before chi is read: -1 must not wrap to the last n
        b = B.build_basis(0.0, 3.0, 10)
        with pytest.raises(IndexError, match=r"basis index out of range 0\.\.9"):
            B.chi_lower_bound_check(b, n)
        with pytest.raises(IndexError, match=r"basis index out of range 0\.\.9"):
            B.beta_bound_check(b, n, 2, 1e-3)

    def test_beta_bound_constant(self):
        # C_0 = (3/2)^(3/2) e^(-3/2)
        assert B.beta_bound_constant(0.0) == pytest.approx(
            0.40991627894186, rel=1e-12)

    def test_regime_multiplier(self):
        assert B.decay_regime_multiplier(0.0) == pytest.approx(
            5.717241989669045, rel=1e-12)

    def test_beta_bound_full_pipeline(self):
        from gpswf.spectral import compute_spectrum

        b = B.build_basis(0.5, 5.0, 41)
        entries = compute_spectrum(b)
        v = B.beta_bound_check(b, 40, 16, entries[40].mu_abs)
        assert v.applicable_q
        assert v.regime  # k=16 <= 40/1.9 and 40 >= m_a * 5
        assert v.holds and v.margin > 0
        # margins shrink monotonically toward small k; the checker reports
        # them rather than asserting (the applicability constant in the
        # condition k(k+2a+1) + C' c^2 <= chi_n is not pinned down)
        margins = [B.beta_bound_check(b, 40, k, entries[40].mu_abs).margin
                   for k in range(0, 18, 2)]
        assert all(m2 > m1 for m1, m2 in zip(margins, margins[1:]))
        v2 = B.beta_bound_check(b, 40, 16, entries[40].mu_abs, c_prime=1.0)
        assert v2.condition_ok is True
        v3 = B.beta_bound_check(b, 40, 16, entries[40].mu_abs, c_prime=100.0)
        assert v3.condition_ok is False
