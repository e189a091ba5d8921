import dataclasses
import importlib.util
import math
import pathlib

import mpmath as mp
import numpy as np
import oracles
import pytest
from golden import record

from gpswf import experiments, specfun
from gpswf import basis as B
from gpswf.errors import DomainError, TruncationError
from gpswf.spectral import compute_spectrum


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
        # a whole float or a fraction once built floor(M) + 1 or M rows
        for M in (2.5, 2.0, True, "3"):
            with pytest.raises(DomainError, match="truncation order M must be an integer"):
                B.assemble_eigensystem(0.5, 5.0, M, "even")
        assert B.assemble_eigensystem(0.5, 5.0, np.int64(3), "even").diag.size == 3


class TestBuildBasis:
    def test_gegenbauer_degeneration(self):
        # c -> 0: chi_n -> n(n+2a+1) and |beta| -> unit vectors (the sign
        # convention psi_n(0) > 0 flips the sign for n = 2, 3 mod 4)
        alpha = 0.75
        b = B.build_basis(alpha, 1e-8, 6)
        for n in range(6):
            assert abs(b.chi[n] - n * (n + 2 * alpha + 1)) < 1e-6
            full = oracles.full_coefficients(b, n)
            assert abs(abs(full[n]) - 1.0) < 1e-8
        with pytest.raises(DomainError):
            B.build_basis(alpha, 0.0, 4)
        for nmax in (5.5, 6.0, True, "5"):
            with pytest.raises(DomainError, match=f"nmax must be an integer >= 1, got {nmax!r}"):
                B.build_basis(0.5, 5.0, nmax)
        assert B.build_basis(0.5, 5.0, np.int64(5)).nmax == 5

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
            mine = np.abs(oracles.full_coefficients(b, n))
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
        # an order far too short for c = 30 leaves tail mass behind: the one
        # order is refused, after one assembly per parity
        assembled = []

        def counted(*args):
            assembled.append(args)
            return assemble(*args)

        assemble = B.assemble_eigensystem
        monkeypatch.setattr(B, "assemble_eigensystem", counted)
        monkeypatch.setattr(B, "_start_order", lambda *cell: 24)
        with pytest.raises(TruncationError, match=r"coefficient tail mass \S+ at n=\d+, "
                                                  r"truncation order 24: above 1\.0e-24$") as err:
            B.build_basis(0.5, 30.0, 40)
        assert [args[2:] for args in assembled] == [(24, "even"), (24, "odd")]
        assert 0 <= err.value.n < 40 and err.value.tail_mass > B._TAIL_TOL
        assert f"{err.value.tail_mass:.3e} at n={err.value.n}," in str(err.value)

    def test_start_past_cap_raises_before_assembly(self, monkeypatch):
        # nmax 20000 starts at order 10025, past _M_CAP: no 10025^2 eigensolve;
        # the refusal turns on (c, nmax) alone, an input out of range
        def no_assembly(*args):
            raise AssertionError("assembled a system past the cap")

        monkeypatch.setattr(B, "assemble_eigensystem", no_assembly)
        with pytest.raises(DomainError, match="start order 10025 .* past the truncation cap 8192"):
            B.build_basis(0.5, 5.0, 20000)
        with pytest.raises(DomainError, match="start order 500025 .* past the truncation cap"):
            B.build_basis(0.5, 1e6, 10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_march_raises_at_the_first_order(self):
        # c = 1e-70: off-diagonals of 2.5e-141 overflow the march at the start
        # order 26, which is refused with the overflow named
        assert B.build_basis(0.5, 1e-50, 4).trunc == 26  # finite at 1e-50
        with pytest.raises(TruncationError, match="order 26: the eigenvector march "
                                                  "overflowed at c=1e-70") as err:
            B.build_basis(0.5, 1e-70, 4)
        assert err.value.n == 0 and math.isnan(err.value.tail_mass)

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
        signed = B._apply_sign_convention(dataclasses.replace(b, beta=flipped))
        np.testing.assert_array_equal(signed.beta, b.beta)
        assert B._psi_at0(signed).tobytes() == B._psi_at0(b).tobytes()

    def test_sign_falls_back_to_the_largest_coefficient(self):
        # an even row orthogonal to (Jt_0(0), Jt_2(0), Jt_4(0)) has psi(0) = 0:
        # its largest-|beta| entry decides, made negative here
        ref = specfun.jacobi_table(0.5, 5, np.array([0.0]), nderiv=1)[0, 0::2, 0]
        v = np.array([ref[1], -ref[0], 0.0])
        v *= -np.sign(v[np.argmax(np.abs(v))]) / np.linalg.norm(v)
        beta = np.array([v, [1.0, 0.0, 0.0]])
        b = B.GpswfBasis(alpha=0.5, c=1.0, trunc=3, nmax=2, chi=[1.0, 2.0], beta=beta)
        np.testing.assert_array_equal(B._apply_sign_convention(b).beta,
                                      [-v, [1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("cell", record.BASIS_CELLS)
    def test_built_and_loaded_bases_agree_at_zero(self, cell):
        # build_basis keeps the values at 0 that decided the signs, flipped
        # with their rows; a basis loaded from bytes evaluates them anew, to
        # the same bytes (a psi'(0) of +0.0 at even n included)
        b = B.build_basis(*cell)
        loaded = experiments.basis_from_bytes(experiments.basis_to_bytes(b))
        assert "psi_at0" in b._tables and not loaded._tables
        assert B._psi_at0(loaded).tobytes() == B._psi_at0(b).tobytes()


# The start order of the truncation rule at the sweep workload's corners
# (nmax = ceil(c) + 30), the projection and scenario cells, and bandwidth
# cells, two of them with nmax < c
_RULE_CELLS = [(0.0, math.pi, 34), (2.5, math.pi, 34), (0.0, 20 * math.pi, 93),
               (2.5, 20 * math.pi, 93), (0.5, 5 * math.pi, 96),
               (1.5, 5 * math.pi, 96), (1.5, 5 * math.pi, 91),
               (2.5, 5 * math.pi, 40), (0.5, 200.0, 230), (5.0, 200.0, 250),
               (0.5, 500.0, 250), (2.0, 300.0, 100),
               # the largest tail masses at the start that scripts/truncation_grid.py
               # found; each needs 20 and 19 rows past ceil(hypot(nmax, c) / 2)
               (0.0, 50.0, 25), (0.0, 100.0, 50)]


def _load_script(name):
    """The module of ``scripts/<name>.py``, which is not a package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


truncation_grid = _load_script("truncation_grid")


class TestTruncationRule:
    @pytest.mark.parametrize("alpha,c,nmax", _RULE_CELLS)
    def test_start_needs_no_growth_and_keeps_chi(self, alpha, c, nmax):
        b = B.build_basis(alpha, c, nmax)
        assert b.trunc == B._start_order(c, nmax)
        # room to spare: at most 1e-30 of tail mass where the check accepts 1e-24
        assert np.max(np.sum(b.beta[:, -B._TAIL_BUFFER:] ** 2, axis=1)) <= 1e-30
        # the former start order, nmax + ceil(c) + 40, as a dense oracle
        old = nmax + math.ceil(c) + 40
        dense = np.sort(np.concatenate([
            np.linalg.eigvalsh(B.assemble_eigensystem(alpha, c, old, p).dense())
            for p in ("even", "odd")]))[:nmax]
        np.testing.assert_allclose(b.chi, dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("alpha,c,nmax", _RULE_CELLS)
    def test_start_is_tight(self, alpha, c, nmax):
        need = truncation_grid.smallest_order(alpha, c, nmax)
        assert B._start_order(c, nmax) - need <= 44

    def test_grid_script_exits_1_on_a_refused_start(self, monkeypatch, capsys):
        assert truncation_grid.main(["--cell", "0", "50", "25"]) == 0
        assert "; 0 refused at the start;" in capsys.readouterr().out
        monkeypatch.setattr(B, "_start_order", lambda *cell: 24)
        assert truncation_grid.main(["--cell", "0", "50", "25"]) == 1
        out = capsys.readouterr().out
        assert "refused at the start: coefficient tail mass" in out
        assert "; 1 refused at the start;" in out

    # cells whose probe verdict turned on the order alone, through terms
    # whose Bessel factor underflowed and psi_n(x*)'s own rounding near x = 1:
    # each spectrum passes at 24, 40, 41 and 50 rows past ceil(hypot(nmax, c) / 2)
    @pytest.mark.parametrize("alpha,c,nmax", [(98.3, 5.0, 40), (110.0, 5.0, 20),
                                              (89.7, 5.0, 100), (42.0, 50.0, 4),
                                              (60.0, 20 * math.pi, 93),
                                              (30.0, 20 * math.pi, 93), (30.0, 200.0, 230)])
    def test_spectrum_verdict_does_not_turn_on_the_order(self, monkeypatch, alpha, c, nmax):
        for rows in (24, 40, 41, 50):
            M = math.ceil(math.hypot(nmax, c) / 2) + rows
            monkeypatch.setattr(B, "_start_order", lambda *cell: M)
            b = B.build_basis(alpha, c, nmax)
            assert b.trunc == M
            assert len(compute_spectrum(b)) == nmax, rows


def _parity_blocks(alpha, c, nmax):
    """The two parity blocks at the start order and their eigenvalues."""
    M = B._start_order(c, nmax)
    tris = [B.assemble_eigensystem(alpha, c, M, p) for p in ("even", "odd")]
    return tris, [B.eig_symtridiag(t).values for t in tris]


class TestJointMarch:
    # odd and even nmax, nmax 1 (no odd column kept), and the last three
    # cells, whose march rescales past 2**600
    CELLS = [(0.5, 2.0, 1), (0.5, 2.0, 16), (5.0, 200.0, 231), (0.0, 5.0, 200),
             (0.5, 10.0, 241), (0.0, 100.0, 301)]

    @pytest.mark.parametrize("cell", CELLS)
    def test_equals_the_per_parity_march(self, cell):
        nmax = cell[2]
        tris, spectra = _parity_blocks(*cell)
        mant, expo = B._march(tris, np.stack([s[:(nmax + 1) // 2] for s in spectra]))
        assert expo.dtype == np.int16
        assert expo.any() == (cell in self.CELLS[3:])
        for p, (t, s) in enumerate(zip(tris, spectra)):
            # the odd block's padding column (odd nmax) is not compared
            cols = (nmax - p + 1) // 2
            ref_mant, ref_expo = oracles.march_one_parity(t, s[:cols])
            assert mant[:, :, p, :cols].tobytes() == ref_mant.tobytes()
            assert np.array_equal(expo[:, :, p, :cols], ref_expo)

    @pytest.mark.parametrize("cell", CELLS)
    def test_vectors_equal_the_per_parity_splice(self, cell):
        tris, spectra = _parity_blocks(*cell)
        nmax = cell[2]
        beta = B._recurrence_vectors(tris, spectra, nmax)
        for p, (t, s) in enumerate(zip(tris, spectra)):
            ref = oracles.recurrence_vectors_one_parity(t, s[:(nmax - p + 1) // 2])
            assert beta[p::2].tobytes() == ref.T.tobytes()


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

    @pytest.mark.parametrize("cell", [(0.5, 2.0, 16), (1.5, 5 * math.pi, 48)])
    def test_parity_symmetry_is_bytewise(self, cell):
        # psi_n^(d)(-x) = (-1)^(n+d) psi_n^(d)(x) byte for byte at x != 0,
        # for all n in one call and for one n alone, on an asymmetric point
        # set and on Gauss nodes (x = 0 dropped from the odd rule)
        b = B.build_basis(*cell)
        asym = np.array([-0.93, -0.5, 0.2, 0.31, 0.71, 0.999, -1.0, 1e-3])
        nodes = specfun.gauss_jacobi(b.alpha, 2 * b.trunc + 9).nodes
        signs = (-1.0) ** (np.arange(b.nmax)[:, None] + np.arange(3))
        for x in (asym, nodes[nodes != 0.0]):
            plus, minus = b.psi(range(b.nmax), x, 2), b.psi(range(b.nmax), -x, 2)
            for d in range(3):
                want = signs[:, d, None] * plus[d]
                assert minus[d].tobytes() == want.tobytes(), d
            for n in (0, 1, b.nmax - 1):
                one = b.psi(n, -x, 2)
                assert one.tobytes() == (signs[n, :, None] * b.psi(n, x, 2)).tobytes()

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
        # nderiv -1 raised a bare IndexError and 2.5 a bare TypeError
        for nderiv in (-1, 2.5, "1"):
            with pytest.raises(DomainError, match=f"nderiv must be an integer >= 0, got {nderiv!r}"):
                basis_05_2.psi(1, [0.2], nderiv)
            with pytest.raises(DomainError, match=f"nderiv must be an integer >= 0, got {nderiv!r}"):
                basis_05_2.psi_table([0.2], None, nderiv)
        assert basis_05_2.psi(1, [0.2], np.int64(1)).shape == (2, 1)

    def test_one_index_fast_path(self, basis_05_2):
        # a Python or NumPy integer skips the array pass but gives the same
        # index array, and the same error for anything else
        for n in (0, 15, np.int64(7), np.uint8(3)):
            ns = basis_05_2._check_index(n)
            assert ns.dtype == np.intp and ns.tolist() == [int(n)]
        for n in (-1, 16, np.int64(-1), 2.0, True, np.bool_(True)):
            with pytest.raises(IndexError, match=r"out of range 0\.\.15"):
                basis_05_2._check_index(n)

    @pytest.mark.parametrize("nderiv", [0, 1, 2])
    def test_psi_of_many_n_matches_single_n(self, basis_05_2, nderiv):
        # one call for all n and one call per n sum every n in the same
        # product shape, so they agree bit for bit
        b = basis_05_2
        x = np.linspace(-1.0, 1.0, 1500)
        many = b.psi(range(b.nmax), x, nderiv)
        assert many.shape == (nderiv + 1, b.nmax, x.size)
        for n in range(b.nmax):
            assert b.psi(n, x, nderiv).tobytes() == many[:, n].tobytes(), n
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
        with pytest.raises(DomainError, match="grid_size must lie in 100..100000, got 400.5"):
            B.local_estimate(b, 0, grid_size=400.5)
        assert B.local_estimate(b, 0, np.int64(400)) == B.local_estimate(b, 0, 400)

    def test_local_estimate_cache_never_stale(self):
        # alternate bases and grid sizes: each report must equal one computed
        # on a copy of the basis, so the one slot a basis keeps never serves
        # a table of another grid
        bases = [B.build_basis(0.0, 1.0, 8), B.build_basis(0.5, 3.0, 8)]
        for b, grid_size, n in [(0, 400, 3), (0, 400, 4), (1, 400, 3), (1, 137, 5),
                                (1, 137, 6), (0, 137, 5), (0, 400, 6), (1, 137, 2),
                                (1, 400, 7)]:
            got = B.local_estimate(bases[b], n, grid_size)
            fresh = dataclasses.replace(bases[b])  # keeps no tables
            assert repr(got) == repr(B.local_estimate(fresh, n, grid_size))
        assert (B.local_estimate(bases[1], np.int64(3)).sup_value
                == B.local_estimate(bases[1], 3).sup_value)
        with pytest.raises(IndexError):
            B.local_estimate(bases[0], -1)

    @pytest.mark.parametrize("n", [-1, 10])
    def test_checkers_refuse_index_out_of_range(self, n):
        # the index is checked before chi is read: -1 must not wrap to the last n
        b = B.build_basis(0.0, 3.0, 10)
        with pytest.raises(IndexError, match=r"basis index out of range 0\.\.9"):
            B.chi_lower_bound_check(b, n)

    def test_regime_multiplier(self):
        assert B.decay_regime_multiplier(0.0) == pytest.approx(
            5.717241989669045, rel=1e-12)


def test_psi_table_refuses_two_dimensional_points(basis_05_2):
    with pytest.raises(DomainError, match=r"psi points .* got shape \(2, 2\)"):
        basis_05_2.psi_table(np.zeros((2, 2)))


def test_assemble_eigensystem_refuses_a_negative_bandwidth():
    with pytest.raises(DomainError, match="bandwidth c must be >= 0, got -1.0"):
        B.assemble_eigensystem(0.5, -1.0, 4, "even")
