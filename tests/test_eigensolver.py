import numpy as np
import pytest

from gpswf.eigensolver import SymTridiag, eig_symtridiag
from gpswf.errors import DomainError


def random_tridiag(n, rng):
    return SymTridiag(rng.normal(size=n), rng.normal(size=n - 1))


def count_below(m, shifts):
    """Sturm count: how many eigenvalues of ``m`` lie below each shift, from
    the negative pivots of the LDL^T factorization of ``m - shift I``."""
    piv = m.diag[0] - shifts
    count = (piv < 0).astype(int)
    for i in range(1, m.n):
        piv = (m.diag[i] - shifts
               - m.offdiag[i - 1] ** 2 / np.where(piv == 0.0, 1e-300, piv))
        count += piv < 0
    return count


def assert_sturm_bracketed(m, values):
    """Value i has at most i eigenvalues below it and at least i + 1 just
    above it, within delta = 1e-10 (1 + |value|)."""
    delta = 1e-10 * (1.0 + np.abs(values))
    idx = np.arange(values.size)
    assert np.all(count_below(m, values - delta) <= idx)
    assert np.all(count_below(m, values + delta) >= idx + 1)


def test_one_by_one():
    dec = eig_symtridiag(SymTridiag(np.array([4.2]), np.array([])))
    assert dec.values[0] == 4.2


def test_two_by_two_closed_form():
    dec = eig_symtridiag(SymTridiag(np.array([0.0, 0.0]), np.array([1.0])))
    np.testing.assert_allclose(dec.values, [-1.0, 1.0], atol=1e-15)


def test_diagonal_matrix():
    d = np.array([3.0, -1.0, 2.0, 0.5])
    dec = eig_symtridiag(SymTridiag(d, np.zeros(3)))
    np.testing.assert_allclose(dec.values, np.sort(d), atol=0)


@pytest.mark.parametrize("n", [5, 50, 173])
def test_random_residuals(n):
    rng = np.random.default_rng(n)
    m = random_tridiag(n, rng)
    dec = eig_symtridiag(m)
    assert dec.values.size == n
    assert np.all(np.diff(dec.values) >= 0)
    # the residual of each value, measured by inertia rather than by a vector
    assert_sturm_bracketed(m, dec.values)


def test_values_match_dense_solver():
    rng = np.random.default_rng(99)
    m = random_tridiag(80, rng)
    dec = eig_symtridiag(m)
    ref = np.linalg.eigvalsh(m.dense())
    np.testing.assert_allclose(dec.values, ref, atol=1e-12, rtol=1e-12)


def test_deterministic():
    rng = np.random.default_rng(1)
    m = random_tridiag(30, rng)
    d1 = eig_symtridiag(m)
    d2 = eig_symtridiag(m)
    np.testing.assert_array_equal(d1.values, d2.values)


def test_sturm_oracle_rejects_a_shifted_value():
    rng = np.random.default_rng(7)
    m = random_tridiag(40, rng)
    values = np.array(eig_symtridiag(m).values)
    values[17] += 1e-6 * (1.0 + abs(values[17]))
    with pytest.raises(AssertionError):
        assert_sturm_bracketed(m, values)


def test_domain_errors():
    with pytest.raises(DomainError):
        SymTridiag(np.array([]), np.array([]))
    with pytest.raises(DomainError):
        SymTridiag(np.array([1.0, 2.0]), np.array([]))
    with pytest.raises(DomainError):
        SymTridiag(np.array([1.0, np.nan]), np.array([0.0]))
