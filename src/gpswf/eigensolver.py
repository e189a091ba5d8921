"""Symmetric tridiagonal matrices and their eigenvalues.

The one entry point for tridiagonal eigenvalues: the ``chi_n`` of the
wave-function bases (:func:`gpswf.basis.build_basis`) and the nodes of the
Gauss-Jacobi rules (:func:`gpswf.specfun.gauss_jacobi`).  Neither needs
eigenvectors from here: the bases march theirs by recurrence, and the rules
take Christoffel weights from the orthonormal polynomials.
"""

from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import DomainError

__all__ = ["SymTridiag", "EigDecomposition", "eig_symtridiag"]


@dataclass(frozen=True)
class SymTridiag:
    """Matrix with diagonal ``diag`` (n entries) and off-diagonal ``offdiag`` (n-1)."""

    diag: np.ndarray = field(repr=False)
    offdiag: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise DomainError("diag must be a nonempty 1-D array")
        if e.ndim != 1 or e.size != d.size - 1:
            raise DomainError("offdiag must have length len(diag) - 1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise DomainError("matrix entries must be finite")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def n(self):
        return self.diag.size

    def dense(self):
        a = np.diag(self.diag)
        if self.n > 1:
            a += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return a


@dataclass(frozen=True)
class EigDecomposition:
    """Ascending eigenvalues (read-only)."""

    values: np.ndarray = field(repr=False)


def eig_symtridiag(m: SymTridiag) -> EigDecomposition:
    """Spectrum of a symmetric tridiagonal matrix; deterministic output."""
    values = backend.tridiag_eig(m.diag, m.offdiag)
    values.setflags(write=False)
    return EigDecomposition(values=values)
