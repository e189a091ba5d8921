"""Symmetric tridiagonal matrices and their full eigendecomposition.

Used by the Gauss-Jacobi rule construction; the coefficient eigensystem of
the wave-function bases computes its eigenvectors by recurrence instead
(:func:`gpswf.basis.build_basis`).
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

    def matvec(self, v):
        out = self.diag * v
        if self.n > 1:
            out[:-1] += self.offdiag * v[1:]
            out[1:] += self.offdiag * v[:-1]
        return out

    def dense(self):
        a = np.diag(self.diag)
        if self.n > 1:
            a += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return a


@dataclass(frozen=True)
class EigDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (as columns)."""

    values: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)


def _fix_signs(z):
    # first nonzero entry of every eigenvector positive (deterministic and
    # stabilizes the downstream wave-function sign convention)
    for j in range(z.shape[1]):
        col = z[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        lead = col[nz[0]] if nz.size else col[0]
        if lead < 0.0:
            col *= -1.0
    return z


def eig_symtridiag(m: SymTridiag) -> EigDecomposition:
    """Full spectrum of a symmetric tridiagonal matrix; deterministic output."""
    if not isinstance(m, SymTridiag):
        m = SymTridiag(np.asarray(m[0]), np.asarray(m[1]))
    if m.n == 1:
        return EigDecomposition(values=m.diag.copy(), vectors=np.ones((1, 1)))
    values, vectors = backend.tridiag_eig(m.diag, m.offdiag)
    vectors = _fix_signs(np.array(vectors))
    values = np.array(values)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigDecomposition(values=values, vectors=vectors)
