"""Generalized prolate spheroidal wave functions on [-1, 1] with the weight
(1 - x^2)^alpha: eigensystems, transform eigenvalues, bound verification, and
spectral projection of a test-function corpus."""

__version__ = "0.1.0"

from .backend import backend_name
from .errors import ConsistencyError, DomainError, GpswfError, TruncationError
from .specfun import (QuadratureRule, bessel_j, gauss_jacobi, ln_gamma,
                      weight_mass)
from .eigensolver import EigDecomposition, SymTridiag, eig_symtridiag
from .basis import (GpswfBasis, LocalEstimateReport, assemble_eigensystem,
                    build_basis, chi_bracket, chi_lower_bound_check,
                    decay_regime_multiplier, local_estimate)
from .spectral import (SpectrumEntry, compute_spectrum, decay_bound_check,
                       fc_on_jacobi, kernel_trace)
from .approx import (ProjectionResult, TargetFunction, brownian,
                     periodic_coefficient, project, weierstrass_mandelbrot)
