"""Exception hierarchy. Exit-code contract: DomainError -> 1, ConsistencyError -> 2."""


class GpswfError(Exception):
    """Base class for all library errors."""


class DomainError(GpswfError, ValueError):
    """Invalid parameter or configuration (CLI exit code 1)."""


class ConsistencyError(GpswfError, RuntimeError):
    """An internal numerical consistency check failed (CLI exit code 2)."""


class TruncationError(ConsistencyError):
    """Jacobi-coefficient tail mass not resolved at the start order."""

    def __init__(self, message, n=None, tail_mass=None):
        super().__init__(message)
        self.n = n
        self.tail_mass = tail_mass
