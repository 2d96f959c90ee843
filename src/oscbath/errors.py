"""Exception types shared across the package."""

__all__ = [
    "OscbathError",
    "InvalidParameters",
    "SteadyStateUnavailable",
    "NonPhysicalInput",
    "DomainError",
    "OutOfRange",
    "UnknownFigure",
]


class OscbathError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameters(OscbathError, ValueError):
    """A system parameter set violates one of its constraints."""


class SteadyStateUnavailable(OscbathError):
    """The steady-state solve was rejected.

    No steady state exists at lambda = 0, where propagation needs none; a
    near-singular solve that misses its residual bound is refused too.
    """


class NonPhysicalInput(OscbathError, ValueError):
    """A covariance matrix has no real nonnegative symplectic spectrum."""


class DomainError(OscbathError, ValueError):
    """Argument below 1 passed to the bosonic entropy function."""


class OutOfRange(OscbathError, OverflowError):
    """A computed quantity lies beyond the float range."""


class UnknownFigure(OscbathError, LookupError):
    """Requested figure preset id does not exist."""
