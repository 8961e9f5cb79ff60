"""Exception types shared across the package."""

__all__ = ["InvalidArityError", "NormalizationError", "DomainError"]


class InvalidArityError(ValueError):
    """Wrong number of qubits or parameters for an operation."""


class NormalizationError(ValueError):
    """Coefficients do not form a unit vector within tolerance."""


class DomainError(ValueError):
    """Parameters lie outside the domain an operation supports."""
