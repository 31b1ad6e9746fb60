"""Exception types shared across the library."""


class BBMLabError(Exception):
    """Base class for all library errors."""


class DomainError(BBMLabError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DimensionError(BBMLabError, ValueError):
    """Dimensions of two objects do not agree, or a dimension is unsupported."""


class IntegrationError(BBMLabError, ArithmeticError):
    """A quadrature did not converge or produced invalid values."""


class EvaluationError(BBMLabError, ArithmeticError):
    """An integrand produced NaN or otherwise failed at a quadrature node."""


class ValidityError(BBMLabError, ValueError):
    """A probe or integration region violates the configured validity margins."""


class ProbeError(BBMLabError, ValueError):
    """A probe point is not admissible for the requested operation."""


class ResolutionError(BBMLabError, ValueError):
    """A grid is too coarse to resolve the requested length scale."""

