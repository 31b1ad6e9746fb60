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
    """An integrand produced NaN or otherwise failed at a quadrature node.

    Raised at a node of a polar or lag sum, it carries that node: the
    integrand ``value`` there, the probe or x-node ``centre``, the radius
    ``r`` and the direction ``sigma`` (the lag's sign in 1D).  They are
    None where the failure has no node.
    """

    def __init__(self, message, *, value=None, centre=None, r=None, sigma=None):
        super().__init__(message)
        self.value, self.centre, self.r, self.sigma = value, centre, r, sigma


class ValidityError(BBMLabError, ValueError):
    """A probe or integration region violates the configured validity margins."""


class ProbeError(BBMLabError, ValueError):
    """A probe point is not admissible for the requested operation."""


class ResolutionError(BBMLabError, ValueError):
    """A grid is too coarse to resolve the requested length scale."""

