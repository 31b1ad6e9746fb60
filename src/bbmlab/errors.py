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

    ``stage`` names the sum that failed: ``"polar"`` (the polar engine),
    ``"lag"`` (the 1D lag route) or ``"multiplier"`` (the field samples
    of the p = 2 multiplier route).  Raised at a node of a polar or lag
    sum, it carries that node: the integrand ``value`` there, the probe
    or x-node ``centre``, the radius ``r`` and the direction ``sigma``
    (the lag's sign in 1D).  A bad multiplier sample carries its
    ``value`` and its point as ``centre``.  The rest are None.
    """

    def __init__(self, message, *, stage=None, value=None, centre=None, r=None,
                 sigma=None):
        super().__init__(message)
        self.stage = stage
        self.value, self.centre, self.r, self.sigma = value, centre, r, sigma


class ValidityError(BBMLabError, ValueError):
    """A probe or integration region violates the configured validity margins."""


class ProbeError(BBMLabError, ValueError):
    """A probe point is not admissible for the requested operation."""
