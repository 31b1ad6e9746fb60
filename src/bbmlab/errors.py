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
    ``"lag"`` (the 1D lag route), ``"sliced"`` (the lines of 2D/3D
    energies) or ``"multiplier"`` (the field samples of the p = 2
    multiplier route).  Raised at a node of a polar, lag or sliced sum
    (``at_node``), it carries that node: the integrand ``value`` there,
    the probe, x-node or line node ``centre``, the radius or lag ``r`` and
    the direction ``sigma`` (the lag's sign in 1D).  A bad multiplier
    sample carries its ``value`` and its point as ``centre``.  The rest
    are None.
    """

    def __init__(self, message, *, stage=None, value=None, centre=None, r=None,
                 sigma=None):
        super().__init__(message)
        self.stage = stage
        self.value, self.centre, self.r, self.sigma = value, centre, r, sigma

    @classmethod
    def at_node(cls, value, centre, r, sigma, stage) -> "EvaluationError":
        """The error of a non-finite integrand at the node centre + r sigma."""
        return cls(f"integrand is {value!r} at centre={centre!r}, r={r!r}, "
                   f"sigma={sigma!r}", stage=stage, value=value, centre=centre, r=r,
                   sigma=sigma)


class ValidityError(BBMLabError, ValueError):
    """A probe or integration region violates the configured validity margins."""


class ProbeError(BBMLabError, ValueError):
    """A probe point is not admissible for the requested operation."""
