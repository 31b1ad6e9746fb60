"""Radial mollifier families.

A radial mollifier is a nonnegative profile rho on (0, inf) with

    int_0^inf rho(r) r^(d-1) dr = 1,

whose mass concentrates at 0 along a family parameter.  Three built-in
families are provided:

* ``indicator(eps)``:  d * eps^(-d) on (0, eps),
* ``gaussian(n)``:     C_d * n^((d+1)/2) * r * exp(-n r^2),
* ``power_law(delta)``:  delta * t^(delta-1) on (0, 1), the slowly
  concentrating family driving the divergence pathology.

The raw power-law profile integrates to delta/(delta+d-1) against
r^(d-1) dr when d >= 2; ``normalized=True`` rescales it so the unit-mass
axiom holds in any dimension.  Divergence experiments use the raw form,
since divergence is insensitive to a constant rescaling.  The radial
rules integrate the power law's measure c r^(delta+d-2), singular at 0
in 1D, with a first panel that is Gauss in that weight
(``quadrature.radial_rules``).

``moment(k, c)`` is the tail moment int_c^inf rho(r) r^(d-1+k) dr
that the closed-form energies need (the whole moment at c = 0), and
``normalization()`` and ``tail_mass(c)``, its k = 0 cases, check the
unit-mass and the concentration axiom.  All are closed forms: powers,
or a log, for the indicator and the power law, and the upper incomplete
gamma Gamma((d+1+k)/2, n c^2) for the gaussian.  That is ``math`` at
integer and half-integer order, which covers the mass for d <= 3 and
the p = 1 energies in 1D; other orders import ``scipy.special`` on
first use.  The gaussian's truncation radius reads one root of its
mass Q((d+1)/2, n r^2) per dimension, found at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants, quadrature
from .errors import DimensionError, DomainError

# each family's parameter name and the upper end of the open interval
# (0, upper) it must lie in
_FAMILIES = {"indicator": ("eps", math.inf), "gaussian": ("n", math.inf),
             "powerlaw": ("delta", 1.0)}


def _gaussian_tail(d: int, y: float) -> float:
    """Q((d+1)/2, y), the gaussian kernel's mass beyond r = sqrt(y/n):
    e^-y, erfc(sqrt y) + 2 sqrt(y/pi) e^-y and (1 + y) e^-y."""
    if d == 1:
        return math.exp(-y)
    if d == 2:
        return math.erfc(math.sqrt(y)) + 2.0 * math.sqrt(y / math.pi) * math.exp(-y)
    return (1.0 + y) * math.exp(-y)


def _upper_gamma(a: float, y: float) -> float:
    """Gamma(a, y) = int_y^inf t^(a-1) e^-t dt for y > 0 and any real a.
    At half-integer a > 0 it climbs from Gamma(1/2, y) = sqrt(pi)
    erfc(sqrt y) or Gamma(1, y) = e^-y by Gamma(s+1, y) = s Gamma(s, y) +
    y^s e^-y, in ``math``.  A negative a runs the same recurrence down from
    a + 1 below y = 1, and takes Legendre's continued fraction
    y^a e^-y / (y + 1 - a - 1 (1 - a) / (y + 3 - a - 2 (2 - a) / ...)),
    summed by Lentz's method, from y = 1 on, where the recurrence would
    cancel.  Other a > 0, and a = 0 (exp1), import ``scipy.special`` on
    first use."""
    if a < 0.0 and y < 1.0:
        return (_upper_gamma(a + 1.0, y) - y ** a * math.exp(-y)) / a
    if a < 0.0:
        b = y + 1.0 - a
        c, d = math.inf, 1.0 / b
        h = d
        for i in range(1, 1000):
            an = -i * (i - a)
            b += 2.0
            d, c = 1.0 / (an * d + b), b + an / c
            h *= c * d
            if abs(c * d - 1.0) <= 2.0 ** -52:
                break
        return math.exp(a * math.log(y) - y) * h
    if a == 0.0 or (2.0 * a) % 1.0:
        from scipy import special
        return float(special.exp1(y) if a == 0.0 else special.gammaincc(a, y) * math.gamma(a))
    s = a % 1.0 or 1.0
    g = math.sqrt(math.pi) * math.erfc(math.sqrt(y)) if s == 0.5 else math.exp(-y)
    while s < a:
        g = s * g + y ** s * math.exp(-y)
        s += 1.0
    return g


def _gaussian_tail_root(d: int, tol: float) -> float:
    """The y with Q((d+1)/2, y) = tol.  Newton's method on log Q, whose
    derivative is -y^((d-1)/2) e^-y / (Gamma((d+1)/2) Q), from the d = 1
    root y = -log tol reaches it to rounding within four steps for d <= 3."""
    y = -math.log(tol)
    a = (d + 1) / 2.0
    for _ in range(6):
        q = _gaussian_tail(d, y)
        y += math.log(q / tol) * math.gamma(a) * q / (y ** (a - 1.0) * math.exp(-y))
    return y


# n r_max^2 of every gaussian kernel, by dimension
_GAUSSIAN_TAIL_ROOT = {d: _gaussian_tail_root(d, quadrature.GAUSSIAN_TAIL_TOL)
                       for d in (1, 2, 3)}


@dataclass(frozen=True, slots=True)
class RadialMollifier:
    """A radial kernel with dimension-aware normalization.

    Immutable; ``evaluate`` and all integrals are pure.

    Raises
    ------
    DomainError
        On an unknown kind, or a parameter outside eps > 0, n > 0 or
        0 < delta < 1 (a NaN or an infinity among them).
    DimensionError
        If the dimension is not 1, 2 or 3.
    """

    kind: str            # "indicator" | "gaussian" | "powerlaw"
    dimension: int
    param: float         # eps, n, or delta
    normalized: bool = True

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise DomainError(f"unknown mollifier kind {self.kind!r}")
        if self.dimension not in (1, 2, 3):
            raise DimensionError(
                f"mollifier dimension must be 1, 2 or 3, got {self.dimension}")
        name, upper = _FAMILIES[self.kind]
        if not 0.0 < self.param < upper:
            raise DomainError(
                f"{self.kind} parameter {name} must lie in (0, {upper:g}), "
                f"got {self.param!r}")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, r):
        """Profile value rho(r); zero beyond the support radius.

        Raises
        ------
        DomainError
            If any radius is <= 0.
        """
        arr = np.asarray(r, dtype=float)
        if np.any(arr <= 0.0):
            raise DomainError("mollifiers are defined for r > 0 only")
        if self.kind == "indicator":
            eps = self.param
            d = self.dimension
            return np.where(arr < eps, d * eps ** (-float(d)), 0.0)
        if self.kind == "gaussian":
            n = self.param
            c = constants.gaussian_norm_const(self.dimension)
            return c * n ** ((self.dimension + 1) / 2.0) * arr * np.exp(-n * arr**2)
        delta = self.param
        with np.errstate(divide="ignore"):
            vals = self._powerlaw_scale() * delta * arr ** (delta - 1.0)
        return np.where(arr < 1.0, vals, 0.0)

    def _powerlaw_scale(self) -> float:
        if not self.normalized:
            return 1.0
        delta, d = self.param, self.dimension
        return (delta + d - 1.0) / delta

    # -- geometry -----------------------------------------------------------

    @property
    def support_radius(self) -> float:
        if self.kind == "indicator":
            return self.param
        return math.inf if self.kind == "gaussian" else 1.0

    @property
    def unit_support(self) -> bool:
        """Whether rho vanishes beyond radius 1 (the compact-support axiom)."""
        return self.support_radius <= 1.0

    def quadrature_radius(self) -> float:
        """Truncation radius leaving at most GAUSSIAN_TAIL_TOL of the mass."""
        if self.kind == "gaussian":
            # the mass beyond r is the regularized upper incomplete gamma
            # Q((d+1)/2, n r^2), so n r_max^2 is one root per dimension
            return math.sqrt(_GAUSSIAN_TAIL_ROOT[self.dimension] / self.param)
        return self.support_radius

    # -- integrals ----------------------------------------------------------

    def normalization(self) -> float:
        """int_0^inf rho(r) r^(d-1) dr (the unit-mass axiom)."""
        return self.moment(0.0)

    def tail_mass(self, delta_cut: float) -> float:
        """int_{delta_cut}^inf rho(r) r^(d-1) dr (the concentration axiom)."""
        if delta_cut <= 0.0:
            raise DomainError("delta_cut must be positive")
        return self.moment(0.0, delta_cut)

    def moment(self, k: float, beyond: float = 0.0) -> float:
        """int_beyond^inf rho(r) r^(d-1+k) dr for beyond >= 0, or +inf
        where it diverges at 0.

        The indicator and the power law are A r^b on (0, R), so the moment
        is m (1 - (c/R)^q) / q with q = d + b + k and m = A R^q, or
        m log(R/c) at q = 0: m = d eps^k, and s delta for the power law
        (s = (delta+d-1)/delta when normalized, 1 when raw).  The gaussian's
        is (C_d/2) n^(-k/2) Gamma(a, n c^2), a = (d+1+k)/2 (``_upper_gamma``;
        Gamma(a) at c = 0).  At c = 0 they diverge for k <= -d,
        k <= -(d+1) and k <= -(delta+d-1).  ``moment(0, c)`` is the mass
        beyond c.
        """
        d, c = self.dimension, beyond
        if self.kind == "gaussian":
            a = (d + 1 + k) / 2.0
            if c == 0.0 and a <= 0:
                return math.inf
            g = math.gamma(a) if c == 0.0 else _upper_gamma(a, self.param * c * c)
            return constants.gaussian_norm_const(d) * self.param ** (-k / 2.0) * g / 2.0
        R = self.support_radius
        if c >= R:
            return 0.0
        if self.kind == "indicator":
            q, m = d + k, d * self.param ** k
        else:
            q, m = self.param + d - 1.0 + k, self._powerlaw_scale() * self.param
        if c == 0.0 and q <= 0:
            return math.inf
        return m * math.log(R / c) if q == 0 else m * (1.0 - (c / R) ** q) / q

    def is_nonincreasing(self) -> bool:
        """Whether the profile is nonincreasing in r: the indicator and the
        power law (delta < 1) are, the gaussian r exp(-n r^2) rises first."""
        return self.kind != "gaussian"

    @property
    def label(self) -> str:
        if self.kind == "powerlaw" and not self.normalized:
            return f"powerlaw(delta={self.param:g}, raw)"
        return f"{self.kind}({_FAMILIES[self.kind][0]}={self.param:g})"


def indicator(eps: float, d: int) -> RadialMollifier:
    """d * eps^(-d) on (0, eps): the classical concentration kernel."""
    return RadialMollifier("indicator", d, float(eps))


def gaussian(n: float, d: int) -> RadialMollifier:
    """C_d n^((d+1)/2) r exp(-n r^2); violates the unit-support axiom."""
    return RadialMollifier("gaussian", d, float(n))


def power_law(delta: float, d: int, *, normalized: bool = True) -> RadialMollifier:
    """delta * t^(delta-1) on (0, 1); raw form when normalized=False.

    Any delta in (0, 1) yields a valid mollifier; the divergence
    construction additionally requires delta < 1/2, enforced there.
    """
    return RadialMollifier("powerlaw", d, float(delta), normalized=normalized)


def indicator_ladder(d: int, exponents) -> list[RadialMollifier]:
    """Indicator family eps = 2^-k for k in exponents."""
    return [indicator(2.0 ** (-k), d) for k in exponents]


def gaussian_ladder(d: int, exponents) -> list[RadialMollifier]:
    """Gaussian family n = 2^k for k in exponents."""
    return [gaussian(2.0 ** k, d) for k in exponents]
