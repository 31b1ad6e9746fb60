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
since divergence is insensitive to a constant rescaling.

``normalization()`` and ``tail_mass(c)`` check the unit-mass and the
concentration axiom, and ``moment(k)`` is the k-th radial moment that
the energies of sets need.  For the built-in families all three are
closed forms; a custom profile is integrated with one fixed graded rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaincc, gammainccinv

from . import constants, quadrature
from .errors import DimensionError, DomainError, IntegrationError

CUSTOM_NORMALIZATION_ATOL = 1e-6


@dataclass(frozen=True)
class RadialMollifier:
    """A radial kernel with dimension-aware normalization.

    Immutable; ``evaluate`` and all integrals are pure, so instances are
    safe to share across workers.
    """

    kind: str            # "indicator" | "gaussian" | "powerlaw" | "custom"
    dimension: int
    param: float         # eps, n, or delta
    normalized: bool = True
    custom_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    custom_support: float = math.inf
    _custom_checked: list = field(default_factory=list, repr=False, compare=False)

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
        if self.kind == "powerlaw":
            delta = self.param
            scale = self._powerlaw_scale()
            with np.errstate(divide="ignore"):
                vals = scale * delta * arr ** (delta - 1.0)
            return np.where(arr < 1.0, vals, 0.0)
        self._ensure_custom_valid()
        vals = np.asarray(self.custom_evaluator(arr), dtype=float)
        return np.where(arr <= self.custom_support, vals, 0.0)

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
        if self.kind == "powerlaw":
            return 1.0
        if self.kind == "gaussian":
            return math.inf
        return self.custom_support

    @property
    def unit_support(self) -> bool:
        """Whether rho vanishes beyond radius 1 (the compact-support axiom)."""
        return self.support_radius <= 1.0

    def quadrature_radius(self, tail_tol: float = quadrature.GAUSSIAN_TAIL_TOL) -> float:
        """Truncation radius leaving at most tail_tol of the unit mass."""
        if self.kind == "gaussian":
            # the mass beyond r is the regularized upper incomplete gamma
            # Q((d+1)/2, n r^2), so r_max is its closed-form inverse
            x = gammainccinv((self.dimension + 1) / 2.0, tail_tol)
            return math.sqrt(x / self.param)
        r = self.support_radius
        if math.isinf(r):
            return self._custom_truncation(tail_tol)
        return r

    def _custom_truncation(self, tail_tol: float) -> float:
        self._ensure_custom_valid()
        r = 1.0
        for _ in range(60):
            shell = self._shell_mass(r, 2.0 * r)
            if shell < tail_tol:
                return 2.0 * r
            r *= 2.0
        raise IntegrationError("custom mollifier tail does not decay")

    def _shell_mass(self, a: float, b: float, k: float = 0.0) -> float:
        """int_a^b rho(r) r^(d-1+k) dr by the fixed graded rule."""
        nodes, w = quadrature.segment_rule(a, b, q=8, levels=8)
        vals = np.asarray(self.custom_evaluator(nodes), dtype=float)
        return float(np.dot(w, vals * nodes ** (self.dimension - 1 + k)))

    def transform_power(self) -> Optional[float]:
        """Substitution exponent alpha (r = r_max * s**alpha) removing the
        r -> 0 singularity, or None when the profile is bounded there.

        For the power law the transformed measure is exactly constant."""
        if self.kind == "powerlaw":
            return 1.0 / (self.param + self.dimension - 1.0)
        return None

    # -- integrals ----------------------------------------------------------

    def normalization(self) -> float:
        """int_0^inf rho(r) r^(d-1) dr (the unit-mass axiom)."""
        return self._mass_beyond(0.0)

    def tail_mass(self, delta_cut: float) -> float:
        """int_{delta_cut}^inf rho(r) r^(d-1) dr (the concentration axiom)."""
        if delta_cut <= 0.0:
            raise DomainError("delta_cut must be positive")
        return self._mass_beyond(delta_cut)

    def moment(self, k: float) -> float:
        """int_0^inf rho(r) r^(d-1+k) dr, or +inf where it diverges at 0.

        Closed forms for the built-in families: d eps^k/(d+k) for the
        indicator, C_d n^(-k/2) Gamma((d+1+k)/2)/2 for the gaussian and
        s delta/(delta+d-1+k) for the power law (s as in
        ``_mass_beyond``); they diverge for k <= -d, k <= -(d+1) and
        k <= -(delta+d-1).  ``moment(0)`` is the mass.  A custom profile
        is integrated with its fixed graded shell rule, which cannot see
        a divergence.
        """
        d = self.dimension
        if self.kind == "indicator":
            return math.inf if d + k <= 0 else d * self.param ** k / (d + k)
        if self.kind == "gaussian":
            a = (d + 1 + k) / 2.0
            if a <= 0:
                return math.inf
            return (constants.gaussian_norm_const(d) * self.param ** (-k / 2.0)
                    * math.gamma(a) / 2.0)
        if self.kind == "powerlaw":
            a = self.param + d - 1.0 + k
            return math.inf if a <= 0 else self._powerlaw_scale() * self.param / a
        return self._shell_mass(0.0, self.quadrature_radius(), k)

    def _mass_beyond(self, c: float) -> float:
        """int_c^inf rho(r) r^(d-1) dr for c >= 0.

        Closed forms for the built-in families: 1 - (c/eps)^d for the
        indicator, Q((d+1)/2, n c^2) for the gaussian and
        s delta/(delta+d-1) (1 - c^(delta+d-1)) for the power law, with
        s = (delta+d-1)/delta when normalized and 1 when raw.  A custom
        profile is integrated with its fixed graded shell rule.
        """
        d = self.dimension
        if self.kind == "gaussian":
            return float(gammaincc((d + 1) / 2.0, self.param * c * c))
        r_max = self.quadrature_radius()
        if c >= r_max:
            return 0.0
        if self.kind == "indicator":
            return 1.0 - (c / r_max) ** d
        if self.kind == "powerlaw":
            k = self.param + d - 1.0
            mass = 1.0 - c ** k
            return mass if self.normalized else self.param / k * mass
        return self._shell_mass(c, r_max)

    def is_nonincreasing(self) -> bool:
        """Probe monotonicity of the profile on a 64-point log-spaced grid."""
        r_hi = self.quadrature_radius()
        grid = np.geomspace(r_hi * 1e-8, r_hi * (1.0 - 1e-12), 64)
        vals = self.evaluate(grid)
        scale = float(np.max(np.abs(vals))) or 1.0
        return bool(np.all(np.diff(vals) <= 1e-12 * scale))

    # -- plumbing -----------------------------------------------------------

    def _ensure_custom_valid(self) -> None:
        if self.kind != "custom" or self._custom_checked:
            return
        self._custom_checked.append(True)
        probe = np.geomspace(max(self.custom_support, 1.0) * 1e-8,
                             min(self.custom_support, 1e8) * (1 - 1e-12), 64)
        vals = np.asarray(self.custom_evaluator(probe), dtype=float)
        if np.any(vals < 0):
            self._custom_checked.clear()
            raise DomainError("custom mollifier takes negative values")
        if math.isfinite(self.custom_support):
            mass = self._shell_mass(0.0, self.custom_support)
            if abs(mass - 1.0) > CUSTOM_NORMALIZATION_ATOL:
                self._custom_checked.clear()
                raise IntegrationError(
                    f"custom mollifier mass {mass!r} is not 1 within "
                    f"{CUSTOM_NORMALIZATION_ATOL}")

    @property
    def label(self) -> str:
        if self.kind == "powerlaw" and not self.normalized:
            return f"powerlaw(delta={self.param:g}, raw)"
        names = {"indicator": "eps", "gaussian": "n", "powerlaw": "delta"}
        return f"{self.kind}({names.get(self.kind, 'param')}={self.param:g})"

    def to_json(self) -> dict:
        if self.kind == "custom":
            raise DomainError("custom mollifiers are not serializable")
        return {"kind": self.kind, "dimension": self.dimension,
                "param": self.param, "normalized": self.normalized}

    @staticmethod
    def from_json(obj: dict) -> "RadialMollifier":
        kind = obj["kind"]
        d = int(obj["dimension"])
        param = float(obj["param"])
        normalized = bool(obj.get("normalized", True))
        builders = {"indicator": indicator, "gaussian": gaussian}
        if kind in builders:
            return builders[kind](param, d)
        if kind == "powerlaw":
            return power_law(param, d, normalized=normalized)
        raise DomainError(f"unknown mollifier kind {kind!r}")


def _check_dimension(d: int) -> int:
    if d not in (1, 2, 3):
        raise DimensionError(f"mollifier dimension must be 1, 2 or 3, got {d}")
    return d


def indicator(eps: float, d: int) -> RadialMollifier:
    """d * eps^(-d) on (0, eps): the classical concentration kernel."""
    if eps <= 0:
        raise DomainError("indicator width must be positive")
    return RadialMollifier("indicator", _check_dimension(d), float(eps))


def gaussian(n: float, d: int) -> RadialMollifier:
    """C_d n^((d+1)/2) r exp(-n r^2); violates the unit-support axiom."""
    if n <= 0:
        raise DomainError("gaussian parameter must be positive")
    return RadialMollifier("gaussian", _check_dimension(d), float(n))


def power_law(delta: float, d: int, *, normalized: bool = True) -> RadialMollifier:
    """delta * t^(delta-1) on (0, 1); raw form when normalized=False.

    Any delta in (0, 1) yields a valid mollifier; the divergence
    construction additionally requires delta < 1/2, enforced there.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("power-law exponent must lie in (0, 1)")
    return RadialMollifier("powerlaw", _check_dimension(d), float(delta),
                           normalized=normalized)


def custom(evaluator, support_radius: float, d: int) -> RadialMollifier:
    """User-supplied radial profile; normalization is validated on first use."""
    if support_radius <= 0:
        raise DomainError("support radius must be positive")
    return RadialMollifier("custom", _check_dimension(d), float("nan"),
                           custom_evaluator=evaluator,
                           custom_support=float(support_radius))


def indicator_ladder(d: int, exponents) -> list[RadialMollifier]:
    """Indicator family eps = 2^-k for k in exponents."""
    return [indicator(2.0 ** (-k), d) for k in exponents]


def gaussian_ladder(d: int, exponents) -> list[RadialMollifier]:
    """Gaussian family n = 2^k for k in exponents."""
    return [gaussian(2.0 ** k, d) for k in exponents]
