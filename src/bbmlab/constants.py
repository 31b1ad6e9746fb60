"""Dimensional constants of the nonlocal functionals, in closed form.

* ``gamma(d, p)``: the sphere integral int_{S^(d-1)} |sigma . e|^p dsigma,
  the anisotropy-averaging constant appearing in every local limit,
  2 pi^((d-1)/2) Gamma((p+1)/2) / Gamma((d+p)/2).
* ``gaussian_norm_const(d)``: the C_d = 2 / Gamma((d+1)/2) making the
  gaussian mollifier integrate to one; independent of the concentration
  parameter.
* ``bbm_perimeter_const(d)`` (A_d) and ``degiorgi_const(d)`` (B_d): the
  constants of the two perimeter formulas.  A_d follows from the
  algebraic identity A_d = gamma(d,1) / (2 C_d); B_d = pi^(d/2) is the
  total variation per unit boundary area of the smoothed half-space
  indicator, whose normal profile falls by pi^(d/2) across the boundary.

Every value is a pure function of its arguments, so it is the same
bit for bit in every run and needs no cache.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature
from .errors import DimensionError, DomainError


def _check_d(d: int) -> int:
    if d not in (1, 2, 3):
        raise DimensionError(f"supported dimensions are 1, 2, 3; got {d}")
    return d


def gamma(d: int, p: float, *, order: int | None = None, e=None) -> float:
    """Sphere integral of |sigma . e|^p over S^(d-1).

    Without ``e`` this is the closed form
    2 pi^((d-1)/2) Gamma((p+1)/2) / Gamma((d+p)/2), with the exact values
    gamma(1, p) = 2 and gamma(d, 1) = 2, 4, 2*pi for d = 1, 2, 3.  With
    ``e`` it is the sphere quadrature whose panels are split on the zero
    set of sigma . e, a cross-check of the sphere rules: integer powers
    come out to machine precision.

    Parameters
    ----------
    d : int
        Dimension, 1 to 3.
    p : float
        Exponent, >= 1.
    order : int, optional
        Sphere-rule order of the quadrature taken with ``e``.
    e : array_like, optional
        Reference direction; the value is independent of it (rotation
        invariance), which the aligned rule makes checkable numerically.
    """
    _check_d(d)
    if p < 1:
        raise DomainError(f"exponent p must be >= 1, got {p}")
    if d == 1:
        return 2.0
    if e is None:
        if p == 1.0:
            return 4.0 if d == 2 else 2.0 * math.pi
        return (2.0 * math.pi ** ((d - 1) / 2.0) * math.gamma((p + 1) / 2.0)
                / math.gamma((d + p) / 2.0))
    e = np.asarray(e, dtype=float)
    if e.shape != (d,):
        raise DimensionError(f"direction must have shape ({d},)")
    rule = quadrature.sphere_rule_aligned(d, order or quadrature.DEFAULT_SPHERE_ORDER[d], e)
    projections = rule.nodes @ (e / np.linalg.norm(e))
    return float(np.dot(rule.weights, np.abs(projections) ** p))


def gaussian_norm_const(d: int) -> float:
    """C_d = 2 / Gamma((d+1)/2), so C_d int_0^inf r^d exp(-r^2) dr = 1."""
    _check_d(d)
    return 2.0 / math.gamma((d + 1) / 2.0)


def bbm_perimeter_const(d: int) -> float:
    """A_d = gamma(d, 1) / (2 C_d).

    The identity comes from evaluating the p=1 energy of a set indicator
    with the gaussian mollifier: the energy is 2 C_d n^((d+1)/2) times the
    gaussian double integral, and its limit is gamma(d,1) Per(E).
    """
    _check_d(d)
    return gamma(d, 1) / (2.0 * gaussian_norm_const(d))


def degiorgi_const(d: int) -> float:
    """B_d = pi^(d/2).

    The smoothed indicator of a half-space varies only along the normal;
    its gradient integral per unit boundary area is the total variation
    of the 1D transition profile

        W(t) = pi^((d-1)/2) * (sqrt(pi)/2) * erfc(sqrt(n) t),

    which falls monotonically from pi^(d/2) to 0.
    """
    _check_d(d)
    return math.pi ** (d / 2.0)


class ConstantTable:
    """Constants for one dimension with provenance tags."""

    def __init__(self, d: int):
        _check_d(d)
        self.dimension = d
        self.entries = {
            "gamma_1": (gamma(d, 1), "closed-form"),
            "gaussian_norm": (gaussian_norm_const(d), "closed-form"),
            "bbm_perimeter": (bbm_perimeter_const(d), "closed-form"),
            "degiorgi": (degiorgi_const(d), "closed-form"),
        }

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "entries": {k: {"value": v, "provenance": tag}
                        for k, (v, tag) in self.entries.items()},
        }
