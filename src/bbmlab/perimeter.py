"""Perimeter estimation from smoothed indicators.

Two routes to Per(E), both exact in the concentration limit:

* ``bbm_perimeter``: the gaussian double integral.  Up to the closed
  identity rho_n(r)/r = C_d n^((d+1)/2) exp(-n r^2), it equals the p=1
  nonlocal energy of the set indicator with the gaussian mollifier
  divided by gamma(d, 1), and is implemented exactly that way so the
  whole quadrature path is shared with (and tested through) the energy
  operator.  For intervals and balls that energy is the covariogram
  integral, one radial sum; boxes in 2D and 3D take the tensor route.
* ``degiorgi_perimeter``: the gradient integral of the heat-smoothed
  indicator W_n(x) = n^(d/2) int_E exp(-n |x-y|^2) dy, divided by the
  constant B_d = pi^(d/2).

W_n is a closed form on the grid: erf products for intervals, boxes and
half-spaces, and for a ball of radius R about c the noncentral
chi-square distribution function pi^(d/2) chndtr(2n R^2, d, 2n |x-c|^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, erf

from .constants import degiorgi_const, gamma
from .errors import DomainError, ValidityError
from .fields import Ball, Box, GridField, HalfSpace, IndicatorSet
from .functionals import QuadratureScheme, energy
from .mollifiers import gaussian

DEFAULT_GRID_RESOLUTION = {1: 4096, 2: 512, 3: 64}


@dataclass(frozen=True)
class PerimeterEstimate:
    """One perimeter measurement against the exact value."""

    set: IndicatorSet
    method: str          # "bbm" | "degiorgi"
    n: float
    value: float
    exact: float

    @property
    def rel_error(self) -> float:
        return abs(self.value - self.exact) / self.exact

    def to_json(self) -> dict:
        return {"method": self.method, "n": self.n, "value": self.value,
                "exact": self.exact, "rel_error": self.rel_error}


def bbm_perimeter(E: IndicatorSet, n: float,
                  scheme: QuadratureScheme | None = None) -> float:
    """Gaussian double-integral perimeter, scaled by 1/A_d.

    Raises
    ------
    DomainError
        If E is unbounded.
    """
    if not E.is_bounded:
        raise DomainError("the gaussian double integral needs a bounded set")
    if E.exact_volume() == 0.0:
        return 0.0
    d = E.dimension
    value = energy(E, gaussian(n, d), 1.0, scheme)
    return value / gamma(d, 1)


def _grid_axes(E: IndicatorSet, n: float, half_width, resolution):
    d = E.dimension
    margin = 4.0 / math.sqrt(n)
    box = E.support_box()
    if half_width is None:
        if box is None:
            raise DomainError(
                "an explicit half_width is required for unbounded sets")
        half_width = float(max(np.max(np.abs(box[0])), np.max(np.abs(box[1])))) \
            + 1.05 * margin
    if resolution is None:
        resolution = DEFAULT_GRID_RESOLUTION[d]
    if box is not None:
        lo, hi = box
        if np.any(lo - (-half_width) < margin) or np.any(half_width - hi < margin):
            raise ValidityError(
                f"grid box [-{half_width}, {half_width}]^{d} leaves less than "
                f"the required margin 4/sqrt(n) = {margin:.3g} around the set")
    return float(half_width), int(resolution)


def degiorgi_field(E: IndicatorSet, n: float, *, half_width: float | None = None,
                   resolution: int | None = None) -> GridField:
    """The smoothed indicator W_n sampled on a grid.

    Separable erf products are used for axis-aligned shapes; balls in 2D
    and 3D use the noncentral chi-square distribution function.
    Requires a margin of at least 4/sqrt(n) between the set and the grid
    box.
    """
    L, m = _grid_axes(E, n, half_width, resolution)
    d = E.dimension
    h = 2.0 * L / m
    axis = -L + h * np.arange(m)
    shape = E.shape
    if isinstance(shape, Box):
        if shape.is_degenerate():
            vals = np.zeros((m,) * d)
        else:
            factors = [_axis_factor(axis, shape.lo[ax], shape.hi[ax], n)
                       for ax in range(d)]
            vals = factors[0]
            for f in factors[1:]:
                vals = np.multiply.outer(vals, f)
    elif isinstance(shape, HalfSpace):
        nrm = shape.unit_normal()
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        t = sum(nrm[ax] * mesh[ax] for ax in range(d)) - shape.offset
        vals = math.pi ** ((d - 1) / 2.0) * 0.5 * math.sqrt(math.pi) \
            * (1.0 - erf(math.sqrt(n) * t))
    elif isinstance(shape, Ball):
        if d == 1:
            c, R = shape.center[0], shape.radius
            vals = _axis_factor(axis, c - R, c + R, n)
        else:
            # W_n = pi^(d/2) P(|Y - c| <= R) for Y ~ N(x, I/(2n)), and
            # 2n |Y - c|^2 is noncentral chi-square with d degrees of
            # freedom and noncentrality 2n |x - c|^2
            mesh = np.meshgrid(*[axis - c for c in shape.center], indexing="ij")
            rho2 = sum(g * g for g in mesh)
            vals = math.pi ** (d / 2.0) * chndtr(2.0 * n * shape.radius**2, d,
                                                 2.0 * n * rho2)
    else:  # pragma: no cover - exhaustive over shipped shapes
        raise DomainError(f"unsupported shape {type(shape).__name__}")
    return GridField(d, L, vals)


def _axis_factor(x: np.ndarray, a: float, b: float, n: float) -> np.ndarray:
    """sqrt(n) int_a^b exp(-n (x-y)^2) dy."""
    rn = math.sqrt(n)
    return 0.5 * math.sqrt(math.pi) * (erf(rn * (b - x)) - erf(rn * (a - x)))


def degiorgi_perimeter(E: IndicatorSet, n: float, *,
                       half_width: float | None = None,
                       resolution: int | None = None) -> float:
    """Grid integral of |grad W_n| scaled by 1/B_d."""
    w = degiorgi_field(E, n, half_width=half_width, resolution=resolution)
    grads = np.gradient(w.values, w.spacing, edge_order=1)
    if w.dimension == 1:
        grads = [grads]
    mag = np.sqrt(sum(g**2 for g in grads))
    return float(np.sum(mag) * w.spacing**w.dimension) / degiorgi_const(E.dimension)


def estimate(E: IndicatorSet, n: float, method: str, *,
             scheme: QuadratureScheme | None = None,
             resolution: int | None = None) -> PerimeterEstimate:
    """Run one estimator and package it with the exact perimeter."""
    if method == "bbm":
        value = bbm_perimeter(E, n, scheme)
    elif method == "degiorgi":
        value = degiorgi_perimeter(E, n, resolution=resolution)
    else:
        raise DomainError(f"unknown method {method!r}; use 'bbm' or 'degiorgi'")
    return PerimeterEstimate(E, method, float(n), value, E.exact_perimeter())
