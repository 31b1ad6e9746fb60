"""Perimeter estimation from smoothed indicators.

Two routes to Per(E), both exact in the concentration limit:

* ``bbm_perimeter``: the gaussian double integral.  Up to the closed
  identity rho_n(r)/r = C_d n^((d+1)/2) exp(-n r^2), it equals the p=1
  nonlocal energy of the set indicator with the gaussian mollifier
  divided by gamma(d, 1), and is implemented exactly that way so the
  whole quadrature path is shared with (and tested through) the energy
  operator.  For intervals and balls that energy is the covariogram
  integral, one radial sum; for boxes in 2D and 3D, whose covariogram
  prod_i (L_i - |h_i|)_+ is separable against the gaussian, it is a
  closed form in erf and exp.  No set reads an x-grid.
* ``degiorgi_perimeter``: the gradient integral of the heat-smoothed
  indicator W_n(x) = n^(d/2) int_E exp(-n |x-y|^2) dy, divided by the
  constant B_d = pi^(d/2), with no finite differences.  For an interval
  it is the closed form 2 erf(sqrt(n) L / 2); for a 2D/3D ball, whose
  W_n is radial and decreasing, one radial sum of W_n; boxes and
  half-spaces integrate their closed-form |grad W_n| on a midpoint grid.

W_n is a closed form: erf products for intervals, boxes and
half-spaces, and for a ball of radius R about c the noncentral
chi-square distribution function pi^(d/2) chndtr(2n R^2, d, 2n |x-c|^2).
``degiorgi_route`` names the route a set takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.special import chndtr, erf

from .constants import degiorgi_const, gamma
from .errors import DomainError, ValidityError
from .fields import Ball, Box, HalfSpace, IndicatorSet
from .functionals import QuadratureScheme, energy
from .mollifiers import gaussian
from .quadrature import composite_gauss

DEFAULT_GRID_RESOLUTION = {1: 4096, 2: 512, 3: 64}
# the De Giorgi ball sum: unit panels (in 1/sqrt(n)) over R +- this many
# of them, with this many Gauss nodes each
_BALL_BAND = 12
_BALL_NODES = 12


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
        """The error relative to the exact value, absolute when that is 0
        (a box of zero volume)."""
        error = abs(self.value - self.exact)
        return error / self.exact if self.exact else error

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


def _signed_distance(shape: HalfSpace, axis: np.ndarray) -> np.ndarray:
    """The signed distance n . x - offset to the boundary of a half-space
    on the tensor grid whose every axis is ``axis``."""
    nrm = shape.unit_normal()
    mesh = np.meshgrid(*([axis] * nrm.size), indexing="ij")
    return sum(nrm[ax] * mesh[ax] for ax in range(nrm.size)) - shape.offset


def _axis_factor(x: np.ndarray, a: float, b: float, n: float) -> np.ndarray:
    """sqrt(n) int_a^b exp(-n (x-y)^2) dy."""
    rn = math.sqrt(n)
    return 0.5 * math.sqrt(math.pi) * (erf(rn * (b - x)) - erf(rn * (a - x)))


def degiorgi_perimeter(E: IndicatorSet, n: float, *,
                       half_width: float | None = None,
                       resolution: int | None = None) -> float:
    """Integral of |grad W_n| scaled by 1/B_d, from the closed-form W_n
    and its gradient, with no finite differences.

    On the route ``degiorgi_route`` names: an interval, whose W_n is
    unimodal, is the closed form 2 W_n(midpoint) / B_1; a 2D/3D ball is
    one radial sum (``_ball_degiorgi``); boxes and half-spaces are a
    midpoint grid of |grad W_n| over [-half_width, half_width]^d with
    ``resolution`` cells a side (``_grid_axes``).  Only the grid reads
    either keyword.
    """
    route = degiorgi_route(E)
    if route == "interval":
        lo, hi = E.support_box()
        return 2.0 * math.erf(math.sqrt(n) * float(hi[0] - lo[0]) / 2.0)
    if route == "ball":
        return _ball_degiorgi(E.dimension, E.shape.radius, n)
    return _grid_degiorgi(E, n, half_width, resolution)


def degiorgi_route(E: IndicatorSet) -> str:
    """The route ``degiorgi_perimeter`` takes: "interval" for a bounded
    1D set, "ball" for a 2D/3D ball, "grid" for everything else."""
    if E.dimension == 1 and E.is_bounded:
        return "interval"
    if isinstance(E.shape, Ball):
        return "ball"
    return "grid"


def _ball_degiorgi(d: int, R: float, n: float) -> float:
    """int |grad W_n| / B_d for a ball of radius R in 2D or 3D.

    W_n = B_d chndtr(2n R^2, d, 2n rho^2) is radial and decreasing in
    rho, so integrating by parts, int |grad W_n| =
    |S^(d-1)| (d-1) int_0^inf rho^(d-2) W_n(rho) drho.  The integrand
    falls from B_d rho^(d-2) to 0 within a few 1/sqrt(n) of R, so the
    Gauss sum takes unit panels of width 1/sqrt(n) over
    R +- _BALL_BAND/sqrt(n) and one panel below it, where W_n = B_d to
    the last bit; past the band W_n is below exp(-_BALL_BAND^2).
    """
    s = 1.0 / math.sqrt(n)
    band = R + s * np.arange(-_BALL_BAND, _BALL_BAND + 1.0)
    edges = np.concatenate([[0.0], band[band > 0.0]])
    rho, w = composite_gauss(edges, _BALL_NODES)
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    W = _ball_profile(d, R, n, rho)
    return sphere * (d - 1) * float(np.dot(w, rho ** (d - 2) * W))


def _ball_profile(d: int, R: float, n: float, rho):
    """W_n / B_d at distance rho from the centre of a ball of radius R:
    P(|Y - c| <= R) for Y ~ N(x, I/(2n)), where 2n |Y - c|^2 is
    noncentral chi-square with d degrees of freedom and noncentrality
    2n rho^2."""
    return chndtr(2.0 * n * R * R, d, 2.0 * n * rho * rho)


def _grid_degiorgi(E: IndicatorSet, n: float, half_width, resolution) -> float:
    """The midpoint sum of |grad W_n| / B_d over the grid box.

    A box's W_n is the product of the axis factors
    f_i = sqrt(n) int_(a_i)^(b_i) exp(-n (x_i - y)^2) dy, so
    dW/dx_i = f_i' prod_(j != i) f_j with
    f_i' = sqrt(n) (exp(-n (a_i - x_i)^2) - exp(-n (b_i - x_i)^2)); a
    half-space's is |grad W_n| = B_d sqrt(n / pi) exp(-n t^2) at signed
    distance t from its boundary.
    """
    L, m = _grid_axes(E, n, half_width, resolution)
    d = E.dimension
    h = 2.0 * L / m
    axis = -L + h * (np.arange(m) + 0.5)
    shape = E.shape
    if isinstance(shape, Box):
        if shape.is_degenerate():
            return 0.0
        rn = math.sqrt(n)
        f = [_axis_factor(axis, shape.lo[i], shape.hi[i], n) for i in range(d)]
        df = [rn * (np.exp(-n * (shape.lo[i] - axis) ** 2)
                    - np.exp(-n * (shape.hi[i] - axis) ** 2)) for i in range(d)]
        sq = 0.0
        for i in range(d):
            part = reduce(np.multiply.outer,
                          [df[j] if j == i else f[j] for j in range(d)])
            sq = sq + part * part
        total = float(np.sum(np.sqrt(sq))) / degiorgi_const(d)
    elif isinstance(shape, HalfSpace):
        t = _signed_distance(shape, axis)
        total = float(np.sum(np.exp(-n * t * t))) * math.sqrt(n / math.pi)
    else:  # pragma: no cover - exhaustive over shipped shapes
        raise DomainError(f"unsupported shape {type(shape).__name__}")
    return total * h ** d


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
