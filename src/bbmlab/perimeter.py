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
  W_n is radial and decreasing, one radial sum of W_n; for a 2D/3D box
  one product Gauss sum of its closed-form |grad W_n| over an orthant.
  No set reads a grid.

W_n is a closed form: erf products for intervals and boxes, and for a
ball of radius R about c the noncentral chi-square distribution
function pi^(d/2) chndtr(2n R^2, d, 2n |x-c|^2).  Both routes refuse
unbounded sets.  ``degiorgi_route`` names the route a set takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import degiorgi_const, gamma
from .errors import DomainError
from .fields import Ball, Box, IndicatorSet
from .functionals import QuadratureScheme, energy
from .mollifiers import gaussian
from .quadrature import composite_gauss

# the De Giorgi ball sum: unit panels (in 1/sqrt(n)) over R +- this many
# of them, with this many Gauss nodes each
_BALL_BAND = 12
_BALL_NODES = 12
# the De Giorgi box sum: the same panels over each face +- this many of
# them, with this many Gauss nodes each, graded this many times toward a
# centre inside the band; at most this many points at once
_BOX_BAND = 7
_BOX_NODES = 10
_BOX_LEVELS = 12
_BOX_CHUNK = 2**21


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
    d = E.dimension
    value = energy(E, gaussian(n, d), 1.0, scheme)
    return value / gamma(d, 1)


def degiorgi_perimeter(E: IndicatorSet, n: float, *,
                       resolution: int | None = None) -> float:
    """Integral of |grad W_n| scaled by 1/B_d, from the closed-form W_n
    and its gradient, with no finite differences.

    On the route ``degiorgi_route`` names: an interval, whose W_n is
    unimodal, is the closed form 2 W_n(midpoint) / B_1; a 2D/3D ball is
    one radial sum (``_ball_degiorgi``); a 2D/3D box one product Gauss
    sum (``_box_degiorgi``).  A set of zero volume has perimeter 0.
    ``resolution`` is accepted and unread: no route reads a grid.

    Raises
    ------
    DomainError
        If E is unbounded.
    """
    route = degiorgi_route(E)
    if E.exact_volume() == 0.0:
        return 0.0
    if route == "interval":
        lo, hi = E.support_box()
        return 2.0 * math.erf(math.sqrt(n) * float(hi[0] - lo[0]) / 2.0)
    if route == "ball":
        return _ball_degiorgi(E.dimension, E.shape.radius, n)
    return _box_degiorgi(E.shape, n)


def degiorgi_route(E: IndicatorSet) -> str:
    """The route ``degiorgi_perimeter`` takes: "interval" for a 1D set,
    "ball" for a 2D/3D ball, "box" for a 2D/3D box.

    Raises
    ------
    DomainError
        If E is unbounded.
    """
    if not E.is_bounded:
        raise DomainError("the De Giorgi perimeter needs a bounded set")
    if E.dimension == 1:
        return "interval"
    return "ball" if isinstance(E.shape, Ball) else "box"


def _band_edges(h: float, s: float, band: int, levels: int = 0) -> np.ndarray:
    """Panel edges on [0, h + band s]: panels of width s over
    h +- band s and one panel below them.  When the band reaches 0,
    ``levels`` dyadic edges s/2, s/4, ... grade the panels toward 0."""
    edges = h + s * np.arange(-band, band + 1.0)
    if levels and edges[0] <= 0.0:
        edges = np.union1d(s * 2.0 ** -np.arange(levels, 0, -1.0), edges)
    return np.concatenate([[0.0], edges[edges > 0.0]])


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
    rho, w = composite_gauss(_band_edges(R, 1.0 / math.sqrt(n), _BALL_BAND),
                             _BALL_NODES)
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    W = _ball_profile(d, R, n, rho)
    return sphere * (d - 1) * float(np.dot(w, rho ** (d - 2) * W))


def _ball_profile(d: int, R: float, n: float, rho):
    """W_n / B_d at distance rho from the centre of a ball of radius R:
    P(|Y - c| <= R) for Y ~ N(x, I/(2n)), where 2n |Y - c|^2 is
    noncentral chi-square with d degrees of freedom and noncentrality
    2n rho^2."""
    from scipy.special import chndtr   # imported on first use: slow to load
    return chndtr(2.0 * n * R * R, d, 2.0 * n * rho * rho)


def _box_degiorgi(box: Box, n: float) -> float:
    """int |grad W_n| / B_d for a box in 2D or 3D.

    W_n is the product of the axis factors f_i, even about the centre
    c_i of the box: at t = x_i - c_i with half side h_i,
    f_i = (sqrt(pi)/2) (erf(sqrt(n)(h_i - t)) + erf(sqrt(n)(h_i + t))), so
    dW/dx_i = f_i' prod_(j != i) f_j and |grad W_n| is even in each t.
    The integral is 2^d times a product Gauss sum over t >= 0, on each
    axis the panels ``_band_edges`` builds about the face t = h_i: past
    the band f_i, and below it f_i', is below exp(-_BOX_BAND^2) times
    its peak.  grad W_n
    vanishes only at the centre, where |grad W_n| is a cone; the dyadic
    panels resolve it when the band reaches the centre.  The sum runs
    over slabs of the first axis, _BOX_CHUNK points at a time.
    """
    from scipy.special import erf   # imported on first use: slow to load
    d, rn = box.dimension, math.sqrt(n)
    sq_f, sq_df, weights = [], [], []
    for h in (np.asarray(box.hi) - np.asarray(box.lo)) / 2.0:
        t, w = composite_gauss(_band_edges(h, 1.0 / rn, _BOX_BAND, _BOX_LEVELS),
                               _BOX_NODES)
        f = 0.5 * math.sqrt(math.pi) * (erf(rn * (h - t)) + erf(rn * (h + t)))
        df = rn * (np.exp(-n * (t - h) ** 2) - np.exp(-n * (t + h) ** 2))
        sq_f.append(f * f)
        sq_df.append(df * df)
        weights.append(w)
    # over the trailing axes: prod_j f_j^2 and sum_i f_i'^2 prod_(j != i) f_j^2
    prod, grad, w_rest = sq_f[-1], sq_df[-1], weights[-1]
    for i in range(d - 2, 0, -1):
        prod, grad = (np.multiply.outer(sq_f[i], prod),
                      np.multiply.outer(sq_df[i], prod)
                      + np.multiply.outer(sq_f[i], grad))
        w_rest = np.multiply.outer(weights[i], w_rest)
    prod, grad, w_rest = prod.ravel(), grad.ravel(), w_rest.ravel()
    rows = max(1, _BOX_CHUNK // prod.size)
    total = 0.0
    for a in range(0, weights[0].size, rows):
        sl = slice(a, a + rows)
        sq = sq_df[0][sl, None] * prod + sq_f[0][sl, None] * grad
        total += float(weights[0][sl] @ (np.sqrt(sq) @ w_rest))
    return 2.0 ** d * total / degiorgi_const(d)


def estimate(E: IndicatorSet, n: float, method: str, *,
             scheme: QuadratureScheme | None = None) -> PerimeterEstimate:
    """Run one estimator and package it with the exact perimeter."""
    if method == "bbm":
        value = bbm_perimeter(E, n, scheme)
    elif method == "degiorgi":
        value = degiorgi_perimeter(E, n)
    else:
        raise DomainError(f"unknown method {method!r}; use 'bbm' or 'degiorgi'")
    return PerimeterEstimate(E, method, float(n), value, E.exact_perimeter())
