"""Finite-parameter oracles that share no code with bbmlab.

Every value here is the exact functional at the same epsilon, n or p that
the library was asked for, written as a one-dimensional integral and
evaluated with ``scipy.integrate.quad`` (or in closed form).  None of it
imports bbmlab, so a defect in the library's quadrature cannot cancel
against the oracle.

Conventions match the library: a radial mollifier rho on (0, inf) has
int_0^inf rho(r) r^(d-1) dr = 1, and

    E_p(u) = int int |u(x) - u(y)|^p |x - y|^(-p) rho(|x - y|) dy dx.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=400)


def sphere_area(d: int) -> float:
    """|S^(d-1)| = 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def gamma_const(d: int, p: float) -> float:
    """int_{S^(d-1)} |sigma . e|^p dsigma in closed form."""
    return (2.0 * math.pi ** ((d - 1) / 2.0) * math.gamma((p + 1) / 2.0)
            / math.gamma((d + p) / 2.0))


def gaussian_norm(d: int) -> float:
    """C_d with C_d int_0^inf r^d exp(-r^2) dr = 1."""
    return 2.0 / math.gamma((d + 1) / 2.0)


def degiorgi_norm(d: int) -> float:
    """B_d = pi^(d/2): total variation of the half-space transition profile."""
    return math.pi ** (d / 2.0)


class Kernel:
    """A radial mollifier profile, rebuilt from its definition."""

    def __init__(self, kind: str, d: int, param: float):
        self.kind, self.d, self.param = kind, d, float(param)

    def rho(self, r: float) -> float:
        d, a = self.d, self.param
        if self.kind == "indicator":
            return d * a ** (-d) if r < a else 0.0
        if self.kind == "gaussian":
            return gaussian_norm(d) * a ** ((d + 1) / 2.0) * r * math.exp(-a * r * r)
        if self.kind == "powerlaw":   # normalized form
            return (a + d - 1.0) * r ** (a - 1.0) if r < 1.0 else 0.0
        raise ValueError(self.kind)

    def reach(self) -> float:
        """A radius beyond which the remaining mass is below 1e-17."""
        if self.kind == "indicator":
            return self.param
        if self.kind == "powerlaw":
            return 1.0
        return math.sqrt(45.0 / self.param)

    def radial(self, g, breakpoints=(), g0=None) -> float:
        """int_0^inf g(r) rho(r) r^(d-1) dr, split at the support edge and
        at the given radii.

        g0, when given, is the limit of g at r = 0 and replaces g on
        (0, 1e-3 r_top), where evaluating g would cancel catastrophically;
        g must then be g0 + O(r^2)."""
        top = self.reach()
        cuts = sorted({0.0, top, *[b for b in breakpoints if 0.0 < b < top]})
        total = 0.0
        if g0 is not None:
            near = 1e-3 * top
            val, _ = integrate.quad(lambda r: self.rho(r) * r ** (self.d - 1),
                                    0.0, near, **QUAD)
            total += g0 * val
            cuts = [near] + [c for c in cuts if c > near]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            val, _ = integrate.quad(
                lambda r: g(r) * self.rho(r) * r ** (self.d - 1), lo, hi, **QUAD)
            total += val
        return total

    def moment(self, k: float) -> float:
        """int_0^inf r^k rho(r) r^(d-1) dr."""
        return self.radial(lambda r: r ** k)


# ---------------------------------------------------------------------------
# pointwise densities
# ---------------------------------------------------------------------------

def linear_density(d: int, p: float, V) -> float:
    """D_p of u(x) = V . x at any probe and any unit-mass mollifier."""
    return gamma_const(d, p) * float(np.linalg.norm(V)) ** p


def _sphere_gauss_mean(d: int, a: float, x_norm: float, r: float) -> float:
    """int_{S^(d-1)} exp(-a |x + r sigma|^2) dsigma for |x| = x_norm."""
    c = 2.0 * a * r * x_norm
    base = math.exp(-a * (x_norm - r) ** 2)
    if d == 1:
        return base * (1.0 + math.exp(-2.0 * c))
    if d == 2:
        return base * 2.0 * math.pi * float(special.ive(0, c))
    if c < 1e-8:
        return 4.0 * math.pi * math.exp(-a * (x_norm**2 + r**2))
    return base * 4.0 * math.pi * (-math.expm1(-2.0 * c)) / (2.0 * c)


def bump_p2_density(kernel: Kernel, x, amplitude: float = 1.0) -> float:
    """D_2 of amplitude * exp(-|y|^2) at x, by the closed-form spherical
    average of (u(x + r sigma) - u(x))^2 and one radial quad."""
    d = kernel.d
    xn = float(np.linalg.norm(x))
    u0 = math.exp(-xn * xn)

    def sphere_sq(r):
        return (_sphere_gauss_mean(d, 2.0, xn, r)
                - 2.0 * u0 * _sphere_gauss_mean(d, 1.0, xn, r)
                + u0 * u0 * sphere_area(d))

    # the spherical mean of (grad u . sigma)^2 r^2 is the r -> 0 limit
    limit = gamma_const(d, 2.0) * (2.0 * xn * u0) ** 2
    return amplitude**2 * kernel.radial(lambda r: sphere_sq(r) / (r * r), g0=limit)


def taylor_remainder_bound(kernel: Kernel, p: float, hessian_bound: float) -> float:
    """Upper bound of the first-order remainder density:
    |u(x+h) - u(x) - grad u(x) . h| <= M |h|^2 / 2 gives
    R_p <= (M/2)^p |S^(d-1)| int rho(r) r^(d-1) r^p dr."""
    return (0.5 * hessian_bound) ** p * sphere_area(kernel.d) * kernel.moment(p)


def density_1d(kernel: Kernel, u, x: float, p: float, jumps=(), grad=None) -> float:
    """D_p (or the remainder density when grad is given) of a 1D field u at
    x, by quad on each side; jumps are split points of u."""
    u0 = u(x)
    g = 0.0 if grad is None else grad

    def side(sgn):
        bps = [abs(c - x) for c in jumps if (c - x) * sgn > 0]

        def f(r):
            diff = u(x + sgn * r) - u0 - sgn * r * g
            return abs(diff) ** p / r**p
        return kernel.radial(f, bps)

    return side(1.0) + side(-1.0)


# ---------------------------------------------------------------------------
# energies: covariogram and autocorrelation identities
# ---------------------------------------------------------------------------

def interval_energy(kernel: Kernel, length: float, p: float) -> float:
    """E_p(1_[a,a+L]) = 2 int rho |h|^-p (L - (L - |h|)_+) dh."""
    return 2.0 * 2.0 * kernel.radial(lambda r: min(r, length) / r**p, (length,))


def disk_covariogram(R: float, t: float) -> float:
    """|B_R cap (B_R + h)| for |h| = t in the plane."""
    if t >= 2.0 * R:
        return 0.0
    return 2.0 * R * R * math.acos(t / (2.0 * R)) - 0.5 * t * math.sqrt(4.0 * R * R - t * t)


def disk_energy(kernel: Kernel, R: float, p: float) -> float:
    """E_p(1_B) for a disk of radius R (d = 2) by the covariogram."""
    area = math.pi * R * R
    return 2.0 * sphere_area(2) * kernel.radial(
        lambda r: r ** (-p) * (area - disk_covariogram(R, r)), (2.0 * R,))


def bump_p2_energy(kernel: Kernel, amplitude: float = 1.0) -> float:
    """E_2 of amplitude * exp(-|x|^2): the autocorrelation is
    amplitude^2 (pi/2)^(d/2) exp(-|h|^2/2)."""
    d = kernel.d
    auto0 = amplitude**2 * (math.pi / 2.0) ** (d / 2.0)
    return 2.0 * auto0 * sphere_area(d) * kernel.radial(
        lambda r: -math.expm1(-0.5 * r * r) / (r * r))


def disk_degiorgi(n: float, R: float) -> float:
    """int |grad W_n| / B_2 for W_n = n int_B exp(-n |x - y|^2) dy.

    W_n(x) = pi P(|Y| <= R) with Y ~ N(x, I/(2n)) is radial and
    decreasing, so int |grad W_n| = 2 pi int_0^inf W_n(rho) d rho."""
    s2 = 1.0 / (2.0 * n)

    def w(rho):
        return math.pi * float(stats.ncx2.cdf(R * R / s2, 2, rho * rho / s2))

    top = R + 12.0 / math.sqrt(n)
    val, _ = integrate.quad(w, 0.0, top, points=(R,), epsabs=0.0,
                            epsrel=1e-12, limit=400)
    return 2.0 * math.pi * val / degiorgi_norm(2)


def interval_degiorgi(n: float, length: float) -> float:
    """The De Giorgi perimeter of an interval: W_n is unimodal, so
    int |W_n'| = 2 W_n(midpoint) = 2 sqrt(pi) erf(sqrt(n) L / 2)."""
    return 2.0 * math.sqrt(math.pi) * math.erf(math.sqrt(n) * length / 2.0) / degiorgi_norm(1)
