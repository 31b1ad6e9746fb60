"""Hardy-Littlewood maximal machinery on grids and 1D measures.

The centered maximal function M f(x) = sup_s avg_{B(x,s)} |f| is
approximated by a sup over a log-spaced radius grid; the grid is
densified automatically until doubling it changes the result by less
than 1e-3 relative.  Ball averages on grids use the empirical mean over
grid nodes inside the ball, which makes M f >= |f| exact at nodes.

For measures, M_R(mu)(x) = sup_{0<s<=R} |mu|(B(x,s)) / |B(x,s)| with the
Lebesgue ball volume in the denominator; an atom sitting exactly at the
probe makes the sup genuinely infinite, which is returned as math.inf
rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import fftconvolve

from .errors import DimensionError, DomainError, ValidityError
from .fields import GridField, as_points
from .quadrature import composite_gauss, sphere_rule

DEFAULT_RADII = 256
_MAX_RADII = 4096
_DENSIFY_RTOL = 1e-3
# panels of the 4-node Gauss rule on [0, r] behind the kernel bounds
_SEGMENT_PANELS = 64
# uniform angles of the ring sums in singular_kernel_bound
_RING_ANGLES = 128
# trapezoid intervals on the segment of directional_maximal
_SEGMENT_SAMPLES = 4096


def _ball_volume(d: int, s):
    if d == 1:
        return 2.0 * s
    if d == 2:
        return math.pi * s**2
    return 4.0 / 3.0 * math.pi * s**3


def _radius_grid(s_min: float, s_max: float, count: int) -> np.ndarray:
    return np.geomspace(s_min, s_max, count)


def _densified_sup(evaluate, s_min: float, s_max: float,
                   radii: int = DEFAULT_RADII) -> float:
    """sup over a log radius grid, doubling the grid until stable."""
    prev = None
    count = radii
    while True:
        value = evaluate(_radius_grid(s_min, s_max, count))
        if prev is not None:
            scale = max(abs(value), abs(prev), 1e-300)
            if abs(value - prev) / scale < _DENSIFY_RTOL or count >= _MAX_RADII:
                return value
        prev = value
        count *= 2


# ---------------------------------------------------------------------------
# grid maximal function
# ---------------------------------------------------------------------------

def _node_distances(f: GridField, x: np.ndarray):
    axes = [f.axis_nodes()] * f.dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return np.linalg.norm(pts - x, axis=1)


def _ideal_counts(f: GridField, x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Lattice points of the *infinite* grid within each radius.

    Normalizing node averages by this count (rather than by the nodes
    that happen to exist inside the box) keeps the average honest when a
    ball overhangs the box: the zero extension contributes zeros to the
    numerator and full cells to the denominator."""
    d, h, L = f.dimension, f.spacing, f.half_width
    if d == 1:
        lo = np.ceil((x[0] - grid + L) / h - 1e-12)
        hi = np.floor((x[0] + grid + L) / h + 1e-12)
        return np.maximum(hi - lo + 1, 1.0)
    counts = np.empty(grid.size)
    for i, s in enumerate(grid):
        j_lo = math.ceil((x[1] - s + L) / h - 1e-12)
        j_hi = math.floor((x[1] + s + L) / h + 1e-12)
        js = np.arange(j_lo, j_hi + 1)
        dy = x[1] - (-L + h * js)
        half = np.sqrt(np.clip(s**2 - dy**2, 0.0, None))
        lo = np.ceil((x[0] - half + L) / h - 1e-12)
        hi = np.floor((x[0] + half + L) / h + 1e-12)
        counts[i] = float(np.sum(np.maximum(hi - lo + 1, 0.0)))
    return np.maximum(counts, 1.0)


def maximal_function(f: GridField, x, R: float = math.inf, *,
                     radii: int = DEFAULT_RADII) -> float:
    """Centered maximal function of |f| at one probe point.

    Ball averages are empirical means over grid nodes, normalized by the
    infinite-lattice node count so that zero extension beyond the box is
    averaged in as zeros.  At the smallest radius the ball holds one
    node, so M f >= |f| holds exactly at grid nodes.

    Parameters
    ----------
    f : GridField
    x : point inside the grid box
    R : float
        Radius cap; infinity means "up to the grid diameter".
    """
    x = as_points(x, f.dimension)[0]
    lo, hi = f.support_box()
    if np.any(x < lo) or np.any(x > hi):
        raise ValidityError(f"probe {x} is outside the grid box")
    if f.dimension > 2:
        raise DimensionError("maximal_function supports d = 1 and 2")
    dist = _node_distances(f, x)
    vals = np.abs(f.values).ravel()
    order = np.argsort(dist, kind="stable")
    dist_sorted = dist[order]
    prefix = np.concatenate([[0.0], np.cumsum(vals[order])])
    s_max = min(R, float(dist_sorted[-1]))
    s_min = f.spacing / 2.0
    if s_max <= s_min:
        s_max = s_min * (1 + 1e-9)

    def sup_on(grid):
        covered = np.searchsorted(dist_sorted, grid, side="right")
        avgs = prefix[covered] / _ideal_counts(f, x, grid)
        return float(np.max(avgs))

    return _densified_sup(sup_on, s_min, s_max, radii)


def maximal_field(f: GridField, R: float = math.inf, *,
                  radii: int = DEFAULT_RADII) -> GridField:
    """M f sampled at every grid node (fixed radius grid, no densify).

    The radius-grid sup underestimates the true sup, which only shrinks
    superlevel sets; the weak-type bound stays conservative.
    """
    d = f.dimension
    h = f.spacing
    absf = np.abs(f.values)
    s_max = min(R, 2.0 * f.half_width * math.sqrt(d))
    grid = _radius_grid(h / 2.0, s_max, radii)
    best = np.zeros_like(absf)
    if d == 1:
        n = f.resolution
        prefix = np.concatenate([[0.0], np.cumsum(absf)])
        idx = np.arange(n)
        for s in grid:
            w = int(math.floor(s / h))
            lo = np.maximum(idx - w, 0)
            hi = np.minimum(idx + w, n - 1)
            # the stencil size 2w+1 is the infinite-lattice count; cells
            # beyond the box contribute zeros
            avg = (prefix[hi + 1] - prefix[lo]) / (2 * w + 1)
            np.maximum(best, avg, out=best)
    elif d == 2:
        m = int(math.floor(s_max / h))
        offs = h * np.arange(-m, m + 1)
        oy, ox = np.meshgrid(offs, offs, indexing="ij")
        r2 = ox**2 + oy**2
        for s in grid:
            mask = (r2 <= s * s).astype(float)
            total = fftconvolve(absf, mask, mode="same")
            avg = total / mask.sum()
            np.maximum(best, avg, out=best)
    else:
        raise DimensionError("maximal_field supports d = 1 and 2")
    return GridField(d, f.half_width, best)


def weak11_check(f: GridField, eps_ladder, *, radii: int = 64,
                 R: float = math.inf) -> list[tuple[float, float, float]]:
    """Superlevel measure of M f against the Vitali bound (3^d / eps) ||f||_1.

    Returns (eps, measure, bound) per ladder entry; measure <= bound is
    the weak (1,1) inequality with the covering constant 3^d.
    """
    mf = maximal_field(f, R, radii=radii)
    d = f.dimension
    l1 = f.l1_norm()
    cell = f.spacing**d
    rows = []
    for eps in eps_ladder:
        if eps <= 0:
            raise DomainError("levels must be positive")
        measure = float(np.count_nonzero(mf.values > eps) * cell)
        bound = (3.0**d / eps) * l1
        rows.append((float(eps), measure, bound))
    return rows


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadonMeasure1D:
    """A positive measure on the line: grid density plus atoms."""

    density: Optional[GridField] = None
    atoms: tuple = ()

    def __post_init__(self):
        if self.density is not None and self.density.dimension != 1:
            raise DimensionError("the density must be one-dimensional")
        for _, mass in self.atoms:
            if mass < 0:
                raise DomainError("atom masses must be nonnegative")

    def ball_mass(self, x: float, s) -> np.ndarray:
        """|mu|((x-s, x+s)) for an array of radii.

        The density part integrates the piecewise-linear interpolant of
        |density| (cumulative trapezoid, interpolated), so constants give
        exactly mass = 2s and the maximal ratio has no small-radius
        discretization spike."""
        s = np.asarray(s, dtype=float)
        total = np.zeros_like(s)
        if self.density is not None:
            g = self.density
            nodes = g.axis_nodes()
            absv = np.abs(g.values)
            cum = np.concatenate([[0.0], np.cumsum((absv[1:] + absv[:-1]) / 2.0)]) \
                * g.spacing
            hi = np.interp(x + s, nodes, cum, left=0.0, right=cum[-1])
            lo = np.interp(x - s, nodes, cum, left=0.0, right=cum[-1])
            total += hi - lo
        for loc, mass in self.atoms:
            total += np.where(np.abs(loc - x) < s, mass, 0.0)
        return total


def measure_maximal(mu: RadonMeasure1D, x: float, R: float = math.inf, *,
                    radii: int = DEFAULT_RADII) -> float:
    """M_R(mu)(x) = sup_{0<s<=R} mu(B(x,s)) / (2s).

    An atom at the probe itself yields math.inf (the sup is genuinely
    infinite there), returned as a sentinel rather than raised.
    """
    for loc, mass in mu.atoms:
        if mass > 0 and abs(loc - x) < 1e-300 + 1e-12 * max(1.0, abs(x)):
            return math.inf
    scale = 1.0
    if mu.density is not None:
        scale = max(scale, 2.0 * mu.density.half_width)
        s_min = mu.density.spacing / 2.0
    else:
        s_min = 1e-9 * scale
    dists = [abs(loc - x) for loc, _ in mu.atoms]
    if dists:
        s_min = min(s_min, max(min(dists), 1e-12))
        scale = max(scale, 2.0 * max(dists))
    s_max = min(R, 4.0 * scale)

    def sup_on(grid):
        return float(np.max(mu.ball_mass(x, grid) / (2.0 * grid)))

    return _densified_sup(sup_on, s_min, s_max, radii)


# ---------------------------------------------------------------------------
# directional and kernel bounds
# ---------------------------------------------------------------------------

def directional_maximal(f, sigma, x, R: float) -> float:
    """sup_{0<r<=R} (1/r) int_0^r |grad f(x + s sigma) . sigma| ds.

    The segment must stay inside a grid field's box.
    """
    d = f.dimension
    x = as_points(x, d)[0]
    sigma = np.asarray(sigma, dtype=float)
    sigma = sigma / np.linalg.norm(sigma)
    if isinstance(f, GridField):
        lo, hi = f.support_box()
        end = x + R * sigma
        if np.any(end < lo) or np.any(end > hi) or np.any(x < lo) or np.any(x > hi):
            raise ValidityError("the segment exits the grid box")
    s = R / _SEGMENT_SAMPLES * np.arange(_SEGMENT_SAMPLES + 1)
    pts = x[None, :] + s[:, None] * sigma[None, :]
    g = np.abs(f.gradient_many(pts) @ sigma)
    # cumulative trapezoid, then sup of prefix averages over all s > 0
    cum = np.concatenate([[0.0], np.cumsum((g[1:] + g[:-1]) / 2.0)]) * (R / _SEGMENT_SAMPLES)
    with np.errstate(invalid="ignore"):
        avgs = cum[1:] / s[1:]
    return float(np.max(avgs))


def kernel_bound_check(f: GridField, x, r: float) -> tuple[float, float, float]:
    """Spherical line-mass of |f| against r * M f(x).

    lhs = int_{S^(d-1)} int_0^r |f(x + s sigma)| ds dsigma, rhs = r * M f
    capped at radius r; their ratio is the empirical constant of the
    kernel lemma, recorded per dimension by the test suite.
    """
    d = f.dimension
    x = as_points(x, d)[0]
    rule = sphere_rule(d)
    s, w = composite_gauss(np.linspace(0.0, r, _SEGMENT_PANELS + 1), 4)
    pts = x[None, None, :] + s[:, None, None] * rule.nodes[None, :, :]
    vals = np.abs(f.eval_many(pts.reshape(-1, d))).reshape(s.size, -1)
    lhs = float(np.dot(w, vals) @ rule.weights)
    rhs = r * maximal_function(f, x, R=r)
    ratio = lhs / rhs if rhs > 0 else math.inf
    return lhs, rhs, ratio


def singular_kernel_bound(mu, x, r: float) -> tuple[float, float]:
    """(1/r) int_{B(x,r)} |y-x|^(1-d) dmu(y) against M_r(mu)(x).

    Accepts a RadonMeasure1D or a nonnegative GridField density (d <= 2).
    In d=1 the kernel is identically 1, so lhs is just the ball mass
    over r.  Returns (lhs, rhs); an atom at the probe gives inf.
    """
    if isinstance(mu, RadonMeasure1D):
        x = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
        for loc, mass in mu.atoms:
            if mass > 0 and abs(loc - x) < 1e-12 * max(1.0, abs(x)):
                return math.inf, math.inf
        lhs = float(mu.ball_mass(x, np.array([r]))[0]) / r
        rhs = measure_maximal(mu, x, R=r)
        return lhs, rhs
    f = mu
    if not isinstance(f, GridField):
        raise DomainError("expected a RadonMeasure1D or GridField density")
    d = f.dimension
    x = as_points(x, d)[0]
    if d == 1:
        m1 = RadonMeasure1D(density=f)
        return singular_kernel_bound(m1, float(x[0]), r)
    if d != 2:
        raise DimensionError("grid densities are supported in d = 1, 2")
    s, w = composite_gauss(np.linspace(0.0, r, _SEGMENT_PANELS + 1), 4)
    theta = 2.0 * math.pi * (np.arange(_RING_ANGLES) + 0.5) / _RING_ANGLES
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = x[None, None, :] + s[:, None, None] * ring[None, :, :]
    vals = np.abs(f.eval_many(pts.reshape(-1, 2))).reshape(s.size, _RING_ANGLES)
    ringint = vals.sum(axis=1) * (2.0 * math.pi / _RING_ANGLES)
    lhs = float(np.dot(w, ringint)) / r
    # rhs: sup of mass(B(x,s)) / (pi s^2) over s, via ring-integral
    # cumulatives of the interpolant (smooth in s, exact for constants)
    dt = r / 1024.0
    t = dt * np.arange(1, 1025)
    pts = x[None, None, :] + t[:, None, None] * ring[None, :, :]
    fr = np.abs(f.eval_many(pts.reshape(-1, 2))).reshape(t.size, _RING_ANGLES)
    rings = fr.sum(axis=1) * (2.0 * math.pi / _RING_ANGLES) * t
    masses = np.concatenate([[0.0], np.cumsum((rings[1:] + rings[:-1]) / 2.0) * dt])
    masses += 0.5 * rings[0] * dt   # the [0, t_1] sliver (ring(0) = 0)
    rhs = float(np.max(masses / _ball_volume(d, t)))
    return lhs, rhs
