"""Hardy-Littlewood maximal machinery on grids and 1D measures.

The centered maximal function M f(x) = sup_{0<s<=R} avg_{B(x,s)} |f| of
a grid field averages |f| over the lattice points in the closed ball,
counted on the infinite lattice, so zero extension beyond the box
averages in as zeros.  The average changes only when the ball takes in
a lattice point, so the sup is an exact max over finitely many balls;
the node nearest the probe makes M f >= |f| exact at nodes.
``maximal_field`` takes the same sup at every node at once, by one
sweep over the lattice offsets, and serves the weak (1,1) check.

For measures, M_R(mu)(x) = sup_{0<s<=R} |mu|(B(x,s)) / |B(x,s)| with the
Lebesgue ball volume in the denominator.  The ball mass is linear in s
between finitely many knots, so this sup is exact too.  An atom sitting
exactly at the probe makes the sup genuinely infinite, which is returned
as math.inf rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, DomainError, ValidityError
from .fields import GridField, as_points
from .quadrature import composite_gauss, sphere_rule

# panels of the 4-node Gauss rule on [0, r] behind the kernel bounds
_SEGMENT_PANELS = 64
# uniform angles of the ring sums in singular_kernel_bound
_RING_ANGLES = 128
# trapezoid intervals on the segment of directional_maximal
_SEGMENT_SAMPLES = 4096


# ---------------------------------------------------------------------------
# grid maximal function
# ---------------------------------------------------------------------------

def maximal_function(f: GridField, x, R: float = math.inf) -> float:
    """Centered maximal function of |f| at one probe point.

    A ball average is the sum of |f| over the lattice points within
    distance s of x, divided by their number on the infinite lattice.
    It changes only where the ball takes in a lattice point, and beyond
    the farthest node it takes in zeros alone, so the sup over
    0 < s <= R is the largest average at the lattice distances up to
    min(R, farthest node).  Tied points enter the ball together.  The
    probe x must lie inside the grid box.
    """
    x = as_points(x, f.dimension)[0]
    lo, hi = f.support_box()
    if np.any(x < lo) or np.any(x > hi):
        raise ValidityError(f"probe {x} is outside the grid box")
    if f.dimension > 2:
        raise DimensionError("maximal_function supports d = 1 and 2")
    L, h, n = f.half_width, f.spacing, f.resolution
    # the lattice cube around B(x, min(R, farthest node))
    reach = min(R, float(np.linalg.norm(np.maximum(x + L, L - h - x))))
    axes = [np.arange(math.floor((c - reach + L) / h) - 1,
                      math.ceil((c + reach + L) / h) + 2) for c in x]
    idx = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    dist = np.linalg.norm(-L + h * idx - x, axis=1)
    inside = np.all((idx >= 0) & (idx < n), axis=1)
    vals = np.zeros(dist.size)
    vals[inside] = np.abs(f.values[tuple(idx[inside].T)])
    keep = dist <= min(R, float(np.max(dist[inside])))
    if not keep.any():
        return 0.0
    dist, vals = dist[keep], vals[keep]
    order = np.argsort(dist, kind="stable")
    # distances equal up to the rounding of the lattice positions are
    # one tie: symmetric points must not enter the ball one at a time.
    # A tie is summed in lattice order, so rounding does not reorder it
    # and maximal_field's sweep adds its points in the same order.
    tie = np.append(0, np.cumsum(np.diff(dist[order]) > 1e-12 * L))
    vals = vals[order[np.lexsort((order, tie))]]
    last = np.flatnonzero(np.append(np.diff(tie) > 0, True))
    return float(np.max(np.cumsum(vals)[last] / (last + 1)))


def maximal_field(f: GridField) -> GridField:
    """M f at every grid node, exact: ``maximal_function`` at each node.

    The lattice offsets o of the cube [-(n-1), n-1]^d enter the ball in
    order of the integer |o|^2 (lattice order within a shell), each
    adding |f| shifted by o, read as a view of a zero-padded copy, to
    every node's running sum; after each shell of equal |o|^2 = q the
    node averages are the sums over N(q), the lattice points of the
    closed ball on the infinite lattice.  Once ||f||_1 / N(q) is at most
    the smallest node sup so far no average can rise any more, so the
    sweep stops there.
    """
    d, n = f.dimension, f.resolution
    if d > 2:
        raise DimensionError("maximal_field supports d = 1 and 2")
    absf = np.abs(f.values)
    # windows[n - 1 + o] is |f| shifted by the offset o, zero off the box
    windows = sliding_window_view(np.pad(absf, n - 1), absf.shape)
    # every lattice point up to the farthest node, in lattice order
    far = d * (n - 1) ** 2
    axis = np.arange(-math.isqrt(far), math.isqrt(far) + 1)
    offs = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d)
    sq = np.sum(offs * offs, axis=1)
    order = np.argsort(sq, kind="stable")[:np.count_nonzero(sq <= far)]
    offs, sq = offs[order], sq[order]
    inside = np.all(np.abs(offs) < n, axis=1)
    shifts = offs[inside] + n - 1
    # per shell: N(q), the offsets counted, and the shifts added so far
    counts = np.flatnonzero(np.append(np.diff(sq) > 0, True)) + 1
    added = np.cumsum(inside)[counts - 1]
    total = float(np.sum(absf))
    acc, best, done = np.zeros_like(absf), np.zeros_like(absf), 0
    for count, upto in zip(counts.tolist(), added.tolist()):
        for o in shifts[done:upto].tolist():
            acc += windows[tuple(o)]
        done = upto
        np.maximum(best, acc / count, out=best)
        if total / count <= best.min():
            break
    return GridField(d, f.half_width, best)


def weak11_check(f: GridField, eps_ladder) -> list[tuple[float, float, float]]:
    """Superlevel measure of M f against the Vitali bound (3^d / eps) ||f||_1.

    Returns (eps, measure, bound) per ladder entry; measure <= bound is
    the weak (1,1) inequality with the covering constant 3^d.  M f is
    the exact node sup of ``maximal_field``, and the measure counts the
    cells of the nodes where it exceeds eps.
    """
    mf = maximal_field(f)
    d = f.dimension
    l1 = f.l1_norm()
    cell = f.spacing**d
    rows = []
    for eps in eps_ladder:
        if not 0 < eps < math.inf:
            raise DomainError(f"levels must be positive and finite, got {eps!r}")
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
        """|mu|((x-s, x+s)) for an array of half-widths s.

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


def measure_maximal(mu: RadonMeasure1D, x: float, R: float = math.inf) -> float:
    """M_R(mu)(x) = sup_{0<s<=R} mu(B(x,s)) / (2s).

    ``ball_mass`` is linear in s between the knots |node - x| and
    |atom - x|, so the ratio is monotone between them and the sup is its
    largest value at R or just past a knot below R (the ball is open, so
    an atom on the knot counts there).  An atom at the probe itself
    yields math.inf (the sup is genuinely infinite there), returned as a
    sentinel rather than raised.
    """
    for loc, mass in mu.atoms:
        if mass > 0 and abs(loc - x) < 1e-300 + 1e-12 * max(1.0, abs(x)):
            return math.inf
    knots = np.array([abs(loc - x) for loc, _ in mu.atoms], dtype=float)
    if mu.density is not None:
        knots = np.concatenate([knots, np.abs(mu.density.axis_nodes() - x)])
    s = np.append(np.nextafter(knots[(knots > 0) & (knots < R)], math.inf), R)
    return float(np.max(mu.ball_mass(x, s) / (2.0 * s)))



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
    rhs = float(np.max(masses / (math.pi * t**2)))
    return lhs, rhs
