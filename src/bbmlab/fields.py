"""Scalar field representations over R^d.

Four carriers are provided:

* ``AnalyticField``: a vectorized evaluator with an optional exact
  gradient, hard-truncated beyond ``support_radius``.
* ``GridField``: values on a uniform tensor grid over [-L, L]^d with
  multilinear interpolation inside the box and zero extension outside.
* ``BVField1D``: a 1D function of bounded variation split into a smooth
  part and a finite list of jumps; the absolutely continuous derivative
  is the smooth part's, the singular part is the atomic jump measure.
* ``IndicatorSet``: indicator of a geometric set with exact membership,
  volume and perimeter, used as ground truth by the perimeter module.

All instances are immutable after construction and evaluation is pure.
The classes built per call (analytic, vector and BV fields) keep their
attributes in slots, not a per-instance dict: sweeps and benchmark loops
hold thousands of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from . import quadrature
from .errors import DimensionError, DomainError


def as_points(x, d: int) -> np.ndarray:
    """Coerce a point or batch of points to shape (m, d)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if d != 1:
            raise DimensionError(f"scalar point given for dimension {d}")
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        if arr.shape[0] != d:
            raise DimensionError(f"point has {arr.shape[0]} coordinates, field has {d}")
        return arr.reshape(1, d)
    if arr.ndim == 2 and arr.shape[1] == d:
        return arr
    raise DimensionError(f"cannot interpret shape {arr.shape} as points in R^{d}")


# ---------------------------------------------------------------------------
# analytic fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class AnalyticField:
    """A closed-form scalar field, optionally with a gradient oracle.

    The evaluator (and the gradient oracle) must be vectorized over an
    (m, d) float array of points.  That array may be a column-major view,
    the transpose of a coordinate-major buffer (the polar engine and the
    multiplier sampler hand over such views), and is read-only: the
    evaluator must not write into it.  Values (and gradients) are forced
    to zero beyond ``support_radius``,
    which keeps analytic test fields compatible with compact-support
    settings; choose the radius large enough that the truncated tail is
    negligible.  ``point_singularities`` declares the points where the
    field is unbounded (the evaluator may return a finite sentinel
    there); densities whose mollifier ball reaches one, and every
    integrated functional, refuse such a field.
    """

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    gradient_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_radius: float = math.inf
    label: str = "analytic"
    point_singularities: tuple = ()

    def eval_many(self, pts: np.ndarray, *, _unmasked: bool = False) -> np.ndarray:
        """The values at the (m, d) points, 0 beyond ``support_radius``.
        ``_unmasked`` is private to the polar engine, which passes it only
        for a block it has checked lies inside the support, and to the
        sliced route, which zeroes the points beyond it itself."""
        vals = np.asarray(self.evaluator(pts), dtype=float)
        if _unmasked or math.isinf(self.support_radius):
            return vals
        inside = np.einsum("ij,ij->i", pts, pts) <= self.support_radius**2
        return vals if inside.all() else np.where(inside, vals, 0.0)

    def gradient_many(self, pts: np.ndarray) -> np.ndarray:
        if self.gradient_fn is None:
            raise DomainError(f"field {self.label!r} carries no gradient oracle")
        grads = np.asarray(self.gradient_fn(pts), dtype=float)
        if grads.shape != pts.shape:
            raise DimensionError(
                f"gradient oracle of {self.label!r} returned shape "
                f"{grads.shape}, expected {pts.shape}")
        if math.isinf(self.support_radius):
            return grads
        inside = np.einsum("ij,ij->i", pts, pts) <= self.support_radius**2
        return grads if inside.all() else np.where(inside[:, None], grads, 0.0)

    def support_box(self):
        if math.isinf(self.support_radius):
            return None
        r = self.support_radius
        return (-r * np.ones(self.dimension), r * np.ones(self.dimension))

    def singular_points(self) -> np.ndarray:
        return np.empty(0)

    def declared_singularities(self) -> np.ndarray:
        """The declared point singularities as a (k, d) array; unlike
        ``singular_points`` (the jumps of a 1D field) in any dimension."""
        return np.asarray(self.point_singularities, dtype=float).reshape(
            -1, self.dimension)

    def difference_breakpoints(self, x: np.ndarray) -> np.ndarray:
        return np.empty((x.shape[0], 0))


def linear_field(V) -> AnalyticField:
    """u(x) = V . x with constant gradient V."""
    V = np.atleast_1d(np.asarray(V, dtype=float))
    d = V.shape[0]
    return AnalyticField(
        dimension=d,
        evaluator=lambda pts: pts @ V,
        gradient_fn=lambda pts: np.broadcast_to(V, pts.shape).copy(),
        label=f"linear({', '.join(f'{v:g}' for v in V)})",
    )


def gaussian_bump(d: int, support_radius: float = 6.0) -> AnalyticField:
    """u(x) = exp(-|x|^2), truncated far out where it is ~1e-16."""
    def ev(pts):
        return np.exp(-np.einsum("ij,ij->i", pts, pts))

    def gr(pts):
        return -2.0 * pts * ev(pts)[:, None]

    return AnalyticField(d, ev, gr, support_radius, label=f"bump(d={d})")


@dataclass(frozen=True, slots=True)
class VectorField:
    """A d-vector-valued field, used as a candidate gradient."""

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]   # (m, d) -> (m, d)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(pts), dtype=float)


def zero_vector_field(d: int) -> VectorField:
    # one evaluator for every zero field, so zero fields compare equal
    return VectorField(d, np.zeros_like)


def gradient_candidate(f) -> VectorField:
    """The field's own gradient, wrapped as a candidate; for a BV field
    with no smooth part, whose absolutely continuous gradient is 0, the
    shared ``zero_vector_field(1)``, so its residual is known to have a
    zero candidate."""
    if isinstance(f, BVField1D) and f.smooth is None:
        return zero_vector_field(1)
    return VectorField(f.dimension, f.gradient_many)


# ---------------------------------------------------------------------------
# grid fields
# ---------------------------------------------------------------------------

class GridField:
    """Uniform tensor grid on [-L, L]^d with zero extension.

    Nodes sit at -L + i*h for i = 0..N-1 with spacing h = 2L/N; values
    are interpolated multilinearly inside the box and are zero outside.
    The gradient uses central differences in the interior and one-sided
    differences on the box edge.
    """

    def __init__(self, dimension: int, half_width: float, values: np.ndarray):
        if dimension not in (1, 2, 3):
            raise DimensionError(f"grid dimension must be 1..3, got {dimension}")
        values = np.asarray(values, dtype=float)
        if values.ndim != dimension:
            raise DimensionError("values array rank must equal the dimension")
        n = values.shape[0]
        if any(s != n for s in values.shape):
            raise DimensionError("grid must have equal resolution per axis")
        if half_width <= 0:
            raise DomainError("half width must be positive")
        if not np.all(np.isfinite(values)):
            raise DomainError("grid values must be finite")
        self.dimension = dimension
        self.half_width = float(half_width)
        self.resolution = n
        self.values = values
        self.spacing = 2.0 * self.half_width / n
        self._padded = np.pad(values, 1)
        self._grad_arrays = None

    @staticmethod
    def from_function(fn, dimension: int, half_width: float,
                      resolution: int) -> "GridField":
        """Sample a vectorized point function onto a grid."""
        axes = [-half_width + 2.0 * half_width / resolution * np.arange(resolution)
                for _ in range(dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = np.asarray(fn(pts), dtype=float).reshape((resolution,) * dimension)
        return GridField(dimension, half_width, vals)

    def axis_nodes(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.resolution)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self._interpolate(self._padded, pts)

    def _interpolate(self, padded: np.ndarray, pts: np.ndarray) -> np.ndarray:
        d, L, h, n = self.dimension, self.half_width, self.spacing, self.resolution
        t = (pts + L) / h
        i0 = np.floor(t).astype(np.int64)
        frac = t - i0
        out = np.zeros(pts.shape[0])
        for corner in product((0, 1), repeat=d):
            w = np.ones(pts.shape[0])
            idx = []
            for ax, c in enumerate(corner):
                w = w * (frac[:, ax] if c else 1.0 - frac[:, ax])
                idx.append(np.clip(i0[:, ax] + c + 1, 0, n + 1))
            out += w * padded[tuple(idx)]
        inside = np.all(np.abs(pts) <= L + 1e-12 * L, axis=1)
        return np.where(inside, out, 0.0)

    def _node_gradient(self) -> list:
        """The finite-difference gradient at the nodes, one array per axis."""
        grads = np.gradient(self.values, self.spacing, edge_order=1)
        return [grads] if self.dimension == 1 else grads

    def _gradient_tables(self):
        if self._grad_arrays is None:
            self._grad_arrays = [np.pad(g, 1) for g in self._node_gradient()]
        return self._grad_arrays

    def gradient_norm_integral(self, p: float) -> float:
        """h^d sum over the nodes of |grad u|^p, by the finite-difference
        gradient: the grid's integral of |grad u|^p, with an O(h) bias."""
        mag = np.sqrt(sum(g**2 for g in self._node_gradient()))
        return float(np.sum(mag**p) * self.spacing**self.dimension)

    def gradient_many(self, pts: np.ndarray) -> np.ndarray:
        tables = self._gradient_tables()
        out = np.empty((pts.shape[0], self.dimension))
        for ax, table in enumerate(tables):
            out[:, ax] = self._interpolate(table, pts)
        return out

    def support_box(self):
        L = self.half_width
        return (-L * np.ones(self.dimension), L * np.ones(self.dimension))

    def singular_points(self) -> np.ndarray:
        return np.empty(0)

    def difference_breakpoints(self, x: np.ndarray) -> np.ndarray:
        return np.empty((x.shape[0], 0))

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values)) * self.spacing**self.dimension)


# ---------------------------------------------------------------------------
# 1D BV fields
# ---------------------------------------------------------------------------

class BVField1D:
    """Smooth part plus finitely many jumps on the line.

    The distributional derivative splits into the smooth part's gradient
    (absolutely continuous) and the atomic measure sum h_j delta_{c_j}
    (singular).  Pointwise evaluation at a jump uses the midpoint
    convention; almost-everywhere statements are insensitive to it and
    probes avoid jump locations by construction.  A jump of height 0 is
    no jump: the field drops it, so every jump it keeps is a point of
    its jump set.

    Raises
    ------
    DomainError
        If a jump location or height is not finite, or the locations do
        not strictly increase.
    """

    __slots__ = ("dimension", "smooth", "jump_locations", "jump_heights", "_cum")

    def __init__(self, smooth: AnalyticField | None,
                 jumps: Sequence[tuple[float, float]]):
        if smooth is not None and smooth.dimension != 1:
            raise DimensionError("the smooth part must be one-dimensional")
        locs = np.asarray([j[0] for j in jumps], dtype=float)
        heights = np.asarray([j[1] for j in jumps], dtype=float)
        if not (np.isfinite(locs).all() and np.isfinite(heights).all()):
            raise DomainError("jump locations and heights must be finite")
        if locs.size and np.any(np.diff(locs) <= 0):
            raise DomainError("jump locations must be strictly increasing")
        keep = heights != 0.0
        self.dimension = 1
        self.smooth = smooth
        self.jump_locations = locs[keep]
        self.jump_heights = heights[keep]
        self._cum = np.concatenate([[0.0], np.cumsum(self.jump_heights)])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        x = pts[:, 0]
        lo = np.searchsorted(self.jump_locations, x, side="left")
        hi = np.searchsorted(self.jump_locations, x, side="right")
        step = 0.5 * (self._cum[lo] + self._cum[hi])
        if self.smooth is None:
            return step
        return self.smooth.eval_many(pts) + step

    def gradient_many(self, pts: np.ndarray) -> np.ndarray:
        """Absolutely continuous part only; the jump measure is excluded."""
        if self.smooth is None:
            return np.zeros((pts.shape[0], 1))
        return self.smooth.gradient_many(pts)

    @property
    def total_jump_mass(self) -> float:
        return float(np.sum(np.abs(self.jump_heights)))

    def total_variation(self, a: float, b: float) -> float:
        """int_a^b |u'_ac| plus the jump masses inside (a, b); the first on
        the cut axis rule of ``quadrature.abs_power_integral`` (the smooth
        part is smooth across the jumps, so they are no cuts)."""
        inside = (self.jump_locations > a) & (self.jump_locations < b)
        jumps = float(np.sum(np.abs(self.jump_heights[inside])))
        if self.smooth is None:
            return jumps
        return quadrature.abs_power_integral(
            lambda x: self.smooth.gradient_many(x[:, None])[:, 0], a, b, 1.0) + jumps

    def support_box(self):
        lo, hi = [], []
        if self.smooth is not None:
            box = self.smooth.support_box()
            if box is None:
                return None
            lo.append(box[0][0])
            hi.append(box[1][0])
        if self.jump_locations.size:
            lo.append(self.jump_locations[0])
            hi.append(self.jump_locations[-1])
        if not lo:
            return None
        return (np.array([min(lo)]), np.array([max(hi)]))

    def singular_points(self) -> np.ndarray:
        return self.jump_locations

    def difference_breakpoints(self, x: np.ndarray) -> np.ndarray:
        """Distances from each of the (m, 1) probes to every jump -> (m, J)."""
        return np.abs(self.jump_locations[None, :] - x[:, :1])


def step_field(a: float = 0.0, b: float = 1.0) -> BVField1D:
    """The indicator of [a, b] as a BV field: jumps +1 at a and -1 at b."""
    return BVField1D(None, [(a, 1.0), (b, -1.0)])


# ---------------------------------------------------------------------------
# indicator sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    @property
    def dimension(self):
        return len(self.center)

    def contains(self, pts):
        diff = pts - np.asarray(self.center)
        return np.einsum("ij,ij->i", diff, diff) <= self.radius**2

    def volume(self):
        r, d = self.radius, self.dimension
        return {1: 2 * r, 2: math.pi * r**2, 3: 4.0 / 3.0 * math.pi * r**3}[d]

    def perimeter(self):
        r, d = self.radius, self.dimension
        return {1: 2.0 if r > 0 else 0.0, 2: 2 * math.pi * r,
                3: 4 * math.pi * r**2}[d]

    def bbox(self):
        c = np.asarray(self.center, dtype=float)
        return (c - self.radius, c + self.radius)


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    @property
    def dimension(self):
        return len(self.lo)

    def _sides(self):
        return np.asarray(self.hi, dtype=float) - np.asarray(self.lo, dtype=float)

    def is_degenerate(self):
        return bool(np.any(self._sides() <= 0))

    def contains(self, pts):
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        if self.is_degenerate():
            return np.zeros(pts.shape[0], dtype=bool)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def volume(self):
        return 0.0 if self.is_degenerate() else float(np.prod(self._sides()))

    def perimeter(self):
        if self.is_degenerate():
            return 0.0
        s = self._sides()
        d = self.dimension
        if d == 1:
            return 2.0
        if d == 2:
            return float(2 * (s[0] + s[1]))
        return float(2 * (s[0] * s[1] + s[1] * s[2] + s[0] * s[2]))

    def bbox(self):
        return (np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float))


@dataclass(frozen=True)
class HalfSpace:
    normal: tuple
    offset: float

    @property
    def dimension(self):
        return len(self.normal)

    def unit_normal(self):
        n = np.asarray(self.normal, dtype=float)
        return n / np.linalg.norm(n)

    def contains(self, pts):
        return pts @ self.unit_normal() <= self.offset

    def volume(self):
        raise DomainError("a half-space has infinite volume")

    def perimeter(self):
        raise DomainError("a half-space has infinite perimeter")

    def bbox(self):
        return None


class IndicatorSet:
    """The characteristic function of a geometric set, with exact geometry."""

    def __init__(self, shape):
        self.shape = shape
        self.dimension = shape.dimension

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.shape.contains(pts).astype(float)

    def gradient_many(self, pts):
        raise DomainError("set indicators have no pointwise gradient")

    def contains(self, pts) -> np.ndarray:
        return self.shape.contains(as_points(pts, self.dimension))

    def exact_volume(self) -> float:
        return self.shape.volume()

    def exact_perimeter(self) -> float:
        return self.shape.perimeter()

    @property
    def is_bounded(self) -> bool:
        return self.shape.bbox() is not None

    def support_box(self):
        return self.shape.bbox()

    def singular_points(self) -> np.ndarray:
        """The two ends of a 1D set of positive length: a null set, 0
        almost everywhere, jumps nowhere."""
        if self.dimension == 1 and self.is_bounded and self.exact_volume() > 0.0:
            box = self.shape.bbox()
            return np.array([box[0][0], box[1][0]])
        return np.empty(0)

    def difference_breakpoints(self, x: np.ndarray) -> np.ndarray:
        """Radii at which y -> 1_E(x + y) can jump, per (m, d) probe -> (m, J)."""
        if self.dimension == 1:
            return np.abs(self.singular_points()[None, :] - x[:, :1])
        if isinstance(self.shape, Ball):
            rho = np.linalg.norm(x - np.asarray(self.shape.center), axis=1)
            return np.stack([np.abs(rho - self.shape.radius),
                             rho + self.shape.radius], axis=1)
        if isinstance(self.shape, HalfSpace):
            nrm = self.shape.unit_normal()
            return np.abs(x @ nrm - self.shape.offset)[:, None]
        return np.empty((x.shape[0], 0))


def interval_set(a: float, b: float) -> IndicatorSet:
    """The indicator of [a, b], a one-dimensional box."""
    return box_set(a, b)


def _corner(point, what: str) -> tuple:
    """A point of a set spec as a tuple of 1 to 3 finite floats."""
    point = tuple(np.atleast_1d(point).astype(float))
    if not 1 <= len(point) <= 3:
        raise DimensionError(f"a {what} has 1 to 3 coordinates, got {len(point)}")
    if not np.isfinite(point).all():
        raise DomainError(f"a {what} has finite coordinates, got "
                          f"{[float(t) for t in point]}")
    return point


def ball_set(center, radius: float) -> IndicatorSet:
    """The indicator of the closed ball; radius 0 is the empty set.

    Raises
    ------
    DimensionError
        If the centre does not have 1 to 3 coordinates.
    DomainError
        If the radius is negative or not finite, or the centre is not
        finite.
    """
    radius = float(radius)
    if not (math.isfinite(radius) and radius >= 0.0):
        raise DomainError(f"a ball radius is finite and >= 0, got {radius!r}")
    return IndicatorSet(Ball(_corner(center, "ball centre"), radius))


def box_set(lo, hi) -> IndicatorSet:
    """The indicator of the box [lo, hi]; a box with a side <= 0 is the
    empty set.

    Raises
    ------
    DimensionError
        If the corners differ in length or do not have 1 to 3 coordinates.
    DomainError
        If a corner is not finite.
    """
    lo, hi = _corner(lo, "box corner"), _corner(hi, "box corner")
    if len(lo) != len(hi):
        raise DimensionError(
            f"box corners differ in length: {len(lo)} and {len(hi)}")
    return IndicatorSet(Box(lo, hi))


def half_space_set(normal, offset: float) -> IndicatorSet:
    """The indicator of {x : x . normal / |normal| <= offset}.

    Raises
    ------
    DimensionError
        If the normal does not have 1 to 3 coordinates.
    DomainError
        If the normal is zero or not finite, or the offset is not finite.
    """
    normal, offset = _corner(normal, "half-space normal"), float(offset)
    if not (any(normal) and math.isfinite(offset)):
        raise DomainError(f"a half-space has a nonzero normal and a finite "
                          f"offset, got {[float(t) for t in normal]} and {offset!r}")
    return IndicatorSet(HalfSpace(normal, offset))


# ---------------------------------------------------------------------------
# field-level operations
# ---------------------------------------------------------------------------

def eval_field(f, x) -> float | np.ndarray:
    """Evaluate a field at a point (returns float) or batch (returns array)."""
    pts = as_points(x, f.dimension)
    vals = f.eval_many(pts)
    return float(vals[0]) if np.asarray(x).ndim <= 1 else vals


def gradient(f, x):
    """Pointwise gradient; for BV fields this is the absolutely continuous
    part only, and set indicators are rejected."""
    pts = as_points(x, f.dimension)
    grads = f.gradient_many(pts)
    return grads[0] if np.asarray(x).ndim <= 1 else grads
