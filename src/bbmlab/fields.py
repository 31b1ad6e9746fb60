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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.signal import fftconvolve

from .errors import DimensionError, DomainError, ResolutionError


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

@dataclass(frozen=True)
class AnalyticField:
    """A closed-form scalar field, optionally with a gradient oracle.

    The evaluator must be vectorized over an (m, d) array of points.
    Values (and gradients) are forced to zero beyond ``support_radius``,
    which keeps analytic test fields compatible with compact-support
    settings; choose the radius large enough that the truncated tail is
    negligible.
    """

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    gradient_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_radius: float = math.inf
    label: str = "analytic"

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.evaluator(pts), dtype=float)
        if math.isinf(self.support_radius):
            return vals
        inside = np.einsum("ij,ij->i", pts, pts) <= self.support_radius**2
        return np.where(inside, vals, 0.0)

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
        return np.where(inside[:, None], grads, 0.0)

    def support_box(self):
        if math.isinf(self.support_radius):
            return None
        r = self.support_radius
        return (-r * np.ones(self.dimension), r * np.ones(self.dimension))

    def singular_points(self) -> np.ndarray:
        return np.empty(0)

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


@dataclass(frozen=True)
class VectorField:
    """A d-vector-valued field, used as a candidate gradient."""

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]   # (m, d) -> (m, d)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(pts), dtype=float)


def zero_vector_field(d: int) -> VectorField:
    return VectorField(d, lambda pts: np.zeros_like(pts))


def gradient_candidate(f) -> VectorField:
    """The field's own gradient, wrapped as a candidate."""
    return VectorField(f.dimension, lambda pts: f.gradient_many(pts))


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
    def from_function(fn, dimension: int, half_width: float, resolution: int,
                      label: str | None = None) -> "GridField":
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

    def _gradient_tables(self):
        if self._grad_arrays is None:
            grads = np.gradient(self.values, self.spacing, edge_order=1)
            if self.dimension == 1:
                grads = [grads]
            self._grad_arrays = [np.pad(g, 1) for g in grads]
        return self._grad_arrays

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
    probes avoid jump locations by construction.
    """

    def __init__(self, smooth: AnalyticField | None,
                 jumps: Sequence[tuple[float, float]]):
        if smooth is not None and smooth.dimension != 1:
            raise DimensionError("the smooth part must be one-dimensional")
        locs = np.asarray([j[0] for j in jumps], dtype=float)
        heights = np.asarray([j[1] for j in jumps], dtype=float)
        if locs.size and np.any(np.diff(locs) <= 0):
            raise DomainError("jump locations must be strictly increasing")
        self.dimension = 1
        self.smooth = smooth
        self.jump_locations = locs
        self.jump_heights = heights
        self._cum = np.concatenate([[0.0], np.cumsum(heights)])

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
        """int_a^b |u'_ac| plus the jump masses inside (a, b)."""
        from .quadrature import segment_rule
        tv = 0.0
        if self.smooth is not None and self.smooth.gradient_fn is not None:
            cuts = np.concatenate([[a, b], self.jump_locations])
            cuts = np.unique(cuts[(cuts >= a) & (cuts <= b)])
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                nodes, w = segment_rule(lo, hi, q=8, levels=20)
                g = self.smooth.gradient_many(nodes.reshape(-1, 1))[:, 0]
                tv += float(np.dot(w, np.abs(g)))
        inside = (self.jump_locations > a) & (self.jump_locations < b)
        return tv + float(np.sum(np.abs(self.jump_heights[inside])))

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
        return {1: 2.0, 2: 2 * math.pi * r, 3: 4 * math.pi * r**2}[d]

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
        if self.dimension == 1:
            box = self.shape.bbox()
            if box is not None:
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


def ball_set(center, radius: float) -> IndicatorSet:
    return IndicatorSet(Ball(tuple(np.atleast_1d(center).astype(float)), float(radius)))


def box_set(lo, hi) -> IndicatorSet:
    return IndicatorSet(Box(tuple(np.atleast_1d(lo).astype(float)),
                            tuple(np.atleast_1d(hi).astype(float))))


def half_space_set(normal, offset: float) -> IndicatorSet:
    return IndicatorSet(HalfSpace(tuple(np.atleast_1d(normal).astype(float)),
                                  float(offset)))


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


def mollify(f, k: int, *, half_width: float | None = None,
            resolution: int | None = None) -> GridField:
    """Convolve a field with the polynomial bump (1 - |k y|^2)^2 on |y| < 1/k.

    The bump is normalized discretely so constants are preserved exactly.
    The target grid defaults to the field's own grid (grid input) or to
    its support box padded by 1/k.

    Raises
    ------
    ResolutionError
        If the grid spacing exceeds 1/(4k), i.e. the kernel would be
        unresolved.
    """
    if k < 1:
        raise DomainError("mollification index k must be >= 1")
    d = f.dimension
    if isinstance(f, GridField) and half_width is None and resolution is None:
        L, n = f.half_width, f.resolution
        samples = f.values
    else:
        if half_width is None:
            box = f.support_box()
            if box is None:
                raise DomainError("mollify needs a bounded field or explicit grid")
            half_width = float(max(np.max(np.abs(box[0])), np.max(np.abs(box[1])))) + 1.0 / k
        if resolution is None:
            resolution = {1: 4096, 2: 256, 3: 64}[d]
        L, n = float(half_width), int(resolution)
        grid = GridField.from_function(lambda pts: f.eval_many(pts), d, L, n)
        samples = grid.values
    h = 2.0 * L / n
    if h > 1.0 / (4.0 * k):
        raise ResolutionError(
            f"grid spacing {h:.3g} cannot resolve mollification radius 1/{k}"
            f" (need h <= {1.0 / (4 * k):.3g})")
    m = int(math.floor((1.0 / k) / h))
    offsets = h * np.arange(-m, m + 1)
    mesh = np.meshgrid(*([offsets] * d), indexing="ij")
    r2 = sum(g**2 for g in mesh)
    kernel = np.where(r2 < (1.0 / k) ** 2, (1.0 - (k**2) * r2) ** 2, 0.0)
    kernel /= kernel.sum()
    smoothed = fftconvolve(samples, kernel, mode="same")
    return GridField(d, L, smoothed)
