"""The nonlocal functionals and their local limits.

For a field u, mollifier rho and exponent p >= 1 the library evaluates

* ``pointwise_density``:   int |u(x)-u(y)|^p / |x-y|^p rho(|x-y|) dy,
* ``remainder_density``:   the same with the first-order term
  grad u(x) . (y - x) subtracted (the absolutely continuous gradient
  for BV fields),
* ``energy``:              the double integral of the density over x,
* ``local_energy``:        the local limit gamma(d, p) int |grad u|^p
  (total variation, including jump mass, when p = 1),
* ``domain_density``:      the density with the y-integral restricted
  to a set Omega,
* ``sobolev_residual``:    the integrated remainder with an arbitrary
  candidate vector field in place of the gradient,

plus ladder drivers (``bv_pointwise_limit``, ``ponce_spector_mass``,
``convergence_study``) that package values into ConvergenceReports.

Quadrature notes.  The y-integral is evaluated in polar coordinates
with no node at r = 0 (the measure rho(r) r^(d-1) dr has no atom there,
so the 0/0 difference quotient never arises).  One engine,
``_polar_many``, computes the polar density for a batch of probes and
is the only polar sum here: each probe's radial rule is split at the
breakpoint radii its caller passes (graded down to the nearest of them,
below which the integrand is smooth), and the probes are evaluated in
blocks, their rules stacked into one array and the field called once
per block for the centres and once for the nodes.  A density at one
probe or at a batch of probes is one engine call, with the field's (and
Omega's) breakpoints.  An energy is one x-rule and one engine call.  In
one dimension the x-rule is a jump-aware composite Gauss rule graded
toward the field's singular points, because the density profile of a
BV field has integrable logarithmic singularities there that a uniform
grid resolves too slowly, and ``QuadratureScheme.x_resolution`` is
refused.  In higher dimensions it is a midpoint grid whose nodes share
one breakpoint-free radial rule.  Every path raises EvaluationError on
a NaN or infinite integrand, and every density refuses a probe on a
jump of the field, where it is +inf, with ProbeError.

Energies of sets whose covariogram g(|h|) = |E cap (E + h)| is radial
(intervals, disks, 3D balls) skip the x-rule and the engine: the energy
is 2 |S^(d-1)| int rho(r) r^(d-1-p) (|E| - g(r)) dr, whose leading part
c1 r of |E| - g is the closed-form mollifier moment and whose remainder
is one radial sum.  A field with a jump has infinite energy from the
exponent at which that moment diverges on; ``energy`` then returns
``math.inf`` on every route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import quadrature
from .constants import gamma
from .errors import (DimensionError, DomainError, EvaluationError,
                     ProbeError, ValidityError)
from .fields import (Ball, Box, BVField1D, GridField, IndicatorSet,
                     VectorField, as_points, zero_vector_field)
from .mollifiers import RadialMollifier
from .reports import ConvergenceReport

DEFAULT_X_RESOLUTION = {2: 256, 3: 64}
_CHUNK = 32768

# Remainder integrands divide an O(eps_machine) cancellation by r; below
# this fraction of the support radius the quotient is float noise, while
# the true contribution of those radii is O(mass * r^p) and negligible.
# Plain difference quotients have a finite limit and keep every node.
_REMAINDER_R_FLOOR = 1e-8

# A probe within a few rounding units of a jump sits on it, where the
# density is +inf.  At any real distance t it is finite (about log(1/t)
# for p = 1): the x-rules of 1D energies put nodes 1e-13 from a jump.
_ON_JUMP_RTOL = 4 * 2.0**-52

# the covariogram route grades its radial rule toward D over the
# panels D (1 - 2^-j), j = 1 .. this, and toward 0 down to D 2^-this
_COVARIOGRAM_GRADE_LEVELS = 24


def _abs_power(diff: np.ndarray, p: float) -> np.ndarray:
    """|diff|**p with fast paths for the common integer exponents."""
    if p == 1.0:
        return np.abs(diff)
    if p == 2.0:
        return diff * diff
    if p == 3.0:
        a = np.abs(diff)
        return a * a * a
    return np.abs(diff) ** p


@dataclass(frozen=True)
class QuadratureScheme:
    """Per-call overrides for the product quadrature and x-grids."""

    sphere_order: Optional[int] = None
    radial_level: Optional[int] = None
    x_resolution: Optional[int] = None

    def sphere(self, d: int) -> quadrature.SphereRule:
        return quadrature.sphere_rule(d, self.sphere_order)

    def x_res(self, d: int) -> int:
        return self.x_resolution or DEFAULT_X_RESOLUTION[d]


DEFAULT_SCHEME = QuadratureScheme()


@dataclass(frozen=True)
class DensityRequest:
    """Parameters of a pointwise density evaluation at one probe point
    or at an (m, d) batch of them."""

    field: object
    mollifier: RadialMollifier
    p: float
    probe: object
    scheme: Optional[QuadratureScheme] = None

    def validated(self):
        """The request's parts, checked: matching dimensions, p >= 1,
        probes off the field's jumps and, for grid fields, inside the box.

        Raises
        ------
        ProbeError
            If a probe lies on a jump (a singular point) of the field.
        """
        field, m = self.field, self.mollifier
        if field.dimension != m.dimension:
            raise DimensionError(
                f"field dimension {field.dimension} != mollifier dimension "
                f"{m.dimension}")
        if self.p < 1:
            raise DomainError(f"exponent p must be >= 1, got {self.p}")
        probes = as_points(self.probe, field.dimension)
        sing = np.asarray(field.singular_points(), dtype=float)
        if sing.size:
            gap = np.abs(probes[:, :1] - sing) / np.maximum(1.0, np.abs(sing))
            on = gap.min(axis=1) <= _ON_JUMP_RTOL
            if on.any():
                raise ProbeError(
                    f"probe {probes[np.argmax(on)]} lies on a jump of the field")
        scheme = self.scheme or DEFAULT_SCHEME
        _check_probe_margin(field, probes, m.quadrature_radius())
        return field, m, float(self.p), probes, scheme


def _shaped(probe, values: np.ndarray):
    """A float for a single probe point, the (m,) values for a batch."""
    return float(values[0]) if np.asarray(probe).ndim <= 1 else values


def _check_probe_margin(field, probes, r_max: float) -> None:
    # zero extension beyond a grid box would corrupt the y-integral, so
    # grid probes must keep the whole mollifier support inside the box
    if isinstance(field, GridField):
        lo, hi = field.support_box()
        out = np.any((probes - r_max < lo) | (probes + r_max > hi), axis=1)
        if out.any():
            raise ValidityError(
                f"probe {probes[np.argmax(out)]} with mollifier radius "
                f"{r_max:.3g} leaves the grid box")


# ---------------------------------------------------------------------------
# pointwise densities
# ---------------------------------------------------------------------------

def _integrand_error(value, centre, r, sigma) -> EvaluationError:
    return EvaluationError(
        f"integrand is {value!r} at centre={centre!r}, r={r!r}, "
        f"sigma={sigma!r}")


def _radial_weights(mollifier, p, level, breaks, floor):
    """Stacked radial nodes r (m, n) and weights w rho(r) r^(d-1) / r^p.

    With ``floor`` the weights below the remainder floor are zero."""
    rules = quadrature.radial_rules(mollifier, level, breakpoints=breaks)
    r = rules.nodes
    wr = rules.weights * quadrature.radial_measure(mollifier, rules) / r ** p
    if floor:
        wr[r < _REMAINDER_R_FLOOR * rules.r_max] = 0.0
    return r, wr


def _polar_many(field, mollifier, p, probes, breaks, *, subtract=None,
                omega=None, scheme=DEFAULT_SCHEME) -> np.ndarray:
    """The polar densities at m probes (m, d) -> (m,).

    Each value is sum_r w_r rho(r) r^(d-1-p) sum_sigma w_sigma F(r, sigma)
    with F = |u(x + r sigma) - u(x) [- r g . sigma]|^p, where g is the
    probe's row of ``subtract`` and, given ``omega``, F is zero at nodes
    outside Omega.  Row i of ``breaks`` (m, J) holds the breakpoint radii
    of probe i; they become panel edges of its radial rule, graded down
    to the nearest of them.  With J = 0 all probes share one
    breakpoint-free rule, built once.  Probes are taken in blocks of at
    most _CHUNK field points; a block evaluates the field once at its
    centres and once at its nodes.

    Raises
    ------
    EvaluationError
        If the integrand is NaN or infinite at some node.
    """
    d = field.dimension
    sphere = scheme.sphere(d)
    sig, ws = sphere.nodes, sphere.weights
    K = sig.shape[0]
    J = breaks.shape[1]
    size = quadrature.radial_rule_size(scheme.radial_level, J)
    step = max(1, _CHUNK // (size * K))
    floor = subtract is not None
    if J == 0:
        r, wr = _radial_weights(mollifier, p, scheme.radial_level,
                                np.empty((1, 0)), floor)
    out = np.empty(probes.shape[0])
    for start in range(0, probes.shape[0], step):
        block = slice(start, start + step)
        x = probes[block]
        if J > 0:
            r, wr = _radial_weights(mollifier, p, scheme.radial_level,
                                    breaks[block], floor)
        flat = (x[:, None, None, :] + r[:, :, None, None] * sig).reshape(-1, d)
        u0 = field.eval_many(x)
        # inf - inf is NaN; the finite check below refuses it with its node
        with np.errstate(invalid="ignore", over="ignore"):
            diff = (field.eval_many(flat).reshape(x.shape[0], -1, K)
                    - u0[:, None, None])
            if subtract is not None:
                diff = diff - r[:, :, None] * (subtract[block] @ sig.T)[:, None, :]
            if omega is not None:
                diff = np.where(omega.contains(flat).reshape(diff.shape), diff, 0.0)
            F = _abs_power(diff, p)
            inner = (F.reshape(-1, K) @ ws).reshape(diff.shape[:2])
            dens = np.einsum("ij,ij->i", wr, inner)
        if not np.isfinite(dens).all():
            i = int(np.argmin(np.isfinite(dens)))
            bad = np.argwhere(~np.isfinite(F[i]))
            if bad.size:
                j, k = bad[0]
                raise _integrand_error(F[i, j, k], x[i],
                                       np.broadcast_to(r, inner.shape)[i, j], sig[k])
            raise EvaluationError(f"density sum is {dens[i]!r} at centre={x[i]!r}")
        out[block] = dens
    return out


def pointwise_density(req: DensityRequest):
    """D(u)(x): the nonlocal difference-quotient density at the probe.

    Returns a float for a single probe point and an (m,) array for an
    (m, d) batch, evaluated in one engine call.  For affine u this
    equals gamma(d, p) |grad u|^p exactly, which the test suite uses as
    an exactness oracle.
    """
    field, m, p, probes, scheme = req.validated()
    values = _polar_many(field, m, p, probes, field.difference_breakpoints(probes),
                         scheme=scheme)
    return _shaped(req.probe, values)


def remainder_density(req: DensityRequest):
    """The density of u(x+h) - u(x) - grad u(x) . h, shaped as
    ``pointwise_density``.

    Its decay along a concentration ladder witnesses first-order
    differentiability at the probe; for BV fields the subtracted
    gradient is the absolutely continuous part.
    """
    field, m, p, probes, scheme = req.validated()
    if isinstance(field, IndicatorSet):
        raise DomainError("set indicators have no gradient to subtract")
    values = _polar_many(field, m, p, probes, field.difference_breakpoints(probes),
                         subtract=field.gradient_many(probes), scheme=scheme)
    return _shaped(req.probe, values)


def domain_density(field, mollifier, p, probe, omega: IndicatorSet,
                   scheme: Optional[QuadratureScheme] = None):
    """Density with the y-integration restricted to the set Omega, shaped
    as ``pointwise_density``.

    Raises
    ------
    DomainError
        If a probe lies outside Omega.
    """
    req = DensityRequest(field, mollifier, p, probe, scheme)
    field, m, p, probes, scheme = req.validated()
    if omega.dimension != field.dimension:
        raise DimensionError("Omega dimension does not match the field")
    outside = ~omega.contains(probes)
    if outside.any():
        raise DomainError(f"probe {probes[np.argmax(outside)]} is not inside Omega")
    breaks = np.concatenate([field.difference_breakpoints(probes),
                             omega.difference_breakpoints(probes)], axis=1)
    values = _polar_many(field, m, p, probes, breaks, omega=omega, scheme=scheme)
    return _shaped(req.probe, values)


# ---------------------------------------------------------------------------
# integrated functionals
# ---------------------------------------------------------------------------

def _candidate_for(field, candidate):
    if candidate is None:
        return zero_vector_field(field.dimension)
    if isinstance(candidate, VectorField):
        return candidate
    raise DomainError("candidate gradient must be a VectorField or None")


def _x_region(field, r_max: float):
    box = field.support_box()
    if box is None:
        raise ValidityError(
            "the field must be compactly supported (bounded support box) "
            "for integrated functionals")
    lo = np.asarray(box[0], dtype=float) - r_max
    hi = np.asarray(box[1], dtype=float) + r_max
    return lo, hi


def _grid_compactness_check(field) -> None:
    # a grid field whose boundary values are materially nonzero is not
    # compactly supported inside its own box; zero extension would then
    # silently truncate the energy
    if isinstance(field, GridField):
        edge = 0.0
        v = field.values
        for ax in range(field.dimension):
            edge = max(edge, float(np.max(np.abs(np.take(v, 0, axis=ax)))),
                       float(np.max(np.abs(np.take(v, -1, axis=ax)))))
        scale = float(np.max(np.abs(v))) or 1.0
        if edge > 1e-6 * scale:
            raise ValidityError(
                "grid field is not negligible at the box edge; enlarge the "
                "box before integrating")


def _midpoint_grid(lo, hi, n):
    """The midpoint rule of [lo, hi] cut into n^d equal cells -> (n^d, d), (n^d,)."""
    h = (hi - lo) / n
    axes = [lo[ax] + h[ax] * (np.arange(n) + 0.5) for ax in range(lo.size)]
    X = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return X, np.full(X.shape[0], float(np.prod(h)))


def _refuse_1d_x_resolution(d: int, scheme: QuadratureScheme) -> None:
    if d == 1 and scheme.x_resolution is not None:
        raise DomainError(
            "x_resolution sets the midpoint x-grid of 2D and 3D energies; "
            "1D energies use the jump-aware axis rule and cannot honour it")


def _integrate_density_over_x(field, mollifier, p, *, subtract_candidate=None,
                              scheme=DEFAULT_SCHEME) -> float:
    """int D(x) dx, with D the plain or remainder density."""
    d = field.dimension
    _refuse_1d_x_resolution(d, scheme)
    _grid_compactness_check(field)
    r_max = mollifier.quadrature_radius()
    lo, hi = _x_region(field, r_max)
    if d == 1:
        sing = np.asarray(field.singular_points(), dtype=float)
        nodes, weights = quadrature.axis_rule(
            lo[0], hi[0], np.concatenate([sing, sing - r_max, sing + r_max]))
        probes = nodes.reshape(-1, 1)
        breaks = field.difference_breakpoints(probes)
    else:
        probes, weights = _midpoint_grid(lo, hi, scheme.x_res(d))
        breaks = np.empty((probes.shape[0], 0))
    sub = None if subtract_candidate is None else subtract_candidate.eval_many(probes)
    return float(np.dot(weights, _polar_many(field, mollifier, p, probes, breaks,
                                             subtract=sub, scheme=scheme)))


def _has_jump(field) -> bool:
    """Whether the field jumps across a hypersurface: a bounded set of
    positive volume, or a BV field with a nonzero jump."""
    if isinstance(field, IndicatorSet):
        return field.is_bounded and field.exact_volume() > 0.0
    return isinstance(field, BVField1D) and bool(np.any(field.jump_heights != 0.0))


def radial_covariogram(field):
    """(D, c1, F) for a set whose covariogram g is radial, else None.

    F(t) = |E| - g(t) on [0, D], where D is the diameter beyond which g
    vanishes, and F(t) = c1 t + O(t^3) at 0 (exactly c1 t on [0, D] for
    an interval).  Intervals (1D boxes and balls), disks and 3D balls
    of positive measure qualify; ``energy`` takes the covariogram route
    for exactly these.
    """
    if not isinstance(field, IndicatorSet):
        return None
    shape = field.shape
    d = field.dimension
    if d == 1 and isinstance(shape, (Ball, Box)):
        lo, hi = shape.bbox()
        D = float(hi[0] - lo[0])
        return (D, 1.0, lambda t: t) if D > 0.0 else None
    if not isinstance(shape, Ball) or shape.radius <= 0.0:
        return None
    R = float(shape.radius)
    if d == 2:
        # g(t) = 2R^2 acos(t/2R) - (t/2) sqrt(4R^2 - t^2)
        def F(t):
            s = t / (2.0 * R)
            return 2.0 * R * R * (np.arcsin(s) + s * np.sqrt(1.0 - s * s))
        return 2.0 * R, 2.0 * R, F
    # g(t) = (pi/12) (4R + t) (2R - t)^2
    return 2.0 * R, math.pi * R * R, lambda t: math.pi * (R * R * t - t**3 / 12.0)


def _covariogram_energy(mollifier, p, D, c1, F, level) -> float:
    """2 |S^(d-1)| int rho(r) r^(d-1-p) (|E| - g(r)) dr for |E| - g = F.

    The part c1 r of |E| - g is the closed-form moment c1 mu(1-p); only
    the remainder h(r) = F(min(r, D)) - c1 r, which is O(r^3) at 0, goes
    through the radial rule.  The rule is split at D and graded toward
    it from below, where a disk's covariogram falls off like
    (D - r)^(3/2), and toward 0, where h(r)/r^p is a fractional power
    of r for fractional p.
    """
    d = mollifier.dimension
    grade = 2.0 ** -np.arange(1.0, _COVARIOGRAM_GRADE_LEVELS + 1)
    breaks = D * np.concatenate([grade[-1:], 1.0 - grade, [1.0]])
    rule = quadrature.radial_rule(mollifier, level, breakpoints=breaks)
    r = rule.nodes
    h = F(np.minimum(r, D)) - c1 * r
    tail = np.dot(rule.weights * quadrature.radial_measure(mollifier, rule), h / r**p)
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return 2.0 * sphere * (c1 * mollifier.moment(1.0 - p) + float(tail))


def energy(field, mollifier, p, scheme: Optional[QuadratureScheme] = None) -> float:
    """The global nonlocal energy: the density integrated over x.

    The x-domain is the field's support box enlarged by the mollifier
    support, so pairs with exactly one point outside the support are
    counted.

    A field with a jump (a bounded set of positive volume, a BV field
    with a nonzero jump) has infinite energy exactly when the moment
    mu(1-p) = int rho(r) r^(d-p) dr diverges: p >= d+1 for the
    indicator, p >= d+2 for the gaussian and p >= delta+d for the power
    law.  Then the result is ``math.inf``.

    An interval, a disk or a 3D ball takes the covariogram route: with
    g(|h|) = |E cap (E + h)|,

        E_p(1_E) = 2 |S^(d-1)| int rho(r) r^(d-1-p) (|E| - g(r)) dr,

    one radial sum with no x-grid, sphere rule or field evaluation.  It
    reads only ``scheme.radial_level``; ``x_resolution`` (refused in 1D
    as on every 1D energy) and ``sphere_order`` are accepted and not
    read.  Every other field takes the tensor route: an x-rule whose
    nodes go through the polar engine.

    Parameters
    ----------
    field : Field
        Compactly supported scalar field (bounded support box).
    mollifier : RadialMollifier
    p : float
        Exponent >= 1.
    scheme : QuadratureScheme, optional
    """
    if field.dimension != mollifier.dimension:
        raise DimensionError("field and mollifier dimensions differ")
    if p < 1:
        raise DomainError("exponent p must be >= 1")
    p = float(p)
    scheme = scheme or DEFAULT_SCHEME
    _refuse_1d_x_resolution(field.dimension, scheme)
    if _has_jump(field) and math.isinf(mollifier.moment(1.0 - p)):
        return math.inf
    cov = radial_covariogram(field)
    if cov is not None:
        return _covariogram_energy(mollifier, p, *cov, scheme.radial_level)
    return _integrate_density_over_x(field, mollifier, p, scheme=scheme)


def sobolev_residual(field, mollifier, candidate: Optional[VectorField],
                     scheme: Optional[QuadratureScheme] = None) -> float:
    """Integrated first-order remainder with a candidate gradient U.

    Vanishing of this residual along a concentration ladder characterizes
    membership in W^{1,1} with gradient U; for a pure jump field and
    U = 0 the residual instead converges to gamma(1,1) times the jump
    mass (the singular-part limit).
    """
    if field.dimension != mollifier.dimension:
        raise DimensionError("field and mollifier dimensions differ")
    cand = _candidate_for(field, candidate)
    if cand.dimension != field.dimension:
        raise DimensionError("candidate dimension does not match the field")
    return _integrate_density_over_x(field, mollifier, 1.0,
                                     subtract_candidate=cand,
                                     scheme=scheme or DEFAULT_SCHEME)


def local_energy(field, p, *, box=None) -> float:
    """The local limit gamma(d, p) int |grad u|^p.

    For p = 1 and a BV field the integral is the full total variation,
    smooth part plus jump masses; for p > 1 a field with jumps (or a set
    indicator) has infinite energy.  Set indicators at p = 1 use the
    exact perimeter.  Grid fields use the finite-difference gradient,
    with a documented O(h) bias.
    """
    d = field.dimension
    if p < 1:
        raise DomainError("exponent p must be >= 1")
    g = gamma(d, p)
    if isinstance(field, IndicatorSet):
        if p == 1:
            return g * field.exact_perimeter()
        return math.inf
    if isinstance(field, BVField1D):
        if field.jump_locations.size and p > 1:
            return math.inf
        box_ = box or field.support_box()
        if box_ is None:
            raise ValidityError("BV field has unbounded variation hull")
        # pad so jumps sitting exactly on the hull boundary are counted
        pad = 1e-9 * (1.0 + abs(float(box_[0][0])) + abs(float(box_[1][0])))
        lo, hi = float(box_[0][0]) - pad, float(box_[1][0]) + pad
        if p == 1:
            return g * field.total_variation(lo, hi)
        if field.smooth is None:
            return 0.0
        nodes, w = quadrature.axis_rule(lo, hi, field.singular_points())
        grad = field.smooth.gradient_many(nodes.reshape(-1, 1))[:, 0]
        return g * float(np.dot(w, np.abs(grad) ** p))
    if isinstance(field, GridField):
        grads = np.gradient(field.values, field.spacing, edge_order=1)
        if d == 1:
            grads = [grads]
        mag = np.sqrt(sum(gr**2 for gr in grads))
        return g * float(np.sum(mag**p) * field.spacing**d)
    # analytic field
    box_ = box or field.support_box()
    if box_ is None:
        raise ValidityError("an integration box is required for this field")
    lo = np.asarray(box_[0], dtype=float)
    hi = np.asarray(box_[1], dtype=float)
    if d == 1:
        nodes, w = quadrature.axis_rule(lo[0], hi[0], ())
        grad = field.gradient_many(nodes.reshape(-1, 1))[:, 0]
        return g * float(np.dot(w, np.abs(grad) ** p))
    X, w = _midpoint_grid(lo, hi, DEFAULT_X_RESOLUTION[d])
    return g * float(np.dot(w, np.linalg.norm(field.gradient_many(X), axis=1) ** p))


# ---------------------------------------------------------------------------
# ladder drivers
# ---------------------------------------------------------------------------

def convergence_study(evaluate: Callable[[RadialMollifier], float],
                      ladder: Sequence[RadialMollifier], *,
                      limit: Optional[float] = None) -> ConvergenceReport:
    """Evaluate a functional along a mollifier ladder and classify it."""
    if not ladder:
        raise DomainError("the mollifier ladder must be nonempty")
    values = [float(evaluate(m)) for m in ladder]
    return ConvergenceReport(
        labels=[m.label for m in ladder],
        params=[m.param for m in ladder],
        values=values, limit=limit)


def energy_study(field, ladder, p, scheme: Optional[QuadratureScheme] = None,
                 limit: Optional[float] = None) -> ConvergenceReport:
    """Energy along a ladder, with the local energy attached as limit."""
    if limit is None:
        limit = local_energy(field, p)
        if not math.isfinite(limit):
            limit = None
    return convergence_study(lambda m: energy(field, m, p, scheme), ladder,
                             limit=limit)


def bv_pointwise_limit(field: BVField1D, ladder: Sequence[RadialMollifier],
                       probe, scheme: Optional[QuadratureScheme] = None) -> ConvergenceReport:
    """p=1 density ladder at a probe, against gamma(1,1) |u'_ac(probe)|.

    Raises
    ------
    ProbeError
        If the probe coincides with a jump location.
    """
    if not isinstance(field, BVField1D):
        raise DomainError("bv_pointwise_limit expects a 1D BV field")
    x = as_points(probe, 1)[0]
    limit = gamma(1, 1) * abs(field.gradient_many(x.reshape(1, 1))[0, 0])
    return convergence_study(
        lambda m: pointwise_density(DensityRequest(field, m, 1.0, x, scheme)),
        ladder, limit=limit)


def ponce_spector_mass(field: BVField1D, ladder: Sequence[RadialMollifier],
                       scheme: Optional[QuadratureScheme] = None) -> ConvergenceReport:
    """Total remainder mass along a ladder, against gamma(1,1) |D^s u|(R).

    The integrated remainder of a BV field loses its smooth part in the
    limit and concentrates on the jump set, recovering the total mass of
    the singular gradient measure scaled by gamma(1,1).
    """
    if not isinstance(field, BVField1D):
        raise DomainError("ponce_spector_mass expects a 1D BV field")
    scheme = scheme or DEFAULT_SCHEME
    candidate = VectorField(1, lambda pts: field.gradient_many(pts))
    limit = gamma(1, 1) * field.total_jump_mass
    return convergence_study(
        lambda m: _integrate_density_over_x(field, m, 1.0,
                                            subtract_candidate=candidate,
                                            scheme=scheme),
        ladder, limit=limit)


# ---------------------------------------------------------------------------
# probe seeding ("a.e. x" operationalized)
# ---------------------------------------------------------------------------

def seeded_probes(d: int, count: int, seed: int, *, low=-1.0, high=1.0,
                  radius_range=None, exclude=(), exclusion_radius: float = 0.0
                  ) -> np.ndarray:
    """Deterministic probe points avoiding a singular set.

    Almost-everywhere statements are untestable at measure-zero bad
    sets, so probes are drawn from a seeded generator and rejected
    within ``exclusion_radius`` of any excluded point.

    Parameters
    ----------
    radius_range : (float, float), optional
        If given, draw points uniformly in the annulus with these radii
        instead of the box [low, high]^d.
    """
    rng = np.random.default_rng(seed)
    out = []
    exclude = [np.atleast_1d(np.asarray(e, dtype=float)) for e in exclude]
    for _ in range(100 * count):
        if radius_range is not None:
            r = rng.uniform(radius_range[0], radius_range[1])
            v = rng.normal(size=d)
            x = r * v / np.linalg.norm(v)
        else:
            x = rng.uniform(low, high, size=d)
        if any(np.linalg.norm(x - e) < exclusion_radius for e in exclude):
            continue
        out.append(x)
        if len(out) == count:
            return np.array(out)
    raise DomainError("probe rejection rate too high; enlarge the region")
