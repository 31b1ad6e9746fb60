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

Quadrature notes.  ``energy`` takes one of five routes, which
``energy_route`` names (``residual_route`` names the two that
``sobolev_residual`` takes); ``ROUTE_READS`` says which
``QuadratureScheme`` fields each route, and the polar density, reads:

* box: 2D/3D boxes whose energy is a closed form (the gaussian at
  p = 1, or r_max <= every side);
* covariogram: every other bounded set (intervals, disks, 3D balls and
  2D/3D boxes) at any p; one radial sum;
* multiplier: p = 2 and an analytic field in 2D or 3D; one FFT of the
  field's samples (on the x-grid) times the Fourier multiplier of the
  mollifier (on one radial rule);
* lag: every other 1D field, and every 1D ``sobolev_residual``; the
  x-integral first, over fixed panels, at each node of one radial rule
  (``x_resolution`` is refused);
* tensor: every other 2D/3D field and exponent (no bounded set), and
  every 2D/3D ``sobolev_residual``; a midpoint x-grid whose nodes go
  through the polar engine.

On the tensor route the y-integral is evaluated in polar coordinates
with no node at r = 0 (the measure rho(r) r^(d-1) dr has no atom there,
so the 0/0 difference quotient never arises).  One engine,
``_polar_many``, computes the polar density for a batch of probes and
is the only polar sum here: each probe's radial rule is split at the
breakpoint radii its caller passes, and the probes go in blocks of at
most _CHUNK = 32768 field points, handed to the field column-major.  A
density at one probe or at a batch of probes is one engine call, with
the field's (and Omega's) breakpoints.  A tensor energy is one midpoint
grid and one engine call that counts each pair once
(``_integrate_density_over_x``).
Every path raises EvaluationError on a NaN or infinite integrand, and every
density refuses a probe on a jump of the field, where it is +inf, with
ProbeError.  A field that declares a point singularity
(``AnalyticField.point_singularities``) is refused with ValidityError by
every integrated functional, and by a density whose mollifier ball
reaches the point: the integrand is unbounded there, and no product rule
or FFT resolves it.

In 1D the energy is taken in lag form,
E = sum_sigma int rho(r) r^-p G_sigma(r) dr with
G_sigma(r) = int |u(x + sigma r) - u(x)|^p dx: no density is formed, so
the logarithmic density profile at a jump never needs resolving.  The
jumps' share c1 r of G, c1 = sum |h_i|^p, is the closed-form moment
c1 mu(1-p); the rest is one radial sum over G, whose x-integral runs
over fixed uniform panels cut at the jumps and at the jumps shifted by
the lag, where the integrand is smooth (``_lag_energy``).

The energy of a bounded set E is one function of its covariogram
g(h) = |E cap (E + h)| (``_set_energy``), with no x-rule or engine:
E = 2 int rho(r) r^(d-1-p) F(r) dr, F(r) = int_S (|E| - g(r sigma)) dsigma.
F is a polynomial sum_k P_k r^k, whose part is the closed-form moments
P_k mu(k-p), plus a rest h, which is one radial sum graded at the set's
kink radii.  A ball's g is radial and its
polynomial is c1 r; a box's g = prod_i (L_i - |h_i|)_+ makes |E| - g a
polynomial in the |h_i| up to r = min L_i, where h starts (an interval
is a 1D box).  The gaussian at p = 1 is separable for a box.  A field
with a jump has infinite energy from the exponent at which the moment
mu(1-p) diverges on; ``energy`` then returns ``math.inf`` on every
route.

At p = 2 the energy is a Fourier multiplier (Plancherel):
E_2(u) = (2 pi)^-d int |u^(xi)|^2 m_rho(|xi|) dxi with
m_rho(k) = 2 int rho(r) r^(d-3) (|S^(d-1)| - S_d(k r)) dr, S_2 = 2 pi J0
and S_3 = 4 pi sin t / t.  A smooth 2D/3D field is sampled once on a
periodic grid whose period exceeds its support plus r_max, so the
periodic energy is the energy.  The power is summed per distinct integer
|j|^2 (a shell) by ``np.bincount``, and m_rho is computed on the
breakpoint-free radial rule only for the shells that carry power: its
weights are >= 0, so m_rho(k) <= min(c2 k^2, c0), and the sum keeps the
shortest prefix of shells, by ascending |xi|, whose dropped tail
sum mass min(c2 k^2, c0) is <= 2^-55 of the kept energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from . import constants, quadrature
from .constants import gamma
from .errors import (DimensionError, DomainError, EvaluationError,
                     IntegrationError, ProbeError, ValidityError)
from .fields import (AnalyticField, Ball, Box, BVField1D, GridField,
                     IndicatorSet, VectorField, as_points, zero_vector_field)
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
# for p = 1), and a graded axis rule puts nodes 1e-13 from a jump.
_ON_JUMP_RTOL = 4 * 2.0**-52

# the lag route's x-rule: this many uniform panels over the support box
# +- r_max, before the cuts at the jumps, of this many Gauss nodes each
_LAG_X_PANELS = 32
_LAG_X_NODES = 8

# the covariogram route grades its radial rule toward the diameter D
# over the panels D (1 - 2^-j), j = 1 .. this, toward each kink K over
# K (1 + 2^-j), and toward 0 down to D 2^-this
_COVARIOGRAM_GRADE_LEVELS = 24
# a 3D box's angle rule: each piece graded this many times toward both
# ends, with this many Gauss nodes a panel
_BOX_ANGLE_LEVELS = 12
_BOX_ANGLE_NODES = 10

# Below t = 1, |S^(d-1)| - S_d(t) is summed from its power series in
# t^2: the direct difference would cancel to a relative error of about
# eps / t^2.  At t = 1 the terms fall by 1/16 (d = 2) or 1/20 (d = 3) a
# step, so ten of them reach the rounding limit.
_SERIES_BELOW = 1.0
_SERIES_COEFFS = {
    # 2 pi (1 - J0(t)) = 2 pi sum_k (-1)^(k+1) (t^2/4)^k / (k!)^2
    2: [2.0 * math.pi * (-1) ** (k + 1) / (4.0 ** k * math.factorial(k) ** 2)
        for k in range(1, 11)],
    # 4 pi (1 - sin t / t) = 4 pi sum_k (-1)^(k+1) t^(2k) / (2k+1)!
    3: [4.0 * math.pi * (-1) ** (k + 1) / math.factorial(2 * k + 1)
        for k in range(1, 11)],
}


# max over t >= 0 of |S^(d-1)| - S_d(t): 2 pi (1 - J0) at t ~ 3.832 (J0 >=
# -0.40276) and 4 pi (1 - sin t / t) at t ~ 4.493 (sin t / t >= -0.21724)
_DEFECT_MAX = {2: 2.0 * math.pi * 1.4028, 3: 4.0 * math.pi * 1.2173}

# The multiplier energy keeps the shortest prefix of shells whose tail
# bound is at most this fraction of the prefix's energy: below its last bit.
_MULTIPLIER_TAIL_RTOL = 2.0 ** -55


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
    """Per-call overrides for the product quadrature and x-grids (None
    keeps the default).  A sphere order or x resolution below 1, or a
    radial level outside 0..MAX_RADIAL_LEVEL, raises IntegrationError;
    so does a 2D sphere rule, when built, whose order is not a multiple
    of 4 of at least 8."""

    sphere_order: Optional[int] = None
    radial_level: Optional[int] = None
    x_resolution: Optional[int] = None

    def __post_init__(self):
        if self.sphere_order is not None and self.sphere_order < 1:
            raise IntegrationError("sphere order must be >= 1")
        if self.x_resolution is not None and self.x_resolution < 1:
            raise IntegrationError("x resolution must be >= 1")
        level = self.radial_level
        if level is not None and not 0 <= level <= quadrature.MAX_RADIAL_LEVEL:
            raise IntegrationError(f"radial level must lie in "
                                   f"0..{quadrature.MAX_RADIAL_LEVEL}, got {level}")

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
        ValidityError
            If a probe's mollifier ball reaches a declared point
            singularity of the field, or leaves the box of a grid field.
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


def _declared_singularities(field) -> np.ndarray:
    """The field's declared point singularities, (k, d); none unless it
    is an analytic field that declares them."""
    if isinstance(field, AnalyticField):
        return field.declared_singularities()
    return np.empty((0, field.dimension))


def _check_probe_margin(field, probes, r_max: float) -> None:
    # the integrand is unbounded at a declared point singularity, which no
    # product rule resolves, so no probe's mollifier ball may reach one
    sing = _declared_singularities(field)
    if sing.size:
        gap = np.linalg.norm(probes[:, None, :] - sing[None], axis=2).min(axis=1)
        near = gap <= r_max
        if near.any():
            raise ValidityError(
                f"the mollifier ball of radius {r_max:.3g} at probe "
                f"{probes[np.argmax(near)]} reaches a declared point "
                f"singularity of the field")
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

def _integrand_error(value, centre, r, sigma, stage) -> EvaluationError:
    return EvaluationError(
        f"integrand is {value!r} at centre={centre!r}, r={r!r}, "
        f"sigma={sigma!r}", stage=stage, value=value, centre=centre, r=r,
        sigma=sigma)


def _upper_half(sphere: quadrature.SphereRule) -> quadrature.SphereRule:
    """The nodes of an antipodally symmetric sphere rule with sigma_d > 0,
    their weights doubled: exactly half of the built-in rules' nodes (the
    2D panels split at k pi/2, the 3D rule is Gauss in sigma_3 split at
    0 times an even number of azimuths)."""
    up = sphere.nodes[:, -1] > 0.0
    return quadrature.SphereRule(sphere.dimension, sphere.nodes[up],
                                 2.0 * sphere.weights[up])


def _polar_many(field, mollifier, p, probes, breaks, *, subtract=None,
                omega=None, scheme=DEFAULT_SCHEME, sphere=None) -> np.ndarray:
    """The polar densities at m probes (m, d) -> (m,).

    Each value is sum_r w_r rho(r) r^(d-1-p) sum_sigma w_sigma F(r, sigma)
    with F = |u(x + r sigma) - u(x) [- r g . sigma]|^p, where g is the
    probe's row of ``subtract`` and, given ``omega``, F is zero at nodes
    outside Omega.  The sigma-sum runs over ``sphere``, by default the
    scheme's sphere rule.  Row i of ``breaks`` (m, J) holds the
    breakpoint radii of probe i; they become panel edges of its radial
    rule, graded down to the nearest of them.  With J = 0 all probes
    share one breakpoint-free row; otherwise the rows are stacked, one
    per probe, and built per call.  The shared row
    (``quadrature.kernel_radial_rule``) and the sphere rule are built
    once per key and shared read-only across calls, from bounded caches
    (a level-12 row holds 32768 nodes); the weights divided by r^p, and
    zeroed below the remainder floor, are this call's own copy.

    Probes are taken in blocks of as many as fit in _CHUNK field points
    at the stacked row length, but at least one: a probe whose row alone
    exceeds _CHUNK points is one block (262144 points for a default 3D
    density, 16.8M at radial level 10).  A block evaluates the field
    once at its centres and once at its nodes.  The nodes of a block of
    b probes are written into one reused (d, b, n, K) buffer,
    row i = x_i + (r sigma_i) (the rounding of x + r sigma), and the field
    gets its read-only (N, d) transpose, a column-major view.
    An analytic field is 0 beyond its support radius R; each block
    decides once whether all its probes lie within R (1 - 1e-9) - r_max
    of the origin, where every node is inside the support, and then asks
    ``eval_many`` for its values unmasked.

    Raises
    ------
    EvaluationError
        If the integrand is NaN or infinite at some node; it carries
        stage "polar" and the node as ``value``, ``centre``, ``r`` and
        ``sigma``.
    """
    d = field.dimension
    sphere = scheme.sphere(d) if sphere is None else sphere
    sig, ws = sphere.nodes, sphere.weights
    K = sig.shape[0]
    J = breaks.shape[1]
    # one shared row without breakpoints, else one row per probe; nodes
    # r_all (m, n), weights w rho(r) r^(d-1) / r^p, zero below the
    # remainder floor when a gradient is subtracted
    rule = quadrature.kernel_radial_rule(mollifier, scheme.radial_level,
                                         breakpoints=breaks)
    r_all = np.atleast_2d(rule.nodes)
    # a fresh array: the shared row's weights stay untouched
    wr_all = np.atleast_2d(rule.weights) / r_all ** p
    if subtract is not None:
        wr_all[r_all < _REMAINDER_R_FLOOR * rule.r_max] = 0.0
    n = r_all.shape[1]
    step = max(1, _CHUNK // (n * K))
    store = np.empty(d * min(step, probes.shape[0]) * n * K)
    inner_sq = None
    if isinstance(field, AnalyticField) and math.isfinite(field.support_radius):
        reach = field.support_radius * (1.0 - 1e-9) - rule.r_max
        inner_sq = reach * reach if reach > 0.0 else None
    out = np.empty(probes.shape[0])
    for start in range(0, probes.shape[0], step):
        block = slice(start, start + step)
        x = probes[block]
        r, wr = (r_all[block], wr_all[block]) if J else (r_all, wr_all)
        # row i is x_i + (r sigma_i), the rounding of x + r sigma; row sums
        # over the coordinates run several times faster on the transpose
        nodes = store[:d * x.shape[0] * n * K].reshape(d, x.shape[0], n, K)
        np.add(r[:, :, None] * sig.T[:, None, None, :], x.T[:, :, None, None],
               out=nodes)
        flat = nodes.reshape(d, -1).T
        flat.flags.writeable = False
        # every node of a block whose probes lie within R - r_max is inside
        # the support: the field's per-point mask is skipped
        unmasked = (inner_sq is not None
                    and np.einsum("ij,ij->i", x, x).max() <= inner_sq)
        kw = {"_unmasked": True} if unmasked else {}
        u0 = field.eval_many(x, **kw)
        # inf - inf is NaN; the finite check below refuses it with its node
        with np.errstate(invalid="ignore", over="ignore"):
            diff = (field.eval_many(flat, **kw).reshape(x.shape[0], -1, K)
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
                raise _integrand_error(F[i, j, k], x[i].copy(),
                                       np.broadcast_to(r, inner.shape)[i, j],
                                       sig[k].copy(), "polar")
            raise EvaluationError(f"density sum is {dens[i]!r} at centre={x[i]!r}",
                                  stage="polar")
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
    """The x-region of an integrated functional: the support box enlarged
    by r_max.

    Raises
    ------
    ValidityError
        If the support is unbounded, or the field declares a point
        singularity, where the integrand is unbounded.
    """
    box = field.support_box()
    if box is None:
        raise ValidityError(
            "the field must be compactly supported (bounded support box) "
            "for integrated functionals")
    sing = _declared_singularities(field)
    if sing.size:
        raise ValidityError(
            f"the field declares a point singularity at {sing[0]}; its "
            f"integrand is unbounded there and no quadrature can vouch "
            f"for an integrated value")
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
            "1D energies take the lag route, whose x-panels are fixed, and "
            "cannot honour it")


def _integrate_density_over_x(field, mollifier, p, *, subtract_candidate=None,
                              scheme=DEFAULT_SCHEME) -> float:
    """int D(x) dx over the midpoint grid of a 2D/3D field, with D the
    plain or remainder density.

    Without a candidate each pair is counted once: the integrand
    |u(x + r sigma) - u(x)|^p is unchanged by (x, sigma) ->
    (x + r sigma, -sigma), and the grid covers every x where either side
    is nonzero, so the engine sums the upper half sigma_d > 0 of the
    sphere rule with doubled weights (``_upper_half``), half the field
    evaluations.  A candidate term r U(x) . sigma breaks that symmetry,
    so a residual sums the whole rule.

    An analytic field is 0 beyond its support radius R, so at a probe
    with |x| > R + r_max (with a relative margin of 1e-9 against
    rounding) whose candidate row is 0, u(x) and every u(x + r sigma)
    are masked to 0 and D is exactly 0: such probes are written as 0
    and never reach the engine."""
    _grid_compactness_check(field)
    r_max = mollifier.quadrature_radius()
    lo, hi = _x_region(field, r_max)
    probes, weights = _midpoint_grid(lo, hi, scheme.x_res(field.dimension))
    sub = None if subtract_candidate is None else subtract_candidate.eval_many(probes)
    sphere = scheme.sphere(field.dimension)
    if sub is None:
        sphere = _upper_half(sphere)
    live = np.ones(probes.shape[0], dtype=bool)
    if isinstance(field, AnalyticField) and math.isfinite(field.support_radius):
        reach = (field.support_radius + r_max) * (1.0 + 1e-9)
        live = np.einsum("ij,ij->i", probes, probes) <= reach * reach
        if sub is not None:
            live |= np.any(sub != 0.0, axis=1)
    dens = np.zeros(probes.shape[0])
    dens[live] = _polar_many(field, mollifier, p, probes[live],
                             np.empty((int(live.sum()), 0)),
                             subtract=None if sub is None else sub[live],
                             scheme=scheme, sphere=sphere)
    return float(np.dot(weights, dens))


def _lag_parts(field):
    """(a, h, s): the locations a and nonzero heights h of a 1D field's
    jumps, and its continuous part s (None where it has none).

    A BV field carries its jumps apart from its smooth part.  A set of
    positive length is the jumps +1 at its left end and -1 at its right
    end, with no continuous part; a set of length 0 is 0 almost
    everywhere."""
    if isinstance(field, BVField1D):
        keep = field.jump_heights != 0.0
        return field.jump_locations[keep], field.jump_heights[keep], field.smooth
    if isinstance(field, IndicatorSet):
        a = field.singular_points()
        if a.size == 2 and a[1] > a[0]:
            return a, np.array([1.0, -1.0]), None
        return np.empty(0), np.empty(0), None
    return np.empty(0), np.empty(0), field


def _lag_cuts(base, a, cum_h, cum_hp, lag):
    """The x-pieces of the lags ``lag`` (n,) = sigma r: the base edges,
    every a_i and every a_i - lag, sorted -> edges (n, k) and, on each of
    the k - 1 pieces, K = J(x + lag) - J(x) and M, the sum of |h_i|^p
    over the windows between a_i - lag and a_i that hold the piece.
    Without jumps every lag has the same pieces, the base panels, so the
    arrays have one row, which broadcasts against the lags.

    Both are counted, never evaluated: K and M are differences of the
    prefix sums ``cum_h`` of h_i and ``cum_hp`` of |h_i|^p at the numbers
    of jumps and of shifted jumps left of the piece, so they are exactly
    0 where those numbers agree.
    """
    n = lag.size if a.size else 1
    cuts = np.concatenate([np.broadcast_to(base, (n, base.size)),
                           np.broadcast_to(a, (n, a.size)),
                           a - lag[:n, None]], axis=1)
    order = np.argsort(cuts, axis=1, kind="stable")
    edges = np.take_along_axis(cuts, order, axis=1)
    n_jump = np.cumsum((order >= base.size) & (order < base.size + a.size),
                       axis=1)[:, :-1]
    n_shift = np.cumsum(order >= base.size + a.size, axis=1)[:, :-1]
    K = cum_h[n_shift] - cum_h[n_jump]
    M = np.abs(cum_hp[n_shift] - cum_hp[n_jump])
    return edges, K, M


def _lag_energy(field, mollifier, p, *, candidate=None,
                scheme=DEFAULT_SCHEME) -> float:
    """The energy of a 1D field in lag form, or with ``candidate`` U its
    Sobolev residual (p = 1):

        E = sum_sigma int rho(r) r^-p G_sigma(r) dr,
        G_sigma(r) = int |u(x + sigma r) - u(x) [- sigma r U(x)]|^p dx.

    Without U, G_-(r) = G_+(r) (substitute x -> x + r), so only sigma = +1
    is summed, twice.  Write u = s + J with s continuous and J the jumps
    h_i at a_i (``_lag_parts``; a set is J alone).  Then G_sigma(r) =
    c1 r + (the rest), c1 = sum |h_i|^p, and c1 r goes through the
    closed-form moment c1 mu(1-p), as on the covariogram route.  The
    rest is one radial sum, on a rule split at the distances |a_i - a_j|
    where the windows of two jumps start to overlap (the kinks of G).
    At each lag the x-integral runs over _LAG_X_PANELS uniform panels of
    the support box +- r_max, cut at every a_i and a_i - sigma r
    (``_lag_cuts``): on each piece J(x + sigma r) - J(x) is a constant
    K, so the rest is smooth there wherever s is.  Per piece the sum
    adds its length times |K|^p - M, which is zero where at most one
    window holds it; per node it adds |D|^p - |K|^p with
    D = s(x + sigma r) - s(x) [- sigma r U(x)] + K.
    A pure jump (no s, no U) needs no node, and is integrated exactly.
    Radii are taken in blocks of at most _CHUNK field points.

    Raises
    ------
    EvaluationError
        If the integrand is NaN or infinite at some node; it carries
        stage "lag", the x-node as ``centre``, the lag as ``r`` and its
        sign as ``sigma``.
    """
    _refuse_1d_x_resolution(1, scheme)
    _grid_compactness_check(field)
    r_max = mollifier.quadrature_radius()
    lo, hi = _x_region(field, r_max)
    a, h, cont = _lag_parts(field)
    hp = _abs_power(h, p)
    c1 = float(np.sum(hp))
    cum_h = np.concatenate([[0.0], np.cumsum(h)])
    cum_hp = np.concatenate([[0.0], np.cumsum(hp)])
    rule = quadrature.kernel_radial_rule(
        mollifier, scheme.radial_level,
        breakpoints=np.abs(a[:, None] - a[None, :])[np.triu_indices(a.size, 1)])
    r = rule.nodes
    wr = rule.weights / r ** p
    if candidate is not None:
        wr[r < _REMAINDER_R_FLOOR * r_max] = 0.0
    base = np.linspace(lo[0], hi[0], _LAG_X_PANELS + 1)
    signs = (1.0,) if candidate is None else (1.0, -1.0)
    # x-nodes a lag, each evaluated at x and at x + sigma r
    per_lag = (base.size - 1 + 2 * a.size) * _LAG_X_NODES
    step = max(1, _CHUNK // (2 * per_lag))
    total = 0.0
    for sigma in signs:
        for start in range(0, r.size, step):
            rb = r[start:start + step]
            edges, K, M = _lag_cuts(base, a, cum_h, cum_hp, sigma * rb)
            Kp = _abs_power(K, p)
            G = np.einsum("ij,ij->i", np.diff(edges, axis=1), Kp - M)
            if cont is not None or candidate is not None:
                x, w = quadrature.composite_gauss(edges, _LAG_X_NODES)
                D = np.repeat(K, _LAG_X_NODES, axis=1)
                with np.errstate(invalid="ignore", over="ignore"):
                    if cont is not None:
                        y = x + sigma * rb[:, None]
                        D = (D + cont.eval_many(y.reshape(-1, 1)).reshape(y.shape)
                             - cont.eval_many(x.reshape(-1, 1)).reshape(x.shape))
                    if candidate is not None:
                        U = candidate.eval_many(x.reshape(-1, 1)).reshape(x.shape)
                        D = D - sigma * rb[:, None] * U
                    F = _abs_power(D, p) - np.repeat(Kp, _LAG_X_NODES, axis=1)
                if not np.isfinite(F).all():
                    i, j = np.argwhere(~np.isfinite(F))[0]
                    centre = np.broadcast_to(x, F.shape)[i, j]
                    raise _integrand_error(float(F[i, j]), float(centre),
                                           float(rb[i]), sigma, "lag")
                G = G + np.einsum("ij,ij->i", w, F)
            G = np.broadcast_to(G, rb.shape)
            total += float(np.dot(wr[start:start + step], G))
    total *= 2.0 / len(signs)
    if c1:
        # skipped without jumps: mu(1-p) may be inf there, and 0 * inf is NaN
        total += 2.0 * c1 * mollifier.moment(1.0 - p)
    return total


def _has_jump(field) -> bool:
    """Whether the field jumps across a hypersurface: a bounded set of
    positive volume, or a BV field with a nonzero jump."""
    if isinstance(field, IndicatorSet):
        return field.is_bounded and field.exact_volume() > 0.0
    return isinstance(field, BVField1D) and bool(np.any(field.jump_heights != 0.0))


def _quarter_circle(L1, L2, s):
    """int_0^(pi/2) (L1 - s cos t)_+ (L2 - s sin t)_+ dt for s >= 0: the
    integrand is (L1 - s cos t)(L2 - s sin t) between
    t1 = acos(min(1, L1/s)) and t2 = asin(min(1, L2/s)), 0 elsewhere."""
    with np.errstate(divide="ignore"):
        t1 = np.arccos(np.minimum(1.0, L1 / s))
        t2 = np.arcsin(np.minimum(1.0, L2 / s))

    def P(t):   # an antiderivative of (L1 - s cos t)(L2 - s sin t)
        sin = np.sin(t)
        return L1 * L2 * t + L1 * s * np.cos(t) - L2 * s * sin + 0.5 * s * s * sin * sin
    return np.where(t2 > t1, P(t2) - P(t1), 0.0)


def _box_orthant(L, r):
    """The integral of g(r sigma) over the orthant sigma >= 0 of S^(d-1)
    at the radii r (n,), g(h) = prod_i (L_i - |h_i|)_+ the covariogram of
    the box with sides L: (L - r)_+ in 1D, ``_quarter_circle`` in 2D and
    int_0^(pi/2) (L_3 - r cos phi)_+ G(r sin phi) sin phi dphi in 3D, G
    the quarter circle of L_1, L_2.  That is one Gauss rule in phi per
    radius, on the range where the integrand is nonzero, split where
    r sin phi crosses L_1 and L_2; G grows like (s - L_i)^(3/2) past them,
    so each piece is graded toward both ends.  Radii go in blocks of at
    most _CHUNK nodes."""
    if L.size < 3:
        return np.maximum(L[0] - r, 0.0) if L.size == 1 else _quarter_circle(*L, r)
    L1, L2, L3 = L.tolist()
    grade = 2.0 ** -np.arange(1.0, _BOX_ANGLE_LEVELS + 1)
    x, w = quadrature.composite_gauss(
        np.unique(np.concatenate([[0.0, 1.0], grade, 1.0 - grade])), _BOX_ANGLE_NODES)
    out = np.empty(r.size)
    step = max(1, _CHUNK // (3 * x.size))
    for start in range(0, r.size, step):
        rb = r[start:start + step, None]
        lo = np.arccos(np.minimum(1.0, L3 / rb))
        top = np.maximum(lo, np.arcsin(np.minimum(1.0, math.hypot(L1, L2) / rb)))
        cuts = np.clip(np.arcsin(np.minimum(1.0, np.array([L1, L2]) / rb)), lo, top)
        edges = np.sort(np.concatenate([lo, cuts, top], axis=1), axis=1)
        width = np.diff(edges, axis=1)[:, :, None]
        phi = edges[:, :-1, None] + width * x
        sin, rr = np.sin(phi), rb[:, :, None]
        f = (L3 - rr * np.cos(phi)) * _quarter_circle(L1, L2, rr * sin) * sin
        out[start:start + step] = np.einsum("ijk,ijk->i", width * w, f)
    return out


def _box_closed_form(E, mollifier, p) -> bool:
    """Whether E is a 2D/3D box whose energy is a closed form: of zero
    volume, at the gaussian with p = 1, or with r_max <= min L_i.  The
    sides are differences of corners, so r_max may pass min L_i by a
    relative 1e-9: the rest then grows like (r - L_i)^(3/2), to
    O(1e-9^(5/2)) of the energy, far below rounding."""
    if not isinstance(E.shape, Box) or E.dimension == 1:
        return False
    lo, hi = E.shape.bbox()
    return (E.exact_volume() == 0.0 or (mollifier.kind == "gaussian" and p == 1.0)
            or mollifier.quadrature_radius() <= float(np.min(hi - lo)) * (1.0 + 1e-9))


def _gaussian_box_energy(L, mollifier) -> float:
    """The p = 1 energy of the box with sides L at a gaussian, which is
    separable: rho(r)/r = k exp(-n r^2) with k = C_d n^((d+1)/2), so
    E = 2k int exp(-n |h|^2) (|E| - g(h)) dh = 2k prod_i A_i
    (1 - prod_i (1 - t_i)), A_i = L_i sqrt(pi/n) and
    t_i = erfc(L_i sqrt(n)) + (1 - exp(-n L_i^2)) / (L_i sqrt(pi n));
    through expm1 and log1p it keeps full relative accuracy at large n,
    where |E| and the integral of g nearly cancel."""
    d = L.size
    n = mollifier.param
    tail = np.array([math.erfc(v) for v in (L * math.sqrt(n)).tolist()])
    t = tail - np.expm1(-n * L * L) / (L * math.sqrt(math.pi * n))
    k = constants.gaussian_norm_const(d) * n ** ((d + 1) / 2.0)
    return float(-2.0 * k * np.prod(L * math.sqrt(math.pi / n))
                 * np.expm1(np.sum(np.log1p(-t))))


def _set_energy(E, mollifier, p, route, level) -> float:
    """The energy of a bounded set E on the "box" or "covariogram" route,
    from its covariogram g(h) = |E cap (E + h)|:

        E_p(1_E) = 2 int rho(r) r^(d-1-p) F(r) dr,
        F(r) = int_S (|E| - g(r sigma)) dsigma = S (sum_k P_k r^k + h(r)).

    * A 2D/3D ball has a radial g: S = |S^(d-1)|, P = [c1] with c1 = 2R
      or pi R^2, h(r) = |E| - g(min(r, D)) - c1 r = O(r^3).
    * Every other set is a box with sides L (an interval is one): S = 1,
      P_k = (-1)^(k+1) A_k e_(d-k)(L), the sphere integral of |E| - g
      while |h_i| <= L_i, with A_k = int |sigma_1 ... sigma_k| dsigma =
      2 pi^((d-k)/2) / Gamma((d+k)/2) and e_m the elementary symmetric
      polynomials.  h = |S^(d-1)| |E| - 2^d ``_box_orthant`` - the
      polynomial is 0 for r <= min L_i; it kinks at the face diagonals,
      sides included, where the sphere meets the support of g anew.

    The polynomial goes through the closed-form moments mu(k-p), h
    through one radial sum graded toward 0, toward the diameter D from
    below and toward each kink from above.  On the box route h is 0 on
    the support and the sum is skipped; the gaussian at p = 1 is
    ``_gaussian_box_energy``.  A null set is 0 with no sum.
    """
    if E.exact_volume() == 0.0:
        return 0.0
    d = E.dimension
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    if isinstance(E.shape, Ball) and d > 1:
        R = float(E.shape.radius)
        D = 2.0 * R
        if d == 2:
            # g(t) = 2R^2 acos(t/2R) - (t/2) sqrt(4R^2 - t^2)
            c1 = D

            def F(t):
                s = t / D
                return 2.0 * R * R * (np.arcsin(s) + s * np.sqrt(1.0 - s * s))
        else:
            # g(t) = (pi/12) (4R + t) (2R - t)^2
            c1 = math.pi * R * R

            def F(t):
                return math.pi * (R * R * t - t**3 / 12.0)
        S, P, kinks = sphere, [c1], []

        def h(r):
            return F(np.minimum(r, D)) - c1 * r
    else:
        lo, hi = E.shape.bbox()
        L = hi - lo
        if route == "box" and mollifier.kind == "gaussian" and p == 1.0:
            return _gaussian_box_energy(L, mollifier)
        S, P = 1.0, []
        for k in range(1, d + 1):
            e = sum(math.prod(c) for c in combinations(L.tolist(), d - k))
            P.append((-1) ** (k + 1) * 2.0 * math.pi ** ((d - k) / 2.0)
                     / math.gamma((d + k) / 2.0) * e)
        D = math.hypot(*L.tolist())
        kinks = [math.hypot(*c) for k in range(1, d) for c in combinations(L.tolist(), k)]

        def h(r):
            out = np.zeros_like(r)
            live = r > L.min()
            rl = r[live]
            out[live] = (sphere * float(np.prod(L)) - 2.0 ** d * _box_orthant(L, rl)
                         - sum(c * rl ** k for k, c in enumerate(P, 1)))
            return out
    poly = 0.0
    for k, c in enumerate(P, 1):
        poly += c * mollifier.moment(k - p)
    if route == "box":
        return 2.0 * S * poly
    grade = 2.0 ** -np.arange(1.0, _COVARIOGRAM_GRADE_LEVELS + 1)
    breaks = np.concatenate([D * grade[-1:], D * (1.0 - grade), [D],
                             np.outer(kinks, 1.0 + grade).ravel(), kinks])
    rule = quadrature.kernel_radial_rule(mollifier, level, breakpoints=breaks)
    r = rule.nodes
    tail = np.dot(rule.weights, h(r) / r**p)
    return 2.0 * S * (poly + float(tail))


def sphere_defect(d: int, t: np.ndarray) -> np.ndarray:
    """|S^(d-1)| - S_d(t) for t >= 0, d = 2 or 3, where
    S_d(t) = int_{S^(d-1)} cos(t sigma . e) dsigma is 2 pi J0(t) in 2D
    and 4 pi sin(t)/t in 3D.

    Below t = 1 it is summed from its power series in t^2, so it keeps
    full relative accuracy as t -> 0 (it is |S^(d-1)| t^2 / (2d) there).
    """
    t = np.asarray(t, dtype=float)
    small = t < _SERIES_BELOW
    with np.errstate(invalid="ignore", divide="ignore"):
        if d == 2:
            from scipy.special import j0   # imported on first use: slow to load
            out = 2.0 * math.pi * (1.0 - j0(t))
        else:
            out = 4.0 * math.pi * (1.0 - np.sin(t) / t)
    s = t[small] ** 2
    series = np.zeros_like(s)
    for c in reversed(_SERIES_COEFFS[d]):
        series = s * (c + series)
    out[small] = series
    return out


def _multiplier_rule(mollifier, level: Optional[int]):
    """The nodes r and weights w of m_rho(k) = sum_i w_i (|S^(d-1)| -
    S_d(k r_i)): the breakpoint-free radial rule, weights 2 rho r^(d-3)."""
    rule = quadrature.kernel_radial_rule(mollifier, level)
    r = rule.nodes
    return r, 2.0 * rule.weights / (r * r)


def fourier_multiplier(mollifier, k, level: Optional[int] = None) -> np.ndarray:
    """m_rho(k) = 2 int rho(r) r^(d-3) (|S^(d-1)| - S_d(k r)) dr at the
    wavenumbers k (q,) -> (q,), for d = 2 or 3.

    E_2(u) = (2 pi)^-d int |u^(xi)|^2 m_rho(|xi|) dxi (Plancherel), and
    m_rho(k) -> gamma(d, 2) k^2 as the mollifier concentrates.  The
    integral runs over the breakpoint-free radial rule of ``level``; its
    weights are >= 0, so the sum is at most min(c2 k^2, c0) of
    ``_multiplier_bounds``.  Each k costs one ``sphere_defect`` per
    radial node, which is why the energy drops the shells that carry no
    power.
    """
    d = mollifier.dimension
    r, w = _multiplier_rule(mollifier, level)
    k = np.asarray(k, dtype=float)
    out = np.empty(k.size)
    step = max(1, _CHUNK // r.size)
    for start in range(0, k.size, step):
        out[start:start + step] = sphere_defect(d, np.outer(k[start:start + step], r)) @ w
    return out


def _multiplier_bounds(mollifier, level: Optional[int]) -> tuple[float, float]:
    """(c2, c0) with ``fourier_multiplier(mollifier, k, level)`` <=
    min(c2 k^2, c0) at every k >= 0.

    1 - J0(t) <= min(t^2/4, 1.4028) and 1 - sin t/t <= min(t^2/6, 1.2173),
    so ``sphere_defect`` is at most min(|S^(d-1)| t^2/(2d), _DEFECT_MAX),
    and every weight of the rule is >= 0: c2 is |S^(d-1)|/(2d) sum w r^2
    and c0 is _DEFECT_MAX sum w, each padded by a relative 1e-12 against
    the rounding of the sums and of ``sphere_defect``.
    """
    d = mollifier.dimension
    r, w = _multiplier_rule(mollifier, level)
    pad = 1.0 + 1e-12
    # |S^(d-1)|/(2d) is the first coefficient of the defect's t^2 series
    return (pad * _SERIES_COEFFS[d][0] * float(np.dot(w, r * r)),
            pad * _DEFECT_MAX[d] * float(w.sum()))


def _midpoint_samples(field, lo, hi, n: int) -> np.ndarray:
    """u at the midpoints of [lo, hi] cut into n^d equal cells -> (n,)*d,
    d >= 2, evaluated in slabs of at most _CHUNK points along the first
    axis, each handed to the field as a read-only column-major (N, d) view.

    Raises
    ------
    EvaluationError
        If a sample is NaN or infinite; it carries stage "multiplier", the
        sample as ``value`` and its point as ``centre``.
    """
    first = lo[0] + (hi[0] - lo[0]) / n * (np.arange(n) + 0.5)
    cross, _ = _midpoint_grid(lo[1:], hi[1:], n)
    rows = max(1, _CHUNK // cross.shape[0])
    u = np.empty((n, cross.shape[0]))
    # a coordinate-major slab (d, rows, cross), handed over transposed
    store = np.empty(lo.size * min(rows, n) * cross.shape[0])
    for start in range(0, n, rows):
        x0 = first[start:start + rows]
        slab = store[:lo.size * x0.size * cross.shape[0]].reshape(
            lo.size, x0.size, cross.shape[0])
        slab[0] = x0[:, None]
        slab[1:] = cross.T[:, None, :]
        pts = slab.reshape(lo.size, -1).T
        pts.flags.writeable = False
        vals = field.eval_many(pts)
        if not np.isfinite(vals).all():
            i = int(np.argmin(np.isfinite(vals)))
            raise EvaluationError(f"field sample is {vals[i]!r} at x={pts[i]!r}",
                                  stage="multiplier", value=vals[i],
                                  centre=pts[i].copy())
        u[start:start + x0.size] = vals.reshape(x0.size, -1)
    return u.reshape((n,) * lo.size)


def _shell_masses(power: np.ndarray):
    """(levels, mass): the distinct integer |j|^2 of a half spectrum
    (rfftn layout, n^(d-1) x (n/2 + 1)) in ascending order, and the
    power on each.

    Both are counted by ``np.bincount`` on |j|^2 itself: no sort.  The
    masses accumulate in the spectrum's row-major order, as a
    ``np.unique`` + ``np.bincount(inverse)`` would.
    """
    n = power.shape[0]
    jsq = np.arange(n // 2 + 1) ** 2
    full = np.fft.fftfreq(n, 1.0 / n).astype(np.int64) ** 2
    for _ in range(power.ndim - 1):
        jsq = np.add.outer(full, jsq)
    jsq = jsq.ravel()
    levels = np.flatnonzero(np.bincount(jsq))
    return levels, np.bincount(jsq, weights=power.ravel())[levels]


def _shell_sum(mollifier, k, mass, level) -> tuple[float, int]:
    """(sum_i mass_i m_rho(k_i) over the kept shells, how many were kept)
    for shells of ascending wavenumber k and power mass >= 0.

    m_rho(k) <= min(c2 k^2, c0) (``_multiplier_bounds``), so the shells
    from K on add at most tail[K] = sum_{i >= K} mass_i min(c2 k_i^2, c0).
    The sum keeps the shortest prefix of K shells whose tail[K] is <=
    _MULTIPLIER_TAIL_RTOL times the prefix's own energy, which is every
    shell when no shorter prefix passes.  m_rho is evaluated only up to
    hi: no prefix shorter than lo, the first with tail <= rtol tail[0],
    passes, because an energy is at most tail[0]; the prefix hi, the
    first with tail <= rtol times lo's energy, does.
    """
    c2, c0 = _multiplier_bounds(mollifier, level)
    tail = np.append(np.cumsum((mass * np.minimum(c2 * k * k, c0))[::-1])[::-1], 0.0)
    rtol = _MULTIPLIER_TAIL_RTOL
    lo = int(np.argmax(tail <= rtol * tail[0]))
    m = fourier_multiplier(mollifier, k[:lo], level)
    # running sums, so the energy that sets hi is kept[lo] below, bit for bit
    kept = np.cumsum(np.append(0.0, mass[:lo] * m))
    hi = max(lo, int(np.argmax(tail <= rtol * kept[-1])))
    m = np.append(m, fourier_multiplier(mollifier, k[lo:hi], level))
    kept = np.cumsum(np.append(0.0, mass[:hi] * m))
    K = int(np.argmax(tail[:hi + 1] <= rtol * kept))
    return float(np.dot(mass[:K], m[:K])), K


def _multiplier_shells(field, mollifier, scheme):
    """(k, mass, scale) of a p = 2 energy: the field's distinct
    wavenumbers on its sampling grid (ascending), the power on each, and
    the factor V n^(-2d) that turns sum mass m_rho(k) into E_2."""
    d = field.dimension
    lo, hi = _x_region(field, mollifier.quadrature_radius())
    n = 2 * scheme.x_res(d)
    spectrum = np.fft.rfftn(_midpoint_samples(field, lo, hi, n))
    power = spectrum.real ** 2 + spectrum.imag ** 2
    # the half spectrum stands for the conjugate modes it omits
    power[..., 1:(n + 1) // 2] *= 2.0
    levels, mass = _shell_masses(power)
    L = float(hi[0] - lo[0])
    return 2.0 * math.pi / L * np.sqrt(levels), mass, L ** d / n ** (2 * d)


def _multiplier_energy(field, mollifier, scheme) -> float:
    """E_2 of a smooth 2D/3D field by its Fourier multiplier.

    The field is sampled on the midpoint grid of 2 x_res(d) cells a side
    over the support box enlarged by r_max, a period longer than the
    support plus r_max, so the energy of the periodic extension is the
    energy.  Then E_2 = V n^(-2d) sum_xi |DFT(u)(xi)|^2 m_rho(|xi|) over
    the grid's wavenumbers xi = 2 pi j / L: the support box of an
    analytic field is a cube, so |xi|^2 = (2 pi / L)^2 |j|^2 on every
    axis alike, and the power is summed per distinct integer |j|^2 by
    ``np.bincount`` (``_shell_masses``).  m_rho is computed only on the
    shortest prefix of shells, in ascending |j|, whose dropped tail is
    provably <= 2^-55 of the kept energy (``_shell_sum``): the smooth
    fields' power falls below that within a few hundred of the tens of
    thousands of shells, and the value moves by rounding alone.
    """
    k, mass, scale = _multiplier_shells(field, mollifier, scheme)
    return float(scale * _shell_sum(mollifier, k, mass, scheme.radial_level)[0])


# The QuadratureScheme fields each route reads: the five of ``energy``
# and ``sobolev_residual``, and "polar", the density at probes.  A 1D
# field reads no sphere_order on any route: its sphere is {-1, +1}.
ROUTE_READS = {
    "polar": ("sphere_order", "radial_level"),
    "box": (),
    "covariogram": ("radial_level",),
    "multiplier": ("x_resolution", "radial_level"),
    "lag": ("radial_level",),
    "tensor": ("sphere_order", "radial_level", "x_resolution"),
}


def energy_route(field, p, mollifier) -> str:
    """The route ``energy`` takes: "box", "covariogram", "multiplier",
    "lag" or "tensor".

    Every bounded set takes "box" or "covariogram": "box" for a 2D/3D box
    whose energy is a closed form (of zero volume, at the gaussian with
    p = 1, or at r_max <= every side), "covariogram" for every other
    bounded set, null intervals and balls included.  Then "multiplier"
    for p = 2 and an analytic field in 2D or 3D, "lag" for every other
    1D field, and "tensor" for every other 2D/3D field: analytic fields
    at p != 2, grid fields and half-spaces.
    """
    if isinstance(field, IndicatorSet) and field.is_bounded:
        return "box" if _box_closed_form(field, mollifier, float(p)) else "covariogram"
    if field.dimension == 1:
        return "lag"
    if p == 2 and isinstance(field, AnalyticField):
        return "multiplier"
    return "tensor"


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

    ``energy_route`` names the route taken, and ``ROUTE_READS`` the
    scheme fields it reads:

    * box and covariogram, for every bounded set: one function of its
      covariogram g(h) = |E cap (E + h)|, with no x-grid, sphere rule or
      field evaluation (``_set_energy``); a null set has energy 0.
    * multiplier, for p = 2 and an analytic field in 2D or 3D: one FFT
      of the field's samples times the multiplier m_rho(|xi|), on the
      shells of |xi| that carry power (``_multiplier_energy``).  The
      sampling grid has 2 x_res(d) cells a side because the samples
      alias: for the 3D bump with indicator(1/4) at x_resolution 16, 16
      cells a side leave a relative error of 7.9e-3 and 32 cells 9e-13.
    * lag, for every other 1D field: the x-integral first, at each node
      of one radial rule (``_lag_energy``).
    * tensor, for every other 2D/3D field: a midpoint x-grid whose nodes
      go through the polar engine (``_integrate_density_over_x``).

    A field that declares a point singularity raises ValidityError on
    every route; a NaN or infinite sample or integrand raises
    EvaluationError.

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
    route = energy_route(field, p, mollifier)
    if route in ("box", "covariogram"):
        return _set_energy(field, mollifier, p, route, scheme.radial_level)
    if route == "multiplier":
        return _multiplier_energy(field, mollifier, scheme)
    if route == "lag":
        return _lag_energy(field, mollifier, p, scheme=scheme)
    return _integrate_density_over_x(field, mollifier, p, scheme=scheme)


def residual_route(field) -> str:
    """The route ``sobolev_residual`` takes: "lag" for a 1D field (the
    lag integral of ``_lag_energy``), "tensor" otherwise."""
    return "lag" if field.dimension == 1 else "tensor"


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
    scheme = scheme or DEFAULT_SCHEME
    if residual_route(field) == "lag":
        return _lag_energy(field, mollifier, 1.0, candidate=cand, scheme=scheme)
    return _integrate_density_over_x(field, mollifier, 1.0,
                                     subtract_candidate=cand, scheme=scheme)


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
        return g * field.gradient_norm_integral(p)
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
        lambda m: _lag_energy(field, m, 1.0, candidate=candidate, scheme=scheme),
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
