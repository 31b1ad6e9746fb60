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

Quadrature notes.  ``energy`` takes one of six routes, which
``energy_route`` names.  A ``sobolev_residual`` with a zero candidate is
the p = 1 energy and takes its route; one with a nonzero candidate takes
lag or tensor (``residual_route``).  ``ROUTE_READS`` says which
``QuadratureScheme`` fields each route, and the polar density, reads:

* jump: every pure-jump 1D field (a BV field with no smooth part, or a
  bounded 1D set); a closed form in the kernel's tail moments, with no
  rule;
* box: 2D/3D boxes whose energy is a closed form (the gaussian at
  p = 1, or r_max <= every side);
* covariogram: every other 2D/3D bounded set (disks, 3D balls and
  boxes) at any p; one radial sum;
* multiplier: p = 2 and an analytic field in 1D, 2D or 3D; one FFT of
  the field's samples (on the x-grid) times the Fourier multiplier of
  the mollifier (on one radial rule);
* lag: every other 1D field, and every 1D ``sobolev_residual`` with a
  nonzero candidate; the x-integral first, over fixed panels, at each
  node of one radial rule (``x_resolution`` is refused);
* sliced: every other 2D/3D field and exponent: 1D lag integrals along
  the lines of half the directions, cut at the kinks of |.|^p (the
  ``sliced`` module); a 2D/3D grid field has no energy route and is
  refused there;
* tensor: every 2D/3D ``sobolev_residual`` with a nonzero candidate (a
  set is refused); a midpoint x-grid whose nodes go through the polar
  engine (``_tensor_residual``).

On the tensor route the y-integral is evaluated in polar coordinates
with no node at r = 0 (the measure rho(r) r^(d-1) dr has no atom there,
so the 0/0 difference quotient never arises).  One engine,
``_polar_many``, computes the polar density for a batch of probes and
is the only polar sum here: each probe's radial rule is split at the
breakpoint radii its caller passes that fall inside the kernel ball, and
the probes go in blocks of at most _CHUNK = 32768 field points, handed
to the field column-major.  What depends only on a cache key is built
once and shared read-only: probes whose breakpoints all lie at or
beyond r_max share the breakpoint-free row, and that row's offsets
r sigma with a sphere rule are one table per (mollifier, level, sphere
rule) when they fit one block.  A lone 1D or 2D probe then pays for its
field evaluations, one node add and its sums.  A density at one probe or
at a batch of probes is one engine call, with the field's (and Omega's)
breakpoints.  A residual is one midpoint grid and one engine call, whose
blocks of b > 1 probes share a table: each pays for its two field calls,
one BLAS product for its nodes, one for its candidate term U . (r sigma),
and its sums, taken in place.

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
c1 mu(1-p).  With no smooth part G is piecewise linear in r, kinked at
the gaps between jumps, so the rest is the tail moments
M(k, g) = int_g^inf rho r^k dr at those gaps (``_jump_energy``).  With
one, the rest is one radial sum over G, whose x-integral runs over
fixed uniform panels cut at the jumps and at the jumps shifted by the
lag, where the integrand is smooth (``_lag_energy``).

The energy of a 2D/3D bounded set E is one function of its covariogram
g(h) = |E cap (E + h)| (``_set_energy``), with no x-rule or engine:
E = 2 int rho(r) r^(d-1-p) F(r) dr, F(r) = int_S (|E| - g(r sigma)) dsigma.
F is a polynomial sum_k P_k r^k, whose part is the closed-form moments
P_k mu(k-p), plus a rest h, which is one radial sum graded at the set's
kink radii.  A ball's g is radial and its
polynomial is c1 r; a box's g = prod_i (L_i - |h_i|)_+ makes |E| - g a
polynomial in the |h_i| up to r = min L_i, where h starts.  The
gaussian at p = 1 is separable for a box.  A field with a jump has infinite energy from the exponent at which the moment
mu(1-p) diverges on; ``energy`` then returns ``math.inf`` on every
route.

At p = 2 the energy is a Fourier multiplier (Plancherel):
E_2(u) = (2 pi)^-d int |u^(xi)|^2 m_rho(|xi|) dxi with
m_rho(k) = 2 int rho(r) r^(d-3) (|S^(d-1)| - S_d(k r)) dr, S_1 = 2 cos t,
S_2 = 2 pi J0 and S_3 = 4 pi sin t / t.  A smooth field is sampled once
on a periodic grid whose period exceeds its support plus r_max, so the
periodic energy is the energy.  The power is summed per distinct integer
|j|^2 (a shell) by ``np.bincount``, and m_rho is computed on the
breakpoint-free radial rule only for the shells that carry power: its
weights are >= 0, so m_rho(k) <= min(c2 k^2, c0), and the sum keeps the
shortest prefix of shells, by ascending |xi|, whose dropped tail
sum mass min(c2 k^2, c0) is <= 2^-55 of the kept energy.  What depends
only on its key is built once and shared read-only: the multiplier row
(nodes, weights 2 rho r^(d-3) and c2, c0) per (mollifier, level), the
size of its kernel row, beside ``quadrature``'s kernel rows; and the
shell index of an n-point d-grid, each rfftn entry's shell as an int32
(n^(d-1) (n/2 + 1) entries, 4.2 MB at n = 128 in 3D) with the ascending
|j|^2, for the last _SHELL_INDEX_CACHE_SIZE grids.  A p = 2 energy then
pays for its samples, its FFT, one bincount and one m_rho per kept shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from . import constants, quadrature, sliced
from .constants import _exponent, gamma
from .errors import (DimensionError, DomainError, EvaluationError,
                     IntegrationError, ProbeError, ValidityError)
from .fields import (AnalyticField, Ball, Box, BVField1D, GridField, IndicatorSet,
                     VectorField, as_points, gradient_candidate, zero_vector_field)
from .mollifiers import RadialMollifier
from .quadrature import _abs_power
from .reports import ConvergenceReport

DEFAULT_X_RESOLUTION = {1: 256, 2: 256, 3: 64}
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


# max over t >= 0 of |S^(d-1)| - S_d(t): 2 - 2 cos t = 4 at t = pi,
# 2 pi (1 - J0) at t ~ 3.832 (J0 >= -0.40276) and 4 pi (1 - sin t / t)
# at t ~ 4.493 (sin t / t >= -0.21724)
_DEFECT_MAX = {1: 4.0, 2: 2.0 * math.pi * 1.4028, 3: 4.0 * math.pi * 1.2173}

# The multiplier energy keeps the shortest prefix of shells whose tail
# bound is at most this fraction of the prefix's energy: below its last bit.
_MULTIPLIER_TAIL_RTOL = 2.0 ** -55


@dataclass(frozen=True)
class QuadratureScheme:
    """Per-call overrides for the product quadrature and x-grids (None
    keeps the default).  ``x_resolution`` sets the tensor route's 2D/3D
    midpoint x-grid (``DEFAULT_X_RESOLUTION``), half the multiplier
    route's sampling grid, in 1D too, and the sliced route's lines a side
    (``sliced._SLICED_X_RESOLUTION``); ``ROUTE_READS`` says which route
    reads which field.  A sphere order or x resolution below 1, or a
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
        """The request's parts, checked: matching dimensions, a finite p >= 1,
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
        p = _exponent(self.p)
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
        return field, m, p, probes, scheme


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

# offset tables kept: one fits an engine block, n K <= _CHUNK points of a
# row of ones and d <= 3 coordinates, at most 1 MiB, so the cache holds at
# most 32 MiB (a default 2D density's table is 8192 points, 192 KiB)
_OFFSET_CACHE_SIZE = 32


@lru_cache(maxsize=_OFFSET_CACHE_SIZE)
def _offset_table(row: quadrature.KernelRule, sphere: quadrature.SphereRule) -> np.ndarray:
    """[1; r_j sigma_k]: a row of ones over the offsets of a shared radial
    row and a sphere rule, (1 + d, n K) with column j K + k, the right
    operand of the engine's node product; built once per pair, shared
    read-only."""
    d, n = sphere.dimension, row.nodes.size
    table = np.ones((1 + d, n * sphere.nodes.shape[0]))
    np.multiply(row.nodes[:, None], sphere.nodes.T[:, None, :],
                out=table[1:].reshape(d, n, -1))
    return quadrature._read_only(table)[0]


def _polar_many(field, mollifier, p, probes, breaks, *, subtract=None,
                omega=None, origin_power=0.0, scheme=DEFAULT_SCHEME) -> np.ndarray:
    """The polar densities at m probes (m, d) -> (m,).

    Each value is sum_r w_r rho(r) r^(d-1-p) sum_sigma w_sigma F(r, sigma)
    with F = |u(x + r sigma) - u(x) [- g . (r sigma)]|^p, where g is the
    probe's row of ``subtract`` and, given ``omega``, F is zero at nodes
    outside Omega.  The sigma-sum runs over the scheme's sphere rule.
    Row i of ``breaks`` (m, J) holds the
    breakpoint radii of probe i; those inside (0, r_max) become panel
    edges of its radial rule, graded down to the nearest of them, and
    ``origin_power`` is the integrand's own power of r at 0, which a
    power law's first panel carries (``quadrature.radial_rule``).  When
    every breakpoint lies at or beyond r_max (J = 0 included), which
    ``radial_rules`` would ignore, all probes share one breakpoint-free
    row, bit for bit the rule they would get; otherwise the rows are
    stacked, one per probe, and built per call.

    What depends only on its key is built once and shared read-only: the
    shared row (``quadrature.kernel_radial_rule``, a level-12 row holds
    32768 nodes), the sphere rule, and the shared row's offsets r sigma
    under a row of ones per (mollifier, level, sphere rule)
    (``_offset_table``), kept only when its n K points fit one block
    (_CHUNK): a default 2D density has 8192, a default 3D one 262144,
    whose offsets are this call's own.  The weights divided by r^p, and
    zeroed below the remainder floor, are this call's own copy.

    Probes are taken in blocks of as many as fit in _CHUNK field points
    at the row length, but at least one: a probe whose row alone exceeds
    _CHUNK points is one block (16.8M points at radial level 10 in 3D).
    A block evaluates the field once at its centres and once at its
    nodes.  The nodes of a block of b probes are written into one reused
    (d, b, n K) buffer, row i = x_i + (r sigma) (the rounding of
    x + r sigma), and the field gets its read-only (N, d) transpose, a
    column-major view.  With a table, the rows of a block of b > 1
    probes are one BLAS product [x_c, e_c] @ [1; r sigma] (lhs @ table),
    whose entries x 1 + 1 t + 0 t' have exact products and round once,
    to x + t (only a node of -0.0 would come out +0.0, and no offset is
    0), while a lone probe adds its offsets and builds no BLAS operand.
    With a table the candidate term g . (r sigma) is one BLAS product of
    the block's candidates with the offsets; a lone probe's candidate goes
    in twice, so that BLAS rounds it as in a block of more and a value
    does not depend on its batch.  A row without a table (stacked rows,
    a default 3D row) takes its offsets as r_j sigma_k and its candidate
    term as r (g . sigma).  u(x + r sigma) - u(x), the candidate term
    and |.|^p are taken in place in the block's spent node buffer.
    An analytic field is 0 beyond its support radius R; each call
    decides once which probes lie within R (1 - 1e-9) - r_max of the
    origin, where every node is inside the support, and a block of
    such probes asks ``eval_many`` for its values unmasked.

    Raises
    ------
    EvaluationError
        If the integrand is NaN or infinite at some node; it carries
        stage "polar" and the node as ``value``, ``centre``, ``r`` and
        ``sigma``.
    """
    d = field.dimension
    sphere = scheme.sphere(d)
    sig, ws = sphere.nodes, sphere.weights
    K = sig.shape[0]
    r_max = mollifier.quadrature_radius()
    per_probe = breaks.size > 0 and breaks.min() < r_max
    rule = quadrature.kernel_radial_rule(mollifier, scheme.radial_level, origin_power=origin_power,
                                         breakpoints=breaks if per_probe else ())
    # nodes r_all (1 or m, n), weights w rho(r) r^(d-1) / r^p, a fresh
    # array zeroed below the remainder floor when a gradient is subtracted
    r_all = np.atleast_2d(rule.nodes)
    wr_all = np.atleast_2d(rule.weights) / r_all ** p
    if subtract is not None:
        wr_all[r_all < _REMAINDER_R_FLOOR * r_max] = 0.0
    n = r_all.shape[1]
    nK = n * K
    step = max(1, min(_CHUNK // nK, probes.shape[0]))
    table = _offset_table(rule, sphere) if not per_probe and nK <= _CHUNK else None
    # the nodes of a block, then in its first two rows its difference and
    # candidate term
    store = np.empty(max(d, 2) * step * nK)
    if table is not None and step > 1:   # lone probes take the plain add
        lhs = np.zeros((d, step, 1 + d))
        lhs[:, :, 1:] = np.eye(d)[:, None, :]
    # the probes within R (1 - 1e-9) - r_max of an analytic field's support
    R = field.support_radius if isinstance(field, AnalyticField) else math.inf
    reach = R * (1.0 - 1e-9) - r_max
    inside = (np.einsum("ij,ij->i", probes, probes) <= reach * reach
              if 0.0 < reach < math.inf else None)
    out = np.empty(probes.shape[0])
    # inf - inf is NaN; the finite check below refuses it with its node
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, probes.shape[0], step):
            block = slice(start, start + step)
            x = probes[block]
            b = x.shape[0]
            r, wr = (r_all[block], wr_all[block]) if per_probe else (r_all, wr_all)
            # row sums over the coordinates run several times faster on the
            # transpose
            nodes = store[:d * b * nK].reshape(d, b, nK)
            if table is not None and b > 1:
                lhs[:, :b, 0] = x.T
                np.matmul(lhs[:, :b], table, out=nodes)
            else:
                # a row without a table forms its offsets as a temporary:
                # kept alive through the field call, a default 3D row's 6 MB
                # of them doubled its page faults
                np.add((r[:, :, None] * sig.T[:, None, None, :] if table is None else table[1:])
                       .reshape(d, -1, nK), x.T[:, :, None], out=nodes)
            flat, = quadrature._read_only(nodes.reshape(d, -1).T)
            # every node of a block whose probes lie within R - r_max is
            # inside the support: the field's per-point mask is skipped
            kw = {"_unmasked": True} if inside is not None and inside[block].all() else {}
            u0 = field.eval_many(x, **kw)
            vals = field.eval_many(flat, **kw).reshape(b, nK)
            outside = None if omega is None else ~omega.contains(flat).reshape(b, nK)
            spent = store[:2 * b * nK].reshape(2, b, nK)
            diff = np.subtract(vals, u0[:, None], out=spent[0])
            if subtract is not None and table is not None:
                # a lone probe's candidate goes in twice: BLAS takes a one-row
                # product another way, which rounds it differently
                g = subtract[block] if b > 1 else np.repeat(subtract[block], 2, axis=0)
                diff -= np.matmul(g, table[1:], out=spent[1] if b > 1 else None)[:b]
            elif subtract is not None:
                diff -= (r[:, :, None] * (subtract[block] @ sig.T)[:, None, :]).reshape(b, nK)
            if outside is not None:
                np.copyto(diff, 0.0, where=outside)
            F = _abs_power(diff, p, out=diff)
            inner = (F.reshape(-1, K) @ ws).reshape(b, n)
            dens = np.einsum("ij,ij->i", wr, inner)
            if not np.isfinite(dens).all():
                i = int(np.argmin(np.isfinite(dens)))
                if np.isfinite(F[i]).all():
                    raise EvaluationError(f"density sum is {dens[i]!r} at centre={x[i]!r}",
                                          stage="polar")
                j, k = divmod(int(np.argmin(np.isfinite(F[i]))), K)
                raise EvaluationError.at_node(F[i, j * K + k], x[i].copy(),
                                              np.broadcast_to(r, inner.shape)[i, j],
                                              sig[k].copy(), "polar")
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
    # below its nearest breakpoint the remainder of u is O(r^2), so its
    # integrand carries r^p at 0
    values = _polar_many(field, m, p, probes, field.difference_breakpoints(probes),
                         subtract=field.gradient_many(probes), origin_power=p, scheme=scheme)
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
        v = np.abs(field.values)
        edge = max(float(np.take(v, i, axis=ax).max()) for ax in range(v.ndim) for i in (0, -1))
        if edge > 1e-6 * (float(v.max()) or 1.0):
            raise ValidityError("grid field is not negligible at the box edge; enlarge "
                                "the box before integrating")


def _midpoint_grid(lo, hi, n):
    """The midpoint rule of [lo, hi] cut into n^d equal cells -> (n^d, d), (n^d,)."""
    h = (hi - lo) / n
    axes = [lo[ax] + h[ax] * (np.arange(n) + 0.5) for ax in range(lo.size)]
    X = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return X, np.full(X.shape[0], float(np.prod(h)))


def _refuse_1d_x_resolution(d: int, scheme: QuadratureScheme, route: str) -> None:
    if (d == 1 and scheme.x_resolution is not None
            and "x_resolution" not in ROUTE_READS[route]):
        raise DomainError(
            f"x_resolution sets the sampling grid of the multiplier route "
            f"(p = 2 energies of analytic fields) and the lines of 2D/3D "
            f"energies; this 1D energy takes the {route} route, which "
            f"has no x-grid to set, and cannot honour it")


def _tensor_residual(field, mollifier, candidate, scheme=DEFAULT_SCHEME) -> float:
    """The p = 1 Sobolev residual of a 2D/3D field with the candidate U:
    int D(x) dx over the midpoint grid, D the density of u(x + r sigma) -
    u(x) - U(x) . (r sigma) through the polar engine, on the whole sphere
    rule (the candidate term breaks the symmetry that would halve it).
    Its rows share the breakpoint-free row, so where that row's offsets
    fit one block the engine takes the candidate term as one BLAS product
    of a block's candidates with the offset table (``_polar_many``).

    An analytic field is 0 beyond its support radius R, so at a probe
    with |x| > R + r_max (with a relative margin of 1e-9 against
    rounding) whose candidate row is 0, u(x) and every u(x + r sigma)
    are masked to 0 and D is exactly 0: such probes are written as 0
    and never reach the engine.

    A set raises DomainError, as in ``remainder_density``: the grid and
    the engine's rows have no breakpoint at its boundary, where the
    integrand jumps."""
    if isinstance(field, IndicatorSet):
        raise DomainError("the tensor route has no breakpoint at a set's boundary")
    _grid_compactness_check(field)
    r_max = mollifier.quadrature_radius()
    lo, hi = _x_region(field, r_max)
    probes, weights = _midpoint_grid(lo, hi, scheme.x_res(field.dimension))
    sub = candidate.eval_many(probes)
    # every probe is live but for an analytic field's beyond R + r_max
    R = field.support_radius if isinstance(field, AnalyticField) else math.inf
    reach = (R + r_max) * (1.0 + 1e-9)
    live = np.any(sub != 0.0, axis=1) | (np.einsum("ij,ij->i", probes, probes)
                                         <= reach * reach)
    dens = np.zeros(probes.shape[0])
    dens[live] = _polar_many(field, mollifier, 1.0, probes[live],
                             np.empty((int(live.sum()), 0)), subtract=sub[live],
                             scheme=scheme)
    return float(np.dot(weights, dens))


def _lag_parts(field):
    """(a, h, s): the locations a and heights h of a 1D field's jumps,
    and its continuous part s (None where it has none).

    A BV field carries its jumps apart from its smooth part.  A set of
    positive length is the jumps +1 at its left end and -1 at its right
    end (its singular points), with no continuous part; a null set has
    no singular point."""
    if isinstance(field, BVField1D):
        return field.jump_locations, field.jump_heights, field.smooth
    if isinstance(field, IndicatorSet):
        a = field.singular_points()
        return a, np.array([1.0, -1.0])[:a.size], None
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


def _jump_sums(a, h, p):
    """The kinks |a_i - a_j| of G, c1 = sum |h_i|^p, and the prefix sums
    of h_i and |h_i|^p that ``_lag_cuts`` counts with."""
    hp = _abs_power(h, p)
    return (np.abs(a[:, None] - a[None, :])[np.triu_indices(a.size, 1)], float(np.sum(hp)),
            np.concatenate([[0.0], np.cumsum(h)]), np.concatenate([[0.0], np.cumsum(hp)]))


def _jump_energy(field, mollifier, p) -> float:
    """The energy of a pure-jump 1D field, a BV field with no smooth part
    or a bounded 1D set, in closed form, with no rule and no evaluation.

    G(r) = int |J(x + r) - J(x)|^p dx is piecewise linear in r, with kinks
    only at the gaps g_k between jumps, where two windows start to
    overlap: G = c1 r up to the first gap, and past the last its slope is
    |sum h_i|^p.  ``_lag_cuts`` at the gaps gives G - c1 r exactly there,
    so G = c1 r + sum_k s_k (r - g_k)_+, s_k the change of slope at g_k, and

        E = 2 int rho r^-p G dr
          = 2 c1 mu(1-p) + 2 sum_k s_k (M(1-p, g_k) - g_k M(-p, g_k)),

    M(k, g) = ``moment(k, g)`` the tail moment beyond g.  As on every
    route, the kernel ends at r_max: gaps there or past it add nothing,
    so with none below it the energy is 2 c1 mu(1-p) alone.
    """
    r_max = mollifier.quadrature_radius()
    _x_region(field, r_max)     # refuses an unbounded support
    a, h, _ = _lag_parts(field)
    gaps, c1, cum_h, cum_hp = _jump_sums(a, h, p)
    # without jumps mu(1-p) may be inf, and 0 * inf is NaN
    total = 2.0 * c1 * mollifier.moment(1.0 - p) if c1 else 0.0
    gaps = np.unique(gaps)
    if not gaps.size or gaps[0] >= r_max:
        return total
    edges, K, M = _lag_cuts(np.empty(0), a, cum_h, cum_hp, gaps)
    rest = np.einsum("ij,ij->i", np.diff(edges, axis=1), _abs_power(K, p) - M)
    slope = np.concatenate([[0.0], np.diff(rest) / np.diff(gaps),
                            [abs(float(np.sum(h))) ** p - c1]])
    for g, s in zip(gaps[gaps < r_max].tolist(), np.diff(slope).tolist()):
        total += 2.0 * s * (mollifier.moment(1.0 - p, g) - g * mollifier.moment(-p, g))
    return total


def _lag_energy(field, mollifier, p, *, candidate=None,
                scheme=DEFAULT_SCHEME) -> float:
    """The energy of a 1D field with a continuous part in lag form, or
    with ``candidate`` U the Sobolev residual (p = 1) of any 1D field:

        E = sum_sigma int rho(r) r^-p G_sigma(r) dr,
        G_sigma(r) = int |u(x + sigma r) - u(x) [- sigma r U(x)]|^p dx.

    Without U, G_-(r) = G_+(r) (substitute x -> x + r), so only sigma = +1
    is summed, twice.  Write u = s + J with s continuous and J the jumps
    h_i at a_i (``_lag_parts``; a set is J alone).  Then G_sigma(r) =
    c1 r + (the rest), c1 = sum |h_i|^p, and c1 r goes through the
    closed-form moment c1 mu(1-p), as on the jump route.  The
    rest is one radial sum, on a rule split at the distances |a_i - a_j|
    where the windows of two jumps start to overlap (the kinks of G).
    At each lag the x-integral runs over _LAG_X_PANELS uniform panels of
    the support box +- r_max, cut at every a_i and a_i - sigma r
    (``_lag_cuts``): on each piece J(x + sigma r) - J(x) is a constant
    K, so the rest is smooth there wherever s is.  Per piece the sum
    adds its length times |K|^p - M, which is zero where at most one
    window holds it; per node it adds |D|^p - |K|^p with
    D = s(x + sigma r) - s(x) [- sigma r U(x)] + K.  Below the nearest
    gap the windows' share of that sum is r^2 times a smooth function
    of r and the rest r^p times one, so with jumps, a continuous part
    and a non-integer p the windows' share is summed on the rule of
    origin power 2 - p, whose first-panel lags are appended.
    Radii are taken in blocks of at most _CHUNK field points.

    Raises
    ------
    EvaluationError
        If the integrand is NaN or infinite at some node; it carries
        stage "lag", the x-node as ``centre``, the lag as ``r`` and its
        sign as ``sigma``.
    """
    _refuse_1d_x_resolution(1, scheme, "lag")
    _grid_compactness_check(field)
    r_max = mollifier.quadrature_radius()
    lo, hi = _x_region(field, r_max)
    a, h, cont = _lag_parts(field)
    gaps, c1, cum_h, cum_hp = _jump_sums(a, h, p)
    rule = quadrature.kernel_radial_rule(mollifier, scheme.radial_level,
                                         breakpoints=gaps)
    r, wr = rule.nodes, rule.weights / rule.nodes ** p
    if candidate is not None:
        wr[r < _REMAINDER_R_FLOOR * r_max] = 0.0
    # below the nearest gap the windows' share of G (its pieces with K !=
    # 0) is r^2 times a smooth function and the rest r^p times one, so at
    # a non-integer p the windows' share takes the rule whose first panel
    # is Gauss in r^(2-p) too: ``split`` moves it from the plain rule's
    # first-panel lags to that rule's, appended (a power law's; any other
    # kernel's rule is the same, and its split is 0)
    split = None
    if candidate is None and c1 and cont is not None and p != round(p):
        win = quadrature.kernel_radial_rule(mollifier, scheme.radial_level,
                                            breakpoints=gaps, origin_power=2.0 - p)
        head = win.nodes != r
        split = np.concatenate([-wr * head, win.weights[head] / win.nodes[head] ** p])
        r, wr = np.concatenate([r, win.nodes[head]]), np.concatenate([wr, 0.0 * win.nodes[head]])
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
                raise EvaluationError.at_node(float(F[i, j]), float(centre),
                                       float(rb[i]), sigma, "lag")
            G = (np.einsum("ij,ij->i", np.diff(edges, axis=1), Kp - M)
                 + np.einsum("ij,ij->i", w, F))
            G = np.broadcast_to(G, rb.shape)
            total += float(np.dot(wr[start:start + step], G))
            if split is not None:
                F[np.repeat(K == 0.0, _LAG_X_NODES, axis=1)] = 0.0
                total += float(np.dot(split[start:start + step], np.einsum("ij,ij->i", w, F)))
    total *= 2.0 / len(signs)
    if c1:
        # skipped without jumps: mu(1-p) may be inf there, and 0 * inf is NaN
        total += 2.0 * c1 * mollifier.moment(1.0 - p)
    return total


def _has_jump(field) -> bool:
    """Whether the field jumps across a hypersurface: a bounded set of
    positive volume, or a BV field with a jump."""
    if isinstance(field, IndicatorSet):
        return field.is_bounded and field.exact_volume() > 0.0
    return isinstance(field, BVField1D) and field.jump_locations.size > 0


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
    the 2D/3D box with sides L: ``_quarter_circle`` in 2D and
    int_0^(pi/2) (L_3 - r cos phi)_+ G(r sin phi) sin phi dphi in 3D, G
    the quarter circle of L_1, L_2.  That is one Gauss rule in phi per
    radius, on the range where the integrand is nonzero, split where
    r sin phi crosses L_1 and L_2; G grows like (s - L_i)^(3/2) past them,
    so each piece is graded toward both ends.  Radii go in blocks of at
    most _CHUNK nodes."""
    if L.size == 2:
        return _quarter_circle(*L, r)
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
    """The energy of a 2D/3D bounded set E on the "box" or "covariogram"
    route, from its covariogram g(h) = |E cap (E + h)|:

        E_p(1_E) = 2 int rho(r) r^(d-1-p) F(r) dr,
        F(r) = int_S (|E| - g(r sigma)) dsigma = S (sum_k P_k r^k + h(r)).

    * A 2D/3D ball has a radial g: S = |S^(d-1)|, P = [c1] with c1 = 2R
      or pi R^2, h(r) = |E| - g(min(r, D)) - c1 r = O(r^3).
    * Every other set is a box with sides L: S = 1,
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
    """|S^(d-1)| - S_d(t) for t >= 0, d = 1, 2 or 3, where
    S_d(t) = int_{S^(d-1)} cos(t sigma . e) dsigma is 2 cos t in 1D (the
    sphere is {-1, +1}), 2 pi J0(t) in 2D and 4 pi sin(t)/t in 3D.

    It keeps full relative accuracy as t -> 0, where it is
    |S^(d-1)| t^2 / (2d): in 1D it is 4 sin^2(t/2), with no cancellation;
    in 2D/3D it is summed from its power series in t^2 below t = 1, and
    J0 or sin t / t is evaluated only at the t >= 1.
    """
    t = np.asarray(t, dtype=float)
    if d == 1:
        return 4.0 * np.sin(0.5 * t) ** 2
    small = t < _SERIES_BELOW
    big = ~small
    tb = t[big]
    out = np.empty_like(t)
    with np.errstate(invalid="ignore"):
        if d == 2:
            from scipy.special import j0   # imported on first use: slow to load
            out[big] = 2.0 * math.pi * (1.0 - j0(tb))
        else:
            out[big] = 4.0 * math.pi * (1.0 - np.sin(tb) / tb)
    s = t[small]
    s *= s
    series = np.zeros_like(s)
    for c in reversed(_SERIES_COEFFS[d]):
        series += c
        series *= s
    out[small] = series
    return out


def _multiplier_row(mollifier, level: Optional[int]):
    """(r, w, c2, c0), shared read-only per (mollifier, level): the nodes r
    and weights w = 2 rho r^(d-3) of m_rho(k) = sum_i w_i (|S^(d-1)| -
    S_d(k r_i)) on the breakpoint-free radial rule, and the bounds
    m_rho(k) <= min(c2 k^2, c0) at every k >= 0.

    2 - 2 cos t <= min(t^2, 4), 1 - J0(t) <= min(t^2/4, 1.4028) and
    1 - sin t/t <= min(t^2/6, 1.2173), so ``sphere_defect`` is at most
    min(|S^(d-1)| t^2/(2d), _DEFECT_MAX), and every weight is >= 0: c2 is
    |S^(d-1)|/(2d) sum w r^2 and c0 is _DEFECT_MAX sum w, each padded by
    a relative 1e-12 against the rounding of the sums and of
    ``sphere_defect``.  A row is the size of its kernel row, and the cache
    holds as many.
    """
    return _shared_multiplier_row(
        mollifier, quadrature.DEFAULT_RADIAL_LEVEL if level is None else level)


# one multiplier row per kernel row that ``quadrature`` keeps
@lru_cache(maxsize=quadrature._RADIAL_CACHE_SIZE)
def _shared_multiplier_row(mollifier, level: int):
    d = mollifier.dimension
    rule = quadrature.kernel_radial_rule(mollifier, level)
    r = rule.nodes
    w, = quadrature._read_only(2.0 * rule.weights / (r * r))
    pad = 1.0 + 1e-12
    # |S^(d-1)|/(2d): 1 in 1D, else the first coefficient of the t^2 series
    c2 = 1.0 if d == 1 else _SERIES_COEFFS[d][0]
    return r, w, pad * c2 * float(np.dot(w, r * r)), pad * _DEFECT_MAX[d] * float(w.sum())


def fourier_multiplier(mollifier, k, level: Optional[int] = None) -> np.ndarray:
    """m_rho(k) = 2 int rho(r) r^(d-3) (|S^(d-1)| - S_d(k r)) dr at the
    wavenumbers k (q,) -> (q,), for d = 1, 2 or 3 (in 1D the integrand is
    2 rho(r) (2 - 2 cos kr) / r^2).

    E_2(u) = (2 pi)^-d int |u^(xi)|^2 m_rho(|xi|) dxi (Plancherel), and
    m_rho(k) -> gamma(d, 2) k^2 as the mollifier concentrates.  The
    integral runs over the shared multiplier row of ``level``
    (``_multiplier_row``); its weights are >= 0, so the sum is at most
    min(c2 k^2, c0).  Each k costs one ``sphere_defect`` per radial node,
    which is why the energy drops the shells that carry no power.
    """
    r, w, _, _ = _multiplier_row(mollifier, level)
    k = np.asarray(k, dtype=float)
    out = np.empty(k.size)
    step = max(1, _CHUNK // r.size)
    for start in range(0, k.size, step):
        out[start:start + step] = sphere_defect(
            mollifier.dimension, np.outer(k[start:start + step], r)) @ w
    return out


def _checked_samples(vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    if not np.isfinite(vals).all():
        i = int(np.argmin(np.isfinite(vals)))
        raise EvaluationError(f"field sample is {vals[i]!r} at x={pts[i]!r}",
                              stage="multiplier", value=vals[i], centre=pts[i].copy())
    return vals


def _midpoint_samples(field, lo, hi, n: int) -> np.ndarray:
    """u at the midpoints of [lo, hi] cut into n^d equal cells -> (n,)*d.
    In 1D they are one read-only (n, 1) batch; in 2D/3D they are evaluated
    in slabs of at most _CHUNK points along the first axis, each handed to
    the field as a read-only column-major (N, d) view.

    Raises
    ------
    EvaluationError
        If a sample is NaN or infinite; it carries stage "multiplier", the
        sample as ``value`` and its point as ``centre``.
    """
    first = lo[0] + (hi[0] - lo[0]) / n * (np.arange(n) + 0.5)
    if lo.size == 1:
        pts, = quadrature._read_only(first[:, None])
        return _checked_samples(field.eval_many(pts), pts)
    cross = _midpoint_grid(lo[1:], hi[1:], n)[0]
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
        pts, = quadrature._read_only(slab.reshape(lo.size, -1).T)
        u[start:start + x0.size] = _checked_samples(field.eval_many(pts), pts).reshape(
            x0.size, -1)
    return u.reshape((n,) * lo.size)


# the shell indices kept: a 3D one of n = 128 is 1.06M int32 entries, 4.2 MB
_SHELL_INDEX_CACHE_SIZE = 8


@lru_cache(maxsize=_SHELL_INDEX_CACHE_SIZE)
def _shell_index(shape: tuple):
    """(index, levels), shared read-only per half-spectrum shape (rfftn
    layout, (n,)*(d-1) + (n/2 + 1,)): the position of each entry's |j|^2
    among the distinct ones (int32, row-major), and those |j|^2 in
    ascending order."""
    jsq = np.arange(shape[-1]) ** 2
    for n in shape[:-1]:
        jsq = np.add.outer(np.fft.fftfreq(n, 1.0 / n).astype(np.int64) ** 2, jsq)
    present = np.bincount(jsq.ravel()) > 0
    index = (np.cumsum(present) - 1).astype(np.int32)[jsq.ravel()]
    levels = np.flatnonzero(present)
    return quadrature._read_only(index, levels)


def _shell_masses(power: np.ndarray):
    """(levels, mass): the distinct integer |j|^2 of a half spectrum
    (rfftn layout, n^(d-1) x (n/2 + 1)) in ascending order, and the
    power on each.

    The masses are one weighted ``np.bincount`` over the grid's shared
    shell index (``_shell_index``, n^(d-1) (n/2 + 1) int32 entries, built
    once per shape; the last _SHELL_INDEX_CACHE_SIZE shapes are kept).
    They accumulate in the spectrum's row-major order, as a
    ``np.unique`` + ``np.bincount(inverse)`` would.  In 1D each j is a
    shell of its own, so the levels are the j^2 and the masses the power.
    """
    index, levels = _shell_index(power.shape)
    return levels, np.bincount(index, weights=power.ravel())


def _shell_sum(mollifier, k, mass, level) -> tuple[float, int]:
    """(sum_i mass_i m_rho(k_i) over the kept shells, how many were kept)
    for shells of ascending wavenumber k and power mass >= 0.

    m_rho(k) <= min(c2 k^2, c0) (``_multiplier_row``), so the shells
    from K on add at most tail[K] = sum_{i >= K} mass_i min(c2 k_i^2, c0).
    The sum keeps the shortest prefix of K shells whose tail[K] is <=
    _MULTIPLIER_TAIL_RTOL times the prefix's own energy, which is every
    shell when no shorter prefix passes.  m_rho is evaluated once per
    shell up to hi, in two calls: no prefix shorter than lo, the first
    with tail <= rtol tail[0], passes, because an energy is at most
    tail[0]; the prefix hi, the first with tail <= rtol times lo's
    energy, does.
    """
    _, _, c2, c0 = _multiplier_row(mollifier, level)
    tail = np.zeros(k.size + 1)
    np.cumsum((mass * np.minimum(c2 * k * k, c0))[::-1], out=tail[-2::-1])
    rtol = _MULTIPLIER_TAIL_RTOL
    # m_rho, and kept[i], the running energy of the first i shells
    m, kept = np.empty(k.size), np.zeros(k.size + 1)

    def extend(a, b):
        if a < b:
            m[a:b] = fourier_multiplier(mollifier, k[a:b], level)
            np.multiply(mass[a:b], m[a:b], out=kept[a + 1:b + 1])
            np.cumsum(kept[a:b + 1], out=kept[a:b + 1])
    lo = int((tail <= rtol * tail[0]).argmax())
    extend(0, lo)
    hi = max(lo, int((tail <= rtol * kept[lo]).argmax()))
    extend(lo, hi)
    K = int((tail[:hi + 1] <= rtol * kept[:hi + 1]).argmax())
    return float(np.dot(mass[:K], m[:K])), K


def _multiplier_shells(field, mollifier, scheme):
    """(k, mass, scale) of a p = 2 energy: the field's distinct
    wavenumbers on its sampling grid (ascending), the power on each, and
    the factor V n^(-2d) that turns sum mass m_rho(k) into E_2."""
    d = field.dimension
    lo, hi = _x_region(field, mollifier.quadrature_radius())
    n = 2 * scheme.x_res(d)
    spectrum = (np.fft.rfft if d == 1 else np.fft.rfftn)(_midpoint_samples(field, lo, hi, n))
    power = spectrum.real ** 2 + spectrum.imag ** 2
    # the half spectrum stands for the conjugate modes it omits
    power[..., 1:(n + 1) // 2] *= 2.0
    levels, mass = _shell_masses(power)
    L = float(hi[0] - lo[0])
    return 2.0 * math.pi / L * np.sqrt(levels), mass, L ** d / n ** (2 * d)


def _multiplier_energy(field, mollifier, scheme) -> float:
    """E_2 of a smooth 1D, 2D or 3D field by its Fourier multiplier.

    The field is sampled on the midpoint grid of 2 x_res(d) cells a side
    over the support box enlarged by r_max, a period longer than the
    support plus r_max, so the energy of the periodic extension is the
    energy.  Then E_2 = V n^(-2d) sum_xi |DFT(u)(xi)|^2 m_rho(|xi|) over
    the grid's wavenumbers xi = 2 pi j / L: the support box of an
    analytic field is a cube, so |xi|^2 = (2 pi / L)^2 |j|^2 on every
    axis alike, and the power is summed per distinct integer |j|^2 by
    one weighted ``np.bincount`` over the grid's shared shell index
    (``_shell_masses``; in 1D the shells are the j themselves).  m_rho is
    computed once per shell, on the shared multiplier row of the
    mollifier and level (``_multiplier_row``, 8 * 2^level nodes and
    weights, at most _RADIAL_CACHE_SIZE rows kept), and only on the
    shortest prefix of shells, in ascending |j|, whose dropped tail is
    provably <= 2^-55 of the kept energy (``_shell_sum``): the smooth
    fields' power falls below that within a few hundred of the tens of
    thousands of 2D/3D shells (about 20 of the 257 in 1D), and the value
    moves by rounding alone.  Nothing but the samples, the FFT, the
    bincount and m_rho on the kept shells is computed per call.
    """
    k, mass, scale = _multiplier_shells(field, mollifier, scheme)
    return float(scale * _shell_sum(mollifier, k, mass, scheme.radial_level)[0])


# The QuadratureScheme fields each route reads: the seven of ``energy``
# and ``sobolev_residual``, and "polar", the density at probes.  A 1D
# field reads no sphere_order on any route: its sphere is {-1, +1}.
ROUTE_READS = {
    "polar": ("sphere_order", "radial_level"),
    "jump": (),
    "box": (),
    "covariogram": ("radial_level",),
    "multiplier": ("x_resolution", "radial_level"),
    "lag": ("radial_level",),
    "sliced": ("sphere_order", "radial_level", "x_resolution"),
    "tensor": ("sphere_order", "radial_level", "x_resolution"),
}


def _pure_jump(field) -> bool:
    """Whether the field is a pure-jump 1D field: a BV field with no
    smooth part or a bounded 1D set."""
    return (isinstance(field, BVField1D) and field.smooth is None
            or isinstance(field, IndicatorSet) and field.is_bounded and field.dimension == 1)


def energy_route(field, p, mollifier) -> str:
    """The route ``energy`` takes: "jump", "box", "covariogram",
    "multiplier", "lag" or "sliced".

    Every pure-jump 1D field, a BV field with no smooth part or a bounded
    1D set (null intervals included), takes "jump".  Every 2D/3D bounded
    set takes "box" or "covariogram": "box" for a box whose energy is a
    closed form (of zero volume, at the gaussian with p = 1, or at
    r_max <= every side), "covariogram" for every other one, null balls
    included.  Then "multiplier" for p = 2 and an analytic field in any
    dimension, "lag" for every other 1D field (p != 2, fields with a
    smooth part and jumps, and grid fields), and "sliced" for every other
    2D/3D field: analytic fields at p != 2, which it integrates, and grid
    fields and half-spaces, which it refuses (DomainError and
    ValidityError).  No energy takes "tensor".
    """
    if _pure_jump(field):
        return "jump"
    if isinstance(field, IndicatorSet) and field.is_bounded:
        return "box" if _box_closed_form(field, mollifier, float(p)) else "covariogram"
    if p == 2 and isinstance(field, AnalyticField):
        return "multiplier"
    return "lag" if field.dimension == 1 else "sliced"


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

    * jump, for a BV field with no smooth part and a bounded 1D set: a
      closed form in the tail moments of the kernel beyond the gaps
      between jumps, with no rule and no field evaluation
      (``_jump_energy``).
    * box and covariogram, for every 2D/3D bounded set: one function of its
      covariogram g(h) = |E cap (E + h)|, with no x-grid, sphere rule or
      field evaluation (``_set_energy``); a null set has energy 0 on
      every route.
    * multiplier, for p = 2 and an analytic field in 1D, 2D or 3D: one
      FFT of the field's samples times the multiplier m_rho(|xi|), on
      the shells of |xi| that carry power (``_multiplier_energy``).  The
      sampling grid has 2 x_res(d) cells a side because the samples
      alias: for the 3D bump with indicator(1/4) at x_resolution 16, 16
      cells a side leave a relative error of 7.9e-3 and 32 cells 9e-13.
      A 1D bump energy is 512 samples at the default x_res(1) = 256.
    * lag, for every other 1D field: the x-integral first, at each node
      of one radial rule (``_lag_energy``).  Neither 1D route but the
      multiplier has an x-grid, so a 1D energy refuses ``x_resolution``
      with DomainError on them.
    * sliced, for every other 2D/3D field: the lag integrals of the
      lines of half the directions, cut at the kinks of |.|^p and at the
      support sphere (``sliced._sliced_energy``).  ``sphere_order`` K sets the
      directions: K midpoints of [0, pi) in 2D (default 16); in 3D the
      upper half of Gauss in sigma_3 with 2 ceil(K/2) nodes times 2K
      azimuths, K^2 directions (default 10).  ``radial_level`` sets the
      shared kernel row whose nodes are the lags; by default level 0
      for the indicator (8 lags), 3 for the gaussian and 4 for the power
      law, whose measure converges only algebraically.  ``x_resolution``
      n sets n midpoint lines per axis of the complement across the
      support ball (default 96 in 2D, 48 in 3D), each cut into
      max(8, ceil(n/3)) Gauss panels.  A grid field raises DomainError.

    A field that declares a point singularity raises ValidityError on
    every route; a NaN or infinite sample or integrand raises
    EvaluationError.

    Parameters
    ----------
    field : Field
        Compactly supported scalar field (bounded support box).
    mollifier : RadialMollifier
    p : float
        Exponent >= 1; NaN and inf raise DomainError.
    scheme : QuadratureScheme, optional
    """
    if field.dimension != mollifier.dimension:
        raise DimensionError("field and mollifier dimensions differ")
    p = _exponent(p)
    scheme = scheme or DEFAULT_SCHEME
    route = energy_route(field, p, mollifier)
    _refuse_1d_x_resolution(field.dimension, scheme, route)
    if _has_jump(field) and math.isinf(mollifier.moment(1.0 - p)):
        return math.inf
    if route == "jump":
        return _jump_energy(field, mollifier, p)
    if route in ("box", "covariogram"):
        return _set_energy(field, mollifier, p, route, scheme.radial_level)
    if route == "multiplier":
        return _multiplier_energy(field, mollifier, scheme)
    if route == "lag":
        return _lag_energy(field, mollifier, p, scheme=scheme)
    _x_region(field, mollifier.quadrature_radius())
    return sliced._sliced_energy(field, mollifier, p, scheme)[0]


def _zero_candidate(candidate, d: int) -> bool:
    """Whether ``candidate`` is a zero candidate: None or the shared
    ``zero_vector_field(d)``."""
    return candidate in (None, zero_vector_field(d))


def residual_route(field, mollifier, candidate: Optional[VectorField] = None) -> str:
    """The route ``sobolev_residual`` takes.  With a zero candidate (None
    or ``zero_vector_field``) the residual is the p = 1 energy and takes
    its route, ``energy_route(field, 1, mollifier)``; with any other,
    "lag" in 1D (``_lag_energy``) and "tensor" in 2D/3D
    (``_tensor_residual``)."""
    if _zero_candidate(candidate, field.dimension):
        return energy_route(field, 1.0, mollifier)
    return "lag" if field.dimension == 1 else "tensor"


def sobolev_residual(field, mollifier, candidate: Optional[VectorField],
                     scheme: Optional[QuadratureScheme] = None) -> float:
    """Integrated first-order remainder with a candidate gradient U.

    Vanishing of this residual along a concentration ladder characterizes
    membership in W^{1,1} with gradient U.  With U = 0 (None or
    ``zero_vector_field``) the residual is, by definition, the p = 1
    energy, which converges to gamma(d, 1) |Du|: it is ``energy(field,
    mollifier, 1, scheme)``, bit for bit, on the energy's route
    (``residual_route``).  A nonzero U takes the lag route in 1D and the
    tensor route in 2D/3D, which refuses a set with DomainError: it has
    no breakpoint at the set's boundary.
    """
    if field.dimension != mollifier.dimension:
        raise DimensionError("field and mollifier dimensions differ")
    if candidate is not None and not isinstance(candidate, VectorField):
        raise DomainError("candidate gradient must be a VectorField or None")
    if candidate is not None and candidate.dimension != field.dimension:
        raise DimensionError("candidate dimension does not match the field")
    if _zero_candidate(candidate, field.dimension):
        return energy(field, mollifier, 1.0, scheme)
    scheme = scheme or DEFAULT_SCHEME
    if field.dimension == 1:
        return _lag_energy(field, mollifier, 1.0, candidate=candidate, scheme=scheme)
    return _tensor_residual(field, mollifier, candidate, scheme)


def local_energy(field, p, *, box=None) -> float:
    """The local limit gamma(d, p) int |grad u|^p.

    For p = 1 and a BV field the integral is the full total variation,
    the smooth part's int |s'| plus the jump masses (the smooth part is
    smooth across the jumps); for p > 1 a field with jumps (or a set
    indicator) has infinite energy.  Set indicators at p = 1 use the
    exact perimeter.  In 1D int |u'|^p is ``quadrature.abs_power_integral``,
    the axis rule cut where u' changes sign, which meets the closed forms
    of shifted gaussians to ~1e-14 at p = 1 to 3.  2D/3D analytic fields
    take the midpoint grid of DEFAULT_X_RESOLUTION (on the bump up to
    2.5e-6 off in 2D and 1.2e-5 in 3D), grid fields the finite-difference
    gradient, with a documented O(h) bias.
    """
    d = field.dimension
    g = gamma(d, _exponent(p))
    if isinstance(field, IndicatorSet):
        if p == 1:
            return g * field.exact_perimeter()
        return math.inf
    jumps = 0.0
    if isinstance(field, BVField1D):
        if field.jump_locations.size and p > 1:
            return math.inf
        if field.smooth is None:
            return g * field.total_jump_mass
        field, jumps = field.smooth, field.total_jump_mass
    if isinstance(field, GridField):
        return g * field.gradient_norm_integral(p)
    # analytic field
    box_ = box or field.support_box()
    if box_ is None:
        raise ValidityError("an integration box is required for this field")
    lo = np.asarray(box_[0], dtype=float)
    hi = np.asarray(box_[1], dtype=float)
    if d == 1:
        return g * (quadrature.abs_power_integral(
            lambda x: field.gradient_many(x[:, None])[:, 0], lo[0], hi[0], p) + jumps)
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
        limit = limit if math.isfinite(limit) else None
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
    the singular gradient measure scaled by gamma(1,1).  Each rung is
    ``sobolev_residual`` with the field's absolutely continuous gradient
    (``fields.gradient_candidate``): the lag route, or the jump route for
    a field with no smooth part, whose candidate is zero.
    """
    if not isinstance(field, BVField1D):
        raise DomainError("ponce_spector_mass expects a 1D BV field")
    candidate = gradient_candidate(field)
    limit = gamma(1, 1) * field.total_jump_mass
    return convergence_study(
        lambda m: sobolev_residual(field, m, candidate, scheme), ladder, limit=limit)


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
