"""Radial x spherical product quadrature rules.

Integrals of the form

    int_0^inf rho(r) r^(d-1) [ int_{S^(d-1)} F(r, sigma) dsigma ] dr

are sums over the product of a radial rule (composite Gauss-Legendre,
with a change of variables for mollifiers that are singular at r = 0)
and a sphere rule.  This module builds the rules; the one sum over them
is ``functionals._polar_many``, and the mass integrals of the built-in
mollifiers are closed forms that need no rule at all.  A radial rule is
split at the radii where the integrand jumps and graded dyadically from
r_max down to the nearest of them; without such radii it is the uniform
rule.  Sphere rules are panel-composite so that integrands with a kink
on the equator {sigma . e = 0} of the last coordinate axis are
integrated to machine precision; plain uniform angles lose five orders
of magnitude on such integrands.  Segment and axis rules (composite Gauss on intervals,
graded toward their endpoints) serve one-dimensional integrals: the
x-rule of 1D energies and the mass of a custom mollifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import DimensionError, IntegrationError

DEFAULT_SPHERE_ORDER = {1: 1, 2: 64, 3: 32}
DEFAULT_RADIAL_LEVEL = 4
RADIAL_NODES_PER_PANEL = 8
GAUSSIAN_TAIL_TOL = 1e-14
# uniform panels under the grading of a segment rule
SEGMENT_BASE_PANELS = 8


@dataclass(frozen=True)
class SphereRule:
    dimension: int
    nodes: np.ndarray   # (K, d) unit vectors
    weights: np.ndarray  # (K,), summing to |S^(d-1)|


@dataclass(frozen=True)
class RadialRule:
    """Nodes/weights on (0, r_max) for integrals against rho(r) r^(d-1) dr.

    ``sum(weights * rho(nodes) * nodes**(d-1) * g(nodes))`` approximates
    ``int_0^{r_max} g(r) rho(r) r^(d-1) dr``; any change of variables used
    to remove an endpoint singularity is folded into ``weights``.  Nodes
    and weights are (n,) for one rule and (m, n) for the stacked rules of
    ``radial_rules``.
    """

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float


@lru_cache(maxsize=None)
def _gl(q: int):
    x, w = roots_legendre(q)
    return x, w


def composite_gauss(edges: np.ndarray, q: int):
    """Gauss-Legendre with q nodes on each panel [edges[..., i], edges[..., i+1]].

    Stacked edges (one row of panel edges per rule) give stacked rules of
    shape (..., panels * q); a zero-width panel gives q zero-weight nodes.
    """
    x, w = _gl(q)
    a = edges[..., :-1]
    half = (edges[..., 1:] - a) / 2.0
    nodes = (a + half)[..., None] + half[..., None] * x
    weights = half[..., None] * w
    shape = edges.shape[:-1] + (-1,)
    return nodes.reshape(shape), weights.reshape(shape)


def graded_edges(a: float, b: float, *, levels: int = 30) -> np.ndarray:
    """Panel edges on [a, b]: a uniform base plus geometric refinement
    toward both endpoints.

    Grading makes composite Gauss rules accurate for integrable endpoint
    singularities (logarithms, mild powers) without special weights; the
    uniform base keeps the interior resolved for ordinary smooth
    integrands.  A graded edge that meets a base edge up to rounding is
    dropped rather than left as a sliver panel; the finest grading step,
    0.5 * 2**-levels * (b - a), lies far above that tolerance.
    """
    length = b - a
    if length <= 0:
        raise IntegrationError(f"empty segment [{a}, {b}]")
    grade = 0.5 * length * 2.0 ** (-np.arange(1, levels + 1))
    edges = np.sort(np.concatenate([np.linspace(a, b, SEGMENT_BASE_PANELS + 1),
                                    a + grade, b - grade]))
    return edges[np.diff(edges, prepend=-np.inf) > 1e-14 * length]


def segment_rule(a: float, b: float, *, q: int = 8, levels: int = 30):
    return composite_gauss(graded_edges(a, b, levels=levels), q)


def axis_rule(lo: float, hi: float, breakpoints=()):
    """1D rule on [lo, hi] split at breakpoints, graded toward every split.

    Used for x-integration of densities whose profile has integrable
    (logarithmic) singularities at jump locations of the field.
    """
    pts = np.asarray([p for p in breakpoints if lo < p < hi], dtype=float)
    cuts = np.unique(np.concatenate([[lo, hi], pts]))
    nodes, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-300:
            continue
        n, w = segment_rule(a, b, q=6)
        nodes.append(n)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


# ---------------------------------------------------------------------------
# sphere rules
# ---------------------------------------------------------------------------

def sphere_rule(d: int, order: int | None = None) -> SphereRule:
    """Quadrature over the unit sphere S^(d-1).

    d=1 is the two-point counting measure on {-1, +1}.  d=2 uses four
    Gauss-Legendre panels split at the coordinate half-axes; d=3 uses
    Gauss-Legendre in the polar cosine (split at the equator) times a
    uniform azimuth with 2*order angles.  Splits keep |sigma . e|^p
    integrands panel-smooth for integer p and any coordinate axis e.

    Parameters
    ----------
    d : int
        Ambient dimension, 1 to 3.
    order : int, optional
        Total node budget along the principal direction; defaults to
        the per-dimension library default.
    """
    if d not in (1, 2, 3):
        raise DimensionError(f"sphere_rule supports d in {{1,2,3}}, got {d}")
    if order is None:
        order = DEFAULT_SPHERE_ORDER[d]
    if order < 1:
        raise IntegrationError("sphere order must be >= 1")
    if d == 1:
        nodes = np.array([[-1.0], [1.0]])
        weights = np.array([1.0, 1.0])
        return SphereRule(1, nodes, weights)
    if d == 2:
        q = max(2, int(np.ceil(order / 4)))
        edges = np.array([0.0, 0.5, 1.0, 1.5, 2.0]) * np.pi
        theta, w = composite_gauss(edges, q)
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        return SphereRule(2, nodes, w)
    # d == 3: product rule
    q = max(2, int(np.ceil(order / 2)))
    t, wt = composite_gauss(np.array([-1.0, 0.0, 1.0]), q)
    m = 2 * order
    psi = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    wpsi = np.full(m, 2.0 * np.pi / m)
    s = np.sqrt(np.clip(1.0 - t**2, 0.0, None))
    nodes = np.empty((t.size * m, 3))
    nodes[:, 0] = (s[:, None] * np.cos(psi)[None, :]).ravel()
    nodes[:, 1] = (s[:, None] * np.sin(psi)[None, :]).ravel()
    nodes[:, 2] = np.repeat(t, m)
    weights = (wt[:, None] * wpsi[None, :]).ravel()
    return SphereRule(3, nodes, weights)


def sphere_rule_aligned(d: int, order: int, e: np.ndarray) -> SphereRule:
    """Sphere rule whose panel splits align with the zero set of sigma . e."""
    e = np.asarray(e, dtype=float)
    e = e / np.linalg.norm(e)
    if d == 1:
        return sphere_rule(1, order)
    if d == 2:
        q = max(2, int(np.ceil(order / 4)))
        base = np.arctan2(e[1], e[0])
        edges = base + np.array([0.0, 0.5, 1.0, 1.5, 2.0]) * np.pi
        theta, w = composite_gauss(edges, q)
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        return SphereRule(2, nodes, w)
    rule = sphere_rule(3, order)
    rot = _rotation_to(np.array([0.0, 0.0, 1.0]), e)
    return SphereRule(3, rule.nodes @ rot.T, rule.weights)


def _rotation_to(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotation matrix mapping unit vector a to unit vector b."""
    v = np.cross(a, b)
    c = float(np.dot(a, b))
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3) if c > 0 else -np.eye(3)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


# ---------------------------------------------------------------------------
# radial rules
# ---------------------------------------------------------------------------

def radial_rule(mollifier, level: int | None = None, *,
                breakpoints=()) -> RadialRule:
    """Radial rule adapted to a mollifier's support and singularity.

    The base rule is composite Gauss-Legendre with 2**level panels on
    (0, r_max) and RADIAL_NODES_PER_PANEL nodes a panel.  A mollifier
    with a power singularity at 0 supplies a substitution exponent alpha
    (r = s**alpha) that makes the transformed measure smooth; the
    substitution is folded into the weights.  Breakpoints (radii where
    the integrand jumps) become panel edges, and the panels are graded
    dyadically from r_max down to the nearest breakpoint: beyond a jump
    at a small radius the integrand falls off like 1/r^p, which uniform
    panels cannot resolve, while below it the integrand is smooth.
    This is the one-row case of ``radial_rules``.

    Parameters
    ----------
    mollifier : RadialMollifier
    level : int, optional
        log2 of the panel count, default 4.
    breakpoints : sequence of float, optional
        Radii at which the *integrand* is discontinuous (e.g. distances
        from a probe to the jump set of an indicator field).
    """
    rules = radial_rules(mollifier, level,
                         breakpoints=np.asarray(breakpoints, dtype=float).reshape(1, -1))
    return RadialRule(rules.nodes[0], rules.weights[0], rules.r_max)


def radial_rules(mollifier, level: int | None = None, *, breakpoints) -> RadialRule:
    """The radial rules of a batch of probes, stacked one row per probe.

    ``breakpoints`` has shape (m, J): row i holds the breakpoint radii of
    probe i (values outside (0, r_max) are ignored).  Row i of the result
    is, node for node and bit for bit, ``radial_rule`` with those
    breakpoints.  Rows with fewer panels than the longest row are padded
    with zero-width panels at r_max, i.e. zero-weight nodes at r = r_max;
    no node is ever placed at r = 0.

    Returns a ``RadialRule`` whose nodes and weights have shape (m, n).
    """
    if level is None:
        level = DEFAULT_RADIAL_LEVEL
    if level < 0:
        raise IntegrationError("radial level must be >= 0")
    r_max = mollifier.quadrature_radius()
    if not np.isfinite(r_max) or r_max <= 0:
        raise IntegrationError(
            f"mollifier {mollifier.kind} has no usable truncation radius")
    alpha = mollifier.transform_power()
    bp = np.asarray(breakpoints, dtype=float)
    if alpha is None:
        edges = _stacked_panel_edges(r_max, 2 ** level, bp)
        nodes, weights = composite_gauss(edges, RADIAL_NODES_PER_PANEL)
        return RadialRule(nodes, weights, r_max)
    # substitution r = r_max * s**alpha on s in (0, 1]; breakpoints map
    # through scalar (libm) pow, which numpy's vectorised pow does not
    # match to the last bit
    inside = (bp > 0.0) & (bp < r_max)
    s_bp = np.ones(bp.shape)
    s_bp[inside] = [math.pow(b / r_max, 1.0 / alpha) for b in bp[inside].tolist()]
    edges = _stacked_panel_edges(1.0, 2 ** level, s_bp)
    s, ws = composite_gauss(edges, RADIAL_NODES_PER_PANEL)
    nodes = r_max * s ** alpha
    weights = ws * r_max * alpha * s ** (alpha - 1.0)
    return RadialRule(nodes, weights, r_max)


# dyadic grading edges b 2^-j, j = 1 .. _GRADE_LEVELS
_GRADE_LEVELS = 43


def radial_rule_size(level: int | None = None, n_breakpoints: int = 0) -> int:
    """Upper bound on the nodes per row of ``radial_rules``."""
    if level is None:
        level = DEFAULT_RADIAL_LEVEL
    panels = 2 ** level + n_breakpoints
    if n_breakpoints:
        panels += _GRADE_LEVELS
    return panels * RADIAL_NODES_PER_PANEL


def _stacked_panel_edges(b: float, n_panels: int, breakpoints: np.ndarray) -> np.ndarray:
    """Panel edges on [0, b], one row per row of breakpoints -> (m, k).

    Each row holds the uniform base edges, its breakpoints inside (0, b)
    and the dyadic edges b 2^-j that are not below its nearest such
    breakpoint; a row without one keeps the uniform edges alone.  Edges
    closer than machine tolerance to the previous one are dropped.  When
    all rows keep the same number of edges (always so for one row) they
    are compacted by a reshape; otherwise short rows are padded at b.
    """
    m, j = breakpoints.shape
    fixed = np.linspace(0.0, b, n_panels + 1)
    if j == 0:
        return np.broadcast_to(fixed, (m, fixed.size))
    dyadic = b * 2.0 ** (-np.arange(1, _GRADE_LEVELS + 1))
    # a breakpoint outside (0, b), or a dyadic edge below the row's
    # nearest breakpoint, becomes a duplicate of b
    bp = np.where((breakpoints > 0.0) & (breakpoints < b), breakpoints, b)
    nearest = bp.min(axis=1, keepdims=True)
    edges = np.empty((m, fixed.size + dyadic.size + j))
    edges[:, :fixed.size] = fixed
    edges[:, fixed.size:-j] = np.where(dyadic >= nearest, dyadic, b)
    edges[:, -j:] = bp
    edges.sort(axis=1)
    keep = np.empty(edges.shape, dtype=bool)
    keep[:, 0] = True
    np.greater(edges[:, 1:] - edges[:, :-1], 1e-18 * max(b, 1.0), out=keep[:, 1:])
    counts = keep.sum(axis=1)
    k = int(counts.max())
    if (counts == k).all():
        return edges[keep].reshape(m, k)
    out = np.full((m, k), b)
    rows, _ = np.nonzero(keep)
    out[rows, (np.cumsum(keep, axis=1) - 1)[keep]] = edges[keep]
    return out


def radial_measure(mollifier, rule: RadialRule) -> np.ndarray:
    """rho(r) r^(d-1) at the rule nodes."""
    return mollifier.evaluate(rule.nodes) * rule.nodes ** (mollifier.dimension - 1)

