"""Radial x spherical product quadrature rules.

Integrals of the form

    int_0^inf rho(r) r^(d-1) [ int_{S^(d-1)} F(r, sigma) dsigma ] dr

are sums over the product of a radial rule (composite Gauss-Legendre,
with a change of variables for mollifiers that are singular at r = 0)
and a sphere rule.  This module builds the rules; the one polar sum over
them is ``functionals._polar_many``, the 1D energies and the covariogram
and multiplier routes sum over a radial rule alone, and the mass
integrals of the built-in mollifiers are closed forms that need no rule
at all.  A radial rule is
split at the radii where the integrand jumps and graded dyadically from
r_max down to the nearest of them; without such radii it is the uniform
rule.  Sphere rules are panel-composite so that integrands with a kink
on the equator {sigma . e = 0} of the last coordinate axis are
integrated to machine precision; plain uniform angles lose five orders
of magnitude on such integrands.  Segment and axis rules (composite
Gauss on intervals, graded toward their endpoints) serve one-dimensional
integrals, such as the 1D local energy, which ``abs_power_integral``
cuts where u' changes sign; ``roots`` finds those sign changes and
``illinois`` refines them, as it does every root the library cuts at
(the sliced route's kinks, the pathology's crossings).  Every rule is composite
Gauss-Legendre, whose q-point rule ``_gl`` builds with numpy alone from
the Legendre three-term recurrence, so building rules imports no scipy.

Rules that depend on nothing but their key are built once: sphere rules
per (d, order) and the breakpoint-free kernel-weighted radial row of
``kernel_radial_rule`` per (mollifier, level).  Both caches are bounded
LRU caches (``_SPHERE_CACHE_SIZE`` and ``_RADIAL_CACHE_SIZE`` entries)
whose arrays are shared read-only, so a write into one raises
ValueError instead of corrupting later calls.  A 3D sphere rule of
order k holds 2k^2 nodes (2048 at the default 32); a radial row holds
8 * 2^level nodes, 32768 at MAX_RADIAL_LEVEL, i.e. 512 KiB of nodes and
weights, so the radial cache holds at most 16 MiB.  Rules with
breakpoints inside (0, r_max) are built per call; breakpoints outside it
leave the rule unchanged, so a caller whose breakpoints all lie at or
beyond r_max takes the shared row (``functionals._polar_many`` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, IntegrationError

DEFAULT_SPHERE_ORDER = {1: 1, 2: 64, 3: 32}
DEFAULT_RADIAL_LEVEL = 4
# 2**12 = 4096 panels: one row of a radial rule then fills a whole
# 32768-point block of the polar-sum engine
MAX_RADIAL_LEVEL = 12
RADIAL_NODES_PER_PANEL = 8
GAUSSIAN_TAIL_TOL = 1e-14
# uniform panels under the grading of a segment rule
SEGMENT_BASE_PANELS = 16
# Newton converges quadratically from its guesses: a cap, never reached
_GL_NEWTON_STEPS = 100
# Illinois steps close a bracket in ~10 on a smooth function, but on a
# jump from near 0 to a large value they halve the bracket only once in
# log2(ratio) steps (a truncated tilted gaussian's line differences take
# hundreds); brackets still open after _ILLINOIS_STEPS bisect, and 64
# halvings take any bracket below 4 ulps of its ends, the finest
# tolerance used
_ILLINOIS_STEPS = 100
_BISECTION_STEPS = 64
# entries of the sphere-rule and base radial-row caches: above the
# distinct keys a workload cycles through (27 kernels x one level in a
# density ladder over d = 1-3 and three families of three rungs)
_SPHERE_CACHE_SIZE = 16
_RADIAL_CACHE_SIZE = 32


# compared and hashed by identity: the engine's caches key on shared rules
@dataclass(frozen=True, eq=False)
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


# hashed by identity, like SphereRule: the shared rows key the engine's tables
@dataclass(frozen=True, eq=False)
class KernelRule:
    """A radial rule with the kernel folded into its weights.

    ``sum(weights * g(nodes))`` approximates
    ``int_0^{r_max} g(r) rho(r) r^(d-1) dr``: the weights are a
    ``RadialRule``'s times ``radial_measure``.  Shapes as in
    ``RadialRule``.
    """

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float


def _read_only(*arrays) -> None:
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=None)
def _gl(q: int):
    """The q-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton's method on P_q from the guesses cos(pi (k - 1/4) / (q + 1/2))
    finds the nonnegative roots, and the rule is mirrored from them, so
    it is exactly symmetric.  The weights are 2 / ((1 - x^2) P_q'(x)^2).
    Both come from the three-term recurrence; at q = 32 these weights are
    within 5.7e-15 of the exact ones, numpy's ``leggauss`` within 5.8e-14.
    """
    x = np.cos(np.pi * (np.arange(1, (q + 1) // 2 + 1) - 0.25) / (q + 0.5))
    for _ in range(_GL_NEWTON_STEPS):
        p, dp = _legendre(q, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise IntegrationError(f"Gauss-Legendre nodes of order {q} did not converge")
    if q % 2:
        x[-1] = 0.0
    _, dp = _legendre(q, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return (np.concatenate([-x, x[::-1][q % 2:]]),
            np.concatenate([w, w[::-1][q % 2:]]))


def _legendre(q: int, x: np.ndarray):
    """P_q(x) and P_q'(x) for |x| < 1, by j P_j = (2j - 1) x P_(j-1) - (j - 1) P_(j-2)."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, q + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, q * (x * p1 - p0) / (x * x - 1.0)


def _abs_power(diff: np.ndarray, p: float, out=None) -> np.ndarray:
    """|diff|**p with fast paths for the common integer exponents, written
    into ``out`` when given (``out=diff`` takes it in place)."""
    if p == 2.0:
        return np.multiply(diff, diff, out=out)
    a = np.abs(diff, out=out)
    if p == 3.0:
        return np.multiply(a * a, a, out=a)
    if p != 1.0:
        a **= p
    return a


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


def graded_edges(a, b, *, levels: int = 30) -> np.ndarray:
    """Panel edges on [a, b]: a uniform base plus geometric refinement
    toward both endpoints.

    Grading makes composite Gauss rules accurate for integrable endpoint
    singularities (logarithms, mild powers) without special weights; the
    uniform base keeps the interior resolved for ordinary smooth
    integrands.  A graded edge that meets a base edge up to rounding is
    dropped rather than left as a sliver panel; the finest grading step,
    0.5 * 2**-levels * (b - a), lies far above that tolerance.  Arrays a
    and b of consecutive pieces [a_i, b_i], b_i = a_(i+1), give the edges
    of every piece at once, each shared end once.
    """
    a, b = np.atleast_1d(a)[:, None], np.atleast_1d(b)[:, None]
    length = b - a
    if not (length > 0).all():
        i = int(np.argmin(length > 0))
        raise IntegrationError(f"empty segment [{a[i, 0]}, {b[i, 0]}]")
    grade = 0.5 * length * 2.0 ** (-np.arange(1, levels + 1))
    # the base edges a + k (L / n) of np.linspace(a, b, n + 1), bit for bit
    base = a + length * (np.arange(SEGMENT_BASE_PANELS) / SEGMENT_BASE_PANELS)
    edges = np.concatenate([base, b, a + grade, b - grade], axis=1)
    edges.sort(axis=1)
    keep = np.ones(edges.shape, dtype=bool)
    np.greater(edges[:, 1:] - edges[:, :-1], 1e-14 * length, out=keep[:, 1:])
    keep[1:, 0] = False   # a piece's first edge is the last edge of the one before
    return edges[keep]


def segment_rule(a, b, *, q: int = 8, levels: int = 30):
    return composite_gauss(graded_edges(a, b, levels=levels), q)


def axis_rule(lo: float, hi: float, breakpoints=()):
    """1D rule on [lo, hi] split at breakpoints, graded toward every split.

    Each piece between splits is ``segment_rule``'s: SEGMENT_BASE_PANELS
    uniform panels of 8 Gauss nodes, graded over 30 dyadic levels toward
    both ends.  Used for x-integration of densities whose profile has
    integrable (logarithmic) singularities at jump locations of the
    field, and, cut at the sign changes of u', for every 1D integral of
    |u'|^p (``abs_power_integral``).
    """
    bp = np.asarray(breakpoints, dtype=float)
    cuts = np.unique(np.concatenate([[lo, hi], bp[(bp > lo) & (bp < hi)]]))
    keep = np.diff(cuts) >= 1e-300
    return segment_rule(cuts[:-1][keep], cuts[1:][keep])


def abs_power_integral(g, lo: float, hi: float, p: float) -> float:
    """int_lo^hi |g|^p for a smooth g (vectorized over an (n,) array).

    |g|^p kinks where g changes sign, so the integral is ``axis_rule``
    cut at the ``roots`` of g on 129 uniform nodes, as fine as the rule's
    16 panels of 8 nodes: between the cuts |g|^p is smooth, and a shifted
    gaussian's |u'|^p meets its closed form to ~1e-14.
    """
    nodes, w = axis_rule(lo, hi, roots(g, np.linspace(lo, hi, 129)))
    return float(np.dot(w, _abs_power(g(nodes), p)))


def roots(f, x: np.ndarray) -> np.ndarray:
    """The roots of f (vectorized over an (n,) array) inside (x[0], x[-1])
    that the ascending nodes x show, ascending: every inner node where f
    is exactly 0 (of a run of such nodes, its ends), and in each pair of
    neighbouring nodes where f changes sign the ``illinois`` root, refined
    to 4 ulps."""
    fx = f(x)
    ends = fx == 0.0
    ends[1:-1] &= ~(ends[:-2] & ends[2:])
    ends[[0, -1]] = False
    i = np.flatnonzero(np.sign(fx[:-1]) * np.sign(fx[1:]) < 0.0)
    a, b = x[i], x[i + 1]
    root, _ = illinois(f, a, b, fx[i], fx[i + 1], 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))
    return np.sort(np.concatenate([root, x[ends]]))


def illinois(f, a, b, fa, fb, tol, *data):
    """(root, f(root)): a root of f in each bracket (a, b), fa fb < 0, all at once.

    Regula falsi, halving the value kept at an end that stays twice in a
    row (the Illinois variant; Dowell and Jarratt, BIT 11, 1971), until a
    bracket is at most tol wide (one a bracket) or f is 0 at its point;
    a bracket still open after _ILLINOIS_STEPS steps bisects.
    ``f(c, *rows)`` is f at the points c of the brackets still open, whose
    rows of each array of ``data`` (one row a bracket) are ``rows``, so a
    bracket's own function needs no loop.  The result is each bracket's
    last point and f's value there, which tells a root (a value near 0)
    from a jump.  Empty brackets give empty arrays.

    Raises
    ------
    IntegrationError
        If a bracket is still open after _BISECTION_STEPS bisections too
        (a tolerance below the spacing of floats there); it names the
        first such bracket.
    """
    a, b, fa, fb, tol = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, b, fa, fb, tol))
    root, last, side = a.copy(), np.zeros(a.size), np.zeros(a.size)
    idx = np.arange(a.size)
    for step in range(_ILLINOIS_STEPS + _BISECTION_STEPS):
        if not idx.size:
            break
        c = (a * fb - b * fa) / (fb - fa)
        c = np.where((a < c) & (c < b) & (step < _ILLINOIS_STEPS), c, 0.5 * (a + b))
        fc = f(c, *data)
        root[idx], last[idx] = c, fc
        right = (fc < 0.0) == (fb < 0.0)
        fa = np.where(right, np.where(side > 0.0, 0.5 * fa, fa), fc)
        fb = np.where(right, fc, np.where(side < 0.0, 0.5 * fb, fb))
        a, b = np.where(right, a, c), np.where(right, c, b)
        side = np.where(right, 1.0, -1.0)
        keep = (fc != 0.0) & (b - a > tol)
        if not keep.all():
            idx, a, b, fa, fb, side, tol, *data = (
                v[keep] for v in (idx, a, b, fa, fb, side, tol, *data))
    if idx.size:
        raise IntegrationError(f"the bracket ({a[0]}, {b[0]}) of a root is still "
                               f"wider than {tol[0]} after {step + 1} steps")
    return root, last


# ---------------------------------------------------------------------------
# sphere rules
# ---------------------------------------------------------------------------

def sphere_rule(d: int, order: int | None = None) -> SphereRule:
    """Quadrature over the unit sphere S^(d-1).

    d=1 is the two-point counting measure on {-1, +1}.  d=2 uses four
    Gauss-Legendre panels of order/4 nodes split at the coordinate
    half-axes, so its order must be a multiple of 4 and at least 8
    (IntegrationError otherwise); d=3 uses
    Gauss-Legendre in the polar cosine (split at the equator) times a
    uniform azimuth with 2*order angles.  Splits keep |sigma . e|^p
    integrands panel-smooth for integer p and any coordinate axis e.
    Both rules are antipodally symmetric with no node on sigma_d = 0.

    Each rule is built once per (d, order) and shared: its arrays are
    read-only, and a bounded LRU cache holds the last
    ``_SPHERE_CACHE_SIZE`` rules (a 3D rule of order k has 2k^2 nodes).

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
    return _shared_sphere_rule(d, order)


@lru_cache(maxsize=_SPHERE_CACHE_SIZE)
def _shared_sphere_rule(d: int, order: int) -> SphereRule:
    rule = _build_sphere_rule(d, order)
    _read_only(rule.nodes, rule.weights)
    return rule


def _build_sphere_rule(d: int, order: int) -> SphereRule:
    if d == 1:
        nodes = np.array([[-1.0], [1.0]])
        weights = np.array([1.0, 1.0])
        return SphereRule(1, nodes, weights)
    if d == 2:
        return _circle_rule(order)
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


def _circle_rule(order: int, base: float = 0.0) -> SphereRule:
    """Four Gauss-Legendre panels of order/4 nodes, split at base + k pi/2.

    Any other order would alias the next multiple of 4, so it is refused."""
    if order < 8 or order % 4:
        raise IntegrationError(
            f"a 2D sphere order must be a multiple of 4 and at least 8, got {order}")
    edges = base + np.array([0.0, 0.5, 1.0, 1.5, 2.0]) * np.pi
    theta, w = composite_gauss(edges, order // 4)
    return SphereRule(2, np.column_stack([np.cos(theta), np.sin(theta)]), w)


def sphere_rule_aligned(d: int, order: int, e: np.ndarray) -> SphereRule:
    """Sphere rule whose panel splits align with the zero set of sigma . e."""
    e = np.asarray(e, dtype=float)
    e = e / np.linalg.norm(e)
    if d == 1:
        return sphere_rule(1, order)
    if d == 2:
        return _circle_rule(order, np.arctan2(e[1], e[0]))
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

    Returns a ``RadialRule`` whose nodes and weights have shape (m, n);
    ``kernel_radial_rule`` folds the kernel into the weights and shares
    the breakpoint-free row.
    """
    if level is None:
        level = DEFAULT_RADIAL_LEVEL
    if not 0 <= level <= MAX_RADIAL_LEVEL:
        raise IntegrationError(
            f"radial level must lie in 0..{MAX_RADIAL_LEVEL}, got {level}")
    r_max = mollifier.quadrature_radius()
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
    # a breakpoint outside (0, b), or a dyadic edge below the row's
    # nearest breakpoint, becomes a duplicate of b
    bp = np.where((breakpoints > 0.0) & (breakpoints < b), breakpoints, b)
    nearest = bp.min(axis=1, keepdims=True)
    # dyadic edges b 2^-j, j = 1 .. L, enough for the batch's nearest
    # breakpoint (a difference of logs, finite for a subnormal one too)
    levels = math.ceil(math.log2(b) - math.log2(float(nearest.min())))
    dyadic = b * 2.0 ** (-np.arange(1, levels + 1))
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


def kernel_radial_rule(mollifier, level: int | None = None, *,
                       breakpoints=()) -> KernelRule:
    """The radial rule of ``radial_rule`` (breakpoints of shape (J,)) or of
    ``radial_rules`` (shape (m, J)) with weights w rho(r) r^(d-1).

    Without breakpoints (none given, or J = 0) the rule is one row of
    shape (n,), built once per (mollifier, level) and shared: its arrays
    are read-only, and a bounded LRU cache holds the last
    ``_RADIAL_CACHE_SIZE`` rows (8 * 2^level nodes each, 32768 at
    MAX_RADIAL_LEVEL).  A caller that changes weights, such as the
    remainder floor, changes its own copy, e.g. the fresh array of a
    division by r^p.  With breakpoints the rule is built per call.
    Either way the weights are, bit for bit, ``rule.weights *
    radial_measure(mollifier, rule)`` of the plain rule.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.size == 0:
        return _shared_kernel_row(
            mollifier, DEFAULT_RADIAL_LEVEL if level is None else level)
    return _kernel_rule(mollifier, radial_rules(mollifier, level, breakpoints=bp)
                        if bp.ndim == 2 else radial_rule(mollifier, level, breakpoints=bp))


def _kernel_rule(mollifier, rule: RadialRule) -> KernelRule:
    return KernelRule(rule.nodes, rule.weights * radial_measure(mollifier, rule),
                      rule.r_max)


@lru_cache(maxsize=_RADIAL_CACHE_SIZE)
def _shared_kernel_row(mollifier, level: int) -> KernelRule:
    row = _kernel_rule(mollifier, radial_rule(mollifier, level))
    _read_only(row.nodes, row.weights)
    return row
