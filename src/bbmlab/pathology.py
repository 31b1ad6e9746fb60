"""The slow-mollifier divergence construction.

For the power-law family delta * t^(delta-1) and the radial field

    u(x) = phi(x) |x|^(1-d) ln^-2 |x|            (d >= 2)

the density D_p(u)(x) is infinite at every probe in the annulus
1/4 < |x| < 1/2 once p exceeds d/(d-1): the y-integral near the origin
diverges while the kernel factors stay bounded below on the annulus.
Infinity is operationalized as certified lower bounds

    L_k = int over {tau_k < |y| < 1/8} of the density integrand

along a decreasing inner-cutoff ladder tau_k: the L_k are nondecreasing
by construction, and divergence is flagged by the growth classifier.

Near the critical exponent the raw growth rule is powerless (the
integral diverges like tau^(2-p) up to log factors, so cumulative
growth over any fixed window tends to 2^(w(p-2)), which stays below any
useful threshold for p close to the critical value at every reachable
ladder depth).  ``threshold_scan`` therefore fits the dyadic-shell mass
exponent instead: shell masses behave like tau^beta |ln tau|^gamma with
beta = d - p(d-1), and the integral diverges exactly when beta < 0
(borderline beta = 0 is excluded by contract).  The fit separates
exponents 0.1 away from critical with margins near +-0.08.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .constants import _exponent
from .errors import DimensionError, DomainError, ProbeError
from .fields import AnalyticField
from .mollifiers import RadialMollifier, power_law
from .reports import ConvergenceReport

SHELL_OUTER = 0.125          # |y| < 1/8 region of the construction
ANNULUS = (0.25, 0.5)        # admissible probe radii
_RADIUS_CLAMP = 1e-12        # sentinel cap scale at the origin
_SUPPORT = 0.75              # the field vanishes on |x| >= 3/4

DEFAULT_CUTOFFS = tuple(2.0 ** (-k) / 8.0 for k in range(3, 11))
SCAN_SHELLS = (12, 28)
SHELL_SPHERE_ORDER = 64
SHELL_NODES_PER_PANEL = 12
# dyadic panels on each side of a radius where u(y) crosses u(x)
KINK_GRADE_LEVELS = 8


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 + t * (-15.0 + 6.0 * t))


def cutoff_profile(r):
    """Quintic smoothstep cutoff: 1 on r <= 1/2, 0 on r >= 3/4."""
    return 1.0 - _smoothstep(4.0 * (np.asarray(r, dtype=float) - 0.5))


def _cutoff_derivative(r):
    t = np.clip(4.0 * (np.asarray(r, dtype=float) - 0.5), 0.0, 1.0)
    return -4.0 * (30.0 * t**2 * (1.0 - t) ** 2)


def pathological_field(d: int) -> AnalyticField:
    """The compactly supported W^{1,1} field with a non-L^p singularity.

    The cutoff falls from 1 to 0 on 1/2 <= |x| <= 3/4, so the origin is
    the only singular point: the radial profile is read at
    min(|x|, 3/4), short of the zero of its log factor at |x| = 1.  The
    radius is clamped at 1e-12, so the evaluator returns a large finite
    sentinel instead of overflowing at the origin; the field declares
    the origin as its point singularity, so no density or energy
    integrates that sentinel as a value.
    """
    if d not in (2, 3):
        raise DimensionError(
            "the divergence construction needs dimension 2 or 3")

    def radial_value(s):
        s = np.maximum(s, _RADIUS_CLAMP)
        with np.errstate(divide="ignore"):
            return s ** (1 - d) / np.log(s) ** 2

    def ev(pts):
        s = np.linalg.norm(pts, axis=1)
        return cutoff_profile(s) * radial_value(np.minimum(s, _SUPPORT))

    def gr(pts):
        s = np.maximum(np.linalg.norm(pts, axis=1), _RADIUS_CLAMP)
        t = np.minimum(s, _SUPPORT)
        with np.errstate(divide="ignore"):
            w = t ** (1 - d) / np.log(t) ** 2
            wp = t ** (-d) * ((1 - d) / np.log(t) ** 2
                              - 2.0 / np.log(t) ** 3)
        radial = _cutoff_derivative(s) * w + cutoff_profile(s) * wp
        return radial[:, None] * (pts / s[:, None])

    return AnalyticField(d, ev, gr, support_radius=_SUPPORT,
                         label=f"pathological(d={d})",
                         point_singularities=((0.0,) * d,))


@dataclass(frozen=True)
class PathologyCase:
    """Parameters of one divergence experiment.

    The canonical construction diverges for p > d/(d-1); subcritical p
    is allowed here so the same probe serves as its own control.
    """

    dimension: int
    p: float
    delta: float
    cutoffs: tuple = DEFAULT_CUTOFFS

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise DimensionError("pathology cases need dimension 2 or 3")
        if not 0.0 < self.delta < 0.5:
            raise DomainError("the slow family requires delta in (0, 1/2)")
        _exponent(self.p)
        cuts = tuple(float(c) for c in self.cutoffs)
        if not cuts or any(b >= a for a, b in zip(cuts[:-1], cuts[1:])):
            raise DomainError("cutoffs must be strictly decreasing")
        if cuts[0] >= SHELL_OUTER:
            raise DomainError(f"cutoffs must lie below {SHELL_OUTER}")

    @property
    def critical_exponent(self) -> float:
        return self.dimension / (self.dimension - 1.0)

    @property
    def expects_divergence(self) -> bool:
        return self.p > self.critical_exponent

    def mollifier(self) -> RadialMollifier:
        # raw profile: divergence is insensitive to constant rescaling
        return power_law(self.delta, self.dimension, normalized=False)

    def kernel_lower_bound(self) -> float:
        """min of the mollifier factor over probe/shell positions.

        The distance |x - y| is at most 1/2 + 1/8 = 5/8 < 1, and the
        raw power-law profile is decreasing, so its value at 5/8 is a
        certified lower bound for every pair in the construction.
        """
        extremal = ANNULUS[1] + SHELL_OUTER
        return float(self.mollifier().evaluate(extremal))


def _shell_edges(u, probe: np.ndarray, ux: float, s_lo: float,
                 s_hi: float) -> np.ndarray:
    """Radial panel edges of the shell {s_lo < |y| < s_hi}.

    Log-subdivided panels keep the integrand panel-smooth, except where
    u(y) crosses u(x): |u(x) - u(y)|^p kinks there.  Read along the probe
    ray (for a radial field the crossing is a sphere |y| = s*), the
    crossings are ``quadrature.roots`` of u - u(x) on the edges: a sign
    change between two edges refined to s* by Illinois steps, or an edge
    where the difference is exactly 0.  Each s* becomes an edge with
    KINK_GRADE_LEVELS dyadic edges toward it from both neighbours.
    Without a crossing the edges are the log-subdivided ones alone.
    """
    n_panels = max(1, int(math.ceil(math.log2(s_hi / s_lo))))
    edges = np.geomspace(s_lo, s_hi, n_panels + 1)
    ray = probe / np.linalg.norm(probe)
    root = quadrature.roots(lambda s: u.eval_many(np.multiply.outer(s, ray)) - ux, edges)
    if not root.size:
        return edges
    a = edges[np.maximum(np.searchsorted(edges, root) - 1, 0), None]
    b = edges[np.minimum(np.searchsorted(edges, root, "right"), n_panels), None]
    grade = 2.0 ** -np.arange(1.0, KINK_GRADE_LEVELS + 1)
    root = root[:, None]
    return np.unique(np.concatenate([edges, (root - (root - a) * grade).ravel(), root.ravel(),
                                     (root + (b - root) * grade).ravel()]))


def _shell_geometry(d: int, delta: float, probe: np.ndarray, s_lo: float,
                    s_hi: float, field=None):
    """The exponent-free parts of a shell integral over {s_lo < |y| < s_hi}:
    |u(x) - u(y)|, rho(|x - y|) and |x - y| at the nodes (s, sigma), and
    the radial and sphere weights; the radial panels are ``_shell_edges``."""
    u = field if field is not None else pathological_field(d)
    rho = power_law(delta, d, normalized=False)
    sphere = quadrature.sphere_rule(d, SHELL_SPHERE_ORDER)
    ux = u.eval_many(probe.reshape(1, d))[0]
    edges = _shell_edges(u, probe, ux, s_lo, s_hi)
    s, w = quadrature.composite_gauss(edges, SHELL_NODES_PER_PANEL)
    pts = s[:, None, None] * sphere.nodes[None, :, :]
    uy = u.eval_many(pts.reshape(-1, d)).reshape(s.size, -1)
    dist = np.linalg.norm(pts - probe, axis=-1)
    kern = rho.evaluate(dist.reshape(-1)).reshape(s.size, -1)
    return np.abs(ux - uy), kern, dist, w * s ** (d - 1), sphere.weights


def _shell_sum(geometry, p: float) -> float:
    """The shell integral of |u(x) - u(y)|^p rho / |x - y|^p."""
    diff, kern, dist, w_radial, w_sphere = geometry
    vals = diff ** p * (kern / dist ** p)
    return float(np.dot(w_radial, vals @ w_sphere))


def _shell_mass(case: PathologyCase, probe: np.ndarray, s_lo: float,
                s_hi: float, *, field=None) -> float:
    """Integral of the density integrand over {s_lo < |y| < s_hi}."""
    return _shell_sum(_shell_geometry(case.dimension, case.delta, probe,
                                      s_lo, s_hi, field), case.p)


def _check_probe(case: PathologyCase, probe) -> np.ndarray:
    probe = np.atleast_1d(np.asarray(probe, dtype=float))
    if probe.shape != (case.dimension,):
        raise DimensionError(
            f"probe must have {case.dimension} coordinates")
    r = float(np.linalg.norm(probe))
    lo, hi = ANNULUS
    if not lo < r < hi:
        raise ProbeError(
            f"|probe| = {r:.4g} outside the admissible annulus ({lo}, {hi})")
    return probe


def divergence_probe(case: PathologyCase, probe, *, field=None) -> ConvergenceReport:
    """Certified lower bounds L_k of the density over nested shells.

    L_k integrates the (nonnegative) density integrand over
    {tau_k < |y| < 1/8}; domains are nested, so the sequence is exactly
    nondecreasing, and unbounded growth - never floating-point overflow -
    is what certifies divergence.  Classification uses the shared growth
    rule.
    """
    probe = _check_probe(case, probe)
    edges = (SHELL_OUTER,) + tuple(case.cutoffs)
    values = list(np.cumsum([_shell_mass(case, probe, lo, hi, field=field)
                             for hi, lo in zip(edges[:-1], edges[1:])]))
    return ConvergenceReport(
        labels=[f"tau={c:.3e}" for c in case.cutoffs],
        params=list(case.cutoffs),
        values=values, limit=None)


def _scan_shells():
    """The shells {2^-(j+1) < 8|y| < 2^-j}, j in SCAN_SHELLS, as (lo, hi)."""
    j0, j1 = SCAN_SHELLS
    return [(2.0 ** (-(j + 1)) * SHELL_OUTER, 2.0 ** (-j) * SHELL_OUTER)
            for j in range(j0, j1 + 1)]


def _fitted_exponent(masses) -> float:
    """beta of the fit log m = c + beta ln tau + gamma ln ln(1/tau) over the
    scan shells, tau the inner radius; inf when a shell is empty."""
    masses = np.asarray(masses)
    taus = np.asarray([lo for lo, _ in _scan_shells()])
    if np.any(masses <= 0):
        # a field with no singularity at the origin: vanishing shells
        return math.inf
    design = np.column_stack([np.ones_like(taus), np.log(taus),
                              np.log(np.log(1.0 / taus))])
    coef, *_ = np.linalg.lstsq(design, np.log(masses), rcond=None)
    return float(coef[1])


def shell_exponent(case: PathologyCase, probe, *, field=None) -> float:
    """Fitted dyadic-shell mass exponent beta (divergence iff beta < 0).

    Shell masses m_j over {2^-(j+1) < 8|y| < 2^-j}, j in SCAN_SHELLS, follow
    m ~ tau^beta |ln tau|^gamma; a three-parameter least-squares fit in
    (1, ln tau, ln ln(1/tau)) recovers beta with the log correction
    absorbed, which a plain slope cannot do near the critical exponent.
    """
    probe = _check_probe(case, probe)
    return _fitted_exponent([_shell_mass(case, probe, lo, hi, field=field)
                             for lo, hi in _scan_shells()])


def _scan_masses(d: int, delta: float, probe: np.ndarray, ps) -> np.ndarray:
    """The scan-shell masses at every exponent of ``ps`` -> (len(ps), shells),
    each equal to ``_shell_mass``: the geometry of a shell (field values,
    distances, kernel) is built once, and only the exponent runs per p."""
    out = np.empty((len(ps), len(_scan_shells())))
    for j, (lo, hi) in enumerate(_scan_shells()):
        geometry = _shell_geometry(d, delta, probe, lo, hi)
        out[:, j] = [_shell_sum(geometry, p) for p in ps]
    return out


def threshold_scan(d: int, delta: float, probe, p_ladder) -> list[tuple[float, str]]:
    """Classify each exponent in the ladder as converging or diverging.

    The ladder must straddle the critical exponent d/(d-1) and must not
    contain it exactly (log-factor sensitive by contract).  Each
    exponent's shell exponent is ``shell_exponent``'s, from one geometry
    pass per shell for the whole ladder.
    """
    ps = [float(p) for p in p_ladder]
    critical = d / (d - 1.0)
    if any(abs(p - critical) < 1e-9 for p in ps):
        raise DomainError(
            f"the borderline exponent {critical} is excluded from scans")
    if not (min(ps) < critical < max(ps)):
        raise DomainError("the exponent ladder must straddle the threshold")
    cases = [PathologyCase(d, p, delta) for p in ps]   # validates each p
    probe = _check_probe(cases[0], probe)
    masses = _scan_masses(d, delta, probe, ps)
    return [(p, "diverging" if _fitted_exponent(m) < 0.0 else "converging")
            for p, m in zip(ps, masses)]


def gradient_mass_ladder(d: int, inner_cutoffs) -> list[tuple[float, float]]:
    """Grid integrals of |grad u| over {cut < |x| < 1/2}.

    Stability of these masses as the inner cutoff shrinks is the
    desk-scale witness that the field is W^{1,1} near its origin
    singularity (the gradient profile (r |ln r|^2)^-1 is integrable at
    0).  The outer radius stays at 1/2, where the cutoff starts: a grid
    out to the full support 3/4 would be coarser than every inner cutoff.
    """
    u = pathological_field(d)
    outer = 0.5
    n = {2: 1024, 3: 128}[d]
    h = 2.0 * outer / n
    axis = -outer + h * np.arange(n)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    radii = np.linalg.norm(pts, axis=1)
    grad_mag = np.linalg.norm(u.gradient_many(pts), axis=1)
    return [(float(cut), float(np.sum(grad_mag[(radii > cut) & (radii < outer)]) * h**d))
            for cut in inner_cutoffs]
