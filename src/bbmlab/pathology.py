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
from .errors import DimensionError, DomainError, ProbeError
from .fields import AnalyticField
from .mollifiers import RadialMollifier, power_law
from .reports import ConvergenceReport

SHELL_OUTER = 0.125          # |y| < 1/8 region of the construction
ANNULUS = (0.25, 0.5)        # admissible probe radii
_RADIUS_CLAMP = 1e-12        # sentinel cap scale at the origin

DEFAULT_CUTOFFS = tuple(2.0 ** (-k) / 8.0 for k in range(3, 11))
SCAN_SHELLS = (12, 28)
SHELL_SPHERE_ORDER = 64
SHELL_NODES_PER_PANEL = 12


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 + t * (-15.0 + 6.0 * t))


def cutoff_profile(r):
    """Quintic smoothstep cutoff: 1 on r <= 2, 0 on r >= 3."""
    return 1.0 - _smoothstep(np.asarray(r, dtype=float) - 2.0)


def _cutoff_derivative(r):
    t = np.clip(np.asarray(r, dtype=float) - 2.0, 0.0, 1.0)
    return -(30.0 * t**2 * (1.0 - t) ** 2)


def pathological_field(d: int) -> AnalyticField:
    """The compactly supported W^{1,1} field with a non-L^p singularity.

    The radius is clamped at 1e-12, so the evaluator returns a large
    finite sentinel instead of overflowing at the origin.  Note the
    log factor also vanishes on |x| = 1; the field is singular there
    too, which is inherited from the construction - all divergence
    probes and shells stay inside |y| <= 1/8.
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
        return cutoff_profile(s) * radial_value(s)

    def gr(pts):
        s = np.maximum(np.linalg.norm(pts, axis=1), _RADIUS_CLAMP)
        with np.errstate(divide="ignore"):
            w = s ** (1 - d) / np.log(s) ** 2
            wp = s ** (-d) * ((1 - d) / np.log(s) ** 2
                              - 2.0 / np.log(s) ** 3)
        radial = _cutoff_derivative(s) * w + cutoff_profile(s) * wp
        return radial[:, None] * (pts / s[:, None])

    return AnalyticField(d, ev, gr, support_radius=3.0,
                         label=f"pathological(d={d})")


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
        if self.p < 1:
            raise DomainError("p must be >= 1")
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


def _shell_mass(case: PathologyCase, probe: np.ndarray, s_lo: float,
                s_hi: float, *, field=None) -> float:
    """Integral of the density integrand over {s_lo < |y| < s_hi}."""
    d = case.dimension
    u = field if field is not None else pathological_field(d)
    rho = case.mollifier()
    sphere = quadrature.sphere_rule(d, SHELL_SPHERE_ORDER)
    # log-subdivided panels keep the integrand panel-smooth
    n_panels = max(1, int(math.ceil(math.log2(s_hi / s_lo))))
    edges = np.geomspace(s_lo, s_hi, n_panels + 1)
    s, w = quadrature.composite_gauss(edges, SHELL_NODES_PER_PANEL)
    pts = s[:, None, None] * sphere.nodes[None, :, :]
    uy = u.eval_many(pts.reshape(-1, d)).reshape(s.size, -1)
    ux = u.eval_many(probe.reshape(1, d))[0]
    dist = np.linalg.norm(pts - probe, axis=-1)
    kern = rho.evaluate(dist.reshape(-1)).reshape(s.size, -1) / dist ** case.p
    vals = np.abs(ux - uy) ** case.p * kern
    inner = vals @ sphere.weights
    return float(np.dot(w * s ** (d - 1), inner))


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
    shells = []
    edges = (SHELL_OUTER,) + tuple(case.cutoffs)
    for hi, lo in zip(edges[:-1], edges[1:]):
        shells.append(_shell_mass(case, probe, lo, hi, field=field))
    values = list(np.cumsum(shells))
    return ConvergenceReport(
        labels=[f"tau={c:.3e}" for c in case.cutoffs],
        params=list(case.cutoffs),
        values=values, limit=None)


def shell_exponent(case: PathologyCase, probe, *, field=None) -> float:
    """Fitted dyadic-shell mass exponent beta (divergence iff beta < 0).

    Shell masses m_j over {2^-(j+1) < 8|y| < 2^-j}, j in SCAN_SHELLS, follow
    m ~ tau^beta |ln tau|^gamma; a three-parameter least-squares fit in
    (1, ln tau, ln ln(1/tau)) recovers beta with the log correction
    absorbed, which a plain slope cannot do near the critical exponent.
    """
    probe = _check_probe(case, probe)
    j0, j1 = SCAN_SHELLS
    masses, taus = [], []
    for j in range(j0, j1 + 1):
        hi = 2.0 ** (-j) * SHELL_OUTER
        lo = 2.0 ** (-(j + 1)) * SHELL_OUTER
        masses.append(_shell_mass(case, probe, lo, hi, field=field))
        taus.append(lo)
    masses = np.asarray(masses)
    taus = np.asarray(taus)
    if np.any(masses <= 0):
        # a field with no singularity at the origin: vanishing shells
        return math.inf
    design = np.column_stack([np.ones_like(taus), np.log(taus),
                              np.log(np.log(1.0 / taus))])
    coef, *_ = np.linalg.lstsq(design, np.log(masses), rcond=None)
    return float(coef[1])


def threshold_scan(d: int, delta: float, probe, p_ladder) -> list[tuple[float, str]]:
    """Classify each exponent in the ladder as converging or diverging.

    The ladder must straddle the critical exponent d/(d-1) and must not
    contain it exactly (log-factor sensitive by contract).
    """
    ps = [float(p) for p in p_ladder]
    critical = d / (d - 1.0)
    if any(abs(p - critical) < 1e-9 for p in ps):
        raise DomainError(
            f"the borderline exponent {critical} is excluded from scans")
    if not (min(ps) < critical < max(ps)):
        raise DomainError("the exponent ladder must straddle the threshold")
    out = []
    for p in ps:
        case = PathologyCase(d, p, delta)
        beta = shell_exponent(case, probe)
        out.append((p, "diverging" if beta < 0.0 else "converging"))
    return out


def gradient_mass_ladder(d: int, inner_cutoffs) -> list[tuple[float, float]]:
    """Grid integrals of |grad u| over {cut < |x| < 1/2}.

    Stability of these masses as the inner cutoff shrinks is the
    desk-scale witness that the field is W^{1,1} near its origin
    singularity (the gradient profile (r |ln r|^2)^-1 is integrable at
    0).  The outer radius 1/2 stays below 1 because the literal log factor
    also vanishes on |x| = 1, an artifact region the construction never
    touches.
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
    out = []
    for cut in inner_cutoffs:
        mask = (radii > cut) & (radii < outer)
        out.append((float(cut), float(np.sum(grad_mag[mask]) * h**d)))
    return out
