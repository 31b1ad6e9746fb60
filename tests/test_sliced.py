"""The sliced route of 2D/3D energies against independent oracles.

A gaussian u = a exp(-(x - c)^T A (x - c)) is gaussian along every line,
so G(r sigma) = int |u(x + r sigma) - u(x)|^p dx is one 1D integral:

    G = a^p (pi/p)^((d-1)/2) det(A)^(-1/2) g1(sqrt(sigma^T A sigma) r, p),
    g1(s, p) = int |exp(-(t + s)^2) - exp(-t^2)|^p dt,

which is 2 sqrt(pi) erf(s/2) at p = 1.  For t > -s/2 the first term is the
smaller, so g1 = 2^(1+p) int_0^inf (exp(-tau^2 - s^2/4) sinh(tau s))^p dtau,
a smooth integrand but for tau^p at 0: a composite Gauss rule graded
toward 0 sums it (checked against ``quad`` here).  Then
E = int_S int rho r^(d-1-p) G dr dsigma, with the radial integral on its
own fine rule per kernel family, and the sphere integral on 128 uniform
directions in 2D, or, for a field whose A has an axis of symmetry v, as
2 pi int_{-1}^{1} f(sigma . v) d(sigma . v) in 3D.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from bbmlab import fields, functionals as F, mollifiers as mf, quadrature as Q, sliced as S
from bbmlab.errors import DomainError, EvaluationError
from bbmlab.functionals import QuadratureScheme

ULP = 2.0 ** -52
DEFAULT = QuadratureScheme()


def g1(s, p):
    """g1(s, p) at the s >= 0 of any shape."""
    s = np.asarray(s, dtype=float)
    if p == 1.0:
        return 2.0 * math.sqrt(math.pi) * erf(0.5 * s)
    edges = np.unique(np.concatenate([2.0 ** -np.arange(1.0, 50.0),
                                      np.linspace(0.0, 0.5 * s.max() + 8.0, 65)]))
    tau, w = Q.composite_gauss(edges, 16)
    flat = s.reshape(-1)
    out = np.empty(flat.size)
    step = max(1, 2 ** 17 // tau.size)
    for i in range(0, flat.size, step):
        ss = flat[i:i + step, None]
        out[i:i + step] = (np.exp(-tau * tau - 0.25 * ss * ss) * np.sinh(tau * ss)) ** p @ w
    return 2.0 ** (1.0 + p) * out.reshape(s.shape)


def radial_rule(m):
    """(r, W) with sum W f(r) = int_0^r_max rho(r) r^(d-1) f(r) dr for f
    smooth in r^2: Gauss panels for the indicator and the gaussian; for
    the power law rho r^(d-1) = C r^(a-1), a = delta + d - 1, so r = u^(1/a)
    makes the measure C/a du, graded toward u = 0 where r^2 = u^(2/a)."""
    d, r_max = m.dimension, m.quadrature_radius()
    if m.kind == "powerlaw":
        a = m.param + d - 1.0
        u, w = Q.composite_gauss(np.unique(np.concatenate([[0.0, 1.0],
                                                           2.0 ** -np.arange(1.0, 60.0)])), 16)
        return u ** (1.0 / a), w * m.moment(0.0)
    r, w = Q.composite_gauss(np.linspace(0.0, r_max, 33 if m.kind == "gaussian" else 3), 16)
    return r, w * m.evaluate(r) * r ** (d - 1)


def oracle(d, A, amp, p, m, axis=None):
    """E of amp exp(-(x - c)^T A (x - c)) (any c): in 3D A must be
    symmetric about ``axis``."""
    A = np.asarray(A, dtype=float)
    r, W = radial_rule(m)
    const = amp ** p * (math.pi / p) ** ((d - 1) / 2.0) / math.sqrt(np.linalg.det(A))
    if d == 2:
        theta = math.pi * (np.arange(128) + 0.5) / 128
        sig = np.column_stack([np.cos(theta), np.sin(theta)])
        wsig = np.full(128, 2.0 * math.pi / 128)
    else:
        z, wz = Q.composite_gauss(np.array([-1.0, 0.0, 1.0]), 24)
        perp = np.linalg.svd(np.asarray(axis)[None])[2][1]
        sig = np.outer(z, axis) + np.sqrt(1.0 - z * z)[:, None] * perp
        wsig = 2.0 * math.pi * wz
    k = np.sqrt(np.einsum("ki,ij,kj->k", sig, A, sig))
    return const * float(wsig @ (g1(np.outer(k, r), p) @ (W / r ** p)))


def gaussian_field(d, A, c, amp=1.0, R=6.5):
    A, c = np.asarray(A, dtype=float), np.asarray(c, dtype=float)

    def ev(q):
        y = q - c
        return amp * np.exp(-np.einsum("ij,jk,ik->i", y, A, y))
    return fields.AnalyticField(d, ev, support_radius=R, label="gaussian")


def tilt2(ratio):
    """A 2D A with eigenvalues 1 and ratio, its axes turned by 0.3."""
    c, s = math.cos(0.3), math.sin(0.3)
    Q2 = np.array([[c, -s], [s, c]])
    return Q2 @ np.diag([1.0, ratio]) @ Q2.T


AXIS = np.array([1.0, 2.0, 2.0]) / 3.0
TILT3 = np.eye(3) + np.outer(AXIS, AXIS)    # eigenvalues 1, 1, 2 about AXIS
KERNELS = {"indicator": lambda d: mf.indicator(0.25, d),
           "gaussian": lambda d: mf.gaussian(32.0, d)}
FIELDS2 = {"centred": (np.eye(2), [0.0, 0.0], 1.0),
           "tilted": (tilt2(2.0), [0.3, -0.2], 1.0)}


def check(value, estimate, exact, rtol):
    """The value meets the oracle to rtol, and its error lies within its
    own estimate plus 8 ulp."""
    assert value == pytest.approx(exact, rel=rtol, abs=0)
    assert abs(value - exact) <= estimate + 8.0 * ULP * abs(value)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_g1_oracle_meets_quad(p):
    for s in (0.01, 0.3, 1.3):
        def f(t):
            return abs(math.exp(-(t + s) ** 2) - math.exp(-t * t)) ** p
        ref = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                  for a, b in ((-40.0, -0.5 * s), (-0.5 * s, 40.0)))
        assert g1(s, p) == pytest.approx(ref, rel=1e-13, abs=0)


# the gaussian kernel's 64 lags make its cases the slow ones: three of six
DEFAULT_CASES = [(name, "indicator", p) for name in sorted(FIELDS2) for p in (1.0, 1.5, 3.0)] \
    + [("centred", "gaussian", 1.0), ("tilted", "gaussian", 1.5), ("tilted", "gaussian", 3.0)]


@pytest.mark.parametrize("name,kind,p", DEFAULT_CASES)
def test_2d_gaussians_meet_the_slicing_oracle_at_the_defaults(name, kind, p):
    A, c, amp = FIELDS2[name]
    u, m = gaussian_field(2, A, c, amp), KERNELS[kind](2)
    assert F.energy_route(u, p, m) == "sliced"
    value, estimate = S._sliced_energy(u, m, p, DEFAULT)
    assert F.energy(u, m, p) == value
    check(value, estimate, oracle(2, A, amp, p, m), 1e-12)


@pytest.mark.parametrize("kind,p", [("gaussian", 1.5), ("indicator", 3.0)])
def test_an_off_centre_gaussian_meets_the_oracle(kind, p):
    A = 1.5 * np.eye(2)
    u, m = gaussian_field(2, A, [0.7, -0.4], amp=2.0), KERNELS[kind](2)
    check(*S._sliced_energy(u, m, p, DEFAULT), oracle(2, A, 2.0, p, m), 1e-12)


def test_a_steeper_tilt_needs_more_directions():
    # eigenvalue ratio 3.5: 16 directions leave ~4e-11, within the
    # estimate; 24 meet the oracle to 1e-12
    A = tilt2(3.5)
    u, m = gaussian_field(2, A, [0.0, 0.0]), mf.indicator(0.25, 2)
    exact = oracle(2, A, 1.0, 1.0, m)
    value, estimate = S._sliced_energy(u, m, 1.0, DEFAULT)
    assert abs(value - exact) <= estimate
    check(*S._sliced_energy(u, m, 1.0, QuadratureScheme(sphere_order=24)), exact, 1e-12)


@pytest.mark.parametrize("p", [1.5])
def test_the_power_law_reaches_its_level_4_floor(p):
    # its measure converges only algebraically in the lag rule: level 3
    # is 7e-10 off at delta = 0.3, level 4 (the default) 1.2e-10 (p = 1)
    # and 2.5e-10 (p = 1.5); the estimate does not see the lag rule
    m = mf.power_law(0.3, 2)
    value, _ = S._sliced_energy(fields.gaussian_bump(2), m, p, DEFAULT)
    assert value == pytest.approx(oracle(2, np.eye(2), 1.0, p, m), rel=5e-10, abs=0)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_3d_centred_bump_meets_the_oracle(p):
    # a radial field: every direction sees the same G, so two directions
    # of the product rule's upper half stand for all of them.  At p = 3
    # the default 16 panels a line leave 2e-11, which the estimate does
    # not see; 32 (x_resolution 96) leave rounding
    u, m = fields.gaussian_bump(3), mf.indicator(0.25, 3)
    scheme = QuadratureScheme(sphere_order=2, x_resolution=96 if p == 3.0 else None)
    check(*S._sliced_energy(u, m, p, scheme), oracle(3, np.eye(3), 1.0, p, m, AXIS), 1e-9)


def test_3d_centred_bump_with_the_gaussian_kernel():
    u, m = fields.gaussian_bump(3), mf.gaussian(32.0, 3)
    check(*S._sliced_energy(u, m, 1.0, QuadratureScheme(sphere_order=2)),
          oracle(3, np.eye(3), 1.0, 1.0, m, AXIS), 1e-9)


def test_3d_tilted_gaussian_meets_the_oracle_on_the_default_directions():
    # eigenvalues 1, 1, 2 about an axis off every coordinate plane; 32
    # lines a side leave ~1e-12 at p = 1
    u, m = gaussian_field(3, TILT3, [0.3, -0.2, 0.1]), mf.indicator(0.25, 3)
    check(*S._sliced_energy(u, m, 1.0, QuadratureScheme(x_resolution=32)),
          oracle(3, TILT3, 1.0, 1.0, m, AXIS), 1e-9)


def test_the_reduced_2d_scheme_of_the_benchmark():
    # x_resolution 24: 8 panels a line, 16 directions, 8 lags
    u, m = fields.gaussian_bump(2), mf.indicator(2.0 ** -3, 2)
    value = F.energy(u, m, 1.0, QuadratureScheme(x_resolution=24))
    assert value == pytest.approx(oracle(2, np.eye(2), 1.0, 1.0, m), rel=1e-10, abs=0)
    # pinned: its roots come from quadrature.illinois, bit for bit those of
    # the loop the route kept before
    assert value.hex() == "0x1.64242303a4b3ap+4"


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_at_p_2_the_sliced_route_meets_the_multiplier_route(d, kind):
    # two independent routes of one energy: lines, and one FFT; in 3D a
    # radial field, on two directions
    m = KERNELS[kind](d)
    if d == 2:
        u, scheme, rtol = gaussian_field(2, tilt2(2.0), [0.3, -0.2], R=6.0), None, 1e-12
    else:
        u, scheme, rtol = fields.gaussian_bump(3), QuadratureScheme(sphere_order=2), 1e-9
    assert F.energy_route(u, 2.0, m) == "multiplier"
    value, _ = S._sliced_energy(u, m, 2.0, scheme or QuadratureScheme())
    assert value == pytest.approx(F.energy(u, m, 2.0), rel=rtol, abs=0)


# ---------------------------------------------------------------------------
# cuts: the support sphere, roots two to a panel, a tangency
# ---------------------------------------------------------------------------

def one_line(u, p, r, y, panels=8, r_max=0.25, R=1.0):
    """G_l(r) of the lines x = (t, y) of a 2D field of support radius R,
    lags r (nr,) and lines y (b,) -> (nr, b)."""
    o = np.column_stack([np.zeros_like(y), y])
    s = np.tile([1.0, 0.0], (y.size, 1))
    sums, _ = S._sliced_sums(u, p, np.asarray(r), o, s, np.sqrt(R * R - y * y), r_max,
                             panels, y.size, 0.0)
    return sums.sum(axis=2)


DISK = fields.AnalyticField(2, lambda q: np.ones(q.shape[0]), support_radius=1.0,
                            label="1 on the unit disk")


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_lines_are_cut_where_they_cross_the_support_sphere(p):
    # 1 on the unit disk jumps to 0 on its edge: along a line of chord 2c
    # G_l(r) = 2 min(r, 2c), which the cuts at -c, -c - r and c - r give
    # to rounding (without them it is up to 34% off)
    r, y = np.array([0.03, 0.1, 0.2, 0.24]), np.array([0.0, 0.5, 0.9, 0.99, 0.999])
    exact = 2.0 * np.minimum(r[:, None], 2.0 * np.sqrt(1.0 - y * y)[None])
    np.testing.assert_allclose(one_line(DISK, p, r, y), exact, rtol=1e-14, atol=0)


def test_a_field_with_a_jump_on_its_support_sphere_meets_the_covariogram_route():
    # the lines' midpoint rule in y meets a kink where the chord 2c equals
    # a lag, so the whole energy converges algebraically in the line
    # count: 1.3e-3 off at 96 lines, 3.9e-4 at 384
    m = mf.indicator(0.25, 2)
    exact = F.energy(fields.ball_set([0.0, 0.0], 1.0), m, 1.0)
    assert F.energy_route(fields.ball_set([0.0, 0.0], 1.0), 1.0, m) == "covariogram"
    for n, rtol in ((96, 2e-3), (384, 5e-4)):
        value = F.energy(DISK, m, 1.0, QuadratureScheme(x_resolution=n))
        assert value == pytest.approx(exact, rel=rtol, abs=0)


def oscillating(omega):
    """sin(omega x1) exp(-x2^2) on the disk of radius 4: along x2 = y its
    difference at lag r is 2 exp(-y^2) cos(omega (t + r/2)) sin(omega r/2)."""
    return fields.AnalyticField(
        2, lambda q: np.sin(omega * q[:, 0]) * np.exp(-q[:, 1] ** 2), support_radius=4.0)


@pytest.mark.parametrize("p,panels", [(1.0, 8), (1.5, 8), (3.0, 16)])
def test_two_roots_in_one_panel_meet_a_cut_quad(p, panels):
    # roots pi/4 apart, panels (8 + 0.25)/8 wide: some hold two.  At p = 3
    # a root-only panel takes its D^3 sum from its own Gauss nodes, which
    # resolve cos(4t)^3 only at 16 panels (one root a panel; 8 panels
    # leave 5e-7); the support sphere cuts the lines where sin(4t) is not 0
    omega, y, r = 4.0, np.array([0.0, 1.1, 2.9]), np.array([0.07, 0.19])
    got = one_line(oscillating(omega), p, r, y, panels=panels, R=4.0)
    for i, lag in enumerate(r):
        for l, yl in enumerate(y):
            c = math.sqrt(16.0 - yl * yl)

            def u(t):
                return math.sin(omega * t) if abs(t) <= c else 0.0

            def f(t):
                return abs((u(t + lag) - u(t)) * math.exp(-yl * yl)) ** p
            # the roots of D inside, and of u(t + r) or u(t) alone where
            # the other has left the support
            m_ = math.pi * np.arange(-12, 13)
            roots = np.concatenate([(0.5 * math.pi + m_) / omega - 0.5 * lag,
                                    m_ / omega, m_ / omega - lag])
            cuts = np.unique(np.concatenate([[-c - 0.25, -c - lag, -c, c - lag, c],
                                             roots[np.abs(roots) < c]]))
            ref = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                      for a, b in zip(cuts[:-1], cuts[1:]))
            assert got[i, l] == pytest.approx(ref, rel=1e-11, abs=0)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_a_tangency_costs_at_most_its_panels_share(p):
    # u = t^3 - 3 a^2 t on the disk of radius 2: at the lag r = a sqrt(12)
    # its difference 3 r (t + r/2)^2 touches 0 at t = -r/2 without a sign
    # change, so no cut is made there; the sum misses by no more than the
    # integral over the panel that holds the tangency
    a = 0.05
    r = a * math.sqrt(12.0)
    u = fields.AnalyticField(2, lambda q: q[:, 0] ** 3 - 3.0 * a * a * q[:, 0],
                             support_radius=2.0)
    got = one_line(u, p, [r], np.array([0.0]), R=2.0)[0, 0]

    def D(t):
        def v(x):
            return x ** 3 - 3.0 * a * a * x if abs(x) <= 2.0 else 0.0
        return abs(v(t + r) - v(t)) ** p
    cuts = [-2.25, -2.0 - r, -2.0, -0.5 * r, 2.0 - r, 2.0]
    exact = sum(quad(D, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for lo, hi in zip(cuts[:-1], cuts[1:]))
    pw = 4.25 / 8
    k = math.floor((-0.5 * r + 2.25) / pw)
    share = quad(D, -2.25 + k * pw, -2.25 + (k + 1) * pw, points=[-0.5 * r],
                 epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert abs(got - exact) <= share


def test_a_non_finite_integrand_names_its_node_in_3d():
    def ev(q):
        out = np.exp(-np.einsum("ij,ij->i", q, q))
        return np.where(np.linalg.norm(q - [0.5, 0.0, 0.0], axis=1) < 0.1, np.nan, out)
    u = fields.AnalyticField(3, ev, support_radius=3.0)
    with pytest.raises(EvaluationError) as err:
        F.energy(u, mf.indicator(0.25, 3), 1.0, QuadratureScheme(x_resolution=16))
    e = err.value
    assert e.stage == "sliced" and 0.0 < e.r <= 0.25
    assert math.isclose(np.linalg.norm(e.sigma), 1.0) and e.sigma[2] > 0.0
    node = np.stack([e.centre, e.centre + e.r * e.sigma])
    assert not np.isfinite(u.eval_many(node)).all()


def test_grid_fields_have_no_2d_energy():
    g = fields.GridField.from_function(lambda q: np.exp(-4.0 * np.sum(q * q, axis=1)),
                                       2, 2.0, 16)
    with pytest.raises(DomainError):
        F.energy(g, mf.indicator(0.25, 2), 1.5)
