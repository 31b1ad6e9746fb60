import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ncx2

from bbmlab import fields, perimeter as P
from bbmlab.errors import DomainError
from bbmlab.functionals import QuadratureScheme

FAST_2D = QuadratureScheme(sphere_order=32, radial_level=3, x_resolution=192)


def test_interval_both_methods_near_exact():
    E = fields.interval_set(0.0, 1.0)
    bbm = P.estimate(E, 2**10, "bbm")
    dg = P.estimate(E, 2**10, "degiorgi")
    assert bbm.exact == 2.0
    assert bbm.rel_error < 1e-6
    assert dg.rel_error < 1e-6
    assert abs(bbm.value - dg.value) / 2.0 < 1e-6


@pytest.mark.parametrize("E", [
    fields.box_set([0.0], [0.0]), fields.box_set([1.0], [0.0]),
    fields.box_set([0.0, 0.0], [0.0, 1.0]), fields.box_set([0.0] * 3, [1.0, -1.0, 1.0]),
    fields.ball_set([0.5], 0.0), fields.ball_set([0.0, 0.0], 0.0),
    fields.ball_set([0.0] * 3, 0.0)],
    ids=["point", "reversed-interval", "segment-2d", "reversed-box-3d",
         "ball-1d-r0", "ball-2d-r0", "ball-3d-r0"])
def test_empty_set_perimeter_zero(E):
    assert E.exact_perimeter() == 0.0
    assert P.bbm_perimeter(E, 2**8) == 0.0
    assert P.degiorgi_perimeter(E, 2**8) == 0.0


@pytest.mark.parametrize("n", [2.0**4, 2.0**8, 2.0**10, 2.0**14])
@pytest.mark.parametrize("a,b", [(-0.3, 0.5), (0.0, 1.0), (0.2, 0.25), (-1.1, 0.0)])
def test_interval_degiorgi_perimeter_is_its_closed_form(a, b, n):
    # W_n is unimodal, so int |W_n'| = 2 W_n(midpoint) = 2 sqrt(pi) erf(...)
    length = b - a
    exact = 2.0 * math.erf(math.sqrt(n) * length / 2.0)
    for E in (fields.interval_set(a, b), fields.ball_set([(a + b) / 2], length / 2)):
        assert P.degiorgi_perimeter(E, n) == pytest.approx(exact, rel=1e-15, abs=0)
    # independent: past the midpoint W_n' = sqrt(n)(exp(-n(x-b)^2) - exp(-n(x-a)^2))
    # is positive, and |W_n'| is symmetric about the midpoint
    rn = math.sqrt(n)
    half, _ = quad(lambda x: rn * (math.exp(-n * (x - b)**2)
                                   - math.exp(-n * (x - a)**2)),
                   (a + b) / 2, b + 40.0 / rn, points=[b], epsabs=0,
                   epsrel=1e-13, limit=200)
    assert P.degiorgi_perimeter(fields.interval_set(a, b), n) == pytest.approx(
        2.0 * half / math.sqrt(math.pi), rel=1e-13, abs=0)


def test_bbm_rejects_unbounded_sets():
    with pytest.raises(DomainError):
        P.bbm_perimeter(fields.half_space_set([1.0], 0.0), 2**8)


def test_ball_2d_degiorgi():
    E = fields.ball_set([0.0, 0.0], 1.0)
    est = P.estimate(E, 2**10, "degiorgi")
    assert est.rel_error < 5e-3


def test_ball_2d_bbm_fast_scheme():
    E = fields.ball_set([0.0, 0.0], 1.0)
    est = P.estimate(E, 2**8, "bbm", scheme=FAST_2D)
    assert est.rel_error < 5e-3


def test_degiorgi_monotone_improvement_ladder():
    E = fields.ball_set([0.0, 0.0], 1.0)
    errs = [P.estimate(E, n, "degiorgi").rel_error
            for n in (2**8, 2**10, 2**12)]
    assert errs[0] > errs[1] > errs[2]


def test_translation_invariance():
    a = P.estimate(fields.ball_set([0.0, 0.0], 1.0), 2**8, "degiorgi").value
    b = P.estimate(fields.ball_set([0.35, -0.2], 1.0), 2**8, "degiorgi").value
    assert a == pytest.approx(b, rel=1e-4)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [256.0, 4096.0])
@pytest.mark.parametrize("R", [0.3, 1.0])
def test_ball_degiorgi_perimeter_matches_quad_of_the_radial_integral(d, n, R):
    # W_n = pi^(d/2) P(|Y| <= R), Y ~ N(x, I/(2n)), is radial and decreasing:
    # int |grad W_n| = |S^(d-1)| (d-1) int_0^inf rho^(d-2) W_n(rho) drho
    s2 = 1.0 / (2.0 * n)

    def integrand(rho):
        return rho ** (d - 2) * float(ncx2.cdf(R * R / s2, d, rho * rho / s2))
    value, _ = quad(integrand, 0.0, R + 12.0 / math.sqrt(n), points=(R,), epsabs=0,
                    epsrel=1e-13, limit=400)
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    E = fields.ball_set([0.2] + [-0.1] * (d - 1), R)
    assert P.degiorgi_perimeter(E, n) == pytest.approx(sphere * (d - 1) * value,
                                                       rel=1e-12, abs=0)
    # no grid is read
    assert P.degiorgi_perimeter(E, n, resolution=8) == P.degiorgi_perimeter(E, n)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_degiorgi_rejects_unbounded_sets(d):
    # a half-space has infinite perimeter; no window of it is one
    H = fields.half_space_set([1.0] + [0.0] * (d - 1), 0.1)
    for call in (lambda: P.degiorgi_perimeter(H, 1024.0),
                 lambda: P.estimate(H, 1024.0, "degiorgi"),
                 lambda: P.degiorgi_route(H)):
        with pytest.raises(DomainError):
            call()


def _orthant_quad(lo, hi, n, epsrel):
    """int |grad W_n| / B_d for the box [lo, hi] by nested quad.

    W_n is the product of the factors f_i = sqrt(n) int exp(-n (x_i - y)^2) dy
    over [lo_i, hi_i], so |grad W_n|^2 = sum_i f_i'^2 prod_(j != i) f_j^2,
    which is even about the centre in each coordinate: 2^d times the
    integral over the orthant above the centre, split at the faces."""
    d, rn = len(lo), math.sqrt(n)
    kw = dict(epsabs=0, epsrel=epsrel, limit=200)

    def integral(i, prod, grad):
        # prod = prod_(j < i) f_j^2, grad = sum_(j < i) f_j'^2 prod_(k < i, k != j) f_k^2
        a, b = lo[i], hi[i]

        def g(t):
            f = 0.5 * math.sqrt(math.pi) * (math.erf(rn * (b - t)) - math.erf(rn * (a - t)))
            df = rn * (math.exp(-n * (a - t) ** 2) - math.exp(-n * (b - t) ** 2))
            p, q = prod * f * f, grad * f * f + prod * df * df
            return math.sqrt(q) if i == d - 1 else integral(i + 1, p, q)
        return quad(g, (a + b) / 2.0, b + 12.0 / rn, points=[b], **kw)[0]
    return 2 ** d * integral(0, 1.0, 0.0) / math.pi ** (d / 2.0)


def test_box_degiorgi_perimeter_matches_quad_of_the_gradient():
    # the quad reads 2.6878425511114 and the sum 2.6878425511148, where
    # finer sums settle
    lo, hi, n = (-0.5, -0.2), (0.5, 0.3), 64.0
    assert P.degiorgi_perimeter(fields.box_set(list(lo), list(hi)), n) \
        == pytest.approx(_orthant_quad(lo, hi, n, 1e-12), rel=0, abs=1e-11)


def test_sliver_box_degiorgi_perimeter_matches_quad_of_the_gradient():
    # a side far below 1/sqrt(n): the cone at the centre spans the whole
    # first panel of the face band, which the grading must resolve
    lo, hi, n = (0.0, 0.0), (1e-4, 3.0), 16.0
    assert P.degiorgi_perimeter(fields.box_set(list(lo), list(hi)), n) \
        == pytest.approx(_orthant_quad(lo, hi, n, 1e-12), rel=1e-12, abs=0)


def test_box_3d_degiorgi_perimeter_matches_quad_of_the_gradient():
    # the quad and the sum agree to 3e-15 at 0.84154024946319
    lo, hi, n = (0.0, 0.0, 0.0), (1.0, 0.5, 0.25), 16.0
    assert P.degiorgi_perimeter(fields.box_set(list(lo), list(hi)), n) \
        == pytest.approx(_orthant_quad(lo, hi, n, 1e-10), rel=0, abs=1e-10)


@pytest.mark.parametrize("n", [1.0, 16.0, 256.0, 4096.0, 2.0**14])
@pytest.mark.parametrize("lo,hi", [
    ((0.0, 0.0), (1.0, 0.5)), ((-3.0, -3.0), (3.0, 3.0)), ((0.0, 0.0), (1e-4, 3.0)),
    ((-0.4,) * 3, (0.4,) * 3), ((0.0,) * 3, (1.0, 0.5, 0.25)),
    ((0.0,) * 3, (1e-3, 0.5, 2.0))],
    ids=["2d", "2d-square", "2d-sliver", "cube", "3d", "3d-slab"])
def test_box_degiorgi_perimeter_never_exceeds_the_perimeter(lo, hi, n):
    # convolving with a probability kernel cannot raise total variation
    E = fields.box_set(list(lo), list(hi))
    value = P.degiorgi_perimeter(E, n)
    assert 0.0 < value <= E.exact_perimeter()


def test_box_scaling_ladder():
    # Per scales linearly under dilation; the estimator tracks it at
    # matched concentration n * lambda^2
    base = fields.box_set([-0.5, -0.5], [0.5, 0.5])
    v1 = P.estimate(base, 2**10, "degiorgi").value
    lam = 1.5
    scaled = fields.box_set([-0.75, -0.75], [0.75, 0.75])
    v2 = P.estimate(scaled, 2**10 / lam**2, "degiorgi").value
    assert v2 == pytest.approx(lam * v1, rel=1e-3)


# ---------------------------------------------------------------------------
# smoothed field W
# ---------------------------------------------------------------------------

def shell_field_quad(rho, R, n, d):
    """W_n at distance rho from the centre of a ball of radius R:
    n^(d/2) int exp(-n r^2) |S_r(x) cap B| dr by quad, split at |rho - R|
    and rho + R, where the covered angle (d = 2) or solid angle (d = 3)
    of the sphere of radius r about x starts and stops changing.  On that
    band r = a + (b - a) sin^2(phi) takes out the square-root endpoint
    behaviour of the covered angle."""
    full = 2.0 * math.pi if d == 2 else 4.0 * math.pi
    kw = dict(epsabs=1e-15, epsrel=1e-13, limit=200)

    def covered(r):
        c = min(max((rho * rho + r * r - R * R) / (2.0 * rho * r), -1.0), 1.0)
        return 2.0 * math.acos(c) * r if d == 2 else 2.0 * math.pi * (1.0 - c) * r * r

    value = 0.0
    if rho < R:
        value += quad(lambda r: math.exp(-n * r * r) * full * r ** (d - 1),
                      0.0, R - rho, **kw)[0]
    if rho > 0.0:
        a, b = abs(rho - R), rho + R

        def band(phi):
            r = a + (b - a) * math.sin(phi) ** 2
            return math.exp(-n * r * r) * covered(r) * (b - a) * math.sin(2.0 * phi)
        value += quad(band, 0.0, math.pi / 2.0, **kw)[0]
    return n ** (d / 2.0) * value


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [64.0, 256.0, 4096.0])
def test_ball_field_matches_quad_of_the_shell_integral(d, n):
    # the W_n / B_d that the De Giorgi ball sum integrates, at random
    # distances and across the band |rho - R| < 4/sqrt(n) where W_n falls
    # from pi^(d/2) to 0
    R = 0.8
    gen = np.random.default_rng(11)
    rhos = np.concatenate([gen.uniform(0.0, 2.0, 60),
                           R + np.linspace(-4.0, 4.0, 9) / math.sqrt(n)])
    W = math.pi ** (d / 2.0) * P._ball_profile(d, R, n, rhos)
    for rho, w in zip(rhos, W):
        assert w == pytest.approx(shell_field_quad(rho, R, n, d), abs=1e-12)


def test_degiorgi_routes_read_no_grid():
    sets = [fields.interval_set(0.0, 1.0), fields.ball_set([0.0], 0.5),
            fields.ball_set([0.0, 0.0], 1.0), fields.box_set([-1.0, -1.0], [1.0, 1.0]),
            fields.box_set([0.0] * 3, [1.0] * 3)]
    assert [P.degiorgi_route(E) for E in sets] == [
        "interval", "interval", "ball", "box", "box"]
    E = sets[3]
    with pytest.raises(TypeError):
        P.degiorgi_perimeter(E, 2**6, half_width=1.05)
    with pytest.raises(TypeError):
        P.estimate(E, 2**6, "degiorgi", resolution=128)
    # resolution= is accepted, and read by no route
    assert P.degiorgi_perimeter(E, 2**6, resolution=128) == P.degiorgi_perimeter(E, 2**6)


def test_ball_3d_degiorgi():
    E = fields.ball_set([0.0, 0.0, 0.0], 0.8)
    est = P.estimate(E, 2**10, "degiorgi")
    assert est.exact == pytest.approx(4 * math.pi * 0.8**2)
    assert est.rel_error < 1e-2


def test_box_3d_degiorgi():
    E = fields.box_set([-0.4, -0.4, -0.4], [0.4, 0.4, 0.4])
    est = P.estimate(E, 2**10, "degiorgi")
    assert est.exact == pytest.approx(6 * 0.8**2)
    # cube edges add an O(n^-1/2) bias on top of the face profiles
    assert est.rel_error < 6e-2


def test_estimate_json_and_unknown_method():
    E = fields.interval_set(0.0, 1.0)
    est = P.estimate(E, 2**8, "degiorgi")
    payload = est.to_json()
    assert payload["method"] == "degiorgi"
    assert payload["exact"] == 2.0
    with pytest.raises(DomainError):
        P.estimate(E, 2**8, "midpoint")
