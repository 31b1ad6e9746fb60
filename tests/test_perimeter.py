import math

import numpy as np
import pytest
from scipy.integrate import quad

from bbmlab import fields, perimeter as P
from bbmlab.errors import DomainError, ValidityError
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


def test_empty_set_perimeter_zero():
    E = fields.box_set([0.0], [0.0])
    assert P.bbm_perimeter(E, 2**8) == 0.0


def test_bbm_rejects_unbounded_sets():
    with pytest.raises(DomainError):
        P.bbm_perimeter(fields.half_space_set([1.0], 0.0), 2**8)


def test_ball_2d_degiorgi():
    E = fields.ball_set([0.0, 0.0], 1.0)
    est = P.estimate(E, 2**10, "degiorgi", resolution=384)
    assert est.rel_error < 5e-3


def test_ball_2d_bbm_fast_scheme():
    E = fields.ball_set([0.0, 0.0], 1.0)
    est = P.estimate(E, 2**8, "bbm", scheme=FAST_2D)
    assert est.rel_error < 5e-3


def test_degiorgi_monotone_improvement_ladder():
    E = fields.ball_set([0.0, 0.0], 1.0)
    errs = [P.estimate(E, n, "degiorgi", resolution=384).rel_error
            for n in (2**8, 2**10, 2**12)]
    assert errs[0] > errs[1] > errs[2]


def test_translation_invariance():
    a = P.estimate(fields.ball_set([0.0, 0.0], 1.0), 2**8, "degiorgi",
                   resolution=384).value
    b = P.estimate(fields.ball_set([0.35, -0.2], 1.0), 2**8, "degiorgi",
                   resolution=384).value
    assert a == pytest.approx(b, rel=1e-4)


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

def test_halfspace_profile_levels():
    H = fields.half_space_set([1.0, 0.0], 0.0)
    W = P.degiorgi_field(H, 2**10, half_width=1.0, resolution=512)
    plateau = math.pi   # full-plane gaussian integral
    assert fields.eval_field(W, [-0.8, 0.1]) == pytest.approx(plateau, rel=1e-9)
    assert fields.eval_field(W, [0.0, -0.3]) == pytest.approx(plateau / 2, rel=1e-9)
    assert fields.eval_field(W, [0.8, 0.0]) == pytest.approx(0.0, abs=1e-9)


def test_ball_field_outside_decay_and_plateau():
    E = fields.ball_set([0.0, 0.0], 1.0)
    n = 2**10
    W = P.degiorgi_field(E, n, resolution=256)
    far = 1.0 + 6.0 / math.sqrt(n)
    assert abs(fields.eval_field(W, [far + 0.05, 0.0])) < 1e-6
    assert fields.eval_field(W, [0.0, 0.0]) == pytest.approx(math.pi, rel=1e-6)


def test_ball_field_3d_plateau():
    E = fields.ball_set([0.0, 0.0, 0.0], 0.8)
    W = P.degiorgi_field(E, 2**10, resolution=48)
    assert fields.eval_field(W, [0.0, 0.0, 0.0]) == pytest.approx(
        math.pi**1.5, rel=1e-6)


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
    centre, R = [0.1] + [0.0] * (d - 1), 0.8
    W = P.degiorgi_field(fields.ball_set(centre, R), n, resolution=48)
    nodes = W.axis_nodes()
    gen = np.random.default_rng(11)
    # node-aligned points (no interpolation error), among them the band
    # |rho - R| < 4/sqrt(n) where W_n falls from pi^(d/2) to 0
    picks = [gen.integers(0, nodes.size, d) for _ in range(60)]
    near = np.argmin(np.abs(nodes - (centre[0] + R)))
    picks += [np.array([near + k] + [nodes.size // 2] * (d - 1)) for k in (-1, 0, 1)]
    for idx in picks:
        x = nodes[idx]
        rho = float(np.linalg.norm(x - np.asarray(centre)))
        assert W.values[tuple(idx)] == pytest.approx(
            shell_field_quad(rho, R, n, d), abs=1e-12)


def test_interval_field_matches_erf_profile():
    E = fields.interval_set(-0.5, 0.5)
    n = 2**8
    W = P.degiorgi_field(E, n, resolution=2048)
    from scipy.special import erf
    for x in W.axis_nodes()[::97]:   # node-aligned: no interpolation error
        exact = 0.5 * math.sqrt(math.pi) * (
            erf(math.sqrt(n) * (0.5 - x)) - erf(math.sqrt(n) * (-0.5 - x)))
        assert fields.eval_field(W, [x]) == pytest.approx(exact, abs=1e-12)


def test_margin_validation():
    E = fields.ball_set([0.0, 0.0], 1.0)
    with pytest.raises(ValidityError):
        P.degiorgi_field(E, 2**6, half_width=1.05, resolution=128)


def test_ball_3d_degiorgi():
    E = fields.ball_set([0.0, 0.0, 0.0], 0.8)
    est = P.estimate(E, 2**10, "degiorgi", resolution=64)
    assert est.exact == pytest.approx(4 * math.pi * 0.8**2)
    assert est.rel_error < 1e-2


def test_box_3d_degiorgi():
    E = fields.box_set([-0.4, -0.4, -0.4], [0.4, 0.4, 0.4])
    est = P.estimate(E, 2**10, "degiorgi", resolution=96)
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
