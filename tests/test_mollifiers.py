import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc, gammainccinv

from bbmlab import mollifiers as mf
from bbmlab.errors import DimensionError, DomainError
from bbmlab.quadrature import GAUSSIAN_TAIL_TOL, segment_rule


def numeric_profile_mass(m, r_hi=None, d=None):
    """Independent normalization oracle: dense composite Gauss on the
    profile times r^(d-1), no mollifier-specific transform."""
    d = d or m.dimension
    r_hi = r_hi or min(m.quadrature_radius(), 60.0)
    nodes, w = segment_rule(1e-14, r_hi, q=12, levels=44)
    return float(np.dot(w, m.evaluate(nodes) * nodes ** (d - 1)))


def quad_mass(m, c=0.0):
    """Independent mass oracle: scipy's adaptive quad of rho(r) r^(d-1)
    over (c, r_max).  The power-law mass on (0, 1) uses the algebraic
    weight r^(delta+d-2), which leaves the flat rho(r) r^(1-delta) to
    integrate; QUADPACK samples that at the endpoints, where rho is
    taken just inside (0, 1)."""
    d = m.dimension
    if m.kind == "powerlaw" and c == 0.0:
        def flat(r):
            r = min(max(r, 1e-300), 1.0 - 1e-16)
            return float(m.evaluate(r)) * r ** (1.0 - m.param)
        return quad(flat, 0.0, 1.0, weight="alg", wvar=(m.param + d - 2.0, 0.0))[0]
    r_hi = np.inf if m.kind == "gaussian" else m.support_radius
    return quad(lambda r: float(m.evaluate(r)) * r ** (d - 1), c, r_hi)[0]


def test_indicator_evaluate_closed_form():
    m = mf.indicator(0.5, 1)
    assert m.evaluate(0.25) == pytest.approx(2.0, abs=0)
    assert m.evaluate(0.75) == 0.0


def test_power_law_vanishes_beyond_unit_support():
    m = mf.power_law(0.1, 1, normalized=False)
    assert m.evaluate(1.5) == 0.0
    assert m.evaluate(0.999) > 0.0


def test_gaussian_value_uses_normalization_constant():
    # C_1 = 2 from the closed-form moment; oracle = numeric solve below
    m = mf.gaussian(1.0, 1)
    assert m.evaluate(1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    mass = numeric_profile_mass(m)
    assert m.evaluate(1.0) / (2.0 * math.exp(-1.0)) == pytest.approx(mass, rel=1e-9)


def test_evaluate_rejects_nonpositive_radius():
    m = mf.indicator(0.5, 1)
    with pytest.raises(DomainError):
        m.evaluate(0.0)
    with pytest.raises(DomainError):
        m.evaluate(np.array([0.5, -1.0]))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("make", [
    lambda d: mf.indicator(0.5, d),
    lambda d: mf.indicator(1.0, d),
    lambda d: mf.gaussian(4.0, d),
    lambda d: mf.gaussian(64.0, d),
    lambda d: mf.power_law(0.3, d),
    lambda d: mf.power_law(0.1, d),
])
def test_normalization_within_1e10(d, make):
    # the profile formula itself has unit mass, by an independent quadrature
    m = make(d)
    mass = quad_mass(m)
    assert abs(mass - 1.0) <= 1e-13
    assert abs(m.normalization() - mass) <= 1e-13


def test_powerlaw_raw_mass_is_delta_over_dplusdeltaminus1():
    delta, d = 0.3, 2
    raw = mf.power_law(delta, d, normalized=False)
    assert raw.normalization() == pytest.approx(delta / (delta + d - 1), rel=1e-14)
    assert abs(quad_mass(raw) - delta / (delta + d - 1)) <= 1e-14


def test_tail_mass_indicator_outside_support():
    assert mf.indicator(0.1, 1).tail_mass(0.2) == 0.0


def test_tail_mass_indicator_closed_form():
    # int_delta^eps d eps^-d r^(d-1) dr = 1 - (delta/eps)^d
    m = mf.indicator(0.5, 2)
    assert m.tail_mass(0.25) == pytest.approx(1 - 0.25**2 / 0.5**2, abs=1e-14)


def test_tail_mass_powerlaw_antiderivative():
    # d=1: tail over (c, 1) of delta t^(delta-1) is 1 - c^delta
    m = mf.power_law(0.5, 1)
    assert m.tail_mass(0.5) == pytest.approx(1 - 0.5**0.5, abs=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1.0, 4.0, 64.0])
@pytest.mark.parametrize("c", [0.1, 0.25, 0.5])
def test_tail_mass_gaussian_is_upper_incomplete_gamma(d, n, c):
    # int_c^inf C_d n^((d+1)/2) r^d exp(-n r^2) dr = Q((d+1)/2, n c^2)
    m = mf.gaussian(n, d)
    assert abs(m.tail_mass(c) - gammaincc((d + 1) / 2.0, n * c * c)) <= 1e-14
    assert abs(m.tail_mass(c) - quad_mass(m, c)) <= 1e-14


def test_gaussian_tail_decreases_with_concentration():
    tails = [mf.gaussian(n, 1).tail_mass(0.5) for n in (1, 4, 16, 64)]
    assert all(b < a for a, b in zip(tails[:-1], tails[1:]))


@pytest.mark.parametrize("d", [1, 2])
def test_tail_mass_vanishes_along_ladders(d):
    for family in (mf.indicator_ladder(d, [1, 2, 3, 4]),
                   mf.gaussian_ladder(d, [2, 4, 6, 8]),
                   [mf.power_law(2.0**-k, d) for k in (1, 2, 3, 4)]):
        tails = [m.tail_mass(0.25) for m in family]
        assert all(b <= a + 1e-15 for a, b in zip(tails[:-1], tails[1:]))
        assert tails[-1] < tails[0] or tails[0] == 0.0


def test_is_nonincreasing():
    for d in (1, 2, 3):
        assert mf.indicator(0.5, d).is_nonincreasing()
        assert mf.power_law(0.1, d).is_nonincreasing()
        assert mf.power_law(0.9, d, normalized=False).is_nonincreasing()
        assert not mf.gaussian(1.0, d).is_nonincreasing()


def test_unit_support_flag():
    assert mf.indicator(0.5, 1).unit_support
    assert mf.power_law(0.2, 2).unit_support
    assert not mf.gaussian(16.0, 1).unit_support
    assert not mf.indicator(1.5, 1).unit_support


def test_gaussian_truncation_radius_bounds_tail():
    m = mf.gaussian(16.0, 2)
    r = m.quadrature_radius()
    nodes, w = segment_rule(r, 4 * r, q=10, levels=20)
    tail = float(np.dot(w, m.evaluate(nodes) * nodes))
    assert tail <= 2e-14


def test_constructor_domain_checks():
    with pytest.raises(DomainError):
        mf.indicator(-0.5, 1)
    with pytest.raises(DomainError):
        mf.power_law(1.5, 1)
    with pytest.raises(DomainError):
        mf.gaussian(0.0, 2)


@pytest.mark.parametrize("make", [
    lambda: mf.indicator(float("nan"), 1),
    lambda: mf.indicator(float("inf"), 2),
    lambda: mf.gaussian(float("inf"), 1),
    lambda: mf.gaussian(float("nan"), 3),
    lambda: mf.power_law(float("nan"), 1),
    lambda: mf.power_law(0.0, 2),
    lambda: mf.power_law(1.0, 1, normalized=False),
    lambda: mf.RadialMollifier("foo", 1, 0.5),
    lambda: mf.RadialMollifier("custom", 2, 0.5),
    lambda: mf.RadialMollifier("indicator", 1, 0.0),
], ids=["indicator-nan", "indicator-inf", "gaussian-inf", "gaussian-nan",
        "powerlaw-nan", "powerlaw-zero", "powerlaw-one", "unknown-kind",
        "custom-kind", "direct-indicator-zero"])
def test_construction_refuses_unknown_kinds_and_bad_parameters(make):
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize("make", [
    lambda: mf.indicator(0.5, 0),
    lambda: mf.gaussian(4.0, 4),
    lambda: mf.power_law(0.3, 5),
    lambda: mf.RadialMollifier("gaussian", -1, 4.0),
])
def test_construction_refuses_dimensions_outside_1_to_3(make):
    with pytest.raises(DimensionError):
        make()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1.0, 64.0, 4096.0])
def test_gaussian_truncation_radius_is_closed_form(d, n):
    # the mass beyond r is Q((d+1)/2, n r^2); r_max inverts it exactly
    r = mf.gaussian(n, d).quadrature_radius()
    assert gammaincc((d + 1) / 2.0, n * r * r) == pytest.approx(
        GAUSSIAN_TAIL_TOL, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_tail_is_the_incomplete_gamma(d):
    # Q((d+1)/2, y) in closed form, over every y up to n r_max^2
    a = (d + 1) / 2.0
    root = mf._GAUSSIAN_TAIL_ROOT[d]
    for y in np.concatenate([[0.0], np.geomspace(1e-8, root, 200)]):
        assert mf._gaussian_tail(d, float(y)) == pytest.approx(
            gammaincc(a, y), rel=1e-14, abs=0)
    assert root == pytest.approx(gammainccinv(a, GAUSSIAN_TAIL_TOL), rel=1e-14, abs=0)


def quad_moment(m, k):
    """Independent moment oracle: quad of rho(r) r^(d-1+k) over (0, r_hi)
    with the algebraic weight r^beta of the profile's power at 0, or inf
    when that power is not integrable."""
    d = m.dimension
    beta = {"indicator": 0.0, "gaussian": 1.0,
            "powerlaw": m.param - 1.0}[m.kind] + d - 1.0 + k
    if beta <= -1.0:
        return math.inf
    r_hi = 40.0 / math.sqrt(m.param) if m.kind == "gaussian" else m.support_radius

    def flat(r):
        r = min(max(r, 1e-300), r_hi * (1.0 - 1e-16))
        return float(m.evaluate(r)) * r ** (d - 1.0 + k - beta)
    return quad(flat, 0.0, r_hi, weight="alg", wvar=(beta, 0.0),
                epsabs=0.0, epsrel=1e-13)[0]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("make", [
    lambda d: mf.indicator(0.3, d),
    lambda d: mf.gaussian(64.0, d),
    lambda d: mf.power_law(0.3, d),
    lambda d: mf.power_law(0.3, d, normalized=False),
], ids=["indicator", "gaussian", "powerlaw", "powerlaw-raw"])
@pytest.mark.parametrize("k", [-3.0, -2.5, -1.5, -0.9, -0.5, 0.0, 1.0, 2.5])
def test_moment_matches_quad_and_diverges_where_it_should(d, make, k):
    # mu(k) = int rho r^(d-1+k) dr; E_p of a set has the term mu(1 - p)
    m = make(d)
    exact = quad_moment(m, k)
    if math.isinf(exact):
        assert m.moment(k) == math.inf
    else:
        assert m.moment(k) == pytest.approx(exact, rel=1e-13, abs=0)


@pytest.mark.parametrize("make", [lambda d: mf.indicator(0.3, d),
                                  lambda d: mf.gaussian(64.0, d),
                                  lambda d: mf.power_law(0.3, d)])
def test_moment_zero_is_the_mass(make):
    for d in (1, 2, 3):
        m = make(d)
        assert m.moment(0.0) == pytest.approx(m.normalization(), rel=1e-15, abs=0)


# the exponent from which the whole moment diverges: there the tail
# moment is a log for the indicator (q = d + k = 0) and the power law
# (delta + d - 1 + k = 0), and the gaussian's is Gamma(0, n c^2) = exp1
CRITICAL_K = {"indicator": lambda d, m: -float(d),
              "gaussian": lambda d, m: -(d + 1.0),
              "powerlaw": lambda d, m: -(m.param + d - 1.0)}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("make", [
    lambda d: mf.indicator(0.3, d),
    lambda d: mf.gaussian(64.0, d),
    lambda d: mf.power_law(0.3, d),
    lambda d: mf.power_law(0.3, d, normalized=False),
], ids=["indicator", "gaussian", "powerlaw", "powerlaw-raw"])
@pytest.mark.parametrize("k", [-4.0, -3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 1.0, 2.5,
                               "critical"])
@pytest.mark.parametrize("frac", [0.01, 0.3, 0.97, 1.0, 1.5])
def test_tail_moment_matches_quad(d, make, k, frac):
    # M(k, c) = int_c^inf rho r^(d-1+k) dr at c = frac * r_max: inside the
    # support, at its edge and past it.  The gaussian's exponents k <=
    # -(d+1) give Gamma(a, n c^2) at a <= 0 (exp1 and the recurrence)
    m = make(d)
    if k == "critical":
        k = CRITICAL_K[m.kind](d, m)
    r_max = m.quadrature_radius()
    c = frac * r_max
    top = 40.0 / math.sqrt(m.param) if m.kind == "gaussian" else m.support_radius
    if c >= top:
        assert m.moment(k, c) == 0.0
        return
    exact = quad(lambda r: float(m.evaluate(r)) * r ** (d - 1.0 + k), c, top,
                 epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert m.moment(k, c) == pytest.approx(exact, rel=1e-13, abs=0)


@pytest.mark.parametrize("make", [lambda d: mf.indicator(0.3, d),
                                  lambda d: mf.gaussian(64.0, d),
                                  lambda d: mf.power_law(0.3, d),
                                  lambda d: mf.power_law(0.3, d, normalized=False)])
def test_tail_moment_at_zero_is_the_moment_bit_for_bit(make):
    # beyond = 0 keeps the whole moment's closed form, and inf where it
    # diverges; the k = 0 tail is the mass beyond c
    for d in (1, 2, 3):
        m = make(d)
        for k in (-4.0, -2.0, -0.5, 0.0, 1.0, 2.5):
            assert m.moment(k, 0.0).hex() == m.moment(k).hex()
        assert m.tail_mass(0.1) == m.moment(0.0, 0.1)
        assert m.normalization() == m.moment(0.0)
