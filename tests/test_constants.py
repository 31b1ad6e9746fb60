import math

import numpy as np
import pytest
from scipy.special import erfc

from bbmlab import constants
from bbmlab.errors import DimensionError, DomainError
from bbmlab.quadrature import segment_rule


def trapezoid_gamma2(p, m=200001):
    """Independent oracle for gamma(2, p): dense trapezoid over the circle."""
    theta = np.linspace(0.0, 2 * np.pi, m)
    return float(np.trapezoid(np.abs(np.cos(theta)) ** p, theta))


def gaussian_norm_oracle(d):
    """Solve C * int_0^inf r^d exp(-r^2) dr = 1 on a dense independent rule."""
    nodes, w = segment_rule(1e-12, 9.0, q=14, levels=40)
    return 1.0 / float(np.dot(w, nodes**d * np.exp(-nodes**2)))


def test_gamma_closed_forms():
    assert constants.gamma(1, 1) == 2.0
    assert constants.gamma(2, 1) == 4.0
    assert constants.gamma(3, 1) == pytest.approx(2 * math.pi, abs=0)
    assert constants.gamma(3, 2) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    assert constants.gamma(2, 3) == pytest.approx(8 / 3, rel=1e-15)
    assert constants.gamma(3, 3) == pytest.approx(math.pi, rel=1e-15)


@pytest.mark.parametrize("d,e", [(2, (0.0, 1.0)), (2, (1.0, 0.0)),
                                 (3, (0.0, 0.0, 1.0))])
def test_gamma_quadrature_matches_closed_form(d, e):
    assert constants.gamma(d, 1, e=np.array(e)) == pytest.approx(
        constants.gamma(d, 1), abs=1e-8)


def test_gamma_any_p_in_1d():
    for p in (1.0, 1.7, 2.0, 3.0):
        assert constants.gamma(1, p) == 2.0


def test_gamma22_matches_trapezoid_oracle():
    assert constants.gamma(2, 2) == pytest.approx(trapezoid_gamma2(2), rel=1e-9)
    assert constants.gamma(2, 2) == pytest.approx(math.pi, abs=1e-12)


def test_gamma_reference_directions_agree():
    # rotation invariance of the sphere measure: the aligned rules for two
    # different reference directions agree far below 1e-8
    a = constants.gamma(2, 1, e=np.array([0.6, 0.8]))
    b = constants.gamma(2, 1, e=np.array([1.0, 0.0]))
    assert a == pytest.approx(b, abs=1e-12)
    a3 = constants.gamma(3, 1.5, e=np.array([0.6, 0.0, 0.8]))
    b3 = constants.gamma(3, 1.5, e=np.array([0.0, 0.0, 1.0]))
    assert a3 == pytest.approx(b3, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_gamma_strictly_decreasing_in_p(d):
    ps = [1.0, 1.5, 2.0, 3.0]
    vals = [constants.gamma(d, p) for p in ps]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))


def test_gamma_rejects_bad_arguments():
    with pytest.raises(DimensionError):
        constants.gamma(4, 1)
    with pytest.raises(DomainError):
        constants.gamma(2, 0.5)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_gamma_refuses_a_nan_or_infinite_p(p):
    # the exponent rule of every functional: 1 <= p < inf, NaN fails it
    with pytest.raises(DomainError, match="finite number >= 1"):
        constants.gamma(2, p)


@pytest.mark.parametrize("d,expected", [(1, 2.0), (2, 4 / math.sqrt(math.pi)),
                                        (3, 2.0)])
def test_gaussian_norm_const(d, expected):
    assert constants.gaussian_norm_const(d) == pytest.approx(expected, rel=1e-10)
    assert constants.gaussian_norm_const(d) == pytest.approx(
        gaussian_norm_oracle(d), rel=1e-9)


def test_bbm_perimeter_const_identity():
    assert constants.bbm_perimeter_const(1) == pytest.approx(0.5, rel=1e-12)
    assert constants.bbm_perimeter_const(2) == pytest.approx(
        math.sqrt(math.pi) / 2, rel=1e-10)
    assert constants.bbm_perimeter_const(3) == pytest.approx(
        math.pi / 2, rel=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_degiorgi_const_matches_half_space_value(d):
    # the closed form against the total variation of the half-space
    # transition profile, taken with the perimeter estimator's central
    # differences on a fine grid
    n, m = 2.0**12, 8192
    h = 1.0 / m
    t = -0.5 + h * np.arange(m)
    profile = math.pi ** ((d - 1) / 2.0) * (math.sqrt(math.pi) / 2.0) \
        * erfc(math.sqrt(n) * t)
    variation = float(np.sum(np.abs(np.gradient(profile, h))) * h)
    assert constants.degiorgi_const(d) == pytest.approx(variation, rel=1e-6)
    assert constants.degiorgi_const(d) == pytest.approx(
        math.pi ** (d / 2.0), rel=1e-15)


def test_degiorgi_const_deterministic():
    a = constants.degiorgi_const(2)
    b = constants.degiorgi_const(2)
    assert a == b


def test_constant_table_provenance():
    for d in (1, 2, 3):
        payload = constants.ConstantTable(d).to_json()
        assert payload["entries"]["gamma_1"]["value"] == constants.gamma(d, 1)
        assert {e["provenance"] for e in payload["entries"].values()} == {"closed-form"}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_gamma_closed_form_matches_aligned_sphere_rule(d, p):
    # the closed form against the quadrature cross-check, along an axis
    # and along an oblique direction; p = 1.5 and 2.5 are only smooth to
    # a fractional power at the split, hence the looser bound
    tol = 1e-12 if p in (2.0, 3.0) else 1e-6
    for e in (np.eye(d)[-1], np.full(d, 1.0)):
        assert constants.gamma(d, p, e=e) == pytest.approx(
            constants.gamma(d, p), rel=tol)
