import math

import numpy as np
import pytest

from bbmlab import constants, mollifiers as mf, quadrature as Q

SPHERE_AREAS = {1: 2.0, 2: 2 * math.pi, 3: 4 * math.pi}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sphere_weights_sum_to_area(d):
    rule = Q.sphere_rule(d)
    assert np.sum(rule.weights) == pytest.approx(SPHERE_AREAS[d], abs=1e-12)
    assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sphere_second_moment_exactness(d):
    rule = Q.sphere_rule(d)
    val = float(np.dot(rule.weights, rule.nodes[:, -1] ** 2))
    assert val == pytest.approx(SPHERE_AREAS[d] / d, abs=1e-10)


def test_sphere_d1_counting_measure():
    rule = Q.sphere_rule(1, 17)
    got = sorted((float(n[0]), float(w)) for n, w in zip(rule.nodes, rule.weights))
    assert got == [(-1.0, 1.0), (1.0, 1.0)]


def test_sphere_d2_kinked_integrand_to_machine_precision():
    rule = Q.sphere_rule(2, 64)
    val = float(np.dot(rule.weights, np.abs(rule.nodes[:, 1])))
    assert val == pytest.approx(4.0, abs=1e-10)


def test_sphere_d3_constant():
    rule = Q.sphere_rule(3, 32)
    assert float(np.sum(rule.weights)) == pytest.approx(4 * math.pi, abs=1e-10)


@pytest.mark.parametrize("m,expected_exact", [
    (mf.indicator(0.5, 1), True),
    (mf.power_law(0.1, 2), False),
    (mf.gaussian(16.0, 2), False),
])
def test_radial_rule_reproduces_unit_mass(m, expected_exact):
    rule = Q.radial_rule(m, 4)
    mass = float(np.dot(rule.weights, Q.radial_measure(m, rule)))
    tol = 1e-12 if expected_exact else 1e-10
    assert abs(mass - 1.0) <= tol
    assert np.all(rule.weights >= 0)
    assert np.all(rule.nodes > 0)   # no node at r = 0


def test_radial_rule_indicator_support():
    rule = Q.radial_rule(mf.indicator(0.25, 2), 3)
    assert rule.r_max == 0.25
    assert np.all(rule.nodes < 0.25)


def test_powerlaw_transform_makes_measure_flat():
    # after r = s**alpha the transformed measure is constant, so even a
    # level-0 rule integrates the mass exactly
    m = mf.power_law(0.1, 1)
    rule = Q.radial_rule(m, 0)
    mass = float(np.dot(rule.weights, Q.radial_measure(m, rule)))
    assert mass == pytest.approx(1.0, abs=1e-12)


def polar_sum(m, sphere, radial, F):
    """sum_r w_r rho(r) r^(d-1) sum_sigma w_sigma F(r, sigma), written out."""
    inner = np.asarray(F(radial.nodes, sphere.nodes), dtype=float) @ sphere.weights
    return float(np.dot(radial.weights * Q.radial_measure(m, radial), inner))


@pytest.mark.parametrize("d,p", [(d, p) for d in (1, 2, 3) for p in (1, 2, 3)])
def test_integrate_polar_reproduces_gamma(d, p):
    m = mf.indicator(0.5, d)
    sphere = Q.sphere_rule(d)
    radial = Q.radial_rule(m, 4)
    e = np.zeros(d)
    e[-1] = 1.0

    def F(r, sigma):
        return np.broadcast_to(np.abs(sigma @ e) ** p, (r.size, sigma.shape[0]))

    val = polar_sum(m, sphere, radial, F)
    assert val == pytest.approx(constants.gamma(d, p), abs=1e-8)


def test_integrate_polar_constant_gives_sphere_area():
    m = mf.gaussian(4.0, 2)
    sphere = Q.sphere_rule(2)
    radial = Q.radial_rule(m, 4)
    val = polar_sum(m, sphere, radial, lambda r, s: np.ones((r.size, s.shape[0])))
    assert val == pytest.approx(2 * math.pi, rel=1e-10)


def test_integrate_polar_radial_moment_1d():
    # d=1, indicator(0.5): int rho(r) r dr * |S^0| = 2 * eps/2 = 0.5 per side
    m = mf.indicator(0.5, 1)
    val = polar_sum(m, Q.sphere_rule(1), Q.radial_rule(m, 4),
                            lambda r, s: np.broadcast_to(r[:, None], (r.size, s.shape[0])))
    assert val == pytest.approx(2 * 0.25, rel=1e-12)


def test_rules_are_deterministic():
    a = Q.radial_rule(mf.gaussian(16.0, 2), 4)
    b = Q.radial_rule(mf.gaussian(16.0, 2), 4)
    assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
    m = mf.power_law(0.2, 2)
    sphere = Q.sphere_rule(2)
    F = lambda r, s: np.cos(r)[:, None] * (1.0 + s[:, 0] ** 2)[None, :]
    v1 = polar_sum(m, sphere, Q.radial_rule(m, 4), F)
    v2 = polar_sum(m, sphere, Q.radial_rule(m, 4), F)
    assert v1 == v2   # bit-identical


def test_refinement_observed_order_at_least_two():
    # a deliberately low-order rule (2 nodes per panel) on a smooth
    # oscillatory integrand: panel doubling must shrink errors at >= 4x
    m = mf.indicator(1.0, 2)
    sphere = Q.sphere_rule(2, 16)
    F = lambda r, s: np.cos(7 * r)[:, None] * np.ones((1, s.shape[0]))

    def rule(level):
        nodes, weights = Q.composite_gauss(np.linspace(0.0, 1.0, 2**level + 1), 2)
        return Q.RadialRule(nodes, weights, 1.0)

    vals = [polar_sum(m, sphere, rule(lvl), F) for lvl in (2, 3, 4, 8)]
    e1, e2 = abs(vals[0] - vals[-1]), abs(vals[1] - vals[-1])
    e3 = abs(vals[2] - vals[-1])
    assert e2 <= e1 / 4.0
    assert e3 <= e2 / 4.0


def test_axis_rule_handles_log_singularity_at_breakpoint():
    # int_0^1 ln(1/|x - 1/3|) dx with a breakpoint at 1/3; closed form:
    # (a ln(1/a) + a) + (b ln(1/b) + b) with a = 1/3, b = 2/3
    a, b = 1.0 / 3.0, 2.0 / 3.0
    exact = a - a * math.log(a) + b - b * math.log(b)
    nodes, w = Q.axis_rule(0.0, 1.0, [1.0 / 3.0])
    val = float(np.dot(w, np.log(1.0 / np.abs(nodes - 1.0 / 3.0))))
    assert val == pytest.approx(exact, rel=1e-10)


def test_segment_rule_flat_weights_sum():
    nodes, w = Q.segment_rule(-2.0, 3.0)
    assert float(np.sum(w)) == pytest.approx(5.0, rel=1e-14)


@pytest.mark.parametrize("m", [mf.indicator(0.25, 1), mf.power_law(0.3, 1),
                               mf.gaussian(64.0, 2)],
                         ids=["indicator", "powerlaw", "gaussian"])
@pytest.mark.parametrize("near_origin", [False, True])
def test_stacked_rule_rows_equal_radial_rule_bitwise(m, near_origin):
    r_max = m.quadrature_radius()
    # rows with breakpoints outside (0, r_max), on its ends, repeated and
    # on a base edge, so row lengths and grading depths differ; with
    # near_origin one row grades down to a float-noise radius
    B = r_max * np.array([[0.3, 0.7, 1.4],
                          [-0.2, 0.0, 1.0],
                          [0.5, 0.5, 0.25],
                          [1e-20 if near_origin else 1e-3, 0.123456789, 2.0],
                          [0.01, 0.02, 0.999]])
    rules = Q.radial_rules(m, 3, breakpoints=B)
    assert rules.nodes.shape == rules.weights.shape
    assert rules.nodes.shape[1] <= Q.radial_rule_size(3, 3)
    lengths = []
    for i, row in enumerate(B):
        one = Q.radial_rule(m, 3, breakpoints=tuple(row))
        n = one.nodes.size
        lengths.append(n)
        assert one.r_max == rules.r_max
        assert np.array_equal(rules.nodes[i, :n], one.nodes)
        assert np.array_equal(rules.weights[i, :n], one.weights)
        # padding: zero-weight nodes at r_max, never at r = 0
        assert np.all(rules.nodes[i, n:] == r_max)
        assert np.all(rules.weights[i, n:] == 0.0)
    assert min(lengths) < rules.nodes.shape[1] == max(lengths)
    mass = np.sum(rules.weights * Q.radial_measure(m, rules), axis=1)
    assert np.allclose(mass, 1.0, rtol=1e-10, atol=0)


def test_stacked_rules_compact_when_rows_agree():
    m = mf.indicator(0.5, 1)
    # each row grades 0.5 * 2^-j down to its nearest breakpoint: the
    # edges 0.25 and 0.125 fall on base edges, 0.0625 is the one extra
    B = np.array([[0.04, 0.3], [0.05, 0.4], [0.06, 0.45]])
    rules = Q.radial_rules(m, 2, breakpoints=B)
    assert rules.nodes.shape == (3, (4 + 2 + 1) * Q.RADIAL_NODES_PER_PANEL)
    assert np.all(rules.weights > 0.0)


def test_radial_rules_grade_down_to_the_nearest_breakpoint():
    m = mf.indicator(0.5, 1)
    plain = Q.radial_rule(m, 2)
    assert plain.nodes.size == 4 * Q.RADIAL_NODES_PER_PANEL
    # breakpoints outside (0, r_max) or on its ends leave the plain rule
    outside = Q.radial_rule(m, 2, breakpoints=(-0.1, 0.0, 0.5, 0.7))
    assert np.array_equal(outside.nodes, plain.nodes)
    assert np.array_equal(outside.weights, plain.weights)
    # 0.5 * 2^-j for j = 1..5 reach down to 0.01; j = 1, 2 are base edges
    graded = Q.radial_rule(m, 2, breakpoints=(0.3, 0.01))
    assert graded.nodes.size == (4 + 2 + 3) * Q.RADIAL_NODES_PER_PANEL
    assert np.sum(graded.nodes < 0.01) == Q.RADIAL_NODES_PER_PANEL
    assert np.sum(graded.weights) == pytest.approx(0.5, rel=1e-14)


def test_axis_rule_drops_rounding_slivers():
    # a graded edge meeting a base edge up to rounding used to leave a
    # ~1e-16-wide panel, so the node count hung on the last bit of hi
    r = mf.gaussian(64.0, 1).quadrature_radius()
    counts = {Q.axis_rule(-(6 + h), 6 + h)[0].size
              for h in (r, r * (1 + 3.5e-15), r * (1 - 3.5e-15))}
    assert len(counts) == 1
    edges = Q.graded_edges(-(6 + r), 6 + r)
    assert np.min(np.diff(edges)) > 1e-12
