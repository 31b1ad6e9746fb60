import math

import numpy as np
import pytest

from bbmlab import fields
from bbmlab.errors import DimensionError, DomainError, ResolutionError
from conftest import random_trig_field


def central_difference(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for ax in range(x.size):
        e = np.zeros_like(x)
        e[ax] = h
        out[ax] = (fields.eval_field(f, x + e) - fields.eval_field(f, x - e)) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# eval / gradient
# ---------------------------------------------------------------------------

def test_indicator_interval_membership():
    E = fields.interval_set(0.0, 1.0)
    assert fields.eval_field(E, [0.5]) == 1.0
    assert fields.eval_field(E, [-0.1]) == 0.0


def test_grid_eval_node_aligned_linear():
    g = fields.GridField.from_function(lambda p: p[:, 0], 1, 1.0, 64)
    assert fields.eval_field(g, [0.25]) == pytest.approx(0.25, abs=1e-12)


def test_bv_left_of_jump_is_zero():
    bv = fields.BVField1D(None, [(0.0, 1.0)])
    assert fields.eval_field(bv, [-0.3]) == 0.0
    assert fields.eval_field(bv, [0.0]) == 0.5   # midpoint convention


def test_grid_zero_outside_box():
    g = fields.GridField.from_function(lambda p: np.ones(p.shape[0]), 2, 1.0, 16)
    assert fields.eval_field(g, [1.5, 0.0]) == 0.0


def test_multilinear_reproduces_affine(rng):
    coeffs = rng.normal(size=3)
    g = fields.GridField.from_function(
        lambda p: coeffs[0] * p[:, 0] + coeffs[1] * p[:, 1] + coeffs[2],
        2, 1.0, 32)
    pts = rng.uniform(-0.9, 0.9, size=(100, 2))
    exact = pts @ coeffs[:2] + coeffs[2]
    assert np.max(np.abs(g.eval_many(pts) - exact)) < 1e-13


def test_gradient_linear_field_everywhere():
    u = fields.linear_field([2.0, -1.0])
    for x in ([0.0, 0.0], [3.0, -2.5]):
        assert np.allclose(fields.gradient(u, x), [2.0, -1.0])


def test_gradient_bump_matches_finite_differences():
    u = fields.gaussian_bump(2)
    x = [1.0, 0.0]
    exact = fields.gradient(u, x)
    assert np.allclose(exact, [-2 * math.exp(-1.0), 0.0], atol=1e-12)
    assert np.allclose(exact, central_difference(u, x), atol=1e-9)


def test_gradient_random_fields_match_finite_differences(rng):
    for seed in range(3):
        u = random_trig_field(2, seed)
        for x in rng.uniform(-1, 1, size=(4, 2)):
            assert np.allclose(fields.gradient(u, x),
                               central_difference(u, x), atol=1e-8)


def test_bv_gradient_is_ac_part_only():
    smooth = fields.AnalyticField(1, lambda p: p[:, 0] ** 2, lambda p: 2 * p)
    bv = fields.BVField1D(smooth, [(0.0, 1.0)])
    assert fields.gradient(bv, [1.0])[0] == pytest.approx(2.0)


def test_indicator_gradient_rejected():
    with pytest.raises(DomainError):
        fields.gradient(fields.interval_set(0, 1), [0.5])


def test_grid_gradient_linear():
    g = fields.GridField.from_function(lambda p: 3 * p[:, 0], 1, 1.0, 128)
    assert fields.gradient(g, [0.25])[0] == pytest.approx(3.0, rel=1e-10)


def test_analytic_without_oracle_refuses_gradient():
    u = fields.AnalyticField(1, lambda p: p[:, 0] ** 2)
    with pytest.raises(DomainError):
        fields.gradient(u, [0.3])


def test_dimension_mismatch_raises():
    u = fields.gaussian_bump(2)
    with pytest.raises(DimensionError):
        fields.eval_field(u, [0.1])


# ---------------------------------------------------------------------------
# BV structure
# ---------------------------------------------------------------------------

def brute_force_tv(f, a, b, rng, samples=4000, trials=20):
    """sup over random partitions of sum |u(x_{i+1}) - u(x_i)|."""
    best = 0.0
    for _ in range(trials):
        xs = np.sort(rng.uniform(a, b, size=samples))
        vals = f.eval_many(xs.reshape(-1, 1))
        best = max(best, float(np.sum(np.abs(np.diff(vals)))))
    return best


def test_total_variation_against_partition_sup(rng):
    smooth = fields.AnalyticField(1, lambda p: np.sin(3 * p[:, 0]),
                                  lambda p: 3 * np.cos(3 * p))
    bv = fields.BVField1D(smooth, [(-0.2, 0.7), (0.5, -0.3)])
    tv = bv.total_variation(-1.0, 1.0)
    brute = brute_force_tv(bv, -1.0, 1.0, rng)
    assert brute <= tv + 1e-6
    assert tv == pytest.approx(brute, rel=5e-3)


def test_jump_locations_must_increase():
    with pytest.raises(DomainError):
        fields.BVField1D(None, [(0.5, 1.0), (0.1, 1.0)])


def test_step_field_mass():
    step = fields.step_field()
    assert step.total_jump_mass == 2.0
    assert step.total_variation(-1, 2) == 2.0


# ---------------------------------------------------------------------------
# indicator geometry
# ---------------------------------------------------------------------------

def test_ball_geometry():
    B = fields.ball_set([0.0, 0.0], 2.0)
    assert B.exact_volume() == pytest.approx(4 * math.pi)
    assert B.exact_perimeter() == pytest.approx(4 * math.pi)
    B3 = fields.ball_set([0.0, 0.0, 0.0], 1.0)
    assert B3.exact_volume() == pytest.approx(4 * math.pi / 3)
    assert B3.exact_perimeter() == pytest.approx(4 * math.pi)


def test_box_geometry_and_degenerate_case():
    box = fields.box_set([0, 0], [2, 1])
    assert box.exact_volume() == 2.0
    assert box.exact_perimeter() == 6.0
    empty = fields.box_set([0, 0], [0, 1])
    assert empty.exact_volume() == 0.0
    assert empty.exact_perimeter() == 0.0
    assert not empty.contains([0.0, 0.5])[0]


def test_half_space_membership_and_unboundedness():
    H = fields.half_space_set([1.0, 0.0], 0.25)
    assert H.contains([0.2, 5.0])[0]
    assert not H.contains([0.3, 0.0])[0]
    assert not H.is_bounded
    with pytest.raises(DomainError):
        H.exact_volume()


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def test_mollify_preserves_constants():
    one = fields.AnalyticField(1, lambda p: np.ones(p.shape[0]),
                               support_radius=4.0)
    m = fields.mollify(one, 3, half_width=4.0, resolution=1024)
    for x in (-1.0, 0.0, 1.7):
        assert fields.eval_field(m, [x]) == pytest.approx(1.0, abs=1e-9)


def test_mollify_step_transition_localized():
    k = 10
    m = fields.mollify(fields.step_field(), k, half_width=2.0, resolution=4096)
    h = m.spacing
    assert fields.eval_field(m, [-0.1 - 2 * h]) == pytest.approx(0.0, abs=1e-9)
    assert fields.eval_field(m, [0.1 + 2 * h]) == pytest.approx(1.0, abs=1e-9)
    xs = np.linspace(-0.12, 0.12, 33)
    vals = m.eval_many(xs.reshape(-1, 1))
    assert np.all(np.diff(vals) >= -1e-9)   # monotone transition


def test_mollify_step_matches_direct_convolution_integral():
    # u * chi(x0) = int_{y < x0} chi for the unit step at 0; the kernel is
    # the normalized quartic bump, integrated here independently
    k = 10
    m = fields.mollify(fields.BVField1D(None, [(0.0, 1.0)]), k,
                       half_width=2.0, resolution=2**14)
    ys = np.linspace(-1.0 / k, 1.0 / k, 20001)
    kernel = np.clip(1 - (k * ys) ** 2, 0, None) ** 2
    kernel /= np.trapezoid(kernel, ys)
    for x0 in (-0.05, 0.0, 0.03, 0.08):
        exact = float(np.trapezoid(kernel * (ys < x0), ys))
        assert fields.eval_field(m, [x0]) == pytest.approx(exact, abs=2e-3)


def test_mollify_commutes_with_gradient_on_linear():
    u = fields.linear_field([1.5])
    m = fields.mollify(u, 10, half_width=2.0, resolution=4096)
    assert fields.gradient(m, [0.3])[0] == pytest.approx(1.5, abs=1e-3)


def test_mollify_l1_contraction_ladder():
    u = fields.AnalyticField(1, lambda p: np.cos(2 * p[:, 0]),
                             support_radius=3.0)
    grid = fields.GridField.from_function(lambda p: u.eval_many(p), 1, 3.0, 8192)
    errs = []
    for k in (4, 8, 16, 32):
        m = fields.mollify(grid, k)
        errs.append(float(np.mean(np.abs(m.values - grid.values))))
    assert all(b < a for a, b in zip(errs[:-1], errs[1:]))


def test_mollify_resolution_error():
    with pytest.raises(ResolutionError):
        fields.mollify(fields.step_field(), 100, half_width=2.0, resolution=256)

