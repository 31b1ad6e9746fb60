import math

import numpy as np
import pytest

from bbmlab import fields
from bbmlab.errors import DimensionError, DomainError
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


@pytest.mark.parametrize("d", [2, 3])
def test_analytic_values_agree_on_either_layout_and_vanish_beyond_support(rng, d):
    # the polar engine hands evaluators column-major views; a batch wholly
    # inside the support is returned unmasked, any other is masked
    u = fields.gaussian_bump(d, support_radius=1.5)
    for pts in (rng.uniform(-0.8, 0.8, size=(64, d)),
                rng.uniform(-1.6, 1.6, size=(64, d))):
        col = np.asfortranarray(pts)
        col.flags.writeable = False
        assert col.flags.f_contiguous and not col.flags.c_contiguous
        for method in (u.eval_many, u.gradient_many):
            row, by_col = method(pts), method(col)
            assert by_col.shape == row.shape
            np.testing.assert_allclose(by_col, row, rtol=1e-15, atol=0)
            if d == 2:
                np.testing.assert_array_equal(by_col, row)
        beyond = np.linalg.norm(pts, axis=1) > 1.5
        assert np.all(u.eval_many(col)[beyond] == 0.0)
        assert np.all(u.gradient_many(col)[beyond] == 0.0)
        assert np.all(u.eval_many(col)[~beyond] > 0.0)
    assert beyond.any()


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


def test_the_jump_set_is_decided_when_the_field_is_built():
    # a jump of height 0 is no jump, and a null 1D set jumps nowhere
    bv = fields.BVField1D(None, [(-1.0, 0.5), (0.0, 0.0), (1.0, -0.5)])
    assert bv.jump_locations.tolist() == [-1.0, 1.0]
    assert bv.jump_heights.tolist() == [0.5, -0.5]
    assert bv.singular_points().tolist() == [-1.0, 1.0]
    x = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
    assert bv.eval_many(x).tolist() == [0.0, 0.25, 0.5, 0.25, 0.0]
    assert fields.BVField1D(None, [(0.0, 0.0)]).singular_points().size == 0
    for E in (fields.interval_set(1.0, 0.0), fields.interval_set(0.5, 0.5),
              fields.ball_set([0.5], 0.0)):
        assert E.singular_points().size == 0
    assert fields.interval_set(0.0, 1.0).singular_points().tolist() == [0.0, 1.0]


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


@pytest.mark.parametrize("make,error", [
    (lambda: fields.box_set([0.0, 0.0], [1.0]), DimensionError),
    (lambda: fields.box_set([0.0, 0.0], [1.0, 1.0, 1.0]), DimensionError),
    (lambda: fields.box_set([0.0] * 4, [1.0] * 4), DimensionError),
    (lambda: fields.box_set([], []), DimensionError),
    (lambda: fields.ball_set([], 1.0), DimensionError),
    (lambda: fields.ball_set([0.0] * 4, 1.0), DimensionError),
    (lambda: fields.ball_set([0.0, 0.0], -1.0), DomainError),
    (lambda: fields.ball_set([0.0, 0.0], math.nan), DomainError),
    (lambda: fields.ball_set([0.0, 0.0], math.inf), DomainError),
    (lambda: fields.box_set([0.0, 0.0], [1.0, math.nan]), DomainError),
    (lambda: fields.interval_set(-math.inf, 1.0), DomainError),
    (lambda: fields.ball_set([math.nan, 0.0], 1.0), DomainError),
    (lambda: fields.ball_set([math.inf], 1.0), DomainError),
    (lambda: fields.half_space_set([0.0, 0.0], 0.0), DomainError),
    (lambda: fields.half_space_set([math.nan, 1.0], 0.0), DomainError),
    (lambda: fields.half_space_set([1.0, 0.0], math.inf), DomainError),
    (lambda: fields.half_space_set([1.0] * 4, 0.0), DimensionError),
    (lambda: fields.BVField1D(None, [(math.nan, 1.0)]), DomainError),
    (lambda: fields.BVField1D(None, [(0.0, 1.0), (1.0, math.inf)]), DomainError),
    (lambda: fields.BVField1D(None, [(0.0, math.nan)]), DomainError),
], ids=["box-short-corner", "box-long-corner", "box-4d", "box-empty",
        "ball-empty-centre", "ball-4d", "ball-negative", "ball-nan", "ball-inf",
        "box-nan-corner", "interval-inf-end", "ball-nan-centre", "ball-inf-centre",
        "halfspace-zero-normal", "halfspace-nan-normal", "halfspace-inf-offset",
        "halfspace-4d", "bv-nan-location", "bv-inf-height", "bv-nan-height"])
def test_set_specs_are_checked(make, error):
    with pytest.raises(error):
        make()


def test_null_balls_and_boxes_stay_legal():
    # radius 0 and a side <= 0 give null sets, of volume and perimeter 0
    for E in (fields.ball_set([0.5], 0.0), fields.ball_set([0.0, 0.0], 0.0),
              fields.box_set([1.0, 0.0], [0.0, 1.0])):
        assert E.exact_volume() == E.exact_perimeter() == 0.0


def test_half_space_membership_and_unboundedness():
    H = fields.half_space_set([1.0, 0.0], 0.25)
    assert H.contains([0.2, 5.0])[0]
    assert not H.contains([0.3, 0.0])[0]
    assert not H.is_bounded
    with pytest.raises(DomainError):
        H.exact_volume()

