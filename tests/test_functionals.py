import math

import numpy as np
import pytest
from scipy.integrate import quad

from bbmlab import constants, fields, functionals as F, maximal as MX
from bbmlab import mollifiers as mf, perimeter as P, quadrature as Q
from bbmlab.errors import (DimensionError, DomainError, EvaluationError,
                           IntegrationError, ProbeError, ValidityError)
from bbmlab.functionals import DensityRequest, QuadratureScheme
from conftest import random_trig_field, scaled_bump

# frozen empirical domination constants, calibrated once on linear and
# random trigonometric fields (max observed ratio is gamma(d, p))
DOMINATION_CONSTANT = {(1, 1.0): 2.1, (1, 2.0): 2.1,
                       (2, 1.0): 4.2, (2, 2.0): 3.3}


def density(field, m, p, probe, scheme=None):
    return F.pointwise_density(DensityRequest(field, m, p, probe, scheme))


def remainder(field, m, p, probe, scheme=None):
    return F.remainder_density(DensityRequest(field, m, p, probe, scheme))


# ---------------------------------------------------------------------------
# pointwise densities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_linear_identity_all_mollifiers(d, p):
    V = np.zeros(d)
    V[-1] = 3.0
    u = fields.linear_field(V)
    probe = np.full(d, 0.1)
    exact = constants.gamma(d, p) * 3.0**p
    for m in (mf.indicator(0.25, d), mf.gaussian(16.0, d), mf.power_law(0.3, d)):
        val = density(u, m, p, probe)
        assert abs(val - exact) / exact <= 1e-6
        assert remainder(u, m, p, probe) <= 1e-10


def test_density_quadratic_1d_closed_form():
    # |u(1+r)-u(1)|/r + |u(1-r)-u(1)|/r = (2+r) + (2-r) = 4 for r < 2
    u = fields.AnalyticField(1, lambda x: x[:, 0] ** 2, lambda x: 2 * x)
    assert density(u, mf.indicator(0.5, 1), 1, [1.0]) == pytest.approx(4.0, rel=1e-12)


def test_density_step_probe_far_from_jumps():
    step = fields.step_field()
    assert density(step, mf.indicator(0.25, 1), 1, [0.5]) == 0.0


def test_density_step_probe_near_jump_log_value():
    # contribution int_{0.1}^{0.25} rho(r)/r dr with rho = 1/eps
    step = fields.step_field()
    val = density(step, mf.indicator(0.25, 1), 1, [0.1])
    assert val == pytest.approx(4 * math.log(2.5), rel=1e-10)


@pytest.mark.parametrize("t", [1e-15, 3e-14, 1e-10])
def test_density_step_probe_nearer_its_jump_than_any_fixed_grading(t):
    # the radial rule grades down to the jump at distance t however near,
    # so the log value 4 ln(0.25 / t) holds to the rounding limit
    val = density(fields.step_field(), mf.indicator(0.25, 1), 1, [t])
    assert val == pytest.approx(4 * math.log(0.25 / t), rel=1e-12)


def test_remainder_vanishes_for_linear():
    u = fields.linear_field([1.0, 2.0])
    assert remainder(u, mf.gaussian(4.0, 2), 1, [0.3, -0.2]) <= 1e-12


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
def test_remainder_quadratic_at_origin_equals_eps(eps):
    # both sides contribute int rho r dr = eps/2
    u = fields.AnalyticField(1, lambda x: x[:, 0] ** 2, lambda x: 2 * x)
    assert remainder(u, mf.indicator(eps, 1), 1, [0.0]) == pytest.approx(eps, rel=1e-12)


def test_remainder_ladder_bump_2d_decreases():
    u = fields.gaussian_bump(2)
    probe = [0.3, 0.1]
    vals = [remainder(u, mf.indicator(2.0**-k, 2), 1, probe) for k in range(1, 7)]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
    # first-order Taylor remainder: halving eps halves the density
    assert vals[-1] / vals[0] < 0.1
    # and the density itself is within 1e-2 of the local limit by then
    D = density(u, mf.indicator(2.0**-6, 2), 1, probe)
    local = constants.gamma(2, 1) * np.linalg.norm(fields.gradient(u, probe))
    assert abs(D - local) / local < 1e-2


def test_remainder_rejects_indicator_fields():
    with pytest.raises(DomainError):
        remainder(fields.interval_set(0, 1), mf.indicator(0.25, 1), 1, [0.5])


def test_density_request_validation():
    u = fields.gaussian_bump(2)
    with pytest.raises(DimensionError):
        density(u, mf.indicator(0.25, 1), 1, [0.0, 0.0])
    with pytest.raises(DomainError):
        density(u, mf.indicator(0.25, 2), 0.5, [0.0, 0.0])


def test_grid_probe_margin_validity():
    g = fields.GridField.from_function(lambda p: np.exp(-p[:, 0] ** 2), 1, 2.0, 256)
    with pytest.raises(ValidityError):
        density(g, mf.indicator(0.5, 1), 1, [1.8])
    # interior probe is fine
    assert density(g, mf.indicator(0.5, 1), 1, [0.0]) >= 0.0


def test_density_deterministic_bitwise():
    u = fields.gaussian_bump(2)
    m = mf.power_law(0.2, 2)
    a = density(u, m, 2, [0.4, 0.2])
    b = density(u, m, 2, [0.4, 0.2])
    assert a == b


# ---------------------------------------------------------------------------
# invariant properties
# ---------------------------------------------------------------------------

def test_triangle_bracketing_discrete_minkowski(rng):
    # |D(u)^(1/p) - D(linearization)^(1/p)| <= remainder^(1/p) holds
    # exactly in the shared quadrature measure
    for seed in range(4):
        u = random_trig_field(2, seed)
        x = rng.uniform(-0.5, 0.5, size=2)
        m = mf.indicator(0.25, 2)
        for p in (1.0, 2.0):
            lin = fields.linear_field(fields.gradient(u, x))
            d_u = density(u, m, p, x)
            d_l = density(lin, m, p, x)
            rem = remainder(u, m, p, x)
            assert abs(d_u ** (1 / p) - d_l ** (1 / p)) <= rem ** (1 / p) + 1e-12


def test_scaling_covariance(rng):
    u = random_trig_field(2, 9)
    lam = -2.5
    scaled = fields.AnalyticField(2, lambda pts: lam * u.eval_many(pts),
                                  lambda pts: lam * u.gradient_many(pts))
    x = [0.2, -0.3]
    m = mf.indicator(0.5, 2)
    for p in (1.0, 2.0, 3.0):
        assert density(scaled, m, p, x) == pytest.approx(
            abs(lam) ** p * density(u, m, p, x), rel=1e-12)


def test_maximal_domination_with_frozen_constants(rng):
    for d in (1, 2):
        for p in (1.0, 2.0):
            C = DOMINATION_CONSTANT[(d, p)]
            for seed in range(3):
                u = random_trig_field(d, seed)
                grid = fields.GridField.from_function(
                    lambda q: np.linalg.norm(u.gradient_many(q), axis=1) ** p,
                    d, 3.0, 512 if d == 1 else 128)
                for x in rng.uniform(-1, 1, size=(2, d)):
                    D = density(u, mf.indicator(0.25, d), p, x)
                    M = MX.maximal_function(grid, x)
                    assert D <= C * M + 1e-12


def test_liminf_surrogate_one_dimensional_profile_in_2d():
    # u(x) = g(x1) on the plane: ladder minima must not undercut the
    # local limit by more than the study tolerance
    u = fields.AnalyticField(
        2, lambda q: np.exp(-q[:, 0] ** 2),
        lambda q: np.stack([-2 * q[:, 0] * np.exp(-q[:, 0] ** 2),
                            np.zeros(q.shape[0])], axis=-1))
    for p in (1.5, 2.0):
        for x in ([0.4, 0.0], [0.7, 0.3]):
            target = constants.gamma(2, p) * np.linalg.norm(fields.gradient(u, x)) ** p
            vals = [density(u, m, p, x) for m in mf.indicator_ladder(2, range(1, 8))]
            # finite-eps rungs may undershoot; the tail must not
            assert min(vals[-3:]) >= target * (1 - 2e-2)


# ---------------------------------------------------------------------------
# energy and local energy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
def test_step_energy_pair_measure_value(eps):
    # each jump contributes exactly 2 int rho = 2; no pair crosses both
    assert F.energy(fields.step_field(), mf.indicator(eps, 1), 1) == \
        pytest.approx(4.0, abs=1e-3)


def test_interval_indicator_energy_matches_bv_route():
    a = F.energy(fields.interval_set(0.0, 1.0), mf.indicator(0.25, 1), 1)
    b = F.energy(fields.step_field(), mf.indicator(0.25, 1), 1)
    assert a == pytest.approx(b, rel=1e-13)


def test_zero_field_energy():
    zero = fields.AnalyticField(1, lambda p: np.zeros(p.shape[0]),
                                support_radius=1.0)
    assert F.energy(zero, mf.indicator(0.25, 1), 2) == 0.0


def test_energy_requires_bounded_support():
    with pytest.raises(ValidityError):
        F.energy(fields.linear_field([1.0]), mf.indicator(0.25, 1), 1)


def test_grid_energy_compactness_guard():
    g = fields.GridField.from_function(lambda p: np.ones(p.shape[0]), 1, 1.0, 64)
    with pytest.raises(ValidityError):
        F.energy(g, mf.indicator(0.25, 1), 1)


def test_smooth_bump_energy_study_converges_to_local_energy():
    u = fields.gaussian_bump(1)
    report = F.energy_study(u, mf.indicator_ladder(1, range(1, 9)), 2)
    assert report.limit == pytest.approx(2 * math.sqrt(math.pi / 2), rel=1e-5)
    assert report.classification == "converging"
    assert abs(report.values[-1] - report.limit) / report.limit < 2e-2


def test_local_energy_linear_on_unit_box():
    u = fields.linear_field([3.0, 0.0])
    box = (np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
    assert F.local_energy(u, 2, box=box) == pytest.approx(9 * math.pi, rel=1e-9)


def test_local_energy_step_and_ball():
    assert F.local_energy(fields.step_field(), 1) == pytest.approx(4.0)
    ball = fields.ball_set([0.0, 0.0], 1.0)
    assert F.local_energy(ball, 1) == pytest.approx(8 * math.pi)
    assert F.local_energy(ball, 2) == math.inf


def test_local_energy_bv_with_jumps_infinite_for_p_above_one():
    bv = fields.BVField1D(scaled_bump(), [(0.0, 1.0)])
    assert F.local_energy(bv, 2) == math.inf
    assert F.local_energy(bv, 1) == pytest.approx(
        2.0 * (bv.total_variation(-7, 7)), rel=1e-9)


def test_local_energy_grid_field_linear():
    g = fields.GridField.from_function(
        lambda p: np.clip(1 - np.abs(p[:, 0]), 0, None), 1, 2.0, 4096)
    # |u'| = 1 on (-1, 1): total variation integral 2, times gamma = 2
    assert F.local_energy(g, 1) == pytest.approx(4.0, rel=5e-3)


# ---------------------------------------------------------------------------
# domain-restricted density
# ---------------------------------------------------------------------------

def test_domain_density_mask_inactive_inside():
    u = fields.linear_field([2.0, 0.0])
    omega = fields.box_set([-1, -1], [1, 1])
    m = mf.indicator(0.25, 2)
    full = density(u, m, 1, [0.0, 0.0])
    masked = F.domain_density(u, m, 1, [0.0, 0.0], omega)
    assert masked == pytest.approx(full, rel=1e-12)


def test_domain_density_constant_field_is_zero():
    c = fields.AnalyticField(1, lambda p: np.full(p.shape[0], 3.0))
    omega = fields.interval_set(0.0, 1.0)
    assert F.domain_density(c, mf.indicator(0.25, 1), 1, [0.5], omega) == 0.0


def test_domain_density_linear_interior():
    u = fields.linear_field([1.0])
    omega = fields.interval_set(0.0, 1.0)
    val = F.domain_density(u, mf.indicator(0.25, 1), 1, [0.5], omega)
    assert val == pytest.approx(2.0, rel=1e-10)


def test_domain_density_halved_on_boundary_probe():
    # support sticking out of Omega: only the inside half contributes
    u = fields.linear_field([1.0])
    omega = fields.interval_set(0.0, 1.0)
    val = F.domain_density(u, mf.indicator(0.25, 1), 1, [0.0 + 1e-12], omega)
    assert val == pytest.approx(1.0, rel=1e-6)


def test_domain_density_rejects_outside_probe():
    u = fields.linear_field([1.0])
    with pytest.raises(DomainError):
        F.domain_density(u, mf.indicator(0.25, 1), 1, [2.0],
                         fields.interval_set(0.0, 1.0))


# ---------------------------------------------------------------------------
# sobolev residual
# ---------------------------------------------------------------------------

def test_sobolev_residual_zero_field():
    zero = fields.AnalyticField(1, lambda p: np.zeros(p.shape[0]),
                                support_radius=1.0)
    assert F.sobolev_residual(zero, mf.indicator(0.25, 1), None) == 0.0


def test_sobolev_residual_step_with_zero_candidate_near_four():
    val = F.sobolev_residual(fields.step_field(), mf.indicator(2.0**-6, 1), None)
    assert val == pytest.approx(4.0, rel=1e-6)
    assert val >= 3.9


def test_sobolev_residual_smooth_with_own_gradient_small():
    u = scaled_bump(1.0)
    cand = fields.gradient_candidate(u)
    vals = [F.sobolev_residual(u, mf.indicator(2.0**-k, 1), cand)
            for k in (2, 4, 6, 8)]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] < 1e-2


@pytest.mark.parametrize("field,m,probe", [
    (fields.step_field(), mf.power_law(0.3, 1), [0.0]),
    (fields.interval_set(-0.3, 0.6), mf.indicator(0.25, 1), [0.6]),
    (fields.step_field(), mf.indicator(0.25, 1), [[0.3], [1.0], [0.5]]),
], ids=["step-jump", "interval-endpoint", "batch-with-one-jump"])
def test_densities_refuse_probes_on_a_jump(field, m, probe):
    # the p >= 1 density is +inf on a jump; no rule may return a number
    omega = fields.interval_set(-2.0, 2.0)
    calls = [lambda: density(field, m, 1.0, probe),
             lambda: density(field, m, 2.0, probe),
             lambda: F.domain_density(field, m, 1.0, probe, omega)]
    if not isinstance(field, fields.IndicatorSet):
        calls.append(lambda: remainder(field, m, 1.0, probe))
    for call in calls:
        with pytest.raises(ProbeError, match="jump"):
            call()


def test_on_a_jump_means_within_rounding_of_it():
    # 0.1 + 0.2 is 0.3 up to one rounding; 1e-13 away the density is finite
    m = mf.indicator(0.25, 1)
    with pytest.raises(ProbeError):
        density(fields.BVField1D(None, [(0.1 + 0.2, 1.0)]), m, 1.0, [0.3])
    assert density(fields.step_field(), m, 1.0, [1e-13]) > 0.0


# ---------------------------------------------------------------------------
# ladder drivers
# ---------------------------------------------------------------------------

def test_bv_pointwise_limit_step_probe_half():
    rep = F.bv_pointwise_limit(fields.step_field(),
                               mf.indicator_ladder(1, range(1, 9)), [0.5])
    assert rep.limit == 0.0
    assert all(v == 0.0 for v in rep.values)
    assert rep.classification == "converging"


def test_bv_pointwise_limit_mixed_field():
    smooth = fields.AnalyticField(1, lambda x: x[:, 0] ** 2, lambda x: 2 * x)
    bv = fields.BVField1D(smooth, [(0.0, 1.0)])
    rep = F.bv_pointwise_limit(bv, mf.indicator_ladder(1, range(1, 11)), [1.0])
    assert rep.limit == pytest.approx(4.0)
    assert abs(rep.values[-1] - 4.0) / 4.0 < 2e-2
    assert rep.classification == "converging"


def test_mixed_bv_density_is_its_closed_form():
    # u = x^2 + h 1{x > 0}, p = 1, indicator(eps): at 0 < x and eps < 2x
    # the smooth quotient |2x + s| sums to 4x over s in (-eps, eps), and
    # for h > 0 the jump adds h / |s| on s < -x, so
    # D(x) = 4x + (h / eps) log(eps / x)_+
    smooth = fields.AnalyticField(1, lambda q: q[:, 0] ** 2, lambda q: 2 * q,
                                  support_radius=6.0)
    rng = np.random.default_rng(20)
    for h, x in zip(rng.uniform(0.05, 4.0, 20), rng.uniform(0.3, 0.7, 20)):
        bv = fields.BVField1D(smooth, [(0.0, h)])
        for k in range(1, 9):
            eps = 2.0 ** -k
            exact = 4.0 * x + h / eps * max(0.0, math.log(eps / x))
            got = float(density(bv, mf.indicator(eps, 1), 1.0, [x]))
            assert got == pytest.approx(exact, rel=1e-12, abs=0), (h, x, eps)


def test_bv_pointwise_limit_rejects_jump_probe():
    with pytest.raises(ProbeError):
        F.bv_pointwise_limit(fields.step_field(),
                             mf.indicator_ladder(1, [1, 2, 3]), [0.0])


def test_ponce_spector_step_and_smooth():
    ladder = mf.indicator_ladder(1, [4, 6, 8])
    rep = F.ponce_spector_mass(fields.step_field(), ladder)
    assert rep.limit == pytest.approx(4.0)
    assert rep.values[-1] == pytest.approx(4.0, rel=1e-6)
    smooth = fields.BVField1D(scaled_bump(), [])
    rep2 = F.ponce_spector_mass(smooth, ladder)
    assert rep2.limit == 0.0
    assert rep2.values[-1] < 5e-3
    assert rep2.classification == "converging"


def test_ponce_spector_additivity_of_jump_mass():
    ladder = mf.indicator_ladder(1, [6, 8, 10])
    bv = fields.BVField1D(scaled_bump(), [(0.2, 3.0)])
    rep = F.ponce_spector_mass(bv, ladder)
    assert rep.limit == pytest.approx(6.0)
    assert abs(rep.values[-1] - 6.0) / 6.0 < 2e-2


def test_convergence_study_linear_density_exact():
    u = fields.linear_field([2.0])
    probe = np.array([0.0])
    report = F.convergence_study(
        lambda m: density(u, m, 1, probe),
        mf.indicator_ladder(1, [1, 2, 3, 4]),
        limit=constants.gamma(1, 1) * 2.0)
    assert report.classification == "converging"
    assert max(report.abs_errors) <= 1e-9


def test_convergence_study_rejects_empty_ladder():
    with pytest.raises(DomainError):
        F.convergence_study(lambda m: 0.0, [])


def test_seeded_probes_deterministic_and_excluding():
    a = F.seeded_probes(2, 5, 7, radius_range=(0.3, 1.0))
    b = F.seeded_probes(2, 5, 7, radius_range=(0.3, 1.0))
    assert np.array_equal(a, b)
    radii = np.linalg.norm(a, axis=1)
    assert np.all((radii >= 0.3) & (radii <= 1.0))
    c = F.seeded_probes(1, 8, 3, low=-1, high=1,
                        exclude=[[0.0]], exclusion_radius=0.25)
    assert np.all(np.abs(c[:, 0]) >= 0.25)


# ---------------------------------------------------------------------------
# 1D energies: the lag route, which integrates over x first
# ---------------------------------------------------------------------------

def bv_two_jumps():
    smooth = fields.AnalyticField(
        1, lambda q: 0.5 * np.exp(-q[:, 0] ** 2),
        lambda q: -q * np.exp(-q[:, 0] ** 2)[:, None], support_radius=6.0)
    return fields.BVField1D(smooth, [(-0.3, 1.2), (0.4, -0.8)])


def axis_nodes(field, m):
    """A jump-aware x-rule for summing 1D densities: the support box
    +- r_max, split and graded at the jumps and at the jumps +- r_max."""
    r_max = m.quadrature_radius()
    lo, hi = field.support_box()
    sing = np.asarray(field.singular_points(), dtype=float)
    return Q.axis_rule(lo[0] - r_max, hi[0] + r_max,
                       np.concatenate([sing, sing - r_max, sing + r_max]))


@pytest.mark.parametrize("a,b,m,p,rtol", [
    (-0.2, 0.7, mf.indicator(2.0**-6, 1), 1.0, 1e-13),
    (0.0, 1.0, mf.indicator(0.25, 1), 1.5, 1e-13),
    # r_max beyond the length: the jumps' windows overlap
    (-0.2, 0.3, mf.indicator(0.75, 1), 1.0, 1e-13),
    (-0.2, 0.3, mf.indicator(0.75, 1), 1.5, 1e-13),
    (0.1, 0.4, mf.gaussian(4.0, 1), 1.0, 1e-13),
    (0.1, 0.4, mf.gaussian(4.0, 1), 1.5, 1e-13),
    (-0.3, 0.6, mf.gaussian(256.0, 1), 1.0, 1e-13),
    (0.0, 1.0, mf.power_law(0.3, 1), 1.0, 1e-8),
    (0.0, 1.0, mf.power_law(0.3, 1), 1.2, 1e-8),
    (0.0, 0.7, mf.power_law(0.3, 1), 1.2, 1e-8),
], ids=["indicator-1", "indicator-1.5", "overlap-1", "overlap-1.5", "gaussian-1",
        "gaussian-1.5", "gaussian-narrow-1", "powerlaw-1", "powerlaw-1.2",
        "powerlaw-overlap-1.2"])
def test_step_energy_matches_its_interval(a, b, m, p, rtol):
    # the same 0/1 field, by the lag route and by the covariogram route
    step = F.energy(fields.step_field(a, b), m, p)
    interval = F.energy(fields.interval_set(a, b), m, p)
    assert step == pytest.approx(interval, rel=rtol, abs=0)


@pytest.mark.parametrize("s,m", [
    (fields.interval_set(0.0, 1.0), mf.indicator(2.0**-6, 1)),
    # r_max beyond the length: the windows of the two ends overlap
    (fields.interval_set(-0.2, 0.3), mf.indicator(0.75, 1)),
    (fields.interval_set(0.1, 0.4), mf.gaussian(4.0, 1)),
    (fields.interval_set(0.1, 0.4), mf.power_law(0.3, 1)),
    (fields.ball_set(0.2, 0.5), mf.indicator(0.25, 1)),
    # a set of length 0: both are exactly 0
    (fields.interval_set(0.2, 0.2), mf.indicator(0.25, 1)),
], ids=["indicator", "overlap", "gaussian", "powerlaw", "ball", "empty"])
def test_set_residual_with_zero_candidate_is_its_energy(s, m):
    # with U = 0 the residual is the p = 1 energy; the lag route counts
    # the set's two ends as jumps, the energy takes the covariogram
    assert F.sobolev_residual(s, m, None) == pytest.approx(
        F.energy(s, m, 1.0), rel=1e-13, abs=0)


def test_step_energy_is_exact_for_a_small_power_law_exponent():
    # the jump part is counted, not evaluated, so no mass is lost where
    # x + r rounds to x: exact 2 c1 mu(0) = 4, for any delta
    assert F.energy(fields.step_field(), mf.power_law(0.1, 1), 1.0) == \
        pytest.approx(4.0, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", range(1, 11))
def test_1d_bump_p2_energy_matches_quad(k):
    eps = 2.0 ** -k
    value = F.energy(fields.gaussian_bump(1), mf.indicator(eps, 1), 2.0)
    assert value == pytest.approx(bump_p2_quad(1, eps), rel=1e-11, abs=0)


# scipy quad of the lag form (in t = r^delta for the power law), its
# x-integrals split at the jumps and at the jumps shifted by r
@pytest.mark.parametrize("m,p,exact,rtol", [
    (mf.power_law(0.3, 1), 1.0, 5.923831589841534, 3e-6),
    (mf.power_law(0.3, 1), 1.2, 13.694562239807562, 1e-6),
    (mf.indicator(0.5, 1), 1.9, 79.71352758416364, 2e-6),
], ids=["powerlaw-1", "powerlaw-1.2", "indicator-1.9"])
def test_bv_energy_matches_quad(m, p, exact, rtol):
    assert F.energy(bv_two_jumps(), m, p) == pytest.approx(exact, rel=rtol, abs=0)


def test_1d_bump_p1_energy_matches_its_closed_form():
    # int |u(x+r) - u(x)| dx = 2 sqrt(pi) erf(r/2) for u = exp(-x^2); the
    # rest of the miss is the x-panel that holds the kink at x = -r/2
    eps = 0.25
    val, _ = quad(lambda r: 2.0 * math.sqrt(math.pi) * math.erf(r / 2.0) / (eps * r),
                  0.0, eps, epsabs=0.0, epsrel=1e-13)
    value = F.energy(fields.gaussian_bump(1), mf.indicator(eps, 1), 1.0)
    assert value == pytest.approx(2.0 * val, rel=1e-5, abs=0)


# the two-jump residual with indicator(2^-7), converged to ~1e-10 on the
# lag route at 4096 x-panels and radial level 5.  At its 32 panels the
# lag route is 5.5e-8 (relative) off it and the sum of remainder
# densities over the axis rule 2.2e-7; the two differ by 2.8e-7.  Both
# errors come from x-panels that hold a kink of |u(x+r) - u(x) - r u'(x)|.
BV_RESIDUAL_CONVERGED = 4.006674288833976


def test_bv_residual_lag_route_matches_the_sum_of_densities():
    u, m = bv_two_jumps(), mf.indicator(2.0**-7, 1)
    value = F.sobolev_residual(u, m, fields.gradient_candidate(u))
    nodes, w = axis_nodes(u, m)
    dens = remainder(u, m, 1.0, nodes.reshape(-1, 1))
    reference = math.fsum(w * dens)
    assert value == pytest.approx(BV_RESIDUAL_CONVERGED, rel=1e-7, abs=0)
    assert reference == pytest.approx(BV_RESIDUAL_CONVERGED, rel=3e-7, abs=0)
    assert value == pytest.approx(reference, rel=4e-7, abs=0)


def test_1d_energies_do_not_use_the_polar_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a 1D energy called the polar engine")
    monkeypatch.setattr(F, "_polar_many", refuse)
    u, m = bv_two_jumps(), mf.indicator(0.25, 1)
    assert math.isfinite(F.energy(u, m, 1.5))
    assert math.isfinite(F.energy(fields.gaussian_bump(1), m, 2.0))
    assert math.isfinite(F.sobolev_residual(u, m, fields.gradient_candidate(u)))
    assert F.ponce_spector_mass(u, [m]).values[0] > 0.0


# ---------------------------------------------------------------------------
# the batched polar engine
# ---------------------------------------------------------------------------

def test_batch_spanning_blocks_matches_single_probes(rng):
    u = bv_two_jumps()
    m = mf.indicator(0.25, 1)
    probes = np.sort(rng.uniform(-0.6, 0.7, size=400)).reshape(-1, 1)
    breaks = u.difference_breakpoints(probes)
    # the stacked rows of the whole batch set the block size
    per_probe = Q.radial_rules(m, breakpoints=breaks).nodes.shape[1] * 2
    assert probes.shape[0] > 3 * (F._CHUNK // per_probe)   # several blocks
    batch = F._polar_many(u, m, 1.0, probes, breaks)
    single = [density(u, m, 1.0, x) for x in probes]
    np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0)
    batch = F._polar_many(u, m, 1.0, probes, breaks, subtract=u.gradient_many(probes))
    single = [remainder(u, m, 1.0, x) for x in probes]
    np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0)


def test_density_of_a_probe_batch_is_one_array():
    # a point gives a float, an (m, d) batch the (m,) array of those floats
    cases = [(fields.gaussian_bump(2), mf.gaussian(64.0, 2),
              [[0.3, 0.1], [0.5, 0.2], [0.1, 0.7]]),
             (bv_two_jumps(), mf.indicator(0.25, 1), [[-0.25], [0.1], [0.41]])]
    for u, m, probes in cases:
        for op in (density, remainder):
            batch = op(u, m, 1.0, probes)
            single = [op(u, m, 1.0, x) for x in probes]
            assert isinstance(batch, np.ndarray) and batch.shape == (3,)
            assert all(type(v) is float for v in single)
            np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0)
    u, m = bv_two_jumps(), mf.gaussian(64.0, 1)
    omega = fields.interval_set(-0.5, 0.5)
    probes = [[-0.45], [0.0], [0.3]]
    np.testing.assert_allclose(
        F.domain_density(u, m, 1.0, probes, omega),
        [F.domain_density(u, m, 1.0, x, omega) for x in probes], rtol=1e-14, atol=0)
    # every probe of a batch is checked, not only the first
    with pytest.raises(DomainError):
        F.domain_density(u, m, 1.0, [[0.0], [0.7]], omega)
    g = fields.GridField.from_function(lambda p: np.exp(-p[:, 0] ** 2), 1, 2.0, 256)
    with pytest.raises(ValidityError):
        density(g, mf.indicator(0.5, 1), 1, [[0.0], [1.8]])


def test_bv_power_law_density_is_stable_in_the_last_bits():
    # below a probe's nearest jump the difference quotient is smooth; a
    # rule graded on toward r = 0 would sum rounding noise divided by r
    # down to r ~ 1e-49 and move the density by ~1e-7 per ulp of x
    u, m = bv_two_jumps(), mf.power_law(0.3, 1)
    a, b = (density(u, m, 1.0, [x])
            for x in (0.22795445875361203, 0.22795445875361214))
    assert b == pytest.approx(a, rel=1e-12, abs=0)
    # 40-digit mpmath values of the density integral, split at the jumps
    exact = {-0.9: 0.977020919287654, 0.41: 8.853565236315688}
    for x, value in exact.items():
        assert density(u, m, 1.0, [x]) == pytest.approx(value, rel=1e-8, abs=0)


def test_batched_domain_density_matches_single_probes(rng):
    u = bv_two_jumps()
    m = mf.gaussian(64.0, 1)
    omega = fields.interval_set(-0.5, 0.5)
    probes = rng.uniform(-0.45, 0.45, size=(40, 1))
    breaks = np.concatenate([u.difference_breakpoints(probes),
                             omega.difference_breakpoints(probes)], axis=1)
    batch = F._polar_many(u, m, 1.0, probes, breaks, omega=omega)
    single = [F.domain_density(u, m, 1.0, x, omega) for x in probes]
    np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0)
    # the gaussian support sticks out of Omega; the mask drops that part
    assert single[0] < density(u, m, 1.0, probes[0])


# ---------------------------------------------------------------------------
# quadrature schemes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"sphere_order": 0}, {"sphere_order": -2}, {"x_resolution": 0},
    {"x_resolution": -3}, {"radial_level": -1}, {"radial_level": 13},
    {"radial_level": 32},
], ids=["sphere-0", "sphere-negative", "x-0", "x-negative", "level-negative",
        "level-13", "level-32"])
def test_quadrature_scheme_refuses_bad_values_when_built(kwargs):
    with pytest.raises(IntegrationError):
        QuadratureScheme(**kwargs)


def test_quadrature_scheme_keeps_its_bounds_and_defaults():
    QuadratureScheme(sphere_order=1, radial_level=0, x_resolution=1)
    assert QuadratureScheme(radial_level=Q.MAX_RADIAL_LEVEL).radial_level == 12
    assert QuadratureScheme().x_res(2) == F.DEFAULT_X_RESOLUTION[2]
    # positional order is sphere_order, radial_level, x_resolution
    with pytest.raises(IntegrationError):
        QuadratureScheme(96, 32, 2)


# ---------------------------------------------------------------------------
# 2D/3D energies: the midpoint x-grid through the same engine
# ---------------------------------------------------------------------------

def test_2d_energy_equals_cell_sum_of_densities():
    u, m = fields.gaussian_bump(2), mf.indicator(0.25, 2)
    n = 12
    scheme = QuadratureScheme(sphere_order=8, radial_level=1, x_resolution=n)
    r_max = m.quadrature_radius()
    box_lo, box_hi = u.support_box()
    lo, hi = np.asarray(box_lo) - r_max, np.asarray(box_hi) + r_max
    h = (hi - lo) / n
    axes = [lo[i] + h[i] * (np.arange(n) + 0.5) for i in range(2)]
    nodes = [(a, b) for a in axes[0] for b in axes[1]]
    dens = [density(u, m, 2.0, x, scheme) for x in nodes]
    reference = float(np.prod(h)) * math.fsum(dens)
    # a p = 2 energy of an analytic field takes the multiplier route; this
    # pins the tensor route, which stays the cross-check.  The tensor route
    # sums the half sphere rule, each pair once; the cell sum of the
    # full-rule densities counts each pair twice.  They agree to rounding
    # because the bump is even and the grid symmetric; on an uneven field
    # they are two x-rules of one integral
    # (test_half_rule_converges_with_the_full_rule_on_an_uneven_field)
    value = F._integrate_density_over_x(u, m, 2.0, scheme=scheme)
    assert value == pytest.approx(reference, rel=1e-13, abs=0)


def test_tensor_energies_keep_their_values():
    # values of the per-radius tensor route these energies ran on before
    # they moved onto the batched engine
    def scheme(n, order=None, level=None):
        return QuadratureScheme(x_resolution=n, sphere_order=order,
                                radial_level=level)

    # the bump energies (p = 2) take the multiplier route and the disk's
    # the covariogram route; these pin their tensor route, which stays
    # the cross-check
    bump2 = fields.gaussian_bump(2)
    cases = [
        (F._integrate_density_over_x(bump2, mf.indicator(0.125, 2), 2.0,
                                     scheme=scheme(24)),
         9.850364923299269),
        (F._integrate_density_over_x(fields.ball_set([0.0, 0.0], 1.0),
                                     mf.gaussian(256.0, 2), 1.0,
                                     scheme=scheme(96, 32, 2))
         / constants.gamma(2, 1), 6.260227517518683),
        (F._integrate_density_over_x(fields.gaussian_bump(3), mf.indicator(0.25, 3),
                                     2.0, scheme=scheme(16, 4, 2)),
         24.666819988052385),
        (F.sobolev_residual(bump2, mf.indicator(2.0**-6, 2),
                            fields.gradient_candidate(bump2), scheme(48, 32, 2)),
         0.1991460241318774),
        # an uneven field, where the half sphere rule the tensor route sums
        # is not the full rule's sum (the fine full-rule value is
        # 21.617450522792097, UNEVEN_REFERENCES)
        (F.energy(bump_with_gradient(2), mf.indicator(0.125, 2), 1.0,
                  scheme(96, 16, 2)),
         21.617524296582445),
    ]
    for value, pinned in cases:
        assert value == pytest.approx(pinned, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# p = 2 energies of smooth 2D/3D fields: the multiplier route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,p,route", [
    (fields.gaussian_bump(2), 2.0, "multiplier"),
    (fields.gaussian_bump(3), 2, "multiplier"),
    (fields.gaussian_bump(2), 1.0, "tensor"),
    (fields.gaussian_bump(3), 2.5, "tensor"),
    (fields.gaussian_bump(1), 2.0, "lag"),
    (fields.step_field(), 1.0, "lag"),
    (fields.GridField.from_function(lambda q: np.exp(-4 * q[:, 0] ** 2), 1, 2.0, 16),
     2.0, "lag"),
    (fields.GridField.from_function(lambda q: np.exp(-4 * np.sum(q * q, axis=1)),
                                    2, 2.0, 16), 2.0, "tensor"),
    (fields.box_set([0.0, 0.0], [1.0, 0.5]), 2.0, "box"),
    (fields.ball_set([0.0, 0.0], 0.5), 2.0, "covariogram"),
    (fields.interval_set(0.0, 1.0), 1.0, "covariogram"),
], ids=["bump-2d", "bump-3d", "bump-2d-p1", "bump-3d-p2.5", "bump-1d", "step",
        "grid-1d", "grid-2d", "box-2d", "disk", "interval"])
def test_energy_route(field, p, route):
    assert F.energy_route(field, p, mf.indicator(0.25, field.dimension)) == route


@pytest.mark.parametrize("box,m,p,route", [
    # r_max <= min L_i: the polynomial's moments
    (fields.box_set([0.0, 0.0], [1.0, 0.5]), mf.indicator(0.5, 2), 1.5, "box"),
    (fields.box_set([0.0] * 3, [1.0, 0.5, 0.25]), mf.indicator(0.25, 3), 2.0, "box"),
    # the gaussian at p = 1 is separable at any n
    (fields.box_set([0.0, 0.0], [1.0, 0.5]), mf.gaussian(4.0, 2), 1.0, "box"),
    (fields.box_set([0.0] * 3, [1.0, 0.5, 0.25]), mf.gaussian(4.0, 3), 1.0, "box"),
    # a box of zero volume has zero energy
    (fields.box_set([0.0, 0.0], [0.0, 0.5]), mf.indicator(2.0, 2), 1.5, "box"),
    # otherwise one radial sum, in 2D and in 3D
    (fields.box_set([0.0, 0.0], [1.0, 0.5]), mf.indicator(0.75, 2), 1.5, "covariogram"),
    (fields.box_set([0.0, 0.0], [1.0, 0.5]), mf.gaussian(4.0, 2), 2.0, "covariogram"),
    (fields.box_set([0.0] * 3, [1.0, 0.5, 0.25]), mf.indicator(0.5, 3), 1.0, "covariogram"),
], ids=["2d-moments", "3d-moments", "2d-gaussian-p1", "3d-gaussian-p1", "empty",
        "2d-sum", "2d-gaussian-p2", "3d-wide-kernel"])
def test_box_energy_route(box, m, p, route):
    assert F.energy_route(box, p, m) == route


@pytest.mark.parametrize("E", [
    fields.ball_set([0.5], 0.0), fields.interval_set(0.3, 0.3),
    fields.box_set([1.0], [0.0]), fields.ball_set([0.0, 0.0], 0.0),
    fields.ball_set([0.0, 0.0, 0.0], 0.0),
], ids=["point", "interval-0", "interval-reversed", "disk-r0", "ball-3d-r0"])
@pytest.mark.parametrize("p", [1.0, 2.0, 6.0])
def test_null_set_energy_is_zero_with_no_grid(E, p):
    # p = 6 is past every exponent where the indicator's mu(1-p) diverges
    m = mf.indicator(0.25, E.dimension)
    assert F.energy_route(E, p, m) == "covariogram"
    assert F.energy(E, m, p) == 0.0


BOUNDED_SETS = {
    "interval": fields.interval_set(-0.2, 0.7), "ball-1d": fields.ball_set([0.1], 0.3),
    "disk": fields.ball_set([0.1, 0.0], 0.4), "ball-3d": fields.ball_set([0.0, 0.1, 0.0], 0.4),
    "box-2d": fields.box_set([0.0, 0.1], [1.0, 0.6]),
    "box-3d": fields.box_set([0.0] * 3, [1.0, 0.5, 0.25]),
    "box-2d-null": fields.box_set([0.0, 0.0], [0.0, 0.5]),
    "box-3d-null": fields.box_set([0.0] * 3, [1.0, -0.5, 0.25]),
    "disk-null": fields.ball_set([0.0, 0.0], 0.0),
}


@pytest.mark.parametrize("name", sorted(BOUNDED_SETS))
@pytest.mark.parametrize("kind,param", [("indicator", 0.125), ("indicator", 2.0),
                                        ("gaussian", 64.0), ("powerlaw", 0.3)])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_every_bounded_set_takes_a_covariogram_route(name, kind, param, p):
    # "box" exactly where the energy is a closed form: a 2D/3D box of zero
    # volume, at the gaussian with p = 1, or with r_max <= every side
    E = BOUNDED_SETS[name]
    d = E.dimension
    m = {"indicator": mf.indicator, "gaussian": mf.gaussian,
         "powerlaw": mf.power_law}[kind](param, d)
    lo, hi = E.support_box()
    closed = name.startswith("box") and (
        E.exact_volume() == 0.0 or (kind == "gaussian" and p == 1.0)
        or m.quadrature_radius() <= float(np.min(hi - lo)))
    assert F.energy_route(E, p, m) == ("box" if closed else "covariogram")


def _mixed_1d():
    smooth = fields.AnalyticField(1, lambda q: q[:, 0] ** 2, lambda q: 2 * q,
                                  support_radius=6.0)
    return fields.BVField1D(smooth, [(0.0, 1.0)])


def _energy_case(field, m, p, route):
    assert F.energy_route(field, p, m) == route
    return lambda scheme: F.energy(field, m, p, scheme)


def _residual_case(field, m):
    assert F.residual_route(field) == "tensor"
    cand = fields.gradient_candidate(field)
    return lambda scheme: F.sobolev_residual(field, m, cand, scheme)


def _density_case(field, m, probe):
    return lambda scheme: density(field, m, 1.0, probe, scheme)


BOX = fields.box_set([0.0, 0.0], [1.0, 0.5])
ROUTE_CASES = [
    ("box", 2, lambda: _energy_case(BOX, mf.indicator(0.25, 2), 1.5, "box")),
    ("covariogram", 2, lambda: _energy_case(fields.ball_set([0.0, 0.0], 0.5),
                                            mf.indicator(0.25, 2), 1.0,
                                            "covariogram")),
    # with indicator kernels this box's radial sum stays below the last
    # bit of its closed-form part at every level; the gaussian's does not
    ("covariogram", 2, lambda: _energy_case(BOX, mf.gaussian(4.0, 2), 2.0,
                                            "covariogram")),
    ("covariogram", 3, lambda: _energy_case(fields.box_set([0.0] * 3, [1.0, 0.5, 0.25]),
                                            mf.gaussian(4.0, 3), 2.0, "covariogram")),
    ("multiplier", 2, lambda: _energy_case(fields.gaussian_bump(2),
                                           mf.gaussian(16.0, 2), 2.0, "multiplier")),
    ("lag", 1, lambda: _energy_case(_mixed_1d(), mf.indicator(0.25, 1), 1.2, "lag")),
    ("tensor", 2, lambda: _energy_case(fields.gaussian_bump(2),
                                       mf.indicator(0.5, 2), 1.0, "tensor")),
    ("tensor", 2, lambda: _residual_case(fields.gaussian_bump(2),
                                         mf.indicator(0.5, 2))),
    ("polar", 1, lambda: _density_case(fields.gaussian_bump(1),
                                       mf.indicator(0.5, 1), [0.3])),
    ("polar", 2, lambda: _density_case(fields.gaussian_bump(2),
                                       mf.indicator(0.5, 2), [0.3, 0.1])),
]
ROUTE_BASE = {"sphere_order": 8, "radial_level": 1, "x_resolution": 8}
ROUTE_VARIED = {"sphere_order": 12, "radial_level": 2, "x_resolution": 12}


@pytest.mark.parametrize("key", sorted(ROUTE_BASE))
@pytest.mark.parametrize("route,d,case", ROUTE_CASES,
                         ids=["box", "covariogram-disk", "covariogram-box",
                              "covariogram-box-3d", "multiplier", "lag", "tensor-energy",
                              "tensor-residual", "polar-1d", "polar-2d"])
def test_route_reads_is_what_each_route_reads(route, d, case, key):
    # a scheme field changes the value exactly when ROUTE_READS says the
    # route reads it; the value of a field it does not read is bit-identical
    value = case()
    given = dict(ROUTE_BASE)
    refuses_x = d == 1 and route != "polar"
    if refuses_x:
        del given["x_resolution"]
    base = value(QuadratureScheme(**given))
    varied = QuadratureScheme(**{**given, key: ROUTE_VARIED[key]})
    reads = set(F.ROUTE_READS[route]) - ({"sphere_order"} if d == 1 else set())
    if refuses_x and key == "x_resolution":
        # a 1D energy refuses an x-grid it cannot honour
        with pytest.raises(DomainError):
            value(varied)
    elif key in reads:
        assert value(varied) != base
    else:
        assert value(varied) == base


@pytest.mark.parametrize("d", [2, 3])
def test_sphere_defect_keeps_full_relative_accuracy(d):
    # |S^(d-1)| - S_d(t) = int_S 2 sin^2(t sigma.e / 2) dsigma, which
    # quad sums without the cancellation of 1 - J0(t) or 1 - sin(t)/t
    def reference(t):
        def f(c):
            return 2.0 * math.sin(0.5 * t * c) ** 2
        if d == 2:
            val, _ = quad(lambda th: f(math.cos(th)), 0.0, 2.0 * math.pi,
                          epsabs=0.0, epsrel=1e-13, limit=400)
            return val
        val, _ = quad(f, -1.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=400)
        return 2.0 * math.pi * val

    t = np.array([1e-8, 1e-3, 0.3, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 3.0, 40.0])
    np.testing.assert_allclose(F.sphere_defect(d, t), [reference(x) for x in t],
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("d", [2, 3])
def test_fourier_multiplier_tends_to_gamma_k2(d):
    # m_rho(k) = gamma(d, 2) k^2 (1 + O(k^2 eps^2)): the BBM limit
    k = np.array([0.5, 1.0, 3.0])
    np.testing.assert_allclose(F.fourier_multiplier(mf.indicator(1e-6, d), k),
                               constants.gamma(d, 2) * k**2, rtol=1e-10, atol=0)


def bump_p2_quad(d, eps):
    """E_2 of exp(-|x|^2) with indicator(eps), by quad.

    The autocorrelation of the bump is (pi/2)^(d/2) exp(-|h|^2/2), so
    E_2 = 2 (pi/2)^(d/2) |S^(d-1)| int rho(r) r^(d-3) (1 - exp(-r^2/2)) dr.
    """
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    val, _ = quad(lambda r: d * eps ** -d * r ** (d - 3) * -math.expm1(-0.5 * r * r),
                  0.0, eps, epsabs=0.0, epsrel=1e-13, limit=200)
    return 2.0 * (math.pi / 2.0) ** (d / 2.0) * sphere * val


@pytest.mark.parametrize("d,k", [(2, k) for k in (1, 2, 3, 4, 5, 6, 10)]
                         + [(3, k) for k in (1, 4, 10)])
def test_multiplier_energy_of_the_bump_matches_quad(d, k):
    eps = 2.0 ** -k
    value = F.energy(fields.gaussian_bump(d), mf.indicator(eps, d), 2.0)
    assert value == pytest.approx(bump_p2_quad(d, eps), rel=1e-12, abs=0)


def anisotropic_field(d):
    """(1 + x/2 - 3y^2/10) exp(-(x - c)^T A (x - c)) with an off-centre c and
    a non-diagonal A (eigenvalues 0.81 to 1.33 in 3D), truncated at radius 6
    where its value is below 2e-10."""
    c = np.array([0.3, -0.2, 0.1])[:d]
    A = np.array([[1.2, 0.2, 0.1], [0.2, 1.0, -0.1], [0.1, -0.1, 1.1]])[:d, :d]

    def ev(q):
        y = q - c
        return ((1.0 + 0.5 * q[:, 0] - 0.3 * q[:, 1] ** 2)
                * np.exp(-np.einsum("ij,jk,ik->i", y, A, y)))
    return fields.AnalyticField(d, ev, support_radius=6.0, label="anisotropic")


# the tensor route's own x-grid and sphere error at these schemes: ~1e-14
# in 2D; up to ~4e-6 in 3D, where a finer tensor scheme costs seconds
@pytest.mark.parametrize("d,scheme,rtol", [
    (2, QuadratureScheme(x_resolution=48, sphere_order=32, radial_level=3), 1e-12),
    (3, QuadratureScheme(x_resolution=28, sphere_order=4, radial_level=1), 1e-5),
], ids=["2d", "3d"])
@pytest.mark.parametrize("kind", ["indicator", "gaussian", "powerlaw"])
def test_multiplier_energy_matches_the_tensor_route(d, scheme, rtol, kind):
    u = anisotropic_field(d)
    m = {"indicator": mf.indicator(0.25, d), "gaussian": mf.gaussian(64.0, d),
         "powerlaw": mf.power_law(0.3, d)}[kind]
    tensor = F._integrate_density_over_x(u, m, 2.0, scheme=scheme)
    assert F.energy(u, m, 2.0, scheme) == pytest.approx(tensor, rel=rtol, abs=0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_multiplier_energy_refuses_a_non_finite_sample(bad):
    u = infinite_spot(2, 2.0, bad)
    with pytest.raises(EvaluationError) as err:
        F.energy(u, mf.indicator(0.25, 2), 2.0, QuadratureScheme(x_resolution=64))
    e = err.value
    assert "field sample" in str(e)
    # the bad sample and a copy of its point, which the field maps to it
    assert e.stage == "multiplier" and e.r is None and e.sigma is None
    np.testing.assert_array_equal(e.value, bad)
    assert e.centre.shape == (2,) and e.centre.flags.writeable
    assert e.centre.base is None
    np.testing.assert_array_equal(u.eval_many(e.centre[None]), [bad])


MULTIPLIER_KERNELS = {"indicator": lambda d: mf.indicator(0.25, d),
                      "gaussian": lambda d: mf.gaussian(64.0, d),
                      "powerlaw": lambda d: mf.power_law(0.3, d)}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", sorted(MULTIPLIER_KERNELS))
@pytest.mark.parametrize("level", [0, 2, 4, 6])
def test_fourier_multiplier_is_below_its_tail_bound(d, kind, level):
    # m_rho(k) <= min(c2 k^2, c0) on a grid whose k r_max runs past the
    # J0 minimum (t ~ 3.832) and the sinc minimum (t ~ 4.493), where the
    # defect peaks, and down to k = 0, where the k^2 bound is tight
    m = MULTIPLIER_KERNELS[kind](d)
    c2, c0 = F._multiplier_bounds(m, level)
    r_max = Q.kernel_radial_rule(m, level).r_max
    k = np.concatenate([[0.0, 1e-8, 1e-4], np.linspace(0.0, 12.0, 4801)[1:] / r_max])
    values = F.fourier_multiplier(m, k, level)
    assert (values >= 0).all()
    assert (values <= c2 * k * k).all()
    assert (values <= c0).all()
    # the k^2 bound is m_rho's own limit as k -> 0
    assert values[2] == pytest.approx(c2 * k[2] ** 2, rel=1e-6)


@pytest.mark.parametrize("d", [2, 3])
def test_sphere_defect_is_below_its_bounds(d):
    # |S^(d-1)| - S_d(t) <= min(|S^(d-1)| t^2/(2d), _DEFECT_MAX), and the
    # peak (t ~ 3.832 in 2D, ~4.493 in 3D) comes within 1e-4 of the constant
    t = np.linspace(0.0, 40.0, 400001)
    defect = F.sphere_defect(d, t)
    assert (defect <= F._SERIES_COEFFS[d][0] * t * t).all()
    assert (defect <= F._DEFECT_MAX[d]).all()
    assert defect.max() >= (1.0 - 1e-4) * F._DEFECT_MAX[d]


def tent_field(d):
    """(1 - |x|)^2 (1 + 2|x|) on the unit ball: a tent smoothed to C^1,
    whose second derivative jumps on |x| = 1, so |u^|^2 decays only
    algebraically."""
    def ev(q):
        s = np.minimum(np.sqrt(np.einsum("ij,ij->i", q, q)), 1.0)
        return (1.0 - s) ** 2 * (1.0 + 2.0 * s)
    return fields.AnalyticField(d, ev, support_radius=1.0, label="tent")


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", sorted(MULTIPLIER_KERNELS))
@pytest.mark.parametrize("name", ["bump", "anisotropic", "tent"])
def test_multiplier_energy_equals_the_full_spectrum(d, kind, name):
    # every shell through fourier_multiplier against the kept prefix: the
    # dropped shells move the energy by rounding alone
    u = {"bump": fields.gaussian_bump, "anisotropic": anisotropic_field,
         "tent": tent_field}[name](d)
    m = MULTIPLIER_KERNELS[kind](d)
    k, mass, scale = F._multiplier_shells(u, m, F.DEFAULT_SCHEME)
    full = scale * float(np.dot(mass, F.fourier_multiplier(m, k)))
    value = F.energy(u, m, 2.0)
    assert abs(value - full) <= 4 * 2.0**-52 * full
    _, kept = F._shell_sum(m, k, mass, None)
    if name == "tent":
        # algebraic decay: the cut keeps nearly every shell
        assert kept >= 0.99 * k.size
    else:
        # gaussian decay: a few hundred of the 8,041 (3D) or 22,026 (2D)
        assert kept <= 0.1 * k.size


@pytest.mark.parametrize("d", [2, 3])
def test_multiplier_energy_of_a_zero_field_is_exactly_zero(d):
    u = fields.AnalyticField(d, lambda q: np.zeros(len(q)), support_radius=1.0)
    assert F.energy(u, mf.indicator(0.25, d), 2.0) == 0.0
    k, mass, _ = F._multiplier_shells(u, mf.indicator(0.25, d), F.DEFAULT_SCHEME)
    assert F._shell_sum(mf.indicator(0.25, d), k, mass, None) == (0.0, 0)


@pytest.mark.parametrize("d,n", [(2, 16), (2, 48), (2, 512), (3, 32)])
def test_shell_masses_by_bincount_equal_the_sorted_masses(d, n):
    # bincount on |j|^2 sums each shell in the spectrum's order, as the
    # np.unique + bincount(inverse) it replaces did: bit for bit
    spectrum = np.fft.rfftn(np.random.default_rng(n).standard_normal((n,) * d))
    power = spectrum.real ** 2 + spectrum.imag ** 2
    power[..., 1:(n + 1) // 2] *= 2.0
    jsq = np.arange(n // 2 + 1) ** 2
    full = np.fft.fftfreq(n, 1.0 / n).astype(np.int64) ** 2
    for _ in range(d - 1):
        jsq = np.add.outer(full, jsq)
    levels, where = np.unique(jsq, return_inverse=True)
    mass = np.bincount(where.ravel(), weights=power.ravel())
    got_levels, got_mass = F._shell_masses(power)
    np.testing.assert_array_equal(got_levels, levels)
    np.testing.assert_array_equal(got_mass, mass)


# ---------------------------------------------------------------------------
# energies of sets: the covariogram route
# ---------------------------------------------------------------------------

def interval_or_ball(d, R):
    """The interval of length 2R (d = 1) or the ball of radius R, off centre."""
    if d == 1:
        return fields.interval_set(0.05 - R, 0.05 + R)
    return fields.ball_set([0.05] + [0.0] * (d - 1), R)


def covariogram_quad(d, R, m, p):
    """2 |S^(d-1)| int rho(r) r^(d-1-p) (|E| - g(r)) dr by quad, with the
    covariogram g of the interval or ball and the profile rho written out.

    rho(r) r^(d-1-p) (|E| - g) = A e(r) r^alpha (|E| - g(r))/r, where
    (|E| - g)/r -> c1 at 0; the algebraic weight r^alpha takes the
    singularity at 0 and the integral is split at the diameter D."""
    D = 2.0 * R
    if d == 1:
        vol, c1 = D, 1.0

        def g(t):
            return D - t
    elif d == 2:
        vol, c1 = math.pi * R * R, D

        def g(t):
            return 2.0 * R * R * math.acos(t / D) - 0.5 * t * math.sqrt(D * D - t * t)
    else:
        vol, c1 = 4.0 / 3.0 * math.pi * R**3, math.pi * R * R

        def g(t):
            return math.pi / 12.0 * (4.0 * R + t) * (2.0 * R - t) ** 2
    if m.kind == "indicator":
        A, a, top, n = d * m.param**-d, 0.0, m.param, 0.0
    elif m.kind == "gaussian":
        n = m.param
        A, a, top = 2.0 / math.gamma((d + 1) / 2.0) * n ** ((d + 1) / 2.0), 1.0, math.inf
    else:
        A, a, top, n = m.param + d - 1.0, m.param - 1.0, 1.0, 0.0
    kw = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    value = quad(lambda r: A * math.exp(-n * r * r) * ((vol - g(r)) / r if r > 0 else c1),
                 0.0, min(D, top), weight="alg", wvar=(a + d - p, 0.0), **kw)[0]
    if top > D:
        value += quad(lambda r: A * math.exp(-n * r * r) * r ** (a + d - 1 - p) * vol,
                      D, top, **kw)[0]
    sphere = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[d]
    return 2.0 * sphere * value


# an exponent below each family's critical one: d+1, d+2 and delta+d
BELOW_CRITICAL = {"indicator": {1: 1.9, 2: 2.5, 3: 3.5},
                  "gaussian": {1: 2.5, 2: 3.5, 3: 4.5},
                  "powerlaw": {1: 1.2, 2: 2.2, 3: 3.2}}
# (p = 1, p > 1) relative tolerances
COVARIOGRAM_RTOL = {"indicator": (1e-10, 1e-8), "gaussian": (1e-10, 1e-8),
                    "powerlaw": (1e-6, 1e-4)}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("R", [0.1, 0.8])
@pytest.mark.parametrize("kind", ["indicator", "gaussian", "powerlaw"])
@pytest.mark.parametrize("above_one", [False, True], ids=["p1", "p-below-critical"])
def test_set_energy_matches_quad_of_its_covariogram(d, R, kind, above_one):
    m = {"indicator": mf.indicator(0.3, d), "gaussian": mf.gaussian(64.0, d),
         "powerlaw": mf.power_law(0.3, d)}[kind]
    p = BELOW_CRITICAL[kind][d] if above_one else 1.0
    exact = covariogram_quad(d, R, m, p)
    value = F.energy(interval_or_ball(d, R), m, p)
    assert value == pytest.approx(exact, rel=COVARIOGRAM_RTOL[kind][above_one], abs=0)


def test_disk_bbm_perimeter_matches_its_covariogram_integral():
    # the energy-nd disk at its reduced scheme, which the route ignores
    # apart from the radial level
    scheme = QuadratureScheme(x_resolution=96, sphere_order=32, radial_level=2)
    value = P.bbm_perimeter(fields.ball_set([0.05, 0.0], 1.0), 256.0, scheme)
    exact = covariogram_quad(2, 1.0, mf.gaussian(256.0, 2), 1.0) / constants.gamma(2, 1)
    assert value == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("E,m,scheme", [
    (fields.ball_set([0.1, -0.05], 0.8), mf.indicator(0.125, 2),
     QuadratureScheme(x_resolution=96)),
    (fields.ball_set([0.1, -0.05], 0.8), mf.gaussian(64.0, 2),
     QuadratureScheme(x_resolution=96)),
    (fields.ball_set([0.1, -0.05, 0.0], 0.8), mf.indicator(0.125, 3),
     QuadratureScheme(x_resolution=32, sphere_order=8, radial_level=2)),
], ids=["disk-indicator", "disk-gaussian", "ball-indicator"])
def test_covariogram_route_agrees_with_the_tensor_route(E, m, scheme):
    # the tensor route stays the cross-check, within its x-grid error
    tensor = F._integrate_density_over_x(E, m, 1.0, scheme=scheme)
    assert F.energy(E, m, 1.0, scheme) == pytest.approx(tensor, rel=5e-3, abs=0)


def test_covariogram_route_ignores_the_x_grid_and_the_sphere_rule():
    disk, m = fields.ball_set([0.0, 0.0], 0.5), mf.gaussian(64.0, 2)
    base = F.energy(disk, m, 1.0)
    assert F.energy(disk, m, 1.0, QuadratureScheme(x_resolution=8, sphere_order=4)) == base
    # a 1D energy refuses x_resolution on every route
    with pytest.raises(DomainError):
        F.energy(fields.interval_set(0.0, 1.0), mf.indicator(0.25, 1), 1.0,
                 QuadratureScheme(x_resolution=64))
    # an empty interval has zero energy
    assert F.energy(fields.box_set([0.0], [0.0]), mf.indicator(0.25, 1), 1.0) == 0.0


@pytest.mark.parametrize("field,m,p", [
    (fields.step_field(), mf.power_law(0.3, 1), 1.5),
    (fields.step_field(), mf.power_law(0.3, 1), 1.3),
    (fields.interval_set(0.0, 1.0), mf.indicator(0.25, 1), 2.5),
    (fields.interval_set(0.0, 1.0), mf.indicator(0.25, 1), 2.0),
    (fields.ball_set([0.0, 0.0], 0.5), mf.gaussian(64.0, 2), 4.0),
    (fields.ball_set([0.0, 0.0, 0.0], 0.5), mf.power_law(0.3, 3), 3.3),
    (fields.box_set([0.0, 0.0], [1.0, 1.0]), mf.indicator(0.25, 2), 3.0),
], ids=["step-powerlaw-1.5", "step-powerlaw-critical", "interval-indicator-2.5",
        "interval-indicator-critical", "disk-gaussian-critical",
        "ball-powerlaw-critical", "square-indicator-critical"])
def test_energy_of_a_jump_is_infinite_from_the_critical_exponent(field, m, p):
    # E_p = inf exactly when mu(1 - p) = int rho r^(d-p) dr diverges
    assert F.energy(field, m, p) == math.inf


def test_energy_of_a_jump_is_finite_below_the_critical_exponent():
    # the lag route for step_field at p = 1.2 with power_law(0.3, 1):
    # exactly 2 c1 mu(-0.2) = 4 * 0.3 / (0.3 - 0.2) = 12
    assert F.energy(fields.step_field(), mf.power_law(0.3, 1), 1.2) == \
        pytest.approx(12.0, rel=1e-8, abs=0)
    assert math.isfinite(F.energy(fields.interval_set(0.0, 1.0), mf.indicator(0.25, 1), 1.9))
    # a field without a jump keeps a finite energy at any p
    smooth = F.energy(scaled_bump(), mf.indicator(0.25, 1), 5.0)
    assert math.isfinite(smooth) and smooth > 0.0
    # so does a BV field whose jumps all have zero height
    flat = fields.BVField1D(scaled_bump(), [(0.0, 0.0)])
    assert math.isfinite(F.energy(flat, mf.indicator(0.25, 1), 3.0))


# ---------------------------------------------------------------------------
# non-finite integrands are refused
# ---------------------------------------------------------------------------

def infinite_spot(d, support_radius=math.inf, bad=np.inf):
    """exp(-|x|^2), except ``bad`` on a small ball around (0.3, 0, ...)."""
    centre = np.zeros(d)
    centre[0] = 0.3

    def ev(q):
        far = np.einsum("ij,ij->i", q - centre, q - centre) > 0.05**2
        return np.where(far, np.exp(-np.einsum("ij,ij->i", q, q)), bad)
    return fields.AnalyticField(d, ev, support_radius=support_radius)


@pytest.mark.parametrize("d", [1, 2])
def test_density_refuses_infinite_integrand(d):
    probe = np.zeros(d)
    probe[0] = 0.2
    for bad in (np.inf, np.nan):
        with pytest.raises(EvaluationError) as err:
            density(infinite_spot(d, bad=bad), mf.indicator(0.25, d), 1.0, probe)
        assert err.value.stage == "polar"
        msg = str(err.value)
        assert repr(bad) in msg and "r=" in msg and "sigma=" in msg \
            and "centre=" in msg


def test_1d_energy_refuses_infinite_integrand():
    for bad in (np.inf, np.nan):
        with pytest.raises(EvaluationError) as err:
            F.energy(infinite_spot(1, 3.0, bad=bad), mf.indicator(0.25, 1), 2.0)
        assert err.value.stage == "lag"
        msg = str(err.value)
        assert "centre=" in msg and "r=" in msg and "sigma=" in msg
        # the named centre or its lagged point lies in the bad spot
        centre = float(msg.split("centre=")[1].split(",")[0])
        r = float(msg.split(" r=")[1].split(",")[0])
        sigma = float(msg.split("sigma=")[1])
        assert 0.0 < r <= 0.25 and sigma in (1.0, -1.0)
        assert min(abs(centre - 0.3), abs(centre + sigma * r - 0.3)) <= 0.05


def test_2d_energy_refuses_infinite_integrand():
    scheme = QuadratureScheme(sphere_order=8, radial_level=1, x_resolution=32)
    with pytest.raises(EvaluationError) as err:
        F.energy(infinite_spot(2, 2.0), mf.indicator(0.25, 2), 1.0, scheme)
    assert "centre=" in str(err.value) and err.value.stage == "polar"


def structured_node(u, err):
    """The node an EvaluationError carries, checked against its message:
    (centre, r, sigma), with u non-finite at the centre or at
    centre + r sigma."""
    e = err.value
    msg = str(e)
    assert msg == (f"integrand is {e.value!r} at centre={e.centre!r}, "
                   f"r={e.r!r}, sigma={e.sigma!r}")
    assert math.isnan(e.value)
    centre = np.atleast_1d(np.asarray(e.centre, dtype=float))
    node = centre + e.r * np.atleast_1d(np.asarray(e.sigma, dtype=float))
    assert not np.isfinite(u.eval_many(np.stack([centre, node]))).all()
    return centre, float(e.r), np.atleast_1d(e.sigma)


@pytest.mark.parametrize("path", ["density", "density-batch", "remainder",
                                  "tensor-energy", "tensor-residual", "lag"])
def test_a_nan_node_is_reported_as_structured_fields(path):
    d = 1 if path == "lag" else 2
    u = infinite_spot(d, 3.0, np.nan)
    m = mf.indicator(0.25, d)
    scheme = QuadratureScheme(sphere_order=8, radial_level=1, x_resolution=32)
    probe = np.array([0.2, 0.0])
    with pytest.raises(EvaluationError) as err:
        if path == "density":
            density(u, m, 1.0, probe)
        elif path == "density-batch":
            density(u, m, 1.0, np.array([[-0.5, 0.0], probe]))
        elif path == "remainder":
            grad = fields.AnalyticField(2, u.evaluator, lambda q: np.zeros_like(q))
            remainder(grad, m, 1.0, probe)
        elif path == "tensor-energy":
            F.energy(u, m, 1.0, scheme)
        elif path == "tensor-residual":
            F.sobolev_residual(u, m, None, scheme)
        else:
            F.energy(u, m, 2.0)
    assert err.value.stage == ("lag" if path == "lag" else "polar")
    centre, r, sigma = structured_node(u, err)
    assert 0.0 < r <= 0.25
    if path.startswith(("density", "remainder")):
        np.testing.assert_array_equal(centre, probe)
        assert sigma.shape == (2,) and math.isclose(np.linalg.norm(sigma), 1.0)
    elif path == "lag":
        assert sigma.tolist() in ([1.0], [-1.0])
    else:
        # a node of the energy's midpoint x-grid
        X, _ = F._midpoint_grid(*F._x_region(u, m.quadrature_radius()), 32)
        assert np.any(np.all(X == centre, axis=1))


# ---------------------------------------------------------------------------
# x_resolution belongs to the 2D/3D tensor grids
# ---------------------------------------------------------------------------

def test_1d_energies_refuse_x_resolution():
    scheme = QuadratureScheme(x_resolution=64)
    m = mf.indicator(0.25, 1)
    with pytest.raises(DomainError):
        F.energy(fields.step_field(), m, 1.0, scheme)
    with pytest.raises(DomainError):
        F.sobolev_residual(fields.step_field(), m, None, scheme)
    with pytest.raises(DomainError):
        F.ponce_spector_mass(fields.step_field(), mf.indicator_ladder(1, [2, 3, 4]),
                             scheme)
    # the other scheme fields still apply in 1D
    assert F.energy(fields.step_field(), m, 1.0, QuadratureScheme(radial_level=3)) \
        == pytest.approx(4.0, abs=1e-3)


# ---------------------------------------------------------------------------
# boxes by their covariogram g(h) = prod_i (L_i - |h_i|)_+
# ---------------------------------------------------------------------------

def indicator_moment(d, eps, k):
    # int_0^eps d eps^-d r^(d-1+k) dr
    return d * eps ** k / (d + k)


def gaussian_moment(d, n, k):
    # int_0^inf C_d n^((d+1)/2) r exp(-n r^2) r^(d-1+k) dr, C_d = 2 / Gamma((d+1)/2)
    return n ** (-k / 2.0) * math.gamma((d + 1 + k) / 2.0) / math.gamma((d + 1) / 2.0)


def box_polynomial_energy(L, mu):
    """|E| - g is a polynomial in the |h_i| while r_max <= min L_i; its
    sphere integrals are int|s1| = 4, int|s1 s2| = 2 on the circle and
    2 pi, 8/3 and 1 on the sphere."""
    if len(L) == 2:
        return 2.0 * (4.0 * (L[0] + L[1]) * mu(1) - 2.0 * mu(2))
    e2 = L[0] * L[1] + L[1] * L[2] + L[0] * L[2]
    return 2.0 * (2.0 * math.pi * e2 * mu(1) - 8.0 / 3.0 * sum(L) * mu(2) + mu(3))


def box_gaussian_p1_energy(L, n):
    # 2k [|E| (pi/n)^(d/2) - prod_i int exp(-n h^2) (L_i - |h|)_+ dh], k = C_d n^((d+1)/2)
    d = len(L)
    k = 2.0 / math.gamma((d + 1) / 2.0) * n ** ((d + 1) / 2.0)
    g = math.prod(a * math.sqrt(math.pi / n) * math.erf(a * math.sqrt(n))
                  - (1.0 - math.exp(-n * a * a)) / n for a in L)
    return 2.0 * k * (math.prod(L) * (math.pi / n) ** (d / 2.0) - g)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("L", [(1.0, 0.5), (0.3, 0.7), (1.0, 0.5, 0.25), (0.4, 0.3, 0.5)])
def test_box_energy_is_its_closed_form(L, p):
    d = len(L)
    E = fields.box_set([0.1] * d, [0.1 + a for a in L])
    eps = min(L)
    expected = box_polynomial_energy(L, lambda k: indicator_moment(d, eps, k - p))
    assert F.energy(E, mf.indicator(eps, d), p) == pytest.approx(expected, rel=1e-13, abs=0)
    # the gaussian: separable at p = 1, the polynomial once r_max <= min L_i
    n = 4096.0
    m = mf.gaussian(n, d)
    expected = (box_gaussian_p1_energy(L, n) if p == 1.0 else
                box_polynomial_energy(L, lambda k: gaussian_moment(d, n, k - p)))
    assert F.energy(E, m, p) == pytest.approx(expected, rel=1e-13, abs=0)
    if p == 1.0:
        for n in (4.0, 256.0):
            assert F.energy(E, mf.gaussian(n, d), 1.0) == pytest.approx(
                box_gaussian_p1_energy(L, n), rel=1e-13, abs=0)
    # the raw power law has r_max = 1: scale the box up to reach it
    big = [4.0 * a for a in L]
    delta = 0.3
    expected = box_polynomial_energy(big, lambda k: delta / (delta + d - 1 + k - p))
    assert F.energy(fields.box_set([0.0] * d, big), mf.power_law(delta, d, normalized=False),
                    p) == pytest.approx(expected, rel=1e-13, abs=0)


def test_box_energy_hand_values():
    E = fields.box_set([0.0, 0.0], [1.0, 0.5])
    # 2 [4 * 1.5 * mu(-1/2) - 2 mu(1/2)] = 2 [6 * 8/3 - 2 * 0.4]
    assert F.energy(E, mf.indicator(0.25, 2), 1.5) == pytest.approx(30.4, rel=1e-15)
    assert P.bbm_perimeter(E, 256.0) == pytest.approx(2.929476302056530, rel=1e-13)
    # a box of zero volume
    assert F.energy(fields.box_set([0.0, 0.0], [0.0, 0.5]), mf.indicator(2.0, 2), 1.5) == 0.0


@pytest.mark.parametrize("L,n", [(1.0, 256.0), (0.5, 256.0), (0.3, 1024.0), (2.0, 16.0)])
def test_separable_gaussian_box_is_the_interval_route_in_1d(L, n):
    # r_max <= L, so the covariogram route sums no truncated tail
    m = mf.gaussian(n, 1)
    assert m.quadrature_radius() <= L
    box = F._gaussian_box_energy(np.array([L]), m)
    assert box == pytest.approx(F.energy(fields.interval_set(0.0, L), m, 1.0),
                                rel=4e-16, abs=0)


def box_covariogram_quad(L1, L2, m, p):
    """2 int_0^r_max rho(r) r^(1-p) int_S (|E| - g(r sigma)) dsigma dr by
    nested quad, the angle over a quarter circle split where the sides cut it."""
    def sphere(r):
        def g(t):
            return max(L1 - r * math.cos(t), 0.0) * max(L2 - r * math.sin(t), 0.0)
        cuts = [t for t in (math.acos(min(1.0, L1 / r)), math.asin(min(1.0, L2 / r)))
                if 0.0 < t < math.pi / 2]
        G = quad(g, 0.0, math.pi / 2, points=cuts or None, epsabs=0, epsrel=1e-13,
                 limit=200)[0]
        return float(m.evaluate(r)) * r ** (1.0 - p) * (2.0 * math.pi * L1 * L2 - 4.0 * G)
    r_max = m.quadrature_radius()
    cuts = sorted(x for x in (L1, L2, math.hypot(L1, L2)) if x < r_max)
    return 2.0 * quad(sphere, 0.0, r_max, points=cuts or None, epsabs=0, epsrel=1e-12,
                      limit=400)[0]


@pytest.mark.parametrize("L,m,p", [
    ((1.0, 0.5), mf.indicator(0.75, 2), 1.5),
    ((1.0, 0.5), mf.indicator(1.3, 2), 1.0),
    ((1.0, 0.5), mf.indicator(2.0, 2), 2.0),
    ((0.3, 0.2), mf.gaussian(16.0, 2), 1.5),
    ((0.3, 0.2), mf.gaussian(16.0, 2), 1.0),
    ((0.3, 0.2), mf.power_law(0.3, 2), 1.2),
    ((1.0, 1.0), mf.indicator(1.2, 2), 1.0),
], ids=["indicator-between-sides", "indicator-past-one-side", "indicator-past-diagonal",
        "gaussian-p1.5", "gaussian-p1", "powerlaw", "square"])
def test_box_energy_in_2d_matches_quad_of_the_covariogram(L, m, p):
    E = fields.box_set([-0.2, 0.1], [-0.2 + L[0], 0.1 + L[1]])
    assert F.energy(E, m, p) == pytest.approx(box_covariogram_quad(*L, m, p),
                                              rel=1e-11, abs=0)


_GL20 = np.polynomial.legendre.leggauss(20)


def box3d_covariogram_quad(L, m, p):
    """2 int_0^r_max rho(r) r^(2-p) int_S (|E| - g(r sigma)) dsigma dr for
    the box with sides L, straight from g(h) = prod_i (L_i - |h_i|)_+: on
    one octant, nested quad in r and in the polar angle phi, split at
    the kinks, and a 20-point Gauss rule in the azimuth t on each piece
    between the cuts where g's factors reach 0, where g is smooth."""
    L1, L2, L3 = L
    x, w = _GL20

    def azimuth(s, c):
        cuts = [0.0, math.pi / 2]
        if s > 0.0:
            cuts += [t for t in (math.acos(min(1.0, L1 / s)), math.asin(min(1.0, L2 / s)))
                     if 0.0 < t < math.pi / 2]
        e = np.sort(cuts)
        half = 0.5 * np.diff(e)[:, None]
        t = e[:-1, None] + half * (1.0 + x)
        g = (np.maximum(L1 - s * np.cos(t), 0.0) * np.maximum(L2 - s * np.sin(t), 0.0)
             * max(L3 - c, 0.0))
        return float(np.sum(half * w * g))

    def sphere(r):
        cuts = {t for t in (math.acos(min(1.0, L3 / r)), math.asin(min(1.0, L1 / r)),
                            math.asin(min(1.0, L2 / r)),
                            math.asin(min(1.0, math.hypot(L1, L2) / r)))
                if 0.0 < t < math.pi / 2}
        octant = quad(lambda f: azimuth(r * math.sin(f), r * math.cos(f)) * math.sin(f),
                      0.0, math.pi / 2, points=sorted(cuts) or None, epsabs=0,
                      epsrel=1e-12, limit=200)[0]
        return float(m.evaluate(r)) * r ** (2.0 - p) * (4.0 * math.pi * L1 * L2 * L3
                                                        - 8.0 * octant)
    r_max = m.quadrature_radius()
    kinks = sorted({k for k in (L1, L2, L3, math.hypot(L1, L2), math.hypot(L1, L3),
                                math.hypot(L2, L3), math.hypot(L1, L2, L3)) if k < r_max})
    return 2.0 * quad(sphere, 0.0, r_max, points=kinks or None, epsabs=0, epsrel=1e-12,
                      limit=400)[0]


@pytest.mark.parametrize("L,m,p", [
    ((1.0, 0.5, 0.25), mf.indicator(0.5, 3), 1.0),
    ((1.0, 0.5, 0.25), mf.indicator(0.75, 3), 1.5),
    ((1.0, 0.5, 0.25), mf.indicator(1.3, 3), 2.0),
    ((1.0, 1.0, 1.0), mf.indicator(1.2, 3), 1.0),
], ids=["thin-past-one-side", "thin-past-two-sides", "thin-past-every-diagonal", "cube"])
def test_box_energy_in_3d_matches_quad_of_the_covariogram(L, m, p):
    E = fields.box_set([0.1, -0.2, 0.3], [0.1 + L[0], -0.2 + L[1], 0.3 + L[2]])
    assert F.energy_route(E, p, m) == "covariogram"
    assert F.energy(E, m, p) == pytest.approx(box3d_covariogram_quad(L, m, p),
                                              rel=1e-11, abs=0)


def test_tensor_energy_skips_exact_zeros_without_moving_a_bit(monkeypatch):
    # probes farther than R + r_max from the origin have density exactly 0;
    # the energy equals the plain sum over the whole grid, bit for bit, on
    # the half sphere rule an energy sums
    u = fields.gaussian_bump(2)
    m = mf.indicator(2.0 ** -3, 2)
    scheme = QuadratureScheme(x_resolution=24, sphere_order=16, radial_level=2)
    lo, hi = F._x_region(u, m.quadrature_radius())
    probes, weights = F._midpoint_grid(lo, hi, 24)
    none = np.empty((probes.shape[0], 0))
    half = F._upper_half(scheme.sphere(2))
    plain = float(np.dot(weights, F._polar_many(u, m, 1.0, probes, none, scheme=scheme,
                                                sphere=half)))
    seen = []
    engine = F._polar_many
    monkeypatch.setattr(F, "_polar_many",
                        lambda f, mm, p, x, *a, **k: seen.append(len(x)) or
                        engine(f, mm, p, x, *a, **k))
    assert F.energy(u, m, 1.0, scheme) == plain
    assert 0 < seen[-1] < probes.shape[0]
    # a residual skips only where its candidate row is 0 as well
    grad = fields.gradient_candidate(u)
    sub = grad.eval_many(probes)
    plain = float(np.dot(weights, engine(u, m, 1.0, probes, none, subtract=sub,
                                         scheme=scheme)))
    assert F.sobolev_residual(u, m, grad, scheme) == plain
    assert seen[-1] < probes.shape[0]
    ones = fields.VectorField(2, lambda q: np.ones_like(q))
    plain = float(np.dot(weights, engine(u, m, 1.0, probes, none,
                                         subtract=np.ones_like(probes), scheme=scheme)))
    assert F.sobolev_residual(u, m, ones, scheme) == plain
    assert seen[-1] == probes.shape[0]


# ---------------------------------------------------------------------------
# the engine's node layout
# ---------------------------------------------------------------------------

def row_major_polar(field, mollifier, p, probes, breaks, *, subtract=None,
                    omega=None, scheme=F.DEFAULT_SCHEME, sphere=None):
    """The polar densities summed over row-major nodes
    x[:, None, None, :] + r[:, :, None, None] * sigma, in the engine's
    blocks, over the sphere rule the engine is given: the layout the
    engine hands its fields is its only difference."""
    d = field.dimension
    sphere = scheme.sphere(d) if sphere is None else sphere
    sig, ws = sphere.nodes, sphere.weights
    K = sig.shape[0]
    J = breaks.shape[1]
    rules = Q.radial_rules(mollifier, scheme.radial_level,
                           breakpoints=breaks if J else np.empty((1, 0)))
    r_all = rules.nodes
    wr_all = rules.weights * Q.radial_measure(mollifier, rules) / r_all ** p
    if subtract is not None:
        wr_all[r_all < F._REMAINDER_R_FLOOR * rules.r_max] = 0.0
    step = max(1, F._CHUNK // (r_all.shape[1] * K))
    out = np.empty(probes.shape[0])
    for start in range(0, probes.shape[0], step):
        block = slice(start, start + step)
        x = probes[block]
        r, wr = (r_all[block], wr_all[block]) if J else (r_all, wr_all)
        flat = (x[:, None, None, :] + r[:, :, None, None] * sig).reshape(-1, d)
        assert flat.flags.c_contiguous
        diff = (field.eval_many(flat).reshape(x.shape[0], -1, K)
                - field.eval_many(x)[:, None, None])
        if subtract is not None:
            diff = diff - r[:, :, None] * (subtract[block] @ sig.T)[:, None, :]
        if omega is not None:
            diff = np.where(omega.contains(flat).reshape(diff.shape), diff, 0.0)
        inner = (F._abs_power(diff, p).reshape(-1, K) @ ws).reshape(diff.shape[:2])
        out[block] = np.einsum("ij,ij->i", wr, inner)
    return out


def bump_with_gradient(d):
    """exp(-(x - c)^T A (x - c)) with an off-centre c and a non-diagonal
    A, truncated at radius 6, with its exact gradient."""
    c = np.array([0.3, -0.2, 0.1])[:d]
    A = np.array([[1.2, 0.2, 0.1], [0.2, 1.0, -0.1], [0.1, -0.1, 1.1]])[:d, :d]

    def ev(q):
        y = q - c
        return np.exp(-np.einsum("ij,ij->i", y @ A, y))

    def gr(q):
        return -2.0 * ((q - c) @ A) * ev(q)[:, None]
    return fields.AnalyticField(d, ev, gr, support_radius=6.0, label="tilted bump")


def same_up_to_layout(d, a, b):
    # in 2D a row sum over two coordinates rounds alike on either layout;
    # in 3D the evaluator's sum over three columns may group differently
    if d == 2:
        np.testing.assert_array_equal(a, b)
    else:
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)


LAYOUT_SCHEMES = {2: QuadratureScheme(x_resolution=24, sphere_order=16, radial_level=2),
                  3: QuadratureScheme(x_resolution=8, sphere_order=4, radial_level=1)}


@pytest.mark.parametrize("d", [2, 3])
def test_tensor_energies_equal_a_row_major_node_sum(monkeypatch, d):
    u, m, scheme = bump_with_gradient(d), mf.indicator(0.5, d), LAYOUT_SCHEMES[d]
    ones = fields.VectorField(d, lambda q: np.ones_like(q))
    values = lambda: [F.energy(u, m, 1.0, scheme), F.energy(u, m, 1.5, scheme),
                      F.sobolev_residual(u, m, fields.gradient_candidate(u), scheme),
                      F.sobolev_residual(u, m, ones, scheme)]
    ours = values()
    monkeypatch.setattr(F, "_polar_many", row_major_polar)
    same_up_to_layout(d, np.array(ours), np.array(values()))


@pytest.mark.parametrize("d", [2, 3])
def test_density_batches_equal_a_row_major_node_sum(rng, d):
    u, scheme = bump_with_gradient(d), LAYOUT_SCHEMES[d]
    probes = rng.uniform(-0.5, 0.5, size=(100, d))
    none = np.empty((probes.shape[0], 0))
    m = mf.gaussian(64.0, d)
    # a batch larger than a block, so the reused node buffer is refilled
    assert probes.shape[0] * Q.radial_rule(m, scheme.radial_level).nodes.size \
        * scheme.sphere(d).nodes.shape[0] > F._CHUNK
    same_up_to_layout(d, F.pointwise_density(DensityRequest(u, m, 1.0, probes, scheme)),
                      row_major_polar(u, m, 1.0, probes, none, scheme=scheme))
    same_up_to_layout(d, F.remainder_density(DensityRequest(u, m, 2.0, probes, scheme)),
                      row_major_polar(u, m, 2.0, probes, none, scheme=scheme,
                                      subtract=u.gradient_many(probes)))
    # Omega's breakpoints give every probe its own stacked radial row
    omega = fields.ball_set(np.zeros(d), 0.95)
    breaks = omega.difference_breakpoints(probes)
    m = mf.indicator(0.25, d)
    same_up_to_layout(d, F.domain_density(u, m, 1.0, probes, omega, scheme),
                      row_major_polar(u, m, 1.0, probes, breaks, omega=omega,
                                      scheme=scheme))
    box = fields.box_set(-0.9 * np.ones(d), 0.9 * np.ones(d))
    same_up_to_layout(d, F.pointwise_density(DensityRequest(box, m, 1.0, probes, scheme)),
                      row_major_polar(box, m, 1.0, probes,
                                      box.difference_breakpoints(probes), scheme=scheme))


def recording_field(d, calls):
    """exp(-|x|^2) that records the layout of every point batch it gets."""
    def ev(q):
        calls.append((q.shape, q.flags.f_contiguous, q.flags.c_contiguous,
                      q.flags.writeable))
        return np.exp(-np.einsum("ij,ij->i", q, q))
    return fields.AnalyticField(d, ev, support_radius=6.0, label="recording")


@pytest.mark.parametrize("d", [2, 3])
def test_engine_and_sampler_hand_fields_column_major_nodes(d):
    calls = []
    u, scheme = recording_field(d, calls), LAYOUT_SCHEMES[d]
    m = mf.indicator(0.5, d)
    F.energy(u, m, 1.0, scheme)
    # the engine: centres as given (row-major), nodes column-major and
    # read-only, in blocks of at most _CHUNK points
    nodes = [c for c in calls if c[0][0] > scheme.x_res(d) ** d]
    assert nodes and all(shape[1] == d and f and not c and not w
                         for shape, f, c, w in nodes)
    assert all(shape[0] <= F._CHUNK for shape, *_ in nodes)
    # the multiplier route's sampler: column-major slabs whose values
    # equal a row-major evaluation of the same grid
    calls.clear()
    lo, hi = -np.ones(d), np.ones(d)
    n = 256 if d == 2 else 48
    samples = F._midpoint_samples(u, lo, hi, n)
    assert len(calls) > 1 and all(shape[1] == d and f and not c and not w
                                  for shape, f, c, w in calls)
    X, _ = F._midpoint_grid(lo, hi, n)
    same_up_to_layout(d, samples.ravel(), np.exp(-np.einsum("ij,ij->i", X, X)))


# ---------------------------------------------------------------------------
# the tensor route's half sphere rule and the engine's per-block mask
# ---------------------------------------------------------------------------

def full_sphere_energy(u, m, p, scheme):
    """The tensor energy summed over the whole sphere rule at every node
    of the midpoint grid: each pair counted twice."""
    lo, hi = F._x_region(u, m.quadrature_radius())
    probes, weights = F._midpoint_grid(lo, hi, scheme.x_res(u.dimension))
    none = np.empty((probes.shape[0], 0))
    return float(np.dot(weights, F._polar_many(u, m, p, probes, none, scheme=scheme)))


@pytest.mark.parametrize("d", [2, 3])
def test_half_sphere_rule_is_half_the_nodes_with_the_same_mass(d):
    for order in ((8, 16, 64) if d == 2 else (4, 7, 32)):
        full = Q.sphere_rule(d, order)
        half = F._upper_half(full)
        assert 2 * half.nodes.shape[0] == full.nodes.shape[0]
        assert np.all(half.nodes[:, -1] > 0.0)
        assert half.weights.sum() == pytest.approx(full.weights.sum(), rel=1e-14)


@pytest.mark.parametrize("d,p", [(2, 1.0), (2, 1.5), (3, 1.0)])
def test_half_rule_equals_the_full_sphere_sum_on_an_even_field(d, p):
    # u(-x) = u(x) and the grid is symmetric, so F(x, -sigma) = F(-x, sigma):
    # the two halves of the full sum agree up to rounding
    u, m, scheme = fields.gaussian_bump(d), mf.indicator(0.5, d), LAYOUT_SCHEMES[d]
    assert F.energy_route(u, p, m) == "tensor"
    assert F.energy(u, m, p, scheme) == pytest.approx(
        full_sphere_energy(u, m, p, scheme), rel=1e-14, abs=0)


# full_sphere_energy(bump_with_gradient(2), m, p, scheme) at x_resolution
# 384, sphere_order 16, radial_level 2: the limit both x-rules converge to
UNEVEN_REFERENCES = {
    ("indicator", 1.0): 21.617450522792097, ("indicator", 1.5): 13.957179920857978,
    ("gaussian", 1.0): 21.58628588077925, ("gaussian", 1.5): 13.91682511091549,
    ("power_law", 1.0): 20.88357083131982, ("power_law", 1.5): 13.036240823985915,
}
UNEVEN_KERNELS = {"indicator": mf.indicator(2.0 ** -3, 2), "gaussian": mf.gaussian(64.0, 2),
                  "power_law": mf.power_law(0.3, 2)}


@pytest.mark.parametrize("kernel,p", sorted(UNEVEN_REFERENCES))
def test_half_rule_converges_with_the_full_rule_on_an_uneven_field(kernel, p):
    # the tilted bump is not even, so the half rule is another midpoint
    # x-rule of the same integral, not the full rule's sum.  Both errors
    # oscillate in sign, so their ratio at one resolution swings (0.06 at
    # 48 to 20 at 96 with the power law); their envelopes over 48 and 96
    # do not: the half rule's is 0.1 to 4.7 times the full rule's
    # (4.7: the gaussian at p = 1.5, 5.8e-5 against 1.2e-5 at 48)
    u, m = bump_with_gradient(2), UNEVEN_KERNELS[kernel]
    scheme = lambda n: QuadratureScheme(x_resolution=n, sphere_order=16, radial_level=2)
    ref = UNEVEN_REFERENCES[kernel, p]
    half = [abs(F.energy(u, m, p, scheme(n)) - ref) for n in (48, 96)]
    full = [abs(full_sphere_energy(u, m, p, scheme(n)) - ref) for n in (48, 96)]
    assert max(half) <= 5.0 * max(full)
    # at 96 the half rule is within 1e-5 of the fine full-rule value
    assert half[-1] < 1e-5 * ref


def leaky_field(d):
    """A field whose evaluator is nonzero everywhere, truncated at radius 1
    only by the support mask, with its gradient."""
    c = np.array([0.2, -0.1, 0.05])[:d]

    def ev(q):
        return 0.5 + np.exp(-np.einsum("ij,ij->i", q - c, q - c))

    def gr(q):
        return -2.0 * (q - c) * np.exp(-np.einsum("ij,ij->i", q - c, q - c))[:, None]
    return fields.AnalyticField(d, ev, gr, support_radius=1.0, label="leaky")


def test_per_block_mask_matches_the_masking_reference_bit_for_bit(monkeypatch, rng):
    u, m = leaky_field(2), mf.indicator(0.25, 2)
    scheme = QuadratureScheme(x_resolution=24, sphere_order=16, radial_level=2)
    # probes inside R - r_max, in the band R -+ r_max, and beyond it
    radii = np.concatenate([rng.uniform(0.0, 0.7, 40), rng.uniform(0.8, 1.2, 40),
                            rng.uniform(1.3, 1.6, 40)])
    angle = rng.uniform(0.0, 2.0 * np.pi, radii.size)
    probes = radii[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    none = np.empty((probes.shape[0], 0))
    unmasked = []
    eval_many = fields.AnalyticField.eval_many

    def recording(self, pts, **kw):
        unmasked.append(kw.get("_unmasked", False))
        return eval_many(self, pts, **kw)
    monkeypatch.setattr(fields.AnalyticField, "eval_many", recording)
    for probe_set in (probes[:40], probes[40:80], probes[80:], probes):
        np.testing.assert_array_equal(
            F.pointwise_density(DensityRequest(u, m, 1.0, probe_set, scheme)),
            row_major_polar(u, m, 1.0, probe_set, none[:len(probe_set)], scheme=scheme))
        np.testing.assert_array_equal(
            F.remainder_density(DensityRequest(u, m, 1.5, probe_set, scheme)),
            row_major_polar(u, m, 1.5, probe_set, none[:len(probe_set)], scheme=scheme,
                            subtract=u.gradient_many(probe_set)))
    ones = fields.VectorField(2, lambda q: np.ones_like(q))
    values = lambda: [F.energy(u, m, 1.0, scheme), F.energy(u, m, 1.5, scheme),
                      F.sobolev_residual(u, m, fields.gradient_candidate(u), scheme),
                      F.sobolev_residual(u, m, ones, scheme)]
    ours = values()
    # both kinds of block were taken
    assert True in unmasked and False in unmasked
    monkeypatch.setattr(F, "_polar_many", row_major_polar)
    np.testing.assert_array_equal(ours, values())


def test_engine_never_writes_into_what_a_field_returns():
    def frozen(q):
        v = np.exp(-np.einsum("ij,ij->i", q, q))
        v.flags.writeable = False
        return v

    def grad(q):
        return -2.0 * q * np.exp(-np.einsum("ij,ij->i", q, q))[:, None]
    m = mf.indicator(0.25, 2)
    scheme = QuadratureScheme(x_resolution=16, sphere_order=16, radial_level=2)
    probes = np.random.default_rng(5).uniform(-0.5, 0.5, size=(80, 2))
    omega = fields.ball_set(np.zeros(2), 0.95)
    ones = fields.VectorField(2, lambda q: np.ones_like(q))

    def engine_values(ev):
        f = fields.AnalyticField(2, ev, grad, support_radius=6.0)
        # a lone probe, a batch of several blocks, a remainder, stacked
        # rows, an energy on the half rule and a residual
        return [F.pointwise_density(DensityRequest(f, m, 1.0, probes[0], scheme)),
                *F.pointwise_density(DensityRequest(f, m, 3.0, probes, scheme)),
                *F.remainder_density(DensityRequest(f, m, 1.5, probes, scheme)),
                *F.domain_density(f, m, 2.0, probes, omega, scheme),
                F.energy(f, m, 1.0, scheme), F.sobolev_residual(f, m, ones, scheme)]
    np.testing.assert_array_equal(engine_values(frozen),
                                  engine_values(lambda q: frozen(q).copy()))
