import math

import numpy as np
import pytest
from scipy.integrate import quad

from bbmlab import constants, fields, functionals as F, maximal as MX
from bbmlab import mollifiers as mf, perimeter as P, quadrature as Q
from bbmlab.errors import (DimensionError, DomainError, EvaluationError,
                           ProbeError, ValidityError)
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
    assert a == pytest.approx(b, rel=1e-9)


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
# the batched polar engine
# ---------------------------------------------------------------------------

def bv_two_jumps():
    smooth = fields.AnalyticField(
        1, lambda q: 0.5 * np.exp(-q[:, 0] ** 2),
        lambda q: -q * np.exp(-q[:, 0] ** 2)[:, None], support_radius=6.0)
    return fields.BVField1D(smooth, [(-0.3, 1.2), (0.4, -0.8)])


def axis_nodes(field, m):
    """The x-rule of a 1D energy, rebuilt from its documented recipe."""
    r_max = m.quadrature_radius()
    lo, hi = field.support_box()
    sing = np.asarray(field.singular_points(), dtype=float)
    return Q.axis_rule(lo[0] - r_max, hi[0] + r_max,
                       np.concatenate([sing, sing - r_max, sing + r_max]))


@pytest.mark.parametrize("case", ["step-indicator", "interval-gaussian",
                                  "step-powerlaw", "bv-residual"])
def test_batched_1d_energy_equals_sum_of_densities(case):
    if case == "step-indicator":
        u, m, p = fields.step_field(-0.2, 0.7), mf.indicator(2.0**-6, 1), 1.0
    elif case == "interval-gaussian":
        u, m, p = fields.interval_set(-0.3, 0.6), mf.gaussian(256.0, 1), 1.0
    elif case == "step-powerlaw":
        # finite below p = delta + d = 1.3
        u, m, p = fields.step_field(), mf.power_law(0.3, 1), 1.2
    else:
        u, m, p = bv_two_jumps(), mf.indicator(2.0**-7, 1), 1.0
    nodes, w = axis_nodes(u, m)
    if case == "bv-residual":
        # the candidate is the field's own (absolutely continuous) gradient
        value = F.sobolev_residual(u, m, fields.gradient_candidate(u))
        dens = [remainder(u, m, p, [x]) for x in nodes]
    elif case == "interval-gaussian":
        # an interval's energy takes the covariogram route; this pins the
        # axis rule it would take otherwise
        value = F._integrate_density_over_x(u, m, p)
        dens = [density(u, m, p, [x]) for x in nodes]
    else:
        value = F.energy(u, m, p)
        dens = [density(u, m, p, [x]) for x in nodes]
    reference = math.fsum(wi * di for wi, di in zip(w, dens))
    assert value == pytest.approx(reference, rel=1e-13, abs=0)


def test_batch_spanning_blocks_matches_single_probes(rng):
    u = bv_two_jumps()
    m = mf.indicator(0.25, 1)
    probes = np.sort(rng.uniform(-0.6, 0.7, size=150)).reshape(-1, 1)
    per_probe = Q.radial_rule_size(None, 2) * 2
    assert probes.shape[0] > 3 * (F._CHUNK // per_probe)   # several blocks
    breaks = u.difference_breakpoints(probes)
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
    assert F.energy(u, m, 2.0, scheme) == pytest.approx(reference, rel=1e-13, abs=0)


def test_tensor_energies_keep_their_values():
    # values of the per-radius tensor route these energies ran on before
    # they moved onto the batched engine
    def scheme(n, order=None, level=None):
        return QuadratureScheme(x_resolution=n, sphere_order=order,
                                radial_level=level)

    bump2 = fields.gaussian_bump(2)
    cases = [
        (F.energy(bump2, mf.indicator(0.125, 2), 2.0, scheme(24)),
         9.850364923299269),
        # the disk's energy takes the covariogram route; this pins its
        # tensor route, which stays the cross-check
        (F._integrate_density_over_x(fields.ball_set([0.0, 0.0], 1.0),
                                     mf.gaussian(256.0, 2), 1.0,
                                     scheme=scheme(96, 32, 2))
         / constants.gamma(2, 1), 6.260227517518683),
        (F.energy(fields.gaussian_bump(3), mf.indicator(0.25, 3), 2.0,
                  scheme(16, 4, 2)), 24.666819988052385),
        (F.sobolev_residual(bump2, mf.indicator(2.0**-6, 2),
                            fields.gradient_candidate(bump2), scheme(48, 32, 2)),
         0.1991460241318774),
    ]
    for value, pinned in cases:
        assert value == pytest.approx(pinned, rel=1e-12, abs=0)


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
    # the BV axis route for step_field at p = 1.2 with power_law(0.3, 1)
    assert math.isfinite(F.energy(fields.step_field(), mf.power_law(0.3, 1), 1.2))
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
        msg = str(err.value)
        assert repr(bad) in msg and "r=" in msg and "sigma=" in msg \
            and "centre=" in msg


def test_1d_energy_refuses_infinite_integrand():
    with pytest.raises(EvaluationError):
        F.energy(infinite_spot(1, 3.0), mf.indicator(0.25, 1), 2.0)


def test_2d_energy_refuses_infinite_integrand():
    scheme = QuadratureScheme(sphere_order=8, radial_level=1, x_resolution=32)
    with pytest.raises(EvaluationError) as err:
        F.energy(infinite_spot(2, 2.0), mf.indicator(0.25, 2), 1.0, scheme)
    assert "centre=" in str(err.value)


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
