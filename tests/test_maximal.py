import math

import numpy as np
import pytest

from bbmlab import fields, maximal as MX
from bbmlab.errors import DimensionError, DomainError, ValidityError

# frozen empirical kernel-lemma constants (first calibration: constant
# fields are extremal at 2 and 2*pi; seeded sweeps stay below)
KERNEL_CONSTANT = {1: 2.05, 2: 1.02 * 2 * math.pi}


def interval_indicator_grid(L=4.0, n=4096):
    return fields.GridField.from_function(
        lambda p: ((p[:, 0] >= 0) & (p[:, 0] <= 1)).astype(float), 1, L, n)


def brute_force_interval_maximal(x, radii=200000, R=8.0):
    """Independent oracle: dense radius sweep with exact interval lengths."""
    s = np.linspace(1e-6, R, radii)
    covered = np.clip(np.minimum(x + s, 1.0) - np.maximum(x - s, 0.0), 0.0, None)
    return float(np.max(covered / (2 * s)))


def mask_oracle_maximal(f, x, R):
    """Independent oracle: for each node distance up to R, the average of
    |f| over every lattice point within it (ties taken by <=), normalized
    by the lattice count; the largest such average."""
    d, L, h, n = f.dimension, f.half_width, f.spacing, f.resolution
    span = np.arange(-2 * n - 2, 3 * n + 2)   # every point within 2L*sqrt(2)
    idx = np.stack([a.ravel() for a in np.meshgrid(*([span] * d), indexing="ij")], -1)
    dist = np.linalg.norm(-L + h * idx - np.asarray(x, dtype=float), axis=1)
    inside = np.all((idx >= 0) & (idx < n), axis=1)
    vals = np.zeros(dist.size)
    vals[inside] = np.abs(f.values[tuple(idx[inside].T)])
    best = 0.0
    for radius in np.unique(dist[inside]):
        if radius <= R:
            mask = dist <= radius
            best = max(best, vals[mask].sum() / np.count_nonzero(mask))
    return best


@pytest.mark.parametrize("d,n,probes", [(1, 256, 40), (2, 32, 40)])
def test_maximal_function_is_the_exact_sup(d, n, probes):
    # half the nodes zero: the sup sits at isolated node distances that
    # a radius grid can step over
    rng = np.random.default_rng(0)
    v = rng.uniform(0, 1, size=(n,) * d)
    v[rng.uniform(size=v.shape) < 0.5] = 0.0
    f = fields.GridField(d, 2.0, v)
    for x in rng.uniform(-2.0, 2.0, size=(probes, d)):
        for R in (math.inf, 0.4):
            assert MX.maximal_function(f, x, R) == pytest.approx(
                mask_oracle_maximal(f, x, R), rel=0, abs=1e-15)


@pytest.mark.parametrize("d,n", [(1, 100), (1, 300), (2, 30)])
def test_maximal_symmetric_points_enter_the_ball_together(d, n):
    # h = 3/n is not dyadic, so the computed distances of points mirrored
    # about a node probe differ in their last bits; mass on one neighbour
    # must read 1/3 (1/5 in 2D), not the 1/2 of a ball taking in only it
    nodes = fields.GridField(d, 1.5, np.zeros((n,) * d)).axis_nodes()
    for j in range(2, n - 2):
        v = np.zeros((n,) * d)
        v[(j - 1,) + (j,) * (d - 1)] = 1.0
        val = MX.maximal_function(fields.GridField(d, 1.5, v), [nodes[j]] * d)
        assert val == pytest.approx(1.0 / (2 * d + 1), rel=1e-14, abs=0)


def test_maximal_interval_indicator_far_probe():
    f = interval_indicator_grid()
    val = MX.maximal_function(f, [2.0])
    assert val == pytest.approx(0.25, abs=1e-3)
    assert val == pytest.approx(brute_force_interval_maximal(2.0), abs=1e-3)
    # the ball B(2, 2) holds the 513 nodes of [0, 1] among 2049 lattice points
    assert val == 513 / 2049


def test_maximal_constant_field():
    f = fields.GridField.from_function(lambda p: np.full(p.shape[0], -2.5),
                                       1, 2.0, 512)
    assert MX.maximal_function(f, [0.3]) == pytest.approx(2.5, abs=1e-12)


def test_maximal_radius_cap_below_every_node_is_zero():
    # no lattice point within R: the sup over s <= R sees empty balls
    f = fields.GridField(1, 2.0, np.ones(32))
    assert MX.maximal_function(f, [0.01], R=1e-6) == 0.0
    assert MX.maximal_function(f, [0.01], R=0.01) == 1.0


def test_maximal_inside_support_is_one():
    f = interval_indicator_grid()
    assert MX.maximal_function(f, [0.5]) == pytest.approx(1.0, abs=1e-6)


def test_maximal_dominates_field_at_nodes(rng):
    f = fields.GridField(1, 2.0, rng.uniform(0, 1, size=256))
    nodes = f.axis_nodes()
    for i in rng.integers(0, 256, size=10):
        assert MX.maximal_function(f, [nodes[i]]) >= abs(f.values[i]) - 1e-12


def test_maximal_sublinear(rng):
    a = rng.uniform(0, 1, size=128)
    b = rng.uniform(0, 1, size=128)
    fa = fields.GridField(1, 2.0, a)
    fb = fields.GridField(1, 2.0, b)
    fab = fields.GridField(1, 2.0, a + b)
    for x in rng.uniform(-1.5, 1.5, size=5):
        assert MX.maximal_function(fab, [x]) <= \
            MX.maximal_function(fa, [x]) + MX.maximal_function(fb, [x]) + 1e-10


def test_maximal_probe_outside_box():
    f = interval_indicator_grid()
    with pytest.raises(ValidityError):
        MX.maximal_function(f, [5.0])


# ---------------------------------------------------------------------------
# weak (1,1)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, math.inf])
def test_weak11_refuses_a_level_that_is_not_positive_and_finite(eps):
    with pytest.raises(DomainError):
        MX.weak11_check(interval_indicator_grid(n=64), [0.5, eps])


@pytest.mark.parametrize("n", [512, 1024, 2048, 4096])
def test_weak11_interval_closed_form_level_set(n):
    # M(1_[0,1])(x) = 1/(2(1+dist)) outside, so {M > 1/4} = (-1, 2) with
    # measure 3.  On the lattice the 1/h + 1 nodes of [0, 1] give a node
    # k steps outside the average (1/h + 1)/(2(k + 1/h) + 1), above 1/4
    # for k <= 1/h + 1: 3/h + 3 nodes, so refining never lowers the set
    f = interval_indicator_grid(n=n)
    h = f.spacing
    rows = MX.weak11_check(f, [0.25])
    eps, measure, bound = rows[0]
    assert measure == 3.0 + 3.0 * h
    assert bound == pytest.approx(12.0 * f.l1_norm() / 1.0, rel=1e-12)
    assert measure <= bound


def _two_spikes():
    v = np.zeros((32, 32))
    v[3, 5], v[20, 25] = 7.0, 2.0
    return fields.GridField(2, 2.0, v)


def _half_zero(d, n, L=2.0):
    rng = np.random.default_rng(5)
    v = rng.uniform(0, 1, size=(n,) * d)
    v[rng.uniform(size=v.shape) < 0.5] = 0.0
    return fields.GridField(d, L, v)


@pytest.mark.parametrize("f", [
    fields.GridField(1, 2.0, np.random.default_rng(4).uniform(0, 1, size=256)),
    _half_zero(2, 32),
    _two_spikes(),
    # a spacing that is not dyadic rounds mirrored distances apart
    _half_zero(1, 97, L=0.7),
    _half_zero(2, 23, L=1.3),
], ids=["uniform-1d", "half-zero-2d", "two-spikes-2d", "half-zero-1d-odd-h",
        "half-zero-2d-odd-h"])
def test_maximal_field_is_maximal_function_at_every_node(f):
    mf = MX.maximal_field(f)
    nodes = f.axis_nodes()
    for idx in np.ndindex(*f.values.shape):
        assert mf.values[idx] == MX.maximal_function(f, [nodes[i] for i in idx])


def test_maximal_field_refuses_3d():
    with pytest.raises(DimensionError):
        MX.maximal_field(fields.GridField(3, 1.0, np.ones((4, 4, 4))))


def test_weak11_level_above_sup_is_empty():
    f = interval_indicator_grid(n=1024)
    rows = MX.weak11_check(f, [1.5])
    assert rows[0][1] == 0.0


def test_weak11_seeded_fields_1d(rng):
    for _ in range(20):
        f = fields.GridField(1, 2.0, rng.uniform(0, 1, size=256))
        for eps, measure, bound in MX.weak11_check(f, [0.25, 0.5, 0.75, 1.0]):
            assert measure <= bound


def test_weak11_seeded_fields_2d(rng):
    for _ in range(4):
        f = fields.GridField(2, 2.0, rng.uniform(0, 1, size=(64, 64)))
        for eps, measure, bound in MX.weak11_check(f, [0.3, 0.6, 0.9]):
            assert measure <= bound


def test_weak11_spiky_fields(rng):
    # sparse spikes stress the bound much harder than uniform noise
    for _ in range(10):
        vals = np.zeros(512)
        idx = rng.integers(0, 512, size=3)
        vals[idx] = rng.uniform(5, 50, size=3)
        f = fields.GridField(1, 2.0, vals)
        for eps, measure, bound in MX.weak11_check(f, [0.05, 0.1, 0.5]):
            assert measure <= bound


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def test_measure_maximal_single_atom():
    mu = MX.RadonMeasure1D(atoms=((0.0, 1.0),))
    # sup_s 1/(2s) over s > 0.1 is 5, attained as s -> 0.1+
    assert MX.measure_maximal(mu, 0.1) == pytest.approx(5.0, rel=1e-14, abs=0)
    assert MX.measure_maximal(mu, 0.3) == pytest.approx(5.0 / 3.0, rel=1e-14, abs=0)


def test_measure_maximal_cell_density_is_one():
    # density 1 on the cell (0, h) and tapering to 0 on its neighbours:
    # balls inside the cell have ratio 1, reached only for s <= 0.1 h
    vals = np.zeros(16)
    vals[8] = vals[9] = 1.0
    dens = fields.GridField(1, 1.0, vals)
    mu = MX.RadonMeasure1D(density=dens)
    assert MX.measure_maximal(mu, 0.1 * dens.spacing) == pytest.approx(1.0, rel=1e-14, abs=0)


def test_measure_maximal_zero_and_center_atom():
    assert MX.measure_maximal(MX.RadonMeasure1D(), 0.3) == 0.0
    mu = MX.RadonMeasure1D(atoms=((0.0, 1.0),))
    assert MX.measure_maximal(mu, 0.0) == math.inf


def test_measure_maximal_uniform_density_is_one():
    dens = fields.GridField.from_function(lambda p: np.ones(p.shape[0]),
                                          1, 2.0, 1024)
    mu = MX.RadonMeasure1D(density=dens)
    assert MX.measure_maximal(mu, 0.0) == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# directional maximal
# ---------------------------------------------------------------------------

def test_directional_constant_gradient():
    u = fields.linear_field([2.0, 1.0])
    val = MX.directional_maximal(u, [0.6, 0.8], [0.0, 0.0], 1.0)
    assert val == pytest.approx(abs(0.6 * 2 + 0.8 * 1), rel=1e-12)


def test_directional_quadratic_analytic_average():
    # (1/r) int_0^r 2(1+s) ds = 2 + r, increasing: sup is 3 at r = R = 1
    u = fields.AnalyticField(1, lambda q: q[:, 0] ** 2, lambda q: 2 * q)
    assert MX.directional_maximal(u, [1.0], [1.0], 1.0) == pytest.approx(3.0, rel=1e-9)


def test_directional_outside_support_is_zero():
    u = fields.AnalyticField(1, lambda q: np.exp(-q[:, 0] ** 2),
                             lambda q: -2 * q * np.exp(-q[:, 0] ** 2)[:, None],
                             support_radius=1.0)
    assert MX.directional_maximal(u, [1.0], [2.0], 1.0) == 0.0


def test_directional_segment_must_stay_in_box(rng):
    g = fields.GridField(1, 1.0, rng.uniform(0, 1, size=64))
    with pytest.raises(ValidityError):
        MX.directional_maximal(g, [1.0], [0.5], 1.0)


# ---------------------------------------------------------------------------
# kernel bounds
# ---------------------------------------------------------------------------

def test_kernel_bound_constant_field_1d():
    f = fields.GridField.from_function(lambda p: np.ones(p.shape[0]), 1, 2.0, 1024)
    lhs, rhs, ratio = MX.kernel_bound_check(f, [0.0], 0.5)
    assert lhs == pytest.approx(1.0, rel=1e-9)       # 2r
    assert rhs == pytest.approx(0.5, rel=1e-9)       # r * M
    assert ratio == pytest.approx(2.0, rel=1e-9)


def test_kernel_bound_interval_case():
    f = interval_indicator_grid()
    lhs, rhs, ratio = MX.kernel_bound_check(f, [0.5], 0.25)
    assert lhs == pytest.approx(0.5, abs=1e-6)
    assert rhs == pytest.approx(0.25, abs=1e-6)
    assert ratio == pytest.approx(2.0, abs=1e-4)


@pytest.mark.parametrize("d,count,res", [(1, 25, 512), (2, 10, 96)])
def test_kernel_bound_frozen_constant_sweep(d, count, res, rng):
    C = KERNEL_CONSTANT[d]
    for _ in range(count):
        f = fields.GridField(d, 2.0, rng.uniform(0, 1, size=(res,) * d))
        x = rng.uniform(-1.0, 1.0, size=d)
        r = rng.uniform(0.2, 0.8)
        lhs, rhs, ratio = MX.kernel_bound_check(f, x, r)
        assert ratio <= C


# ---------------------------------------------------------------------------
# singular kernel bound
# ---------------------------------------------------------------------------

def test_singular_kernel_trivial_in_1d():
    dens = fields.GridField.from_function(lambda p: np.ones(p.shape[0]),
                                          1, 2.0, 2048)
    lhs, rhs = MX.singular_kernel_bound(MX.RadonMeasure1D(density=dens), 0.0, 1.0)
    assert lhs == pytest.approx(2.0, rel=1e-9)
    assert rhs == pytest.approx(1.0, rel=1e-9)


def test_singular_kernel_disk_center():
    disk = fields.GridField.from_function(
        lambda p: (np.linalg.norm(p, axis=1) <= 1).astype(float), 2, 2.0, 256)
    lhs, rhs = MX.singular_kernel_bound(disk, [0.0, 0.0], 0.5)
    assert lhs == pytest.approx(2 * math.pi, rel=1e-9)
    assert rhs == pytest.approx(1.0, rel=1e-9)


def test_singular_kernel_atom_cases():
    mu = MX.RadonMeasure1D(atoms=((0.3, 2.0),))
    lhs, rhs = MX.singular_kernel_bound(mu, 0.0, 1.0)
    assert lhs == pytest.approx(2.0)
    assert math.isfinite(lhs) and lhs <= 2.0 * rhs / (2 * 0.3 / 1.0)
    assert MX.singular_kernel_bound(mu, 0.3, 1.0) == (math.inf, math.inf)


def test_singular_kernel_dyadic_shell_consistency():
    # the dyadic-shell argument bounds lhs by sum_m 2^-m * (shell mass
    # ratio); for the uniform disk the exact lhs/rhs ratio is 2 pi at the
    # center and must stay below 4 pi anywhere
    disk = fields.GridField.from_function(
        lambda p: (np.linalg.norm(p, axis=1) <= 1).astype(float), 2, 2.0, 256)
    for x in ([0.2, 0.1], [0.5, -0.3]):
        lhs, rhs = MX.singular_kernel_bound(disk, x, 0.4)
        assert lhs <= 4 * math.pi * rhs + 1e-9


def test_singular_kernel_matches_dyadic_shell_sum():
    # rebuilding lhs shell by shell over B(x, 2^-m r) \ B(x, 2^-(m+1) r)
    # must telescope back to the full kernel integral
    disk = fields.GridField.from_function(
        lambda p: (np.linalg.norm(p, axis=1) <= 1).astype(float), 2, 2.0, 256)
    x, r = np.array([0.3, -0.1]), 0.4
    lhs, _ = MX.singular_kernel_bound(disk, x, r)
    theta = 2 * np.pi * (np.arange(256) + 0.5) / 256
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    total = 0.0
    for m_exp in range(40):
        hi, lo = r * 2.0**-m_exp, r * 2.0 ** -(m_exp + 1)
        s = np.linspace(lo, hi, 65)
        pts = x[None, None, :] + s[:, None, None] * ring[None, :, :]
        vals = disk.eval_many(pts.reshape(-1, 2)).reshape(s.size, 256)
        rings = vals.sum(axis=1) * (2 * np.pi / 256)   # |y-x|^(1-d) * s^(d-1) = 1
        total += float(np.trapezoid(rings, s))
    assert total / r == pytest.approx(lhs, rel=1e-3)
