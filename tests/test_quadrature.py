import inspect
import math

import numpy as np
import pytest

from bbmlab import constants, fields, functionals as F, mollifiers as mf, quadrature as Q
from bbmlab.errors import IntegrationError

SPHERE_AREAS = {1: 2.0, 2: 2 * math.pi, 3: 4 * math.pi}


def test_gauss_legendre_rules_are_exact_to_degree_2q_minus_1():
    for q in range(2, 65):
        x, w = Q._gl(q)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        # exactly symmetric, since it is mirrored from its nonnegative half
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.sum(w) == pytest.approx(2.0, abs=1e-14)
        for k in range(2 * q):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert float(np.dot(w, x ** k)) == pytest.approx(exact, abs=1e-14), (q, k)


def test_gauss_legendre_rules_match_scipy():
    from scipy.special import roots_legendre
    for q in range(2, 65):
        x, w = Q._gl(q)
        xs, ws = roots_legendre(q)
        np.testing.assert_allclose(x, xs, rtol=0, atol=1e-12, err_msg=f"q={q}")
        np.testing.assert_allclose(w, ws, rtol=0, atol=1e-12, err_msg=f"q={q}")


def jacobi_moment(left, right, k):
    """int (1 + x)^(left + k) (1 - x)^right dx on [-1, 1]: 2^(left + k +
    right + 1) B(left + k + 1, right + 1), 2^(left+k+1) / (left+k+1) at
    right = 0."""
    a, b = left + k + 1.0, right + 1.0
    return 2.0 ** (a + b - 1.0) * math.gamma(a) * math.gamma(b) / math.gamma(a + b)


# the weights in use: (delta + d - 2, 0) for the power law's first radial
# panel, and (p, 0), (0, p), (p, p) for the sliced route's pieces
RADIAL_PAIRS = [(delta + d - 2.0, 0.0) for delta in (0.1, 0.2, 0.3, 0.5, 0.9)
                for d in (1, 2, 3)]
SLICED_PAIRS = [pair for p in (1.2, 1.5, 2.5) for pair in ((p, 0.0), (0.0, p), (p, p))]


@pytest.mark.parametrize("q,pairs,rtol", [(8, RADIAL_PAIRS + SLICED_PAIRS, 1e-14),
                                          (24, SLICED_PAIRS, 4e-14)],
                         ids=["radial-8", "sliced-24"])
def test_gauss_jacobi_integrates_its_moments(q, pairs, rtol):
    # exact for the weight times a polynomial of degree < 2q; at 24 nodes
    # a degree-47 moment carries ~47 ulp of each node's rounding
    for left, right in pairs:
        x, w = Q.gauss_jacobi(q, left, right)
        assert np.all(np.diff(x) > 0) and np.all(w > 0) and abs(x).max() < 1.0
        for k in range(2 * q):
            got = float(np.dot(w * (1.0 + x) ** left * (1.0 - x) ** right, (1.0 + x) ** k))
            assert got == pytest.approx(jacobi_moment(left, right, k), rel=rtol, abs=0), \
                (left, right, k)


def test_gauss_jacobi_is_shared_read_only_and_legendre_at_zero():
    x, w = Q.gauss_jacobi(8, 0.3, 0.0)
    assert Q.gauss_jacobi(8, 0.3, 0.0)[0] is x
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert Q.gauss_jacobi(8, 0.0, 0.0) is Q._gl(8)
    # the symmetric weight gives a symmetric rule
    x, w = Q.gauss_jacobi(24, 1.5, 1.5)
    np.testing.assert_allclose(x, -x[::-1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, w[::-1], rtol=1e-13, atol=0)


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


def test_sphere_d2_refuses_orders_that_alias_another():
    # four panels of order/4 nodes: any other order would round up and
    # build the same rule as the next multiple of 4
    built = []
    for order in range(1, 13):
        for make in (lambda: Q.sphere_rule(2, order),
                     lambda: Q.sphere_rule_aligned(2, order, np.array([1.0, 1.0]))):
            try:
                rule = make()
            except IntegrationError:
                continue
            assert rule.weights.size == order
            built.append(order)
    assert built == [8, 8, 12, 12]


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


def test_powerlaw_level_0_rule_integrates_the_mass_exactly():
    # a level-0 row is one panel of Gauss-Jacobi in the kernel's own
    # weight r^(delta+d-2), so it integrates the mass exactly
    for d in (1, 2, 3):
        m = mf.power_law(0.1, d)
        rule = Q.radial_rule(m, 0)
        mass = float(np.dot(rule.weights, Q.radial_measure(m, rule)))
        assert mass == pytest.approx(1.0, abs=1e-14)


def test_powerlaw_rows_integrate_the_mass_at_every_level():
    # the first two base panels are one of 16 Gauss-Jacobi nodes, so the
    # first Legendre panel lies two of its widths from the weight's
    # singularity at 0, where 8 nodes leave ~1e-16 of its mass
    for d in (1, 2, 3):
        for delta in (0.01, 0.1, 0.3, 0.9):
            m = mf.power_law(delta, d)
            for level in range(Q.MAX_RADIAL_LEVEL + 1):
                row = Q.kernel_radial_rule(m, level)
                assert row.nodes.size == 8 * 2 ** level
                assert row.weights.sum() == pytest.approx(1.0, abs=1e-14), (d, delta, level)


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


def test_radial_rules_grade_down_to_a_breakpoint_at_any_depth():
    m = mf.indicator(0.5, 1)
    # 0.5 * 2^-j >= 1e-16 for j = 1..52; j = 1, 2 are base edges
    rule = Q.radial_rule(m, 2, breakpoints=(0.3, 1e-16))
    assert rule.nodes.size == (4 + 50 + 2) * Q.RADIAL_NODES_PER_PANEL
    assert np.sum(rule.nodes < 1e-16) == Q.RADIAL_NODES_PER_PANEL
    assert np.sum(rule.weights) == pytest.approx(0.5, rel=1e-14)
    # in a batch, each row grades only down to its own nearest breakpoint
    rules = Q.radial_rules(m, 2, breakpoints=np.array([[0.3, 1e-16], [0.3, 0.01]]))
    one = Q.radial_rule(m, 2, breakpoints=(0.3, 0.01))
    assert np.array_equal(rules.nodes[0], rule.nodes)
    assert np.array_equal(rules.nodes[1, :one.nodes.size], one.nodes)
    assert np.all(rules.weights[1, one.nodes.size:] == 0.0)


def test_axis_rule_drops_rounding_slivers():
    # a graded edge meeting a base edge up to rounding used to leave a
    # ~1e-16-wide panel, so the node count hung on the last bit of hi
    r = mf.gaussian(64.0, 1).quadrature_radius()
    counts = {Q.axis_rule(-(6 + h), 6 + h)[0].size
              for h in (r, r * (1 + 3.5e-15), r * (1 - 3.5e-15))}
    assert len(counts) == 1
    edges = Q.graded_edges(-(6 + r), 6 + r)
    assert np.min(np.diff(edges)) > 1e-12


@pytest.mark.parametrize("level", [-1, 13, 32])
def test_radial_rule_refuses_levels_outside_0_to_max(level):
    with pytest.raises(IntegrationError):
        Q.radial_rule(mf.indicator(0.25, 2), level)


# ---------------------------------------------------------------------------
# shared rules
# ---------------------------------------------------------------------------

FAMILIES = {"indicator": lambda d: mf.indicator(0.25, d),
            "gaussian": lambda d: mf.gaussian(64.0, d),
            "powerlaw": lambda d: mf.power_law(0.3, d)}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("order", [None, 8, 16])
def test_shared_sphere_rule_is_a_fresh_build_bit_for_bit(d, order):
    rule = Q.sphere_rule(d, order)
    assert Q.sphere_rule(d, order) is rule
    fresh = Q._build_sphere_rule(d, Q.DEFAULT_SPHERE_ORDER[d] if order is None else order)
    assert np.array_equal(rule.nodes, fresh.nodes)
    assert np.array_equal(rule.weights, fresh.weights)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("level", [0, 4, Q.MAX_RADIAL_LEVEL])
def test_shared_kernel_row_is_a_fresh_build_bit_for_bit(d, family, level):
    m = FAMILIES[family](d)
    row = Q.kernel_radial_rule(m, level)
    # no breakpoints, or an empty row of them per probe, is the shared row
    assert Q.kernel_radial_rule(m, level, breakpoints=np.empty((3, 0))) is row
    if level == Q.DEFAULT_RADIAL_LEVEL:
        assert Q.kernel_radial_rule(m) is row
    fresh = Q.radial_rule(m, level)
    assert row.nodes.shape == (Q.RADIAL_NODES_PER_PANEL * 2 ** level,)
    assert row.r_max == fresh.r_max
    assert np.array_equal(row.nodes, fresh.nodes)
    assert np.array_equal(row.weights, fresh.weights * Q.radial_measure(m, fresh))


def test_kernel_rules_with_breakpoints_are_built_per_call():
    m = mf.indicator(0.25, 2)
    one = Q.kernel_radial_rule(m, 3, breakpoints=(0.01, 0.2))
    assert Q.kernel_radial_rule(m, 3, breakpoints=(0.01, 0.2)) is not one
    plain = Q.radial_rule(m, 3, breakpoints=(0.01, 0.2))
    assert np.array_equal(one.nodes, plain.nodes)
    assert np.array_equal(one.weights, plain.weights * Q.radial_measure(m, plain))
    B = np.array([[0.01, 0.2], [0.1, 0.3]])
    stacked = Q.kernel_radial_rule(m, 3, breakpoints=B)
    rules = Q.radial_rules(m, 3, breakpoints=B)
    assert np.array_equal(stacked.weights, rules.weights * Q.radial_measure(m, rules))
    assert one.weights.flags.writeable and stacked.weights.flags.writeable


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shared_rule_arrays_refuse_writes(d):
    sphere = Q.sphere_rule(d)
    row = Q.kernel_radial_rule(mf.gaussian(64.0, d))
    arrays = [sphere.nodes, sphere.weights, row.nodes, row.weights]
    if d == 1:
        # the aligned 1D rule is the shared one
        arrays += [Q.sphere_rule_aligned(1, 1, [1.0]).weights]
    for a in arrays:
        keep = a.copy()
        with pytest.raises(ValueError):
            a[0] = 1.0
        with pytest.raises(ValueError):
            a *= 2.0
        assert np.array_equal(a, keep)


def test_no_breakpoint_free_row_has_a_node_below_the_remainder_floor():
    # the floor zeroes nodes below 1e-8 r_max, where a remainder's
    # quotient is rounding noise; a power law's first panel, Gauss in its
    # own weight, keeps its nodes above it (1D delta = 0.01 at level 12:
    # 1.9e-8 r_max), as the uniform rows of the other families do
    for m in (mf.indicator(0.25, 1), mf.gaussian(64.0, 2), mf.power_law(0.01, 1),
              mf.power_law(0.1, 1), mf.power_law(0.3, 2), mf.power_law(0.3, 3)):
        for level in range(Q.MAX_RADIAL_LEVEL + 1):
            row = Q.kernel_radial_rule(m, level)
            assert row.nodes.min() >= F._REMAINDER_R_FLOOR * row.r_max, (m.label, level)


def test_a_remainder_leaves_the_shared_row_unchanged():
    # remainder sums divide the shared row's weights by r^p and floor
    # them in their own copy; a power-law remainder at p reads the row of
    # origin power p, shared as well
    m = mf.power_law(0.3, 1)
    rows = [Q.kernel_radial_rule(m), Q.kernel_radial_rule(m, origin_power=1.5)]
    assert rows[1] is not rows[0] and Q.kernel_radial_rule(m, origin_power=0.0) is rows[0]
    saved = [(row.nodes.copy(), row.weights.copy()) for row in rows]
    u = fields.gaussian_bump(1)
    req = F.DensityRequest(u, m, 1.5, [0.4])
    rem = F.remainder_density(req)
    res = F.sobolev_residual(u, m, fields.gradient_candidate(u))
    plain = F.pointwise_density(req)
    assert Q.kernel_radial_rule(m) is rows[0]
    assert Q.kernel_radial_rule(m, origin_power=1.5) is rows[1]
    for row, (nodes, weights) in zip(rows, saved):
        assert np.array_equal(row.nodes, nodes) and np.array_equal(row.weights, weights)
    # any other kernel ignores the origin power and shares one row
    g = mf.gaussian(64.0, 1)
    assert Q.kernel_radial_rule(g, origin_power=1.5) is Q.kernel_radial_rule(g)
    # rebuilt from an empty cache, every value is the same to the last bit
    Q._shared_kernel_row.cache_clear()
    assert F.pointwise_density(req) == plain
    assert F.remainder_density(req) == rem
    assert F.sobolev_residual(u, m, fields.gradient_candidate(u)) == res


def test_rule_caches_stay_at_their_bound():
    for k in range(Q._RADIAL_CACHE_SIZE + 5):
        Q.kernel_radial_rule(mf.indicator(0.25 + k / 1024, 2), 0)
    info = Q._shared_kernel_row.cache_info()
    assert info.currsize == info.maxsize == Q._RADIAL_CACHE_SIZE
    for k in range(Q._SPHERE_CACHE_SIZE + 5):
        Q.sphere_rule(2, 8 + 4 * k)
    info = Q._shared_sphere_rule.cache_info()
    assert info.currsize == info.maxsize == Q._SPHERE_CACHE_SIZE


def test_public_rule_builders_stay_plain_functions():
    # span tracers wrap plain functions only; a cache decorator on a public
    # builder would drop it out of the traced counts
    for name in ("sphere_rule", "sphere_rule_aligned", "radial_rule",
                 "radial_rules", "kernel_radial_rule", "radial_measure"):
        assert inspect.isfunction(getattr(Q, name)), name


# ---------------------------------------------------------------------------
# the root finder
# ---------------------------------------------------------------------------

# one function a bracket: three smooth roots and a jump
ROOT_FUNCTIONS = [lambda c: np.sin(3.0 * c), lambda c: c ** 3 - 0.2,
                  lambda c: np.where(c < 0.3, -1.0, 2.0), lambda c: np.exp(c) - 2.0]
ROOT_BRACKETS = [(0.5, 1.5), (0.1, 0.9), (-0.4, 0.9), (0.2, 1.1)]


def batch_of(functions):
    """f(c, k): the function of bracket k_i at c_i."""
    def f(c, k):
        return np.array([functions[i](x) for i, x in zip(k.tolist(), c.tolist())])
    return f


def test_a_batch_of_brackets_gives_each_brackets_own_root_bit_for_bit():
    a, b = (np.array(v) for v in zip(*ROOT_BRACKETS))
    fa = np.array([f(x) for f, x in zip(ROOT_FUNCTIONS, a)])
    fb = np.array([f(x) for f, x in zip(ROOT_FUNCTIONS, b)])
    tol = 4.0 * np.spacing(b)
    root, last = Q.illinois(batch_of(ROOT_FUNCTIONS), a, b, fa, fb, tol,
                            np.arange(len(ROOT_FUNCTIONS)))
    for i, f in enumerate(ROOT_FUNCTIONS):
        one, one_last = Q.illinois(batch_of([f]), a[i:i + 1], b[i:i + 1], fa[i:i + 1],
                                   fb[i:i + 1], tol[i:i + 1], np.zeros(1, dtype=int))
        assert root[i].hex() == one[0].hex() and last[i].hex() == one_last[0].hex()
    assert root[0] == pytest.approx(math.pi / 3.0, abs=1e-15)
    assert root[1] == pytest.approx(0.2 ** (1.0 / 3.0), abs=1e-15)
    assert root[3] == pytest.approx(math.log(2.0), abs=1e-15)
    # the jump is found too, and its last value is a side's, not near 0
    assert root[2] == pytest.approx(0.3, abs=1e-15) and abs(last[2]) >= 1.0


def test_an_exact_zero_closes_its_bracket():
    calls = []

    def f(c):
        calls.append(c.copy())
        return c - 0.25
    # regula falsi lands on the root of a line at once
    root, last = Q.illinois(f, [-0.75], [1.25], [-1.0], [1.0], [0.0])
    assert root.tolist() == [0.25] and last.tolist() == [0.0] and len(calls) == 1
    # a node where f is 0 is a root; of a run of zero nodes, its two ends
    x = np.linspace(-1.0, 1.0, 9)
    assert Q.roots(lambda c: c, x).tolist() == [0.0]
    flat = Q.roots(lambda c: np.where(np.abs(c) <= 0.5, 0.0, c), x)
    assert flat.tolist() == [-0.5, 0.5]
    root = Q.roots(lambda c: c - 0.3, x)
    assert root == pytest.approx([0.3], abs=1e-15)


def test_an_empty_batch_gives_empty_arrays():
    def f(c):
        raise AssertionError("no bracket to evaluate")
    root, last = Q.illinois(f, [], [], [], [], 1e-12)
    assert root.shape == (0,) and last.shape == (0,)
    assert Q.roots(np.cos, np.linspace(-1.0, 1.0, 5)).shape == (0,)


def test_a_jump_from_near_zero_is_closed_by_bisection(monkeypatch):
    # Illinois halves such a bracket once in log2(ratio) ~ 52 steps: the
    # brackets still open after its cap bisect to the tolerance
    def f(c):
        return np.where(c < 0.3, 1e-21 * (1.0 - c), -5e-5)
    for cap in (Q._ILLINOIS_STEPS, 2):
        monkeypatch.setattr(Q, "_ILLINOIS_STEPS", cap)
        root, _ = Q.illinois(f, [0.0], [1.0], [1e-21], [-5e-5], [1e-12])
        assert abs(root[0] - 0.3) <= 1e-12


def test_a_bracket_that_does_not_close_raises_naming_it(monkeypatch):
    def f(c):
        return np.where(c < 0.3, -1.0, 2.0)
    # no bracket of floats is narrower than 0 around a jump
    with pytest.raises(IntegrationError, match=r"bracket \(0\.29999999999999"):
        Q.illinois(f, [0.0, 0.1], [1.0, 0.5], [-1.0, -1.0], [2.0, 2.0], 0.0)
    monkeypatch.setattr(Q, "_ILLINOIS_STEPS", 2)
    monkeypatch.setattr(Q, "_BISECTION_STEPS", 2)
    with pytest.raises(IntegrationError, match="after 4 steps"):
        Q.illinois(f, [0.0], [1.0], [-1.0], [2.0], 1e-12)


def test_the_cut_rule_meets_the_integral_of_a_power_of_a_sine():
    # int_0^2pi |sin x|^p = 4 int_0^(pi/2) sin^p = 2 sqrt(pi) G((p+1)/2) / G(p/2 + 1)
    for p in (1.0, 1.5, 3.0):
        exact = 2.0 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)
        value = Q.abs_power_integral(np.sin, 0.0, 2.0 * math.pi, p)
        assert value == pytest.approx(exact, rel=1e-13, abs=0), p
