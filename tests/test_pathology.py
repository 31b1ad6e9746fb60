import math

import numpy as np
import pytest
from scipy import integrate, optimize

from bbmlab import fields, functionals as F, mollifiers as mf, pathology as PT
from bbmlab.errors import DimensionError, DomainError, ProbeError, ValidityError
from bbmlab.functionals import DensityRequest, QuadratureScheme

PROBE2 = [0.375, 0.0]
PROBE3 = [0.375, 0.0, 0.0]


def test_field_value_closed_form():
    u = PT.pathological_field(2)
    assert fields.eval_field(u, [0.5, 0.0]) == pytest.approx(
        2.0 / math.log(2.0) ** 2, rel=1e-12)


def test_field_cutoff_region():
    # the cutoff falls on [1/2, 3/4]: u stays finite and under its radial
    # profile |x|^-1 ln^-2 |x| out to |x| = 3, across the zero |x| = 1 of
    # the log factor, and vanishes from |x| = 3/4 on
    u = PT.pathological_field(2)
    r = np.concatenate([np.linspace(0.5, 3.0, 201), [1.0, 0.75]])
    theta = np.linspace(0.0, 2.0 * math.pi, r.size)
    pts = r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    v = u.eval_many(pts)
    with np.errstate(divide="ignore"):
        profile = 1.0 / (r * np.log(r) ** 2)
    assert np.all(np.isfinite(v))
    assert np.all((v >= 0.0) & (v <= profile))
    assert np.all(v[r >= 0.75] == 0.0)
    assert u.support_radius == 0.75


def test_field_origin_sentinel_is_finite():
    u = PT.pathological_field(2)
    v = fields.eval_field(u, [1e-15, 0.0])
    assert math.isfinite(v) and v > 1e6


def test_field_needs_dimension_at_least_two():
    with pytest.raises(DimensionError):
        PT.pathological_field(1)


def test_field_gradient_matches_finite_differences():
    u = PT.pathological_field(2)
    for x in ([0.3, 0.1], [0.5, -0.2], [2.4, 0.3], [0.6, 0.1], [0.45, 0.45]):
        x = np.asarray(x)
        num = np.empty(2)
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = 1e-6
            num[ax] = (fields.eval_field(u, x + e) - fields.eval_field(u, x - e)) / 2e-6
        assert np.allclose(fields.gradient(u, x), num, rtol=1e-5)


@pytest.mark.parametrize("d,p", [(2, 1.0), (2, 2.0), (3, 2.0), (3, 1.5)])
def test_energy_of_a_declared_point_singularity_is_refused(d, p):
    # p = 2 takes the multiplier route, the others the sliced route; no
    # route may integrate the 1e-12 sentinel at the origin into a number
    u = PT.pathological_field(d)
    assert u.declared_singularities().tolist() == [[0.0] * d]
    with pytest.raises(ValidityError):
        F.energy(u, mf.indicator(0.25, d), p, QuadratureScheme(x_resolution=64))
    with pytest.raises(ValidityError):
        F.sobolev_residual(u, mf.indicator(0.25, d), fields.gradient_candidate(u))


def test_density_whose_ball_reaches_a_declared_point_is_refused():
    u, m = PT.pathological_field(2), mf.indicator(0.25, 2)
    far = F.pointwise_density(DensityRequest(u, m, 1.0, [0.9, 0.0]))
    assert math.isfinite(far) and far > 0.0
    for probe in ([0.2, 0.1], [[0.9, 0.0], [0.0, 0.25]]):
        with pytest.raises(ValidityError):
            F.pointwise_density(DensityRequest(u, m, 1.0, probe))
        with pytest.raises(ValidityError):
            F.remainder_density(DensityRequest(u, m, 1.0, probe))


def test_w11_gradient_mass_stable_under_cutoff_refinement():
    ladder = PT.gradient_mass_ladder(2, [1e-3, 5e-4, 2.5e-4])
    values = [v for _, v in ladder]
    assert all(math.isfinite(v) for v in values)
    increments = [abs(b - a) for a, b in zip(values[:-1], values[1:])]
    assert increments[-1] <= increments[0]
    assert increments[-1] <= 0.02 * values[-1]


# ---------------------------------------------------------------------------
# divergence probes
# ---------------------------------------------------------------------------

def test_case_validation():
    with pytest.raises(DomainError):
        PT.PathologyCase(2, 3.0, 0.7)
    with pytest.raises(DimensionError):
        PT.PathologyCase(1, 3.0, 0.1)
    with pytest.raises(DomainError):
        PT.PathologyCase(2, 3.0, 0.1, cutoffs=(0.01, 0.02))
    case = PT.PathologyCase(2, 3.0, 0.1)
    assert case.critical_exponent == 2.0
    assert case.expects_divergence
    assert not PT.PathologyCase(2, 1.5, 0.1).expects_divergence


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
def test_case_refuses_an_exponent_outside_one_to_inf(p):
    with pytest.raises(DomainError, match="finite number >= 1"):
        PT.PathologyCase(2, p, 0.1)


def test_probe_must_lie_in_annulus():
    case = PT.PathologyCase(2, 3.0, 0.1)
    with pytest.raises(ProbeError):
        PT.divergence_probe(case, [0.1, 0.0])
    with pytest.raises(ProbeError):
        PT.divergence_probe(case, [0.6, 0.0])


def test_supercritical_ladder_diverges():
    rep = PT.divergence_probe(PT.PathologyCase(2, 3.0, 0.1), PROBE2)
    assert rep.classification == "diverging"
    # lower bounds over nested domains: exactly nondecreasing
    assert all(b >= a for a, b in zip(rep.values[:-1], rep.values[1:]))
    # growth factor 1.5 reached over some window of 4 consecutive levels
    w = rep.growth_window
    assert any(rep.values[i + w] / rep.values[i] >= rep.growth_factor
               for i in range(len(rep.values) - w))


def test_subcritical_ladder_converges():
    rep = PT.divergence_probe(PT.PathologyCase(2, 1.5, 0.1), PROBE2)
    assert rep.classification == "converging"
    increments = np.diff(rep.values)
    # refinement stabilizes: late increments shrink at ratio < 0.5
    assert increments[-1] < 0.5 * increments[2]


def test_smooth_control_is_bounded_and_converging():
    case = PT.PathologyCase(2, 3.0, 0.1)
    rep = PT.divergence_probe(case, PROBE2, field=fields.gaussian_bump(2))
    assert rep.classification == "converging"
    assert rep.values[-1] < 1.0


def test_kernel_lower_bound_matches_extremal_evaluation():
    case = PT.PathologyCase(2, 3.0, 0.1)
    bound = case.kernel_lower_bound()
    assert bound == pytest.approx(0.1 * (5.0 / 8.0) ** (0.1 - 1.0), rel=1e-12)
    # direct kernel evaluation on sampled probe/shell pairs never undercuts
    rho = case.mollifier()
    rng = np.random.default_rng(5)
    for _ in range(200):
        r_probe = rng.uniform(0.25, 0.5)
        theta = rng.uniform(0, 2 * np.pi)
        y = rng.uniform(0, 0.125) * np.array([np.cos(theta), np.sin(theta)])
        dist = np.linalg.norm(np.array([r_probe, 0.0]) - y)
        assert rho.evaluate(dist) >= bound - 1e-12


# ---------------------------------------------------------------------------
# threshold scan
# ---------------------------------------------------------------------------

def test_threshold_scan_d2():
    got = PT.threshold_scan(2, 0.1, PROBE2, [1.5, 1.9, 2.1, 3.0])
    assert got == [(1.5, "converging"), (1.9, "converging"),
                   (2.1, "diverging"), (3.0, "diverging")]


def test_threshold_scan_d3():
    got = PT.threshold_scan(3, 0.1, PROBE3, [1.2, 1.4, 1.6, 2.0])
    assert got == [(1.2, "converging"), (1.4, "converging"),
                   (1.6, "diverging"), (2.0, "diverging")]


@pytest.mark.parametrize("d,probe,ps", [(2, PROBE2, [1.5, 1.9, 2.1, 3.0]),
                                         (3, [0.1, -0.3, 0.2], [1.4, 1.6])])
def test_scan_masses_are_the_per_exponent_shell_masses(d, probe, ps):
    # one geometry pass per shell serves the whole ladder, bit for bit
    probe = np.asarray(probe)
    masses = PT._scan_masses(d, 0.1, probe, ps)
    scan = dict(PT.threshold_scan(d, 0.1, probe, ps))
    for p, row in zip(ps, masses):
        case = PT.PathologyCase(d, p, 0.1)
        assert row.tolist() == [PT._shell_mass(case, probe, lo, hi)
                                for lo, hi in PT._scan_shells()]
        assert (PT.shell_exponent(case, probe) < 0.0) == (scan[p] == "diverging")


# the benchmark's two pathology configs (delta = 0.1) at off-axis probes:
# (d, p, probe, scan) -> the divergence ladder's bits and the scan labels
PINNED_PATHOLOGY = [
    (2, 3.0, [0.31, 0.2], [1.5, 1.9, 2.1, 3.0],
     ["0x1.207e9e51af100p-3", "0x1.3d83bb558b830p-3", "0x1.9171beb9852bcp-3",
      "0x1.14dbf6f875c2bp-2", "0x1.866baa2a23eaap-2", "0x1.10d8038fe8136p-1",
      "0x1.775e008196d94p-1", "0x1.fdbe7d0ad9930p-1"],
     ["converging", "converging", "diverging", "diverging"]),
    (3, 2.0, [0.2, -0.25, 0.1], [1.4, 1.6],
     ["0x1.58b41a202219bp+3", "0x1.e561664c4d3f5p+3", "0x1.441046d108bfep+4",
      "0x1.a795cc592e9e5p+4", "0x1.13c96786bf43ep+5", "0x1.69ae4f8177002p+5",
      "0x1.e12dc46a34647p+5", "0x1.464224c0cb77bp+6"],
     ["converging", "diverging"]),
]


@pytest.mark.parametrize("d,p,probe,scan,ladder,labels", PINNED_PATHOLOGY, ids=["d2", "d3"])
def test_pathology_configs_keep_their_pinned_bits(d, p, probe, scan, ladder, labels):
    # the crossings of the 2D shells are refined by quadrature.roots: the
    # values are those of the per-crossing loop it replaced, bit for bit
    report = PT.divergence_probe(PT.PathologyCase(d, p, 0.1), probe)
    assert [float(v).hex() for v in report.values] == ladder
    assert PT.threshold_scan(d, 0.1, probe, scan) == list(zip(scan, labels))


def test_threshold_scan_flips_exactly_once():
    got = PT.threshold_scan(2, 0.1, PROBE2, [1.5, 1.9, 2.1, 3.0])
    flips = sum(1 for a, b in zip(got[:-1], got[1:]) if a[1] != b[1])
    assert flips == 1


def test_threshold_scan_rejects_borderline_and_onesided():
    with pytest.raises(DomainError):
        PT.threshold_scan(2, 0.1, PROBE2, [1.5, 2.0, 3.0])
    with pytest.raises(DomainError):
        PT.threshold_scan(2, 0.1, PROBE2, [2.1, 2.5, 3.0])


def test_shell_exponent_signs():
    # shell-mass exponent beta ~ d - p(d-1): sign decides divergence
    beta_sub = PT.shell_exponent(PT.PathologyCase(2, 1.5, 0.1), PROBE2)
    beta_sup = PT.shell_exponent(PT.PathologyCase(2, 3.0, 0.1), PROBE2)
    assert beta_sub > 0.3
    assert beta_sup < -0.5


def test_smooth_field_shell_exponent_infinite():
    # no singularity at the origin: shells vanish, scan reports convergence
    case = PT.PathologyCase(2, 3.0, 0.1)
    beta = PT.shell_exponent(case, PROBE2, field=fields.linear_field([0.0, 0.0]))
    assert beta == math.inf


# ---------------------------------------------------------------------------
# shells cut at the kink of |u(x) - u(y)|^p
# ---------------------------------------------------------------------------

def _profile_2d(s):
    """The 2D radial profile below |x| = 1/2, where the cutoff is 1."""
    return 1.0 / (s * math.log(s) ** 2)


def _shell_quad(probe, p, delta, lo, hi):
    """Nested ``quad`` of a 2D shell integral, split where the profile
    crosses u(probe); the angle runs over [0, pi] about the probe ray."""
    R = float(np.linalg.norm(probe))
    ux = _profile_2d(R)

    def ring(s):
        def f(t):
            dist = math.sqrt(R * R + s * s - 2.0 * R * s * math.cos(t))
            return delta * dist ** (delta - 1.0) / dist ** p
        return 2.0 * integrate.quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-13,
                                    limit=200)[0]

    cuts = [lo, hi]
    if (_profile_2d(lo) - ux) * (_profile_2d(hi) - ux) < 0.0:
        cuts.insert(1, optimize.brentq(lambda s: _profile_2d(s) - ux, lo, hi,
                                       xtol=1e-300, rtol=1e-15))
    total = sum(integrate.quad(lambda s: abs(ux - _profile_2d(s)) ** p * s * ring(s),
                               a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(cuts[:-1], cuts[1:]))
    return total, len(cuts) == 3


@pytest.mark.parametrize("p", [1.2, 1.5, 2.5, 3.0])
def test_2d_shell_masses_meet_a_quad_split_at_the_crossing(p):
    rng = np.random.default_rng(21)
    case = PT.PathologyCase(2, p, 0.1)
    edges = (PT.SHELL_OUTER,) + tuple(case.cutoffs)
    for _ in range(5):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        probe = rng.uniform(0.26, 0.49) * np.array([math.cos(angle), math.sin(angle)])
        masses, crossed = [], 0
        for hi, lo in zip(edges[:-1], edges[1:]):
            got = PT._shell_mass(case, probe, lo, hi)
            want, cut = _shell_quad(probe, p, case.delta, lo, hi)
            crossed += cut
            assert abs(got - want) <= 1e-10 * want, (probe, lo, hi, got, want)
            masses.append(got)
        # every annulus probe's profile value is crossed inside one shell
        assert crossed == 1
        assert PT.divergence_probe(case, probe).values == np.cumsum(masses).tolist()


def test_a_crossing_becomes_a_graded_panel_edge():
    u = PT.pathological_field(2)
    probe = np.asarray(PROBE2)
    ux = u.eval_many(probe[None])[0]
    edges = PT._shell_edges(u, probe, ux, PT.SHELL_OUTER / 8, PT.SHELL_OUTER)
    # three dyadic panels, one crossing near s = 0.0285, graded both ways
    assert edges.size == 4 + 2 * PT.KINK_GRADE_LEVELS + 1
    assert np.all(np.diff(edges) > 0.0)
    root = edges[np.argmin(np.abs(edges - 0.0285))]
    assert abs(_profile_2d(root) - ux) <= 1e-13 * ux


@pytest.mark.parametrize("d,field,ladder", [
    (3, None, True), (2, None, False), (2, fields.gaussian_bump(2), True),
    (2, fields.linear_field([0.0, 0.0]), True)],
    ids=["pathology-3d", "pathology-2d-scan", "bump-control", "zero-control"])
def test_shells_without_a_crossing_keep_their_dyadic_panels(d, field, ladder):
    u = field if field is not None else PT.pathological_field(d)
    probe = np.asarray(PROBE2 if d == 2 else PROBE3)
    ux = u.eval_many(probe[None])[0]
    edges = (PT.SHELL_OUTER,) + PT.DEFAULT_CUTOFFS
    shells = PT._scan_shells() + (list(zip(edges[1:], edges[:-1])) if ladder else [])
    for lo, hi in shells:
        n = max(1, int(math.ceil(math.log2(hi / lo))))
        assert np.array_equal(PT._shell_edges(u, probe, ux, lo, hi),
                              np.geomspace(lo, hi, n + 1))
