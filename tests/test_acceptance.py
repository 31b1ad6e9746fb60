"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.  Tolerances and runtime budgets are pinned here and
nowhere else; each criterion asserts against an independent expected
value (closed form, exact geometry, or a brute-force oracle computed in
the test).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bbmlab import constants, fields, functionals as F, maximal as MX
from bbmlab import mollifiers as mf, pathology as PT, perimeter as P
from bbmlab.cli import main as cli_main
from bbmlab.functionals import DensityRequest, QuadratureScheme


@contextmanager
def criterion(name: str, budget_s: float):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    print(f"\n[{name}] PASS ({elapsed:.2f} s, budget {budget_s:g} s)")
    assert elapsed < budget_s, f"{name} exceeded its runtime budget"


def test_criterion_1_constants():
    with criterion("criterion-1 sphere constants", 1.0):
        closed = {1: 2.0, 2: 4.0, 3: 2 * math.pi}
        for d, expected in closed.items():
            assert constants.gamma(d, 1) == pytest.approx(expected, abs=1e-12)
            e = np.zeros(d)
            e[-1] = 1.0
            by_quadrature = constants.gamma(d, 1, e=e)
            assert abs(by_quadrature - expected) <= 1e-8


def test_criterion_2_exact_linear_identity():
    with criterion("criterion-2 exact linear identity", 10.0):
        for d in (1, 2, 3):
            for vmag in (1.0, 3.0):
                V = np.zeros(d)
                V[-1] = vmag
                u = fields.linear_field(V)
                probe = np.full(d, 0.05)
                for p in (1.0, 2.0, 3.0):
                    exact = constants.gamma(d, p) * vmag**p
                    for m in (mf.indicator(0.25, d), mf.gaussian(16.0, d),
                              mf.power_law(0.3, d)):
                        val = F.pointwise_density(DensityRequest(u, m, p, probe))
                        rem = F.remainder_density(DensityRequest(u, m, p, probe))
                        assert abs(val - exact) / exact <= 1e-6, (d, p, m.kind)
                        assert rem <= 1e-10, (d, p, m.kind)


def test_criterion_3_pointwise_remainder_ladder():
    with criterion("criterion-3 a.e. convergence surrogate", 60.0):
        u = fields.gaussian_bump(2)
        probes = F.seeded_probes(2, 10, seed=7, radius_range=(0.35, 1.1))
        ladder = mf.indicator_ladder(2, range(1, 8))
        for p in (1.0, 2.0):
            for x in probes:
                rems = [F.remainder_density(DensityRequest(u, m, p, x))
                        for m in ladder]
                pairs = len(rems) - 1
                decreasing = sum(1 for a, b in zip(rems[:-1], rems[1:]) if b < a)
                assert decreasing >= 0.75 * pairs, (p, x, rems)
                D = F.pointwise_density(DensityRequest(u, ladder[-1], p, x))
                local = constants.gamma(2, p) * \
                    np.linalg.norm(fields.gradient(u, x)) ** p
                assert abs(D - local) / local < 1e-2, (p, x)


def test_criterion_4_sobolev_residual():
    with criterion("criterion-4 integrated remainder", 60.0):
        u = fields.gaussian_bump(2, support_radius=5.0)
        cand = fields.gradient_candidate(u)
        scheme = QuadratureScheme(sphere_order=32, radial_level=2)
        vals = [F.sobolev_residual(u, mf.indicator(2.0**-k, 2), cand, scheme)
                for k in (2, 4, 6, 8, 10, 11)]
        assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
        assert vals[-1] < 1e-2
        # converse: a pure jump with zero candidate keeps the full mass
        step = fields.step_field()
        for k in (6, 8, 10):
            res = F.sobolev_residual(step, mf.indicator(2.0**-k, 1), None)
            assert res >= 3.9
            assert res == pytest.approx(4.0, rel=1e-3)


def test_criterion_5_bv_energy_and_pointwise_limits():
    with criterion("criterion-5 1D BV limits", 30.0):
        step = fields.step_field()
        for eps in (0.5, 0.25, 0.125):
            e = F.energy(step, mf.indicator(eps, 1), 1)
            assert abs(e - 4.0) <= 1e-3, eps
        ladder = mf.indicator_ladder(1, range(1, 11))
        for probe in (0.3, 0.5, 0.7):
            rep = F.bv_pointwise_limit(step, ladder, [probe])
            assert rep.limit == 0.0
            assert rep.classification == "converging"
            assert abs(rep.values[-1]) < 1e-12
        smooth = fields.AnalyticField(1, lambda q: q[:, 0] ** 2,
                                      lambda q: 2 * q, support_radius=8.0)
        mixed = fields.BVField1D(smooth, [(0.0, 1.0)])
        for probe in (0.3, 0.5, 0.7):
            rep = F.bv_pointwise_limit(mixed, ladder, [probe])
            assert rep.limit == pytest.approx(2 * 2 * probe)
            assert abs(rep.values[-1] - rep.limit) / rep.limit < 2e-2
            assert rep.classification == "converging"


def test_criterion_6_singular_mass_recovery():
    with criterion("criterion-6 jump-mass recovery", 60.0):
        def smooth():
            return fields.AnalyticField(
                1, lambda q: 0.5 * np.exp(-q[:, 0] ** 2),
                lambda q: -q * np.exp(-q[:, 0] ** 2)[:, None],
                support_radius=6.0)

        cases = [([(0.0, 1.0)], 1.0),
                 ([(-0.3, 1.2), (0.4, -0.8)], 2.0),
                 ([(-0.5, 1.5), (0.2, 1.5)], 3.0)]
        ladder = mf.indicator_ladder(1, [4, 6, 8, 10])
        for jumps, J in cases:
            bv = fields.BVField1D(smooth(), jumps)
            rep = F.ponce_spector_mass(bv, ladder)
            assert rep.limit == pytest.approx(2 * J)
            assert abs(rep.values[-1] - 2 * J) / (2 * J) < 2e-2, (J, rep.values)
            assert rep.classification == "converging"


def test_criterion_7_perimeter_estimators():
    with criterion("criterion-7 perimeter estimators", 300.0):
        I = fields.interval_set(0.0, 1.0)
        bbm_i = P.estimate(I, 2**10, "bbm")
        dg_i = P.estimate(I, 2**10, "degiorgi")
        assert bbm_i.rel_error < 2e-2 and dg_i.rel_error < 2e-2
        assert abs(bbm_i.value - dg_i.value) / 2.0 < 4e-2
        B = fields.ball_set([0.0, 0.0], 1.0)
        bbm_b = P.estimate(B, 2**12, "bbm")
        dg_b = P.estimate(B, 2**12, "degiorgi", resolution=512)
        assert bbm_b.exact == pytest.approx(2 * math.pi)
        assert bbm_b.rel_error < 2e-2 and dg_b.rel_error < 2e-2
        assert abs(bbm_b.value - dg_b.value) / bbm_b.exact < 4e-2


def test_criterion_8_divergence_pathology():
    with criterion("criterion-8 divergence pathology", 60.0):
        probe = [0.375, 0.0]
        sup = PT.divergence_probe(PT.PathologyCase(2, 3.0, 0.1), probe)
        assert sup.classification == "diverging"
        w = sup.growth_window
        windows = [(i, sup.values[i + w] / sup.values[i])
                   for i in range(len(sup.values) - w)
                   if all(b > a for a, b in
                          zip(sup.values[i:i + w], sup.values[i + 1:i + w + 1]))]
        assert any(g >= 1.5 for _, g in windows), windows
        sub = PT.divergence_probe(PT.PathologyCase(2, 1.5, 0.1), probe)
        assert sub.classification == "converging"
        scan = PT.threshold_scan(2, 0.1, probe, [1.5, 1.9, 2.1, 3.0])
        labels = [c for _, c in scan]
        assert labels == ["converging", "converging", "diverging", "diverging"]
        assert sum(1 for a, b in zip(labels[:-1], labels[1:]) if a != b) == 1


def test_criterion_9_maximal_suite():
    with criterion("criterion-9 maximal machinery", 120.0):
        # weak (1,1) with the Vitali constant 3^d on seeded random fields
        gen = np.random.default_rng(7)
        for _ in range(100):
            f = fields.GridField(1, 2.0, gen.uniform(0, 1, size=256))
            for eps, measure, bound in MX.weak11_check(f, [0.25, 0.5, 0.75, 1.0]):
                assert measure <= bound
        for _ in range(20):
            f = fields.GridField(2, 2.0, gen.uniform(0, 1, size=(64, 64)))
            for eps, measure, bound in MX.weak11_check(f, [0.3, 0.6, 0.9],
                                                       radii=32):
                assert measure <= bound
        # interval indicator at x = 2 against the brute-force oracle
        f = fields.GridField.from_function(
            lambda p: ((p[:, 0] >= 0) & (p[:, 0] <= 1)).astype(float),
            1, 4.0, 4096)
        s = np.linspace(1e-6, 8.0, 400000)
        covered = np.clip(np.minimum(2.0 + s, 1.0) - np.maximum(2.0 - s, 0.0),
                          0.0, None)
        brute = float(np.max(covered / (2 * s)))
        val = MX.maximal_function(f, [2.0])
        assert val == pytest.approx(brute, abs=1e-3)
        assert val == pytest.approx(0.25, abs=1e-3)
        # kernel lemma ratios stay below the frozen empirical constants
        frozen = {1: 2.05, 2: 1.02 * 2 * math.pi}
        for d, count, res in ((1, 25, 512), (2, 10, 96)):
            for _ in range(count):
                f = fields.GridField(d, 2.0, gen.uniform(0, 1, size=(res,) * d))
                x = gen.uniform(-1.0, 1.0, size=d)
                r = gen.uniform(0.2, 0.8)
                lhs, rhs, ratio = MX.kernel_bound_check(f, x, r)
                assert ratio <= frozen[d]


DETERMINISM_CONFIGS = [
    ["sweep", "--experiment", "density", "--field", "linear:3,0",
     "--mollifier", "indicator", "--ladder", "1:6", "--p", "1",
     "--probe", "0,0"],
    ["sweep", "--experiment", "energy", "--field", "bump:1",
     "--mollifier", "indicator", "--ladder", "1:5", "--p", "2"],
    ["bv", "--field", "mixed:1@0", "--probe", "0.4", "--ladder", "1:8"],
    ["pathology", "--d", "2", "--p", "3", "--delta", "0.1",
     "--probe", "0.375,0"],
    ["perimeter", "--shape", "interval:0,1", "--n", "256,1024",
     "--method", "both"],
    ["maximal", "--check", "weak11", "--fields", "10", "--d", "1",
     "--seed", "7"],
]


def test_criterion_10_determinism(tmp_path):
    with criterion("criterion-10 byte-identical reruns", 120.0):
        for i, args in enumerate(DETERMINISM_CONFIGS):
            a = tmp_path / f"run{i}a"
            b = tmp_path / f"run{i}b"
            assert cli_main(args + ["--out", str(a)]) == 0
            assert cli_main(args + ["--out", str(b)]) == 0
            body_a = (a / "results.csv").read_bytes()
            body_b = (b / "results.csv").read_bytes()
            assert body_a == body_b, args
