"""The four benchmark workloads.

A workload is a deterministic stream of cycles.  Cycle ``c`` of seed
``s`` draws its inputs from ``numpy.random.default_rng([s, c])``, so the
same seed gives the same ops.  Every cycle holds the same op kinds in the
same order; the seed only moves probes, directions, amplitudes, centres
and radii, never the resolutions, so op costs and the latency mix are the
same on every seed.  Parameters that set an op's accuracy (rungs) are
never drawn: probe-ladder and energy-nd rotate them with the cycle index,
so every run of a few cycles covers every rung, and energy-1d fixes one
rung per op kind, so that each of its four slow kinds costs the same in
every cycle and a run times each kind often enough for its median
latency to be steady.

An op is one call into bbmlab.  Ops of one ``kind`` cost the same up to
the seed, so the median of a kind's latencies in a run, scaled to the
host's speed (run.py), estimates its cost.  Its ``run`` closure looks the
library function up on its module at call time, so the traced run's
wrappers see it.  Its ``check`` compares the returned value with an oracle from
``oracles.py`` and returns a ``Check``.

Tolerances are the documented ones and are cited where they are used:
README "Tests and the acceptance suite" and tests/test_acceptance.py
(criterion-N below), and ``reports.DEFAULT_STUDY_RTOL`` (2e-2) for
energies the acceptance suite does not pin.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from bbmlab import cli, fields, functionals, mollifiers, perimeter
from bbmlab.functionals import DensityRequest, QuadratureScheme

import oracles as O

LINEAR_RTOL = 1e-6          # criterion-2: exact linear identity
POINTWISE_LIMIT_RTOL = 1e-2  # criterion-3: density vs local limit
BV_ENERGY_ATOL = 1e-3       # criterion-5: 1D BV energies
BV_LIMIT_RTOL = 2e-2        # criterion-5/6: BV pointwise limit, jump mass
STEP_ZERO_ATOL = 1e-12      # criterion-5: step density away from jumps
RESIDUAL_ATOL = 1e-2        # criterion-4: integrated remainder
PERIMETER_RTOL = 2e-2       # criterion-7: both perimeter routes
STUDY_RTOL = 2e-2           # reports.DEFAULT_STUDY_RTOL
CONST_RTOL = {"gamma_1": 1e-8, "gaussian_norm": 1e-10,      # criterion-1,
              "bbm_perimeter": 1e-10, "degiorgi": 1e-6}     # test_constants


@dataclass
class Check:
    ok: bool
    rel_err: Optional[float] = None   # against a finite-parameter oracle
    detail: str = ""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Check]
    binary: bool                 # the field is 0/1-valued
    p: Optional[float]
    mollifier: Optional[str]
    known_defect: bool = False   # documented miss at this commit
    # (x-grid or probe points, of those within r_max of the jump set)
    band: Optional[Callable[[], tuple[int, int]]] = None
    twin: Optional[int] = None   # CLI ops: 0 or 1 of a byte-compared pair


def _rel(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def _mollifier(kind: str, d: int, param: float):
    if kind == "indicator":
        return mollifiers.indicator(param, d)
    if kind == "gaussian":
        return mollifiers.gaussian(param, d)
    return mollifiers.power_law(param, d)


def _unit(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def _scaled_bump(d: int, a: float, support: float = 6.0) -> fields.AnalyticField:
    """a * exp(-|x|^2), truncated where it is ~1e-16 like gaussian_bump."""
    return fields.AnalyticField(
        d, lambda q: a * np.exp(-np.einsum("ij,ij->i", q, q)),
        lambda q: -2.0 * a * q * np.exp(-np.einsum("ij,ij->i", q, q))[:, None],
        support, label=f"bump(d={d}, a={a:g})")


# ---------------------------------------------------------------------------
# probe-ladder
# ---------------------------------------------------------------------------

# (kind, rung parameters); linear fields are exact on any rung
RUNGS = {"indicator": [2.0 ** -k for k in (5, 6, 7)],
         "gaussian": [2.0 ** k for k in (10, 11, 12)],
         "powerlaw": [0.2, 0.3, 0.4]}
BUMP_HESSIAN_BOUND = 2.0     # sup |D^2 exp(-|x|^2)|


def _density_op(kind, u, d, p, x, mkind, param, check, *, remainder=False,
                binary=False, known_defect=False):
    m = _mollifier(mkind, d, param)
    fn = "remainder_density" if remainder else "pointwise_density"

    def run():
        return getattr(functionals, fn)(DensityRequest(u, m, p, x))

    def band():
        sing = np.asarray(u.singular_points(), dtype=float) if d == 1 else np.empty(0)
        near = sing.size and np.min(np.abs(sing - x[0])) <= m.quadrature_radius()
        return 1, int(bool(near))
    return Op(f"{kind}-{mkind}", run, check, binary, p, mkind, known_defect, band)


def _linear_ladder(rng, c, d, p, random_dir):
    """Three rungs of one mollifier family; random-direction ladders draw
    a fresh gradient per rung, since the error depends on the direction
    only and its worst case is a narrow peak (1.85e-3 near 40.7 deg in 2D)."""
    mkind = ("indicator", "gaussian", "powerlaw")[c % 3]
    kind = f"linear-{'random' if random_dir else 'axis'}-d{d}-p{p:g}"
    x = rng.uniform(-0.5, 0.5, size=d)
    ops = []
    for param in RUNGS[mkind]:
        mag = rng.uniform(0.5, 3.0)
        if random_dir:
            V = mag * _unit(rng, d)
        else:
            V = np.zeros(d)
            V[-1] = mag * rng.choice([-1.0, 1.0])
        exact = O.linear_density(d, p, V)

        def check(v, exact=exact, V=V):
            err = _rel(v, exact)
            return Check(err <= LINEAR_RTOL, err, f"V={V.tolist()}")
        ops.append(_density_op(kind, fields.linear_field(V), d, p, x, mkind, param,
                               check,
                               known_defect=_linear_defect(d, p, random_dir, mkind, param)))
    return ops


def _linear_defect(d, p, random_dir, mkind, param) -> bool:
    """Linear ops that miss the documented 1e-6 at this commit.

    Off-axis gradients at p = 1 in d = 2, 3: the sphere rules split only
    on coordinate axes (ROADMAP item 3).  The power law at delta = 0.2 in
    d = 1: its radial substitution r = s^5 puts nodes near r = 1e-15,
    where u(x + r) - u(x) cancels to a few digits (2.6e-6 relative)."""
    return ((random_dir and p == 1.0 and d >= 2)
            or (mkind == "powerlaw" and param == 0.2 and d == 1))


def _bump_probe(rng, d):
    # criterion-3 probes: radius in (0.35, 1.1), away from grad u = 0
    return rng.uniform(0.35, 1.1) * _unit(rng, d)


def _bump_ladder(rng, c, d, p, remainder):
    u = fields.gaussian_bump(d)
    x = _bump_probe(rng, d)
    mkind = ("indicator", "gaussian")[c % 2]
    g = 2.0 * np.linalg.norm(x) * math.exp(-float(x @ x))
    local = O.gamma_const(d, p) * g ** p
    ops = []
    for param in RUNGS[mkind]:
        kern = O.Kernel(mkind, d, param)
        if remainder:
            def check(v, kern=kern):
                # limit 0, approached no slower than the Taylor bound
                bound = O.taylor_remainder_bound(kern, p, BUMP_HESSIAN_BOUND)
                return Check(0.0 <= v <= bound * (1 + 1e-9), None,
                             f"bound={bound:.3e}")
        elif p == 2.0:
            def check(v, kern=kern):
                exact = O.bump_p2_density(kern, x)
                return Check(_rel(v, local) <= POINTWISE_LIMIT_RTOL,
                             _rel(v, exact))
        else:
            def check(v):
                return Check(_rel(v, local) <= POINTWISE_LIMIT_RTOL)
        kind = f"bump-{'remainder' if remainder else 'density'}-d{d}-p{p:g}"
        ops.append(_density_op(kind, u, d, p, x, mkind, param, check,
                               remainder=remainder))
    return ops


def _mixed_u(height):
    """x^2 plus a jump of the given height at 0 (midpoint value at 0)."""
    def u(y):
        step = height if y > 0.0 else (0.5 * height if y == 0.0 else 0.0)
        return y * y + step
    return u


def _bv_ladder(rng, c, which):
    if which == "step":
        field_ = fields.step_field()
        binary = True
        # probes farther than eps from both jumps: the density is 0 exactly
        x = rng.uniform(0.2, 0.8)
    else:
        height = rng.uniform(0.5, 1.5)
        smooth = fields.AnalyticField(1, lambda q: q[:, 0] ** 2,
                                      lambda q: 2 * q, support_radius=6.0,
                                      label="x^2")
        field_ = fields.BVField1D(smooth, [(0.0, height)])
        binary = False
        x = rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0])
    ops = []
    for eps in RUNGS["indicator"]:
        if which == "step":
            def check(v):
                return Check(abs(v) <= STEP_ZERO_ATOL)
        else:
            kern = O.Kernel("indicator", 1, eps)

            def check(v, kern=kern, height=height, x=x):
                exact = O.density_1d(kern, _mixed_u(height), x, 1.0,
                                     jumps=(0.0,))
                return Check(_rel(v, 2.0 * abs(2.0 * x)) <= BV_LIMIT_RTOL,
                             _rel(v, exact))
        ops.append(_density_op(f"bv-{which}-d1-p1", field_, 1, 1.0,
                               np.array([x]), "indicator", eps, check,
                               binary=binary))
    return ops


def probe_ladder(rng, c):
    """72 pointwise/remainder densities: one probe per ladder, 3 rungs.

    d = 1 and 2 ops are cheap (per-call rule construction), d = 3 ops
    evaluate ~260k field points each, so the tail latency is 3D."""
    ops = []
    for p in (1.0, 2.0):
        ops += _linear_ladder(rng, c, 1, p, False)
        ops += _bump_ladder(rng, c, 1, p, False)
        ops += _bump_ladder(rng, c, 1, p, True)
    ops += _bv_ladder(rng, c, "step")
    ops += _bv_ladder(rng, c, "mixed")
    for p in (1.0, 2.0):
        ops += _linear_ladder(rng, c, 2, p, False)
        ops += _linear_ladder(rng, c, 2, p, True)
        ops += _bump_ladder(rng, c, 2, p, False)
        ops += _bump_ladder(rng, c, 2, p, True)
    for _ in range(3):   # ~1000 directions a run pin the worst case to ~2%
        ops += _linear_ladder(rng, c, 2, 1.0, True)
    ops += _linear_ladder(rng, c, 3, 1.0, False)
    ops += _linear_ladder(rng, c, 3, 1.0, True)
    ops += _linear_ladder(rng, c, 3, 2.0, True)
    ops += _bump_ladder(rng, c, 3, 1.0, False)
    ops += _bump_ladder(rng, c, 3, 2.0, True)
    return ops


# ---------------------------------------------------------------------------
# energy-1d
# ---------------------------------------------------------------------------

def _axis_band(field_, r_max: float) -> tuple[int, int]:
    """x-nodes of the 1D energy rule, and those within r_max of a jump.

    Mirrors the x-rule energies use in 1D: the support box enlarged by
    r_max, split and graded at the jumps and at jump +- r_max."""
    from bbmlab import quadrature
    lo, hi = field_.support_box()
    sing = np.asarray(field_.singular_points(), dtype=float)
    nodes, _ = quadrature.axis_rule(lo[0] - r_max, hi[0] + r_max,
                                    np.concatenate([sing, sing - r_max, sing + r_max]))
    if not sing.size:
        return nodes.size, 0
    near = np.min(np.abs(nodes[:, None] - sing[None, :]), axis=1) <= r_max
    return nodes.size, int(np.count_nonzero(near))


def _energy_op(kind, field_, m, p, check, *, binary, scheme=None, fn="energy",
               candidate=None):
    if fn == "energy":
        def run():
            return functionals.energy(field_, m, p, scheme)
    else:
        def run():
            return functionals.sobolev_residual(field_, m, candidate, scheme)
    if field_.dimension == 1:
        def band():
            return _axis_band(field_, m.quadrature_radius())
    else:
        def band():   # smooth fields: no jump set
            return scheme.x_resolution ** field_.dimension, 0
    return Op(kind, run, check, binary, p, m.kind, band=band)


# one rung per kind
STEP_IND_EPS = 2.0 ** -6
BV_REM_EPS = 2.0 ** -9
BUMP1_IND_EPS = 2.0 ** -5
BUMP1_GAUSS_N = 2.0 ** 6
# a criterion-6 field: smooth part 0.5 exp(-x^2) plus two jumps of
# opposite sign (loc, height)
BV_JUMPS = [(-0.3, 1.2), (0.4, -0.8)]


def _bv_smooth():
    return fields.AnalyticField(
        1, lambda q: 0.5 * np.exp(-q[:, 0] ** 2),
        lambda q: -q * np.exp(-q[:, 0] ** 2)[:, None], support_radius=6.0)


def energy_1d(rng, c):
    """Four 1D x-integrated energies or remainder masses per cycle, each
    kind at its fixed rung; the seed moves the jumps and the amplitude.

    The step energy (0/1 field) and the BV remainder mass take ~0.2 and
    ~0.5 s of x-node loop each; the two bump energies (p = 2, no jump,
    few x-nodes) add the gaussian mollifier at little cost."""
    ops = []
    a = rng.uniform(-0.5, 0.0)
    length = rng.uniform(0.6, 1.2)
    step = fields.step_field(a, a + length)
    m = mollifiers.indicator(STEP_IND_EPS, 1)
    kern = O.Kernel("indicator", 1, STEP_IND_EPS)

    def check_step(v):
        exact = O.interval_energy(kern, length, 1.0)
        return Check(abs(v - exact) <= BV_ENERGY_ATOL, _rel(v, exact))
    ops.append(_energy_op("step-energy-indicator", step, m, 1.0, check_step,
                          binary=True))
    shift = rng.uniform(-0.1, 0.1)
    jumps = [(loc + shift, h) for loc, h in BV_JUMPS]
    bv = fields.BVField1D(_bv_smooth(), jumps)
    limit = 2.0 * sum(abs(h) for _, h in jumps)   # gamma(1,1) |D^s u|

    def check_bv(v):
        return Check(_rel(v, limit) <= BV_LIMIT_RTOL)
    ops.append(_energy_op("bv-remainder-mass", bv, mollifiers.indicator(BV_REM_EPS, 1),
                          1.0, check_bv, binary=False, fn="sobolev_residual",
                          candidate=fields.gradient_candidate(bv)))
    amp = rng.uniform(0.5, 2.0)
    bump = _scaled_bump(1, amp)
    for mkind, param in (("indicator", BUMP1_IND_EPS),
                         ("gaussian", BUMP1_GAUSS_N)):
        kern = O.Kernel(mkind, 1, param)

        def check(v, kern=kern, amp=amp):
            exact = O.bump_p2_energy(kern, amp)
            return Check(abs(v - exact) <= BV_ENERGY_ATOL, _rel(v, exact))
        m = _mollifier(mkind, 1, param)
        ops.append(_energy_op(f"bump-energy-d1-{mkind}", bump, m, 2.0, check,
                              binary=False))
    return ops


# ---------------------------------------------------------------------------
# energy-nd
# ---------------------------------------------------------------------------

# explicit reduced schemes (defaults: x = 256 in 2D, 64 in 3D)
SCHEME_2D = QuadratureScheme(x_resolution=24)
SCHEME_DISK = QuadratureScheme(x_resolution=96, sphere_order=32, radial_level=2)
SCHEME_RESIDUAL = QuadratureScheme(x_resolution=48, sphere_order=32, radial_level=2)
SCHEME_3D = QuadratureScheme(x_resolution=16, sphere_order=4, radial_level=2)
DISK_N = 256.0
DISK_GRID = 192
RESIDUAL_RUNGS = [2.0 ** -k for k in (11, 12)]


def _tensor_band(lo, hi, n, dist_to_jump, r_max) -> tuple[int, int]:
    """Midpoint x-grid of a tensor energy and its points within r_max of
    the jump set (dist_to_jump maps (m, d) points to distances)."""
    d = len(lo)
    axes = [lo[i] + (hi[i] - lo[i]) / n * (np.arange(n) + 0.5) for i in range(d)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1)
    return pts.shape[0], int(np.count_nonzero(dist_to_jump(pts) <= r_max))


def energy_nd(rng, c):
    """Seven 2D/3D tensor energies per cycle at fixed reduced schemes."""
    ops = []
    amp = rng.uniform(0.5, 2.0)
    bump2 = _scaled_bump(2, amp)
    for mkind, param in (("indicator", 2.0 ** -3), ("gaussian", 2.0 ** 5)):
        kern = O.Kernel(mkind, 2, param)

        def check(v, kern=kern):
            exact = O.bump_p2_energy(kern, amp)
            return Check(_rel(v, exact) <= STUDY_RTOL, _rel(v, exact))
        ops.append(_energy_op(f"bump-energy-d2-p2-{mkind}", bump2,
                              _mollifier(mkind, 2, param), 2.0, check,
                              binary=False, scheme=SCHEME_2D))
    local = amp * 4.0 * math.pi ** 1.5           # gamma(2,1) int |grad u|

    def check_p1(v):
        return Check(_rel(v, local) <= STUDY_RTOL)
    ops.append(_energy_op("bump-energy-d2-p1-indicator", bump2,
                          mollifiers.indicator(2.0 ** -3, 2), 1.0, check_p1,
                          binary=False, scheme=SCHEME_2D))
    centre = rng.uniform(-0.1, 0.1, size=2)
    R = rng.uniform(0.9, 1.1)
    disk = fields.ball_set(centre, R)
    gauss = mollifiers.gaussian(DISK_N, 2)

    def check_bbm(v):
        exact = O.disk_energy(O.Kernel("gaussian", 2, DISK_N), R, 1.0) \
            / O.gamma_const(2, 1.0)
        return Check(_rel(v, exact) <= PERIMETER_RTOL, _rel(v, exact))

    def run_bbm():
        return perimeter.bbm_perimeter(disk, DISK_N, SCHEME_DISK)

    def band():
        r_max = gauss.quadrature_radius()
        lo, hi = disk.support_box()
        return _tensor_band(lo - r_max, hi + r_max, SCHEME_DISK.x_resolution,
                            lambda q: np.abs(np.linalg.norm(q - centre, axis=1) - R),
                            r_max)
    ops.append(Op("disk-bbm-perimeter", run_bbm, check_bbm, True, 1.0,
                  "gaussian", band=band))

    def check_dg(v):
        exact = O.disk_degiorgi(DISK_N, R)
        return Check(_rel(v, exact) <= PERIMETER_RTOL, _rel(v, exact))

    def run_dg():
        return perimeter.degiorgi_perimeter(disk, DISK_N, resolution=DISK_GRID)
    ops.append(Op("disk-degiorgi-perimeter", run_dg, check_dg, True, None,
                  "gaussian"))
    # criterion-4 field: exp(-|x|^2) with support radius 5, U = grad u
    u4 = _scaled_bump(2, 1.0, support=5.0)
    eps = RESIDUAL_RUNGS[c % len(RESIDUAL_RUNGS)]

    def check_res(v):
        return Check(0.0 <= v < RESIDUAL_ATOL)
    ops.append(_energy_op("sobolev-residual-d2", u4, mollifiers.indicator(eps, 2),
                          1.0, check_res, binary=False, scheme=SCHEME_RESIDUAL,
                          fn="sobolev_residual",
                          candidate=fields.gradient_candidate(u4)))
    bump3 = _scaled_bump(3, amp)
    kern3 = O.Kernel("indicator", 3, 2.0 ** -2)

    def check3(v):
        exact = O.bump_p2_energy(kern3, amp)
        return Check(_rel(v, exact) <= STUDY_RTOL, _rel(v, exact))
    ops.append(_energy_op("bump-energy-d3-p2-indicator", bump3,
                          mollifiers.indicator(2.0 ** -2, 3), 2.0, check3,
                          binary=False, scheme=SCHEME_3D))
    return ops


# ---------------------------------------------------------------------------
# cli-suite
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _maximal_check(seed: int, d: int, nfields: int, res: int):
    def check(out: Path) -> Check:
        rows = _read_csv(out / "results.csv")
        gen = np.random.default_rng(seed)
        l1 = []
        for _ in range(nfields):
            vals = gen.uniform(0.0, 1.0, size=(res,) * d)
            l1.append(float(np.sum(vals)) * (4.0 / res) ** d)
        ok = len(rows) > 0
        worst = 0.0
        for row in rows:
            eps = float(row["eps"])
            bound = (3.0 ** d / eps) * l1[int(row["field_id"])]
            worst = max(worst, _rel(float(row["bound"]), bound))
            ok &= float(row["measure"]) <= float(row["bound"])
        return Check(ok and worst <= 1e-12, worst)
    return check


def _pathology_check(d: int, p: float, scan: list[float]):
    critical = d / (d - 1.0)

    def check(out: Path) -> Check:
        summary = json.loads((out / "summary.json").read_text())
        want = "diverging" if p > critical else "converging"
        labels = [s["classification"] for s in summary["scan"]]
        expect = ["diverging" if q > critical else "converging" for q in scan]
        return Check(summary["report"]["classification"] == want
                     and labels == expect, None, f"{labels}")
    return check


def _interval_perimeter_check(length: float, ns: list[float]):
    def check(out: Path) -> Check:
        ok, worst = True, 0.0
        for row in _read_csv(out / "results.csv"):
            n = float(row["n"])
            if row["method"] == "bbm":
                exact = O.interval_energy(O.Kernel("gaussian", 1, n), length, 1.0) \
                    / O.gamma_const(1, 1.0)
            else:
                exact = O.interval_degiorgi(n, length)
            err = _rel(float(row["value"]), exact)
            worst = max(worst, err)
            ok &= err <= PERIMETER_RTOL
        return Check(ok, worst)
    return check


def _bv_cli_check(height: float, x: float, ks):
    def check(out: Path) -> Check:
        rows = _read_csv(out / "results.csv")
        summary = json.loads((out / "summary.json").read_text())
        worst = 0.0
        for row, k in zip(rows, ks):
            exact = O.density_1d(O.Kernel("indicator", 1, 2.0 ** -k),
                                 _mixed_u(height), x, 1.0, jumps=(0.0,))
            worst = max(worst, _rel(float(row["value"]), exact))
        final = _rel(float(rows[-1]["value"]), 4.0 * abs(x))
        return Check(summary["report"]["classification"] == "converging"
                     and final < BV_LIMIT_RTOL and len(rows) == len(ks), worst)
    return check


def _linear_sweep_check(a: float):
    def check(out: Path) -> Check:
        exact = O.linear_density(2, 1.0, [a, 0.0])
        errs = [_rel(float(r["value"]), exact) for r in _read_csv(out / "results.csv")]
        return Check(bool(errs) and max(errs) <= LINEAR_RTOL, max(errs))
    return check


def _bump_sweep_check(ks):
    def check(out: Path) -> Check:
        rows = _read_csv(out / "results.csv")
        ok, worst = len(rows) == len(ks), 0.0
        for row, k in zip(rows, ks):
            exact = O.bump_p2_energy(O.Kernel("indicator", 1, 2.0 ** -k))
            worst = max(worst, _rel(float(row["value"]), exact))
            ok &= abs(float(row["value"]) - exact) <= BV_ENERGY_ATOL
        return Check(ok, worst)
    return check


def _energy_cli_check(p: float):
    kern = O.Kernel("indicator", 2, 0.125)

    def check(out: Path) -> Check:
        value = float(_read_csv(out / "results.csv")[0]["value"])
        if p == 2.0:
            exact = O.bump_p2_energy(kern)
            return Check(_rel(value, exact) <= STUDY_RTOL, _rel(value, exact))
        return Check(_rel(value, 4.0 * math.pi ** 1.5) <= STUDY_RTOL)
    return check


def _constants_check(d: int):
    exact = {"gamma_1": O.gamma_const(d, 1.0),
             "gaussian_norm": O.gaussian_norm(d),
             "bbm_perimeter": O.gamma_const(d, 1.0) / (2.0 * O.gaussian_norm(d)),
             "degiorgi": O.degiorgi_norm(d)}

    def check(out: Path) -> Check:
        ok, worst = True, 0.0
        rows = _read_csv(out / "results.csv")
        for row in rows:
            err = _rel(float(row["value"]), exact[row["name"]])
            worst = max(worst, err)
            ok &= err <= CONST_RTOL[row["name"]]
        return Check(ok and len(rows) == len(exact), worst)
    return check


class CliSuite:
    """Eleven CLI configurations, each run twice in-process.

    An op's value is the bytes of its results.csv; the two runs of one
    configuration must be byte-identical."""

    def __init__(self, out_root: Path):
        self.out_root = out_root
        self.counter = 0

    def reset(self):
        shutil.rmtree(self.out_root, ignore_errors=True)

    def _op(self, kind, argv, check, *, binary=False, p=None, mollifier=None):
        ops = []
        for twin in range(2):
            self.counter += 1
            out = self.out_root / f"{self.counter:06d}"
            args = list(argv) + [f"--out={out}"]

            def run(args=args, out=out):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(args)
                if code != 0:
                    raise RuntimeError(f"bbmlab {' '.join(args)} exited {code}")
                return (out / "results.csv").read_bytes()

            ops.append(Op(kind, run, lambda v, out=out: check(out), binary, p,
                          mollifier, twin=twin))
        return ops

    def __call__(self, rng, c):
        ops = []
        s1, s2 = (int(v) for v in rng.integers(0, 2**31, size=2))
        ops += self._op("maximal-weak11-d1",
                        ["maximal", "--check", "weak11", "--fields", "5",
                         "--d", "1", f"--seed={s1}"], _maximal_check(s1, 1, 5, 256))
        ops += self._op("maximal-weak11-d2",
                        ["maximal", "--check", "weak11", "--fields", "2", "--d", "2",
                         f"--seed={s2}", "--eps=0.3,0.6,0.9"],
                        _maximal_check(s2, 2, 2, 64))
        for d, p, scan in ((2, 3.0, [1.5, 1.9, 2.1, 3.0]),
                           (3, 2.0, [1.4, 1.6])):
            # probes in the admissible annulus 1/4 < |x| < 1/2
            x = rng.uniform(0.3, 0.45) * _unit(rng, d)
            ops += self._op(f"pathology-scan-d{d}",
                            ["pathology", f"--d={d}", f"--p={p!r}", "--delta=0.1",
                             "--probe=" + ",".join(repr(float(t)) for t in x),
                             "--scan=" + ",".join(repr(q) for q in scan)],
                            _pathology_check(d, p, scan), p=p, mollifier="powerlaw")
        a = float(rng.uniform(-0.5, 0.0))
        length = float(rng.uniform(0.6, 1.2))
        ns = [256.0, 1024.0]
        ops += self._op("perimeter-interval-ladder",
                        ["perimeter", f"--shape=interval:{a!r},{a + length!r}",
                         "--n=256,1024", "--method=both"],
                        _interval_perimeter_check(length, ns), binary=True, p=1.0,
                        mollifier="gaussian")
        height = float(rng.uniform(0.5, 1.5))
        x = float(rng.uniform(0.3, 0.7))
        ops += self._op("bv-mixed-ladder",
                        ["bv", f"--field=mixed:{height!r}@0", f"--probe={x!r}",
                         "--ladder=1:8"], _bv_cli_check(height, x, range(1, 9)),
                        p=1.0, mollifier="indicator")
        va = float(rng.uniform(0.5, 3.0))
        y = [float(t) for t in rng.uniform(-0.5, 0.5, size=2)]
        ops += self._op("sweep-density-linear",
                        ["sweep", "--experiment=density", f"--field=linear:{va!r},0",
                         "--mollifier=indicator", "--ladder=1:6", "--p=1",
                         f"--probe={y[0]!r},{y[1]!r}"], _linear_sweep_check(va),
                        p=1.0, mollifier="indicator")
        ops += self._op("sweep-energy-bump",
                        ["sweep", "--experiment=energy", "--field=bump:1",
                         "--mollifier=indicator", "--ladder=1:5", "--p=2"],
                        _bump_sweep_check(range(1, 6)), p=2.0, mollifier="indicator")
        d = 1 + c % 3
        ops += self._op("constants", ["constants", f"--d={d}"], _constants_check(d))
        # two numpy-bound 2D energies put the median op on a steady kind
        for p in (1.0, 2.0):
            ops += self._op(f"energy-bump-d2-p{p:g}",
                            ["energy", "--field=bump:2", "--mollifier=indicator:0.125",
                             f"--p={p!r}", "--x-resolution=24"],
                            _energy_cli_check(p), p=p, mollifier="indicator")
        return ops


WORKLOADS = {
    "probe-ladder": probe_ladder,
    "energy-1d": energy_1d,
    "energy-nd": energy_nd,
    "cli-suite": None,   # built per run: it needs an output directory
}

