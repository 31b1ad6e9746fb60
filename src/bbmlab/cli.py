"""Experiment runner.

Each subcommand resolves its configuration (defaults < --config JSON <
explicit flags), runs the experiment, and writes three artifacts into
the output directory:

    resolved-config.json   every parameter made explicit
    results.csv            the data (byte-identical across reruns)
    summary.json           values, limits, classification, wall time

Exit codes: 0 success, 1 numerical failure (diagnostic JSON on stderr),
2 usage or schema error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import constants, fields, functionals, maximal, mollifiers
from . import pathology as pathology_mod
from . import perimeter as perimeter_mod
from .errors import BBMLabError
from .functionals import DensityRequest, QuadratureScheme


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# spec mini-language
# ---------------------------------------------------------------------------

def parse_field(spec: str):
    """Field specs: linear:V..., bump:d, step, mixed:height@loc, interval:a,b,
    ball:c...,R, box:lo...;hi..., halfspace:n...;offset."""
    name, _, rest = spec.partition(":")
    try:
        if name == "linear":
            return fields.linear_field([float(t) for t in rest.split(",")])
        if name == "bump":
            return fields.gaussian_bump(int(rest or 1))
        if name == "step":
            return fields.step_field()
        if name == "mixed":
            height, _, loc = rest.partition("@")
            smooth = fields.AnalyticField(
                1, lambda q: q[:, 0] ** 2, lambda q: 2 * q,
                support_radius=6.0, label="x^2")
            return fields.BVField1D(smooth, [(float(loc or 0), float(height))])
        if name == "interval":
            a, b = (float(t) for t in rest.split(","))
            return fields.interval_set(a, b)
        if name == "ball":
            parts = [float(t) for t in rest.split(",")]
            return fields.ball_set(parts[:-1], parts[-1])
        if name == "box":
            lo, hi = rest.split(";")
            return fields.box_set([float(t) for t in lo.split(",")],
                                  [float(t) for t in hi.split(",")])
        if name == "halfspace":
            nrm, off = rest.split(";")
            return fields.half_space_set([float(t) for t in nrm.split(",")],
                                         float(off))
    except (ValueError, IndexError) as exc:
        raise UsageError(f"malformed field spec {spec!r}: {exc}") from None
    raise UsageError(f"unknown field kind {name!r}")


def parse_mollifier(spec: str, d: int) -> mollifiers.RadialMollifier:
    """Mollifier specs: indicator:EPS, gaussian:N, powerlaw:DELTA[:raw]."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "indicator":
            return mollifiers.indicator(float(parts[1]), d)
        if kind == "gaussian":
            return mollifiers.gaussian(float(parts[1]), d)
        if kind == "powerlaw":
            raw = len(parts) > 2 and parts[2] == "raw"
            return mollifiers.power_law(float(parts[1]), d, normalized=not raw)
    except (ValueError, IndexError) as exc:
        raise UsageError(f"malformed mollifier spec {spec!r}: {exc}") from None
    raise UsageError(f"unknown mollifier kind {kind!r}")


def parse_ladder(kind: str, spec: str, d: int) -> list[mollifiers.RadialMollifier]:
    """Ladders: 'K0:K1' dyadic exponents (eps or delta = 2^-k, n = 2^k),
    or an explicit comma list of parameters."""
    if kind not in ("indicator", "gaussian", "powerlaw"):
        raise UsageError(
            f"ladders take a bare family kind, not {kind!r}; the parameters "
            f"come from --ladder")
    if ":" in spec:
        k0, k1 = (int(t) for t in spec.split(":"))
        ks = list(range(k0, k1 + 1))
        params = [2.0 ** k if kind == "gaussian" else 2.0 ** (-k) for k in ks]
    else:
        params = [float(t) for t in spec.split(",")]
    if len(params) < 3:
        raise UsageError("a ladder needs at least 3 entries")
    return [parse_mollifier(f"{kind}:{p!r}", d) for p in params]


def parse_probes(spec: str, d: int) -> np.ndarray:
    """Probes: semicolon-separated points, each a comma list of coordinates."""
    if not spec.strip():
        raise UsageError("at least one probe point is required")
    pts = []
    for chunk in spec.split(";"):
        coords = [float(t) for t in chunk.split(",")]
        if len(coords) != d:
            raise UsageError(
                f"probe {chunk!r} has {len(coords)} coordinates, field has {d}")
        pts.append(coords)
    return np.asarray(pts)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def emit(outdir: Path, config: dict, header, rows, summary: dict,
         started: float) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "resolved-config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_csv(outdir / "results.csv", header, rows)
    summary = dict(summary)
    summary["wall_time_s"] = time.monotonic() - started
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


REPORT_HEADER = ["index", "param", "value", "limit", "abs_error", "rel_error"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _scheme(cfg: dict) -> QuadratureScheme:
    return QuadratureScheme(sphere_order=cfg.get("sphere_order"),
                            radial_level=cfg.get("radial_level"),
                            x_resolution=cfg.get("x_resolution"))


# the keys only some sweep experiments read, with their defaults
SWEEP_OPTIONS = {
    "energy": {"p": 1.0},
    "density": {"p": 1.0, "probes": "0.2"},
    "remainder": {"p": 1.0, "probes": "0.2"},
    "sobolev-residual": {"candidate": "zero"},
}
# the keys only one perimeter method reads
PERIMETER_OPTIONS = {"bbm": ("sphere_order", "radial_level", "x_resolution"),
                     "degiorgi": ("grid_resolution",)}


def _refuse_unread(cfg: dict, options, reads, chosen: str) -> None:
    """Refuse a set key among ``options`` that the chosen run does not read."""
    for key in options:
        if key not in reads and cfg.get(key) is not None:
            flag = "--probe" if key == "probes" else "--" + key.replace("_", "-")
            raise UsageError(f"{chosen} does not read {flag}")


def _refuse_unread_scheme(cfg: dict, field, *, energy: bool = False) -> None:
    """Refuse the quadrature flags that the field's route does not read.

    ``energy`` says the run integrates the field's energy: for an
    interval or a ball that is one radial sum, with no x-grid and no
    sphere rule.  Otherwise a 1D field has no x-grid (its energies use
    the jump-aware axis rule) and no sphere order (its sphere is
    {-1, +1}).
    """
    if energy and functionals.radial_covariogram(field) is not None:
        why = ("the energy of an interval or a ball is one radial sum over "
               "its covariogram; it reads only --radial-level")
        unread = {"x_resolution": why, "sphere_order": why}
    elif field.dimension == 1:
        unread = {"x_resolution": "1D energies use the jump-aware axis rule "
                                  "and cannot honour it",
                  "sphere_order": "the 1D sphere is always {-1, +1}"}
    else:
        return
    for key, why in unread.items():
        if cfg.get(key) is not None:
            raise UsageError(f"--{key.replace('_', '-')} is not read here: {why}")


def run_constants(cfg, outdir, started):
    table = constants.ConstantTable(cfg["d"])
    rows = [(name, value, tag) for name, (value, tag)
            in sorted(table.entries.items())]
    for name, value, tag in rows:
        print(f"{name:16s} {_fmt(value):>22s}  [{tag}]")
    emit(outdir, cfg, ["name", "value", "provenance"], rows,
         {"table": table.to_json()}, started)
    return 0


def run_density(cfg, outdir, started, *, remainder=False):
    field = parse_field(cfg["field"])
    _refuse_unread_scheme(cfg, field)
    m = parse_mollifier(cfg["mollifier"], field.dimension)
    probes = parse_probes(cfg["probes"], field.dimension)
    scheme = _scheme(cfg)
    op = functionals.remainder_density if remainder else functionals.pointwise_density
    values = op(DensityRequest(field, m, cfg["p"], probes, scheme)).tolist()
    rows = [(i, ";".join(_fmt(float(c)) for c in x), v)
            for i, (x, v) in enumerate(zip(probes, values))]
    emit(outdir, cfg, ["index", "probe", "value"], rows,
         {"values": values}, started)
    return 0


def run_energy(cfg, outdir, started):
    field = parse_field(cfg["field"])
    _refuse_unread_scheme(cfg, field, energy=True)
    m = parse_mollifier(cfg["mollifier"], field.dimension)
    value = functionals.energy(field, m, cfg["p"], _scheme(cfg))
    emit(outdir, cfg, ["value"], [(value,)], {"value": value}, started)
    return 0


def run_sweep(cfg, outdir, started):
    kind = cfg["experiment"]
    if kind not in SWEEP_OPTIONS:
        raise UsageError(f"unknown sweep experiment {kind!r}")
    options = {key for reads in SWEEP_OPTIONS.values() for key in reads}
    _refuse_unread(cfg, sorted(options), SWEEP_OPTIONS[kind],
                   f"--experiment {kind}")
    cfg.update({k: v for k, v in SWEEP_OPTIONS[kind].items() if cfg.get(k) is None})
    field = parse_field(cfg["field"])
    d = field.dimension
    _refuse_unread_scheme(cfg, field, energy=kind == "energy")
    ladder = parse_ladder(cfg["mollifier"], cfg["ladder"], d)
    scheme = _scheme(cfg)
    if kind == "energy":
        report = functionals.energy_study(field, ladder, cfg["p"], scheme)
    elif kind in ("density", "remainder"):
        probe = parse_probes(cfg["probes"], d)[0]
        op = (functionals.remainder_density if kind == "remainder"
              else functionals.pointwise_density)
        limit = None
        if kind == "density":
            g = np.linalg.norm(field.gradient_many(probe.reshape(1, -1))[0])
            limit = constants.gamma(d, cfg["p"]) * g ** cfg["p"]
        if kind == "remainder":
            limit = 0.0
        report = functionals.convergence_study(
            lambda mm: op(DensityRequest(field, mm, cfg["p"], probe, scheme)),
            ladder, limit=limit)
    else:
        cand = None
        if cfg["candidate"] == "gradient":
            cand = fields.gradient_candidate(field)
        report = functionals.convergence_study(
            lambda mm: functionals.sobolev_residual(field, mm, cand, scheme),
            ladder)
    emit(outdir, cfg, REPORT_HEADER, report.rows(),
         {"report": report.to_json()}, started)
    return 0


def run_bv(cfg, outdir, started):
    field = parse_field(cfg["field"])
    _refuse_unread_scheme(cfg, field)
    ladder = parse_ladder(cfg["mollifier"], cfg["ladder"], 1)
    probe = parse_probes(cfg["probes"], 1)[0]
    report = functionals.bv_pointwise_limit(field, ladder, probe, _scheme(cfg))
    emit(outdir, cfg, REPORT_HEADER, report.rows(),
         {"report": report.to_json()}, started)
    return 0


def run_perimeter(cfg, outdir, started):
    E = parse_field(cfg["shape"])
    if not isinstance(E, fields.IndicatorSet):
        raise UsageError("--shape must name an indicator set")
    methods = ["bbm", "degiorgi"] if cfg["method"] == "both" else [cfg["method"]]
    _refuse_unread(cfg, PERIMETER_OPTIONS["bbm"] + PERIMETER_OPTIONS["degiorgi"],
                   [key for m in methods for key in PERIMETER_OPTIONS.get(m, ())],
                   f"--method {cfg['method']}")
    _refuse_unread_scheme(cfg, E, energy="bbm" in methods)
    ns = ([float(t) for t in str(cfg["n"]).split(",")]
          if isinstance(cfg["n"], str) else [float(cfg["n"])])
    rows, estimates = [], []
    for n in ns:
        for method in methods:
            est = perimeter_mod.estimate(
                E, n, method, scheme=_scheme(cfg),
                resolution=cfg.get("grid_resolution"))
            estimates.append(est.to_json())
            rows.append((n, method, est.value, est.exact, est.rel_error))
    emit(outdir, cfg, ["n", "method", "value", "exact", "rel_error"], rows,
         {"estimates": estimates}, started)
    return 0


def run_pathology(cfg, outdir, started):
    case = pathology_mod.PathologyCase(cfg["d"], cfg["p"], cfg["delta"])
    probe = parse_probes(cfg["probes"], cfg["d"])[0]
    report = pathology_mod.divergence_probe(case, probe)
    scan = None
    if cfg.get("scan"):
        ps = [float(t) for t in cfg["scan"].split(",")]
        scan = pathology_mod.threshold_scan(cfg["d"], cfg["delta"], probe, ps)
    emit(outdir, cfg, REPORT_HEADER, report.rows(),
         {"report": report.to_json(),
          "scan": scan and [{"p": p, "classification": c} for p, c in scan]},
         started)
    return 0


def run_maximal(cfg, outdir, started):
    if cfg["check"] != "weak11":
        raise UsageError(f"unknown maximal check {cfg['check']!r}")
    d = cfg["d"]
    rng = np.random.default_rng(cfg["seed"])
    eps_ladder = [float(t) for t in cfg["eps"].split(",")]
    res = {1: 256, 2: 64}[d]
    rows = []
    all_pass = True
    for fid in range(cfg["fields"]):
        values = rng.uniform(0.0, 1.0, size=(res,) * d)
        f = fields.GridField(d, 2.0, values)
        for eps, measure, bound in maximal.weak11_check(f, eps_ladder):
            ok = measure <= bound
            all_pass = all_pass and ok
            rows.append((fid, eps, measure, bound, ok))
    emit(outdir, cfg, ["field_id", "eps", "measure", "bound", "pass"], rows,
         {"all_pass": all_pass}, started)
    return 0


COMMANDS = {
    "constants": run_constants,
    "density": lambda cfg, out, t0: run_density(cfg, out, t0),
    "remainder": lambda cfg, out, t0: run_density(cfg, out, t0, remainder=True),
    "energy": run_energy,
    "sweep": run_sweep,
    "bv": run_bv,
    "perimeter": run_perimeter,
    "pathology": run_pathology,
    "maximal": run_maximal,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbmlab",
        description="nonlocal functional experiments and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, scheme=False, x_grid=False):
        # a flag is registered only on the commands that read it
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with the same keys as the flags")
        sp.add_argument("--out", type=str, default=None,
                        help="output directory (default runs/<command>)")
        if scheme:
            sp.add_argument("--sphere-order", dest="sphere_order", type=int,
                            default=None)
            sp.add_argument("--radial-level", dest="radial_level", type=int,
                            default=None)
        if x_grid:
            sp.add_argument("--x-resolution", dest="x_resolution", type=int,
                            default=None)

    sp = sub.add_parser("constants", help="print the constant table")
    sp.add_argument("--d", type=int, default=None)
    common(sp)

    for name, hlp in (("density", "pointwise density at probes"),
                      ("remainder", "first-order remainder density at probes")):
        sp = sub.add_parser(name, help=hlp)
        sp.add_argument("--field", type=str, default=None)
        sp.add_argument("--mollifier", type=str, default=None)
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--probe", dest="probes", type=str, default=None,
                        help="semicolon-separated points")
        common(sp, scheme=True)

    sp = sub.add_parser("energy", help="global nonlocal energy")
    sp.add_argument("--field", type=str, default=None)
    sp.add_argument("--mollifier", type=str, default=None)
    sp.add_argument("--p", type=float, default=None)
    common(sp, scheme=True, x_grid=True)

    sp = sub.add_parser("sweep", help="functional along a mollifier ladder")
    sp.add_argument("--experiment", type=str, default=None,
                    choices=["density", "remainder", "energy",
                             "sobolev-residual"])
    sp.add_argument("--field", type=str, default=None)
    sp.add_argument("--mollifier", type=str, default=None,
                    help="family kind: indicator | gaussian | powerlaw")
    sp.add_argument("--ladder", type=str, default=None,
                    help="'K0:K1' dyadic or explicit comma list")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--probe", dest="probes", type=str, default=None)
    sp.add_argument("--candidate", type=str, default=None,
                    choices=["zero", "gradient"])
    common(sp, scheme=True, x_grid=True)

    sp = sub.add_parser("bv", help="BV pointwise density ladder at a probe")
    sp.add_argument("--field", type=str, default=None)
    sp.add_argument("--mollifier", type=str, default=None)
    sp.add_argument("--ladder", type=str, default=None)
    sp.add_argument("--probe", dest="probes", type=str, default=None)
    common(sp, scheme=True)

    sp = sub.add_parser("perimeter", help="perimeter estimators vs exact")
    sp.add_argument("--shape", type=str, default=None)
    sp.add_argument("--n", type=str, default=None,
                    help="concentration parameter, or comma ladder")
    sp.add_argument("--method", type=str, default=None,
                    choices=["bbm", "degiorgi", "both"])
    sp.add_argument("--grid-resolution", dest="grid_resolution", type=int,
                    default=None)
    common(sp, scheme=True, x_grid=True)

    sp = sub.add_parser("pathology", help="divergence lower-bound ladder")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--probe", dest="probes", type=str, default=None)
    sp.add_argument("--scan", type=str, default=None,
                    help="comma list of exponents for a threshold scan")
    common(sp)

    sp = sub.add_parser("maximal", help="maximal-function property sweeps")
    sp.add_argument("--check", type=str, default=None, choices=["weak11"])
    sp.add_argument("--fields", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--eps", type=str, default=None,
                    help="comma ladder of superlevel thresholds")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed of the random test fields")
    common(sp)

    return parser


DEFAULTS = {
    "constants": {"d": 2},
    "density": {"field": "linear:1,0", "mollifier": "indicator:0.25",
                "p": 1.0, "probes": "0,0"},
    "remainder": {"field": "bump:2", "mollifier": "indicator:0.25",
                  "p": 1.0, "probes": "0.3,0.1"},
    "energy": {"field": "step", "mollifier": "indicator:0.25", "p": 1.0},
    # plus the SWEEP_OPTIONS of the chosen experiment
    "sweep": {"experiment": "energy", "field": "step",
              "mollifier": "indicator", "ladder": "1:8"},
    "bv": {"field": "step", "mollifier": "indicator", "ladder": "1:10",
           "probes": "0.3"},
    "perimeter": {"shape": "interval:0,1", "n": "1024", "method": "both"},
    "pathology": {"d": 2, "p": 3.0, "delta": 0.1, "probes": "0.375,0",
                  "scan": None},
    "maximal": {"check": "weak11", "fields": 20, "d": 1, "seed": 7,
                "eps": "0.25,0.5,0.75,1.0"},
}


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    cfg = {"command": command}
    cfg.update(DEFAULTS[command])
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("the config file must hold a JSON object")
        # the keys are the command's defaults and flags
        unknown = set(loaded) - set(cfg) - set(vars(args)) - {"config", "out"}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if loaded.get("command", command) != command:
            raise UsageError(
                f"config is for command {loaded['command']!r}, not {command!r}")
        cfg.update({k: v for k, v in loaded.items() if k != "command"})
    for key, value in vars(args).items():
        if key in ("command", "config", "out") or value is None:
            continue
        cfg[key] = value
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        cfg = resolve_config(args.command, args)
        outdir = Path(args.out or f"runs/{args.command}")
        return COMMANDS[args.command](cfg, outdir, started)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BBMLabError as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc),
                      "command": args.command}
        print(json.dumps(diagnostic, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
