"""Experiment runner.

Each command resolves its configuration (defaults < --config JSON <
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


def parse_numbers(spec, what: str, *, sep: str = ",", kind=float) -> list:
    """The numbers of a ``sep``-separated list, such as a comma list of
    ``--n`` values; a malformed or non-finite entry is a usage error."""
    try:
        values = [kind(t) for t in str(spec).split(sep)]
    except ValueError:
        raise UsageError(f"malformed {what} {spec!r}: expected numbers "
                         f"separated by {sep!r}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{what} takes finite numbers, got {spec!r}")
    return values


def parse_ladder(kind: str, spec: str, d: int) -> list[mollifiers.RadialMollifier]:
    """Ladders: 'K0:K1' dyadic exponents (eps or delta = 2^-k, n = 2^k),
    or an explicit comma list of parameters."""
    if kind not in ("indicator", "gaussian", "powerlaw"):
        raise UsageError(
            f"ladders take a bare family kind, not {kind!r}; the parameters "
            f"come from --ladder")
    if ":" in spec:
        ends = parse_numbers(spec, "--ladder", sep=":", kind=int)
        if len(ends) != 2:
            raise UsageError(f"malformed --ladder {spec!r}: a dyadic ladder is K0:K1")
        ks = list(range(ends[0], ends[1] + 1))
        params = [2.0 ** k if kind == "gaussian" else 2.0 ** (-k) for k in ks]
    else:
        params = parse_numbers(spec, "--ladder")
    if len(params) < 3:
        raise UsageError("a ladder needs at least 3 entries")
    return [parse_mollifier(f"{kind}:{p!r}", d) for p in params]


def parse_probes(spec: str, d: int, ladder: str | None = None) -> np.ndarray:
    """Probes: semicolon-separated points, each a comma list of coordinates.
    A ``ladder`` (named for the message) follows one point: more is a
    usage error, not a silent drop of the rest."""
    if not spec.strip():
        raise UsageError("at least one probe point is required")
    if ladder and ";" in spec:
        raise UsageError(f"{ladder} follows one probe point along its ladder, "
                         f"got {spec.count(';') + 1}")
    pts = []
    for chunk in spec.split(";"):
        coords = parse_numbers(chunk, "--probe")
        if len(coords) != d:
            raise UsageError(
                f"probe {chunk!r} has {len(coords)} coordinates, field has {d}")
        pts.append(coords)
    return np.asarray(pts)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    # None is empty; inf, -inf and nan format as their repr
    return "" if x is None else format(x, ".17g") if isinstance(x, float) else str(x)


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

# the keys only some sweep experiments read, with their defaults
SWEEP_OPTIONS = {
    "energy": {"p": 1.0},
    "density": {"p": 1.0, "probes": "0.2"},
    "remainder": {"p": 1.0, "probes": "0.2"},
    "sobolev-residual": {"candidate": "zero"},
}
SCHEME_KEYS = ("sphere_order", "radial_level", "x_resolution")


def _scheme(cfg: dict) -> QuadratureScheme:
    return QuadratureScheme(**{key: cfg.get(key) for key in SCHEME_KEYS})


def _refuse_unread(cfg: dict, reads, chosen: str) -> None:
    """Refuse a set key that the chosen run does not read: a scheme key
    or, in a sweep, another experiment's option."""
    command = cfg["command"]
    for key in command_keys(command):
        if key not in DEFAULTS[command] and key not in reads \
                and cfg.get(key) is not None:
            raise UsageError(f"{chosen} does not read {_flag(key)}")


def _route_reads(dimension: int | None, routes) -> set:
    """The scheme keys that any of ``routes`` reads on a field of
    ``dimension``, or of any dimension for None
    (``functionals.ROUTE_READS``); a 1D field has no sphere order."""
    reads = {key for route in routes for key in functionals.ROUTE_READS[route]}
    if dimension == 1:
        reads.discard("sphere_order")
    return reads


def run_constants(cfg, outdir, started):
    table = constants.ConstantTable(cfg["d"])
    rows = [(name, value, tag) for name, (value, tag)
            in sorted(table.entries.items())]
    for name, value, tag in rows:
        print(f"{name:16s} {_fmt(value):>22s}  [{tag}]")
    emit(outdir, cfg, ["name", "value", "provenance"], rows,
         {"table": table.to_json()}, started)
    return 0


def run_density(cfg, outdir, started):
    field = parse_field(cfg["field"])
    _refuse_unread(cfg, _route_reads(field.dimension, ["polar"]),
                   f"a {field.dimension}D density")
    m = parse_mollifier(cfg["mollifier"], field.dimension)
    probes = parse_probes(cfg["probes"], field.dimension)
    scheme = _scheme(cfg)
    op = (functionals.remainder_density if cfg["command"] == "remainder"
          else functionals.pointwise_density)
    values = op(DensityRequest(field, m, cfg["p"], probes, scheme)).tolist()
    rows = [(i, ";".join(_fmt(float(c)) for c in x), v)
            for i, (x, v) in enumerate(zip(probes, values))]
    emit(outdir, cfg, ["index", "probe", "value"], rows,
         {"values": values}, started)
    return 0


def _bounded_field(spec: str, what: str):
    """The field of ``spec``, refused unless it has a bounded support box:
    ``what``, an integrated functional, integrates over that box."""
    field = parse_field(spec)
    if field.support_box() is None:
        raise UsageError(f"{what} integrates over a bounded support: "
                         f"--field {spec!r} has none")
    return field


def run_energy(cfg, outdir, started):
    field = _bounded_field(cfg["field"], "the energy")
    m = parse_mollifier(cfg["mollifier"], field.dimension)
    route = functionals.energy_route(field, cfg["p"], m)
    _refuse_unread(cfg, _route_reads(field.dimension, [route]),
                   f"the {route} route of a {field.dimension}D energy")
    value = functionals.energy(field, m, cfg["p"], _scheme(cfg))
    emit(outdir, cfg, ["value"], [(value,)], {"value": value, "route": route},
         started)
    return 0


def run_sweep(cfg, outdir, started):
    kind = cfg["experiment"]
    cfg.update({k: v for k, v in SWEEP_OPTIONS[kind].items() if cfg.get(k) is None})
    if kind in ("energy", "sobolev-residual"):
        field = _bounded_field(cfg["field"], f"the {kind} sweep")
    else:
        field = parse_field(cfg["field"])
    d = field.dimension
    ladder = parse_ladder(cfg["mollifier"], cfg["ladder"], d)
    if kind == "energy":
        routes = [functionals.energy_route(field, cfg["p"], m) for m in ladder]
    elif kind == "sobolev-residual":
        cand = fields.gradient_candidate(field) if cfg["candidate"] == "gradient" else None
        routes = [functionals.residual_route(field, cand)]
    else:
        routes = ["polar"]
    # a key is read when the experiment or any rung's route reads it
    named = "/".join(dict.fromkeys(routes))
    _refuse_unread(cfg, _route_reads(d, routes) | set(SWEEP_OPTIONS[kind]),
                   f"--experiment {kind} on the {named} route")
    scheme = _scheme(cfg)
    summary = {}
    if kind == "energy":
        report = functionals.energy_study(field, ladder, cfg["p"], scheme)
        # one name when every rung takes the same route, else one a rung
        summary["route"] = routes[0] if len(set(routes)) == 1 else routes
    elif kind in ("density", "remainder"):
        probe = parse_probes(cfg["probes"], d, f"--experiment {kind}")[0]
        op = (functionals.remainder_density if kind == "remainder"
              else functionals.pointwise_density)
        limit = 0.0     # a remainder's
        if kind == "density":
            g = np.linalg.norm(field.gradient_many(probe.reshape(1, -1))[0])
            limit = constants.gamma(d, cfg["p"]) * g ** cfg["p"]
        report = functionals.convergence_study(
            lambda mm: op(DensityRequest(field, mm, cfg["p"], probe, scheme)),
            ladder, limit=limit)
    else:
        report = functionals.convergence_study(
            lambda mm: functionals.sobolev_residual(field, mm, cand, scheme),
            ladder)
        summary["route"] = routes[0]
    summary["report"] = report.to_json()
    emit(outdir, cfg, REPORT_HEADER, report.rows(), summary, started)
    return 0


def run_bv(cfg, outdir, started):
    field = parse_field(cfg["field"])
    ladder = parse_ladder(cfg["mollifier"], cfg["ladder"], 1)
    probe = parse_probes(cfg["probes"], 1, "bv")[0]
    report = functionals.bv_pointwise_limit(field, ladder, probe, _scheme(cfg))
    emit(outdir, cfg, REPORT_HEADER, report.rows(),
         {"report": report.to_json()}, started)
    return 0


def run_perimeter(cfg, outdir, started):
    E = parse_field(cfg["shape"])
    if not (isinstance(E, fields.IndicatorSet) and E.is_bounded):
        raise UsageError("--shape must name a bounded set: an interval, ball or box")
    methods = ["bbm", "degiorgi"] if cfg["method"] == "both" else [cfg["method"]]
    ns = parse_numbers(cfg["n"], "--n")
    # building the gaussians checks every n, for both methods; the BBM
    # perimeter is the energy at p = 1 with them
    kernels = [mollifiers.gaussian(n, E.dimension) for n in ns]
    routes = ([functionals.energy_route(E, 1.0, m) for m in kernels]
              if "bbm" in methods else [])
    _refuse_unread(cfg, _route_reads(E.dimension, routes),
                   f"--method {cfg['method']} on {cfg['shape']!r}")
    rows, estimates = [], []
    for n in ns:
        for method in methods:
            est = perimeter_mod.estimate(E, n, method, scheme=_scheme(cfg))
            estimates.append(est.to_json())
            rows.append((n, method, est.value, est.exact, est.rel_error))
    emit(outdir, cfg, ["n", "method", "value", "exact", "rel_error"], rows,
         {"estimates": estimates}, started)
    return 0


def run_pathology(cfg, outdir, started):
    case = pathology_mod.PathologyCase(cfg["d"], cfg["p"], cfg["delta"])
    probe = parse_probes(cfg["probes"], cfg["d"], "pathology")[0]
    report = pathology_mod.divergence_probe(case, probe)
    scan = None
    if cfg.get("scan"):
        ps = parse_numbers(cfg["scan"], "--scan")
        scan = pathology_mod.threshold_scan(cfg["d"], cfg["delta"], probe, ps)
    emit(outdir, cfg, REPORT_HEADER, report.rows(),
         {"report": report.to_json(),
          "scan": scan and [{"p": p, "classification": c} for p, c in scan]},
         started)
    return 0


def run_maximal(cfg, outdir, started):
    d = cfg["d"]
    res = {1: 256, 2: 64}.get(d)    # the cells a side of the test fields
    if res is None:
        raise UsageError(f"maximal checks run in 1 or 2 dimensions, not --d {d!r}")
    if cfg["fields"] < 1:
        raise UsageError(f"--fields must be at least 1, got {cfg['fields']!r}")
    if cfg["seed"] < 0:
        raise UsageError(f"--seed must be at least 0, got {cfg['seed']!r}")
    rng = np.random.default_rng(cfg["seed"])
    eps_ladder = parse_numbers(cfg["eps"], "--eps")
    rows, all_pass = [], True
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
    "constants": (run_constants, "print the constant table"),
    "density": (run_density, "pointwise density at probes"),
    "remainder": (run_density, "first-order remainder density at probes"),
    "energy": (run_energy, "global nonlocal energy"),
    "sweep": (run_sweep, "functional along a mollifier ladder"),
    "bv": (run_bv, "BV pointwise density ladder at a probe"),
    "perimeter": (run_perimeter, "perimeter estimators vs exact"),
    "pathology": (run_pathology, "divergence lower-bound ladder"),
    "maximal": (run_maximal, "maximal-function property sweeps"),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

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

# the routes of functionals.ROUTE_READS that a command's runs can take:
# a BBM perimeter is the energy of a bounded set at p = 1, and no De
# Giorgi perimeter reads a scheme key
ROUTES = {
    "density": ("polar",),
    "remainder": ("polar",),
    "energy": ("jump", "box", "covariogram", "multiplier", "lag", "sliced"),
    "sweep": tuple(functionals.ROUTE_READS),
    "bv": ("polar",),
    "perimeter": ("jump", "box", "covariogram"),
}


def finite_float(text: str) -> float:
    """A float flag's value: a non-finite one is a usage error."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


# each config key's flag: its type, choices and help
FLAGS = {
    "d": {"type": int},
    "p": {"type": finite_float},
    "delta": {"type": finite_float},
    "field": {"type": str},
    "shape": {"type": str},
    "mollifier": {"type": str, "help": "a spec, such as indicator:0.25; on a "
                                       "ladder a bare kind, such as indicator"},
    "probes": {"type": str, "help": "semicolon-separated points"},
    "ladder": {"type": str, "help": "'K0:K1' dyadic or explicit comma list"},
    "experiment": {"type": str,
                   "choices": ["density", "remainder", "energy", "sobolev-residual"]},
    "candidate": {"type": str, "choices": ["zero", "gradient"]},
    "n": {"type": str, "help": "concentration parameter, or comma ladder"},
    "method": {"type": str, "choices": ["bbm", "degiorgi", "both"]},
    "scan": {"type": str, "help": "comma list of exponents for a threshold scan"},
    "check": {"type": str, "choices": ["weak11"]},
    "fields": {"type": int},
    "eps": {"type": str, "help": "comma ladder of superlevel thresholds"},
    "seed": {"type": int, "help": "seed of the random test fields"},
    **dict.fromkeys(SCHEME_KEYS, {"type": int}),
}


def _flag(key: str) -> str:
    return "--probe" if key == "probes" else "--" + key.replace("_", "-")


def command_keys(command: str) -> list:
    """The config keys of ``command``, one flag each: its defaults, the
    options of every sweep experiment, and the scheme keys of the routes
    its runs can take (``ROUTES``; bv's fields are 1D)."""
    keys = list(DEFAULTS[command])
    if command == "sweep":
        keys += sorted({key for options in SWEEP_OPTIONS.values() for key in options})
    reads = _route_reads(1 if command == "bv" else None, ROUTES.get(command, ()))
    return keys + [key for key in SCHEME_KEYS if key in reads]


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command: a flag for each of its config keys,
    plus --config and --out."""
    parser = argparse.ArgumentParser(prog=f"bbmlab {command}",
                                     description=COMMANDS[command][1])
    for key in command_keys(command):
        parser.add_argument(_flag(key), dest=key, **FLAGS[key])
    parser.add_argument("--config", type=str,
                        help="JSON file with the same keys as the flags")
    parser.add_argument("--out", type=str,
                        help="output directory (default runs/<command>)")
    return parser


def _usage(argv: list) -> None:
    """Exit through argparse on a first word that is no command: 0 after
    printing the command list for --help, 2 otherwise."""
    parser = argparse.ArgumentParser(
        prog="bbmlab", description="nonlocal functional experiments and diagnostics",
        epilog="commands:\n" + "\n".join(f"  {name:10s}  {hlp}" for name, (_, hlp)
                                         in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="then its own flags: bbmlab <command> --help")
    parser.parse_args(argv[:1])


def _flag_value(key: str, value):
    """A config value parsed as its flag parses its argument: through the
    flag's ``type``, given the value's text, and its ``choices``."""
    spec = FLAGS[key]
    try:
        parsed = spec["type"](value if isinstance(value, str) else json.dumps(value))
        if parsed in spec.get("choices", [parsed]):
            return parsed
    except ValueError:
        pass
    raise UsageError(f"config key {key!r}: {value!r} is not a valid "
                     f"{_flag(key)} value")


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """The command's defaults < the --config values < explicit flags.
    A config value is parsed as its flag (``_flag_value``), a null is
    absent."""
    cfg = {"command": command, **DEFAULTS[command]}
    keys = command_keys(command)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("the config file must hold a JSON object")
        # the keys are the command's flags; --config and --out are read
        # from the command line alone
        unknown = set(loaded) - set(keys) - {"command"}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if loaded.get("command", command) != command:
            raise UsageError(
                f"config is for command {loaded['command']!r}, not {command!r}")
        cfg.update({k: _flag_value(k, v) for k, v in loaded.items()
                    if k != "command" and v is not None})
    cfg.update({k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    return cfg


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        _usage(argv)
    command = argv[0]
    args = build_parser(command).parse_args(argv[1:])
    started = time.monotonic()
    try:
        cfg = resolve_config(command, args)
        outdir = Path(args.out or f"runs/{command}")
        return COMMANDS[command][0](cfg, outdir, started)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BBMLabError as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc),
                      "command": command}
        # the sum an EvaluationError failed in: polar, lag or multiplier
        if getattr(exc, "stage", None) is not None:
            diagnostic["stage"] = exc.stage
        # the failing quadrature node, where the error carries one; the
        # integrand value is never finite there, so it goes by its repr
        for key in ("value", "centre", "r", "sigma"):
            v = getattr(exc, key, None)
            if v is not None:
                v = np.asarray(v, dtype=float).tolist()
                diagnostic[key] = repr(v) if key == "value" else v
        print(json.dumps(diagnostic, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
