import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bbmlab import constants, functionals as F
from bbmlab.cli import (COMMANDS, DEFAULTS, SWEEP_OPTIONS, build_parser, main,
                        parse_field, parse_ladder, parse_mollifier)
from bbmlab.functionals import DensityRequest

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    return (path / "results.csv").read_text().splitlines()


def read_summary(path):
    with open(path / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_constants_table_contains_gamma(tmp_path):
    out = tmp_path / "run"
    assert main(["constants", "--d", "2", "--out", str(out)]) == 0
    rows = {line.split(",")[0]: line.split(",")[1] for line in read_csv(out)[1:]}
    assert float(rows["gamma_1"]) == 4.0
    assert (out / "resolved-config.json").exists()


def test_density_linear_example(tmp_path):
    out = tmp_path / "run"
    code = main(["density", "--field", "linear:3,0", "--mollifier",
                 "indicator:0.25", "--p", "1", "--probe", "0,0",
                 "--out", str(out)])
    assert code == 0
    value = float(read_csv(out)[1].split(",")[2])
    assert value == pytest.approx(12.0, rel=1e-9)


def test_empty_probe_is_usage_error(tmp_path):
    code = main(["density", "--field", "linear:3,0", "--mollifier",
                 "indicator:0.25", "--p", "1", "--probe", " ",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert main(["constants", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("key", ["out", "config"])
def test_output_and_config_keys_in_a_config_file_are_usage_errors(
        tmp_path, monkeypatch, capsys, key):
    # both come from the command line alone: a config file naming one would
    # be recorded in resolved-config.json but not followed
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: "cfgout"}))
    assert main(["constants", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and repr(key) in err
    assert not (tmp_path / "runs").exists() and not (tmp_path / "cfgout").exists()


def test_numerical_failure_exit_code(tmp_path, capsys):
    # a probe outside the admissible annulus is a numerical-domain error
    code = main(["pathology", "--probe", "0.9,0", "--out",
                 str(tmp_path / "x")])
    assert code == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ProbeError"


@pytest.mark.parametrize("field,probe", [("linear:1e200", "0.1"),
                                         ("linear:1e200,0", "0.1,0")])
def test_integrand_failure_reports_its_node_as_fields(tmp_path, capsys, field, probe):
    # |1e200 r|^2 overflows at every node: the diagnostic names the first
    out = tmp_path / "x"
    code = main(["density", "--field", field, "--p", "2", "--probe", probe,
                 "--out", str(out)])
    assert code == 1 and not out.exists()
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "EvaluationError" and diag["value"] == "inf"
    assert diag["stage"] == "polar"
    centre = [float(t) for t in probe.split(",")]
    assert diag["centre"] == centre
    assert len(diag["sigma"]) == len(centre)
    assert math.isclose(math.hypot(*diag["sigma"]), 1.0)
    assert 0.0 < diag["r"] <= 0.25
    assert repr(diag["r"]) in diag["message"]
    # other failures carry no node
    main(["pathology", "--probe", "0.9,0", "--out", str(tmp_path / "y")])
    diag = json.loads(capsys.readouterr().err)
    assert not {"stage", "value", "centre", "r", "sigma"} & diag.keys()


def test_energy_sweep_smooth_bump_converging(tmp_path):
    out = tmp_path / "run"
    code = main(["sweep", "--experiment", "energy", "--field", "bump:1",
                 "--mollifier", "indicator", "--ladder", "1:8", "--p", "2",
                 "--out", str(out)])
    assert code == 0
    assert read_summary(out)["report"]["classification"] == "converging"
    # the limit is the cut rule's, so the last rung reads its own O(eps^2)
    # error (1.27e-6), not the uncut rule's 6.8e-6 on top of it
    header, *rows = read_csv(out)
    assert float(rows[-1].split(",")[header.split(",").index("rel_error")]) <= 2e-6


def test_density_sweep_linear_all_errors_tiny(tmp_path):
    out = tmp_path / "run"
    code = main(["sweep", "--experiment", "density", "--field", "linear:2",
                 "--mollifier", "indicator", "--ladder", "2:6", "--p", "1",
                 "--probe", "0.1", "--out", str(out)])
    assert code == 0
    for line in read_csv(out)[1:]:
        assert float(line.split(",")[4]) <= 1e-9   # abs_error column
    assert read_summary(out)["report"]["classification"] == "converging"


def test_pathology_run_and_scan(tmp_path):
    out = tmp_path / "run"
    code = main(["pathology", "--d", "2", "--p", "3", "--delta", "0.1",
                 "--probe", "0.375,0", "--scan", "1.5,3.0",
                 "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert summary["report"]["classification"] == "diverging"
    assert summary["scan"] == [
        {"p": 1.5, "classification": "converging"},
        {"p": 3.0, "classification": "diverging"}]


def test_perimeter_csv(tmp_path):
    out = tmp_path / "run"
    code = main(["perimeter", "--shape", "interval:0,1", "--n", "256",
                 "--method", "both", "--out", str(out)])
    assert code == 0
    lines = read_csv(out)
    assert lines[0] == "n,method,value,exact,rel_error"
    assert len(lines) == 3
    for line in lines[1:]:
        assert float(line.split(",")[4]) < 1e-5


def test_maximal_weak11_all_pass(tmp_path):
    out = tmp_path / "run"
    code = main(["maximal", "--check", "weak11", "--fields", "5", "--d", "1",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    assert read_summary(out)["all_pass"] is True
    assert read_csv(out)[0] == "field_id,eps,measure,bound,pass"


def test_bv_ladder(tmp_path):
    out = tmp_path / "run"
    code = main(["bv", "--field", "mixed:1@0", "--probe", "0.4",
                 "--ladder", "1:8", "--out", str(out)])
    assert code == 0
    report = read_summary(out)["report"]
    assert report["limit"] == pytest.approx(1.6)
    assert report["classification"] == "converging"


def test_determinism_byte_identical_reruns(tmp_path):
    args = ["sweep", "--experiment", "density", "--field", "linear:1,1",
            "--mollifier", "gaussian", "--ladder", "2:6", "--p", "2",
            "--probe", "0.1,0.2"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_resolved_config_round_trip(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["remainder", "--field", "bump:2", "--mollifier",
                 "indicator:0.125", "--p", "2", "--probe", "0.3,0.1;0.5,0.2",
                 "--out", str(out1)]) == 0
    assert main(["remainder", "--config", str(out1 / "resolved-config.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


@pytest.mark.parametrize("command,field,probes", [
    ("density", "bump:2", "0.3,0.1;0.5,0.2;0.1,0.7"),
    ("remainder", "mixed:1@0", "-0.3;0.1;0.2;0.45"),
], ids=["density-2d", "remainder-1d-bv"])
def test_multi_probe_values_match_per_probe_library_values(tmp_path, command,
                                                           field, probes):
    out = tmp_path / "run"
    assert main([command, "--field", field, "--mollifier", "gaussian:64",
                 "--p", "1", f"--probe={probes}", "--out", str(out)]) == 0
    u = parse_field(field)
    m = parse_mollifier("gaussian:64", u.dimension)
    op = F.remainder_density if command == "remainder" else F.pointwise_density
    expected = [op(DensityRequest(u, m, 1.0, [float(t) for t in x.split(",")]))
                for x in probes.split(";")]
    rows = [line.split(",") for line in read_csv(out)[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(expected)))
    np.testing.assert_allclose([float(r[2]) for r in rows], expected,
                               rtol=1e-14, atol=0)
    assert read_summary(out)["values"] == [float(r[2]) for r in rows]


@pytest.mark.parametrize("argv", [
    ["sweep", "--ladder", "1:x"],
    ["bv", "--ladder", "1:2:3"],
    ["density", "--probe", "0,a"],
    ["perimeter", "--n", "abc"],
    ["maximal", "--eps", "0.5,x"],
    ["pathology", "--scan", "1.4,x"],
], ids=["sweep-ladder", "bv-ladder", "density-probe", "perimeter-n",
        "maximal-eps", "pathology-scan"])
def test_malformed_number_lists_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert not out.exists()


def test_degenerate_box_perimeter_reports_absolute_error(tmp_path):
    # the exact perimeter of a box of zero area is 0, and both estimates are
    assert main(["perimeter", "--shape", "box:0,0;0,1", "--n", "256",
                 "--out", str(tmp_path)]) == 0
    estimates = read_summary(tmp_path)["estimates"]
    assert [e["method"] for e in estimates] == ["bbm", "degiorgi"]
    for est in estimates:
        assert est["value"] == est["exact"] == est["rel_error"] == 0.0


@pytest.mark.parametrize("argv", [
    ["energy", "--field", "box:0,0;1", "--mollifier", "indicator:0.25"],
    ["perimeter", "--shape", "box:0,0;1,1,1"],
    ["perimeter", "--shape", "box:0,0,0,0;1,1,1,1"],
    ["perimeter", "--shape", "ball:0,0,-1"],
    ["perimeter", "--shape", "ball:0,0,nan"],
    ["perimeter", "--shape", "ball:1"],
    ["density", "--field", "ball:0,0,inf", "--probe", "0,0"],
    ["perimeter", "--shape", "halfspace:1,0;0", "--method", "bbm"],
    ["perimeter", "--shape", "halfspace:1,0;0", "--method", "degiorgi"],
    ["perimeter", "--shape", "halfspace:1,0;0", "--method", "both"],
    ["perimeter", "--shape", "halfspace:1;0.5", "--method", "degiorgi"],
    ["maximal", "--d", "3"],
    ["maximal", "--d", "0"],
    ["maximal", "--fields", "0"],
    ["maximal", "--fields", "-1"],
    ["maximal", "--seed", "-1"],
    ["maximal", "--eps", "0.5,nan"],
    # non-finite numbers in set specs, jumps and probes
    ["energy", "--field", "interval:nan,1"],
    ["energy", "--field", "box:0,0;1,nan", "--mollifier", "indicator:0.25"],
    ["energy", "--field", "mixed:1@nan"],
    ["energy", "--field", "mixed:inf@0"],
    ["energy", "--field", "ball:nan,0,1", "--mollifier", "indicator:0.25"],
    ["perimeter", "--shape", "interval:nan,1"],
    ["density", "--field", "halfspace:0,0;0", "--probe", "1,1"],
    ["density", "--field", "halfspace:1,0;inf", "--probe", "1,1"],
    ["density", "--field", "step", "--probe", "inf"],
    ["density", "--field", "linear:1,0", "--probe", "0,0;nan,0"],
], ids=["energy-box-short-corner", "perimeter-box-long-corner", "perimeter-box-4d",
        "perimeter-ball-negative", "perimeter-ball-nan", "perimeter-ball-no-centre",
        "density-ball-inf", "perimeter-halfspace-bbm", "perimeter-halfspace-degiorgi",
        "perimeter-halfspace-both", "perimeter-halfline-degiorgi", "maximal-d3",
        "maximal-d0", "maximal-fields-0", "maximal-fields-negative",
        "maximal-seed-negative", "maximal-eps-nan",
        "energy-interval-nan", "energy-box-nan", "energy-mixed-nan-location",
        "energy-mixed-inf-height", "energy-ball-nan-centre", "perimeter-interval-nan",
        "density-halfspace-zero-normal", "density-halfspace-inf-offset",
        "density-probe-inf", "density-probe-nan"])
def test_bad_sets_and_maximal_arguments_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["energy", "--p", "nan"], ["energy", "--p", "inf"], ["energy", "--p", "-inf"],
    ["density", "--p", "nan"], ["sweep", "--p", "inf"],
    ["pathology", "--delta", "nan"],
])
def test_non_finite_float_flags_are_usage_errors(tmp_path, capsys, argv):
    # on the command line the flag's type refuses them; in a config file
    # the same type does
    try:
        code = main(argv + ["--out", str(tmp_path / "x")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({argv[1][2:]: float(argv[2])}), encoding="utf-8")
    assert main([argv[0], "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_radius_zero_ball_is_the_empty_set(tmp_path):
    assert main(["perimeter", "--shape", "ball:0,0,0", "--n", "256",
                 "--out", str(tmp_path / "p")]) == 0
    for est in read_summary(tmp_path / "p")["estimates"]:
        assert est["value"] == est["exact"] == est["rel_error"] == 0.0
    assert main(["energy", "--field", "ball:0,0,0", "--mollifier", "indicator:0.25",
                 "--out", str(tmp_path / "e")]) == 0
    summary = read_summary(tmp_path / "e")
    assert summary["value"] == 0.0 and summary["route"] == "covariogram"


@pytest.mark.parametrize("argv", [
    ["energy", "--field", "halfspace:1,0;0"],
    ["energy", "--field", "halfspace:1;0.5", "--p", "2"],
    ["energy", "--field", "linear:1,0"],
    ["sweep", "--experiment", "energy", "--field", "halfspace:1;0", "--ladder", "1:3"],
    ["sweep", "--experiment", "sobolev-residual", "--field", "halfspace:0,1;0",
     "--ladder", "1:3"],
], ids=["energy-halfplane", "energy-halfline", "energy-linear", "sweep-energy",
        "sweep-residual"])
def test_integrated_functionals_refuse_unbounded_fields(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert re.search(r"energy|sobolev-residual", err.splitlines()[0])
    assert not out.exists()


@pytest.mark.parametrize("command,config,flags", [
    ("energy", {"p": "2"}, ["--p", "2"]),
    ("energy", {"p": 2}, ["--p", "2"]),
    ("energy", {"p": None}, []),
    ("energy", {"field": "bump:2", "mollifier": "indicator:0.5", "p": 1.0,
                "sphere_order": None, "radial_level": 1, "x_resolution": 8},
     ["--field", "bump:2", "--mollifier", "indicator:0.5", "--radial-level", "1",
      "--x-resolution", "8"]),
    ("maximal", {"fields": "2", "eps": 0.5}, ["--fields", "2", "--eps", "0.5"]),
    ("energy", {"p": "abc"}, None),
    ("energy", {"p": True}, None),
    ("energy", {"p": [2]}, None),
    ("energy", {"field": "bump:2", "mollifier": "indicator:0.5", "sphere_order": 8.5},
     None),
    ("perimeter", {"method": "bogus"}, None),
    ("sweep", {"experiment": "bogus"}, None),
    ("maximal", {"check": "strong"}, None),
], ids=["string-number", "int-for-float", "null-is-absent", "scheme-keys",
        "string-int-and-number-text", "not-a-number", "bool", "list",
        "float-for-int", "method-choice", "experiment-choice", "check-choice"])
def test_config_values_are_parsed_as_their_flags(tmp_path, capsys, command, config,
                                                 flags):
    # a config value goes through its flag's type and choices: it runs as
    # the flag would, or is refused as the flag would refuse it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "config"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    if flags is None:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err
        assert not out.exists()
        return
    assert code == 0
    assert main([command, *flags, "--out", str(tmp_path / "flags")]) == 0
    assert read_csv(out) == read_csv(tmp_path / "flags")
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved == json.loads((tmp_path / "flags" / "resolved-config.json").read_text())


@pytest.mark.parametrize("argv", [
    ["sweep", "--experiment", "density", "--field", "linear:1,0", "--mollifier",
     "indicator", "--ladder", "1:3", "--probe", "0.1,0;0.2,0"],
    ["sweep", "--experiment", "remainder", "--field", "bump:2", "--mollifier",
     "indicator", "--ladder", "1:3", "--probe", "0.1,0;0.2,0"],
    ["bv", "--probe", "0.3;0.4"],
    ["pathology", "--probe", "0.375,0;0.4,0"],
], ids=["sweep-density", "sweep-remainder", "bv", "pathology"])
def test_a_ladder_follows_one_probe(tmp_path, capsys, argv):
    # a ladder follows one point; a second is refused, not silently dropped
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "one probe" in err
    assert not out.exists()
    # with the first point alone the same command runs
    probe = argv[argv.index("--probe") + 1].split(";")[0]
    argv[argv.index("--probe") + 1] = probe
    assert main(argv + ["--out", str(out)]) == 0


def test_import_and_constants_load_no_scipy(tmp_path):
    # scipy.special is imported only by the routes that need a Bessel,
    # chi-square or vector erf; start-up and the constants table need none
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys, bbmlab, bbmlab.cli\n"
              "assert bbmlab.cli.main(['constants', '--d', '3', '--out', sys.argv[1]]) == 0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "c")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_spec_parsers_reject_garbage():
    from bbmlab.cli import UsageError
    with pytest.raises(UsageError):
        parse_field("spline:1,2")
    with pytest.raises(UsageError):
        parse_mollifier("boxcar:0.5", 1)
    with pytest.raises(UsageError):
        parse_ladder("indicator", "1:2", 1)   # fewer than 3 rungs


@pytest.mark.parametrize("argv", [
    ["energy", "--field", "step", "--mollifier", "indicator:0.25"],
    ["sweep", "--experiment", "energy", "--field", "bump:1", "--ladder", "1:3"],
    ["perimeter", "--shape", "interval:0,1", "--n", "256"],
    # the lag route of a smooth field at p != 2
    ["energy", "--field", "bump:1", "--mollifier", "indicator:0.25", "--p", "1.5"],
], ids=["energy", "sweep", "perimeter", "energy-bump-p1.5"])
def test_x_resolution_with_1d_field_is_usage_error(tmp_path, argv, capsys):
    # perimeter takes no --x-resolution at all: its parser stops the run
    try:
        code = main(argv + ["--x-resolution", "64", "--out", str(tmp_path / "x")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "--x-resolution" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv,route", [
    (["energy", "--field", "bump:2", "--mollifier", "indicator:0.5", "--p", "2",
      "--x-resolution", "8"], "multiplier"),
    (["energy", "--field", "bump:2", "--mollifier", "indicator:0.5", "--p", "1",
      "--x-resolution", "8", "--sphere-order", "8", "--radial-level", "1"], "sliced"),
    (["sweep", "--experiment", "energy", "--field", "ball:0,0,0.5",
      "--mollifier", "indicator", "--ladder", "1:3", "--p", "1"], "covariogram"),
    (["sweep", "--experiment", "energy", "--field", "bump:3",
      "--mollifier", "gaussian", "--ladder", "4:6", "--p", "2",
      "--x-resolution", "8"], "multiplier"),
    (["energy", "--field", "mixed:1@0", "--mollifier", "powerlaw:0.3",
      "--p", "1.2", "--radial-level", "3"], "lag"),
    (["sweep", "--experiment", "energy", "--field", "bump:1",
      "--mollifier", "indicator", "--ladder", "1:3", "--p", "1.5"], "lag"),
    # p = 2 energies of smooth fields take the multiplier route in 1D too,
    # where it reads --x-resolution
    (["sweep", "--experiment", "energy", "--field", "bump:1",
      "--mollifier", "indicator", "--ladder", "1:3", "--p", "2"], "multiplier"),
    (["energy", "--field", "bump:1", "--mollifier", "indicator:0.25", "--p", "2",
      "--x-resolution", "64"], "multiplier"),
    (["sweep", "--experiment", "sobolev-residual", "--field", "mixed:1@0",
      "--mollifier", "indicator", "--ladder", "1:3"], "lag"),
    (["sweep", "--experiment", "sobolev-residual", "--field", "bump:2",
      "--mollifier", "indicator", "--ladder", "1:3", "--candidate", "gradient",
      "--x-resolution", "8", "--sphere-order", "8", "--radial-level", "1"], "tensor"),
    # a pure-jump 1D field with the zero candidate: the residual is its
    # p = 1 energy, on the jump route
    (["sweep", "--experiment", "sobolev-residual", "--field", "step",
      "--mollifier", "indicator", "--ladder", "1:3"], "jump"),
    (["sweep", "--experiment", "sobolev-residual", "--field", "step",
      "--mollifier", "indicator", "--ladder", "1:3", "--candidate", "gradient"], "jump"),
    # in 2D too: a zero candidate takes its energy's route, one a rung
    (["sweep", "--experiment", "sobolev-residual", "--field", "bump:2",
      "--mollifier", "indicator", "--ladder", "1:3"], "sliced"),
    (["sweep", "--experiment", "sobolev-residual", "--field", "box:0,0;1,0.5",
      "--mollifier", "indicator", "--ladder", "0:2", "--radial-level", "3"],
     ["covariogram", "box", "box"]),
    (["energy", "--field", "box:0,0;1,0.5", "--mollifier", "indicator:0.25",
      "--p", "1.5"], "box"),
    (["energy", "--field", "box:0,0;1,0.5", "--mollifier", "indicator:0.75",
      "--p", "1.5", "--radial-level", "3"], "covariogram"),
    (["sweep", "--experiment", "energy", "--field", "box:0,0;1,0.5",
      "--mollifier", "indicator", "--ladder", "0:2", "--radial-level", "3"],
     ["covariogram", "box", "box"]),
    # a 3D box thinner than r_max: one radial sum, no lines
    (["energy", "--field", "box:0,0,0;1,0.5,0.25", "--mollifier", "indicator:0.5",
      "--p", "1"], "covariogram"),
    # a pure-jump 1D field: a step, an interval, at any kernel
    (["energy", "--field", "step", "--mollifier", "gaussian:64", "--p", "1.5"], "jump"),
    (["sweep", "--experiment", "energy", "--field", "interval:0,0.5",
      "--mollifier", "indicator", "--ladder", "0:3"], "jump"),
], ids=["energy-multiplier", "energy-sliced", "sweep-covariogram",
        "sweep-multiplier", "energy-lag", "sweep-lag", "sweep-multiplier-1d",
        "energy-multiplier-1d", "residual-lag",
        "residual-tensor", "residual-jump", "residual-jump-gradient", "residual-sliced",
        "residual-box-mixed", "energy-box", "energy-box-sum", "sweep-box-mixed",
        "energy-box-3d-sum", "energy-jump", "sweep-jump"])
def test_energy_summary_names_its_route(tmp_path, argv, route):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["route"] == route


def box_bbm_perimeter(L, n):
    # 2k [|E| (pi/n)^(d/2) - prod_i (L_i sqrt(pi/n) erf(L_i sqrt(n))
    # - (1 - exp(-n L_i^2))/n)] / gamma(d, 1), k = C_d n^((d+1)/2)
    d = len(L)
    k = 2.0 / math.gamma((d + 1) / 2.0) * n ** ((d + 1) / 2.0)
    g = math.prod(a * math.sqrt(math.pi / n) * math.erf(a * math.sqrt(n))
                  - (1.0 - math.exp(-n * a * a)) / n for a in L)
    return 2.0 * k * (math.prod(L) * (math.pi / n) ** (d / 2.0) - g) \
        / constants.gamma(d, 1)


def test_box_perimeters_are_closed_forms(tmp_path):
    assert box_bbm_perimeter((1.0, 0.5), 256.0) == pytest.approx(2.929476302056530,
                                                                 rel=1e-15)
    for name, shape, L in (("2d", "box:0,0;1,0.5", (1.0, 0.5)),
                           ("3d", "box:0,0,0;1,0.5,0.25", (1.0, 0.5, 0.25))):
        assert main(["perimeter", "--shape", shape, "--n", "256", "--method", "both",
                     "--out", str(tmp_path / name)]) == 0
        rows = [r.split(",") for r in read_csv(tmp_path / name)[1:]]
        assert [r[1] for r in rows] == ["bbm", "degiorgi"]
        assert float(rows[0][2]) == pytest.approx(box_bbm_perimeter(L, 256.0),
                                                  rel=1e-12, abs=0)


def test_1d_step_energy_takes_the_jump_route_and_reruns_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["energy", "--field", "step", "--mollifier", "powerlaw:0.3",
                 "--p", "1.2", "--out", str(out1)]) == 0
    assert json.loads((out1 / "summary.json").read_text())["route"] == "jump"
    # 2 c1 mu(1 - p) = 4 * 0.3 / (0.3 - 0.2)
    assert float(read_csv(out1)[1]) == pytest.approx(12.0, rel=1e-8)
    assert main(["energy", "--config", str(out1 / "resolved-config.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_residual_sweep_of_an_interval_counts_its_ends_as_jumps(tmp_path):
    # zero candidate, eps < 1: the residual is 2 c1 mu(0) = 4 at every rung
    assert main(["sweep", "--experiment", "sobolev-residual",
                 "--field", "interval:0,1", "--mollifier", "indicator",
                 "--ladder", "1:4", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path)[1:]
    assert len(rows) == 4
    for row in rows:
        assert float(row.split(",")[2]) == pytest.approx(4.0, rel=1e-13, abs=0)


def test_x_resolution_still_sets_the_2d_grid(tmp_path):
    outs = []
    for n in ("8", "12"):
        out = tmp_path / n
        assert main(["energy", "--field", "bump:2", "--mollifier", "indicator:0.5",
                     "--p", "2", "--radial-level", "1",
                     "--x-resolution", n, "--out", str(out)]) == 0
        outs.append(float(read_csv(out)[1]))
    assert outs[0] != outs[1]


@pytest.mark.parametrize("argv", [
    ["maximal", "--sphere-order", "8"],
    ["energy", "--rel-tol", "1e-3"],
    ["density", "--x-resolution", "64"],
    ["pathology", "--workers", "2"],
    ["constants", "--radial-level", "2"],
    ["density", "--seed", "3"],
    ["energy", "--seed", "1"],
    ["sweep", "--experiment", "sobolev-residual", "--p", "7"],
    ["sweep", "--experiment", "energy", "--candidate", "gradient"],
    ["sweep", "--experiment", "energy", "--probe", "9"],
    ["sweep", "--experiment", "density", "--candidate", "gradient"],
    ["perimeter", "--method", "degiorgi", "--sphere-order", "4"],
    ["perimeter", "--shape", "ball:0,0,0.5", "--method", "degiorgi",
     "--x-resolution", "8"],
    # no De Giorgi perimeter reads a grid, so --grid-resolution is no flag
    ["perimeter", "--method", "bbm", "--grid-resolution", "8"],
    ["perimeter", "--shape", "interval:0,1", "--method", "degiorgi",
     "--grid-resolution", "64"],
    # the sphere of a 1D field is always {-1, +1}
    ["density", "--field", "step", "--probe", "0.3", "--sphere-order", "8"],
    ["remainder", "--field", "mixed:1@0", "--probe", "0.2", "--sphere-order", "8"],
    ["energy", "--field", "step", "--sphere-order", "8"],
    ["energy", "--field", "interval:0,1", "--mollifier", "indicator:0.25",
     "--p", "1", "--sphere-order", "8"],
    ["sweep", "--experiment", "density", "--field", "linear:2", "--probe", "0.1",
     "--mollifier", "indicator", "--ladder", "1:3", "--sphere-order", "8"],
    ["bv", "--sphere-order", "8"],
    ["perimeter", "--shape", "interval:0,1", "--method", "bbm", "--sphere-order", "8"],
    # the energy of a ball is one radial sum: no x-grid, no sphere rule
    ["energy", "--field", "ball:0,0,0.5", "--mollifier", "indicator:0.25",
     "--x-resolution", "16"],
    ["energy", "--field", "ball:0,0,0,0.5", "--mollifier", "indicator:0.25",
     "--sphere-order", "4"],
    ["sweep", "--experiment", "energy", "--field", "ball:0,0,0.5",
     "--mollifier", "gaussian", "--ladder", "4:6", "--x-resolution", "16"],
    ["perimeter", "--shape", "ball:0,0,1", "--method", "bbm", "--x-resolution", "32"],
    ["perimeter", "--shape", "ball:0,0,1", "--method", "both", "--sphere-order", "8"],
    # a density is a polar sum at its probe, with no x-grid
    ["sweep", "--experiment", "density", "--field", "linear:2,0", "--probe", "0.1,0",
     "--mollifier", "indicator", "--ladder", "1:3", "--x-resolution", "16"],
    ["sweep", "--experiment", "remainder", "--field", "bump:2", "--probe", "0.3,0.1",
     "--mollifier", "indicator", "--ladder", "2:4", "--x-resolution", "16"],
    # a p = 2 energy of a smooth 2D/3D field is one FFT: no sphere rule
    ["energy", "--field", "bump:2", "--mollifier", "indicator:0.25", "--p", "2",
     "--sphere-order", "8"],
    ["energy", "--field", "bump:3", "--mollifier", "gaussian:64", "--p", "2",
     "--sphere-order", "4"],
    ["sweep", "--experiment", "energy", "--field", "bump:2", "--p", "2",
     "--mollifier", "indicator", "--ladder", "1:3", "--sphere-order", "8"],
    ["perimeter", "--shape", "ball:0,0,1", "--method", "degiorgi",
     "--grid-resolution", "64"],
    ["perimeter", "--shape", "ball:0,0,0,0.5", "--method", "both",
     "--grid-resolution", "16"],
    # the BBM perimeter of a box is a closed form, reading no quadrature flag
    ["perimeter", "--shape", "box:0,0;1,0.5", "--method", "bbm", "--radial-level", "3"],
    ["perimeter", "--shape", "box:0,0,0;1,0.5,0.25", "--method", "both",
     "--x-resolution", "8"],
    # so is a box energy with r_max <= every side; past it, one radial sum
    ["energy", "--field", "box:0,0;1,0.5", "--mollifier", "indicator:0.25", "--p", "1.5",
     "--radial-level", "3"],
    ["energy", "--field", "box:0,0,0;1,0.5,0.5", "--mollifier", "indicator:0.25",
     "--sphere-order", "4"],
    ["energy", "--field", "box:0,0;1,0.5", "--mollifier", "indicator:0.75",
     "--sphere-order", "8"],
    ["sweep", "--experiment", "energy", "--field", "box:0,0;1,0.5",
     "--mollifier", "indicator", "--ladder", "2:4", "--radial-level", "3"],
    # a flag is refused only when no rung of the ladder reads it
    ["sweep", "--experiment", "energy", "--field", "box:0,0;1,0.5",
     "--mollifier", "indicator", "--ladder", "0:2", "--x-resolution", "8"],
    # a 3D box thinner than r_max is one radial sum too
    ["energy", "--field", "box:0,0,0;1,0.5,0.25", "--mollifier", "indicator:0.5",
     "--x-resolution", "16"],
    ["energy", "--field", "box:0,0,0;1,0.5,0.25", "--mollifier", "indicator:0.5",
     "--sphere-order", "8"],
    # a pure-jump 1D field is a closed form: it reads no scheme key at all
    ["energy", "--field", "step", "--radial-level", "3"],
    ["perimeter", "--shape", "interval:0,1", "--radial-level", "3"],
    ["sweep", "--experiment", "energy", "--field", "interval:0,1",
     "--mollifier", "gaussian", "--ladder", "4:6", "--radial-level", "3"],
    # and so is its residual with the zero candidate
    ["sweep", "--experiment", "sobolev-residual", "--field", "step",
     "--radial-level", "3"],
    # and with the step's own gradient, which is that zero candidate
    ["sweep", "--experiment", "sobolev-residual", "--field", "step",
     "--candidate", "gradient", "--radial-level", "3"],
], ids=["maximal-sphere-order", "energy-rel-tol", "density-x-resolution",
        "pathology-workers", "constants-radial-level", "density-seed",
        "energy-seed", "sweep-residual-p", "sweep-energy-candidate",
        "sweep-energy-probe", "sweep-density-candidate",
        "perimeter-degiorgi-sphere-order", "perimeter-degiorgi-x-resolution",
        "perimeter-bbm-grid-resolution", "perimeter-interval-degiorgi-grid-resolution",
        "density-1d-sphere-order",
        "remainder-1d-sphere-order", "energy-1d-sphere-order",
        "energy-interval-sphere-order", "sweep-1d-sphere-order",
        "bv-sphere-order", "perimeter-interval-sphere-order",
        "energy-disk-x-resolution", "energy-ball-sphere-order",
        "sweep-disk-x-resolution", "perimeter-disk-bbm-x-resolution",
        "perimeter-disk-both-sphere-order", "sweep-density-x-resolution",
        "sweep-remainder-x-resolution", "energy-2d-p2-sphere-order",
        "energy-3d-p2-sphere-order", "sweep-energy-2d-p2-sphere-order",
        "perimeter-disk-degiorgi-grid-resolution",
        "perimeter-ball-both-grid-resolution", "perimeter-box-bbm-radial-level",
        "perimeter-box-3d-both-x-resolution", "energy-box-closed-radial-level",
        "energy-box-3d-closed-sphere-order", "energy-box-sum-sphere-order",
        "sweep-box-closed-radial-level", "sweep-box-mixed-x-resolution",
        "energy-box-3d-sum-x-resolution", "energy-box-3d-sum-sphere-order",
        "energy-step-radial-level", "perimeter-interval-radial-level",
        "sweep-interval-radial-level", "sweep-residual-step-radial-level",
        "sweep-residual-step-gradient-radial-level"])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, argv):
    # unknown flags stop the parser, flags the chosen experiment or
    # method does not read stop the run; both exit 2 with no output
    try:
        code = main(argv + ["--out", str(tmp_path / "x")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("experiment,extra,keys", [
    ("energy", ["--field", "bump:1", "--p", "2"], {"p"}),
    ("density", ["--field", "linear:2", "--probe", "0.1"], {"p", "probes"}),
    ("sobolev-residual", ["--field", "step"], {"candidate"}),
])
def test_sweep_config_holds_only_the_keys_its_experiment_reads(
        tmp_path, experiment, extra, keys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--experiment", experiment, "--mollifier", "indicator",
                 "--ladder", "2:4", *extra, "--out", str(out1)]) == 0
    cfg = json.loads((out1 / "resolved-config.json").read_text())
    assert {"p", "probes", "candidate"} & set(cfg) == keys
    assert main(["sweep", "--config", str(out1 / "resolved-config.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


@pytest.mark.parametrize("command,field,probes", [
    ("density", "step", "0.3;0;0.5"),
    ("remainder", "mixed:1@0", "0.2;0"),
    ("density", "interval:0,1", "1"),
], ids=["density-step", "remainder-mixed", "density-interval-end"])
def test_probe_on_a_jump_is_a_numerical_failure(tmp_path, capsys, command,
                                                field, probes):
    out = tmp_path / "x"
    code = main([command, "--field", field, "--mollifier", "indicator:0.25",
                 "--probe", probes, "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ProbeError"
    assert not out.exists()


@pytest.mark.parametrize("field,probes,values", [
    ("mixed:0@0", "0;0.5", [0.25, 2.0]),
    ("interval:1,0", "1;0", [0.0, 0.0]),
], ids=["density-zero-jump", "density-null-interval-end"])
def test_a_zero_jump_or_a_null_set_is_no_jump(tmp_path, field, probes, values):
    # neither field jumps at the probes: x^2 with indicator(1/4) has the
    # density twice the mean of |2x + y| over |y| < 1/4, and a null
    # interval is 0 almost everywhere
    out = tmp_path / "x"
    assert main(["density", "--field", field, "--mollifier", "indicator:0.25",
                 "--probe", probes, "--out", str(out)]) == 0
    np.testing.assert_allclose(read_summary(out)["values"], values, rtol=1e-12,
                               atol=0)


@pytest.mark.parametrize("flag", ["--x-resolution=-3", "--x-resolution=0",
                                  "--radial-level=-1", "--radial-level=13",
                                  "--sphere-order=0"])
def test_bad_scheme_values_are_numerical_failures(tmp_path, capsys, flag):
    # p = 1: the sliced route reads all three scheme flags
    out = tmp_path / "x"
    code = main(["energy", "--field", "bump:2", "--mollifier", "indicator:0.125",
                 "--p", "1", flag, "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "IntegrationError"
    assert not out.exists()


@pytest.mark.parametrize("order,code", [("6", 1), ("8", 0), ("12", 0)])
def test_2d_sphere_order_must_not_alias_another(tmp_path, capsys, order, code):
    out = tmp_path / "x"
    assert main(["density", "--field", "linear:1,0", "--probe", "0,0",
                 "--sphere-order", order, "--out", str(out)]) == code
    if code:
        assert json.loads(capsys.readouterr().err)["error"] == "IntegrationError"
        assert not out.exists()


def test_config_keys_follow_the_command_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    assert main(["energy", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    cfg.write_text(json.dumps({"x_resolution": 8, "sphere_order": 8,
                               "radial_level": 1, "field": "bump:2",
                               "mollifier": "indicator:0.5", "p": 1.0}))
    assert main(["energy", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 0


def test_readme_cli_quick_start_parses():
    # every command the README shows must use flags the parser still has
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(CLI\).*?```\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("bbmlab ")]
    assert len(lines) >= 5
    for line in lines:
        command, *argv = shlex.split(line)[1:]
        build_parser(command).parse_args(argv)


# a run for each scheme flag a command offers, and the route it takes;
# the route reads the flags it sets (functionals.ROUTE_READS)
SCHEME_FLAGS = {"--sphere-order": "sphere_order", "--radial-level": "radial_level",
                "--x-resolution": "x_resolution"}
SCHEME_FLAG_RUNS = [
    (["density", "--sphere-order", "8", "--radial-level", "3"], "polar"),
    (["remainder", "--sphere-order", "8", "--radial-level", "3"], "polar"),
    (["energy", "--field", "bump:2", "--mollifier", "indicator:0.5", "--p", "1",
      "--x-resolution", "8", "--sphere-order", "8", "--radial-level", "1"], "sliced"),
    (["sweep", "--experiment", "sobolev-residual", "--field", "bump:2",
      "--mollifier", "indicator", "--ladder", "1:3", "--candidate", "gradient",
      "--x-resolution", "8", "--sphere-order", "8", "--radial-level", "1"], "tensor"),
    (["bv", "--radial-level", "3"], "polar"),
    # the BBM perimeter of a disk is its energy at p = 1, one radial sum
    (["perimeter", "--shape", "ball:0,0,1", "--method", "bbm", "--n", "256",
      "--radial-level", "3"], "covariogram"),
]


def offered_flags(command):
    return set(re.findall(r"\[(--[\w-]+)", build_parser(command).format_usage()))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_offers_exactly_the_flags_its_runs_read(tmp_path, command):
    # its config keys, --config, --out, and the scheme keys that a route
    # it reaches reads: each is set by a run of SCHEME_FLAG_RUNS that
    # takes that route
    keys = set(DEFAULTS[command])
    if command == "sweep":
        keys |= {key for options in SWEEP_OPTIONS.values() for key in options}
    flags = {"--probe" if k == "probes" else "--" + k.replace("_", "-") for k in keys}
    for i, (argv, route) in enumerate(SCHEME_FLAG_RUNS):
        if argv[0] != command:
            continue
        scheme = {flag for flag in argv if flag in SCHEME_FLAGS}
        assert {SCHEME_FLAGS[f] for f in scheme} <= set(F.ROUTE_READS[route])
        assert main(argv + ["--out", str(tmp_path / str(i))]) == 0
        assert read_summary(tmp_path / str(i)).get("route", route) == route
        flags |= scheme
    assert offered_flags(command) == flags | {"--config", "--out"}


def test_readme_names_the_commands_of_each_quadrature_flag():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Quadrature flags exist only on the commands that read "
                         r"them: (.*?)\.", text).group(1)
    named = {}
    for part in sentence.split(";"):
        flag, commands = re.fullmatch(r" ?`(--[\w-]+)` on (.*)", part).groups()
        named[flag] = set(re.findall(r"`(\w+)`", commands))
    assert named == {flag: {c for c in COMMANDS if flag in offered_flags(c)}
                     for flag in SCHEME_FLAGS}


@pytest.mark.parametrize("argv,code", [(["--help"], 0), ([], 2), (["bogus"], 2),
                                       (["--out", "x", "constants"], 2)])
def test_the_command_word_comes_first(capsys, argv, code):
    # --help lists every command with its help, anything else is a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    if code == 0:
        listed = capsys.readouterr().out.split("commands:")[1]
        assert re.findall(r"^  (\w+) ", listed, re.M) == list(COMMANDS)


def test_readme_route_table_mirrors_route_reads():
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \|[^|]*\| (\w+) \| (\w+) \| (\w+) \|$", text, re.M)
    keys = ("sphere_order", "radial_level", "x_resolution")
    table = {route: {k for k, cell in zip(keys, cells) if cell == "yes"}
             for route, *cells in rows}
    assert table == {route: set(reads) for route, reads in F.ROUTE_READS.items()}


def test_readme_python_examples_run():
    # every API example of the README runs against the current library
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
