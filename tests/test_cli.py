import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from bbmlab import functionals as F
from bbmlab.cli import (build_parser, main, parse_field, parse_ladder,
                        parse_mollifier)
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


def test_numerical_failure_exit_code(tmp_path, capsys):
    # a probe outside the admissible annulus is a numerical-domain error
    code = main(["pathology", "--probe", "0.9,0", "--out",
                 str(tmp_path / "x")])
    assert code == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ProbeError"


def test_energy_sweep_smooth_bump_converging(tmp_path):
    out = tmp_path / "run"
    code = main(["sweep", "--experiment", "energy", "--field", "bump:1",
                 "--mollifier", "indicator", "--ladder", "1:8", "--p", "2",
                 "--out", str(out)])
    assert code == 0
    assert read_summary(out)["report"]["classification"] == "converging"


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
], ids=["energy", "sweep", "perimeter"])
def test_x_resolution_with_1d_field_is_usage_error(tmp_path, argv, capsys):
    code = main(argv + ["--x-resolution", "64", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "--x-resolution" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_x_resolution_still_sets_the_2d_grid(tmp_path):
    outs = []
    for n in ("8", "12"):
        out = tmp_path / n
        assert main(["energy", "--field", "bump:2", "--mollifier", "indicator:0.5",
                     "--p", "2", "--radial-level", "1", "--sphere-order", "8",
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
    ["perimeter", "--method", "bbm", "--grid-resolution", "8"],
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
], ids=["maximal-sphere-order", "energy-rel-tol", "density-x-resolution",
        "pathology-workers", "constants-radial-level", "density-seed",
        "energy-seed", "sweep-residual-p", "sweep-energy-candidate",
        "sweep-energy-probe", "sweep-density-candidate",
        "perimeter-degiorgi-sphere-order", "perimeter-degiorgi-x-resolution",
        "perimeter-bbm-grid-resolution", "density-1d-sphere-order",
        "remainder-1d-sphere-order", "energy-1d-sphere-order",
        "energy-interval-sphere-order", "sweep-1d-sphere-order",
        "bv-sphere-order", "perimeter-interval-sphere-order",
        "energy-disk-x-resolution", "energy-ball-sphere-order",
        "sweep-disk-x-resolution", "perimeter-disk-bbm-x-resolution",
        "perimeter-disk-both-sphere-order"])
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


def test_config_keys_follow_the_command_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    assert main(["energy", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    cfg.write_text(json.dumps({"x_resolution": 8, "sphere_order": 8,
                               "radial_level": 1, "field": "bump:2",
                               "mollifier": "indicator:0.5", "p": 2.0}))
    assert main(["energy", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 0


def test_readme_cli_quick_start_parses():
    # every command the README shows must use flags the parser still has
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(CLI\).*?```\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("bbmlab ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0]
