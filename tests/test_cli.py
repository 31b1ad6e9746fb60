import json

import pytest

from bbmlab.cli import main, parse_field, parse_ladder, parse_mollifier


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


def test_workers_flag_keeps_results_identical(tmp_path):
    base = ["density", "--field", "bump:2", "--mollifier", "gaussian:64",
            "--p", "1", "--probe", "0.3,0.1;0.5,0.2;0.1,0.7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--workers", "3", "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


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
], ids=["maximal-sphere-order", "energy-rel-tol", "density-x-resolution",
        "pathology-workers", "constants-radial-level"])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_config_keys_follow_the_command_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    assert main(["energy", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    cfg.write_text(json.dumps({"x_resolution": 8, "sphere_order": 8,
                               "radial_level": 1, "field": "bump:2",
                               "mollifier": "indicator:0.5", "p": 2.0}))
    assert main(["energy", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 0

