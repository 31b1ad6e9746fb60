import pytest

from bbmlab.cli import REPORT_HEADER, write_csv
from bbmlab.reports import ConvergenceReport, classify_sequence


def test_decreasing_errors_classify_converging():
    values = [3.5, 3.9, 3.98, 3.995, 3.999]
    assert classify_sequence(values, limit=4.0) == "converging"


def test_exact_zero_error_sequence_is_converging():
    assert classify_sequence([0.0, 0.0, 0.0, 0.0], limit=0.0) == "converging"


def test_machine_noise_around_limit_is_converging():
    values = [4.0 + e for e in (1e-13, 3e-13, -2e-13, 1e-13)]
    assert classify_sequence(values, limit=4.0) == "converging"


def test_growth_window_classifies_diverging():
    values = [1.0, 1.2, 1.5, 1.9, 2.4, 3.1, 4.0]
    assert classify_sequence(values) == "diverging"


def test_slow_growth_stays_unclassified():
    # monotone but under the window factor and with growing increments
    values = [1.0, 1.05, 1.11, 1.18, 1.26, 1.35]
    assert classify_sequence(values) == "stalled"


def test_cauchy_convergence_without_limit():
    values = [1.0, 1.5, 1.75, 1.875, 1.9375, 1.96875]
    assert classify_sequence(values) == "converging"


def test_converging_takes_precedence_over_early_growth():
    # early values grow by more than the window factor, but the errors
    # against the limit shrink throughout: stabilized wins
    values = [1.0, 2.5, 3.5, 3.9, 3.99, 3.999]
    assert classify_sequence(values, limit=4.0) == "converging"


def test_diverging_requires_monotone_window():
    values = [1.0, 3.0, 0.5, 4.0, 0.2, 5.0, 0.1]
    assert classify_sequence(values) == "stalled"


def test_report_rows_and_csv(tmp_path):
    report = ConvergenceReport(labels=["a", "b", "c"], params=[0.5, 0.25, 0.125],
                               values=[3.0, 3.5, 3.95], limit=4.0)
    assert report.classification == "converging"
    assert report.abs_errors == [1.0, 0.5, pytest.approx(0.05)]
    assert report.rel_errors[-1] == pytest.approx(0.0125)
    path = tmp_path / "report.csv"
    write_csv(path, REPORT_HEADER, report.rows())
    lines = path.read_text().splitlines()
    assert lines[0] == "index,param,value,limit,abs_error,rel_error"
    assert lines[1].startswith("0,0.5,3,4,1,0.25")
    assert len(lines) == 4


def test_report_without_limit_has_blank_error_columns(tmp_path):
    report = ConvergenceReport(labels=["a", "b", "c"], params=[1, 2, 3],
                               values=[1.0, 2.0, 4.0], limit=None)
    path = tmp_path / "r.csv"
    write_csv(path, REPORT_HEADER, report.rows())
    assert path.read_text().splitlines()[1] == "0,1,1,,,"


def test_report_json_round_trip():
    report = ConvergenceReport(labels=["x"], params=[1.0], values=[2.0],
                               limit=2.0)
    payload = report.to_json()
    assert payload["classification"] == "stalled"   # single entry
    assert payload["values"] == [2.0]
