"""End-to-end tests of the command-line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

PKG = [sys.executable, "-m", "slaglab.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("SLAG_SEED", None)
    env.pop("SLAG_FAULT_DTHETA", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        PKG + list(args), capture_output=True, text=True, env=env
    )


def test_lawlor_symmetric_report():
    proc = run_cli("lawlor", "--a", "1,1,1", "--samples", "20")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["phi"][0] == pytest.approx(1.0471975512, abs=1e-9)
    assert abs(report["sumPhi"] - math.pi) < 1e-8
    assert report["residuals"]["omegaMax"] < 1e-8
    assert report["residuals"]["imOmegaMax"] < 1e-8
    assert "version" in report and "tolerances" in report


def test_lawlor_residual_sweep():
    proc = run_cli("lawlor", "--a", "1,2,3", "--samples", "200")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["residuals"]["omegaMax"] < 1e-8


def test_lawlor_rejects_negative_coefficient():
    proc = run_cli("lawlor", "--a", "1,-1,1")
    assert proc.returncode == 2
    assert "positive" in proc.stderr


def test_lawlor_deterministic_output():
    first = run_cli("lawlor", "--a", "1,2,3", "--samples", "10", "--seed", "5")
    second = run_cli("lawlor", "--a", "1,2,3", "--samples", "10", "--seed", "5")
    assert first.stdout == second.stdout


def test_seed_env_override(tmp_path):
    by_flag = run_cli("lawlor", "--a", "1,2,3", "--samples", "10", "--seed", "7")
    by_env = run_cli(
        "lawlor", "--a", "1,2,3", "--samples", "10",
        env_extra={"SLAG_SEED": "7"},
    )
    assert json.loads(by_flag.stdout) == json.loads(by_env.stdout)


def test_expander_report():
    proc = run_cli("expander", "--alpha", "1", "--a", "1,1,1", "--samples", "10")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["thetaLimits"][0] == pytest.approx(0.0, abs=1e-7)
    assert report["thetaLimits"][1] == pytest.approx(
        report["sumPhi"] - math.pi, abs=1e-7
    )
    assert report["A_closedForm"] == pytest.approx(
        (math.pi - report["sumPhi"]) / 2, rel=1e-12
    )
    assert report["A_potentialLimit"] == pytest.approx(
        report["A_closedForm"], abs=1e-7
    )
    assert report["expanderResidualMax"] < 1e-7


def test_expander_alpha_two_closed_form():
    proc = run_cli("expander", "--alpha", "2", "--a", "1,1,1", "--samples", "5")
    report = json.loads(proc.stdout)
    assert report["A_closedForm"] == pytest.approx(
        (math.pi - report["sumPhi"]) / (2 * 2), rel=1e-12
    )


def test_expander_rejects_alpha_zero():
    proc = run_cli("expander", "--alpha", "0", "--a", "1,1,1")
    assert proc.returncode == 2
    assert "lawlor" in proc.stderr


def test_invert_lawlor():
    proc = run_cli(
        "invert", "--mode", "lawlor",
        "--phi", "1.0471975512,1.0471975512,1.0471975512", "--A", "1.0",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["converged"]
    assert max(report["a"]) - min(report["a"]) < 1e-6
    assert report["residual"] < 1e-6


def test_invert_jlt_domain_error():
    proc = run_cli("invert", "--mode", "jlt", "--alpha", "1", "--phi", "2.0,2.0,2.0")
    assert proc.returncode == 2


def test_verify_default_passes():
    proc = run_cli("verify")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    report = json.loads(proc.stdout)
    assert report["passed"]
    assert all(check["passed"] for check in report["checks"])


def test_verify_only_subset():
    proc = run_cli("verify", "--only", "maslov")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [c["name"] for c in report["checks"]] == ["maslov"]


def test_verify_fault_injection_fails():
    proc = run_cli(
        "verify", "--only", "expander", env_extra={"SLAG_FAULT_DTHETA": "1e-3"}
    )
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert not report["checks"][0]["passed"]


def test_expansion_table_json_and_csv():
    proc = run_cli("expansion", "--m", "3", "--k", "5", "--alpha", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["c1"] == pytest.approx((5 * 6 - 12) / 2.0, rel=1e-14)
    assert report["overlapDisagreement"] < 1e-8
    assert report["boundHolds"]
    values = [row["A"] for row in report["table"]]
    assert all(b > a for a, b in zip(values, values[1:]))

    proc_csv = run_cli(
        "expansion", "--m", "3", "--k", "5", "--alpha", "1", "--format", "csv"
    )
    lines = proc_csv.stdout.strip().splitlines()
    assert lines[0] == "t,A,Aprime,logDerivative"
    assert len(lines) == 22


def test_csv_rejected_for_non_tabular_command():
    proc = run_cli("lawlor", "--a", "1,1,1", "--format", "csv")
    assert proc.returncode == 2


def test_csv_rejected_before_numerical_work(monkeypatch, capsys):
    from slaglab import cli, plumbing

    def chart(*args, **kwargs):
        raise AssertionError("the chart was built before the format check")

    monkeypatch.setattr(plumbing, "PlumbingChart", chart)
    assert cli.main(["plumbing", "--phi", "0.9,1.1,1.14", "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err == "error: csv format is only available for tabular commands\n"


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_samples_must_be_at_least_one(samples):
    for argv in (["lawlor", "--a", "1,2,3"], ["expander", "--alpha", "1", "--a", "1,1,1"]):
        proc = run_cli(*argv, "--samples", samples)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--samples" in proc.stderr


def test_plumbing_checks():
    proc = run_cli("plumbing", "--phi", "0.9,1.1,1.14", "--points", "10")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["chartRoundTripMax"] < 1e-12
    assert report["liouvilleTildeFdMax"] < 1e-6
    values = [row["value"] for row in report["decay"]]
    assert values[0] > values[1] > values[2] > 0


def test_floer_file_checks(tmp_path: Path):
    doc = {
        "generators": [
            {"id": "p", "degree": 0, "fL": 0.0, "fLp": 0.0},
        ],
        "differential": [],
    }
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("floer", "--input", str(path), "--expect-sphere", "3")
    assert proc.returncode == 1  # {0: 1} is not the sphere pattern {0:1, m:1}
    report = json.loads(proc.stdout)
    assert report["cohomology"] == {"0": 1}
    assert report["degreeZeroIdentity"]

    doc["generators"].append({"id": "q", "degree": 3, "fL": 0.0, "fLp": 0.0})
    path.write_text(json.dumps(doc))
    proc = run_cli("floer", "--input", str(path), "--expect-sphere", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["matchesSphere"]


def test_floer_rejects_bad_complex(tmp_path: Path):
    doc = {
        "generators": [
            {"id": "a", "degree": 0},
            {"id": "b", "degree": 0},
        ],
        "differential": [["a", "b"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("floer", "--input", str(path))
    assert proc.returncode == 2


@pytest.mark.parametrize("text", [
    "[]",
    '{"generators": [1]}',
    '{"generators": [{"id": "a", "degree": 0}], "differential": [[["a"], "a"]]}',
    '{"generators": [{"id": "a", "degree": 1.5}]}',
    pytest.param("[" * 100000 + "]" * 100000, id="nested-too-deeply"),
])
def test_floer_malformed_file_is_a_usage_error(tmp_path: Path, text):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    proc = run_cli("floer", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: malformed complex: ")
    assert "Traceback" not in proc.stderr


def test_import_slaglab_loads_neither_checks_nor_cli():
    code = ("import sys, slaglab; "
            "print(sorted({'slaglab.checks', 'slaglab.cli'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"


def test_passed_holds_each_residual_against_its_own_tolerance():
    from slaglab import checks, cli

    assert cli.TOLERANCES is checks.TOLERANCES
    assert checks.passed([(5e-13, "chart_round_trip"), (5e-7, "liouville_tilde_fd")])
    assert not checks.passed([(5e-7, "chart_round_trip")])
    assert not checks.passed([(1e-8, "sl_residual")])  # strictly below
    assert not checks.passed([(math.nan, "sl_residual")])


def test_usage_error_on_unknown_command():
    proc = run_cli("doesnotexist")
    assert proc.returncode == 2


def test_numerical_failure_exits_one_with_error_line(monkeypatch, capsys):
    from slaglab import cli, quadrature
    from slaglab.errors import QuadratureError

    def failing_rule(*args, **kwargs):
        raise QuadratureError("N/2N gap above tolerance")

    monkeypatch.setattr(quadrature, "integrate_rows", failing_rule)
    for argv in (["lawlor", "--a", "1,2,3", "--samples", "5"],
                 ["expander", "--alpha", "1", "--a", "1,1,1", "--samples", "5"]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: QuadratureError:")
        assert "Traceback" not in err


def test_degenerate_frame_exits_one_with_error_line(monkeypatch, capsys):
    from slaglab import cli
    from slaglab.errors import DegenerateFrameError
    from slaglab.lawlor import NeckFamily

    def degenerate(self, y, x_unit):
        raise DegenerateFrameError("frame vectors are real-linearly dependent")

    monkeypatch.setattr(NeckFamily, "point", degenerate)
    for argv in (["lawlor", "--a", "1,2,3", "--samples", "5"],
                 ["expander", "--alpha", "1", "--a", "1,1,1", "--samples", "5"]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DegenerateFrameError:")
        assert "Traceback" not in err


def test_expansion_report_fields():
    proc = run_cli("expansion", "--m", "4", "--k", "3", "--alpha", "0.5")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert 0.0 < report["seriesSwitch"] <= 0.01
    assert report["overlapDisagreement"] < 1e-8
    assert "collocationPanels" not in report
    assert "collocationErrorEstimate" not in report
    # the batched table holds the per-t values and slopes exactly
    from slaglab import modes

    solution = modes.solve_radial_mode(4, 3, 0.5, 2.0)
    for row in report["table"]:
        assert row["A"] == solution.value(row["t"])
        assert row["Aprime"] == solution.derivative(row["t"])
        assert row["logDerivative"] == row["Aprime"] / row["A"]


def test_radial_quadrature_failure_exits_one_with_error_line(monkeypatch, capsys):
    from slaglab import cli, quadrature

    monkeypatch.setattr(quadrature, "DEFAULT_EPSABS", 0.0)
    monkeypatch.setattr(quadrature, "DEFAULT_EPSREL", 0.0)
    assert cli.main(["expansion", "--m", "3", "--k", "5", "--alpha", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: QuadratureError:")
    assert "N/2N gap" in err and "Traceback" not in err


@pytest.mark.parametrize("extra", [
    ["--alpha", "inf"], ["--alpha", "nan"], ["--alpha", "1", "--t-max", "nan"],
], ids=["alpha-inf", "alpha-nan", "t-max-nan"])
def test_expansion_rejects_non_finite_parameters(extra):
    proc = run_cli("expansion", "--m", "3", "--k", "5", *extra)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: need m >= 3, k >= 0, finite alpha > 0 and t_max > 0\n"


@pytest.mark.parametrize("argv", [
    ["expansion", "--m", "3", "--k", "5", "--alpha", "1", "--points", "1"],
    ["plumbing", "--phi", "0.9,1.1,1.14", "--points", "0"],
], ids=["expansion", "plumbing"])
def test_points_below_minimum_is_a_usage_error(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --points must be at least")
