import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from riskpremia.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_json_lottery_table(self, capsys, tmp_path):
        path = tmp_path / "lot.json"
        path.write_text('[{"x": 0, "p": 0.5}, {"x": 1, "p": 0.5}]')
        code, out, _ = run_cli(capsys, "eval", "--lottery", str(path))
        assert code == 0
        assert "rdu value" in out and "0.5" in out

    def test_distorted_value_json(self, capsys, tmp_path):
        path = tmp_path / "lot.json"
        path.write_text('[{"x": 0, "p": 0.5}, {"x": 1, "p": 0.5}]')
        code, out, _ = run_cli(
            capsys, "eval", "--lottery", str(path), "--weighting", "power:2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["rdu_value"] == 0.75
        assert data["dual_form_value"] == 0.75

    def test_csv_lottery(self, capsys, tmp_path):
        path = tmp_path / "lot.csv"
        path.write_text("x,p\n-0.1,0.5\n0.1,0.5\n")
        code, out, _ = run_cli(
            capsys, "eval", "--lottery", str(path), "--utility", "cara:1",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert math.isclose(data["rdu_value"], -math.cosh(0.1), rel_tol=1e-11)

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run_cli(capsys, "eval", "--lottery", str(path))
        assert code == 2
        assert err.startswith("error: input:")
        assert err.count("\n") == 1

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--lottery", "/nonexistent.json")
        assert code == 2
        assert err.startswith("error: input:")

    def test_missing_lottery_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval")
        assert code == 2

    def test_csv_output_format(self, capsys, tmp_path):
        path = tmp_path / "lot.json"
        path.write_text('[{"x": 0, "p": 0.5}, {"x": 1, "p": 0.5}]')
        code, out, _ = run_cli(
            capsys, "eval", "--lottery", str(path), "--weighting", "power:2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rdu_value,dual_form_value,certainty_equivalent"
        assert lines[1] == "0.75,0.75,0.75"


class TestPremia:
    def test_neutral_dm_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "premia", "--format", "json")
        assert code == 0
        data = json.loads(out)
        for pair in data["premia"].values():
            assert pair["exact"] == 0.0 and pair["approx"] == 0.0

    def test_anchor_scenario(self, capsys):
        code, out, _ = run_cli(
            capsys, "premia", "--utility", "cara:1", "--weighting", "power:2",
            "--x0", "0", "--p0", "0.5", "--eps1", "0.1", "--eps2", "0.25",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["premia"]["sigma"]["approx"] == -0.02
        assert data["premia"]["mu"]["approx"] == -0.05
        assert data["ara"] == 1.0
        assert max(abs(v) for v in data["link_deltas"].values()) < 1e-13

    def test_infeasible_eps2_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "premia", "--eps2", "0.7")
        assert code == 2
        assert "eps2" in err and err.startswith("error: input:")

    def test_spread_below_rounding_width_exits_1(self, capsys):
        # h(0.5 +- 1e-17) == h(0.5), so rho's denominator is exactly zero
        code, out, err = run_cli(capsys, "premia", "--weighting", "power:2", "--eps2", "1e-17")
        assert code == 1
        assert out == ""
        assert err.startswith("error: compute:") and err.count("\n") == 1


class TestSweep:
    def test_four_point_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "eps1", "--start", "0.05", "--stop", "0.2",
            "--num", "4", "--utility", "cara:1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5  # header + 4 rows
        assert lines[0].startswith("x0,p0,eps1,eps2,pi_exact")
        assert "." in lines[1] and ";" not in out

    def test_concave_weighting_sweep_positive_rho(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "p0", "--start", "0.2", "--stop", "0.8",
            "--num", "7", "--weighting", "power:0.5", "--eps2", "0.1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        col = lines[0].split(",").index("rho_exact")
        for line in lines[1:]:
            assert float(line.split(",")[col]) > 0.0

    def test_values_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "x0", "--values", "0,1,2", "--utility", "cara:1",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    def test_empty_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "eps1", "--num", "0",
                               "--start", "0.1", "--stop", "0.2")
        assert code == 2

    def test_empty_values_list_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "eps1", "--values", ",")
        assert code == 2
        assert "empty" in err

    def test_invalid_grid_point_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--axis", "eps2", "--values", "0.1,0.9",
        )
        assert code == 2
        assert err.startswith("error: input:")

    def test_deterministic_output(self, capsys):
        args = (
            "sweep", "--axis", "eps1", "--start", "0.01", "--stop", "0.3",
            "--num", "9", "--utility", "crra:2", "--x0", "2",
            "--weighting", "prelec:0.65,1",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_json_and_table_formats(self, capsys):
        base = ("sweep", "--axis", "eps2", "--values", "0.05,0.1", "--weighting", "tk:0.61")
        code, out, _ = run_cli(capsys, *base, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2 and rows[0]["eps2"] == 0.05
        code, out, _ = run_cli(capsys, *base, "--format", "table")
        assert code == 0
        assert out.splitlines()[0].startswith("x0")


class TestConvergence:
    def test_cara_risk_premium_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "convergence", "--premium", "pi", "--utility", "cara:1",
            "--eps1", "0.2", "--levels", "5", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["fitted_order"] - 4.0) < 0.2
        errs = [lvl["normalized_error"] for lvl in data["levels"]]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_neutral_dm_reports_exact(self, capsys):
        code, out, _ = run_cli(capsys, "convergence", "--premium", "pi")
        assert code == 0
        assert "fitted order: exact" in out

    def test_dt_premium_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "convergence", "--premium", "rho", "--weighting", "power:0.5",
            "--p0", "0.5", "--eps2", "0.2", "--levels", "5", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["fitted_order"] >= 2.0

    def test_missing_premium_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "convergence")
        assert code == 2

    def test_joint_premia_halve_their_own_axis(self, capsys):
        code, out, _ = run_cli(
            capsys, "convergence", "--premium", "sigma", "--utility", "cara:1",
            "--weighting", "power:0.5", "--eps1", "0.2", "--eps2", "0.1",
            "--levels", "4", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["axis"] == "eps1"
        assert [lvl["eps"] for lvl in data["levels"]] == [0.2, 0.1, 0.05, 0.025]
        code, out, _ = run_cli(
            capsys, "convergence", "--premium", "mu", "--utility", "cara:1",
            "--weighting", "power:0.5", "--eps2", "0.2", "--levels", "4",
            "--format", "csv",
        )
        assert code == 0
        assert out.startswith("level,eps,exact,approx,abs_error,normalized_error,fitted_order")


class TestCompare:
    def test_same_dm_all_hold(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--utility", "cara:1", "--weighting", "prelec:0.65,1",
            "--utility2", "cara:1", "--weighting2", "prelec:0.65,1",
            "--points", "51", "--samples", "20",
        )
        assert code == 0
        assert out.count("holds (marginal)") == 5
        assert "rank-dependent" in out

    def test_dual_theory_route_for_linear_utilities(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--weighting", "prelec:0.65,1",
            "--weighting2", "power:0.7@prelec:0.65,1",
            "--points", "51", "--samples", "20", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "dual-theory"
        assert data["all_hold"] is True and data["consistent"] is True

    def test_convexified_fails_with_witnesses(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--weighting", "power:0.7@prelec:0.65,1",
            "--weighting2", "prelec:0.65,1",
            "--points", "51", "--samples", "20", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_hold"] is False and data["consistent"] is True
        assert all(c["witness"] is not None for c in data["conditions"])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--weighting", "power:0.5", "--weighting2", "power:0.8",
            "--points", "51", "--samples", "20", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "condition,label,verdict,worst_margin,slack,n_points"
        assert len(lines) == 6

    def test_missing_second_dm_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--utility", "cara:1")
        assert code == 2
        assert err.startswith("error: input:")

    def test_second_dm_from_single_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--utility", "cara:1", "--utility2", "cara:2",
            "--points", "51", "--samples", "20", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["all_hold"] is True

    def test_degenerate_grid_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--weighting2", "power:0.5", "--points", "2",
        )
        assert code == 2
        assert err.startswith("error: input:")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--samples", "-3", "cross-ratio sample size must be non-negative, got -3"),
            ("--seed", "-1", "sampling seed must be non-negative, got -1"),
        ],
    )
    def test_negative_sample_size_or_seed_exits_2(self, capsys, flag, value, message):
        code, out, err = run_cli(
            capsys, "compare", "--weighting2", "power:0.5", flag, value,
        )
        assert (code, out) == (2, "")
        assert err == f"error: input: {message}\n"


class TestConfigAndOutput:
    def test_config_overrides_flag_with_warning(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x0": 2.0, "utility": "cara:1"}))
        code, out, err = run_cli(
            capsys, "premia", "--x0", "1.0", "--config", str(cfg), "--format", "json",
        )
        assert code == 0
        assert "warning" in err and "x0" in err
        assert json.loads(out)["scenario"]["x0"] == 2.0

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"x_zero": 1}')
        code, _, err = run_cli(capsys, "premia", "--config", str(cfg))
        assert code == 2

    def test_config_accepts_json_object_specs(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "utility": {"family": "cara", "params": [1.0]},
                    "weighting": {
                        "family": "composed",
                        "transform": {"family": "power", "params": [0.7]},
                        "base": {"family": "prelec", "params": [0.65, 1.0]},
                    },
                }
            )
        )
        code, out, _ = run_cli(capsys, "premia", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert json.loads(out)["dm"] == "u=cara:1 h=power:0.7@prelec:0.65,1"

    @pytest.mark.parametrize(
        "config, argv, message",
        [
            ({"premium": ["pi"]}, ["convergence"], "convergence requires --premium"),
            ({"values": 0.5}, ["sweep", "--axis", "eps1"], "bad --values list: 0.5"),
        ],
        ids=["premium list", "scalar values"],
    )
    def test_non_string_premium_in_config_exits_2(self, capsys, tmp_path, config, argv, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: input: {message}")
        assert err.count("\n") == 1

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        args = ("premia", "--utility", "cara:1", "--weighting", "tk:0.61",
                "--eps2", "0.1", "--format", "csv")
        _, out, _ = run_cli(capsys, *args)
        target = tmp_path / "report.csv"
        code = main([*args, "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        assert target.read_text() == out
        assert "\r" not in target.read_text()

    def test_twelve_significant_digits_in_csv(self, capsys):
        _, out, _ = run_cli(
            capsys, "premia", "--utility", "cara:1", "--format", "csv",
        )
        row = out.strip().split("\n")[1].split(",")
        pi_exact = row[4]
        assert pi_exact == "0.00499168882165"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ("premia", "--utility", "cara:1", "--x0", "-800"),
        ("convergence", "--premium", "mu", "--utility", "cara:1", "--x0", "-800"),
    ],
    ids=["premia", "convergence-mu"],
)
def test_overflow_is_one_compute_error_line(capsys, argv):
    """exp(800) overflows: one error line and exit 1, no numpy warning."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: compute: overflow encountered in exp\n"


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "riskpremia", "premia", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("x0,p0,")


DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(capsys, monkeypatch, case):
    """premia, sweep, convergence and eval stdout, byte for byte as
    recorded; eval's lottery files are named relative to tests/data."""
    monkeypatch.chdir(DATA)
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["exit_code"]
    assert out == case["stdout"]
