import contextlib
import io
import json
import math
import multiprocessing.process
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonloclab import cli, experiments, nonlocal_ops
from nonloclab.cli import main
from nonloclab.grid import load_field
from nonloclab.solvers import SolverDivergedError


def run_cli(args):
    return main(list(args))


class TestKernelChecks:
    def test_check_kernel_passes(self, tmp_path):
        out = tmp_path / "ck"
        assert run_cli(["check-kernel", "--n", "1", "--eps", "0.1", "--out", str(out)]) == 0
        summary = json.loads((out / "check_kernel_summary.json").read_text())
        assert summary["pass"] is True
        assert summary["second_moment_per_axis"] == pytest.approx(2.0, abs=1e-8)
        assert (out / "resolved_config.txt").exists()

    def test_check_kernel_2d(self, tmp_path):
        out = tmp_path / "ck2"
        assert run_cli(["check-kernel", "--n", "2", "--eps", "0.2", "--out", str(out)]) == 0

    def test_large_scale_within_range_passes(self, tmp_path):
        out = tmp_path / "ck"
        assert run_cli(["check-kernel", "--n", "2", "--eps", "1e60", "--out", str(out)]) == 0

    @pytest.mark.parametrize("argv", [
        ["check-kernel", "--n", "2", "--eps", "1e90"],
        ["check-kernel", "--n", "1", "--eps", "1e120"],
        ["check-kernel", "--n", "1", "--eps", "1e160"],
        ["symbol-rate", "--n", "2", "--eps", "1e90,1e89,1e88"],
    ])
    def test_kernel_value_scale_underflow_is_usage_error(self, tmp_path, capsys, argv):
        # the kernel would be identically zero, and judged as such
        out = tmp_path / "zero"
        assert run_cli([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "underflows" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["1", "2"])
    @pytest.mark.parametrize("eps", ["0.1", "1e-6"])
    def test_check_kernel_first_moments_scale_with_the_kernel(self, tmp_path, n, eps):
        # the first moments are rounding residues of integrals of size ~1/eps
        out = tmp_path / "ck"
        assert run_cli(["check-kernel", "--n", n, "--eps", eps, "--out", str(out)]) == 0
        summary = json.loads((out / "check_kernel_summary.json").read_text())
        assert summary["checks"]["first_moments"] is True

    def test_oracle_check(self, tmp_path):
        out = tmp_path / "oc"
        code = run_cli(["oracle-check", "--N", "128", "--eps", "0.15", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "oracle_check_summary.json").read_text())
        assert summary["quadratic_form_over_double_sum"] == pytest.approx(0.5, abs=1e-10)

    def test_oracle_check_accepts_support_equal_to_the_box(self, tmp_path):
        # 1.1 / (1.1 / 15) rounds one ulp above 15 cells
        argv = ["oracle-check", "--L", "1.1", "--N", "15", "--eps", "1.1"]
        assert run_cli([*argv, "--out", str(tmp_path / "box")]) == 0

    def test_oracle_check_rejects_wrapping_support_before_direct_pass(self, tmp_path,
                                                                     monkeypatch, capsys):
        def no_direct_pass(*args, **kwargs):
            raise AssertionError("the O(N^2) direct pass ran on invalid input")

        monkeypatch.setattr(cli, "_pair_pass", no_direct_pass)
        code = run_cli(["oracle-check", "--domain", "periodic", "--N", "64,64",
                        "--eps", "0.6", "--out", str(tmp_path / "wrap")])
        assert code == 2
        assert "wraps" in capsys.readouterr().err

    def test_oracle_check_walks_the_node_pairs_once(self, tmp_path):
        with mock.patch.object(nonlocal_ops, "_pair_blocks",
                               wraps=nonlocal_ops._pair_blocks) as spy:
            code = run_cli(["oracle-check", "--N", "24,24", "--eps", "0.2",
                            "--out", str(tmp_path / "once")])
        assert code == 0
        assert spy.call_count == 1

    @pytest.mark.parametrize("cells", ["128,128", "4096"])
    def test_oracle_check_reference_cases(self, tmp_path, cells):
        code = run_cli(["oracle-check", "--N", cells, "--eps", "0.05",
                        "--out", str(tmp_path / "ref")])
        assert code == 0

    @pytest.mark.parametrize("grid_args", [
        ["--N", "4", "--eps", "0.01"],      # support short of the nearest node
        ["--N", "1", "--eps", "0.1"],       # a single node has no neighbour
        ["--N", "8,8", "--eps", "0.1"],
    ])
    def test_oracle_check_rejects_kernel_reaching_no_node(self, tmp_path, monkeypatch,
                                                          capsys, grid_args):
        def no_direct_pass(*args, **kwargs):
            raise AssertionError("the O(N^2) direct pass ran on invalid input")

        monkeypatch.setattr(cli, "_pair_pass", no_direct_pass)
        code = run_cli(["oracle-check", *grid_args, "--out", str(tmp_path / "coarse")])
        assert code == 2
        err = capsys.readouterr().err
        assert "eps = " in err and "spacing" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "abc"])
    def test_oracle_check_rejects_bad_tolerance(self, tmp_path, monkeypatch, capsys, tol):
        def no_direct_pass(*args, **kwargs):
            raise AssertionError("the O(N^2) direct pass ran on invalid input")

        monkeypatch.setattr(cli, "_pair_pass", no_direct_pass)
        code = run_cli(["oracle-check", "--N", "64", f"--tol={tol}",
                        "--out", str(tmp_path / "tol")])
        assert code == 2
        assert "--tol" in capsys.readouterr().err

    def test_oracle_check_rejects_negative_seed(self, tmp_path, monkeypatch, capsys):
        def no_direct_pass(*args, **kwargs):
            raise AssertionError("the O(N^2) direct pass ran on invalid input")

        monkeypatch.setattr(cli, "_pair_pass", no_direct_pass)
        out = tmp_path / "seed"
        code = run_cli(["oracle-check", "--N", "64", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "argument --seed: must not be negative" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_check_accepts_zero_tolerance(self, tmp_path):
        # a zero tolerance is a valid (strict) request; it fails the band, not the parse
        code = run_cli(["oracle-check", "--N", "32", "--eps", "0.2", "--tol", "0",
                        "--out", str(tmp_path / "zero")])
        assert code in (0, 1)


class TestRateCommands:
    def test_operator_rate_outputs(self, tmp_path):
        out = tmp_path / "op"
        code = run_cli([
            "operator-rate", "--domain", "periodic", "--func", "sinmix",
            "--N", "512", "--eps", "0.2,0.1,0.05", "--out", str(out),
        ])
        assert code == 0
        assert (out / "operator_rate.csv").exists()
        assert (out / "operator_rate.svg").exists()
        summary = json.loads((out / "operator_rate_summary.json").read_text())
        assert summary["pass"] is True
        csv_lines = (out / "operator_rate.csv").read_text().splitlines()
        assert csv_lines[0] == "epsilon,error,included_in_fit"
        assert len(csv_lines) == 4

    def test_band_failure_exit_code(self, tmp_path):
        out = tmp_path / "fail"
        code = run_cli([
            "operator-rate", "--domain", "periodic", "--func", "sinmix",
            "--N", "512", "--eps", "0.2,0.1,0.05",
            "--slope-min", "5.0", "--out", str(out),
        ])
        assert code == 1

    def test_symbol_rate(self, tmp_path):
        out = tmp_path / "sym"
        assert run_cli(["symbol-rate", "--n", "1", "--eps", "0.2,0.1,0.05",
                        "--out", str(out)]) == 0

    def test_energy_rate(self, tmp_path):
        out = tmp_path / "en"
        assert run_cli(["energy-rate", "--N", "512", "--eps", "0.2,0.1,0.05",
                        "--out", str(out)]) == 0
        assert (out / "energy_rate.csv").exists()
        assert (out / "energy_rate.svg").exists()

    def test_remainder_rate(self, tmp_path):
        out = tmp_path / "rem"
        assert run_cli(["remainder-rate", "--N", "512", "--eps", "0.2,0.1,0.05",
                        "--out", str(out)]) == 0
        lines = (out / "remainder_rate.csv").read_text().splitlines()
        assert lines[0] == "epsilon,margin,value"

    @pytest.mark.parametrize("argv", [
        ["--N", "1024", "--eps", "0.4,0.1,0.05"],
        ["--N", "128,128", "--eps", "0.2,0.1,0.07"],
    ])
    def test_remainder_falling_to_exact_zeros_passes(self, tmp_path, capsys, argv):
        out = tmp_path / "flat"
        assert run_cli(["remainder-rate", "--func", "flatbump", *argv, "--out", str(out)]) == 0
        assert "monotone True -> pass" in capsys.readouterr().out
        summary = json.loads((out / "remainder_rate_summary.json").read_text())
        assert summary["values"][1:] == [0.0, 0.0]
        assert summary["monotone_decreasing"] is True

    @pytest.mark.parametrize("argv, summary_name, passed", [
        (["check-kernel", "--n", "2", "--eps", "0.1"], "check_kernel", True),
        (["symbol-rate", "--n", "1", "--eps", "0.2,0.1,0.05"], "symbol_rate", True),
        (["operator-rate", "--domain", "periodic", "--func", "sinmix", "--N", "512",
          "--eps", "0.2,0.1,0.05", "--slope-min", "5"], "operator_rate", False),
        (["energy-rate", "--N", "512", "--eps", "0.2,0.1,0.05"], "energy_rate", True),
        (["oracle-check", "--N", "32", "--eps", "0.2", "--tol", "0"], "oracle_check", False),
        (["gronwall", "--N", "256", "--T", "2e-3", "--eps", "0.16,0.08,0.04"], "gronwall", True),
    ])
    def test_exit_code_summary_and_verdict_line_agree(self, tmp_path, capsys, argv,
                                                      summary_name, passed):
        out = tmp_path / "verdict"
        code = run_cli([*argv, "--out", str(out)])
        summary = json.loads((out / f"{summary_name}_summary.json").read_text())
        last = capsys.readouterr().out.splitlines()[-1]
        assert summary["pass"] is passed
        assert code == (0 if passed else 1)
        assert last.endswith("-> pass" if passed else "-> FAIL")

    @pytest.mark.parametrize("command", [
        ["symbol-rate", "--n", "1"],
        ["operator-rate", "--N", "256"],
        ["solution-rate", "--N", "256"],
    ])
    @pytest.mark.parametrize("flag", ["--slope-min", "--slope-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_slope_bound_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                   command, flag, value):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran with a non-finite band")

        for name in ("symbol_study", "operator_rate_study", "solution_convergence_study"):
            monkeypatch.setattr(cli, name, no_study)
        code = run_cli([*command, f"{flag}={value}", "--out", str(tmp_path / "band")])
        assert code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["symbol-rate", "--n", "1"],
        ["operator-rate", "--N", "256"],
        ["solution-rate", "--N", "256"],
    ])
    def test_empty_band_is_usage_error(self, tmp_path, monkeypatch, capsys, command):
        # no slope lies in [0.9, 0.4], so the band could only ever fail
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran with an empty band")

        for name in ("symbol_study", "operator_rate_study", "solution_convergence_study"):
            monkeypatch.setattr(cli, name, no_study)
        out = tmp_path / "band"
        code = run_cli([*command, "--slope-min", "0.9", "--slope-max", "0.4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--slope-min 0.9" in err and "--slope-max 0.4" in err
        assert not (out / "resolved_config.txt").exists()

    @pytest.mark.parametrize("command", ["solution-rate", "gronwall"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_perturbation_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                    command, value):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran with a non-finite perturbation")

        monkeypatch.setattr(cli, "solution_convergence_study", no_study)
        code = run_cli([command, "--N", "256", f"--perturbation={value}",
                        "--out", str(tmp_path / "pert")])
        assert code == 2
        assert "--perturbation" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solution-rate", "gronwall"])
    def test_solution_study_on_a_torus_is_usage_error(self, tmp_path, capsys, command):
        # the study's offset profile and named initial data are not periodic,
        # so every run would start with a jump at the wrap
        out = tmp_path / "torus"
        code = run_cli([command, "--domain", "periodic", "--N", "256", "--T", "0.001",
                        "--tau", "1e-4", "--record-every", "5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "zero-flux" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["operator-rate", "energy-rate"])
    def test_non_periodic_test_function_on_a_torus_is_usage_error(self, tmp_path, capsys,
                                                                   command):
        # cospix, the default, jumps by 2 at the wrap of a torus
        out = tmp_path / "torus"
        assert run_cli([command, "--domain", "periodic", "--func", "cospix",
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: test function 'cospix' is not periodic")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_test_function_not_flat_at_the_walls_is_usage_error(self, tmp_path, capsys):
        # sinmix has a nonzero normal derivative at both walls, where the
        # spectral Laplacian then sees a kink: the error would be its artifact
        out = tmp_path / "box"
        assert run_cli(["operator-rate", "--domain", "neumann", "--func", "sinmix",
                        "--N", "1024", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: test function 'sinmix' has a nonzero normal derivative")
        assert "zero-flux box" in err and err.count("\n") == 1
        assert not out.exists()

    def test_slope_bound_from_config_file_is_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("slope_min=nan\n")
        code = run_cli(["symbol-rate", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "slope_min" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "inf"])
    def test_bad_margin_factor_is_usage_error(self, tmp_path, monkeypatch, capsys, value):
        def no_study(*args, **kwargs):
            raise AssertionError("the remainder study ran with a bad margin factor")

        monkeypatch.setattr(cli, "remainder_rate_study", no_study)
        code = run_cli(["remainder-rate", "--N", "256", f"--margin-factor={value}",
                        "--out", str(tmp_path / "margin")])
        assert code == 2
        assert "--margin-factor" in capsys.readouterr().err

    def test_zero_margin_factor_is_accepted(self, tmp_path):
        assert run_cli(["remainder-rate", "--N", "512", "--eps", "0.2,0.1,0.05",
                        "--margin-factor", "0", "--out", str(tmp_path / "m0")]) in (0, 1)


class TestSolveCommand:
    def test_trajectory_and_checkpoints(self, tmp_path):
        out = tmp_path / "solve"
        code = run_cli([
            "solve", "--eq", "nonlocal-ch", "--eps", "0.1",
            "--potential", "doublewell:K=1", "--T", "0.002", "--tau", "1e-5",
            "--N", "128", "--record-every", "100", "--checkpoints", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,mass,energy"
        checkpoints = sorted(out.glob("state_t*.bin"))
        assert len(checkpoints) == len(lines) - 1
        field = load_field(checkpoints[0])
        assert field.grid.cells == (128,)

    def test_kernel_reaching_no_node_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["solve", "--eq", "nonlocal-ch", "--eps", "0.01", "--N", "64",
                        "--T", "1e-4", "--out", str(tmp_path / "coarse")])
        assert code == 2
        err = capsys.readouterr().err
        assert "eps = 0.01" in err and "spacing 0.0156" in err
        assert not (tmp_path / "coarse" / "trajectory.csv").exists()

    def test_nonlocal_needs_eps(self, tmp_path, capsys):
        out = tmp_path / "ne"
        code = run_cli(["solve", "--eq", "nonlocal-ch", "--T", "0.001",
                        "--tau", "1e-5", "--N", "64", "--out", str(out)])
        assert code == 2

    @pytest.mark.parametrize("eq", ["local-ch", "local-ac"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_local_equation_rejects_eps(self, tmp_path, capsys, eq, from_config):
        # the local flows have no kernel, so a scale would be silently unused
        out = tmp_path / "le"
        argv = ["solve", "--eq", eq, "--N", "32", "--T", "0.0001", "--out", str(out)]
        if from_config:
            cfg = tmp_path / "le.cfg"
            cfg.write_text("eps=0.1\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--eps", "0.1"]
        assert run_cli(argv) == 2
        assert "--eps" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("eq", ["local-ch", "local-ac"])
    def test_local_equation_checks_profile(self, tmp_path, capsys, eq):
        # a local flow takes no kernel, yet a profile name that no flow knows
        # is rejected as on the nonlocal flows; a known one is accepted unused
        argv = ["solve", "--eq", eq, "--N", "32", "--T", "1e-4", "--tau", "1e-5"]
        out = tmp_path / "bogus"
        assert run_cli([*argv, "--profile", "bogus", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown profile 'bogus'; available: [")
        assert err.count("\n") == 1
        assert not out.exists()
        assert run_cli([*argv, "--profile", "poly-4-3", "--out", str(tmp_path / "a")]) == 0
        assert run_cli([*argv, "--out", str(tmp_path / "b")]) == 0
        trajectories = [(tmp_path / d / "trajectory.csv").read_bytes() for d in "ab"]
        assert trajectories[0] == trajectories[1]

    @pytest.mark.parametrize("flag, value, message", [
        ("--T", "inf", "t_final must be finite"),
        ("--tau", "nan", "tau must be finite"),
        ("--N", "32,abc", "--N takes comma-separated int values, got '32,abc'"),
        ("--N", "32.5", "--N takes comma-separated int values, got '32.5'"),
        ("--N", "32,", "--N takes comma-separated int values, got '32,'"),
        ("--L", "abc", "--L takes comma-separated float values, got 'abc'"),
    ])
    def test_non_finite_config_is_usage_error(self, tmp_path, capsys, flag, value, message):
        # the last occurrence of a flag wins
        assert run_cli(["solve", "--eq", "local-ch", "--N", "32", "--T", "0.05",
                        "--tau", "0.01", flag, value, "--out", str(tmp_path / "bad")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("doublewell:foo=1", "accepted parameters: K"),
        ("logarithmic:theta=0.8", "missing parameters: theta_c"),
        ("doublewell:K=inf", "K must be finite"),
        ("logarithmic:theta=0.8,theta_c=1,clamp_delta=1e-8", "unknown parameters ['clamp_delta']"),
    ])
    def test_bad_potential_is_usage_error(self, tmp_path, capsys, spec, message):
        code = run_cli(["solve", "--eq", "local-ch", "--N", "32", "--T", "0.05",
                        "--tau", "0.01", "--potential", spec, "--out", str(tmp_path / "bad")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_ac_solve(self, tmp_path):
        out = tmp_path / "ac"
        assert run_cli(["solve", "--eq", "local-ac", "--T", "0.01", "--tau", "1e-4",
                        "--N", "64", "--out", str(out)]) == 0

    @pytest.mark.parametrize("initial", ["cosmix", "threshold"])
    def test_non_periodic_initial_data_on_a_torus_is_usage_error(self, tmp_path, capsys,
                                                                 initial):
        # both cosine series jump at the wrap of a torus; cosmix is the default
        out = tmp_path / "torus"
        argv = ["solve", "--eq", "local-ch", "--domain", "periodic", "--N", "256",
                "--T", "0.001", "--tau", "1e-4", "--out", str(out)]
        if initial != "cosmix":
            argv += ["--initial", initial]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(initial) in err and "periodic" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solution-rate", "gronwall"])
    def test_rung_wider_than_the_box_is_usage_error(self, tmp_path, capsys, command):
        # gronwall steps only the second rung, but checks the whole ladder
        out = tmp_path / "wide"
        code = run_cli([command, "--N", "256", "--T", "0.001", "--tau", "1e-4",
                        "--record-every", "5", "--eps", "1.5,0.08,0.04", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: kernel support exceeds the box; no room for one reflection\n"
        assert not out.exists()

    def test_random_initial_data_on_a_torus(self, tmp_path):
        out = tmp_path / "torus"
        assert run_cli(["solve", "--eq", "local-ch", "--domain", "periodic", "--N", "256",
                        "--T", "0.001", "--tau", "1e-4", "--initial", "random",
                        "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "solution-rate", "gronwall"])
    @pytest.mark.parametrize("entry", ["mobility=1.0", "stabilization=4.0"])
    def test_config_naming_a_removed_flow_setting_is_usage_error(self, tmp_path, capsys,
                                                                  command, entry):
        # the flows run at unit mobility with the curvature-bound stabilizer,
        # so a saved config that sets either no longer replays
        config = tmp_path / "old.txt"
        config.write_text(f"# nonloclab {command}\n{entry}\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--out", str(out)]
        if command == "solve":
            argv[1:1] = ["--eq", "local-ch"]
        assert run_cli(argv) == 2
        key = entry.partition("=")[0]
        assert capsys.readouterr().err == f"config error: unknown keys ['{key}']\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("solve", "--mobility"), ("solution-rate", "--mobility"), ("gronwall", "--mobility"),
        ("solve", "--stabilization"),
    ])
    def test_removed_flow_flag_is_usage_error(self, tmp_path, capsys, command, flag):
        # an old command line fails before any run rather than running at
        # settings it did not ask for
        out = tmp_path / "out"
        argv = [command, flag, "1.0", "--out", str(out)]
        if command == "solve":
            argv[1:1] = ["--eq", "local-ch"]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err
        assert not out.exists()

    def test_saved_config_replays_on_an_allen_cahn_flow(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(["solve", "--eq", "local-ac", "--N", "64", "--T", "0.001",
                        "--tau", "1e-4", "--out", str(first)]) == 0
        resolved = first / "resolved_config.txt"
        text = resolved.read_text()
        assert "mobility" not in text and "stabilization" not in text
        assert run_cli(["solve", "--config", str(resolved), "--out", str(second)]) == 0
        name = "trajectory.csv"
        assert (second / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["--eq", "local-ch", "--N", "32", "--T", "1e300", "--tau", "1e-300"],
         "step count is not finite"),
    ])
    def test_failed_run_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "failed"
        assert run_cli(["solve", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_diverged_run_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # no solve call on named initial data diverges under the semi-implicit
        # step, so the run raises what a diverged run raises
        message = "local-ac diverged at step 5 (t = 5): max |c| = 1.800e+16"

        def diverge(*args, **kwargs):
            raise SolverDivergedError(message)

        monkeypatch.setattr(cli, "run", diverge)
        out = tmp_path / "diverged"
        assert run_cli(["solve", "--eq", "local-ac", "--N", "32", "--T", "5", "--tau", "1",
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--eq", "local-ch", "--eps", "0.1", "--N", "32", "--T", "0.0001"],
        ["--eq", "nonlocal-ch", "--N", "32"],
        ["--eq", "local-ch", "--T", "inf"],
    ])
    def test_rejected_call_writes_no_resolved_config(self, tmp_path, argv):
        out = tmp_path / "rejected"
        assert run_cli(["solve", *argv, "--out", str(out)]) == 2
        assert not (out / "resolved_config.txt").exists()

    def test_colliding_checkpoint_names_are_usage_error(self, tmp_path, capsys):
        # 11 records 1e-9 apart; state_t{t:.8f}.bin gives them 2 names
        out = tmp_path / "clash"
        assert run_cli(["solve", "--eq", "local-ch", "--N", "16", "--T", "1e-8", "--tau", "1e-9",
                        "--record-every", "1", "--checkpoints", "--out", str(out)]) == 2
        assert "--record-every" in capsys.readouterr().err
        assert not out.exists()
        # 1e-8 apart, every record has its own name
        assert run_cli(["solve", "--eq", "local-ch", "--N", "16", "--T", "1e-7", "--tau", "1e-8",
                        "--record-every", "1", "--checkpoints", "--out", str(out)]) == 0
        assert len(list(out.glob("state_t*.bin"))) == 11

    def test_rejected_call_leaves_no_default_output_directory(self, tmp_path, monkeypatch,
                                                              capsys):
        # out-solve/ used to be made before the command checked its inputs
        monkeypatch.chdir(tmp_path)
        assert run_cli(["solve", "--eq", "local-ch", "--N", "32,abc"]) == 2
        assert "--N takes comma-separated int values" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rejected_call_removes_only_the_directories_it_made(self, tmp_path):
        kept = tmp_path / "kept"
        kept.mkdir()
        argv = ["solve", "--eq", "local-ch", "--N", "32,abc", "--out"]
        assert run_cli([*argv, str(kept)]) == 2
        assert kept.is_dir() and list(kept.iterdir()) == []
        # nor does it make kept/a or kept/a/b
        assert run_cli([*argv, str(kept / "a" / "b")]) == 2
        assert list(tmp_path.iterdir()) == [kept]
        assert list(kept.iterdir()) == []

    def test_rejected_call_writes_no_file_it_listed(self, tmp_path, monkeypatch):
        parser = cli.build_parser()

        def list_then_fail(args, files):
            files.append(("partial.csv", lambda path: path.write_text("t\n")))
            raise ValueError("failed after listing a file")

        parser.commands["solve"].set_defaults(func_impl=list_then_fail)
        monkeypatch.setattr(cli, "_shared_parser", lambda: parser)
        assert run_cli(["solve", "--eq", "local-ch", "--out", str(tmp_path / "a" / "b")]) == 2
        assert list(tmp_path.iterdir()) == []


def _extreme_floats(lo, hi):
    """Floats in ``[lo, hi]`` and the extremes and invalid values around them."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(
        [1e-300, 1e300, 0.0, -1.0, math.inf, math.nan]))


class TestSolveProperty:
    _MAX_STEPS = 64

    @settings(max_examples=150, deadline=None)
    @given(
        eq=st.sampled_from(["local-ch", "local-ac"]),
        tau=_extreme_floats(1e-8, 1e-2),
        # T is a whole number of steps, or drawn on its own
        steps=st.one_of(st.integers(1, _MAX_STEPS), st.none()),
        free_T=_extreme_floats(1e-8, 1.0),
        K=_extreme_floats(1e-3, 1e8),
    )
    def test_solve_exits_0_or_2(self, eq, tau, steps, free_T, K):
        T = free_T if steps is None else steps * tau
        # a run of more steps than the cap may be valid and only slow
        assume(not (tau > 0 and math.isfinite(T / tau) and T / tau > self._MAX_STEPS))
        argv = ["solve", "--eq", eq, "--N", "16", "--T", repr(T), "--tau", repr(tau),
                "--potential", f"doublewell:K={K!r}"]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            out = Path(tmp) / "out"
            code = run_cli([*argv, "--out", str(out)])
            made, resolved = out.exists(), (out / "resolved_config.txt").exists()
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        # the call reached the run: argparse knows every flag it passes
        assert "unrecognized arguments" not in err.getvalue()
        assert resolved == made == (code == 0)


class TestUsageAndConfig:
    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv, code", [(["--version"], 0), (["frobnicate"], 2)])
    def test_python_dash_m_runs_the_cli(self, tmp_path, argv, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "nonloclab", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr
        if code == 0:
            assert done.stdout.startswith("nonloclab ")
        assert "Traceback" not in done.stderr

    def test_solve_leaves_legacy_fft_module_unimported(self, tmp_path):
        # importing scipy.fftpack costs about 25 ms of every CLI call
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import sys\n"
                  "import nonloclab.cli\n"
                  "code = nonloclab.cli.main(['solve', '--eq', 'nonlocal-ch', '--eps', '0.2',"
                  " '--N', '32', '--T', '1e-3', '--tau', '1e-4', '--out', 'run'])\n"
                  "assert code == 0, code\n"
                  "print('scipy.fftpack' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-1] == "False"

    def test_bad_flag_value(self):
        assert run_cli(["check-kernel", "--n", "7"]) == 2

    def test_bare_grid_study_defaults_resolve_their_ladder(self):
        parser = cli.build_parser()
        # the subcommands with a grid and a scale ladder
        studies = sorted(name for name, sub in parser.commands.items()
                         if "N" in sub.options and sub.options["eps"].dest == "eps")
        assert studies == ["energy-rate", "gronwall", "operator-rate", "remainder-rate",
                           "solution-rate"]
        for name in studies:
            args = parser.parse_args([name])
            assert experiments._grid_ladder(cli._make_grid(args)[0], args.eps) == args.eps

    def test_config_file_provides_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# study setup\nN=1024\neps=0.2,0.1,0.05\n")
        out = tmp_path / "cf"
        code = run_cli(["operator-rate", "--domain", "periodic", "--func", "sinmix",
                        "--config", str(cfg), "--out", str(out)])
        assert code == 0
        resolved = (out / "resolved_config.txt").read_text()
        assert "N=1024" in resolved

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N=512\n")
        out = tmp_path / "ov"
        code = run_cli(["operator-rate", "--domain", "periodic", "--func", "sinmix",
                        "--eps", "0.2,0.1,0.05", "--config", str(cfg),
                        "--N", "256", "--out", str(out)])
        assert code == 0
        assert "N=256" in (out / "resolved_config.txt").read_text()

    @pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]])
    def test_every_config_spelling_reads_the_file(self, tmp_path, spelling):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("eps=0.3\n")
        out = tmp_path / "ck"
        flag = [part.format(cfg) for part in spelling]
        assert run_cli(["check-kernel", *flag, "--out", str(out)]) == 0
        assert "eps=0.3\n" in (out / "resolved_config.txt").read_text()

    @pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]])
    def test_missing_config_file_is_usage_error(self, tmp_path, capsys, spelling):
        flag = [part.format(tmp_path / "absent.cfg") for part in spelling]
        assert run_cli(["check-kernel", *flag, "--out", str(tmp_path / "ck")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobs=3\n")
        assert run_cli(["operator-rate", "--config", str(cfg)]) == 2

    def test_retired_scheme_key_is_usage_error(self, tmp_path, capsys):
        # a solve resolved_config.txt written while the step had a scheme option
        cfg = tmp_path / "resolved_config.txt"
        cfg.write_text("# nonloclab solve\neq=local-ch\nscheme=semi-implicit\n")
        out = tmp_path / "old"
        assert run_cli(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown keys ['scheme']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ("eps=0.1,0.05,0.025\neps=0.3,0.2,0.1\n", "eps"),
        ("slope-min=0.4\nslope_min=0.5\n", "slope_min"),
    ])
    def test_repeated_config_key_is_usage_error(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "dup"
        assert run_cli(["operator-rate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: duplicate key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line without equals\n")
        assert run_cli(["operator-rate", "--config", str(cfg)]) == 2

    def test_missing_config_path(self):
        assert run_cli(["operator-rate", "--config"]) == 2

    @pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"]])
    def test_config_before_the_subcommand_replays(self, tmp_path, spelling):
        # the file supplies solve's required eq
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(["solve", "--eq", "local-ch", "--N", "32", "--T", "1e-3", "--tau",
                        "1e-4", "--checkpoints", "--out", str(first)]) == 0
        flag = [part.format(first / "resolved_config.txt") for part in spelling]
        assert run_cli([*flag, "solve", "--out", str(second)]) == 0
        assert sorted(p.name for p in second.iterdir()) == sorted(p.name for p in first.iterdir())
        for path in first.iterdir():
            if path.name != "resolved_config.txt":
                assert (second / path.name).read_bytes() == path.read_bytes()

        def without_out(directory):
            text = (directory / "resolved_config.txt").read_text()
            return [line for line in text.splitlines() if not line.startswith("out=")]

        assert without_out(second) == without_out(first)

    def test_uncreatable_output_directory_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran into an uncreatable --out")

        monkeypatch.setattr(cli, "solution_convergence_study", no_study)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli(["solution-rate", "--out", str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Not a directory" in err
        assert sorted(tmp_path.iterdir()) == [blocker]

    # one small accepted call of each command
    TINY = {
        "check-kernel": ["--eps", "0.2"],
        "symbol-rate": ["--eps", "0.2,0.1,0.05"],
        "operator-rate": ["--N", "256", "--eps", "0.2,0.1,0.05"],
        "energy-rate": ["--N", "256", "--eps", "0.2,0.1,0.05"],
        "remainder-rate": ["--N", "256", "--eps", "0.2,0.1,0.05"],
        "solve": ["--eq", "local-ch", "--N", "16", "--T", "2e-4", "--tau", "1e-4",
                  "--record-every", "1", "--checkpoints"],
        "solution-rate": ["--N", "256", "--T", "1e-3", "--tau", "1e-4", "--record-every", "5",
                          "--eps", "0.16,0.08,0.04"],
        "oracle-check": ["--N", "32", "--eps", "0.2"],
        "gronwall": ["--N", "256", "--T", "1e-3", "--tau", "1e-4", "--eps", "0.16,0.08,0.04"],
    }

    @pytest.mark.parametrize("command", sorted(TINY))
    def test_unwritable_resolved_config_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        (out / "resolved_config.txt").mkdir(parents=True)
        assert run_cli([command, *self.TINY[command], "--out", str(out)]) == 2
        captured = capsys.readouterr()
        # the command ran, but the call was rejected: it printed and wrote nothing
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Is a directory" in captured.err
        assert list(out.iterdir()) == [out / "resolved_config.txt"]

    def test_failed_output_write_removes_the_resolved_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "symbol_rate.svg").mkdir(parents=True)
        assert run_cli(["symbol-rate", *self.TINY["symbol-rate"], "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert not (out / "resolved_config.txt").exists()

    @staticmethod
    def _contents(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    def test_rejected_call_keeps_a_reused_directory_byte_for_byte(self, tmp_path, monkeypatch):
        out = tmp_path / "d"
        assert run_cli(["check-kernel", "--eps", "0.1", "--out", str(out)]) == 0
        before = self._contents(out)

        def unwritable(*args):
            raise OSError("no space left")

        monkeypatch.setattr(cli, "_write_resolved_config", unwritable)
        assert run_cli(["check-kernel", "--eps", "0.2", "--out", str(out)]) == 2
        assert self._contents(out) == before

    def test_diverged_run_keeps_a_reused_directory_byte_for_byte(self, tmp_path, monkeypatch):
        out = tmp_path / "d"
        argv = ["solve", "--eq", "local-ch", "--N", "16", "--tau", "1e-4", "--record-every",
                "1", "--checkpoints", "--out", str(out)]
        assert run_cli([*argv, "--T", "2e-4"]) == 0
        before = self._contents(out)

        def diverge(*args, **kwargs):
            raise SolverDivergedError("local-ch diverged")

        monkeypatch.setattr(cli, "run", diverge)
        assert run_cli([*argv, "--T", "3e-4"]) == 2
        assert self._contents(out) == before

    def test_unresolvable_scale_is_usage_error(self, tmp_path):
        out = tmp_path / "bad"
        code = run_cli(["operator-rate", "--domain", "periodic", "--func", "sinmix",
                        "--N", "64", "--eps", "0.2,0.1,0.001", "--out", str(out)])
        assert code == 2

    def test_final_time_not_a_step_multiple_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["solution-rate", "--N", "256", "--T", "0.1", "--tau", "0.03",
                        "--eps", "0.16,0.08,0.04",
                        "--workers", "1", "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "whole number of steps" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["operator-rate", "--eps", "inf,0.1,0.05", "--N", "512"],
        ["energy-rate", "--eps", "1e308,0.1,0.05", "--N", "512"],
        ["solve", "--eq", "nonlocal-ch", "--eps", "inf", "--N", "64", "--T", "1e-4",
         "--tau", "1e-5"],
        ["oracle-check", "--eps", "inf", "--N", "64"],
    ])
    def test_non_finite_or_huge_scale_is_usage_error(self, tmp_path, capsys, argv):
        assert run_cli([*argv, "--out", str(tmp_path / "huge")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["eps=0.3\n", "eps=0.3\nn=seven\n"])
    def test_config_does_not_leak_into_the_next_call(self, tmp_path, text):
        # the second file sets eps, then fails on n: exit 2 with eps replaced
        cfg = tmp_path / "k.cfg"
        cfg.write_text(text)
        code = run_cli(["check-kernel", "--config", str(cfg), "--out", str(tmp_path / "a")])
        assert code == (0 if text == "eps=0.3\n" else 2)
        assert run_cli(["check-kernel", "--out", str(tmp_path / "b")]) == 0
        assert "eps=0.1\n" in (tmp_path / "b" / "resolved_config.txt").read_text()

    def test_config_supplies_a_required_flag(self, tmp_path):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("eq=local-ac\nN=64\nT=0.001\ntau=1e-4\n")
        out = tmp_path / "solve"
        assert run_cli(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        resolved = (out / "resolved_config.txt").read_text()
        assert "eq=local-ac\n" in resolved and "N=64\n" in resolved

    @pytest.mark.parametrize("command", ["solve", "oracle-check"])
    def test_config_key_is_the_flag_name(self, tmp_path, command):
        cfg = tmp_path / "eps.cfg"
        cfg.write_text("eps=0.2\n")
        out = tmp_path / "eps"
        argv = [command, "--config", str(cfg), "--N", "32", "--out", str(out)]
        if command == "solve":
            argv += ["--eq", "nonlocal-ac", "--T", "1e-4", "--tau", "1e-5"]
        assert run_cli(argv) == 0
        assert "eps=0.2\n" in (out / "resolved_config.txt").read_text()
        cfg.write_text("eps_value=0.2\n")  # the internal destination is no key
        assert run_cli(argv) == 2

    @pytest.mark.parametrize("text, written", [
        ("true", True), ("Yes", True), ("1", True), ("false", False), ("no", False),
        ("0", False),
    ])
    def test_boolean_config_values(self, tmp_path, text, written):
        cfg = tmp_path / "flag.cfg"
        cfg.write_text(f"checkpoints={text}\n")
        out = tmp_path / "flag"
        assert run_cli(["solve", "--eq", "local-ac", "--N", "32", "--T", "1e-3",
                        "--tau", "1e-4", "--config", str(cfg), "--out", str(out)]) == 0
        assert f"checkpoints={written}\n" in (out / "resolved_config.txt").read_text()
        assert bool(list(out.glob("state_t*.bin"))) is written

    @pytest.mark.parametrize("text", ["maybe", "", "on", "2"])
    def test_bad_boolean_config_value_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "flag.cfg"
        cfg.write_text(f"checkpoints={text}\n")
        assert run_cli(["solve", "--eq", "local-ac", "--N", "32", "--T", "1e-3",
                        "--tau", "1e-4", "--config", str(cfg),
                        "--out", str(tmp_path / "flag")]) == 2
        assert "config error: bad value for 'checkpoints'" in capsys.readouterr().err

    def test_typed_flag_beats_config_boolean(self, tmp_path):
        cfg = tmp_path / "flag.cfg"
        cfg.write_text("checkpoints=false\n")
        out = tmp_path / "flag"
        assert run_cli(["solve", "--eq", "local-ac", "--N", "32", "--T", "1e-3",
                        "--tau", "1e-4", "--config", str(cfg), "--checkpoints",
                        "--out", str(out)]) == 0
        assert "checkpoints=True\n" in (out / "resolved_config.txt").read_text()

    def test_parser_is_built_once_per_process(self, tmp_path):
        cli._shared_parser.cache_clear()
        with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
            for name in ("a", "b"):
                assert run_cli(["check-kernel", "--out", str(tmp_path / name)]) == 0
        assert build.call_count == 1

    @pytest.mark.parametrize("argv", [
        ["check-kernel", "--eps", "1e-300"],
        ["check-kernel", "--n", "2", "--eps", "1e-160"],
        ["symbol-rate", "--n", "2", "--eps", "1e-100,1e-101,1e-102"],
        ["check-kernel", "--eps", "3e-103"],
        ["check-kernel", "--n", "2", "--eps", "1e-77"],
    ])
    def test_scale_too_small_for_a_float_kernel_is_usage_error(self, tmp_path, capsys, argv):
        assert run_cli([*argv, "--out", str(tmp_path / "tiny")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eps = " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["operator-rate", "solution-rate"])
    def test_non_finite_scale_in_ladder_is_named(self, tmp_path, capsys, command):
        argv = [command, "--eps", "0.2,nan,0.05", "--N", "256", "--out", str(tmp_path / "nan")]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scales must be finite")
        assert "[nan]" in err


class TestWorkersFlag:
    COMMANDS = {
        "check-kernel": [],
        "symbol-rate": [],
        "operator-rate": [],
        "energy-rate": [],
        "remainder-rate": [],
        "solve": ["--eq", "local-ch"],
        "solution-rate": [],
        "oracle-check": [],
        "gronwall": [],
    }

    def test_every_subcommand_parses_workers(self, tmp_path):
        parser = cli.build_parser()
        assert sorted(parser.commands) == sorted(self.COMMANDS)
        for command, required in self.COMMANDS.items():
            args = parser.parse_args([command, *required, "--workers", "1"])
            assert args.workers == 1
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text("workers=1\n")
            assert main([command, *required, "--config", str(cfg), "--help"]) == 0

    def test_workers_is_an_integer(self, tmp_path):
        assert run_cli(["symbol-rate", "--workers", "two",
                        "--out", str(tmp_path / "bad")]) == 2

    @pytest.mark.parametrize("argv", [
        ["symbol-rate", "--n", "1", "--eps", "0.2,0.1,0.05"],
        ["operator-rate", "--N", "512", "--eps", "0.2,0.1,0.05"],
        ["energy-rate", "--N", "512", "--eps", "0.2,0.1,0.05"],
        ["remainder-rate", "--N", "512", "--eps", "0.2,0.1,0.05"],
    ])
    def test_studies_start_no_process(self, tmp_path, monkeypatch, argv):
        def no_process(self):
            raise AssertionError("a study started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        one, two = tmp_path / "one", tmp_path / "two"
        assert run_cli([*argv, "--workers", "1", "--out", str(one)]) == 0
        assert run_cli([*argv, "--workers", "2", "--out", str(two)]) == 0
        outputs = sorted(p.name for p in one.iterdir() if p.suffix in (".csv", ".json"))
        assert outputs == sorted(p.name for p in two.iterdir() if p.suffix in (".csv", ".json"))
        assert len(outputs) == 2
        for name in outputs:
            assert (one / name).read_bytes() == (two / name).read_bytes()


class TestConfigRoundTrip:
    REQUIRED = {"solve": {"eq": "local-ch"}}

    @staticmethod
    def _text(value):
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, tuple):
            return ",".join(str(v) for v in value)
        return str(value)

    @pytest.mark.parametrize("command", sorted(TestWorkersFlag.COMMANDS))
    def test_defaults_from_a_file_resolve_like_the_bare_call(self, tmp_path, monkeypatch,
                                                             command):
        # the commands themselves are stubbed: this pins how arguments resolve
        parser = cli.build_parser()
        for sub in parser.commands.values():
            sub.set_defaults(func_impl=lambda args, files: 0)
        monkeypatch.setattr(cli, "_shared_parser", lambda: parser)
        lines = [f"{key}={value}" for key, value in self.REQUIRED.get(command, {}).items()]
        for action in parser.commands[command]._actions:
            if action.dest != "help" and action.default is not None:
                flag = next(f for f in action.option_strings if f.startswith("--"))
                lines.append(f"{flag[2:]}={self._text(action.default)}")
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        required = [f"--{key}={value}" for key, value in self.REQUIRED.get(command, {}).items()]
        assert run_cli([command, *required, "--out", str(out)]) == 0
        bare = (out / "resolved_config.txt").read_text()
        assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "resolved_config.txt").read_text() == bare

    @pytest.mark.parametrize("command", sorted(TestWorkersFlag.COMMANDS))
    def test_resolved_config_reads_back_as_itself(self, tmp_path, monkeypatch, command):
        parser = cli.build_parser()
        for sub in parser.commands.values():
            sub.set_defaults(func_impl=lambda args, files: 0)
        monkeypatch.setattr(cli, "_shared_parser", lambda: parser)
        out = tmp_path / "out"
        required = [f"--{key}={value}" for key, value in self.REQUIRED.get(command, {}).items()]
        assert run_cli([command, *required, "--out", str(out)]) == 0
        resolved = out / "resolved_config.txt"
        first = resolved.read_text()
        assert first.startswith(f"# nonloclab {command}\n")
        assert "None" not in first
        assert run_cli([command, "--config", str(resolved)]) == 0
        assert resolved.read_text() == first

    def test_oracle_check_reruns_from_its_resolved_config(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(["oracle-check", "--N", "32", "--eps", "0.2", "--out", str(first)]) == 0
        assert run_cli(["oracle-check", "--config", str(first / "resolved_config.txt"),
                        "--out", str(second)]) == 0
        name = "oracle_check_summary.json"
        assert (second / name).read_bytes() == (first / name).read_bytes()


class TestEveryOptionIsRead:
    # read by nothing until the flag is deleted; help and config are the
    # parser's own
    UNREAD = {"workers"}

    def test_every_subcommand_option_is_read(self):
        source = Path(cli.__file__).read_text()
        read = set(re.findall(r"\bargs\.(\w+)", source))
        read |= set(re.findall(r"getattr\(args, \"(\w+)\"", source))
        parser = cli.build_parser()
        unread = {
            (command, action.dest)
            for command, sub in parser.commands.items()
            for action in sub._actions
            if action.option_strings and action.dest not in ("help", "config")
            and action.dest not in read
        }
        assert {dest for _, dest in unread} == self.UNREAD, sorted(unread)


class TestReproducibility:
    def test_identical_config_byte_identical_outputs(self, tmp_path):
        args = ["solution-rate", "--N", "256", "--T", "0.005", "--tau", "5e-5",
                "--record-every", "10", "--eps", "0.16,0.08,0.04"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        for name in ("solution_rate_hminus1_sup.csv", "solution_rate_hminus1_sup_summary.json",
                     "solution_rate_hminus1_sup.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_gronwall_command(self, tmp_path):
        out = tmp_path / "gw"
        code = run_cli(["gronwall", "--N", "256", "--T", "0.005", "--tau", "5e-5",
                        "--record-every", "10", "--eps", "0.16,0.08,0.04",
                        "--out", str(out)])
        assert code == 0
        lines = (out / "gronwall_trace.csv").read_text().splitlines()
        assert lines[0].startswith("t,dual_sq_half,derivative")
        # 100 steps recorded every 10 give 11 records; the forward difference
        # audits every one but the last
        assert len(lines) == 1 + 10
        assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx(
            [k * 5e-4 for k in range(10)])
        summary = json.loads((out / "gronwall_summary.json").read_text())
        assert summary["pass"] is True


def _readme_examples() -> list[list[str]]:
    """The ``nonloclab`` calls of the README's command-line block, with
    backslash continuations joined, as argument lists without the program."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("nonloclab ")]


class TestReadmeExamples:
    def test_the_block_has_every_example(self):
        assert len(_readme_examples()) == 10

    @pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: " ".join(argv))
    def test_example_parses_and_resolves(self, argv):
        # parse only: the grid, its scale ladder and the named fields resolve
        # without running the study
        args = cli.build_parser().parse_args(argv)
        if not hasattr(args, "domain"):
            return
        grid, _ = cli._make_grid(args)
        if hasattr(args, "eps"):
            experiments._grid_ladder(grid, args.eps)
        if hasattr(args, "func"):
            experiments.make_test_field(grid, args.func)
        if hasattr(args, "initial"):
            experiments.make_initial_field(grid, args.initial)
