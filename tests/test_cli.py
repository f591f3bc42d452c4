"""Command-line surface: flags, files, formats, exit codes, determinism."""

import json
import math
import os
import pathlib
import warnings

import pytest

from wolfes4 import ConvergenceError, VerificationReport, cli
from wolfes4.cli import (
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    format_float,
    load_config_file,
    main,
    parse_key_value_file,
)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_fixed_range(self):
        assert format_float(2.5) == "2.5"
        assert format_float(1234.5) == "1234.5"
        assert format_float(0.001) == "0.001"
        assert format_float(1 + math.sqrt(5) / 2) == "2.11803398875"

    def test_scientific_range(self):
        assert format_float(1e-4) == "1.00000000000e-04"
        assert format_float(9.999e5 + 1000) == "1.00090000000e+06"
        assert format_float(0.0) == "0"
        assert format_float(-2e-5).startswith("-2.0")

    def test_twelve_significant_digits(self):
        assert format_float(1.0000000000001) == "1"
        assert format_float(123456.789012) == "123456.789012"


class TestConfigFiles:
    def test_key_value_parsing(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text("# comment\nomega = 2.0\ng1sq = 1.5  # inline\n"
                       "max_quanta = 3\n")
        values = load_config_file(str(cfg))
        assert values == {"omega": 2.0, "g1_squared": 1.5, "max_quanta": 3}

    def test_unknown_key_rejected(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
            load_config_file(str(cfg))

    def test_malformed_line_rejected(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text("omega 2.0\n")
        with pytest.raises(ValueError):
            parse_key_value_file(str(cfg))

    def test_flags_override_file(self, workdir, capsys):
        cfg = workdir / "run.cfg"
        cfg.write_text("omega = 2.0\nmax_quanta = 0\n")
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == EXIT_PASS
        assert json.loads(out)["params"]["omega"] == 2
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg),
                               "--omega", "3.0")
        assert json.loads(out)["params"]["omega"] == 3

    def test_invalid_config_value_is_usage_error(self, workdir, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--omega", "-1")
        assert code == EXIT_USAGE
        assert "omega" in err

    @pytest.mark.parametrize("flags", [("--g1sq", "inf"), ("--omega", "inf"),
                                       ("--omega", "nan"), ("--omega", "1e200"),
                                       ("--max-quanta", str(cli.MAX_QUANTA + 1))])
    def test_unbounded_value_is_usage_error(self, workdir, capsys, flags):
        code, out, err = run_cli(capsys, "spectrum", *flags)
        assert code == EXIT_USAGE and out == ""
        assert "must" in err


class TestSpectrumCommand:
    def test_published_fallback_with_banner(self, workdir, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--g1sq", "3",
                                 "--max-quanta", "2")
        assert code == EXIT_PASS
        assert "warning" in err and "resolve" in err
        payload = json.loads(out)
        assert set(payload) == {"params", "levels"}
        assert [lv["degeneracy"] for lv in payload["levels"]] == [1, 2, 4]
        # published offset 1/2 until resolution has been run
        assert payload["levels"][0]["energy"] == pytest.approx(
            1.5 + math.sqrt(5) / 2, rel=1e-11)

    def test_resolved_energies_after_resolve(self, workdir, capsys):
        assert run_cli(capsys, "resolve")[0] == EXIT_PASS
        code, out, err = run_cli(capsys, "spectrum", "--g1sq", "3",
                                 "--max-quanta", "0")
        assert code == EXIT_PASS and "warning" not in err
        payload = json.loads(out)
        assert payload["resolved"] == {"sho_offset": 1, "radial_rule": "candidate"}
        assert len(payload["levels"]) == 1
        assert payload["levels"][0]["energy"] == pytest.approx(
            2 + math.sqrt(5) / 2, rel=1e-11)

    def test_omega_doubling(self, workdir, capsys):
        _, out1, _ = run_cli(capsys, "spectrum", "--max-quanta", "2")
        _, out2, _ = run_cli(capsys, "spectrum", "--max-quanta", "2",
                             "--omega", "2")
        e1 = [lv["energy"] for lv in json.loads(out1)["levels"]]
        e2 = [lv["energy"] for lv in json.loads(out2)["levels"]]
        assert e2 == pytest.approx([2 * v for v in e1], rel=1e-11)

    def test_csv_format(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--max-quanta", "1",
                               "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "N,energy,degeneracy,members"
        assert len(lines) == 3
        assert lines[1].endswith('"(0,0,0)"')

    def test_sector_multiplicity_flag(self, workdir, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--max-quanta", "1",
                            "--sector-mult", "2")
        assert [lv["degeneracy"] for lv in json.loads(out)["levels"]] == [2, 4]

    def test_determinism(self, workdir, capsys):
        _, out1, _ = run_cli(capsys, "spectrum", "--max-quanta", "4")
        _, out2, _ = run_cli(capsys, "spectrum", "--max-quanta", "4")
        assert out1 == out2


class TestResolveCommand:
    def test_writes_state_file_idempotently(self, workdir, capsys):
        assert run_cli(capsys, "resolve")[0] == EXIT_PASS
        state = workdir / "resolved_constants.txt"
        first = state.read_text()
        assert "sho_offset = 1" in first
        assert "radial_rule = candidate" in first
        assert run_cli(capsys, "resolve")[0] == EXIT_PASS
        assert state.read_text() == first

    def test_reduced_sweep_warns(self, workdir, capsys):
        code, out, err = run_cli(capsys, "resolve", "--g1sq", "3")
        assert code == EXIT_PASS
        assert "reduced sweep" in err

    def test_reduced_sweep_via_config_file(self, workdir, capsys):
        cfg = workdir / "run.cfg"
        cfg.write_text("g1sq = 3\n")
        code, _, err = run_cli(capsys, "resolve", "--config", str(cfg))
        assert code == EXIT_PASS
        assert "reduced sweep" in err

    def test_tolerance_reaches_the_resolution(self, workdir, capsys):
        code, _, err = run_cli(capsys, "resolve", "--tol", "1e-30")
        assert code == EXIT_FAIL
        assert "ambiguous or matched nothing" in err and "residuals" in err
        assert not (workdir / "resolved_constants.txt").exists()

    def test_emits_discrepancy_table(self, workdir, capsys):
        _, out, _ = run_cli(capsys, "resolve")
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert any(n.startswith("discrepancy-sho") for n in names)
        assert any(n.startswith("discrepancy-radial") for n in names)


class TestVerifyCommand:
    def test_jacobi_passes(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "verify", "jacobi", "--max-quanta", "3")
        assert code == EXIT_PASS
        payload = json.loads(out)
        assert payload["resolved"]["sho_offset"] == 1
        assert all(c["status"] == "pass" for c in payload["checks"])

    def test_overtight_tolerance_fails_with_residuals(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "verify", "jacobi", "--tol", "1e-12",
                               "--max-quanta", "2")
        assert code == EXIT_FAIL
        payload = json.loads(out)
        failed = [c for c in payload["checks"] if c["status"] == "fail"]
        assert failed
        assert all(isinstance(c["measured"], float) for c in failed)

    def test_spherical_passes(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "verify", "spherical", "--max-quanta", "3")
        assert code == EXIT_PASS

    def test_3d_passes_on_reduced_grid(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "verify", "3d", "--grid-points", "41",
                               "--domain-extent", "5")
        assert code == EXIT_PASS
        payload = json.loads(out)
        names = [c["name"] for c in payload["checks"]]
        assert "grid3d-mirror-pair" in names

    def test_3d_settings_reach_every_leg_alike(self, workdir, capsys, monkeypatch):
        seen = []

        def record(params, k, **kwargs):
            seen.append(kwargs)
            return VerificationReport()

        monkeypatch.setattr(cli, "verify_3d", record)
        cfg = workdir / "run.cfg"
        cfg.write_text("grid_points = 41\ndomain_extent = 5\ntol = 0.01\n"
                       "max_quanta = 1\n")
        flags = ("--grid-points", "41", "--domain-extent", "5", "--tol", "0.01",
                 "--max-quanta", "1")
        run_cli(capsys, "verify", "3d", "--config", str(cfg))
        run_cli(capsys, "verify", "all", "--config", str(cfg))
        run_cli(capsys, "verify", "all", *flags)
        assert seen[0] == seen[1] == seen[2]
        assert (seen[0]["n_per_axis"], seen[0]["extent"], seen[0]["tol"]) == (41, 5.0, 0.01)

    @pytest.mark.parametrize("argv", [("all", "--grid-points", "15", "--max-quanta", "1"),
                                      ("3d", "--grid-points", "4001")])
    def test_3d_grid_points_checked_before_any_leg(self, workdir, capsys, monkeypatch,
                                                   argv):
        ran = []
        for name in ("verify_jacobi_route", "verify_spherical_route", "verify_3d"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **kw:
                                ran.append(name) or VerificationReport())
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_USAGE and out == "" and ran == []
        assert "--grid-points must be in [16, 121] for the 3D grid" in err

    @pytest.mark.parametrize("argv", [("3d", "--g1sq", "2000", "--grid-points", "16"),
                                      ("3d", "--g1sq", "5000", "--grid-points", "16"),
                                      ("all", "--g1sq", "2000", "--max-quanta", "1")])
    def test_3d_coupling_checked_before_any_leg(self, workdir, capsys, monkeypatch, argv):
        # the barrier at the first X2 node, g1^2 / (6 h^2), outgrows what the
        # Lanczos sectors resolve, inside the range the 1D routes take
        ran = []
        for name in ("verify_jacobi_route", "verify_spherical_route"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **kw:
                                ran.append(name) or VerificationReport())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the test
            code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_USAGE and out == "" and ran == []
        assert err.count("\n") == 1
        assert "--g1sq must be at most 1000 for the 3D grid" in err

    def test_3d_strong_barrier_passes(self, workdir, capsys):
        # b = 10.5, where the barrier is sampled: the exact-local-power
        # diagonal would put the raw ground level 0.15 off and stall Lanczos
        code, out, _ = run_cli(capsys, "verify", "3d", "--g1sq", "300")
        assert code == EXIT_PASS
        assert all(c["status"] == "pass" for c in json.loads(out)["checks"])

    def test_unconverged_3d_solve_is_one_error_line(self, workdir, capsys, monkeypatch):
        def stalled(*args, **kwargs):
            raise ConvergenceError("Lanczos did not converge within 40 restarts")

        monkeypatch.setattr(cli, "verify_3d", stalled)
        code, out, err = run_cli(capsys, "verify", "3d")
        assert code == EXIT_FAIL and out == ""
        assert err == "error: Lanczos did not converge within 40 restarts\n"

    def test_usage_error_on_bad_selector(self, workdir, capsys):
        assert main(["verify", "everything"]) == EXIT_USAGE


class TestCouplingRange:
    """One admissible --g1sq range, checked once for every command."""

    @pytest.mark.parametrize("argv", [("verify", "jacobi"), ("verify", "spherical"),
                                      ("hf-check",), ("audit",)])
    def test_1d_routes_pass_at_the_largest_coupling(self, workdir, capsys, argv):
        # b = 58, where the exact-local-power diagonal would put the jacobi
        # ground level at -269443 and end audit in an internal error
        code, out, _ = run_cli(capsys, *argv, "--g1sq", "1e4")
        assert code == EXIT_PASS
        assert all(c["status"] == "pass" for c in json.loads(out)["checks"])

    @pytest.mark.parametrize("argv", [("spectrum",), ("resolve",), ("verify", "jacobi"),
                                      ("verify", "3d"), ("hf-check",), ("audit",)])
    def test_coupling_above_the_range_is_usage_error(self, workdir, capsys, monkeypatch,
                                                     argv):
        ran = []
        for name in ("enumerate_spectrum", "resolve_formula_offsets", "verify_jacobi_route",
                     "verify_3d", "hellmann_feynman_check", "bk_audit"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: ran.append(name))
        cfg = workdir / "strong.cfg"
        cfg.write_text("g1sq = 1e300\n")
        for flags in (("--g1sq", "1.5e4"), ("--config", str(cfg))):
            code, out, err = run_cli(capsys, *argv, *flags)
            assert code == EXIT_USAGE and out == "" and ran == []
            assert err.count("\n") == 1 and "--g1sq must be at most 10000" in err


class TestHfCheckCommand:
    def test_pass(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "hf-check", "--g1sq", "3")
        assert code == EXIT_PASS
        payload = json.loads(out)
        fd = next(c for c in payload["checks"] if c["name"] == "hf-fd-vs-closed")
        assert fd["measured"] == pytest.approx(0.1491, abs=1e-4)

    def test_zero_coupling_is_usage_error(self, workdir, capsys):
        code, _, err = run_cli(capsys, "hf-check", "--g1sq", "0")
        assert code == EXIT_USAGE
        assert "g1sq" in err

    def test_overflowing_coupling_is_one_usage_error(self, workdir, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the test
            code, out, err = run_cli(capsys, "hf-check", "--g1sq", "1e5")
        assert code == EXIT_USAGE and out == ""
        assert err.count("\n") == 1 and "coupling" in err


class TestAuditCommand:
    def test_json_report(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "audit", "--g1sq", "3")
        assert code == EXIT_PASS
        payload = json.loads(out)
        assert len(payload["checks"]) == 3

    def test_csv_rows(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "audit", "--g1sq", "3", "--format", "csv")
        assert code == EXIT_PASS
        lines = out.strip().split("\n")
        assert lines[0] == "name,status,measured,reference,tolerance,provenance"
        assert len(lines) == 4

    def test_out_file_silences_stdout(self, workdir, capsys):
        target = workdir / "report.json"
        code, out, _ = run_cli(capsys, "audit", "--g1sq", "1", "--out", str(target))
        assert code == EXIT_PASS
        assert out == ""
        assert json.loads(target.read_text())["checks"]


class TestExitCodes:
    def test_bad_flag_is_usage(self, workdir):
        assert main(["spectrum", "--format", "xml"]) == EXIT_USAGE

    def test_unknown_command_is_usage(self, workdir):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, least", [(("resolve",), 6),
                                             (("verify", "jacobi"), 7),
                                             (("verify", "spherical"), 5)])
    def test_too_few_grid_points_is_usage_error(self, workdir, capsys, argv, least):
        code, out, err = run_cli(capsys, *argv, "--grid-points", str(least - 1))
        assert code == EXIT_USAGE and out == ""
        assert f"--grid-points must be at least {least} for" in err
        # the least value runs: too coarse to pass, but no usage error
        assert main([*argv, "--grid-points", str(least)]) != EXIT_USAGE

    def test_module_entry_point(self, workdir):
        import subprocess
        import sys

        # the package must import from the subprocess's working directory,
        # so a relative PYTHONPATH is replaced by the absolute source path
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "wolfes4", "spectrum", "--max-quanta", "0"],
            capture_output=True, text=True, cwd=workdir, env=env)
        assert done.returncode == EXIT_PASS
        assert json.loads(done.stdout)["levels"]
        done = subprocess.run([sys.executable, "-m", "wolfes4", "verify", "bogus"],
                              capture_output=True, text=True, cwd=workdir, env=env)
        assert done.returncode == EXIT_USAGE
