"""Command-line surface: flags, files, formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wolfes4 import cli, grid3d, numsolve
from wolfes4.cli import (
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    RunConfig,
    format_float,
    load_config_file,
    main,
    parse_key_value_file,
    render_checks,
    to_json,
    write_state_file,
)
from wolfes4.grid3d import ConvergenceError
from wolfes4.verify import VerificationReport


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, cwd=None):
    """A fresh interpreter on this source tree, run from cwd.

    The package must import from cwd, so a relative PYTHONPATH is replaced
    by the absolute source path.
    """
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env=env)


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
        for key in ("bogus", "g1-sq", "G1SQ", "sector", "config"):
            cfg.write_text(f"{key} = 1\n")
            with pytest.raises(ValueError, match="unknown configuration key"):
                load_config_file(str(cfg))

    @pytest.mark.parametrize("name, flag, text, value", [
        ("omega", "--omega", "2", 2.0),
        ("g1_squared", "--g1sq", "1.5", 1.5),
        ("max_quanta", "--max-quanta", "3", 3),
        ("grid_points", "--grid-points", "41", 41),
        ("domain_extent", "--domain-extent", "5.5", 5.5),
        ("tol", "--tol", "0.01", 0.01),
        ("sector_multiplicity", "--sector-mult", "2", 2),
        ("format", "--format", "csv", "csv"),
        ("out", "--out", "report.json", "report.json"),
    ])
    def test_field_and_flag_names_are_keys_alike(self, workdir, name, flag, text, value):
        cfg = workdir / "run.cfg"
        parser = cli.build_parser()
        by_flag = cli.make_config(parser.parse_args(["spectrum", flag, text]))
        bare = flag[2:]
        for key in {name, name.replace("_", "-"), bare, bare.replace("-", "_")}:
            cfg.write_text(f"{key} = {text}\n")
            by_file = cli.make_config(parser.parse_args(["spectrum", "--config", str(cfg)]))
            assert load_config_file(str(cfg)) == {name: value} and by_file == by_flag

    def test_last_spelling_of_a_setting_wins(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text("g1sq = 1\ng1_squared = 2\ng1sq = 3\n")
        assert load_config_file(str(cfg)) == {"g1_squared": 3.0}

    def test_state_file_keys_pass_through(self, workdir):
        write_state_file(str(workdir / "state.txt"), 1.0, "candidate")
        assert parse_key_value_file(str(workdir / "state.txt")) == {
            "sho_offset": "1", "radial_rule": "candidate"}

    @pytest.mark.parametrize("text", [
        b"garbage\n", b"sho_offset = zz\nradial_rule = candidate\n",
        b"sho_offset = 1\nradial_rule = bogus\n", b"sho_offset = 1\n",
        b"sho_offset = \xff\nradial_rule = candidate\n"])
    def test_unusable_state_file_counts_as_absent(self, workdir, capsys, text):
        state = workdir / cli.STATE_FILE_NAME
        for argv in (("spectrum",), ("verify", "jacobi", "--max-quanta", "2")):
            state.write_bytes(text)
            unusable = run_cli(capsys, *argv)
            state.unlink()
            assert unusable == run_cli(capsys, *argv)
            assert unusable[0] == EXIT_PASS

    def test_unreadable_state_file_counts_as_absent(self, workdir, capsys):
        # a directory in its place: spectrum and verify go on as without
        # one, and only resolve, which must write it, fails
        argvs = (("spectrum",), ("verify", "jacobi", "--max-quanta", "2"))
        absent = [run_cli(capsys, *argv) for argv in argvs]
        (workdir / cli.STATE_FILE_NAME).mkdir()
        assert [run_cli(capsys, *argv) for argv in argvs] == absent
        code, out, err = run_cli(capsys, "resolve")
        assert code == EXIT_USAGE and out == "" and err.startswith("error: ")

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
                                       ("--omega", "1e-160"),
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


class TestReportBytes:
    """Rendered reports, pinned byte for byte."""

    @pytest.mark.parametrize("argv, sha256", [
        (("--max-quanta", "30"),
         "14c2d40a50b4d20caebbb22363dbf5ca8b97e8af724683f7b5de828f3d95dc60"),
        (("--max-quanta", "30", "--sector-mult", "2", "--format", "csv"),
         "f1a1c3728489665fefdbe80f58956042a62289febc8ecbd3f178de3cd4585592"),
        (("--max-quanta", "60"),
         "28480995deef195fb26b0879ed2d38aa9ae3d39b177d656a5fd1367336778b8c"),
    ])
    def test_spectrum_report_bytes(self, workdir, capsys, argv, sha256):
        # the state file `resolve` writes at the standard sweep
        write_state_file(str(workdir / cli.STATE_FILE_NAME), 1.0, "candidate")
        code, out, err = run_cli(capsys, "spectrum", *argv)
        assert code == EXIT_PASS and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("argv, code, sha256", [
        pytest.param((), EXIT_PASS,
                     "d5895c12a35b1ed5460e6ba85b741ff88007f5b7dbeb2c658992a8b867563513",
                     id="sweep"),
        pytest.param(("--grid-points", "2001"), EXIT_PASS,
                     "bce47bf52f9df74c96d8a295655f8cbabeeb7c0163d5b544539e9b61ca80b983",
                     id="sweep-grid-points-2001"),
        pytest.param(("--format", "csv"), EXIT_PASS,
                     "81c92a0f524fa99a4757f07dc482e57c4f9f068dcb2b1d6eebcab8b79114f1bd",
                     id="sweep-csv"),
        pytest.param(("--format", "csv", "--grid-points", "2001"), EXIT_PASS,
                     "7fc03281d9816b4b6b1cb627de7aa41b3f487459ff9766c71e5e157aad75a81c",
                     id="sweep-csv-grid-points-2001"),
        pytest.param(("--g1sq", "0.3"), EXIT_PASS,
                     "5ed8ca1ce40fa91e521da8fa097abf47b054c66e8a63a891924f3995fa5760af",
                     id="g1sq-0.3"),
        pytest.param(("--g1sq", "0.3", "--grid-points", "2001"), EXIT_PASS,
                     "ed695a7a0775d9c89c0844d468ed4045b9fe7ce17427b81ffdb855dc541cd4e6",
                     id="g1sq-0.3-grid-points-2001"),
        pytest.param(("--omega", "2.5"), EXIT_PASS,
                     "6697fb9dc2ae8d96f21a271750253fc9754e5cf4815baa4e6f631cf240f21aa0",
                     id="omega-2.5"),
        pytest.param(("--omega", "2.5", "--grid-points", "2001"), EXIT_PASS,
                     "2885fde7ce37a83df8ab50790b04cafea309c59df6069f31b028101252af4018",
                     id="omega-2.5-grid-points-2001"),
        pytest.param(("--grid-points", "301", "--tol", "1e-15"), EXIT_FAIL,
                     "d95f9fdd3f6ee4af85fdf3068405244c140c59f19c8962978b186caa60a674d1",
                     id="ambiguous"),
    ])
    def test_resolve_report_bytes(self, workdir, capsys, argv, code, sha256):
        # the report on stdout, or on failure the error line with every
        # candidate's residual on stderr; the residuals hold to the last bit
        # on one LAPACK build only, as do the Lanczos pins of test_grid3d.
        # Each default, whose pairs are sized, sits next to its run at
        # --grid-points 2001, whose (2001, 4003) pairs keep their bytes
        got, out, err = run_cli(capsys, "resolve", *argv)
        assert got == code and (out == "") == (code == EXIT_FAIL)
        assert hashlib.sha256((err if code else out).encode()).hexdigest() == sha256

    @pytest.mark.parametrize("argv, sha256", [
        pytest.param(("verify", "jacobi", "--g1sq", "3"),
                     "ece8203a0b716b1908e1ae11df75f4a1815f200aee337b7049d7d83a80432a15",
                     id="jacobi-g1sq-3"),
        pytest.param(("verify", "jacobi", "--g1sq", "3", "--grid-points", "2001"),
                     "8985aeeeb3885cc96c0ffd042850ddd92c2fb490c71122a4a3e8f661c8697413",
                     id="jacobi-g1sq-3-grid-points-2001"),
        pytest.param(("verify", "spherical", "--g1sq", "3"),
                     "528e5fb1a3b2037659181bef792d63a3fe9999a8bb6b96285dedcae58973cc3c",
                     id="spherical-g1sq-3"),
        pytest.param(("verify", "spherical", "--g1sq", "3", "--grid-points", "2001"),
                     "bdb2578da29f3fe5b6e2f0fa2b882e6657b04ef413e11a6d52dc9c8ae0ec528d",
                     id="spherical-g1sq-3-grid-points-2001"),
        pytest.param(("hf-check", "--g1sq", "3"),
                     "6cbd7dcba328269383678ba5f5bbc035370fc7685a209ada7da479e2ec4e4787",
                     id="hf-check-g1sq-3"),
        pytest.param(("hf-check", "--g1sq", "3", "--grid-points", "2001"),
                     "6cbd7dcba328269383678ba5f5bbc035370fc7685a209ada7da479e2ec4e4787",
                     id="hf-check-g1sq-3-grid-points-2001"),
        pytest.param(("audit", "--g1sq", "3"),
                     "0899821b31898dd920dd34bf7d1877b19c2443a0ab87aff5af9d0069ec0642c2",
                     id="audit-g1sq-3"),
        pytest.param(("audit", "--g1sq", "3", "--grid-points", "2001"),
                     "bdb748f0e0feb5316e2329096bea80a26876d80e57196a0b85c6a50237f1eaa5",
                     id="audit-g1sq-3-grid-points-2001"),
        pytest.param(("verify", "jacobi", "--g1sq", "0.3"),
                     "7d575a8ab8d1e241ca229db0bc8cc9b5934829e60b5f93300bcc7f57a3cdf1da",
                     id="jacobi-g1sq-0.3"),
        pytest.param(("verify", "jacobi", "--g1sq", "0.3", "--grid-points", "2001"),
                     "7d2e3ef89b2b1a647e81cb679ecfc3072311685d2e241d6ee566f510fec13b99",
                     id="jacobi-g1sq-0.3-grid-points-2001"),
        pytest.param(("verify", "spherical", "--g1sq", "0.3"),
                     "233564423574b1228f803b7cc3d024b8f69ca6083e25e2f67a35e548a525d4e5",
                     id="spherical-g1sq-0.3"),
        pytest.param(("verify", "spherical", "--g1sq", "0.3", "--grid-points", "2001"),
                     "f9cc7d87bf79017b5956ac64259d8e870986dcab4e697161cac109f21f6e56e5",
                     id="spherical-g1sq-0.3-grid-points-2001"),
        pytest.param(("hf-check", "--g1sq", "0.3"),
                     "3cae30867dc7bab92036c5a55d2510ce291e6bdc4015e9faa5b8011ae1d2148d",
                     id="hf-check-g1sq-0.3"),
        pytest.param(("hf-check", "--g1sq", "0.3", "--grid-points", "2001"),
                     "3cae30867dc7bab92036c5a55d2510ce291e6bdc4015e9faa5b8011ae1d2148d",
                     id="hf-check-g1sq-0.3-grid-points-2001"),
        pytest.param(("audit", "--g1sq", "0.3"),
                     "1f5ac923a8fc3d7aa4c88410721742b2f1fc40bc18b0bdd48c62f549a56b58f2",
                     id="audit-g1sq-0.3"),
        pytest.param(("audit", "--g1sq", "0.3", "--grid-points", "2001"),
                     "ccfae2f890c2690e11a2bdc6794fb102834af42b2ee9313e60952286c03d52ed",
                     id="audit-g1sq-0.3-grid-points-2001"),
        pytest.param(("hf-check", "--omega", "2.5", "--g1sq", "1e-3"),
                     "82b0aba4dda7cdde8ffb87dcf7d18e2db9c5bd000eef06d3ba91d92da516bdf6",
                     id="hf-check-omega-2.5-g1sq-1e-3"),
        pytest.param(("hf-check", "--omega", "2.5", "--g1sq", "1e-3", "--grid-points", "2001"),
                     "82b0aba4dda7cdde8ffb87dcf7d18e2db9c5bd000eef06d3ba91d92da516bdf6",
                     id="hf-check-omega-2.5-g1sq-1e-3-grid-points-2001"),
    ])
    def test_route_1d_report_bytes(self, workdir, capsys, argv, sha256):
        # the 1D commands of the routes-1d benchmark, after the state file
        # `resolve` writes at the standard sweep; the levels hold to the last
        # bit on one LAPACK build only, as do the resolve pins.  Each default
        # sits next to its run at --grid-points 2001, as the resolve pins do;
        # hf-check solves at 2001 points either way
        write_state_file(str(workdir / cli.STATE_FILE_NAME), 1.0, "candidate")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_PASS, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("argv, code, sha256", [
        pytest.param(("--grid-points", "41", "--domain-extent", "5.5", "--g1sq", "3"),
                     EXIT_PASS,
                     "075fd6a0a43e2d331abc46a6a4457ddd39e4a80be4eabc3bc8b93c0e3ab9f021",
                     id="benchmark-g1sq-3"),
        pytest.param(("--grid-points", "41", "--domain-extent", "5.5", "--g1sq", "1"),
                     EXIT_PASS,
                     "0be58e66e4a069b1e25a64b961d13e796219068af0cb99ef091e917738c72fd3",
                     id="benchmark-g1sq-1"),
        pytest.param(("--format", "csv"), EXIT_PASS,
                     "5f4e1101337d5285a4eb643f291ec37537bc952612f704bdbd405bc14a0b4ab0",
                     id="defaults-csv"),
        pytest.param(("--grid-points", "41", "--domain-extent", "5.5", "--omega", "2.5",
                      "--g1sq", "0.3"), EXIT_PASS,
                     "247c445d3925090c1f655536241e193a34374caea334fb51b838067a94b32bea",
                     id="omega-2.5-g1sq-0.3"),
        pytest.param(("--grid-points", "16", "--domain-extent", "1"), EXIT_FAIL,
                     "c52fb4893c54268412ca602192bc5ad9439a5618e17576aa278db0de674faba9",
                     id="box-too-small"),
    ])
    def test_verify_3d_report_bytes(self, workdir, capsys, argv, code, sha256):
        # the report on stdout, failing checks included; the grid levels hold
        # to the last bit on one LAPACK build only, as do the Lanczos pins of
        # test_grid3d
        got, out, err = run_cli(capsys, "verify", "3d", *argv)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @staticmethod
    def _report():
        report = VerificationReport()
        report.add("sho-offset-unique", 2.5e-6, 0.0, math.inf,
                   "offset 1 fits, 0.5 does not", ok=True)
        report.add("grid3d-level[N=1]", 3.0001234, 3.0, 5e-5,
                   'fine grid 41, coarse 20; "X2" ratio 2.05')
        return report

    def test_render_checks_json(self):
        text = render_checks(RunConfig(omega=2.0, g1_squared=0.3), self._report(),
                             {"sho_offset": 1.0, "radial_rule": "candidate"})
        assert text == """{
  "params": {
    "omega": 2,
    "g1_squared": 0.3
  },
  "checks": [
    {
      "name": "sho-offset-unique",
      "status": "pass",
      "measured": 2.50000000000e-06,
      "reference": 0,
      "tolerance": "inf",
      "provenance": "offset 1 fits, 0.5 does not"
    },
    {
      "name": "grid3d-level[N=1]",
      "status": "fail",
      "measured": 3.0001234,
      "reference": 3,
      "tolerance": 5.00000000000e-05,
      "provenance": "fine grid 41, coarse 20; \\"X2\\" ratio 2.05"
    }
  ],
  "resolved": {
    "sho_offset": 1,
    "radial_rule": "candidate"
  }
}
"""

    def test_render_checks_csv(self):
        text = render_checks(RunConfig(omega=2.0, g1_squared=0.3, format="csv"),
                             self._report(), None)
        assert text == (
            "name,status,measured,reference,tolerance,provenance\n"
            'sho-offset-unique,pass,2.50000000000e-06,0,inf,"offset 1 fits, 0.5 does not"\n'
            'grid3d-level[N=1],fail,3.0001234,3,5.00000000000e-05,'
            '"fine grid 41, coarse 20; ""X2"" ratio 2.05"\n')


_JSON_KEYS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_PRINTABLE = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


def _nested(scalars):
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                       | st.dictionaries(_JSON_KEYS, inner, max_size=5)),
        max_leaves=25)


def _reads_back(value, parsed) -> bool:
    """``parsed``, from json.loads(to_json(value)), holds value's items, each
    float as its 12-digit text: a number when finite, a string otherwise."""
    if isinstance(value, float):
        text = format_float(value)
        return parsed == (float(text) if math.isfinite(value) else text)
    if isinstance(value, dict):
        return list(parsed) == list(value) and all(
            _reads_back(v, parsed[k]) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return len(parsed) == len(value) and all(map(_reads_back, value, parsed))
    return type(parsed) is type(value) and parsed == value


class TestToJson:
    @settings(max_examples=200, deadline=None)
    @given(_nested(st.none() | st.booleans() | st.integers() | _PRINTABLE))
    def test_float_free_values_match_the_json_module(self, value):
        assert to_json(value) == json.dumps(value, indent=2)

    @settings(max_examples=200, deadline=None)
    @given(_nested(st.none() | st.booleans() | st.integers() | _PRINTABLE | st.floats()))
    def test_floats_read_back_as_their_formatted_text(self, value):
        assert _reads_back(value, json.loads(to_json(value)))


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
        assert err == ("warning: resolution run on a reduced sweep (single g1sq value); "
                       "the standard sweep spans g1sq in {0, 1, 3, 7.5}\n")

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

    def test_resolve_sweeps_at_the_configured_omega(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "resolve", "--omega", "2")
        assert code == EXIT_PASS
        anchor = next(c for c in json.loads(out)["checks"]
                      if c["name"] == "sho-anchor[g1sq=0]")
        assert anchor["reference"] == 3.0
        assert anchor["measured"] == pytest.approx(3.0, abs=1e-4)

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
        assert names == ["grid3d-level[N=0]", "grid3d-degeneracy[N=0]",
                         "grid3d-level[N=1]", "grid3d-degeneracy[N=1]", "grid3d-dvr-error"]

    def test_3d_coarsest_grid_completes(self, workdir, capsys):
        # its Richardson partner has 8 X2 points, below the 16 a user may ask for
        code, out, err = run_cli(capsys, "verify", "3d", "--grid-points", "16")
        assert code in (EXIT_PASS, EXIT_FAIL) and err == ""
        assert len(json.loads(out)["checks"]) == 5

    def test_3d_coarsest_grid_without_a_barrier_writes_its_report(self, workdir, capsys):
        # on the all-stencil grid its 8-point partner had sectors of 24-80
        # unknowns, on which a Lanczos basis kept only selectively orthogonal
        # overflowed at g1^2 = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", "3d", "--grid-points", "16",
                                     "--domain-extent", "7", "--g1sq", "0")
        assert code in (EXIT_PASS, EXIT_FAIL) and err == ""
        assert len(json.loads(out)["checks"]) == 5

    @pytest.mark.parametrize("argv", [("jacobi", "--tol", "nan"), ("3d", "--tol", "inf"),
                                      ("3d", "--domain-extent", "nan"),
                                      ("3d", "--domain-extent", "1e-200"),
                                      ("3d", "--domain-extent", "1e300")])
    def test_unusable_setting_rejected_before_any_solve(self, workdir, capsys,
                                                        monkeypatch, argv):
        ran = []
        for name in ("resolve_formula_offsets", "verify_jacobi_route", "verify_3d"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: ran.append(name))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the test
            code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_USAGE and out == "" and ran == []
        assert err.startswith("error: ") and err.count("\n") == 1

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
                                      ("3d", "--grid-points", "4001"),
                                      # past the 1D bound and below the 1D least alike
                                      ("3d", "--grid-points", "20002"),
                                      ("all", "--grid-points", "20002"),
                                      ("3d", "--grid-points", "2"),
                                      ("all", "--grid-points", "2")])
    def test_3d_grid_points_checked_before_any_leg(self, workdir, capsys, monkeypatch,
                                                   argv):
        ran = []
        for name in ("verify_jacobi_route", "verify_spherical_route", "verify_3d"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **kw:
                                ran.append(name) or VerificationReport())
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_USAGE and out == "" and ran == []
        bound = "at least 16" if int(argv[2]) < 16 else "at most 121"
        assert err == f"error: the 3D grid's points per axis must be {bound}, got {argv[2]}\n"

    def test_all_grid_points_size_the_3d_grid_only(self, workdir, capsys):
        # no 1D leg passes on a channel of the 16 to 121 points the 3D grid
        # admits, so under `verify all` the 1D legs keep their default
        code, out, _ = run_cli(capsys, "verify", "all", "--grid-points", "61",
                               "--format", "csv")
        assert code == EXIT_PASS
        legs = [run_cli(capsys, "verify", which, "--format", "csv")
                for which in ("jacobi", "spherical")]
        assert [c for c, _, _ in legs] == [EXIT_PASS, EXIT_PASS]
        rows = out.splitlines(keepends=True)
        one_d = [row for _, text, _ in legs for row in text.splitlines(keepends=True)[1:]]
        assert rows[1:len(one_d) + 1] == one_d
        assert all(row.startswith("grid3d-") for row in rows[len(one_d) + 1:])

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
        assert "the 3D grid's g1^2 must be at most 1000" in err

    def test_3d_strong_barrier_passes(self, workdir, capsys):
        # b = 10.5, where the barrier is sampled: the exact-local-power
        # diagonal would put the raw ground level 0.15 off and stall Lanczos
        code, out, _ = run_cli(capsys, "verify", "3d", "--g1sq", "300")
        assert code == EXIT_PASS
        assert all(c["status"] == "pass" for c in json.loads(out)["checks"])

    @pytest.mark.parametrize("points, g1sq", [("81", "1000"), ("101", "500"), ("121", "300"),
                                              ("101", "800"), ("101", "1000"), ("121", "500")])
    def test_3d_fine_grid_strong_barrier_passes(self, workdir, capsys, points, g1sq):
        # a 3-point stencil on X1 and X3 ran out of Lanczos restarts on the
        # first three; on the last three the ground sector's N = 2 pair, split
        # by O(h^2), did while it had to converge, though it lies above the
        # sixth state
        code, out, err = run_cli(capsys, "verify", "3d", "--grid-points", points,
                                 "--g1sq", g1sq, "--domain-extent", "7")
        assert code == EXIT_PASS and err == ""
        assert all(c["status"] == "pass" for c in json.loads(out)["checks"])

    def test_3d_coarse_dvr_fails(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(grid3d, "DVR_SPACING", 1.0)
        code, out, err = run_cli(capsys, "verify", "3d")
        assert code == EXIT_FAIL and err == ""
        assert [c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"] == [
            "grid3d-dvr-error"]

    def test_unconverged_3d_solve_is_one_error_line(self, workdir, capsys, monkeypatch):
        def stalled(*args, **kwargs):
            raise ConvergenceError("Lanczos did not converge within 40 restarts")

        monkeypatch.setattr(cli, "verify_3d", stalled)
        code, out, err = run_cli(capsys, "verify", "3d")
        assert code == EXIT_FAIL and out == ""
        assert err == "error: Lanczos did not converge within 40 restarts\n"

    def test_perron_frobenius_violation_is_one_plain_error_line(self, workdir, capsys,
                                                                monkeypatch):
        # every sector but the ground one (3 levels at k = 6) comes back 10 lower
        real = grid3d.lanczos_lowest

        def lowering(matvec, n, k, **kwargs):
            vals, res, vectors = real(matvec, n, k, **kwargs)
            return (vals if k == 3 else vals - 10.0), res, vectors

        monkeypatch.setattr(grid3d, "lanczos_lowest", lowering)
        code, out, err = run_cli(capsys, "verify", "3d", "--grid-points", "16",
                                 "--domain-extent", "5")
        assert code == EXIT_FAIL and out == ""
        assert err.startswith("error: sector ") and err.count("\n") == 1
        assert "Perron-Frobenius" in err and "np.float64" not in err

    def test_lapack_failure_is_not_a_usage_error(self, workdir, capsys, monkeypatch):
        # numpy's LinAlgError, the class scipy raises, subclasses ValueError
        def failing(T, k, want_vectors=False):
            raise np.linalg.LinAlgError("stebz (eigh_tridiagonal) did not converge")

        monkeypatch.setattr(numsolve, "eigen_tridiag", failing)
        code, out, err = run_cli(capsys, "verify", "jacobi")
        assert code == EXIT_FAIL and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tolerance_in_units_of_omega(self, workdir, capsys):
        # every level is right to ~1e-11 relative, far above the unscaled 1e-4
        code, out, _ = run_cli(capsys, "verify", "jacobi", "--omega", "1e8")
        assert code == EXIT_PASS
        assert {c["tolerance"] for c in json.loads(out)["checks"][:-1]} == {1e4}

    @pytest.mark.parametrize("argv", [("verify", "jacobi", "--omega", "1e150"),
                                      ("verify", "spherical", "--omega", "1e150"),
                                      ("hf-check", "--omega", "1e145"),
                                      ("audit", "--omega", "1e150")])
    def test_1d_routes_pass_at_the_extreme_omega(self, workdir, capsys, argv):
        # every 1D channel is solved at omega = 1 and its levels multiplied by
        # omega, so no matrix entry grows with omega; a stencil at physical
        # scale overflowed stebz at 1e150 and read nan in hf-check at 1e145
        write_state_file(str(workdir / cli.STATE_FILE_NAME), 1.0, "candidate")
        code, out, _ = run_cli(capsys, *argv)
        checks = json.loads(out)["checks"]
        assert code == EXIT_PASS and all(c["status"] == "pass" for c in checks)
        # JSON writes a non-finite value as a string
        assert not any(isinstance(c["measured"], str) for c in checks)

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

    @pytest.mark.parametrize("g1sq, quanta", [("3", "60"), ("3000", "60"), ("1e4", "60"),
                                              ("1e4", "40")])
    def test_jacobi_route_passes_at_the_top_of_the_quanta(self, workdir, capsys, g1sq, quanta):
        # fixed boxes of half-width 12 (HO) and 14 (half line) cut the top
        # levels here: N = 59 and 60 at g1sq = 3, from N = 54 at 3000 and
        # from N = 34 at 1e4, where the error reached 3.2
        write_state_file(str(workdir / cli.STATE_FILE_NAME), 1.0, "candidate")
        code, out, _ = run_cli(capsys, "verify", "jacobi", "--g1sq", g1sq, "--max-quanta", quanta)
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
        # below 1e-3 the central difference would step below g1^2 = 0
        for g1sq in ("0", "5e-4", "1e-300"):
            code, out, err = run_cli(capsys, "hf-check", "--g1sq", g1sq)
            assert code == EXIT_USAGE and out == ""
            assert err.count("\n") == 1 and "g1sq >= 1e-3" in err

    def test_overflowing_coupling_is_one_usage_error(self, workdir, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the test
            code, out, err = run_cli(capsys, "hf-check", "--g1sq", "1e5")
        assert code == EXIT_USAGE and out == ""
        assert err.count("\n") == 1 and "coupling" in err

    @pytest.mark.parametrize("points", ["3", "5", "6"])
    def test_too_few_grid_points_for_its_coarsest_grid_is_usage_error(
            self, workdir, capsys, monkeypatch, points):
        # the expectation's third grid, at (n - 1) // 2 points, needs the 3 a
        # Grid1D holds; checked before any solve, as the bound at 20001 is
        solves = []
        monkeypatch.setattr(numsolve, "solve_channel", lambda *a, **kw: solves.append(a))
        code, out, err = run_cli(capsys, "hf-check", "--grid-points", points)
        assert code == EXIT_USAGE and out == "" and solves == []
        assert err == ("error: hf-check solves its expectation on (grid-points - 1) // 2 "
                       "points too, at least 3 of them, so it needs at least 7 grid points, "
                       f"got {points}\n")


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
                                             (("verify", "spherical"), 5),
                                             (("hf-check",), 7),
                                             (("audit",), 3),
                                             (("verify", "jacobi", "--max-quanta", "0"), 3)])
    def test_too_few_grid_points_is_usage_error(self, workdir, capsys, argv, least):
        code, out, err = run_cli(capsys, *argv, "--grid-points", str(least - 1))
        assert code == EXIT_USAGE and out == ""
        assert f"needs at least {least} grid points, got {least - 1}" in err
        # the least value runs: too coarse to pass, but no usage error
        assert main([*argv, "--grid-points", str(least)]) != EXIT_USAGE

    @pytest.mark.parametrize("argv", [("resolve",), ("verify", "jacobi"),
                                      ("verify", "spherical"), ("hf-check",), ("audit",)])
    def test_1d_grid_points_above_the_bound_rejected_before_any_solve(
            self, workdir, capsys, monkeypatch, argv):
        # the bound is numsolve's, checked by every pair before its first solve;
        # the state file keeps `verify` from resolving in memory first
        write_state_file(str(workdir / cli.STATE_FILE_NAME), 1.0, "candidate")
        solves = []
        monkeypatch.setattr(numsolve, "solve_channel", lambda *a, **kw: solves.append(a))
        code, out, err = run_cli(capsys, *argv, "--grid-points", "20002")
        assert code == EXIT_USAGE and out == "" and solves == []
        assert err == ("error: grid-points must be at most 20001: past it, rounding in "
                       "the 1/h^2 entries grows past the discretization error, got 20002\n")

    @pytest.mark.parametrize("points", ["1", "30000"])
    def test_spectrum_ignores_grid_points(self, workdir, capsys, points):
        plain = run_cli(capsys, "spectrum", "--max-quanta", "2")
        assert plain[0] == EXIT_PASS
        assert run_cli(capsys, "spectrum", "--max-quanta", "2", "--grid-points", points) == plain

    def test_cli_import_and_verify_3d_leave_scipy_out(self):
        # only a tridiagonal (1D channel) solve loads scipy: neither the CLI's
        # imports nor a 3D solve, whose plane matrices are dense, load any
        done = run_python(
            "-c",
            "import sys, wolfes4.cli\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "from wolfes4.model import ModelParams\n"
            "from wolfes4.verify import verify_3d\n"
            "verify_3d(ModelParams(1.0, 3.0), 6, offset=1.0, n_per_axis=16, extent=5.0)\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("argv, loads_scipy", [
        (["verify", "3d", "--grid-points", "16", "--domain-extent", "5"], False),
        (["spectrum", "--max-quanta", "2"], False),
        (["resolve"], True)], ids=["verify-3d", "spectrum", "resolve"])
    def test_only_a_1d_solve_loads_scipy(self, workdir, argv, loads_scipy):
        # the state file keeps `verify 3d` from resolving, which solves 1D channels
        write_state_file(str(workdir / cli.STATE_FILE_NAME), 1.0, "candidate")
        done = run_python(
            "-c",
            "import sys\n"
            "from wolfes4.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules))",
            cwd=workdir)
        assert done.returncode == 0, done.stderr
        code, loaded = done.stdout.splitlines()[-1].split()
        assert int(code) != EXIT_USAGE
        assert loaded == str(loads_scipy)

    def test_package_root_imports_nothing(self):
        done = run_python(
            "-c",
            "import sys, wolfes4\n"
            "assert not [m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')]")
        assert done.returncode == 0, done.stderr

    def test_module_entry_point(self, workdir):
        done = run_python("-m", "wolfes4", "spectrum", "--max-quanta", "0", cwd=workdir)
        assert done.returncode == EXIT_PASS
        assert json.loads(done.stdout)["levels"]
        done = run_python("-m", "wolfes4", "verify", "bogus", cwd=workdir)
        assert done.returncode == EXIT_USAGE


class TestHelpText:
    # the parser's text, byte for byte, at a fixed terminal width: the help of
    # the command and of each subcommand, and one usage error
    @pytest.mark.parametrize("argv, sha256", [
        (("-h",), "6fdbf70103943246554253ea3b4547e245e99f8e3db3ffb2215d02d4efbc3af0"),
        (("spectrum", "-h"), "b5392a47981da4616f3275b4fb3e5574060d10b21a1642f049223556d0d04962"),
        (("hf-check", "-h"), "7d07bd85ab703d88455a0262a50b040cb8b752cbe0fc3ef199734181efe17b29"),
        (("resolve", "-h"), "b14085381002fddba1b8a2f6192530068b57ca056064811dc16d9477e31ca655"),
        (("audit", "-h"), "37b797ba1969045e8ffb50fc98973685907b56baf027422cdf7b81093f8989cc"),
        (("verify", "-h"), "76e04043cef7cc015d84860b49aae4deff7c9f4b87bb858c4c6294e1f761c97b"),
    ])
    def test_help_bytes(self, workdir, capsys, monkeypatch, argv, sha256):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PASS and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_usage_error_bytes(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, "spectrum", "--sector-mult", "3")
        assert code == EXIT_USAGE and out == ""
        assert err == (
            "usage: wolfes4 spectrum [-h] [--omega OMEGA] [--g1sq G1SQ]\n"
            "                        [--max-quanta MAX_QUANTA] [--grid-points GRID_POINTS]\n"
            "                        [--domain-extent DOMAIN_EXTENT] [--tol TOL]\n"
            "                        [--sector-mult {1,2}] [--format {json,csv}]\n"
            "                        [--out OUT] [--config CONFIG]\n"
            "wolfes4 spectrum: error: argument --sector-mult: invalid choice: 3 "
            "(choose from 1, 2)\n")
