"""The benchmark's tracer, loaded as it ships, sees every 3D and 1D solve it wraps,
and every command's report and its rendering."""

import importlib.util
import pathlib
import sys
from collections import Counter

import pytest

from wolfes4 import cli, grid3d, verify

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tracing(monkeypatch):
    # registered while it runs, as its dataclasses need, under a name of its own
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_verify_3d_solves_run_inside_their_spans(tmp_path, monkeypatch, capsys):
    # the tracer wraps verify.solve_hd_3d and grid3d.lanczos_lowest where
    # their callers look them up; a 3D solve that bypassed either would drop
    # out of grid3d.solve_s or grid3d.lanczos_s
    monkeypatch.chdir(tmp_path)
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = cli.main(["verify", "3d", "--grid-points", "41", "--domain-extent", "5.5"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == cli.EXIT_PASS
    assert verify.solve_hd_3d is grid3d.solve_hd_3d
    names = Counter(span.name for span in tracer.spans)
    # five fine sectors, the partner's two and the partner's two again with
    # 4 DVR nodes fewer
    assert names["grid3d.solve_hd_3d"] == 1 and names["grid3d.lanczos_lowest"] == 9
    (solve,) = [span for span in tracer.spans if span.name == "grid3d.solve_hd_3d"]
    assert sum(span.parent == solve.id for span in tracer.spans
               if span.name == "grid3d.lanczos_lowest") == 5
    # the 3D pair's one extrapolation, wherever it is computed, counts in
    # numsolve.richardson_pairs; the others are the in-memory resolution's
    (check,) = [span for span in tracer.spans if span.name == "verify.verify_3d"]
    assert sum(span.parent == check.id for span in tracer.spans
               if span.name == "numsolve.richardson") == 1


def test_hf_check_solves_its_levels_in_pairs_and_its_expectation_on_one_ladder(
        tmp_path, monkeypatch, capsys):
    # the tracer wraps verify.solve_channel_extrapolated, and solve_channel and
    # richardson where verify and numsolve look them up; hf-check's four levels
    # are four Richardson pairs, and its expectation's three grids are solved
    # by the check itself, on one ladder, with no extrapolation of their levels
    monkeypatch.chdir(tmp_path)
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = cli.main(["hf-check", "--g1sq", "0.3"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == cli.EXIT_PASS
    pairs = {span.id for span in tracer.spans
             if span.name == "numsolve.solve_channel_extrapolated"}
    solves = [span for span in tracer.spans if span.name == "numsolve.solve_channel"]
    # two grids a pair and three for the expectation; at one level no box grows
    assert (len(pairs), len(solves)) == (4, 11)
    (check,) = [span for span in tracer.spans if span.name == "verify.hellmann_feynman_check"]
    assert sum(span.parent == check.id for span in solves) == 3
    assert all(span.parent in pairs for span in solves if span.parent != check.id)
    # one extrapolation a pair, and the three-grid elimination's three
    assert sum(span.name == "numsolve.richardson" for span in tracer.spans) == 7


#: argv, and the span its report is made in: a verify function, or spectrum's level table
COMMANDS = {
    "resolve": (["resolve"], "verify.resolve_formula_offsets"),
    "audit": (["audit"], "verify.bk_audit"),
    "hf-check": (["hf-check"], "verify.hellmann_feynman_check"),
    "verify-jacobi": (["verify", "jacobi"], "verify.verify_jacobi_route"),
    "spectrum": (["spectrum"], "model.enumerate_spectrum"),
    "spectrum-csv": (["spectrum", "--format", "csv"], "model.enumerate_spectrum"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_reports_and_renders_inside_one_span(tmp_path, monkeypatch, capsys,
                                                          command):
    # the tracer patches the names cli looks up when a command runs; a
    # command that bound its report function or its renderer at import time
    # would run outside these spans and empty the verify, model and cli metrics
    argv, report_span = COMMANDS[command]
    monkeypatch.chdir(tmp_path)
    cli.write_state_file(str(tmp_path / cli.STATE_FILE_NAME), 1.0, "candidate")
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    assert capsys.readouterr().out
    assert code == cli.EXIT_PASS
    names = Counter(span.name for span in tracer.spans)
    assert (names[report_span], names["cli.render"]) == (1, 1)
    (report,) = [span for span in tracer.spans if span.name == report_span]
    (render,) = [span for span in tracer.spans if span.name == "cli.render"]
    assert report.end <= render.start
