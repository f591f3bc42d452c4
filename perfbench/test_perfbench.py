"""Tests of the benchmark's own logic: span arithmetic, tracing wrappers, output checks.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import json
import sys
import threading
from pathlib import Path

import pytest

import checks
import run
import tracing

sys.path.insert(0, str(run.SRC))

from wolfes4 import cli  # noqa: E402


def span(sid, start, end, parent=None, thread=1, name="verify.f"):
    return tracing.Span(sid, name, start, end, parent, thread)


class TestSelfTime:
    def test_overlapping_worker_children_are_taken_away_once(self):
        parent = span(1, 0.0, 10.0)
        children = [span(2, 1.0, 6.0, 1, thread=2, name="numsolve.solve_channel"),
                    span(3, 3.0, 8.0, 1, thread=3, name="numsolve.solve_channel")]
        # the union [1, 8] is covered, not 5 + 5
        assert tracing.self_time(parent, children) == pytest.approx(3.0)

    def test_children_are_clipped_to_the_parent(self):
        parent = span(1, 2.0, 6.0)
        assert tracing.self_time(parent, [span(2, 0.0, 3.0, 1), span(3, 5.0, 9.0, 1)]) \
            == pytest.approx(2.0)

    def test_no_children(self):
        assert tracing.self_time(span(1, 1.0, 4.5), []) == pytest.approx(3.5)

    def test_layer_metrics_overlap_and_self_time_across_threads(self):
        spans = [span(1, 0.0, 10.0, name="cli.main"),
                 span(2, 1.0, 9.0, 1, name="verify.verify_spherical_route"),
                 span(3, 2.0, 6.0, 2, thread=2, name="numsolve.solve_channel_extrapolated"),
                 span(4, 4.0, 8.0, 2, thread=3, name="numsolve.solve_channel_extrapolated")]
        m = tracing.layer_metrics(spans, report_bytes=0)
        assert m["numsolve.busy_s"] == pytest.approx(8.0)
        assert m["numsolve.covered_s"] == pytest.approx(6.0)
        assert m["numsolve.overlap"] == pytest.approx(8.0 / 6.0)
        assert m["verify.self_s"] == pytest.approx(2.0)
        assert m["cli.self_s"] == pytest.approx(2.0)


class TestTracer:
    def test_worker_spans_keep_the_callers_parent(self):
        tracer = tracing.Tracer()

        def work():
            with tracer.span("numsolve.solve_channel"):
                pass

        with tracer.span("verify.f"):
            worker = threading.Thread(target=tracer.carry(work))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        child, parent = tracer.spans
        assert child.parent == parent.id
        assert child.thread != parent.thread

    def test_to_json_recursion_records_one_span(self):
        payload = {"levels": [{"N": n, "members": [[n, 0, 0], [0, 0, n]]} for n in range(50)]}
        expected = cli.to_json(payload)
        tracer = tracing.Tracer()
        for name in ("to_json", "to_csv", "render_checks"):
            tracer.patch(cli, name, tracer.outermost("cli.render"))
        try:
            assert cli.to_json(payload) == expected
            assert [s.name for s in tracer.spans] == ["cli.render"]
        finally:
            tracer.restore()
        assert not hasattr(cli.to_json, "__wrapped__")

    def test_install_and_restore_leave_the_modules_unchanged(self):
        from wolfes4 import grid3d, numsolve, verify

        before = {(m.__name__, k): getattr(m, k)
                  for m in (cli, verify, numsolve, grid3d) for k in dir(m)}
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.restore()
        after = {(m.__name__, k): getattr(m, k)
                 for m in (cli, verify, numsolve, grid3d) for k in dir(m)}
        assert before == after


@pytest.fixture()
def spectrum_reports(tmp_path, monkeypatch):
    """JSON and CSV spectra written by the CLI after `resolve`."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["resolve", "--out", "resolve.json"]) == 0
    assert cli.main(["spectrum", "--max-quanta", "8", "--out", "s.json"]) == 0
    assert cli.main(["spectrum", "--max-quanta", "8", "--sector-mult", "2",
                     "--format", "csv", "--out", "s.csv"]) == 0
    return {fmt: (tmp_path / f"s.{fmt}").read_bytes() for fmt in ("json", "csv")}


class TestSpectrumChecker:
    def test_class_sizes_match_brute_force(self):
        for n in range(12):
            brute = sum(1 for a in range(n + 1) for b in range(n + 1) for c in range(n + 1)
                        if a + c + 2 * b == n)
            assert checks.class_size(n) == brute

    def test_ground_level(self):
        # omega*(0 + 1 + 1 + delta) with delta = sqrt(1/4 + 1) at g1^2 = 3
        (n, energy, degeneracy), = checks.expected_levels(1.0, 3.0, 0, 2)
        assert (n, degeneracy) == (0, 2)
        assert energy == pytest.approx(2.0 + 1.25 ** 0.5)

    @pytest.mark.parametrize("argv, fmt", [
        (["spectrum", "--max-quanta", "8"], "json"),
        (["spectrum", "--max-quanta", "8", "--sector-mult", "2", "--format", "csv"], "csv"),
    ])
    def test_accepts_cli_output(self, spectrum_reports, argv, fmt):
        out = checks.check_report(argv, 0, spectrum_reports[fmt], spectrum_reports[fmt])
        assert out.problems == []
        assert out.failed == 0
        assert out.max_abs_err < 1e-9

    def test_rejects_a_wrong_energy(self, spectrum_reports):
        payload = json.loads(spectrum_reports["json"])
        payload["levels"][3]["energy"] += 1e-6
        out = checks.check_report(["spectrum", "--max-quanta", "8"], 0,
                                  json.dumps(payload).encode(), None)
        assert out.problems == ["spectrum-energies"]

    def test_rejects_a_wrong_degeneracy(self, spectrum_reports):
        text = spectrum_reports["csv"].decode().splitlines()
        n, energy, degeneracy, members = text[3].split(",", 3)
        text[3] = ",".join([n, energy, str(int(degeneracy) + 2), members])
        out = checks.check_report(
            ["spectrum", "--max-quanta", "8", "--sector-mult", "2", "--format", "csv"], 0,
            ("\n".join(text) + "\n").encode(), None)
        assert out.problems == ["spectrum-degeneracies"]

    def test_rejects_a_missing_level_and_a_changed_report(self, spectrum_reports):
        payload = json.loads(spectrum_reports["json"])
        del payload["levels"][-1]
        out = checks.check_report(["spectrum", "--max-quanta", "8"], 0,
                                  json.dumps(payload).encode(), spectrum_reports["json"])
        assert "spectrum-levels" in out.problems
        assert "byte-identical to the first pass" in out.problems


class TestReportChecks:
    def entry(self, measured, status, tolerance=1e-3):
        return {"name": "x", "status": status, "measured": measured, "reference": 1.0,
                "tolerance": tolerance, "provenance": ""}

    def test_failing_entry_is_counted_but_is_not_a_problem(self):
        data = json.dumps({"checks": [self.entry(1.5, "fail")]}).encode()
        out = checks.check_report(["verify", "3d"], 1, data, None)
        assert (out.checks, out.failed, out.problems) == (3, 1, [])
        assert out.max_abs_err == pytest.approx(0.5)

    def test_status_that_disagrees_with_the_numbers_is_a_problem(self):
        data = json.dumps({"checks": [self.entry(1.5, "pass")]}).encode()
        out = checks.check_report(["verify", "3d"], 0, data, None)
        assert out.problems == ["status of x"]

    def test_exit_code_must_follow_the_statuses(self):
        data = json.dumps({"checks": [self.entry(1.0, "pass"),
                                      self.entry("inf", "pass", "inf")]}).encode()
        assert checks.check_report(["hf-check"], 0, data, None).problems == []
        assert checks.check_report(["hf-check"], 1, data, None).problems \
            == ["exit code 1, expected 0"]

    def test_crash_fails_the_command(self):
        out = checks.check_report(["audit"], None, None, None)
        assert out.problems and out.failed == 1


def test_pass_order_keeps_resolve_first_and_follows_the_seed():
    commands = run.WORKLOADS["routes-1d"]
    orders = [run.pass_order(commands, run.random.Random(seed)) for seed in range(5)]
    assert all(o[0] == 0 and sorted(o) == list(range(len(commands))) for o in orders)
    assert orders[0] == run.pass_order(commands, run.random.Random(0))
    assert len({tuple(o) for o in orders}) > 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.LAYER_UNITS.values())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
