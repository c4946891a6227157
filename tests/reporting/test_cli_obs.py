"""CLI observability surface: --trace, --profile and the metrics command."""

import json

import pytest

from repro.cli import main
from repro.obs import REGISTRY, trace, validate_trace


@pytest.fixture(autouse=True)
def clean_tracer():
    trace.reset()
    trace.disable()
    yield
    trace.reset()
    trace.disable()


class TestTraceFlag:
    def test_dse_writes_a_schema_valid_span_tree(self, capsys, tmp_path):
        target = tmp_path / "trace.json"
        code = main(["dse", "--min-flexibility", "2", "--trace", str(target)])
        captured = capsys.readouterr()
        assert code == 0
        assert f"wrote trace to {target}" in captured.err
        payload = json.loads(target.read_text())
        validate_trace(payload)
        (root,) = payload["spans"]
        assert root["name"] == "analysis.dse"
        names = {child["name"] for child in root["children"]}
        assert "analysis.evaluate_classes" in names

    def test_trace_does_not_change_stdout(self, capsys, tmp_path):
        code = main(["costs", "--n", "8"])
        plain = capsys.readouterr().out
        code2 = main(["costs", "--n", "8", "--trace", str(tmp_path / "t.json")])
        traced = capsys.readouterr().out
        assert code == code2 == 0
        assert plain == traced

    def test_tracer_is_disabled_after_the_command(self, capsys, tmp_path):
        main(["costs", "--n", "8", "--trace", str(tmp_path / "t.json")])
        capsys.readouterr()
        assert not trace.enabled()

    def test_report_supports_trace(self, capsys, tmp_path):
        target = tmp_path / "report-trace.json"
        code = main(["report", str(tmp_path / "bundle"), "--trace", str(target)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(target.read_text())
        validate_trace(payload)
        generate = next(
            span
            for root in payload["spans"]
            for span in _walk(root)
            if span["name"] == "report.generate"
        )
        artifacts = [s for s in _walk(generate) if s["name"] == "report.artifact"]
        assert generate["attributes"]["files"] == len(artifacts) > 0

    def test_trace_survives_a_failing_command(self, capsys, tmp_path):
        target = tmp_path / "fail.json"
        code = main([
            "faults", "--seed", "1", "--rate", "0.9",
            "--policy", "fail-fast", "--out", "-", "--trace", str(target),
        ])
        captured = capsys.readouterr()
        if code == 2:  # the demo aborted — the trace must still exist
            assert "error:" in captured.err
        validate_trace(json.loads(target.read_text()))


class TestMetricsCommand:
    def test_reports_sweep_and_machine_metrics(self, capsys):
        code = main(["metrics", "--n", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep.points" in out
        assert "sweep.wall_s" in out
        assert "machine.runs" in out

    def test_json_snapshot_is_machine_readable(self, capsys):
        # Counters are process-global, so measure what this run adds:
        # the 25-record survey sweep plus the resilience sweep's points.
        points_before = REGISTRY.snapshot()["sweep.points"]["value"]
        code = main(["metrics", "--n", "8", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        snapshot = json.loads(out)
        assert snapshot["sweep.points"]["type"] == "counter"
        assert snapshot["sweep.points"]["value"] - points_before > 25
        assert snapshot["sweep.wall_s"]["type"] == "histogram"
        assert snapshot["sweep.wall_s"]["count"] > 0


class TestProfileFlag:
    def test_costs_profile_writes_an_artifact(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["costs", "--n", "8", "--profile"])
        captured = capsys.readouterr()
        assert code == 0
        report = tmp_path / "artifacts" / "profile_costs.txt"
        assert "wrote profile to" in captured.err
        assert report.exists()
        content = report.read_text()
        assert "profile: costs" in content
        assert "cumulative time" in content
        assert "allocation sites" in content  # memory mode is on for the CLI


def _walk(span):
    yield span
    for child in span["children"]:
        yield from _walk(child)
