"""Tests: the uniform CLI flag set across inspection subcommands.

``lint``/``explain``/``stats``/``trace``/``render`` share one argparse
parent parser, so ``--json``/``--timing``/``--strict`` parse (and mean the
same thing) on all of them.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

INSPECTION = ["lint", "explain", "stats", "trace", "render"]


def parse(argv):
    return build_parser().parse_args(argv)


class TestUniformParsing:
    @pytest.mark.parametrize("command", INSPECTION)
    def test_common_flags_accepted_everywhere(self, command):
        argv = [command, "--json", "--timing", "--strict"]
        if command == "render":
            argv += ["--out-dir", "out"]
        args = parse(argv)
        assert args.as_json is True
        assert args.timing is True
        assert args.strict is True

    @pytest.mark.parametrize("command", INSPECTION)
    def test_common_flags_default_off(self, command):
        argv = [command] if command != "render" else [command, "--out-dir", "x"]
        args = parse(argv)
        assert args.as_json is False
        assert args.timing is False
        assert args.strict is False

    def test_non_inspection_commands_reject_common_flags(self):
        with pytest.raises(SystemExit):
            parse(["tables", "--db", "x.json", "--timing"])

    def test_removed_workers_flag_rejected(self):
        with pytest.raises(SystemExit):
            parse(["explain", "--workers", "4"])

    def test_removed_columnar_flag_rejected(self):
        with pytest.raises(SystemExit):
            parse(["explain", "--columnar"])


class TestColumnarFlag:
    """The columnar backend shows in the inspection commands with no flag:
    the optimizer picks it per plan subtree."""

    def test_explain_json_reports_columnar_backend(self, capsys):
        assert main(["explain", "--figure", "fig4", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        backends = set()

        def walk(tree):
            backends.add(tree["backend"])
            for child in tree.get("children", ()):
                walk(child)

        for box in report["boxes"]:
            for output in box["outputs"]:
                for plan in output.get("plans", ()):
                    walk(plan["tree"])
        assert "columnar" in backends

    def test_stats_preregisters_columnar_counters(self, capsys):
        assert main(["stats", "--figure", "fig1", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        for counter in ("columnar.batches", "columnar.fallback"):
            assert counter in summary["metrics"], counter


class TestJsonOutputs:
    def test_trace_json_summary(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "fig1", "--out", str(out), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["target"] == "fig1"
        assert summary["spans"] > 0
        assert out.exists()

    def test_render_json_summary(self, capsys, tmp_path):
        assert main(["render", "--out-dir", str(tmp_path),
                     "--which", "fig1", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["figures"][0]["figure"] == "fig1"
        assert summary["figures"][0]["pixels"] > 0


class TestStrictSemantics:
    def test_render_strict_passes_on_nonblank_figures(self, capsys, tmp_path):
        assert main(["render", "--out-dir", str(tmp_path),
                     "--which", "fig1", "--strict"]) == 0
        capsys.readouterr()

    def test_lint_strict_still_gates_warnings(self, capsys):
        # Pre-existing behaviour routed through the shared parser.
        assert main(["lint", "--figure", "fig4", "--strict"]) in (0, 1)
        capsys.readouterr()


class TestStatsJsonSchema:
    def test_pinned_shape_with_cache_counters(self, capsys):
        """The `stats --json` contract: a repro.bench/1 summary whose
        metrics always include the result-cache counter set, even when the
        run didn't happen to exercise the cache."""
        assert main(["stats", "--figure", "fig4", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"schema", "spans", "events", "metrics",
                                "dropped"}
        assert summary["schema"] == "repro.bench/1"
        for counter in ("cache.hit", "cache.miss", "cache.evict"):
            assert counter in summary["metrics"], counter
        # Engine/render taxonomy is present too (the render really ran).
        assert "render.frames" in summary["metrics"]
        assert summary["spans"]  # non-empty span rollups


class TestTraceDefaultOut:
    def test_default_filename_is_deterministic(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "trace_fig1.json" in out
        assert (tmp_path / "trace_fig1.json").exists()
        # Same invocation, same filename: CI artifact globs stay stable.
        assert main(["trace", "fig1"]) == 0
        capsys.readouterr()

    def test_explicit_out_still_wins(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "fig1", "--out", "mytrace.json"]) == 0
        capsys.readouterr()
        assert (tmp_path / "mytrace.json").exists()
        assert not (tmp_path / "trace_fig1.json").exists()


class TestDashboardCommand:
    def test_headless_dashboard_smoke(self, tmp_path, capsys):
        out_dir = tmp_path / "dash"
        assert main(["dashboard", "--figure", "fig1", "--renders", "2",
                     "--out-dir", str(out_dir), "--json", "--strict"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_draw_ops"] > 0
        charts = {entry["chart"]: entry for entry in payload["charts"]}
        assert set(charts) == {"spans", "cache", "rates"}
        for entry in charts.values():
            assert entry["draw_ops"] > 0
        assert (out_dir / "timeseries.json").exists()
        assert (out_dir / "metrics.prom").exists()
        for chart in charts:
            assert (out_dir / f"dashboard_{chart}.ppm").exists()
        # The exported snapshot validates against its schema.
        from repro.obs import validate_timeseries

        validate_timeseries(json.loads(
            (out_dir / "timeseries.json").read_text()))
