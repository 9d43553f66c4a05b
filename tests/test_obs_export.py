"""Unit tests for the exporters (repro.obs.export)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    BENCH_SCHEMA,
    COLUMNAR_BENCH_SCHEMA,
    PARALLEL_BENCH_SCHEMA,
    SERVER_BENCH_SCHEMA,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    render_tree,
    run_summary,
    validate_any_bench,
    validate_bench_summary,
    validate_chrome_trace,
    validate_columnar_bench,
    validate_server_bench,
    write_chrome_trace,
)


def sample_tracer() -> Tracer:
    tracer = Tracer(enabled=True)
    with tracer.span("outer", box=1):
        with tracer.span("inner", obj=object()):
            tracer.event("marker", note="hi")
    return tracer


class TestChromeTrace:
    def test_structure_validates(self):
        obj = chrome_trace(sample_tracer(), process_name="unit")
        events = validate_chrome_trace(obj)
        phases = [event["ph"] for event in events]
        assert phases.count("X") == 2
        assert phases.count("i") == 1
        assert "M" in phases
        meta = next(e for e in events if e["name"] == "process_name")
        assert meta["args"]["name"] == "unit"

    def test_timestamps_relative_to_origin(self):
        events = chrome_trace(sample_tracer())["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert all(e["ts"] >= 0 for e in xs)
        assert all(e["dur"] >= 0 for e in xs)
        # Some span starts at the origin itself.
        assert min(e["ts"] for e in xs) == 0

    def test_non_primitive_attrs_become_repr(self):
        events = chrome_trace(sample_tracer())["traceEvents"]
        inner = next(e for e in events if e["name"] == "inner")
        assert isinstance(inner["args"]["obj"], str)

    def test_write_round_trips_through_json(self, tmp_path):
        path = write_chrome_trace(sample_tracer(), tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        validate_chrome_trace(loaded)
        assert loaded["otherData"]["dropped"] == 0


class TestValidateChromeTrace:
    def test_rejects_non_object(self):
        with pytest.raises(ObservabilityError):
            validate_chrome_trace([])

    def test_rejects_missing_keys(self):
        with pytest.raises(ObservabilityError, match="missing required"):
            validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "X"}]})

    def test_rejects_unknown_phase(self):
        with pytest.raises(ObservabilityError, match="unsupported phase"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1}]}
            )

    def test_rejects_negative_duration(self):
        with pytest.raises(ObservabilityError, match="non-negative"):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "X", "pid": 1, "ts": 0, "dur": -1}
                ]}
            )


class TestRenderTree:
    def test_indents_children(self):
        text = render_tree(sample_tracer())
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
        assert "box=1" in lines[0]

    def test_min_ms_elides_cheap_spans(self):
        text = render_tree(sample_tracer(), min_ms=10_000.0)
        assert text == ""

    def test_reports_dropped(self):
        tracer = Tracer(enabled=True, max_spans=1)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert "dropped" in render_tree(tracer)


class TestRunSummary:
    def test_rollups_by_name(self):
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("work"):
                pass
        summary = run_summary(tracer)
        assert summary["schema"] == BENCH_SCHEMA
        assert summary["spans"]["work"]["count"] == 3
        assert summary["spans"]["work"]["total_ms"] >= 0
        assert "mean_ms" in summary["spans"]["work"]
        assert summary["dropped"] == 0

    def test_includes_metrics_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("test.export.rows").inc(4, label="n1")
        summary = run_summary(None, registry)
        assert summary["spans"] == {}
        assert summary["metrics"]["test.export.rows"]["total"] == 4
        json.dumps(summary)  # JSON-ready

    def test_counts_events(self):
        tracer = Tracer(enabled=True)
        tracer.event("hit")
        tracer.event("hit")
        assert run_summary(tracer)["events"] == {"hit": 2}

    def test_no_tracer_no_registry_is_pinned_empty_shape(self):
        from repro.obs import empty_run_summary

        # The documented degenerate shape: every key present, all empty.
        expected = {"schema": BENCH_SCHEMA, "spans": {}, "events": {},
                    "metrics": {}, "dropped": 0}
        assert empty_run_summary() == expected
        assert run_summary() == expected
        assert run_summary(None, None) == expected
        # Fresh dict each call — callers may mutate their copy.
        assert empty_run_summary() is not empty_run_summary()

    def test_degrades_per_argument(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        only_metrics = run_summary(None, registry)
        assert only_metrics["spans"] == {} and only_metrics["events"] == {}
        assert only_metrics["metrics"] != {}
        tracer = Tracer(enabled=True)
        with tracer.span("s"):
            pass
        only_spans = run_summary(tracer, None)
        assert only_spans["metrics"] == {}
        assert only_spans["spans"]["s"]["count"] == 1


class TestExportersWithoutTracer:
    def test_chrome_trace_none_is_valid_empty_trace(self):
        trace = chrome_trace(None)
        validate_chrome_trace(trace)
        assert trace["otherData"]["dropped"] == 0
        # Only the process-name metadata event remains.
        assert all(ev["ph"] == "M" for ev in trace["traceEvents"])

    def test_render_tree_none_is_empty_string(self):
        assert render_tree(None) == ""


class TestValidateBenchSummary:
    def good(self):
        return {
            "schema": BENCH_SCHEMA,
            "benchmarks": [
                {"name": "bench::one",
                 "timing": {"mean_s": 0.1, "rounds": 5},
                 "telemetry": {"spans": {}}},
                {"name": "bench::disabled", "timing": None},
            ],
            "metric_declarations": {"engine.box.fires": "counter"},
        }

    def test_accepts_good_payload(self):
        payload = self.good()
        assert validate_bench_summary(payload) is payload

    def test_rejects_wrong_schema_tag(self):
        payload = self.good()
        payload["schema"] = "repro.bench/0"
        with pytest.raises(ObservabilityError, match="schema"):
            validate_bench_summary(payload)

    def test_rejects_missing_benchmarks(self):
        with pytest.raises(ObservabilityError, match="benchmarks"):
            validate_bench_summary({"schema": BENCH_SCHEMA})

    def test_rejects_nameless_entry(self):
        payload = self.good()
        payload["benchmarks"].append({"timing": None})
        with pytest.raises(ObservabilityError, match="name"):
            validate_bench_summary(payload)

    def test_rejects_timing_without_mean(self):
        payload = self.good()
        payload["benchmarks"][0]["timing"] = {"rounds": 5}
        with pytest.raises(ObservabilityError, match="mean_s"):
            validate_bench_summary(payload)


class TestValidateColumnarBench:
    def good(self):
        return {
            "schema": COLUMNAR_BENCH_SCHEMA,
            "benchmarks": [{
                "name": "fast_scatter_cull_restrict",
                "arms": {
                    "row": {"seconds": 0.52},
                    "columnar": {"seconds": 0.03},
                },
                "speedup": 17.3,
                "counters": {"columnar.batches": 12,
                             "columnar.fallback": 0},
            }],
        }

    def test_accepts_good_payload(self):
        payload = self.good()
        assert validate_columnar_bench(payload) is payload

    def test_speedup_and_counters_are_optional(self):
        payload = self.good()
        del payload["benchmarks"][0]["speedup"]
        del payload["benchmarks"][0]["counters"]
        validate_columnar_bench(payload)

    def test_rejects_wrong_schema_tag(self):
        payload = self.good()
        payload["schema"] = BENCH_SCHEMA
        with pytest.raises(ObservabilityError, match="schema"):
            validate_columnar_bench(payload)

    def test_rejects_empty_arms(self):
        payload = self.good()
        payload["benchmarks"][0]["arms"] = {}
        with pytest.raises(ObservabilityError, match="arm"):
            validate_columnar_bench(payload)

    def test_rejects_negative_seconds(self):
        payload = self.good()
        payload["benchmarks"][0]["arms"]["row"]["seconds"] = -1.0
        with pytest.raises(ObservabilityError, match="seconds"):
            validate_columnar_bench(payload)

    def test_rejects_nonpositive_speedup(self):
        payload = self.good()
        payload["benchmarks"][0]["speedup"] = 0.0
        with pytest.raises(ObservabilityError, match="speedup"):
            validate_columnar_bench(payload)


class TestValidateServerBench:
    def good(self):
        return {
            "schema": SERVER_BENCH_SCHEMA,
            "benchmarks": [{
                "name": "fig4_ws_load",
                "viewers": 50,
                "renders_per_viewer": 6,
                "latency": {"p50_s": 0.02, "p99_s": 0.07,
                            "mean_s": 0.03, "max_s": 0.08},
                "throughput_cps": 1000.0,
                "frames": {"delivered": 300, "dropped": 0},
                "cache": {"hits": 300},
            }],
        }

    def test_accepts_good_payload(self):
        payload = self.good()
        assert validate_server_bench(payload) is payload

    def test_throughput_and_sections_are_optional(self):
        payload = self.good()
        del payload["benchmarks"][0]["throughput_cps"]
        del payload["benchmarks"][0]["frames"]
        del payload["benchmarks"][0]["cache"]
        validate_server_bench(payload)

    def test_rejects_wrong_schema_tag(self):
        payload = self.good()
        payload["schema"] = BENCH_SCHEMA
        with pytest.raises(ObservabilityError, match="schema"):
            validate_server_bench(payload)

    def test_rejects_missing_viewers(self):
        payload = self.good()
        del payload["benchmarks"][0]["viewers"]
        with pytest.raises(ObservabilityError, match="viewers"):
            validate_server_bench(payload)

    def test_rejects_missing_latency_quantile(self):
        payload = self.good()
        del payload["benchmarks"][0]["latency"]["p99_s"]
        with pytest.raises(ObservabilityError, match="p99_s"):
            validate_server_bench(payload)

    def test_rejects_negative_latency(self):
        payload = self.good()
        payload["benchmarks"][0]["latency"]["p50_s"] = -0.1
        with pytest.raises(ObservabilityError, match="p50_s"):
            validate_server_bench(payload)

    def test_rejects_negative_throughput(self):
        payload = self.good()
        payload["benchmarks"][0]["throughput_cps"] = -1.0
        with pytest.raises(ObservabilityError, match="throughput_cps"):
            validate_server_bench(payload)


class TestValidateAnyBench:
    def test_routes_by_schema_tag(self):
        columnar = TestValidateColumnarBench().good()
        assert validate_any_bench(columnar) is columnar
        server = TestValidateServerBench().good()
        assert validate_any_bench(server) is server
        obs = {"schema": BENCH_SCHEMA,
               "benchmarks": [{"name": "b", "timing": None}]}
        assert validate_any_bench(obs) is obs
        parallel = {
            "schema": PARALLEL_BENCH_SCHEMA,
            "benchmarks": [{
                "name": "p",
                "arms": {"cold": {"cache": False, "seconds": 1.0}},
                "speedup": 1.0,
            }],
        }
        assert validate_any_bench(parallel) is parallel

    def test_unknown_schema_raises(self):
        with pytest.raises(ObservabilityError, match="schema"):
            validate_any_bench({"schema": "nope/1", "benchmarks": []})
