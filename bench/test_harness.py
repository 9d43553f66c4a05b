"""Tests of the benchmark harness itself (run with ``pytest bench``)."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

import harness
import run
from hostspeed import HostSpeed
from layers import FRAME_LAYERS, Hook, LayerTracer
from workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> dict[tuple[str, bool], dict]:
    """Every workload, untraced and traced, at a handful of frames."""
    out = tmp_path_factory.mktemp("runs")
    return {
        (name, trace): harness.run_workload(
            name, seed=1, seconds=60.0, trace=trace,
            out_dir=out / f"{name}-{trace}", max_frames=6, setups=2)
        for name in WORKLOADS for trace in (False, True)
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_completes_without_failures(records, name):
    for trace in (False, True):
        record = records[(name, trace)]
        assert record["failures"] == []
        assert record["failed"] == 0
        assert record["attempted"] > 0
        assert record["frames"] > 0


def test_replay_and_reference_checks_ran(records):
    assert records[("map_explore", False)]["replayed"] > 0
    assert records[("scatter_deep", False)]["replayed"] > 0
    assert records[("series_update", False)]["updates"] > 0


def test_metric_names_match_benchmark_json(records):
    declared = {
        False: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        True: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for (name, trace), record in records.items():
        metrics = run.result_line(record)["metrics"]
        assert set(metrics) == set(declared[trace]), (name, trace)
        for metric, entry in metrics.items():
            assert entry["unit"] == declared[trace][metric]
            assert isinstance(entry["value"], (int, float)), (name, metric)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_same_seed_same_script():
    for name, spec in WORKLOADS.items():
        first = list(itertools.islice(spec.script(7), 200))
        again = list(itertools.islice(spec.script(7), 200))
        other = list(itertools.islice(spec.script(8), 200))
        assert first == again, name
        assert first != other, name
        assert spec.warmup(7) == spec.warmup(7)


def test_layers_and_unaccounted_sum_to_frame_time(records):
    for name in WORKLOADS:
        layers = records[(name, True)]["layers"]
        shares = [layers[f"{layer}.share"]
                  for layer in (*FRAME_LAYERS, "unaccounted")]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9), name
        assert all(share >= 0.0 for share in shares[:-1]), name


def test_host_speed_rescales_by_the_probes_around_a_timing():
    host = HostSpeed()
    host.samples = [1.0] * 8 + [2.0] * 8
    assert host.factor(0) == 1.0
    assert host.factor(12) == 2.0
    assert host.rescale([(2, 0.010), (12, 0.010)]) == [0.010, 0.005]
    host.probe()
    assert len(host.samples) == 17 and host.samples[-1] > 0.0


def test_missing_hook_reports_null_layer():
    tracer = LayerTracer(hooks=(
        Hook("scene.cull", "repro.viewer.viewer", "Viewer.no_such_method"),
        Hook("canvas.png", "repro.no_such_module", "png_bytes"),
    ))
    tracer.install()
    tracer.uninstall()
    assert {"scene.cull", "canvas.png"} <= tracer.missing
    metrics = tracer.split({1: 0.010})
    assert metrics["scene.cull.p50_ms"] is None
    assert metrics["canvas.png.share"] is None
    assert metrics["unaccounted.share"] == pytest.approx(1.0)


def test_self_time_excludes_child_spans():
    from repro.api import build_fig4_station_map, build_weather_database

    database = build_weather_database(extra_stations=2, every_days=365)
    window = build_fig4_station_map(database).window()
    tracer = LayerTracer()
    tracer.install()
    try:
        window.viewer.render()
    finally:
        tracer.uninstall()
    render = next(s for s in tracer.spans if s.layer == "scene.cull")
    children = [s for s in tracer.spans if s.parent is render]
    assert children, "the render drew and demanded nothing"
    covered = sum(s.end - s.start for s in children)
    assert render.self_time == pytest.approx(
        render.end - render.start - covered)
    assert 0.0 < render.self_time < render.end - render.start
